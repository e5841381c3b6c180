"""Left type D modules over the genus-1 surface algebra.

A module is a set of generators, each carrying an idempotent (the algebra
element iota0 or iota1), and a set of labelled arrows x -> a y with a a
nonzero algebra element satisfying iota(x) a iota(y) = a.  The structure
equation is d^2 = 0: for every pair of composable arrows the products
along two-step paths cancel mod 2.  Arrows labelled by an idempotent are
the differential part and are the ones removed by homotopy reduction.
"""
from __future__ import annotations

import random
from bisect import bisect_left, insort
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import product
from typing import NamedTuple

from .algebra import _MUL, _UNITS, NONZERO, AlgebraElement, left_idem, right_idem

__all__ = [
    "DArrow", "TypeDModule", "ReductionTrace", "make_module",
    "validate_d", "reduce_d", "minimize_d", "isomorphic_d", "to_dot",
]


class DArrow(NamedTuple):  # a tuple: hashed, compared and ordered in C
    source: str
    target: str
    label: AlgebraElement


_new = tuple.__new__  # a DArrow or DAAction built in C, not in namedtuple's __new__


@dataclass(frozen=True)
class TypeDModule:
    generators: tuple[tuple[str, AlgebraElement], ...]
    arrows: tuple[DArrow, ...]
    tags: dict = field(default_factory=dict, compare=False)

    def idems(self) -> dict[str, AlgebraElement]:
        return dict(self.generators)

    def names(self) -> list[str]:
        return [n for n, _ in self.generators]


def make_module(gens, arrows, tags=None) -> TypeDModule:
    # fromkeys drops repeats but keeps the order: sorted input sorts in one pass
    atuple = tuple(sorted(dict.fromkeys(arrows)))
    return TypeDModule(tuple(sorted(gens)), atuple, dict(tags or {}))


# (idempotent of source, label, idempotent of target) of each well-formed arrow
_WELL_FORMED = frozenset((left_idem(c), c, right_idem(c)) for c in NONZERO)
# the two idempotents in a fixed order, which a frozenset does not have
_IDEMPOTENTS = (AlgebraElement.I0, AlgebraElement.I1)


def validate_d(M: TypeDModule) -> list[str]:
    idems = M.idems()
    if len(idems) != len(M.generators):
        return ["duplicate generator names"]
    out = [f"generator {n}: idempotent {i!r} is not iota0 or iota1"
           for n, i in M.generators if i not in _UNITS]
    get = idems.get
    for s, t, c in [a for a in M.arrows if (get(a[0]), a[2], get(a[1])) not in _WELL_FORMED]:
        if s not in idems or t not in idems:
            out.append(f"arrow {s}->{t} references unknown generator")
            continue
        if c is AlgebraElement.ZERO:
            out.append(f"arrow {s}->{t} labelled zero")
            continue
        if left_idem(c) is not idems[s]:
            out.append(f"arrow {s}->{t}: label {c.value} does not start at {idems[s]!r}")
        if right_idem(c) is not idems[t]:
            out.append(f"arrow {s}->{t}: label {c.value} does not end at {idems[t]!r}")
    if out:
        return out
    for s, t, c in sorted(_odd_terms(M.arrows), key=str):
        out.append(f"d^2 != 0: odd count {s} -> {c.value} {t}")
    return out


def _odd_terms(edges, splits=None) -> list[tuple]:
    """The terms of the structure equations that occur an odd number of
    times, laid out as the edges are, in no set order.

    An edge is a DAAction (source, inputs, coeff, target) or, without
    inputs, a DArrow (source, target, coeff).  The terms are the composable
    pairs of edges, inputs joined and coefficients multiplied, and, given
    ``splits`` (each chord's two-chord factorisations), each edge with one
    input split in two."""
    outs: dict[str, list[tuple]] = defaultdict(list)
    for e in edges:
        outs[e[0]].append(e)
    zero = AlgebraElement.ZERO
    if edges and len(edges[0]) == 3:  # indexed: a DArrow unpacks through an iterator
        counts = Counter((a[0], b[1], p) for a in edges for b in outs.get(a[1], ())
                         if (p := _MUL[a[2]][b[2]]) is not zero)
    else:
        counts = Counter((s, a + b, p, u) for s, a, c, t in edges
                         for _, b, d, u in outs.get(t, ()) if (p := _MUL[c][d]) is not zero)
    if splits:
        counts.update((s, a[:i] + split + a[i + 1:], c, t) for s, a, c, t in edges
                      for i, x in enumerate(a) for split in splits[x])
    return [key for key, n in counts.items() if n & 1]


ARITY_CAP = 8  # inputs a cancellation may give one action

# the coefficients in value order: a label without inputs is coded by its
# coefficient's index here, so 1 and 2 code the differential's labels
_COEFF = tuple(sorted(AlgebraElement))
_COEFF_CODE = {c: k for k, c in enumerate(_COEFF)}
_BARE = tuple(((), k) for k in range(len(_COEFF)))  # the labels without inputs
# the products and factors of coefficient codes, 0 (ZERO) for none:
# _MUL_CODE[a][b] = ab, _LEFT_FACTOR[m][l] = c with cl = m and
# _RIGHT_FACTOR[l][m] = c with lc = m; chord intervals concatenate, so at
# most one c does either
_MUL_CODE = [[_COEFF_CODE[_MUL[a][b]] for b in _COEFF] for a in _COEFF]
_LEFT_FACTOR = [[0] * len(_COEFF) for _ in _COEFF]
_RIGHT_FACTOR = [[0] * len(_COEFF) for _ in _COEFF]
for _a, _row in enumerate(_MUL_CODE):
    for _b, _m in enumerate(_row):
        if _a and _b and _m:
            _LEFT_FACTOR[_m][_b], _RIGHT_FACTOR[_a][_m] = _a, _b


class _Graph:
    """Mutable module, numbered and indexed by adjacency, edited in place
    and frozen once.

    The generators are numbered 0 .. N-1 in name order (``names``); an
    edge end that names no generator, as in an unvalidated module, is
    numbered among them, with no idempotent, so that the box can refuse
    it.  A label (inputs, coefficient) has a code: codes 0-8 are the
    coefficients without inputs in value order (_COEFF), and a label with
    inputs is interned in ``labels`` when the graph is built or a
    cancellation makes it.  An edge s -> t with label code k is the pair
    (t, k) in the set ``out[s]`` and (s, k) in ``inc[t]``; ``diff`` holds
    s * N + t for each differential edge (no inputs, an idempotent
    coefficient: code 1 or 2), sorted.  A cancelled generator's idempotent
    and sets are None.  Ids follow names and codes follow coefficients, so
    the ints of diff and the pairs, compared as tuples, sort as the named
    edges do: diff[0], a seeded choice from diff, the scan order of
    _minimize and the match, and the frozen arrow order, (target, code)
    per source, are those of the names.  Names come back in freeze, in
    replay lookups (``index``) and in error texts.  The graph carries no
    tags: _freeze_d takes a module's tags back at the end.
    """

    def __init__(self, generators, edges):
        """The graph of generator tuples (name, left idempotent, ...) and a
        list or tuple of distinct edges: arrows (source, target, coeff) of a
        type D module or actions (source, inputs, coeff, target) of a DA
        bimodule."""
        gens = {g[0]: g for g in generators}  # of a repeated name, the last
        self.labels: list[tuple[tuple, int]] = list(_BARE)
        self.codes: dict[tuple, int] = {}  # the code of each label with inputs
        code = _COEFF_CODE  # the code of an edge's last field
        if edges and len(edges[0]) == 4:  # actions: code their labels, interning
            edges = [(s, t, self._code(args, code[c]) if args else code[c])
                     for s, args, c, t in edges]
            code = range(len(self.labels))  # each code stands for itself
        try:
            self._fill(sorted(gens), edges, code)
        except KeyError:  # an end that names no generator: numbered too
            self._fill(sorted({*gens, *(e[0] for e in edges), *(e[1] for e in edges)}), edges, code)
        self.gens = [gens.get(name) for name in self.names]
        self.left = [None if g is None else _COEFF_CODE[g[1]] for g in self.gens]

    def _fill(self, names: list, edges: list, code) -> None:
        """Number names in turn and add the edges (source, target, c), c
        coded by ``code``."""
        self.names, n = names, len(names)
        self.index = index = dict(zip(names, range(n)))
        self.out: list[set | None] = [set() for _ in names]
        self.inc: list[set | None] = [set() for _ in names]
        self.diff: list[int] = []
        # the edges are distinct (make_module, make_da, the constructions'
        # graphs and the box drop repeats), so this is what toggling each one
        # in would build
        out, inc, diff = self.out, self.inc, self.diff
        for s, t, c in edges:
            s, t, k = index[s], index[t], code[c]
            out[s].add((t, k))
            inc[t].add((s, k))
            if 0 < k < 3:
                diff.append(s * n + t)
        diff.sort()

    def _code(self, args: tuple, coeff: int) -> int:
        """The code of the label (args, coeff), args not empty, interned."""
        label = (args, coeff)
        code = self.codes.get(label)
        if code is None:
            code = self.codes[label] = len(self.labels)
            self.labels.append(label)
        return code

    def live(self) -> list[int]:
        """The ids of the live generators, in name order."""
        return [i for i, idem in enumerate(self.left) if idem is not None]

    def toggle(self, edges) -> None:
        """Add each edge (source id, target id, label code) if absent,
        remove it if present (addition mod 2), in turn."""
        out, inc, diff, n = self.out, self.inc, self.diff, len(self.names)
        for s, t, k in edges:
            out_s, end = out[s], (t, k)
            if end in out_s:
                out_s.remove(end)
                inc[t].remove((s, k))
                if 0 < k < 3:
                    del diff[bisect_left(diff, s * n + t)]
            else:
                out_s.add(end)
                inc[t].add((s, k))
                if 0 < k < 3:
                    insort(diff, s * n + t)

    def cancel(self, s: int, t: int) -> None:
        """Cancel the differential edge s -> t (the cancellation lemma).

        Every zig-zag x -> t <- s -> y becomes an edge x -> y, possibly
        passing through further edges s -> t ("mids") first.  On type D
        data a second mid multiplies to zero: mids are chords from one
        idempotent to itself.  Every product is taken before the graph is
        edited, so a refused cancellation leaves its edges as they were: only
        the labels it interned stay in the table.
        """
        left, out, inc = self.left, self.out, self.inc
        if left[s] is None or left[t] is None or (t, left[s]) not in out[s]:
            raise ValueError(f"no idempotent arrow {self.names[s]} -> {self.names[t]}")
        outs, ints = out[s], inc[t]
        # (end, label code) of each edge out of s, a mid's end written None;
        # an input-free idempotent mid besides the edge only occurs in
        # malformed data, where passing through it would never end.  Loops,
        # not comprehensions: a cancellation meets a handful of edges, and
        # the call a comprehension makes would cost more than its loop
        steps = []
        for y, k in outs:
            if y != s and y != t:
                steps.append((y, k))
            elif y == t and not 0 < k < 3:
                steps.append((None, k))
        toggles = []  # the zig-zag edges x -> y: one made twice cancels mod 2
        if steps:
            labels = self.labels
            # (x, label code) of each path x -> t, and of each path that
            # passes on through a mid, appended as it is found
            paths = []
            for x, k in ints:
                if x != s and x != t:
                    paths.append((x, k))
            for x, a in paths:
                args, coeff = labels[a]
                row = _MUL_CODE[coeff]
                for y, b in steps:
                    more, lab = labels[b]
                    c = row[lab]
                    if not c:
                        continue
                    if args or more:
                        if len(args) + len(more) > ARITY_CAP:
                            raise ValueError(f"cancellation exceeds arity cap {ARITY_CAP}")
                        c = self._code(args + more, c)
                    if y is None:  # pass through a mid, back to s
                        paths.append((x, c))
                    else:
                        toggles.append((x, y, c))
        # no zig-zag edge touches s or t: remove both whole, each edge from
        # the set of its other end, an edge between them from neither
        diff, n = self.diff, len(self.names)
        left[s] = left[t] = out[s] = inc[t] = None
        outt, incs = out[t] or (), inc[s] or ()  # none left if t is s
        out[t] = inc[s] = None
        for y, k in outs:
            if y != s and y != t:
                inc[y].remove((s, k))
            if 0 < k < 3:
                del diff[bisect_left(diff, s * n + y)]
        for y, k in outt:
            if y != s and y != t:
                inc[y].remove((t, k))
            if 0 < k < 3:
                del diff[bisect_left(diff, t * n + y)]
        for x, k in ints:
            if x != s and x != t:
                out[x].remove((t, k))
                if 0 < k < 3:
                    del diff[bisect_left(diff, x * n + t)]
        for x, k in incs:
            if x != s and x != t:
                out[x].remove((s, k))
                if 0 < k < 3:
                    del diff[bisect_left(diff, x * n + s)]
        if toggles:
            self.toggle(toggles)

    def toggled(self, gen: int, other: int, coeff: int) -> set:
        """The edges (source, target, code) that replacing gen by gen +
        coeff*other toggles an odd number of times, read off without
        editing the graph; coeff is a coefficient code, and the graph's
        labels are all without inputs, as a type D module's are."""
        row = _MUL_CODE[coeff]
        # arrows out of other now also leave gen, each once: left
        # multiplication by coeff is injective where it is nonzero ...
        odd, loops = set(), set()
        for y, k in self.out[other]:
            if c := row[k]:
                odd.add((gen, y, c))
                if y == gen:
                    loops.add((gen, c))
        # ... and the old gen is (new gen) + coeff*other: arrows into gen, a
        # loop at gen toggled above by an arrow other -> gen among them; these
        # are distinct too, but one may be an edge toggled above
        more = set()
        for x, k in self.inc[gen] ^ loops if loops else self.inc[gen]:
            if c := _MUL_CODE[k][coeff]:
                more.add((x, other, c))
        odd ^= more
        return odd

    def base_change(self, gen: int, other: int, coeff: int) -> set:
        """Replace gen by gen + coeff*other: toggle the edges of toggled(gen,
        other, coeff) and return them, so toggling them again undoes it."""
        odd = self.toggled(gen, other, coeff)
        self.toggle(odd)
        return odd

    def change_delta(self, gen: int, other: int, coeff: int) -> int:
        """The change in the number of edges that base_change(gen, other,
        coeff) would make: each toggled edge present goes, each absent comes."""
        odd, out = self.toggled(gen, other, coeff), self.out
        return len(odd) - 2 * sum((t, k) in out[s] for s, t, k in odd)

    def freeze(self) -> tuple:
        """The live generator tuples and the edges (source, inputs, coeff,
        target), named and in name order: for a type D module, its arrow order."""
        names, labels = self.names, self.labels
        edges = []
        for s, ends in zip(names, self.out):
            if ends:
                for t, k in sorted(ends):
                    args, c = labels[k]
                    edges.append((s, args, _COEFF[c], names[t]))
        return tuple([g for g, idem in zip(self.gens, self.left) if idem is not None]), edges


def _graph_d(M: TypeDModule) -> _Graph:
    return _Graph(M.generators, M.arrows)


def _freeze_d(G: _Graph, tags: dict | None = None) -> TypeDModule:
    """The type D module of G, with the entries of ``tags`` (the tags of
    the module G was built from) that name no generator G lost."""
    gens, edges = G.freeze()
    if tags:
        gone = {g[0] for g, idem in zip(G.gens, G.left) if g is not None and idem is None}
        tags = {n: v for n, v in tags.items() if n not in gone}
    # the edges are distinct and already in arrow order
    return TypeDModule(gens, tuple(_new(DArrow, (s, t, c)) for s, _, c, t in edges), tags or {})


@dataclass(frozen=True)
class ReductionTrace:
    pairs: tuple[tuple[str, str], ...]


def _reduce(G: _Graph, order) -> ReductionTrace:
    """Cancel in place until no differential edge remains (see reduce_d)."""
    names, index = G.names, G.index
    if isinstance(order, (list, tuple)):
        for (s, t) in order:
            if s not in index or t not in index:
                raise ValueError(f"no idempotent arrow {s} -> {t}")
            G.cancel(index[s], index[t])
        return ReductionTrace(tuple((s, t) for s, t in order))
    if order is not None and not isinstance(order, int):
        hint = "; pass trace.pairs" if isinstance(order, ReductionTrace) else ""
        raise TypeError("order must be None, an int seed or a list or tuple of (source, target)"
                        f" pairs, not {type(order).__name__}{hint}")
    rng = None if order is None else random.Random(order)
    trace: list[tuple[str, str]] = []
    diff, n = G.diff, len(names)
    while diff:
        s, t = divmod(rng.choice(diff) if rng else diff[0], n)
        G.cancel(s, t)
        trace.append((names[s], names[t]))
    return ReductionTrace(tuple(trace))


def reduce_d(M: TypeDModule, order=None) -> tuple[TypeDModule, ReductionTrace]:
    """Cancel idempotent arrows until none remain.

    order: None for deterministic lexicographic choice, an int seed for a
    random order, or an explicit list or tuple of (source, target) pairs to
    replay (a trace's ``pairs``); any other kind is a TypeError.
    """
    G = _graph_d(M)
    trace = _reduce(G, order)
    return _freeze_d(G, M.tags), trace


def _scored_changes(G: _Graph, gen: int) -> list:
    """The (other, coeff, delta) of each base change gen -> gen + coeff*other
    that can remove an arrow of the type D graph G, in search order; other
    is an id, coeff a code and delta change_delta's.

    A change can remove an arrow only by toggling a present one.  A hit
    finds such an arrow, gen -> y: coeff*l beside other -> y: l, or
    x -> other: l*coeff beside x -> gen: l, in one pass over gen's two-step
    neighbourhood.  The one present arrow no hit finds: an idempotent coeff
    and an arrow other -> gen: l make a loop gen -> gen: l, through which
    the change toggles gen -> other: l.  So the candidates are the hits and
    the idempotent coeff of each 2-cycle gen <-> other with one label; any
    other change toggles only absent arrows.  A hit is kept as the pair
    (other, coeff), so sorting them sorts by other, then coeff.  The list
    is built before it is returned, so the caller may edit G between items
    if it restores it.
    """
    out, inc = G.out, G.inc
    hits: set = set()
    ends = out[gen]
    for y, lab in ends:
        row = _LEFT_FACTOR[lab]
        for o, k in inc[y]:
            if (c := row[k]) and o != gen:
                hits.add((o, c))
    for x, lab in inc[gen]:
        if x != gen and (x, lab) in ends:  # gen <-> x, one label: both ends carry its idempotent
            hits.add((x, G.left[gen]))
        row = _RIGHT_FACTOR[lab]
        for o, k in out[x]:
            if (c := row[k]) and o != gen:
                hits.add((o, c))
    changes = []  # most generators of a reduced module have none
    for other, c in sorted(hits):
        changes.append((other, c, G.change_delta(gen, other, c)))
    return changes


def minimize_d(M: TypeDModule) -> TypeDModule:
    """Greedily shrink the arrow set of a reduced module by base changes.

    Homotopy reduction can leave arrows that an invertible change of basis
    removes; repeatedly apply the first strictly-improving change, in the
    order of generators and then of _scored_changes, until none exists.
    The output is isomorphic to the input.  No change that _scored_changes
    leaves out lowers the arrow count, so the output is that of the search
    over every pair; every step removes an arrow, so there are at most
    len(M.arrows) of them.
    """
    G = _graph_d(M)
    _minimize(G)
    return _freeze_d(G, M.tags)


def _minimize(G: _Graph) -> None:
    """minimize_d in place on the module graph G."""
    gens = G.live()
    while True:
        best = next(((gen, other, c) for gen in gens
                     for other, c, delta in _scored_changes(G, gen) if delta < 0), None)
        if best is None:
            return
        G.base_change(*best)


MATCH_DEPTH, MATCH_CAP = 2, 4000  # base changes deep, candidate modules kept


def _match_up_to_base_change(left: TypeDModule, right: TypeDModule):
    """Permutation isomorphism search, allowing a few changes of basis.

    Minimal modules are unique up to isomorphism but not up to
    permutation; explore arrow-count-preserving base changes of the left
    side (breadth-first, MATCH_DEPTH deep) until the generator graphs
    coincide.  Only the changes that _scored_changes scores give a new
    candidate, since every other one adds an arrow or none; once MATCH_CAP
    are kept, the rest are matched but not expanded.  Returns the module
    matched and its mapping onto right, or None and whether a new candidate
    was dropped because MATCH_CAP of them were already kept.
    """
    seen = {left.arrows}
    frontier = [left]
    hit = False
    memo: dict = {}  # what _isomorphic reads of the fixed right side, read once
    for level in range(MATCH_DEPTH + 1):
        nxt = []
        for M in frontier:
            mapping = _isomorphic(M.generators, M.arrows, right.generators, right.arrows, memo)
            if mapping is not None:
                return M, mapping
            if level == MATCH_DEPTH or hit:
                continue
            # apply, freeze and undo only the changes that add no arrow
            G = _graph_d(M)
            for gen, other, coeff, delta in ((gen, *change) for gen in G.live()
                                             for change in _scored_changes(G, gen)):
                if hit:
                    break
                if delta > 0:
                    continue
                toggled = G.base_change(gen, other, coeff)
                cand = _freeze_d(G)
                if cand.arrows not in seen and not (hit := len(seen) > MATCH_CAP):
                    seen.add(cand.arrows)
                    nxt.append(cand)
                G.toggle(toggled)
        frontier = nxt
    return None, hit


def isomorphic_d(M: TypeDModule, N: TypeDModule) -> dict[str, str] | None:
    """Search for a generator bijection matching idempotents and arrows.

    Returns the mapping M -> N, or None when no permutation-level
    isomorphism exists (base-change isomorphisms are not attempted).
    Equal modules match by the identity, and loop-type modules with the
    same cycle words by aligning them; see _isomorphic.
    """
    return _isomorphic(M.generators, M.arrows, N.generators, N.arrows)


# a small int per algebra element and per generator's idempotents, one or
# two of them: signatures sort in C
_CODE = {x: i for i, x in enumerate((*AlgebraElement, *product(_IDEMPOTENTS, repeat=1),
                                     *product(_IDEMPOTENTS, repeat=2)))}


def _index(gens, edges) -> tuple:
    """Adjacency (neighbour, code of the label), signatures and signature
    classes of a module, read from its generator tuples (name, *idempotents)
    and its DArrows, or its DAActions with the codes of the inputs and the
    coeff as the label.  A signature codes a generator's idempotents and the
    (label, idempotents) of its arrows out and in; codes are injective, as
    equality needs."""
    if edges and len(edges[0]) == 4:
        edges = [(s, t, (*map(_CODE.get, args), _CODE[c])) for s, args, c, t in edges]
    else:
        edges = [(s, t, _CODE[c]) for s, t, c in edges]
    idems = {g[0]: _CODE[g[1:]] for g in gens}
    out: dict[str, set] = {n: set() for n in idems}
    inc: dict[str, set] = {n: set() for n in idems}
    for s, t, c in edges:
        out[s].add((t, c))
        inc[t].add((s, c))
    sig = {n: (i, tuple(sorted([(c, idems[t]) for t, c in out[n]])),
               tuple(sorted([(c, idems[s]) for s, c in inc[n]])))
           for n, i in idems.items()}
    by_sig: dict[tuple, list] = defaultdict(list)
    for n in sorted(sig):
        by_sig[sig[n]].append(n)
    return out, inc, sig, by_sig


# a byte per arrow end (idempotent of its generator, label, 1 at the target)
_LETTER = {key: k for k, key in enumerate(product(_IDEMPOTENTS, AlgebraElement, (0, 1)))}


def _least_rotation(w: bytes) -> int | None:
    """Where the least rotation of w starts, None if two do (w is periodic).
    Two starts that agree for k letters and then differ: the larger one's
    next k + 1 starts lose too, so it jumps past them to a least letter."""
    n, least = len(w), bytes([min(w)])
    d, i, j, k = w + w + least, 0, 1, 0  # a start past n ends the scan
    while j < n and k < n:
        if (a := d[i + k]) == (b := d[j + k]):
            k += 1
            continue
        i, j = (d.find(least, i + k + 1), j) if a > b else (i, d.find(least, j + k + 1))
        i, j, k = min(i, j), max(i, j) + (i == j), 0
    return None if k == n else i


def _cycle_words(gens: tuple, edges: tuple) -> dict | None:
    """The cycles of a loop-type type D module keyed by their words, each
    listing its generators in its word's order; None unless each generator
    meets two arrow ends, to two others, and no rotation or reflection of a
    cycle keeps its word (it is primitive, unlike its reverse and no other
    cycle's).  A reading spells the _LETTER of the end by which it leaves
    each generator, and a word is the least rotation of the two readings."""
    idem = dict(gens)
    ends: dict[str, list] = {n: [] for n in idem}
    for s, t, c in edges:
        ends[s].append((t, _LETTER[idem[s], c, 0]))
        ends[t].append((s, _LETTER[idem[t], c, 1]))
    if any(len(e) != 2 or e[0][0] == e[1][0] for e in ends.values()):
        return None  # a generator of another valence, a loop or a 2-cycle
    words: dict[bytes, tuple] = {}
    for start in (n for n in idem if n in ends):
        steps, g, prev = [], start, None
        while not steps or g != start:  # at g from prev: leave by the other end
            (a, ca), (b, cb) = ends.pop(g)
            steps.append((g, cb, ca) if a == prev else (g, ca, cb))
            prev, g = g, b if a == prev else a
        cycle, fw, bw = zip(*steps)
        least = sorted((w[i:] + w[:i], read[i:] + read[:i]) for w, read in
                       ((bytes(fw), cycle), (bytes(bw[::-1]), cycle[::-1]))
                       if (i := _least_rotation(w)) is not None)
        # a periodic word, one equal to its reverse's or to another cycle's
        if len(least) < 2 or least[0][0] == least[1][0] or least[0][0] in words:
            return None
        words[least[0][0]] = least[0][1]
    return words


def _isomorphic(gens_m: tuple, edges_m: tuple, gens_n: tuple, edges_n: tuple,
                memo_n: dict | None = None) -> dict[str, str] | None:
    """Backtracking bijection search shared by isomorphic_d and isomorphic_da
    on sorted generator and edge tuples; ``memo_n`` keeps what a call reads
    of N for the next call with it.  Equal modules match by the identity,
    the mapping the search finds first, and loop-type modules with the same
    cycle words (_cycle_words) by aligning them, the only isomorphism there
    is, so the one the search finds.  Generators are placed rarest
    signature, then name, first, and then breadth-first along the arrows.
    One reached from a placed generator (its anchor) is tried against the
    images of that arrow at the anchor's image with its signature, in name
    order: any other candidate fails kept.  A generator that starts a
    component is tried against its whole signature class.  The search runs
    depth-first in a loop, with one candidate iterator per generator being
    placed and a step back when one runs out, so a module may have more
    generators than Python's recursion limit.
    """
    if gens_m == gens_n and edges_m == edges_n:
        return {g[0]: g[0] for g in gens_m}
    if len(gens_m) != len(gens_n) or len(edges_m) != len(edges_n):
        return None
    memo_n = {} if memo_n is None else memo_n
    if len(edges_m) == len(gens_m) and len(edges_m[0]) == 3:  # type D, maybe loop-type
        if "words" not in memo_n:
            memo_n["words"] = _cycle_words(gens_n, edges_n)
        if ((words_n := memo_n["words"]) and (words_m := _cycle_words(gens_m, edges_m))
                and words_m.keys() == words_n.keys()):
            return {g: h for w, cycle in words_m.items() for g, h in zip(cycle, words_n[w])}
    if "index" not in memo_n:
        memo_n["index"] = _index(gens_n, edges_n)
    out_m, inc_m, sig_m, by_sig_m = _index(gens_m, edges_m)
    out_n, inc_n, sig_n, by_sig = memo_n["index"]
    freq = {s: len(ns) for s, ns in by_sig_m.items()}
    if freq != {s: len(ns) for s, ns in by_sig.items()}:
        return None
    # breadth-first along the arrows, each generator with the arrow from a
    # placed generator that first reached it
    placed: dict[str, tuple | None] = {}  # insertion-ordered
    for _, root in sorted((freq[s], n) for n, s in sig_m.items()):
        queue = [(root, None)]
        for n, via in queue:
            if n not in placed:
                placed[n] = via
                near = {s: (n, inc_n, c) for s, c in inc_m[n]}
                near.update((t, (n, out_n, c)) for t, c in out_m[n])
                queue += sorted(near.items())
    order = list(placed.items())
    mapping, inv = {}, {}  # M -> N as placed so far, and its inverse

    def kept(n: str, k: str) -> bool:
        """Each arrow of M at n with its other end n or placed maps to an arrow at k.  One way
        is exact: each arrow of M is checked once, as its later end (n for a loop) is placed, and
        freq gives N as many distinct arrows, so a full injective mapping hits every one of N's."""
        for t, lab in out_m[n]:
            if (t == n or t in mapping) and (mapping.get(t, k), lab) not in out_n[k]:
                return False
        for s, lab in inc_m[n]:
            if s in mapping and (mapping[s], lab) not in inc_n[k]:
                return False
        return True

    trials: list = []  # the candidates left for each generator being placed
    while len(mapping) < len(order):
        n, via = order[len(mapping)]  # via: (anchor, N's edges at the anchor's image, code)
        if len(trials) == len(mapping):
            sig = sig_m[n]
            trials.append(iter(by_sig[sig] if via is None else sorted(
                k for k, c in via[1][mapping[via[0]]] if c == via[2] and sig_n[k] == sig)))
        for k in trials[-1]:
            if k not in inv and kept(n, k):
                mapping[n] = k
                inv[k] = n
                break
        else:  # no candidate left: unplace the generator placed last
            trials.pop()
            if not trials:
                return None
            del inv[mapping.popitem()[1]]
    return mapping


def to_dot(M: TypeDModule) -> str:
    def q(s: str) -> str:  # a DOT quoted string
        return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = ["digraph {"]
    for n, i in sorted(M.generators):
        lines.append(f'  {q(n)} [label={q(f"{n} [{i.value}]")}];')
    for a in sorted(M.arrows):
        lines.append(f'  {q(a.source)} -> {q(a.target)} [label="{a.label.value}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
