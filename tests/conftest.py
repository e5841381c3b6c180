import functools
import pathlib
import random
import re
import sys
from bisect import bisect_left, insort
from collections import defaultdict

import pytest

from bhf import cfk, io_formats, ktd, type_d, type_da
from bhf.algebra import _MUL, _UNITS, NONZERO, AlgebraElement, left_idem, right_idem

ACCEPTANCE_CRITERIA = {
    1: "involution bimodule recovered from the sixfold twist tensor, "
       "scripted and unscripted",
    2: "base-free module of the five-generator example matches the "
       "frozen oracle",
    3: "base-free involution invariance verified on all five fixtures",
    4: "basis-path verification and framing adjustment by twisting",
    5: "basepoint flip negates gradings and swaps arrow families",
    6: "involution bimodule reverses rho23 cycles of length 1..6",
    7: "structural invariants: d^2 per cancel, confluence, "
       "associativity, identity unit law",
    8: "direct flip of the base-free module matches the flipped complex",
    9: "unstable chain length tracks framing minus two_tau",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results: dict[int, str] = {}
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            m = re.search(r"test_acceptance\.py::test_criterion_(\d+)",
                          getattr(rep, "nodeid", ""))
            if m:
                n = int(m.group(1))
                if outcome == "passed":
                    results.setdefault(n, "PASS")
                else:
                    results[n] = "FAIL"
    if results:
        terminalreporter.section("acceptance criteria")
        for n in sorted(results):
            terminalreporter.write_line(
                f"criterion {n}: {results[n]} - {ACCEPTANCE_CRITERIA[n]}")

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
# the benchmark's staircase complexes of torus knots, for the tests at scale
sys.path.append(str(ROOT / "bench"))

FIXTURE_NAMES = ["unknot", "trefoil_right", "trefoil_left", "figure_eight",
                 "five_gen"]

# the right-handed trefoil in the terse line format
TERSE_TREFOIL = ("a: A=1 M=0\nb: A=0 M=-1\nc: A=-1 M=-2\n"
                 "b -> U^1 a\nb -> c\n")


# the bimodule that each word of box_word names
BIMODULES = {"mu": type_da.builtin_tau_mu, "lambda": type_da.builtin_tau_lambda,
             "H": type_da.builtin_H}
# (tau_mu tau_lambda)^3, whose reduction is the involution bimodule H
SIXFOLD = "mu lambda " * 3


def box_word(word: str) -> type_da.TypeDAModule:
    """The box product of the bimodules that word names ("mu", "lambda",
    "H"), left first: the left fold of box_da_da that bhf build-h makes."""
    return functools.reduce(type_da.box_da_da, [BIMODULES[w]() for w in word.split()])


def load_cfk(name: str) -> cfk.KnotComplex:
    text = (FIXTURES / f"{name}.cfk.json").read_text(encoding="utf-8")
    return io_formats.parse_cfk(text)


def random_base_change(m, rng: random.Random) -> bool:
    """Attempt one filtered base change b += U^j a on the mutable complex
    ``m`` (a ``cfk._Mut``) between two random generators; False when the
    gradings admit none."""
    if len(m.gens) < 2:
        return False
    a, b = rng.sample(sorted(m.gens), 2)
    twice_j = m.gens[a].maslov - m.gens[b].maslov
    if twice_j < 0 or twice_j % 2:
        return False
    try:
        m.add_to(a, b, twice_j // 2)
    except ValueError:  # the change would raise the Alexander filtration
        return False
    return True


def random_complex(name: str, seed: int, shift=None) -> cfk.KnotComplex:
    """A fixture plus 0-3 acyclic pairs (vertical, horizontal, or unreduced
    with U^0 and Alexander drop 0), scrambled by up to 25 attempted filtered
    base changes.  The pairs are acyclic over F2[U, U^-1], but a vertical
    pair adds rank 2 to the horizontal homology and a horizontal pair to
    the vertical one.  Such a draw is no knot complex: both constructions
    refuse it alike, and ``tau`` refuses one with a horizontal pair."""
    rng = random.Random(seed)
    C = load_cfk(name)
    gens, arrows = list(C.generators), list(C.arrows)
    for i in range(rng.randint(0, 3)):
        A, M = rng.randint(-2, 2), rng.randint(-3, 2)
        p, q = f"p{i}", f"q{i}"
        kind = rng.choice(["vertical", "horizontal", "unreduced"])
        if kind == "vertical":
            q_gen, r = cfk.KnotGenerator(q, A - rng.randint(1, 2), M - 1), 0
        elif kind == "horizontal":
            r = rng.randint(1, 2)
            q_gen = cfk.KnotGenerator(q, A + r, M - 1 + 2 * r)
        else:
            q_gen, r = cfk.KnotGenerator(q, A, M - 1), 0
        gens += [cfk.KnotGenerator(p, A, M), q_gen]
        arrows.append(cfk.KnotArrow(p, q, r))
    return _scrambled(cfk.make_complex(gens, arrows, shift or C.shift), rng)


def _scrambled(C: cfk.KnotComplex, rng: random.Random) -> cfk.KnotComplex:
    """C after 0-25 attempted filtered base changes drawn from rng."""
    m = cfk._Mut(C)
    for _ in range(rng.randint(0, 25)):
        random_base_change(m, rng)
    return m.freeze()


def boxed_complex(name: str, seed: int) -> cfk.KnotComplex:
    """A fixture plus one or two boxes: four generators a, b, c, d with
    a -> b and c -> d vertical, and a -> U^h c and b -> U^h d horizontal.
    A box is acyclic over F2[U, U^-1] and adds nothing to either homology,
    so the result is a valid knot complex of the same knot; it is scrambled
    by up to 25 attempted filtered base changes."""
    rng = random.Random(seed)
    C = load_cfk(name)
    gens, arrows = list(C.generators), list(C.arrows)
    for i in range(rng.randint(1, 2)):
        A, M = rng.randint(-2, 2), rng.randint(-3, 2)
        v, h = rng.randint(1, 2), rng.randint(1, 2)
        a, b, c, d = (f"s{i}{x}" for x in "abcd")
        gens += [cfk.KnotGenerator(a, A, M), cfk.KnotGenerator(b, A - v, M - 1),
                 cfk.KnotGenerator(c, A + h, M - 1 + 2 * h),
                 cfk.KnotGenerator(d, A + h - v, M - 2 + 2 * h)]
        arrows += [cfk.KnotArrow(a, b, 0), cfk.KnotArrow(a, c, h),
                   cfk.KnotArrow(b, d, h), cfk.KnotArrow(c, d, 0)]
    return _scrambled(cfk.make_complex(gens, arrows, C.shift), rng)


def base_change(M, gen, other, coeff):
    """M with gen replaced by gen + coeff*other, changed in place on the
    module graph and frozen."""
    G = type_d._graph_d(M)
    G.base_change(*numbered(G, gen, other, coeff))
    return type_d._freeze_d(G)


def negated_columns(M):
    """M with each iota1 generator sym|s2 renamed sym|-s2, in its generators,
    arrows and tags: flip_ktd_direct(C, n) so renamed is ktd_basefree(flip(C), n)."""
    ren = {n: n for n, _ in M.generators}
    for n, i in M.generators:
        if i is AlgebraElement.I1:
            sym, _, s2 = n.rpartition("|")
            ren[n] = f"{sym}|{-int(s2)}"
    return type_d.make_module([(ren[n], i) for n, i in M.generators],
                              [type_d.DArrow(ren[s], ren[t], c) for s, t, c in M.arrows],
                              {ren.get(k, k): v for k, v in M.tags.items()})


def verify_sides(C, algo):
    """The two modules verify_elliptic_invariance(C, algo) compares, or None
    when it compares none (C is no knot complex, or has no simplified basis)."""
    sides, compare = [], ktd._compare_d
    ktd._compare_d = lambda left, right: sides.append((left, right)) or compare(left, right)
    try:
        ktd.verify_elliptic_invariance(C, algo)
    except ValueError:
        pass
    finally:
        ktd._compare_d = compare
    return sides[0] if sides else None


def search_only(M, N):
    """isomorphic_d(M, N) with the cycle-word path off, through a memo that
    gives N no words: the search's answer."""
    return type_d._isomorphic(M.generators, M.arrows, N.generators, N.arrows, {"words": None})


def matches_as_the_search_does(M, N) -> int:
    """Assert that isomorphic_d gives M -> N and N -> M the search's answer,
    the same mapping or None; return how many of the two the cycle words
    gave."""
    answered = 0
    for X, Y in ((M, N), (N, M)):
        assert type_d.isomorphic_d(X, Y) == search_only(X, Y)
        wx, wy = (type_d._cycle_words(Z.generators, Z.arrows) for Z in (X, Y))
        answered += X != Y and None not in (wx, wy) and wx.keys() == wy.keys()
    return answered


# the nonzero coefficients from one idempotent to another, in search order
COEFFS = {(l, r): [c for c in sorted(NONZERO) if left_idem(c) is l and right_idem(c) is r]
          for l in _UNITS for r in _UNITS}


def every_change(idems):
    """Every (gen, other, coeff) of a valid base change (gen != other and
    coeff from iota(gen) to iota(other)), in search order; type_d's
    _scored_changes, generator by generator, keeps a subsequence of it."""
    names = sorted(idems)
    for gen in names:
        for other in names:
            if other != gen:
                for coeff in COEFFS[idems[gen], idems[other]]:
                    yield gen, other, coeff


def check_graph(G, removed):
    """Assert that the in-place module graph G indexes one edge set: out
    and inc have one entry per live generator, inc mirrors out, diff agrees
    with it, and no edge touches a generator in removed."""
    N = Named(G)
    assert N.out.keys() == N.left.keys() == N.inc.keys()
    edges = {(s, t, lab) for s, out in N.out.items() for t, lab in out}
    assert edges == {(s, t, lab) for t, inc in N.inc.items() for s, lab in inc}
    assert N.diff == sorted((s, t) for s, t, (args, c) in edges
                            if not args and c in _UNITS)
    assert not any(s in removed or t in removed for s, t, _ in edges)
    assert removed.isdisjoint(N.left)


# type_d's module graph as it was before its generators were numbered, kept
# as the oracle of the numbered one: NameGraph is that _Graph, and the
# oracle_* functions are the readers of it that the numbered graph replaced
# (reduce_d, minimize_d, reduce_da and the base-change match)
D_LABEL = {c: ((), c) for c in AlgebraElement}
DIFF = frozenset(D_LABEL[u] for u in _UNITS)


class NameGraph:
    """type_d._Graph as it was before the generators were numbered: a name-
    keyed adjacency, edited in place and frozen once.

    An edge is (source, target, label) with label = (args, coeff), so a
    type D arrow is a DA action without inputs.  ``diff`` holds the sorted
    (source, target) pairs of the differential edges: no inputs and an
    idempotent coefficient.  The graph carries no tags: _freeze_d takes a
    module's tags back at the end.
    """

    def __init__(self, generators, edges):
        self.generators = generators
        # generator tuples start (name, left idempotent, ...)
        self.left = left = {g[0]: g[1] for g in generators}
        # one entry per generator, made up front: a sink has an empty out-set
        self.out: dict[str, set] = defaultdict(set, {n: set() for n in left})
        self.inc: dict[str, set] = defaultdict(set, {n: set() for n in left})
        self.diff: list[tuple[str, str]] = []
        # the edges are distinct (make_module, make_da, the constructions'
        # graphs and the box drop repeats), so this is what toggling each one
        # in would build
        out, inc, diff = self.out, self.inc, self.diff
        for s, t, label in edges:
            out[s].add((t, label))
            inc[t].add((s, label))
            if label in DIFF:
                diff.append((s, t))
        diff.sort()

    def toggle(self, edges) -> None:
        """Add each edge (source, target, label) if absent, remove it if
        present (addition mod 2), in turn."""
        out, inc, diff = self.out, self.inc, self.diff
        for s, t, label in edges:
            out_s, edge = out[s], (t, label)
            if edge in out_s:
                out_s.remove(edge)
                inc[t].remove((s, label))
                if label in DIFF:
                    del diff[bisect_left(diff, (s, t))]
            else:
                out_s.add(edge)
                inc[t].add((s, label))
                if label in DIFF:
                    insort(diff, (s, t))

    def cancel(self, s: str, t: str) -> None:
        """Cancel the differential edge s -> t (the cancellation lemma).

        Every zig-zag x -> t <- s -> y becomes an edge x -> y, possibly
        passing through further edges s -> t ("mids") first.  On type D
        data a second mid multiplies to zero: mids are chords from one
        idempotent to itself.  Every product is taken before the graph is
        edited, so a refused cancellation leaves the graph as it was.
        """
        left, out, inc, diff = self.left, self.out, self.inc, self.diff
        if s not in left or t not in left or (t, D_LABEL[left[s]]) not in out[s]:
            raise ValueError(f"no idempotent arrow {s} -> {t}")
        ends, outs, ints = (s, t), out[s], inc[t]
        # the edges out of s, a mid's end written None; an input-free
        # idempotent mid besides the edge only occurs in malformed data,
        # where passing through it would never end
        steps = [(None if y == t else y, lab) for y, lab in outs
                 if y not in ends or y == t and lab not in DIFF]
        zero = AlgebraElement.ZERO
        toggles = []  # the zig-zag edges x -> y: one made twice cancels mod 2
        # (x, inputs, coeff) of each path x -> t, and of each path that
        # passes on through a mid, appended as it is found
        paths = [(x, args, coeff) for x, (args, coeff) in ints if x not in ends] if steps else ()
        for x, args, coeff in paths:
            row = _MUL[coeff]
            for y, (more, lab) in steps:
                c = row[lab]
                if c is zero:
                    continue
                if args or more:
                    if len(args) + len(more) > type_d.ARITY_CAP:
                        raise ValueError(f"cancellation exceeds arity cap {type_d.ARITY_CAP}")
                    label = (args + more, c)
                else:
                    label = D_LABEL[c]
                if y is None:  # pass through a mid, back to s
                    paths.append((x, label[0], c))
                else:
                    toggles.append((x, y, label))
        # no zig-zag edge touches s or t: remove both whole, each edge from
        # the set of its other end, an edge between them from neither
        del left[s], out[s], inc[t]
        left.pop(t, None)  # gone already if t is s, as are its two sets
        for y, lab in outs:
            if y not in ends:
                inc[y].remove((s, lab))
            if lab in DIFF:
                del diff[bisect_left(diff, (s, y))]
        for y, lab in out.pop(t, ()):
            if y not in ends:
                inc[y].remove((t, lab))
            if lab in DIFF:
                del diff[bisect_left(diff, (t, y))]
        for x, lab in ints:
            if x not in ends:
                out[x].remove((t, lab))
                if lab in DIFF:
                    del diff[bisect_left(diff, (x, t))]
        for x, lab in inc.pop(s, ()):
            if x not in ends:
                out[x].remove((s, lab))
                if lab in DIFF:
                    del diff[bisect_left(diff, (x, s))]
        self.toggle(toggles)

    def toggled(self, gen: str, other: str, coeff: AlgebraElement) -> set:
        """The edges that replacing gen by gen + coeff*other toggles an odd
        number of times, read off without editing the graph."""
        zero = AlgebraElement.ZERO
        odd: set = set()
        row = _MUL[coeff]
        # arrows out of other now also leave gen ...
        for y, (args, lab) in self.out[other]:
            if (c := row[lab]) is not zero:
                odd ^= {(gen, y, (args, c))}
        # ... and the old gen is (new gen) + coeff*other: arrows into gen, a
        # loop at gen toggled above by an arrow other -> gen among them
        loops = {(gen, lab) for _, y, lab in odd if y == gen}
        for x, (args, lab) in self.inc[gen] ^ loops if loops else self.inc[gen]:
            if (c := _MUL[lab][coeff]) is not zero:
                odd ^= {(x, other, (args, c))}
        return odd

    def base_change(self, gen: str, other: str, coeff: AlgebraElement) -> set:
        """Replace gen by gen + coeff*other: toggle the edges of toggled(gen,
        other, coeff) and return them, so toggling them again undoes it."""
        odd = self.toggled(gen, other, coeff)
        self.toggle(odd)
        return odd

    def change_delta(self, gen: str, other: str, coeff: AlgebraElement) -> int:
        """The change in the number of edges that base_change(gen, other,
        coeff) would make: each toggled edge present goes, each absent comes."""
        odd = self.toggled(gen, other, coeff)
        return len(odd) - 2 * sum((t, lab) in self.out[s] for s, t, lab in odd)

    def freeze(self) -> tuple:
        """The sorted live generators and edges."""
        gens = tuple(sorted(g for g in self.generators if g[0] in self.left))
        edges = sorted((s, t, lab) for s, out in self.out.items() for t, lab in out)
        return gens, edges


def oracle_graph(gens, arrows) -> NameGraph:
    return NameGraph(gens, ((s, t, D_LABEL[c]) for s, t, c in arrows))


def oracle_freeze_d(G: NameGraph, tags: dict | None = None):
    gens, edges = G.freeze()
    if tags:
        gone = {g[0] for g in G.generators} - G.left.keys()
        tags = {n: v for n, v in tags.items() if n not in gone}
    return type_d.TypeDModule(gens, tuple(type_d.DArrow(s, t, c) for s, t, (_, c) in edges),
                              tags or {})


def oracle_reduce(G: NameGraph, order) -> type_d.ReductionTrace:
    if isinstance(order, (list, tuple)):
        for (s, t) in order:
            G.cancel(s, t)
        return type_d.ReductionTrace(tuple((s, t) for s, t in order))
    rng = random.Random(order) if isinstance(order, int) else None
    trace = []
    while G.diff:
        s, t = rng.choice(G.diff) if rng else G.diff[0]
        G.cancel(s, t)
        trace.append((s, t))
    return type_d.ReductionTrace(tuple(trace))


def oracle_reduce_d(M, order=None):
    G = oracle_graph(M.generators, M.arrows)
    trace = oracle_reduce(G, order)
    return oracle_freeze_d(G, M.tags), trace


def oracle_reduce_da(B, order=None):
    G = NameGraph(B.generators, ((a.source, a.target, (a.args, a.coeff)) for a in B.actions))
    trace = oracle_reduce(G, order)
    gens, edges = G.freeze()
    return type_da.TypeDAModule(gens, tuple(sorted(type_da.DAAction(s, args, c, t)
                                                   for s, t, (args, c) in edges))), trace


LEFT_FACTOR = {l: {_MUL[c][l]: c for c in NONZERO if _MUL[c][l] is not AlgebraElement.ZERO}
               for l in AlgebraElement}
RIGHT_FACTOR = {l: {_MUL[l][c]: c for c in NONZERO if _MUL[l][c] is not AlgebraElement.ZERO}
                for l in AlgebraElement}


def oracle_scored_changes(G: NameGraph, gen: str) -> list:
    """The (other, coeff, delta) of each base change gen -> gen + coeff*other
    that can remove an arrow of G, in search order; delta is change_delta's.

    A change can remove an arrow only by toggling a present one.  A hit
    finds such an arrow, gen -> y: coeff*l beside other -> y: l, or
    x -> other: l*coeff beside x -> gen: l, in one pass over gen's two-step
    neighbourhood.  The one present arrow no hit finds: an idempotent coeff
    and an arrow other -> gen: l make a loop gen -> gen: l, through which
    the change toggles gen -> other: l.  So the candidates are the hits and
    the idempotent coeff of each 2-cycle gen <-> other with one label; any
    other change toggles only absent arrows.  The list is built before it
    is returned, so the caller may edit G between items if it restores it.
    """
    hits: set = set()
    out = G.out[gen]
    for y, (args, m) in out:
        for o, (a, l) in G.inc[y]:
            if o != gen and a == args and (c := LEFT_FACTOR[l].get(m)):
                hits.add((o, c))
    for x, lab in G.inc[gen]:
        if x != gen and (x, lab) in out:  # both ends carry lab's idempotent
            hits.add((x, G.left[gen]))
        for o, (a, m) in G.out[x]:
            if o != gen and a == lab[0] and (c := RIGHT_FACTOR[lab[1]].get(m)):
                hits.add((o, c))
    if not hits:  # most generators of a reduced module: nothing to sort or score
        return []
    return [(other, c, G.change_delta(gen, other, c)) for other, c in sorted(hits)]


def oracle_minimize_d(M):
    G = oracle_graph(M.generators, M.arrows)
    names = sorted(G.left)
    while True:
        best = next(((gen, other, c) for gen in names
                     for other, c, delta in oracle_scored_changes(G, gen) if delta < 0), None)
        if best is None:
            return oracle_freeze_d(G, M.tags)
        G.base_change(*best)


def oracle_match(left, right):
    """type_d._match_up_to_base_change on NameGraph."""
    seen = {left.arrows}
    frontier = [left]
    hit = False
    memo: dict = {}
    for level in range(type_d.MATCH_DEPTH + 1):
        nxt = []
        for M in frontier:
            mapping = type_d._isomorphic(M.generators, M.arrows, right.generators, right.arrows,
                                         memo)
            if mapping is not None:
                return M, mapping
            if level == type_d.MATCH_DEPTH or hit:
                continue
            G = oracle_graph(M.generators, M.arrows)
            for gen, other, coeff, delta in ((gen, *change) for gen in sorted(G.left)
                                             for change in oracle_scored_changes(G, gen)):
                if hit:
                    break
                if delta > 0:
                    continue
                toggled = G.base_change(gen, other, coeff)
                cand = oracle_freeze_d(G)
                if cand.arrows not in seen and not (hit := len(seen) > type_d.MATCH_CAP):
                    seen.add(cand.arrows)
                    nxt.append(cand)
                G.toggle(toggled)
        frontier = nxt
    return None, hit


class Named:
    """The numbered module graph G read by name, laid out as NameGraph holds
    it, each part decoded when first read: ``out`` and ``inc`` give each
    generator that still has sets (or each of ``gens``, when given) its
    (other end, (inputs, coeff)) pairs, ``diff`` is the sorted (source,
    target) pairs of the differential edges and ``left`` gives each live
    generator its idempotent."""

    def __init__(self, G, *gens):
        self.G, self.ids = G, [G.index[g] for g in gens] or range(len(G.names))

    def _ends(self, sets) -> dict:
        names = self.G.names
        labels = [(args, type_d._COEFF[c]) for args, c in self.G.labels]
        return {names[i]: {(names[j], labels[k]) for j, k in sets[i]}
                for i in self.ids if sets[i] is not None}

    @functools.cached_property
    def out(self) -> dict:
        return self._ends(self.G.out)

    @functools.cached_property
    def inc(self) -> dict:
        return self._ends(self.G.inc)

    @functools.cached_property
    def diff(self) -> list:
        names, n = self.G.names, len(self.G.names)
        return [(names[d // n], names[d % n]) for d in self.G.diff]

    @functools.cached_property
    def left(self) -> dict:
        names = self.G.names
        return {names[i]: type_d._COEFF[k] for i, k in enumerate(self.G.left) if k is not None}

    def edges(self, edges) -> set:
        """Edges (source id, target id, label code) of G as (source, target,
        (inputs, coeff))."""
        names, labels = self.G.names, self.G.labels
        return {(names[s], names[t], (labels[k][0], type_d._COEFF[labels[k][1]]))
                for s, t, k in edges}


def numbered(G, *change) -> tuple:
    """A named (gen, other, coeff) or edge (source, target, (inputs, coeff))
    of the type D graph G as G's ids and codes take it."""
    gen, other, coeff = change
    if isinstance(coeff, tuple):
        assert not coeff[0]  # a base change runs on a type D graph
        coeff = coeff[1]
    return G.index[gen], G.index[other], type_d._COEFF_CODE[coeff]


@pytest.fixture(params=FIXTURE_NAMES)
def any_complex(request):
    return load_cfk(request.param)


@pytest.fixture
def five_gen():
    return load_cfk("five_gen")


@pytest.fixture
def trefoil():
    return load_cfk("trefoil_right")
