"""Type DA bimodules over the genus-1 surface algebra.

A bimodule generator carries a left (type D side) and a right (type A
side) idempotent, each the algebra element iota0 or iota1.  An action

    (x, a_1, ..., a_k)  ->  c (x')

consumes a chain of k >= 0 composable non-idempotent algebra inputs
starting at the right idempotent of x and emits one output coefficient c
(possibly an idempotent) with left_idem(c) = left idempotent of x and
right_idem(c) = left idempotent of x'.  k = 0 actions are the
differential.  Structure equations are the A-infinity relations with a
strictly unital convention: no action consumes an idempotent input.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .algebra import _UNITS, AlgebraElement, CHORDS, is_idempotent, left_idem, multiply, right_idem
from .type_d import (_WELL_FORMED, DArrow, ReductionTrace, TypeDModule, _Graph, _isomorphic,
                     _new, _odd_terms, _reduce)

__all__ = [
    "DAAction", "TypeDAModule", "make_da",
    "builtin_tau_mu", "builtin_tau_lambda", "builtin_identity", "builtin_H",
    "validate_da", "box_da_d", "box_da_da",
    "reduce_da", "isomorphic_da",
]

A = AlgebraElement


class DAAction(NamedTuple):  # a tuple, as DArrow
    source: str
    args: tuple[AlgebraElement, ...]
    coeff: AlgebraElement
    target: str


@dataclass(frozen=True)
class TypeDAModule:
    generators: tuple[tuple[str, AlgebraElement, AlgebraElement], ...]
    actions: tuple[DAAction, ...]

    def idems(self) -> dict[str, tuple[AlgebraElement, AlgebraElement]]:
        return {n: (l, r) for n, l, r in self.generators}

    def names(self) -> list[str]:
        return [n for n, _, _ in self.generators]


def make_da(gens, actions) -> TypeDAModule:
    return TypeDAModule(tuple(sorted(gens)),
                        tuple(sorted(dict.fromkeys(actions))))  # see make_module


def _act(src, args, coeff, tgt) -> DAAction:
    return DAAction(src, tuple(args), coeff, tgt)


def builtin_tau_mu() -> TypeDAModule:
    """Bimodule of one negative meridional Dehn twist (framing change +1)."""
    I0, I1 = A.I0, A.I1
    gens = [("p", I0, I0), ("q", I1, I1), ("r", I1, I0)]
    acts = [
        _act("p", [A.R1], A.R1, "q"),
        _act("p", [A.R123], A.R123, "q"),
        _act("p", [A.R3, A.R23], A.R3, "q"),
        _act("q", [A.R23], A.R23, "q"),
        _act("r", [A.R3], A.I1, "q"),
        _act("p", [A.R12], A.R123, "r"),
        _act("p", [A.R3, A.R2], A.R3, "r"),
        _act("q", [A.R2], A.R23, "r"),
        _act("r", [], A.R2, "p"),
    ]
    return make_da(gens, acts)


def builtin_tau_lambda() -> TypeDAModule:
    """Bimodule of one longitudinal Dehn twist."""
    I0, I1 = A.I0, A.I1
    gens = [("p", I0, I0), ("q", I1, I1), ("s", I0, I1)]
    acts = [
        _act("q", [A.R2, A.R1], A.R2, "s"),
        _act("q", [A.R2, A.R123], A.R23, "q"),
        _act("p", [A.R12], A.R12, "p"),
        _act("p", [A.R3], A.R3, "q"),
        _act("s", [A.R2], A.I0, "p"),
        _act("q", [A.R2, A.R12], A.R2, "p"),
        # Printed source lists an extra rho2 input, but idempotent chaining
        # and the structure equations force the arity-one form.
        _act("p", [A.R1], A.R12, "s"),
        _act("p", [A.R123], A.R123, "q"),
        _act("s", [], A.R1, "q"),
        _act("s", [A.R23], A.R3, "q"),
    ]
    return make_da(gens, acts)


def builtin_identity() -> TypeDAModule:
    """Identity bimodule: one generator per idempotent, one action per chord."""
    I0, I1 = A.I0, A.I1
    gens = [("i0", I0, I0), ("i1", I1, I1)]
    name = {I0: "i0", I1: "i1"}
    acts = [_act(name[left_idem(c)], [c], c, name[right_idem(c)]) for c in CHORDS]
    return make_da(gens, acts)


def builtin_H() -> TypeDAModule:
    """Bimodule of the elliptic involution of the torus boundary."""
    I0, I1 = A.I0, A.I1
    gens = [
        ("x1", I1, I0), ("x2", I0, I0), ("x3", I1, I0),
        ("u", I0, I1), ("v", I1, I1), ("y1", I1, I1),
        ("y2", I1, I1), ("y3", I0, I1),
    ]
    acts = [
        _act("x3", [], A.R2, "x2"),
        _act("x2", [], A.R1, "x1"),
        _act("u", [], A.R1, "y1"),
        _act("u", [], A.R3, "y2"),
        _act("y2", [], A.R2, "y3"),
        _act("y3", [], A.R1, "v"),
        _act("x3", [A.R12], A.I1, "x1"),
        _act("y1", [A.R23], A.I1, "v"),
        _act("u", [A.R23], A.I0, "y3"),
        _act("x3", [A.R1], A.I1, "y1"),
        _act("y1", [A.R2], A.I1, "x1"),
        _act("u", [A.R2], A.I0, "x2"),
        _act("x3", [A.R3], A.I1, "y2"),
        _act("x2", [A.R3], A.I0, "y3"),
        _act("x1", [A.R3], A.I1, "v"),
        _act("x3", [A.R123], A.I1, "v"),
    ]
    return make_da(gens, acts)


# the right idempotent where each chord ends, by the idempotent it starts at
_STEP = {(left_idem(c), c): right_idem(c) for c in CHORDS}


# the two-chord factorisations: rho1.rho2, rho2.rho3, rho1.rho23, rho12.rho3
_SPLITS = {c: [(p, q) for p in CHORDS for q in CHORDS if multiply(p, q) is c]
           for c in CHORDS}


def validate_da(B: TypeDAModule) -> list[str]:
    """Check well-formedness, then the A-infinity relations.

    A relation can fail only where it has a term, so the terms come from
    the actions: each composable pair of actions, and each action with one
    input split into two chords.  There is no length bound.  Failures are
    listed by generator, then by input length, then by chords in order.
    """
    names = B.names()
    if len(set(names)) != len(names):
        return ["duplicate generator names"]
    out = [f"generator {n}: {side} idempotent {i!r} is not iota0 or iota1"
           for n, l, r in B.generators for side, i in (("left", l), ("right", r))
           if i not in _UNITS]
    idems = B.idems()
    for s, args, c, t in B.actions:
        if s not in idems or t not in idems:
            out.append(f"action at {s}->{t}: unknown generator")
            continue
        (ls, rs), (lt, rt) = idems[s], idems[t]
        end = rs  # where the inputs end, chained from rs: None if they do not chain
        for a in args:
            end = _STEP.get((end, a))
        if end is None:
            out.append(f"action {s}{tuple(a.value for a in args)}: "
                       "inputs do not chain from the right idempotent")
            continue
        if end is not rt:
            out.append(f"action {s}->{t}: inputs end at the wrong right idempotent")
        if (ls, c, lt) not in _WELL_FORMED:
            out.append(f"action {s}->{t}: zero coefficient" if c is A.ZERO else
                       f"action {s}->{t}: coefficient {c.value} mismatches left idempotents")
    if out:
        return out
    rank = {x: i for i, x in enumerate(names)}
    odd = sorted(_odd_terms(B.actions, _SPLITS), key=lambda k: (
        rank[k[0]], len(k[1]), [CHORDS.index(c) for c in k[1]], str((k[3], k[2]))))
    for x, seq, c, tgt in odd:
        out.append(f"A-infinity relation fails at ({x}, "
                   f"{[a.value for a in seq]}): odd term {c.value} {tgt}")
    return out


_SEP = "⊗"  # product generators are named b⊗x


def _box(B: TypeDAModule, generators, edges) -> tuple[list, list]:
    """Box tensor product of B with a right factor, read as generator tuples
    (name, left idempotent, ...) and edges (source, inputs, output, target):
    a type D module is a DA bimodule with no inputs, and so are the live
    generators and edges of a type D module graph.

    An action of B consumes the outputs of a path of right-factor edges,
    whose inputs become those of the product.  The walk starts from the
    edges whose output is the action's first input, read from an index of
    the edges by output, and extends each path through an index by (source,
    output), built only when some action takes two or more inputs; so its
    cost follows the edges it reads, not the generators.  An action without
    inputs consumes the empty path at each compatible generator.  A
    right-factor edge with an idempotent output feeds no action (strict
    unitality: no action consumes an idempotent input) and passes through
    each compatible generator of B, whose own left idempotent becomes its
    output.  Returns the product's generator tuples (b⊗x, left idempotent of
    b, ...) and its edges, summed mod 2.

    Raises ValueError when two products share a name, and AssertionError
    when an edge ends outside the idempotent-compatible products: an edge of
    an unvalidated right factor whose output does not start at its source's
    idempotent is refused, not dropped.
    """
    by_left: dict[AlgebraElement, list[tuple[str, tuple]]] = {}
    for g in generators:
        by_left.setdefault(g[1], []).append((g[0], g[2:]))
    right: dict[str, AlgebraElement] = {}
    by_right: dict[AlgebraElement, list[tuple[str, AlgebraElement]]] = {}
    gens: dict[str, tuple] = {}  # B outer: names come nearly sorted
    # name[b][x] is b⊗x, made once, so that every edge shares one string
    # (its hash cached, equal by identity); an end that misses the table is
    # no product and stands as the pair (b, x), which no product name equals
    # however the names contain ⊗, so it fails the check below
    name: dict[str, dict[str, str]] = {}
    for bn, bl, br in B.generators:
        right[bn] = br
        by_right.setdefault(br, []).append((bn, bl))
        row = name[bn] = {}
        for x, rest in by_left.get(br, ()):
            n = row[x] = f"{bn}{_SEP}{x}"
            if n in gens:
                raise ValueError(f"box product has two generators named {n!r}")
            gens[n] = (n, bl, *rest)
    by_output: dict[AlgebraElement, list[tuple[str, tuple, str]]] = {}
    toggles: dict[tuple, int] = {}
    for s, args, c, t in edges:
        by_output.setdefault(c, []).append((s, args, t))
        if is_idempotent(c):
            for bn, bl in by_right.get(left_idem(c), ()):
                row = name[bn]
                key = (row.get(s) or (bn, s), args, bl, row.get(t) or (bn, t))
                toggles[key] = toggles.get(key, 0) ^ 1
    step: dict[tuple[str, AlgebraElement], list[tuple[tuple, str]]] | None = None
    for act in B.actions:
        if not act.args:
            paths = [(x, (), x) for x, _ in by_left.get(right[act.source], ())]
        else:
            paths = by_output.get(act.args[0], ())  # (start, inputs, end)
            for a in act.args[1:]:
                if step is None:
                    step = {}
                    for c, es in by_output.items():
                        for s, args, t in es:
                            step.setdefault((s, c), []).append((args, t))
                paths = [(s, args + more, t) for s, args, y in paths
                         for more, t in step.get((y, a), ())]
        row, ends = name[act.source], name.get(act.target, {})
        for s, args, t in paths:
            key = (row.get(s) or (act.source, s), args, act.coeff,
                   ends.get(t) or (act.target, t))
            toggles[key] = toggles.get(key, 0) ^ 1
    kept = [key for key, p in toggles.items() if p]
    for s, _, _, t in kept:
        if s not in gens or t not in gens:
            raise AssertionError("box product produced an arrow outside the "
                                 "idempotent-compatible generators")
    return list(gens.values()), kept


def box_da_d(B: TypeDAModule, M: TypeDModule) -> TypeDModule:
    """Box tensor product B ⊠ M of a DA bimodule with a type D module."""
    gens, edges = _box(B, M.generators, ((a.source, (), a.label, a.target)
                                         for a in M.arrows))
    # the edges are distinct: no make_module pass drops repeats
    return TypeDModule(tuple(sorted(gens)),
                       tuple(sorted([_new(DArrow, (s, t, c)) for s, _, c, t in edges])), {})


def _box_graph(B: TypeDAModule, G: _Graph) -> _Graph:
    """box_da_d on the live generators and edges of the type D module graph
    G, written into a new graph."""
    return _Graph(*_box(B, *G.freeze()))


def box_da_da(B: TypeDAModule, C: TypeDAModule) -> TypeDAModule:
    """Box tensor product B ⊠ C of two DA bimodules: C consumes the
    external inputs and B the outputs of C."""
    gens, edges = _box(B, C.generators, C.actions)
    return TypeDAModule(tuple(sorted(gens)), tuple(sorted([_new(DAAction, e) for e in edges])))


def reduce_da(B: TypeDAModule, order=None) -> tuple[TypeDAModule, ReductionTrace]:
    """Cancel idempotent differential actions on reduce_d's graph, under its ARITY_CAP.

    order: None (lexicographic), an int seed, or a replay list of
    (source, target) pairs.
    """
    G = _Graph(B.generators, B.actions)
    trace = _reduce(G, order)
    gens, edges = G.freeze()
    return TypeDAModule(gens, tuple(sorted([_new(DAAction, e) for e in edges]))), trace


def isomorphic_da(B: TypeDAModule, C: TypeDAModule) -> dict[str, str] | None:
    """Permutation-level isomorphism search for DA bimodules: the search of
    isomorphic_d, with an action's inputs and output as its label.  Equal
    bimodules match by the identity."""
    return _isomorphic(B.generators, B.actions, C.generators, C.actions)
