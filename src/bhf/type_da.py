"""Type DA bimodules over the genus-1 surface algebra.

A bimodule generator carries a left (type D side) and a right (type A
side) idempotent.  An action

    (x, a_1, ..., a_k)  ->  c (x')

consumes a chain of k >= 0 composable non-idempotent algebra inputs
starting at the right idempotent of x and emits one output coefficient c
(possibly an idempotent) with left_idem(c) = left idempotent of x and
right_idem(c) = left idempotent of x'.  k = 0 actions are the
differential.  Structure equations are the A-infinity relations with a
strictly unital convention: no action consumes an idempotent input.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .algebra import (AlgebraElement, CHORDS, Idempotent, idem_element,
                      is_idempotent, left_idem, multiply, right_idem)
from .type_d import (DArrow, ReductionTrace, TypeDModule, _Graph, _isomorphic,
                     _reduce, make_module)

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
    generators: tuple[tuple[str, Idempotent, Idempotent], ...]
    actions: tuple[DAAction, ...]
    tags: dict = field(default_factory=dict, compare=False)

    def idems(self) -> dict[str, tuple[Idempotent, Idempotent]]:
        return {n: (l, r) for n, l, r in self.generators}

    def names(self) -> list[str]:
        return [n for n, _, _ in self.generators]

    def max_arity(self) -> int:
        return max((len(a.args) for a in self.actions), default=0)


def make_da(gens, actions, tags=None) -> TypeDAModule:
    return TypeDAModule(tuple(sorted(gens)),
                        tuple(sorted(dict.fromkeys(actions))),  # see make_module
                        dict(tags or {}))


def _act(src, args, coeff, tgt) -> DAAction:
    return DAAction(src, tuple(args), coeff, tgt)


def builtin_tau_mu() -> TypeDAModule:
    """Bimodule of one negative meridional Dehn twist (framing change +1)."""
    I0, I1 = Idempotent.I0, Idempotent.I1
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
    I0, I1 = Idempotent.I0, Idempotent.I1
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
    I0, I1 = Idempotent.I0, Idempotent.I1
    gens = [("i0", I0, I0), ("i1", I1, I1)]
    name = {I0: "i0", I1: "i1"}
    acts = [_act(name[left_idem(c)], [c], c, name[right_idem(c)]) for c in CHORDS]
    return make_da(gens, acts)


def builtin_H() -> TypeDAModule:
    """Bimodule of the elliptic involution of the torus boundary."""
    I0, I1 = Idempotent.I0, Idempotent.I1
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


def _args_chain_ok(start: Idempotent, args: tuple[AlgebraElement, ...]) -> bool:
    cur = start
    for a in args:
        if is_idempotent(a) or a is A.ZERO or left_idem(a) is not cur:
            return False
        cur = right_idem(a)
    return True


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
    out: list[str] = []
    names = B.names()
    if len(set(names)) != len(names):
        return ["duplicate generator names"]
    idems = B.idems()
    for act in B.actions:
        if act.source not in idems or act.target not in idems:
            out.append(f"action at {act.source}->{act.target}: unknown generator")
            continue
        ls, rs = idems[act.source]
        lt, _rt = idems[act.target]
        if not _args_chain_ok(rs, act.args):
            out.append(f"action {act.source}{tuple(a.value for a in act.args)}: "
                       "inputs do not chain from the right idempotent")
            continue
        end = rs if not act.args else right_idem(act.args[-1])
        if end is not idems[act.target][1]:
            out.append(f"action {act.source}->{act.target}: inputs end at the "
                       "wrong right idempotent")
        if act.coeff is A.ZERO:
            out.append(f"action {act.source}->{act.target}: zero coefficient")
            continue
        if left_idem(act.coeff) is not ls or right_idem(act.coeff) is not lt:
            out.append(f"action {act.source}->{act.target}: coefficient "
                       f"{act.coeff.value} mismatches left idempotents")
    if out:
        return out
    by_source: dict[str, list[DAAction]] = {}
    for act in B.actions:
        by_source.setdefault(act.source, []).append(act)
    terms: dict[tuple[str, tuple], dict[tuple[str, AlgebraElement], int]] = {}
    for act in B.actions:
        found = [(act.args + nxt.args, nxt.target, multiply(act.coeff, nxt.coeff))
                 for nxt in by_source.get(act.target, ())]
        found += [(act.args[:i] + split + act.args[i + 1:], act.target, act.coeff)
                  for i, a in enumerate(act.args) for split in _SPLITS[a]]
        for seq, tgt, c in found:
            if c is not A.ZERO:
                counts = terms.setdefault((act.source, seq), {})
                counts[tgt, c] = counts.get((tgt, c), 0) ^ 1
    rank = {x: i for i, x in enumerate(names)}
    for x, seq in sorted(terms, key=lambda k: (rank[k[0]], len(k[1]),
                                                [CHORDS.index(c) for c in k[1]])):
        for (tgt, c), parity in sorted(terms[x, seq].items(), key=str):
            if parity:
                out.append(f"A-infinity relation fails at ({x}, "
                           f"{[a.value for a in seq]}): odd term {c.value} {tgt}")
    return out


def box_da_d(B: TypeDAModule, M: TypeDModule, sep: str = "⊗") -> TypeDModule:
    """Box tensor product of a DA bimodule with a type D module."""
    b_idems = B.idems()
    m_idems = M.idems()
    gens = []
    for (bn, (bl, br)) in sorted(b_idems.items()):
        for (mn, mi) in sorted(m_idems.items()):
            if br is mi:
                gens.append((f"{bn}{sep}{mn}", bl))
    gen_set = {n for n, _ in gens}
    m_out: dict[str, list[DArrow]] = {}
    for arr in M.arrows:
        m_out.setdefault(arr.source, []).append(arr)

    def paths(start: str, labels: tuple[AlgebraElement, ...]):
        """Ends of arrow paths from start whose labels read exactly ``labels``."""
        if not labels:
            yield start
            return
        for arr in m_out.get(start, ()):
            if arr.label is labels[0]:
                yield from paths(arr.target, labels[1:])

    toggles: dict[tuple[str, str, AlgebraElement], int] = {}
    # differential arrows of M pass through untouched: b⊗x -> b⊗y
    for arr in M.arrows:
        if not is_idempotent(arr.label):
            continue
        for (bn, (bl, br)) in b_idems.items():
            if br is m_idems[arr.source]:
                key = (f"{bn}{sep}{arr.source}", f"{bn}{sep}{arr.target}",
                       idem_element(bl))
                toggles[key] = toggles.get(key, 0) ^ 1
    for act in B.actions:
        for mn in m_idems:
            if b_idems[act.source][1] is not m_idems[mn]:
                continue
            for end in paths(mn, act.args):
                key = (f"{act.source}{sep}{mn}", f"{act.target}{sep}{end}",
                       act.coeff)
                toggles[key] = toggles.get(key, 0) ^ 1
    arrows = [DArrow(*key) for key, p in toggles.items() if p]
    for arr in arrows:
        if arr.source not in gen_set or arr.target not in gen_set:
            raise AssertionError("box product produced an arrow outside the "
                                 "idempotent-compatible generators")
    return make_module(gens, arrows)


def box_da_da(B: TypeDAModule, C: TypeDAModule, sep: str = "⊗") -> TypeDAModule:
    """Box tensor product of two DA bimodules (B's inputs fed by C's outputs).

    C consumes the external algebra inputs; chains of C actions produce a
    sequence of output coefficients which a single B action consumes.  A C
    action with an idempotent output cannot feed B: it contributes alone,
    with B untouched, as a differential-style term (strict unitality).
    """
    b_idems = B.idems()
    c_idems = C.idems()
    gens = []
    for (bn, (bl, br)) in sorted(b_idems.items()):
        for (cn, (cl, cr)) in sorted(c_idems.items()):
            if br is cl:
                gens.append((f"{bn}{sep}{cn}", bl, cr))
    c_by_src: dict[str, list[DAAction]] = {}
    for act in C.actions:
        c_by_src.setdefault(act.source, []).append(act)
    b_by_src_args: dict[tuple[str, tuple], list[DAAction]] = {}
    for act in B.actions:
        b_by_src_args.setdefault((act.source, act.args), []).append(act)
    max_chain = B.max_arity()

    toggles: dict[DAAction, int] = {}

    def emit(act: DAAction) -> None:
        toggles[act] = toggles.get(act, 0) ^ 1

    for (bn, (bl, br)) in b_idems.items():
        for cn in c_idems:
            if br is not c_idems[cn][0]:
                continue
            src = f"{bn}{sep}{cn}"
            # B acts alone (no C outputs consumed)
            for bact in b_by_src_args.get((bn, ()), ()):
                emit(_act(src, [], bact.coeff, f"{bact.target}{sep}{cn}"))
            # single C action with idempotent output: differential term
            for cact in c_by_src.get(cn, ()):
                if is_idempotent(cact.coeff):
                    emit(_act(src, cact.args, idem_element(bl),
                              f"{bn}{sep}{cact.target}"))

            # chains of C actions with non-idempotent outputs
            def chains(cur: str, outs: tuple, args: tuple, depth: int):
                if outs:
                    for bact in b_by_src_args.get((bn, outs), ()):
                        emit(_act(src, args, bact.coeff,
                                  f"{bact.target}{sep}{cur}"))
                if depth == max_chain:
                    return
                for cact in c_by_src.get(cur, ()):
                    if not is_idempotent(cact.coeff):
                        chains(cact.target, outs + (cact.coeff,),
                               args + cact.args, depth + 1)

            chains(cn, (), (), 0)
    actions = [act for act, p in toggles.items() if p]
    return make_da(gens, actions)


def cancel_da(B: TypeDAModule, source: str, target: str,
              arity_cap: int = 8) -> TypeDAModule:
    """Cancel a differential (k=0, idempotent-coefficient) action.

    Raises ValueError when a resulting action would take more than
    ``arity_cap`` inputs.
    """
    return reduce_da(B, [(source, target)], arity_cap)[0]


def reduce_da(B: TypeDAModule, order=None, arity_cap: int = 8
              ) -> tuple[TypeDAModule, ReductionTrace]:
    """Cancel differential actions with idempotent coefficients.

    order: None (lexicographic), an int seed, or a replay list of
    (source, target) pairs.
    """
    G = _Graph(B.generators, ((a.source, a.target, (a.args, a.coeff))
                              for a in B.actions), B.tags)
    trace = _reduce(G, order, arity_cap)
    gens, edges, tags = G.freeze()
    return make_da(gens, [DAAction(s, args, c, t)
                          for s, t, (args, c) in edges], tags), trace


def isomorphic_da(B: TypeDAModule, C: TypeDAModule) -> dict[str, str] | None:
    """Permutation-level isomorphism search for DA bimodules."""
    def form(X: TypeDAModule) -> tuple:
        return ({n: (l.value, r.value) for n, l, r in X.generators},
                [(a.source, a.target, (tuple(x.value for x in a.args), a.coeff.value))
                 for a in X.actions])

    return _isomorphic(*form(B), *form(C))
