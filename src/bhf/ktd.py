"""Type D modules of knot complements from knot Floer complexes.

Two constructions of the bordered invariant of the complement with a
chosen boundary framing, each from any valid complex, reduced first; both
refuse one whose dw or dz homology has rank other than one alike:

  * ``ktd_basis``: from a simultaneously simplified basis it finds, one
    chain of iota1 generators per vertical arrow, per horizontal arrow,
    and one unstable chain whose shape depends on framing versus 2*tau.

  * ``ktd_basefree``: no simplified basis needed.  For a framing
    parameter n (the module describes framing -n), the iota0 part has one
    column C(s) per Alexander grading and the iota1 part interpolates
    between quotient complexes on the left, one-dimensional columns in
    the middle and subcomplexes on the right, joined by rho23 arrows.

``flip_ktd_direct(C, n)`` rewrites the generators and arrows of the
base-free construction of C at n, reading its column layout, into the
module of the flipped complex by a local graph transformation, giving an
independent construction used to cross-check the two.  The tags are made
for the output only: no construction reads them back.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from . import cfk
from .algebra import AlgebraElement
from .type_d import (MATCH_CAP, MATCH_DEPTH, DArrow, TypeDModule, _freeze_d, _Graph, _graph_d,
                     _match_up_to_base_change, _minimize, _reduce, make_module)
from .type_da import _box_graph, builtin_H, builtin_tau_mu

__all__ = [
    "ktd_basis", "ktd_basefree", "flip_ktd_direct", "adjust_framing",
    "verify_elliptic_invariance", "VerifyResult",
]

A = AlgebraElement
META = "__meta__"
_H = builtin_H()  # frozen tuples: one bimodule serves every verify


def ktd_basis(C: cfk.KnotComplex, framing: int | None = None) -> TypeDModule:
    """Type D module of the complement from a simplified basis of C."""
    gens, arrows, n = _basis(cfk._simplified(cfk._model(C)), framing)
    return make_module(gens, map(DArrow._make, arrows), {META: {"algo": "basis", "framing": n}})


def _basis(C: cfk.KnotComplex, framing: int | None) -> tuple:
    """The generators, arrows (source, target, label) and framing of
    ktd_basis; C is valid, reduced and simultaneously simplified."""
    gens: list[tuple[str, A]] = [(g.name, A.I0) for g in C.generators]
    arrows: list[tuple[str, str, A]] = []

    def chain(prefix: str, length: int, head: str, first: A, tail: str, last: A,
              down: bool) -> None:
        """iota1 generators prefix.1 ... prefix.length joined by rho23
        arrows, which point toward prefix.1 when down; head -first-> the
        first, and tail -last-> the last when down, else the last -last-> tail."""
        ks = [f"{prefix}.{i}" for i in range(1, length + 1)]
        gens.extend((k, A.I1) for k in ks)
        arrows.append((head, ks[0], first))
        arrows.extend((y, x, A.R23) if down else (x, y, A.R23) for x, y in zip(ks, ks[1:]))
        arrows.append((tail, ks[-1], last) if down else (ks[-1], tail, last))

    v_touched: set[str] = set()
    h_touched: set[str] = set()
    for a in C.arrows:
        if C.is_vertical(a):
            v_touched |= {a.source, a.target}
            chain(f"v.{a.source}.{a.target}", C.alexander_drop(a),
                  a.source, A.R1, a.target, A.R123, True)
        if C.is_horizontal(a):
            h_touched |= {a.source, a.target}
            chain(f"h.{a.source}.{a.target}", a.u_power, a.source, A.R3, a.target, A.R2, False)
    xi_v = [g.name for g in C.generators if g.name not in v_touched]
    xi_h = [g.name for g in C.generators if g.name not in h_touched]
    if len(xi_v) != 1 or len(xi_h) != 1:
        cfk._rank_one(C)  # C is simplified: the counts are the homology ranks, so it raises
    (xv,), (xh,) = xi_v, xi_h
    # For a genuine knot complex both distinguished generators sit at
    # Alexander level +-tau, so this difference is 2*tau; using the
    # difference keeps the unstable chain correct on artificial complexes
    # whose two homology representatives sit at unrelated levels.
    two_tau = C._alexander[xv] - C._alexander[xh]
    n = two_tau - 3 if framing is None else framing
    if n < two_tau:
        chain("u", two_tau - n, xv, A.R1, xh, A.R3, True)
    elif n == two_tau:
        arrows.append((xv, xh, A.R12))
    else:
        chain("u", n - two_tau, xv, A.R123, xh, A.R2, False)
    return _named_once(gens), arrows, n


def _named_once(gens: list) -> list:
    """gens, or a ValueError naming a generator made twice: a generator of
    the complex can carry a name the construction gives another one."""
    for name, k in Counter(name for name, _ in gens).items():
        if k > 1:
            raise ValueError(f"construction makes two generators named {name!r}")
    return gens


def _minimal(G: _Graph) -> TypeDModule:
    """The module graph G reduced and minimised in place, then frozen."""
    _reduce(G, None)
    _minimize(G)
    return _freeze_d(G)


def _width(C: cfk.KnotComplex) -> int:
    return max(abs(g.alexander) for g in C.generators)


def ktd_basefree(C: cfk.KnotComplex, n: int | None = None) -> TypeDModule:
    """Base-free type D module; describes the complement with framing -n.

    The iota1 part has a column for each s2 = 2s from 2*amin - n + 1 to
    2*amax + n - 1 in steps of 2.  A w column (2*s2 <= -n, bound
    m = (s2 + n - 1)/2) holds sym|s2 for each generator sym of grading <= m,
    a z column (2*s2 >= n, m = (s2 - n + 1)/2) those of grading >= m, and a
    dot column *|s2 alone; rho23 arrows join each to the one before it.
    """
    C = cfk._model(C)
    gens, arrows, layout = _basefree(C, n, cfk._rank_one(C))
    return make_module(gens, map(DArrow._make, arrows), _basefree_tags(C._alexander, *layout))


def _basefree(C: cfk.KnotComplex, n: int | None, supports: tuple) -> tuple:
    """The generators, arrows (source, target, label) and column layout of
    ktd_basefree; C is valid and reduced, and ``supports`` is
    cfk._rank_one(C), so C has a generator.  The layout is n, the width and
    the columns, each (kind, s2, symbol -> name), in s2 order: w, dot, z."""
    (_, f_w), (rep_z, _) = supports
    t = _width(C)
    if n is None:
        n = 4 * t + 3
    if n < 4 * t + 3:
        raise ValueError(f"framing parameter n={n} too small, need >= {4 * t + 3}")
    level = C._alexander
    # C is reduced: a horizontal arrow raises the grading, a vertical one lowers it
    horiz = [a for a in C.arrows if C.is_horizontal(a)]
    vert = [a for a in C.arrows if C.is_vertical(a)]
    gens: list[tuple[str, A]] = []
    columns: list[tuple[str, int, dict]] = []  # kind, s2 and symbol -> name
    arrows: list[tuple[str, str, A]] = []
    for g, a in level.items():
        gens.append((g, A.I0))
        arrows += [(g, f"{g}|{2 * a + n - 1}", A.R1), (g, f"{g}|{2 * a - n + 1}", A.R3)]
    # rho123 arrows come from horizontal arrows of length one
    arrows += [(a.source, f"{a.target}|{2 * level[a.source] + n + 1}", A.R123)
               for a in horiz if a.u_power == 1]
    # every column holds a generator: a w bound is at least amin, a z bound at most amax
    kind, col = None, {}  # the previous column: its kind and its symbol -> name
    for s2 in range(2 * min(level.values()) - n + 1, 2 * max(level.values()) + n, 2):
        prev_kind, prev = kind, col
        if 2 * s2 <= -n:
            kind, m = "w", (s2 + n - 1) // 2
            col = {g: f"{g}|{s2}" for g, a in level.items() if a <= m}
            arrows += [(col[a.source], col[a.target], A.I1)
                       for a in horiz if level[a.target] <= m]
            arrows += [(col[a.source], a.target, A.R2)
                       for a in horiz if level[a.target] == m + 1]
        elif 2 * s2 >= n:
            kind, m = "z", (s2 - n + 1) // 2
            col = {g: f"{g}|{s2}" for g, a in level.items() if a >= m}
            arrows += [(col[a.source], col[a.target], A.I1)
                       for a in vert if level[a.target] >= m]
        else:
            kind, col = "dot", {None: f"*|{s2}"}
        gens += [(name, A.I1) for name in col.values()]
        columns.append((kind, s2, col))
        if (prev_kind, kind) == ("w", "dot"):
            arrows += [(prev[sym], col[None], A.R23) for sym in f_w]
        elif (prev_kind, kind) == ("dot", "z"):
            arrows += [(prev[None], col[sym], A.R23) for sym in rep_z]
        else:  # w -> w, dot -> dot and z -> z join each symbol in both
            arrows += [(prev[sym], col[sym], A.R23) for sym in prev if sym in col]
    return _named_once(gens), arrows, (n, t, columns)


def _basefree_tags(level: dict[str, int], n: int, t: int, columns: list) -> dict:
    """The tags of a base-free module from the Alexander levels of its
    complex and its column layout (see _basefree)."""
    tags = {META: {"algo": "basefree", "framing": n, "width": t}}
    tags.update((g, {"part": "V0", "col2": 2 * a, "symbol": g, "level": a})
                for g, a in level.items())
    for kind, s2, col in columns:
        tags.update((name, {"part": "V1", "kind": kind, "col2": s2, "symbol": sym,
                            "level": level.get(sym)}) for sym, name in col.items())
    return tags


def flip_ktd_direct(C: cfk.KnotComplex, n: int | None = None) -> TypeDModule:
    """Rewrite the base-free module of C at n into the one of flip(C).

    Takes the generators, arrows and column layout of the base-free
    construction of C's model (cfk._model) at n, by default the least n,
    and rewrites the arrows by a local graph transformation: reverse the
    interior rho23 arrows, swap the chain maps around the one-dimensional
    columns, switch rho1/rho3 at each iota0 generator, and rebuild the
    rho2 / rho123 families from the model's vertical arrows.  The result is
    ktd_basefree(flip(C), n) with each column label s2 negated, tags too:
    they are made from the mirrored layout.
    """
    C = cfk._model(C)
    supports = cfk._rank_one(C)
    gens, arrows, (n, width, columns) = _basefree(C, n, supports)
    lw = max(s2 for k, s2, _ in columns if k == "w")  # the last w column
    rz = min(s2 for k, s2, _ in columns if k == "z")  # the first z column
    first_dot, last_dot = f"*|{lw + 2}", f"*|{rz - 2}"
    # idempotent arrows stay, rho1 and rho3 switch, rho23 arrows reverse but
    # the chain maps w -> dot and dot -> z, swapped; rho2, rho123 are rebuilt
    relabel = {A.I1: A.I1, A.R1: A.R3, A.R3: A.R1}
    flipped = [(x, y, relabel[c]) for x, y, c in arrows if c in relabel]
    flipped += [(y, x, c) for x, y, c in arrows
                if c is A.R23 and y != first_dot and x != last_dot]
    (rep_w, _), (_, f_z) = supports
    flipped += [(first_dot, f"{sym}|{lw}", A.R23) for sym in rep_w]
    flipped += [(f"{sym}|{rz}", last_dot, A.R23) for sym in f_z]
    level = C._alexander
    for a in filter(C.is_vertical, C.arrows):
        top, bottom = level[a.source], level[a.target]
        # rho2 from the one z column whose bound, bottom + 1, sits just above the target
        flipped.append((f"{a.source}|{2 * bottom + n + 1}", a.target, A.R2))
        if top - bottom == 1:
            flipped.append((a.source, f"{a.target}|{2 * top - n - 1}", A.R123))
    mirrored = [({"w": "z", "z": "w"}.get(k, k), -s2, col) for k, s2, col in columns]
    return make_module(gens, map(DArrow._make, flipped),
                       _basefree_tags({g: -a for g, a in level.items()}, n, width, mirrored))


def adjust_framing(D: TypeDModule, k: int) -> TypeDModule:
    """Raise the framing by k meridional twists (k >= 0), reducing each step;
    the boxes and reductions run on module graphs, frozen once at the end."""
    if k < 0:
        raise ValueError("only nonnegative twist counts are supported")
    tau_mu, G = builtin_tau_mu(), _graph_d(D)
    for _ in range(k):
        G = _box_graph(tau_mu, G)
        _reduce(G, None)
    return _freeze_d(G, None if k else D.tags)  # a box makes no tags


@dataclass(frozen=True)
class VerifyResult:
    verdict: str                     # "verified" | "failed" | "inconclusive"
    # generator mapping onto the right side from the module the match reached:
    # the reduced left module only when no base change was needed (five_gen
    # and some random complexes need one; ROADMAP item 4)
    witness: dict | None
    detail: str


def _construction(C: cfk.KnotComplex, algo: str, framing: int | None, supports=None) -> tuple:
    """The generators, arrows (none repeated) and framing (``basis``) or
    column layout (``basefree``, from cfk._rank_one(C) if not given) of the
    named construction on a valid, reduced C, which ``basis`` takes
    simultaneously simplified (cfk._simplified); cfk._rank_one's ValueError
    when C is not a knot complex."""
    if algo == "basis":
        return _basis(C, framing)
    if algo == "basefree":
        return _basefree(C, framing, supports or cfk._rank_one(C))
    raise ValueError(f"unknown algorithm {algo!r}")


def _carries(mapping: dict[str, str], M: TypeDModule, N: TypeDModule) -> bool:
    """Whether mapping carries M's generators, idempotents and arrows onto N's."""
    gm, gn, arrows = M.idems(), N.idems(), set(N.arrows)
    # a bijection maps M's distinct arrows to as many distinct ones: all in N is N
    return (mapping.keys() == gm.keys() and len(gm) == len(gn) == len(set(mapping.values()))
            and all(gm[x] is gn.get(y) for x, y in mapping.items())
            and len(M.arrows) == len(N.arrows)
            and all((mapping[s], mapping[t], c) in arrows for s, t, c in M.arrows))


def _compare_d(left: TypeDModule, right: TypeDModule) -> VerifyResult:
    """Verdict on two reduced modules.  A reduced M has as many generators
    at an idempotent as F2 box M has homology there, a homotopy invariant,
    so a difference is ``failed``; a match that _carries checks is
    ``verified``; no match is ``inconclusive``."""
    counts = [Counter(i for _, i in M.generators) for M in (left, right)]
    if counts[0] != counts[1]:
        a, b = (sorted((i.value, k) for i, k in c.items()) for c in counts)
        return VerifyResult("failed", None, f"generators per idempotent differ: {a} vs {b}")
    M, found = _match_up_to_base_change(left, right)
    if M is None:  # found says whether the cap was hit
        return VerifyResult("inconclusive", None, "no permutation-level isomorphism "
                            f"within {MATCH_DEPTH} base changes (cap of {MATCH_CAP} "
                            f"modules {'hit' if found else 'not hit'})")
    if not _carries(found, M, right):
        return VerifyResult("inconclusive", None, "matched mapping failed its check")
    return VerifyResult("verified", found, f"matched {len(found)} generators")


def verify_elliptic_invariance(C: cfk.KnotComplex, algo: str = "basefree",
                               framing: int | None = None) -> VerifyResult:
    """Check that the complement's type D module is unchanged, up to
    homotopy, by the elliptic involution of its boundary torus.

    Reduces the module built from C, tensors the involution bimodule with
    it and compares the reduction against the module built from the
    flipped complex (see _compare_d).  The right side is built from the
    flip of what the left side read.  flip(C) has C's dz arrows as its dw
    arrows and the other way round, so ``basefree`` gives it C's supports
    swapped, and the flip of a simultaneously simplified basis is one of
    flip(C), so ``basis`` simplifies C once.  The box tensor with a bounded
    DA bimodule respects homotopy equivalence
    (Lipshitz-Ozsvath-Thurston, arXiv:1003.0598), so boxing the reduced
    module gives a left side homotopic to boxing the module itself, from a
    box several times smaller.  Each side stays one module graph from its construction to
    its minimisation (the box writes a new one) and is frozen once, for
    the comparison; the right side's construction starts once the left side
    is frozen, so the two are never held together.  C is validated and
    reduced once (cfk._model): flipping keeps a reduced complex reduced.  A
    knot complex without the simplified basis ``basis`` needs is inconclusive.
    """
    C = cfk._model(C)
    supports = cfk._rank_one(C) if algo == "basefree" else None
    try:
        C = cfk._simplified(C) if algo == "basis" else C
    except cfk._Unconverged:
        return VerifyResult("inconclusive", None, "simultaneous simplification "
                            f"did not converge in {cfk.SIMPLIFY_ROUNDS} rounds")
    left = _Graph(*_construction(C, algo, framing, supports)[:2])
    _reduce(left, None)
    left = _minimal(_box_graph(_H, left))
    right = _Graph(*_construction(cfk.flip(C), algo, framing, supports and supports[::-1])[:2])
    return _compare_d(left, _minimal(right))
