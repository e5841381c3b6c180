"""Knot Floer complexes over F2[U].

A complex is a finite set of generators with Alexander and Maslov gradings
and a set of arrows x -> U^r y.  Writing s = A(x) - A(y), the arrow's two
basepoint multiplicities are n_w = r and n_z = r + s; both must be
nonnegative and every arrow drops the Maslov grading by one after
accounting for U (M(x) - (M(y) - 2r) = 1).

Arrow families:
  * vertical arrows have n_w = 0 (u_power 0); they lower A,
  * horizontal arrows have n_z = 0 (A(y) = A(x) + r); they raise A.
The differential restricted to horizontal arrows is written dw, to
vertical arrows dz; both square to zero on their own.
"""
from __future__ import annotations

import random
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property

from . import _linalg

__all__ = [
    "KnotGenerator", "KnotArrow", "KnotComplex",
    "validate", "is_reduced", "flip", "reduce",
    "vertical_simplify", "horizontal_simplify", "simultaneous_simplify",
    "is_vertically_simplified", "is_horizontally_simplified",
    "tau",
]


@dataclass(frozen=True, order=True)
class KnotGenerator:
    name: str
    alexander: int
    maslov: int


@dataclass(frozen=True, order=True)
class KnotArrow:
    source: str
    target: str
    u_power: int


@dataclass(frozen=True)
class KnotComplex:
    generators: tuple[KnotGenerator, ...]
    arrows: tuple[KnotArrow, ...]
    shift: tuple[int, int] | None = None

    def by_name(self) -> dict[str, KnotGenerator]:
        return {g.name: g for g in self.generators}

    @cached_property
    def _alexander(self) -> dict[str, int]:
        # the complex's one name -> Alexander table, read once: alexander_drop
        # runs once per arrow, and the type D constructions read it too
        return {g.name: g.alexander for g in self.generators}

    def alexander_drop(self, a: KnotArrow) -> int:
        level = self._alexander
        return level[a.source] - level[a.target]

    def is_vertical(self, a: KnotArrow) -> bool:
        return a.u_power == 0

    def is_horizontal(self, a: KnotArrow) -> bool:
        return a.u_power + self.alexander_drop(a) == 0


def make_complex(gens, arrows, shift=None) -> KnotComplex:
    """Normalize to sorted tuples so equal complexes compare equal."""
    gtuple = tuple(sorted(gens))
    atuple = tuple(sorted(set(arrows)))
    return KnotComplex(gtuple, atuple, shift)


def validate(C: KnotComplex) -> list[str]:
    """Return a list of violations; empty means the complex is valid."""
    out: list[str] = []
    names = [g.name for g in C.generators]
    if len(set(names)) != len(names):
        out.append("duplicate generator names")
        return out
    by = C.by_name()
    for a in C.arrows:
        if a.source not in by or a.target not in by:
            out.append(f"arrow {a.source}->{a.target} references unknown generator")
            continue
        if a.u_power < 0:
            out.append(f"arrow {a.source}->{a.target} has negative U power")
        s = by[a.source].alexander - by[a.target].alexander
        if a.u_power + s < 0:
            out.append(f"arrow {a.source}->{a.target} has n_z = {a.u_power + s} < 0")
        drop = by[a.source].maslov - (by[a.target].maslov - 2 * a.u_power)
        if drop != 1:
            out.append(
                f"arrow {a.source}->{a.target} drops Maslov by {drop}, expected 1")
    if out:
        return out
    # d^2 = 0 over F2[U]: count two-step paths per (start, end, total U power).
    m = _Mut(C)
    paths = Counter((a.source, t, a.u_power + r)
                    for a in C.arrows for t, r in m.out[a.target])
    for (src, tgt, r), count in sorted(paths.items()):
        if count % 2:
            out.append(f"d^2 != 0: odd path count {src} -> U^{r} {tgt}")
    return out


def is_reduced(C: KnotComplex) -> bool:
    return all(a.u_power > 0 or C.alexander_drop(a) > 0 for a in C.arrows)


def _model(C: KnotComplex) -> KnotComplex:
    """C validated and reduced: what every function that builds from C takes."""
    bad = validate(C)
    if bad:
        raise ValueError("invalid complex: " + bad[0])
    return reduce(C)


def flip(C: KnotComplex) -> KnotComplex:
    """Exchange the roles of the two basepoints.

    A(x) negates, M(x) becomes M(x) - 2A(x), and an arrow x -> U^r y with
    Alexander drop s becomes x -> U^(r+s) y.  An involution; vertical and
    horizontal arrows trade places.
    """
    gens = [KnotGenerator(g.name, -g.alexander, g.maslov - 2 * g.alexander)
            for g in C.generators]
    arrows = [KnotArrow(a.source, a.target, a.u_power + C.alexander_drop(a))
              for a in C.arrows]
    return make_complex(gens, arrows, C.shift)


class _Mut:
    """Mutable complex indexed by adjacency, edited in place and frozen once.

    ``out[x]`` holds (target, U power) for the arrows leaving x and
    ``inc[y]`` (source, U power) for those entering y, so a base change or
    a cancellation touches only the arrows at its generators.
    """

    def __init__(self, C: KnotComplex):
        self.gens: dict[str, KnotGenerator] = dict(C.by_name())
        self.out: dict[str, set[tuple[str, int]]] = defaultdict(set)
        self.inc: dict[str, set[tuple[str, int]]] = defaultdict(set)
        self.shift = C.shift
        for a in C.arrows:
            self.toggle(a.source, a.target, a.u_power)

    def freeze(self) -> KnotComplex:
        arrows = [KnotArrow(s, t, r) for s, outs in self.out.items() for t, r in outs]
        return make_complex(self.gens.values(), arrows, self.shift)

    def toggle(self, s: str, t: str, r: int) -> None:
        """Add s -> U^r t if absent, else remove it."""
        out = self.out[s]
        if (t, r) in out:
            out.remove((t, r))
            self.inc[t].remove((s, r))
        else:
            out.add((t, r))
            self.inc[t].add((s, r))

    def add_to(self, a: str, b: str, j: int) -> None:
        """Base change b := b + U^j a (a valid filtered change of basis)."""
        ga, gb = self.gens[a], self.gens[b]
        if a == b or j < 0:
            raise ValueError("invalid base change")
        if ga.maslov - 2 * j != gb.maslov or ga.alexander - j > gb.alexander:
            raise ValueError("base change violates gradings")
        # arrows out of a now also leave b, and the old b is b + U^j a
        changes = ([(b, t, r + j) for t, r in self.out[a]]
                   + [(s, a, r + j) for s, r in self.inc[b]])
        for e in changes:
            self.toggle(*e)

    def cancel(self, x: str, y: str) -> None:
        """Cancel the arrow x -> y: each zig-zag s -> y <- x -> t becomes
        an arrow s -> t, and x and y go."""
        if any(t == y and r > 0 for t, r in self.out[x]):
            raise ValueError(
                f"cannot cancel {x}->{y}: parallel arrow with positive U power")
        ins = [(s, r) for s, r in self.inc[y] if s != x]
        outs = [(t, r) for t, r in self.out[x] if t != y]
        for e in ({(g, t, r) for g in (x, y) for t, r in self.out[g]}
                  | {(s, g, r) for g in (x, y) for s, r in self.inc[g]}):
            self.toggle(*e)
        del self.gens[x], self.gens[y]
        for s, r1 in ins:
            for t, r2 in outs:
                self.toggle(s, t, r1 + r2)

    def drop(self, s: str, t: str) -> int:
        return self.gens[s].alexander - self.gens[t].alexander


def reduce(C: KnotComplex, seed: int | None = None) -> KnotComplex:
    """Cancel all arrows with u_power 0 and Alexander drop 0 (C if none)."""
    if is_reduced(C):
        return C
    m = _Mut(C)
    rng = random.Random(seed) if seed is not None else None
    while True:
        eligible = sorted((s, t) for s, outs in m.out.items() for t, r in outs
                          if r == 0 and m.drop(s, t) == 0)
        if not eligible:
            return m.freeze()
        m.cancel(*(rng.choice(eligible) if rng else eligible[0]))


def vertical_simplify(C: KnotComplex) -> KnotComplex:
    """Base-change until vertical arrows form a disjoint matching: each
    round takes the least (Alexander drop, source, target) vertical arrow
    x -> y between unmatched generators, clears the other vertical arrows
    into y and out of x, then matches x with y.  C is reduced first."""
    if not is_reduced(C):
        C = reduce(C)
    m = _Mut(C)
    live = set(m.gens)
    while vertical := [(m.drop(x, y), x, y) for x in live
                       for y, r in m.out[x] if r == 0 and y in live]:
        _, x, y = min(vertical)
        for s in sorted(s for s, r in m.inc[y] if r == 0 and s != x):
            m.add_to(x, s, 0)
        for t in sorted(t for t, r in m.out[x] if r == 0 and t != y):
            m.add_to(t, y, 0)
        live -= {x, y}
    return m.freeze()


def horizontal_simplify(C: KnotComplex) -> KnotComplex:
    """Base-change until horizontal arrows form a disjoint matching; flip
    trades them for vertical arrows.  C is reduced first."""
    return flip(vertical_simplify(flip(C)))


def is_vertically_simplified(C: KnotComplex) -> bool:
    ends = [g for a in C.arrows if a.u_power == 0 for g in (a.source, a.target)]
    return len(ends) == len(set(ends))


def is_horizontally_simplified(C: KnotComplex) -> bool:
    return is_vertically_simplified(flip(C))


SIMPLIFY_ROUNDS = 64


def simultaneous_simplify(C: KnotComplex):
    """Alternate vertical and horizontal simplification until both hold.

    Reduces C first; returns the simplified complex, or None after SIMPLIFY_ROUNDS rounds.
    """
    if not is_reduced(C):
        C = reduce(C)
    for _ in range(SIMPLIFY_ROUNDS):
        for simplify in (vertical_simplify, horizontal_simplify):
            if is_vertically_simplified(C) and is_horizontally_simplified(C):
                return C
            C = simplify(C)
    return None


class _Unconverged(ValueError):
    """No simplified basis of a knot complex in SIMPLIFY_ROUNDS rounds."""


def _simplified(C: KnotComplex) -> KnotComplex:
    """simultaneous_simplify(C), or the ValueError that refuses C:
    _rank_one's when C is not a knot complex, else _Unconverged."""
    if (Cs := simultaneous_simplify(C)) is None:
        _rank_one(C)
        raise _Unconverged("simultaneous simplification did not converge")
    return Cs


def tau(C: KnotComplex) -> int:
    """Alexander grading of the generator of the vertical homology: the one
    generator that no vertical arrow touches once vertically simplified."""
    V = vertical_simplify(_model(C))
    touched = {g for a in V.arrows if a.u_power == 0 for g in (a.source, a.target)}
    survivors = [g for g in V.generators if g.name not in touched]
    if len(survivors) != 1:
        raise ValueError(
            f"vertical homology has rank {len(survivors)}, not a knot complex")
    return survivors[0].alexander


def supports(C: KnotComplex, family: str) -> tuple[frozenset[str], frozenset[str]]:
    """Canonical cycle and cocycle of the rank-one homology of one family.

    family "dw" uses horizontal arrows, "dz" vertical arrows.  One reduced
    echelon form of the rows d(e_j) | e_j << n gives the image (the image
    parts of the rows with image bits) and the kernel (the domain parts of
    the rows without).  The cycle is a kernel vector reduced modulo the
    image; every cycle outside the image reduces to the same one.  The
    cocycle vanishes on the image, pairs 1 with the cycle and is zero on
    its free coordinates: adding the cycle, pivot p, to the image basis
    clears p from the image rows that hold it, so its bits are p and those
    rows' pivots.
    """
    order = sorted(g.name for g in C.generators)
    n = len(order)
    index = {g: i for i, g in enumerate(order)}
    fam = C.is_horizontal if family == "dw" else C.is_vertical
    cols = [1 << (n + j) for j in range(n)]
    for a in C.arrows:
        if fam(a):
            cols[index[a.source]] ^= 1 << index[a.target]
    rows = _linalg.rref(cols)
    image_bits = (1 << n) - 1
    img = [r & image_bits for r in rows if r & image_bits]
    ker = [r >> n for r in rows if not r & image_bits]
    if len(ker) - len(img) != 1:
        raise ValueError(
            f"{family} homology has rank {len(ker) - len(img)}, expected 1")
    cycle = next(v for v in (_linalg.reduce_mod(k, img) for k in ker) if v)
    p = cycle & -cycle
    cocycle = p | sum(b & -b for b in img if b & p)
    return tuple(frozenset(g for i, g in enumerate(order) if m >> i & 1)
                 for m in (cycle, cocycle))


def _rank_one(C: KnotComplex) -> tuple:
    """The supports of C's dw and dz families, or, as the base-free
    construction refuses C, the ValueError naming the first family whose
    homology does not have rank one."""
    return supports(C, "dw"), supports(C, "dz")
