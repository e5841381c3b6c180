"""Staircase knot complexes of torus knots, for the benchmark's ladder.

Torus knots are L-space knots, so their knot Floer complex is the
staircase read off the Alexander polynomial (Ozsváth–Szabó, "On knot
Floer homology and lens space surgeries", math/0303017).  The polynomial
of T(p, q) comes from the semigroup <p, q>:

    Δ(t) = (1 - t) · Σ_{s ∈ <p, q>} t^s,

a polynomial of degree 2g = (p - 1)(q - 1) whose nonzero coefficients
alternate +1, -1, ..., +1.
"""
from __future__ import annotations

from math import gcd

from bhf import cfk


def alexander_exponents(p: int, q: int) -> list[int]:
    """Exponents of the symmetrised Alexander polynomial of T(p, q),
    highest first; the coefficients alternate +1, -1, ..., +1."""
    if p < 2 or q < 2 or gcd(p, q) != 1:
        raise ValueError(f"T({p},{q}) is not a nontrivial torus knot")
    two_g = (p - 1) * (q - 1)
    semigroup = {a * p + b * q
                 for a in range(two_g // p + 1) for b in range(two_g // q + 1)}
    # The coefficient of t^s is [s in S] - [s - 1 in S]; every s >= 2g is in S.
    terms = [s for s in range(two_g + 1)
             if (s in semigroup) != (s - 1 in semigroup)]
    return [s - two_g // 2 for s in reversed(terms)]


def staircase(exponents: list[int]) -> cfk.KnotComplex:
    """Staircase complex x0, ..., x2m with A(xk) = exponents[k].

    Each odd xk has a horizontal arrow to x(k-1) and a vertical arrow to
    x(k+1); x0 sits in Maslov grading 0, so tau = exponents[0] = g.
    """
    gens, arrows = [], []
    maslov = 0
    for k, a in enumerate(exponents):
        if k % 2:
            maslov -= 2 * (exponents[k - 1] - a) - 1
            arrows.append(cfk.KnotArrow(f"x{k}", f"x{k - 1}", exponents[k - 1] - a))
            arrows.append(cfk.KnotArrow(f"x{k}", f"x{k + 1}", 0))
        elif k:
            maslov -= 1
        gens.append(cfk.KnotGenerator(f"x{k}", a, maslov))
    return cfk.make_complex(gens, arrows)


def torus_knot(p: int, q: int) -> cfk.KnotComplex:
    """Knot Floer complex of the positive torus knot T(p, q); tau = +g."""
    return staircase(alexander_exponents(p, q))


def mirror(C: cfk.KnotComplex) -> cfk.KnotComplex:
    """Dual complex: negate both gradings and reverse every arrow."""
    return cfk.make_complex(
        [cfk.KnotGenerator(g.name, -g.alexander, -g.maslov) for g in C.generators],
        [cfk.KnotArrow(a.target, a.source, a.u_power) for a in C.arrows],
        C.shift)
