"""Small GF(2) linear algebra helpers, vectors as bitmask ints."""
from __future__ import annotations


def rref(vectors: list[int]) -> list[int]:
    """Reduced basis of the span; deterministic, pivots on lowest set bit."""
    basis: list[int] = []
    for v in vectors:
        for b in basis:
            low = b & -b
            if v & low:
                v ^= b
        if v:
            basis.append(v)
            # keep basis reduced
            low = v & -v
            basis = [b ^ v if (b is not v and b & low) else b for b in basis]
    basis.sort(key=lambda b: b & -b)
    return basis


def reduce_mod(v: int, basis: list[int]) -> int:
    for b in basis:
        if v & (b & -b):
            v ^= b
    return v


def kernel_basis(columns: dict[int, int], nbits: int) -> list[int]:
    """Kernel of the map sending unit vector e_j to columns[j] (missing -> 0).

    Returns masks over the domain index space [0, nbits).
    """
    rows: list[tuple[int, int]] = []  # (image vector, domain mask)
    for j in range(nbits):
        rows.append((columns.get(j, 0), 1 << j))
    basis: list[tuple[int, int]] = []
    ker: list[int] = []
    for img, dom in rows:
        for bimg, bdom in basis:
            low = bimg & -bimg
            if img & low:
                img ^= bimg
                dom ^= bdom
        if img:
            basis.append((img, dom))
        else:
            ker.append(dom)
    return ker


def solve(equations: list[tuple[int, int]], nbits: int) -> int | None:
    """Solve f . v_i = r_i over GF(2) for an unknown mask f of width nbits.

    ``equations`` is a list of (vector mask, parity).  Returns the solution
    with all free variables set to zero (deterministic), or None.
    """
    # Gaussian elimination on the system; variables are bits of f.
    rows = [(v, r) for v, r in equations]
    pivots: list[tuple[int, int, int]] = []  # (pivot bit, vector, rhs)
    for v, r in rows:
        for pb, pv, pr in pivots:
            if v & pb:
                v ^= pv
                r ^= pr
        if v:
            pb = v & -v
            # reduce earlier pivots
            pivots = [(b, (vv ^ v if vv & pb else vv), (rr ^ r if vv & pb else rr))
                      for b, vv, rr in pivots]
            pivots.append((pb, v, r))
        elif r:
            return None
    f = 0
    for pb, pv, pr in pivots:
        if pr:
            f |= pb
    return f
