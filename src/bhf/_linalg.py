"""GF(2) Gaussian elimination, vectors as bitmask ints."""
from __future__ import annotations


def rref(vectors: list[int]) -> list[int]:
    """Reduced echelon basis of the span, pivots on the lowest set bit and
    sorted by pivot.  It is unique: each pivot is set in its own row only."""
    basis: list[int] = []
    for v in vectors:
        v = reduce_mod(v, basis)
        if v:
            low = v & -v
            basis = [b ^ v if b & low else b for b in basis]
            basis.append(v)
    basis.sort(key=lambda b: b & -b)
    return basis


def reduce_mod(v: int, basis: list[int]) -> int:
    """v with every pivot of the reduced echelon basis cleared: the same
    vector for every v of one coset of the span."""
    for b in basis:
        if v & (b & -b):
            v ^= b
    return v
