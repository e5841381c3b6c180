"""The genus-1 surface algebra.

Eight nonzero basis elements (two idempotents iota0, iota1 and six Reeb
chords rho1, rho2, rho3, rho12, rho23, rho123) plus zero.  Multiplication
is the concatenation of chord intervals; everything not forced by the unit
laws or the four chord concatenations is zero.  The algebra carries no
differential.  An idempotent is an algebra element: a generator of a
module carries AlgebraElement.I0 or AlgebraElement.I1.
"""
from __future__ import annotations

from enum import Enum


class AlgebraElement(Enum):
    ZERO = "0"
    I0 = "iota0"
    I1 = "iota1"
    R1 = "rho1"
    R2 = "rho2"
    R3 = "rho3"
    R12 = "rho12"
    R23 = "rho23"
    R123 = "rho123"

    __hash__ = object.__hash__  # members are singletons: hash by identity, in C

    def __repr__(self) -> str:
        return self.value

    def __lt__(self, other: "AlgebraElement") -> bool:
        return self.value < other.value


# each element by its name, and each idempotent: the readers of documents look
# names up here, and refuse one that is not a key
_BY_NAME = {e.value: e for e in AlgebraElement}
_I0, _I1 = AlgebraElement.I0, AlgebraElement.I1
_UNITS = frozenset((_I0, _I1))
_IDEM_BY_NAME = {e.value: e for e in _UNITS}

# (left idempotent, right idempotent) of each nonzero element.
_IDEMS = {
    _I0: (_I0, _I0),
    _I1: (_I1, _I1),
    AlgebraElement.R1: (_I0, _I1),
    AlgebraElement.R2: (_I1, _I0),
    AlgebraElement.R3: (_I0, _I1),
    AlgebraElement.R12: (_I0, _I0),
    AlgebraElement.R23: (_I1, _I1),
    AlgebraElement.R123: (_I0, _I1),
}

# Nonzero chord concatenations.
_PRODUCTS = {
    (AlgebraElement.R1, AlgebraElement.R2): AlgebraElement.R12,
    (AlgebraElement.R2, AlgebraElement.R3): AlgebraElement.R23,
    (AlgebraElement.R1, AlgebraElement.R23): AlgebraElement.R123,
    (AlgebraElement.R12, AlgebraElement.R3): AlgebraElement.R123,
}

NONZERO = tuple(e for e in AlgebraElement if e is not AlgebraElement.ZERO)
CHORDS = tuple(e for e in NONZERO if e not in _UNITS)

# _MUL[a][b] = ab: zero but for _PRODUCTS and the unit laws
_MUL = {a: {b: _PRODUCTS.get((a, b), AlgebraElement.ZERO) for b in AlgebraElement}
        for a in AlgebraElement}
for _a, (_left, _right) in _IDEMS.items():
    _MUL[_left][_a] = _MUL[_a][_right] = _a


def is_idempotent(a: AlgebraElement) -> bool:
    return a in _UNITS


def left_idem(a: AlgebraElement) -> AlgebraElement:
    if a is AlgebraElement.ZERO:
        raise ValueError("zero has no left idempotent")
    return _IDEMS[a][0]


def right_idem(a: AlgebraElement) -> AlgebraElement:
    if a is AlgebraElement.ZERO:
        raise ValueError("zero has no right idempotent")
    return _IDEMS[a][1]


def multiply(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Product of two basis elements; returns ZERO when they don't compose."""
    return _MUL[a][b]
