"""Bordered invariants of knot complements over the two-element field.

Each public name lives in its module: ``from bhf import ktd``, then
``ktd.verify_elliptic_invariance``."""

__version__ = "0.1.0"
