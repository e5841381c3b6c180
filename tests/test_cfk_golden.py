"""Golden outputs of knot-complex reduction and simplification.

Each case pins one sha256 over 200 seeded complexes from
``conftest.random_complex``: a fixture with 0-3 added acyclic pairs,
scrambled by filtered base changes.  Per complex it records the complex,
``reduce`` (lexicographic and seeds 0 and 1), the vertical, horizontal and
simultaneous simplifications of the reduced complex, ``tau`` and whether
each of these is vertically or horizontally simplified; a ``ValueError``
is recorded by its text.  The digests were computed on the implementation
that rescanned the whole arrow set per step and kept one branch per arrow
family, by running this file from the repository root:

    PYTHONPATH=src:tests python tests/test_cfk_golden.py

which prints the GOLDEN table for the code on the path.
"""
import hashlib

import pytest

from bhf import cfk
from bhf.io_formats import write_cfk
from conftest import FIXTURE_NAMES, random_complex

SEEDS = range(200)
CASES = {name: (name, None) for name in FIXTURE_NAMES}
CASES["five_gen+shift"] = ("five_gen", (1, -2))


def _attempt(f, *args):
    try:
        out = f(*args)
    except ValueError as e:
        return f"ValueError: {e}\n"
    return write_cfk(out) if isinstance(out, cfk.KnotComplex) else f"{out!r}\n"


def _record(C):
    parts = [write_cfk(C)]
    parts += [_attempt(cfk.reduce, C, seed) for seed in (None, 0, 1)]
    R = cfk.reduce(C)
    V, H = cfk.vertical_simplify(R), cfk.horizontal_simplify(R)
    parts += [write_cfk(V), write_cfk(H),
              _attempt(cfk.simultaneous_simplify, R), _attempt(cfk.tau, R)]
    parts += [f"{cfk.is_vertically_simplified(X)} "
              f"{cfk.is_horizontally_simplified(X)}\n" for X in (R, V, H)]
    return "".join(parts)


def _case(name, shift):
    return "".join(f"seed {seed}\n" + _record(random_complex(name, seed, shift))
                   for seed in SEEDS)


GOLDEN = {
    "figure_eight":
        "7c337917f2b0a40ab8501439f468da028d3c700f261a5a9b17088c0e95f15f7d",
    "five_gen":
        "a944d1ea92dd2822e434070656a23dffb43fec1e27880c5e5f5c925382026624",
    "five_gen+shift":
        "9d6fe4c18ec228f497a867874e12f904f7536dd07026242d504582e049722214",
    "trefoil_left":
        "43f79efe8d0c875c3d972916fc874957f74bd1e9316aa06fd7818691d128d8da",
    "trefoil_right":
        "c990a65d44b7287b473494f174656f91db98ca3b4dae558ee39e6c5f7ae0117e",
    "unknot":
        "ec8d857471b0b484a8454d880a46dd47a448045e5cc92907dbfd8810b0d7fe70",
}


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(case):
    assert _digest(_case(*CASES[case])) == GOLDEN[case]


if __name__ == "__main__":
    print("GOLDEN = {")
    for case in sorted(CASES):
        print(f'    "{case}":\n        "{_digest(_case(*CASES[case]))}",')
    print("}")
