"""Golden outputs of homotopy reduction and basis minimisation.

Each case pins the sha256 of the canonical writer's output
(``write_typed`` / ``write_typeda``) together with the cancellation trace,
so a change to how reduction or minimisation work inside cannot change
what they return.  The digests were computed on the rebuild-per-step
implementation that preceded the in-place module graph, and those of the
torus knots on the cancellation core that made a label tuple per edge, by
running this file from the repository root:

    PYTHONPATH=src python tests/test_reduction_golden.py

which prints the GOLDEN table for the code on the path.
"""
import hashlib

import pytest

from bhf import io_formats, ktd, type_d, type_da
from bhf.algebra import NONZERO, left_idem, right_idem
from conftest import FIXTURES, FIXTURE_NAMES, SIXFOLD, base_change, box_word, load_cfk
from staircase import mirror, torus_knot

SEEDS = range(20)
# five_gen at this framing gives a 520-generator box
LARGE = ("five_gen", 33)
# the torus knots of the benchmark's reduce-large ladder, and T(7,8), whose
# box has 3,114 generators; each with its mirror
TORUS = [(3, 4), (3, 5), (4, 5), (7, 8)]
KNOTS = {**{f"T({p},{q})": (lambda p=p, q=q: torus_knot(p, q)) for p, q in TORUS},
         **{f"mirror_T({p},{q})": (lambda p=p, q=q: mirror(torus_knot(p, q)))
            for p, q in TORUS}}


def _box(name, n=None):
    return _box_of(load_cfk(name), n)


def _box_of(C, n=None):
    return type_da.box_da_d(type_da.builtin_H(), ktd.ktd_basefree(C, n))


def _record(module, trace=None):
    write = (io_formats.write_typed if isinstance(module, type_d.TypeDModule)
             else io_formats.write_typeda)
    text = write(module)
    if trace is not None:
        text += io_formats.write_script(trace.pairs)
    return text


def _lex(box):
    R, trace = type_d.reduce_d(box)
    return _record(R, trace) + _record(type_d.minimize_d(R))


def _seeded(D):
    parts = []
    for seed in SEEDS:
        R, trace = type_d.reduce_d(D, seed)
        parts.append(f"seed {seed}\n" + _record(R, trace)
                     + _record(type_d.minimize_d(R)))
    return "".join(parts)


def _da_scripted():
    script = io_formats.parse_script(
        (FIXTURES / "h_cancellations.script").read_text(encoding="utf-8"))
    return _record(*type_da.reduce_da(box_word(SIXFOLD), script))


def _da_seeded():
    prod = box_word(SIXFOLD)
    return "".join(f"seed {seed}\n" + _record(*type_da.reduce_da(prod, seed))
                   for seed in [None, *SEEDS])


CASES = {
    **{f"lex/{name}": (lambda name=name: _lex(_box(name)))
       for name in FIXTURE_NAMES},
    f"lex/{LARGE[0]}@{LARGE[1]}": lambda: _lex(_box(*LARGE)),
    **{f"seeded/{name}": (lambda name=name: _seeded(ktd.ktd_basefree(load_cfk(name))))
       for name in FIXTURE_NAMES},
    **{f"lex/{knot}": (lambda make=make: _lex(_box_of(make()))) for knot, make in KNOTS.items()},
    **{f"seeded/{knot}": (lambda make=make: _seeded(_box_of(make())))
       for knot, make in KNOTS.items()},
    "da/scripted": _da_scripted,
    "da/seeded": _da_seeded,
}

GOLDEN = {
    "da/scripted":
        "54f568e3f84c52156ea135ef58035122449a1d5777b2bd2a27a200583637988d",
    "da/seeded":
        "212c27076016036629395f5d26838c2771341988b2f97d304a3c539be2a20dc1",
    "lex/T(3,4)":
        "8c484cd431ab391a497c56e61fd5b43bf4d00e7c7231a01cee9164a57b15fceb",
    "lex/T(3,5)":
        "6f05381d007ed10ca3765afabcb0657bd29bcdd3a784e7a62124ae2aca7c85a5",
    "lex/T(4,5)":
        "3083c2785c1523b0425cfed3feff6773c99532fc638b34ae8db1b6203d0526ba",
    "lex/T(7,8)":
        "4016dd837330b212bfeb53e8a737816eff24623b6e21faacad001fbb5db9826e",
    "lex/figure_eight":
        "fe3c3c0063ef301f6daa61b1db21460a245bac670bcb47a5a41dcd3f8000b21e",
    "lex/five_gen":
        "0e91e02215bdf0a408782949be198b0e534369ffef2731fab6f1e25d4a3f8d63",
    "lex/five_gen@33":
        "f8ad8f8df9a5015e5a23edac2f916a0e683c515d33546ee89632277eead309c8",
    "lex/mirror_T(3,4)":
        "a0d4d522c2ef906c6c98791c374152fa3edd4ab491aec6034e8596ec7202800e",
    "lex/mirror_T(3,5)":
        "6629c8615c36b81c165e1d8685962248daa870ee0efb3e8dcffd54cc7c6d18e7",
    "lex/mirror_T(4,5)":
        "606ed701fa12e052998216f85bdf23c583eae15a65f21d95d3dd001a13390835",
    "lex/mirror_T(7,8)":
        "c56f95e092213fcfb8ddb8424e4641672a01253ea0cd30a59071d75e1a93c8be",
    "lex/trefoil_left":
        "03ce3efbf1934958a8c51e7ac9ecb569c5cc2ad251711d9a7baa71b04de34bf2",
    "lex/trefoil_right":
        "44b296bb55a66358969e1003051a2086581b39b599ae78b1d17cba8137024776",
    "lex/unknot":
        "9a7a251804b19dcde17985403d4900882463142c7da88c24c93a39a3f1656614",
    "seeded/T(3,4)":
        "e1a30ce424eeaf065eeb5298a7ecd841915197a81535ee88546bf74814d96034",
    "seeded/T(3,5)":
        "9b0087f0defa8f0b2f415504aeaacf4720d285d5c2bfd4e77c8abe0991426865",
    "seeded/T(4,5)":
        "36e7272c8bab0cab58a64b59602fe279c02aabc4ed7ddb9e7b32d7905373f1c1",
    "seeded/T(7,8)":
        "60defa75b21c5e5b27641b3bd6be3500cdd3d7dd0c7b07a75e2c862573cd438c",
    "seeded/figure_eight":
        "889031cd35211c1ed150c58cb420a2e022fa7e64147c94b740612b528e2a50c6",
    "seeded/five_gen":
        "544f3885e00b69188770858f9819f7c83cfe29a8f610f901f06fa6d0a45e59a0",
    "seeded/mirror_T(3,4)":
        "3db38387a5efc575bb1bc0a4dd4cfd1dd6daf6670c8f08972aa095198d8eb5d0",
    "seeded/mirror_T(3,5)":
        "94887ad09ee0a2f6256889b0c8849107d478f08025d5dc8da760856cfb1190e2",
    "seeded/mirror_T(4,5)":
        "f28d0f7b8d440c10430a9cd6ff1dde1e066523b482ff3c1f3ec0766a5e4b63da",
    "seeded/mirror_T(7,8)":
        "884f64816adb29bcc8bbd0906477f5aca0e7280aa535d4f25f009c8c6b0d1130",
    "seeded/trefoil_left":
        "9c43e1dc594b158ec4d602e06f142af3ebebf7d9f0ca8c2d581845e89c1c94fa",
    "seeded/trefoil_right":
        "b80b8b1a7eaa850e1438746352c1d0a1467a933a39a7b107c1b8b2105557dc7a",
    "seeded/unknot":
        "3685aa3ae8786113172760468bbf6d9a59aa390cefb6d6ea02e8e55a2e342f49",
}


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(case):
    assert _digest(CASES[case]()) == GOLDEN[case]


def test_large_box_size():
    assert len(_box(*LARGE).generators) >= 500


def test_cancel_missing_edge_raises():
    M = _box("trefoil_right")
    R, _ = type_d.reduce_d(M)
    x, y = R.arrows[0].source, R.arrows[0].target
    for s, t in [(x, y), (x, "nowhere"), ("nowhere", y)]:
        with pytest.raises(ValueError):
            type_d.reduce_d(R, [(s, t)])
    B = type_da.builtin_H()
    for s, t in [("x3", "x2"), ("x3", "nowhere"), ("nowhere", "x2")]:
        with pytest.raises(ValueError):
            type_da.reduce_da(B, [(s, t)])


def test_base_change_twice_is_identity():
    R = type_d.minimize_d(type_d.reduce_d(_box("five_gen"))[0])
    idems = R.idems()
    done = 0
    for gen in sorted(idems):
        for other in sorted(idems):
            for coeff in NONZERO:
                if (gen == other or idems[gen] is not left_idem(coeff)
                        or idems[other] is not right_idem(coeff)):
                    continue
                B = base_change(R, gen, other, coeff)
                assert base_change(B, gen, other, coeff) == R
                done += 1
    assert done


if __name__ == "__main__":
    print("GOLDEN = {")
    for case in sorted(CASES):
        print(f'    "{case}":\n        "{_digest(CASES[case]())}",')
    print("}")
