import random

import pytest

from bhf import cfk
from bhf._linalg import rref
from conftest import FIXTURE_NAMES, load_cfk, random_base_change, random_complex

G = cfk.KnotGenerator
Ar = cfk.KnotArrow


def maslov_homology_ranks(C: cfk.KnotComplex, truncation: int = 6):
    """F2 homology ranks of C/U^K, graded by Maslov degree.

    Independent invariant of the complex up to filtered homotopy
    equivalence, used as an oracle for the rewriting operations.
    """
    basis = [(g.name, j) for g in C.generators for j in range(truncation)]
    index = {b: i for i, b in enumerate(basis)}
    cols = {}
    for (name, j) in basis:
        mask = 0
        for a in C.arrows:
            if a.source != name:
                continue
            k = j + a.u_power
            if k < truncation:
                mask ^= 1 << index[(a.target, k)]
        cols[index[(name, j)]] = mask
    by = C.by_name()
    grades = {}
    for (name, j), i in index.items():
        grades.setdefault(by[name].maslov - 2 * j, []).append(i)
    total_rank = len(rref([m for m in cols.values() if m]))
    # homology rank per Maslov degree: dim - rank_in - rank_out
    out = {}
    for m, idxs in sorted(grades.items()):
        into = [cols[i] & sum(1 << k for k in idxs) for i in cols]
        r_out = len(rref([cols[i] for i in idxs if cols[i]]))
        r_in = len(rref([v for v in into if v]))
        out[m] = len(idxs) - r_out - r_in
    out["total"] = len(basis) - 2 * total_rank
    return out


def test_fixtures_valid(any_complex):
    assert cfk.validate(any_complex) == []
    assert cfk.is_reduced(any_complex)


def test_validate_rejects_bad_maslov():
    C = cfk.make_complex([G("x", 1, 0), G("y", 0, 0)], [Ar("x", "y", 0)])
    assert any("maslov" in e or "drop" in e for e in cfk.validate(C))


def test_validate_rejects_negative_nz():
    C = cfk.make_complex([G("x", 0, 0), G("y", 2, -1)], [Ar("x", "y", 1)])
    assert cfk.validate(C)


def test_validate_rejects_d_squared():
    C = cfk.make_complex(
        [G("x", 2, 2), G("y", 1, 1), G("z", 0, 0)],
        [Ar("x", "y", 0), Ar("y", "z", 0)])
    assert any("d^2" in e for e in cfk.validate(C))


def test_flip_involution(any_complex):
    assert cfk.flip(cfk.flip(any_complex)) == any_complex


def test_flip_swaps_families(any_complex):
    C = any_complex
    F = cfk.flip(C)
    verts = {(a.source, a.target) for a in C.arrows if C.is_vertical(a)}
    horzs = {(a.source, a.target) for a in F.arrows if F.is_horizontal(a)}
    assert verts == horzs


def test_flip_five_gen_levels(five_gen):
    F = cfk.flip(five_gen)
    levels = {g.name: g.alexander for g in F.generators}
    assert [levels[n] for n in "abcde"] == [-1, -1, 0, 1, 0]


def test_flip_preserves_validity(any_complex):
    assert cfk.validate(cfk.flip(any_complex)) == []


def test_reduce_fixture_already_reduced(any_complex):
    assert cfk.reduce(any_complex) == any_complex


def test_reduce_cancels_contractible_pair():
    C = cfk.make_complex([G("x", 0, 1), G("y", 0, 0), G("u", 0, 0)],
                         [Ar("x", "y", 0)])
    R = cfk.reduce(C)
    assert [g.name for g in R.generators] == ["u"]


def test_tau_values():
    expected = {"unknot": 0, "trefoil_right": 1, "trefoil_left": -1,
                "figure_eight": 0, "five_gen": 1}
    for name, want in expected.items():
        assert cfk.tau(load_cfk(name)) == want


def test_vertical_simplify_five_gen(five_gen):
    V = cfk.vertical_simplify(five_gen)
    assert cfk.is_vertically_simplified(V)
    assert cfk.validate(V) == []


def test_simultaneous_simplify(any_complex):
    S = cfk.simultaneous_simplify(any_complex)
    assert S is not None
    assert cfk.validate(S) == []
    assert cfk.is_vertically_simplified(S)
    assert cfk.is_horizontally_simplified(S)


def test_rewrites_preserve_homology(any_complex):
    C = any_complex
    want = maslov_homology_ranks(C)
    assert maslov_homology_ranks(cfk.vertical_simplify(C)) == want
    assert maslov_homology_ranks(cfk.horizontal_simplify(C)) == want
    assert maslov_homology_ranks(cfk.simultaneous_simplify(C)) == want


def test_homology_supports_five_gen(five_gen):
    assert cfk.homology_support(five_gen, "dz") == frozenset({"a", "b"})
    assert cfk.cohomology_support(five_gen, "dw") == frozenset({"b"})


def test_homology_supports_trefoil(trefoil):
    assert cfk.homology_support(trefoil, "dz") == frozenset({"a"})
    assert cfk.cohomology_support(trefoil, "dw") == frozenset({"c"})


@pytest.mark.parametrize("low, high", [("y", "z"), ("z", "y")])
def test_tau_ignores_generator_names(low, high):
    # x -> y and x -> z are vertical; low (A=0) and high (A=1) are
    # homologous cycles, so the class first appears at level 0
    C = cfk.make_complex([G("x", 2, 0), G(low, 0, -1), G(high, 1, -1)],
                         [Ar("x", low, 0), Ar("x", high, 0)])
    assert cfk.tau(C) == 0


def test_tau_requires_rank_one():
    C = cfk.make_complex([G("x", 0, 0), G("y", 0, 0)], [])
    with pytest.raises(ValueError):
        cfk.tau(C)


def test_random_base_changes_keep_validity():
    applied = 0
    for seed in range(20):
        C = random_complex(FIXTURE_NAMES[seed % len(FIXTURE_NAMES)], seed)
        want = maslov_homology_ranks(C)
        m, rng = cfk._Mut(C), random.Random(seed)
        for _ in range(25):
            if random_base_change(m, rng):
                applied += 1
                B = m.freeze()
                assert cfk.validate(B) == []
                assert maslov_homology_ranks(B) == want
    assert applied >= 50
