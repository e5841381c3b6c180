import collections
import hashlib
import itertools

import pytest

from bhf import cfk, cli, io_formats, ktd, type_d, type_da
from bhf.algebra import AlgebraElement as A
from conftest import (FIXTURE_NAMES, FIXTURES, base_change, boxed_complex, every_change,
                      load_cfk, negated_columns, random_complex)
from staircase import mirror, staircase, torus_knot
from test_cli import CYCLING_DRAWS, UNSIMPLIFIABLE

# frozen oracle for the five-generator example at n=7: column populations,
# arrow label inventory and the distinguished homology representatives
ORACLE_V0 = {-1: 1, 0: 2, 1: 2}
ORACLE_V1 = {-4: 1, -3: 3, -2: 5, -1: 1, 0: 1, 1: 1, 2: 5, 3: 4, 4: 2}
ORACLE_LABELS = {"iota0": 0, "iota1": 8, "rho1": 5, "rho2": 2, "rho3": 5,
                 "rho12": 0, "rho123": 2, "rho23": 15}


def columns(D):
    v0, v1 = collections.Counter(), collections.Counter()
    for name, _ in D.generators:
        t = D.tags[name]
        (v0 if t["part"] == "V0" else v1)[t["col2"] // 2] += 1
    return dict(v0), dict(v1)


def label_counts(D):
    c = collections.Counter(a.label.value for a in D.arrows)
    return {k: c.get(k, 0) for k in ORACLE_LABELS}


def test_basefree_five_gen_oracle(five_gen):
    D = ktd.ktd_basefree(five_gen, 7)
    assert type_d.validate_d(D) == []
    assert len(D.generators) == 28
    assert len(D.arrows) == 37
    v0, v1 = columns(D)
    assert v0 == ORACLE_V0
    assert v1 == ORACLE_V1
    assert label_counts(D) == ORACLE_LABELS


TORUS_KNOTS = [f"{m}T({p},{p + 1})" for p in range(2, 8) for m in ("", "mirror ")]


@pytest.mark.parametrize("name", FIXTURE_NAMES + TORUS_KNOTS)
def test_basefree_validates(name):
    # every arrow ends at a generator the construction made, at each framing
    C = _knot(name)
    for n in range(4 * ktd._width(C) + 3, 4 * ktd._width(C) + 7):
        assert type_d.validate_d(ktd.ktd_basefree(C, n)) == [], n


def test_basefree_never_uses_rho12(any_complex):
    for n_extra in (0, 1, 2):
        t = max((abs(g.alexander) for g in any_complex.generators), default=0)
        D = ktd.ktd_basefree(any_complex, 4 * t + 3 + n_extra)
        assert all(a.label is not A.R12 for a in D.arrows)


def test_basefree_iota0_count_matches_complex(any_complex):
    D = ktd.ktd_basefree(any_complex)
    v0 = [n for n, i in D.generators if D.tags[n]["part"] == "V0"]
    assert len(v0) == len(any_complex.generators)
    assert all(D.idems()[n] is A.I0 for n in v0)


def test_basefree_rejects_small_parameter(five_gen):
    with pytest.raises(ValueError):
        ktd.ktd_basefree(five_gen, 6)


def test_basis_validates(any_complex):
    S = cfk.simultaneous_simplify(any_complex)
    D = ktd.ktd_basis(S)
    assert type_d.validate_d(D) == []


def test_basis_unstable_chain_shapes():
    for name in ("unknot", "trefoil_right"):
        S = cfk.simultaneous_simplify(load_cfk(name))
        probe = ktd.ktd_basis(S)
        base = probe.tags[ktd.META]["framing"]
        two_tau = base + 3
        for m in (1, 2, 3):
            D = ktd.ktd_basis(S, two_tau - m)
            mus = [g for g, _ in D.generators if g.startswith("u.")]
            assert len(mus) == m
            assert type_d.validate_d(D) == []
        level = ktd.ktd_basis(S, two_tau)
        r12 = [a for a in level.arrows if a.label is A.R12]
        assert len(r12) == 1
        above = ktd.ktd_basis(S, two_tau + 2)
        mus = [g for g, _ in above.generators if g.startswith("u.")]
        assert len(mus) == 2
        assert all(a.label is not A.R12 for a in above.arrows)


def test_basis_unknot_self_framing():
    S = cfk.simultaneous_simplify(load_cfk("unknot"))
    D = ktd.ktd_basis(S, 0)
    assert len(D.generators) == 1
    assert D.arrows[0].label is A.R12
    assert D.arrows[0].source == D.arrows[0].target


@pytest.mark.parametrize("name", FIXTURE_NAMES + [f"{m}T({p},{p + 1})" for p in range(2, 8)
                                                  for m in ("", "mirror ")])
def test_flip_direct_matches_flip(name):
    # exactly the base-free module of the flipped complex, generators,
    # arrows and tags, once each column label s2 is negated
    C = _knot(name)
    for n in (None, 4 * ktd._width(C) + 6):
        F = ktd.flip_ktd_direct(C, n)
        assert type_d.validate_d(F) == []
        E, R = ktd.ktd_basefree(cfk.flip(C), n), negated_columns(F)
        assert (R.generators, R.arrows, R.tags) == (E.generators, E.arrows, E.tags), n


def test_constructions_make_each_arrow_once():
    # over F2 a repeated arrow would cancel, so the module graph takes the
    # arrows of a construction as they are
    knots = ([_knot(name) for name in STAGED_KNOTS]
             + [random_complex(name, seed) for name in FIXTURE_NAMES for seed in range(40)])
    built = 0
    for C in knots:
        if cfk.validate(C):
            continue
        C = cfk.reduce(C)
        for algo in ("basefree", "basis"):
            try:
                made = ktd._construction(C, algo, None)
            except ValueError:  # not a knot complex, no simplified basis, or a name made twice
                continue
            built += 1
            assert len(set(made[1])) == len(made[1]), algo
    assert built == 198  # all 38 staged builds, and 160 of the 400 random ones


def test_adjust_framing_zero_is_identity(trefoil):
    S = cfk.simultaneous_simplify(trefoil)
    D = ktd.ktd_basis(S)
    assert ktd.adjust_framing(D, 0) == D


def test_adjust_framing_rejects_a_negative_count(trefoil):
    D = ktd.ktd_basis(cfk.simultaneous_simplify(trefoil))
    with pytest.raises(ValueError, match="only nonnegative twist counts"):
        ktd.adjust_framing(D, -1)


def test_adjust_framing_matches_direct_construction(any_complex):
    S = cfk.simultaneous_simplify(any_complex)
    D = ktd.ktd_basis(S)
    base = D.tags[ktd.META]["framing"]
    for k in (3, 5):
        adj = type_d.minimize_d(ktd.adjust_framing(D, k))
        direct, _ = type_d.reduce_d(ktd.ktd_basis(S, base + k))
        direct = type_d.minimize_d(direct)
        assert type_d._match_up_to_base_change(adj, direct)[0] is not None


def test_algorithms_agree(any_complex):
    C = any_complex
    S = cfk.simultaneous_simplify(C)
    t = max((abs(g.alexander) for g in C.generators), default=0)
    n = 4 * t + 3
    bf = type_d.minimize_d(type_d.reduce_d(ktd.ktd_basefree(C, n))[0])
    bs = type_d.minimize_d(type_d.reduce_d(ktd.ktd_basis(S, -n))[0])
    assert type_d._match_up_to_base_change(bf, bs)[0] is not None


def test_verify_basefree(any_complex):
    res = ktd.verify_elliptic_invariance(any_complex, "basefree")
    assert res.verdict == "verified"
    assert res.witness


def test_verify_basis(any_complex):
    res = ktd.verify_elliptic_invariance(any_complex, "basis")
    assert res.verdict == "verified"


def test_verify_rejects_an_unknown_algorithm(trefoil):
    with pytest.raises(ValueError, match="unknown algorithm 'nope'"):
        ktd.verify_elliptic_invariance(trefoil, "nope")


# a -> b with U^0 at one Alexander grading: valid, but not reduced
UNREDUCED = cfk.make_complex([cfk.KnotGenerator("a", 0, 0), cfk.KnotGenerator("b", 0, -1),
                              cfk.KnotGenerator("c", 0, 0)], [cfk.KnotArrow("a", "b", 0)])
DANGLING = cfk.make_complex([cfk.KnotGenerator("a", 0, 0)], [cfk.KnotArrow("a", "z", 0)])
# two generators and no arrow: both homologies have rank two, so no knot complex
TWO_POINTS = cfk.make_complex([cfk.KnotGenerator("x", 0, 0), cfk.KnotGenerator("y", 0, 0)], [])


def trefoil_with(third):
    """The right-handed trefoil, b -> U a and b -> third, with its third
    generator named third."""
    return cfk.make_complex([cfk.KnotGenerator("a", 1, 0), cfk.KnotGenerator("b", 0, -1),
                             cfk.KnotGenerator(third, -1, -2)],
                            [cfk.KnotArrow("b", "a", 1), cfk.KnotArrow("b", third, 0)])


def verify_basis(C):
    return ktd.verify_elliptic_invariance(C, "basis")


# a|8 is the base-free rho1 target of a, u.1 ... u.3 the basis unstable chain
CLASHES = [(ktd.ktd_basefree, "a|8"), (ktd.verify_elliptic_invariance, "a|8"),
           (ktd.ktd_basis, "u.1"), (ktd.ktd_basis, "u.2"), (ktd.ktd_basis, "u.3"),
           (verify_basis, "u.1")]


@pytest.mark.parametrize("f, C, says", [
    (ktd.ktd_basis, DANGLING, "invalid complex: arrow a->z references unknown generator"),
    (ktd.flip_ktd_direct, DANGLING, "invalid complex: arrow a->z references unknown generator"),
    (ktd.flip_ktd_direct, trefoil_with("a|8"), "construction makes two generators named 'a|8'"),
    (ktd.ktd_basis, TWO_POINTS, "dw homology has rank 2, expected 1"),
    (verify_basis, TWO_POINTS, "dw homology has rank 2, expected 1"),
    (ktd.ktd_basefree, DANGLING, "invalid complex: arrow a->z references unknown generator"),
    (cfk.tau, DANGLING, "invalid complex: arrow a->z references unknown generator"),
    (ktd.verify_elliptic_invariance, DANGLING,
     "invalid complex: arrow a->z references unknown generator"),
] + [(f, trefoil_with(name), f"construction makes two generators named {name!r}")
     for f, name in CLASHES], ids=lambda x: getattr(x, "__name__", None))
def test_library_rejects_a_complex_it_cannot_take(f, C, says):
    with pytest.raises(ValueError) as got:
        f(C)
    assert str(got.value) == says


@pytest.mark.parametrize("algo", ["basefree", "basis"])
def test_verify_and_cfd_validate_their_complex_once(algo, monkeypatch, capsys):
    # cfk._model reads the module globals, and the CLI's validator table
    # holds the function itself, so each counts through its wrapper
    calls = collections.Counter()

    def counted(name, f):
        return lambda C: calls.update([name]) or f(C)
    monkeypatch.setitem(cli._VALIDATORS, "cfk", counted("validate", cfk.validate))
    monkeypatch.setattr(cfk, "validate", counted("validate", cfk.validate))
    monkeypatch.setattr(cfk, "reduce", counted("reduce", cfk.reduce))
    path = str(FIXTURES / "trefoil_right.cfk.json")
    for argv in (["verify", path, "--algo", algo], ["cfd", path, "--algo", algo],
                 ["tau", path]):
        calls.clear()
        assert cli.main(argv) == 0, argv
        assert calls == {"validate": 1, "reduce": 1}, argv
    capsys.readouterr()


def _built(f, C):
    """What f makes of C: a module as its document, or the ValueError's text."""
    try:
        made = f(C)
    except ValueError as e:
        return str(e)
    return made if isinstance(made, int) else io_formats.write_typed(made)


def test_builders_take_any_valid_complex():
    # each validates and reduces C itself, and ktd_basis simplifies it, so
    # an unreduced or unsimplified C gives what its reduction gives; the
    # simplifications reduce C too
    draws = [random_complex(name, seed) for name in FIXTURE_NAMES for seed in range(20)]
    unsimplifiable = io_formats.parse_cfk(UNSIMPLIFIABLE)
    built = 0
    for C in [load_cfk("five_gen"), UNREDUCED, unsimplifiable] + draws:
        if cfk.validate(C):
            continue
        R = cfk.reduce(C)
        for f in (ktd.ktd_basefree, ktd.flip_ktd_direct, cfk.tau):
            assert _built(f, C) == _built(f, R), f.__name__
        for f in (cfk.vertical_simplify, cfk.horizontal_simplify, cfk.simultaneous_simplify):
            assert f(C) == f(R), f.__name__
        S = cfk.simultaneous_simplify(R)
        basis = _built(ktd.ktd_basis, C)
        if S is not None:
            built += 1
            assert basis == _built(ktd.ktd_basis, S)
        try:
            ktd.ktd_basefree(C)
        except ValueError as e:  # not a knot complex: basis refuses it in the same words
            assert basis == str(e)
        else:
            assert S is not None or basis == "simultaneous simplification did not converge"
    assert cfk.simultaneous_simplify(cfk.reduce(unsimplifiable)) is None
    assert built == 101  # five_gen, UNREDUCED and 99 of the 100 valid draws


# exponents of the Alexander polynomial of T(5,6), highest first
T56 = [10, 9, 5, 3, 0, -3, -5, -9, -10]


def reduced(D):
    return type_d.minimize_d(type_d.reduce_d(D)[0])


INVOLUTION_KNOTS = FIXTURE_NAMES + ["T(3,4)", "mirror T(3,4)"]


@pytest.mark.parametrize("name", INVOLUTION_KNOTS)
def test_the_involution_squares_to_the_identity(name):
    # H box H box D is homotopic to D: reduce between the two boxes
    D = ktd.ktd_basefree(_knot(name))
    once = type_d.reduce_d(type_da.box_da_d(type_da.builtin_H(), D))[0]
    twice = reduced(type_da.box_da_d(type_da.builtin_H(), once))
    assert ktd._compare_d(twice, reduced(D)).verdict == "verified"


@pytest.mark.parametrize("name", INVOLUTION_KNOTS)
def test_verify_basefree_at_four_framings(name):
    C = _knot(name)
    for n in range(4 * ktd._width(C) + 3, 4 * ktd._width(C) + 7):
        res = ktd.verify_elliptic_invariance(C, "basefree", n)
        assert res.verdict == "verified", (n, res.detail)


def test_compare_fails_on_a_different_knot():
    # negative control: H box CFD(trefoil_right) is not CFD(trefoil_left)
    left = reduced(type_da.box_da_d(type_da.builtin_H(),
                                    ktd.ktd_basefree(load_cfk("trefoil_right"))))
    right = reduced(ktd.ktd_basefree(load_cfk("trefoil_left")))
    assert (len(left.generators), len(right.generators)) == (14, 10)
    res = ktd._compare_d(left, right)
    assert res.verdict == "failed"
    assert res.witness is None


def five_gen_modules():
    """Three isomorphic reduced modules of five_gen: R and S, of 17 arrows,
    one base change apart, whose arrow label multisets differ; and T, of 16
    arrows, which minimize_d reaches from R after two base changes."""
    R = reduced(ktd.ktd_basefree(load_cfk("five_gen")))
    S = base_change(R, "b|8", "a|8", A.I1)
    T = type_d.minimize_d(base_change(
        base_change(R, "*|-2", "*|0", A.R23), "b|8", "a|8", A.I1))
    assert (len(R.arrows), len(S.arrows), len(T.arrows)) == (17, 17, 16)
    assert (collections.Counter(a.label for a in R.arrows)
            != collections.Counter(a.label for a in S.arrows))
    return R, S, T


def test_compare_never_fails_on_isomorphic_modules():
    R, S, T = five_gen_modules()
    for X, Y in [(R, S), (S, R), (R, T), (T, R)]:
        assert ktd._compare_d(X, Y).verdict != "failed"
    assert ktd._compare_d(R, S).verdict == "verified"
    assert ktd._compare_d(R, T).verdict == "verified"
    # T admits no base change that keeps its 16 arrows, so the search from
    # T never reaches the 17 arrows of R
    res = ktd._compare_d(T, R)
    assert res.verdict == "inconclusive"
    assert res.detail.endswith("within 2 base changes (cap of 4000 modules not hit)")


@pytest.mark.parametrize("name", ["trefoil_right", "figure_eight", "five_gen"])
def test_verify_rejects_a_mapping_that_fails_its_check(name, monkeypatch):
    # a search that swaps the images of two generators at one idempotent
    # returns a bijection that carries the arrows wrong: _carries catches it
    search = type_d._isomorphic

    def swapped(gens_m, *args):
        mapping = search(gens_m, *args)
        if mapping is not None:
            x, y = next((x, y) for (x, i), (y, j) in itertools.combinations(gens_m, 2)
                        if i is j)
            mapping[x], mapping[y] = mapping[y], mapping[x]
        return mapping
    monkeypatch.setattr(type_d, "_isomorphic", swapped)
    res = ktd.verify_elliptic_invariance(load_cfk(name))
    assert res == ktd.VerifyResult("inconclusive", None, "matched mapping failed its check")


def test_match_reports_the_cap_only_when_a_candidate_is_dropped(monkeypatch):
    R, _, T = five_gen_modules()
    candidates = {base_change(R, *t).arrows for t in every_change(R.idems())}
    n = len({c for c in candidates if len(c) <= len(R.arrows)} - {R.arrows})
    assert n == 2
    monkeypatch.setattr(type_d, "MATCH_DEPTH", 1)
    monkeypatch.setattr(type_d, "MATCH_CAP", n)
    assert type_d._match_up_to_base_change(R, T) == (None, False)
    monkeypatch.setattr(type_d, "MATCH_CAP", n - 1)
    assert type_d._match_up_to_base_change(R, T) == (None, True)
    # the last level's base changes are never tried, so never dropped
    monkeypatch.setattr(type_d, "MATCH_DEPTH", 0)
    monkeypatch.setattr(type_d, "MATCH_CAP", 0)
    assert type_d._match_up_to_base_change(R, T) == (None, False)


def test_match_stops_expanding_once_the_cap_is_hit(monkeypatch):
    # R's two candidates fill a cap of 2, and the first of them hits it while
    # the second waits in the same level: the second is still matched, but
    # not read as a graph, since no candidate of it could be kept
    R, _, T = five_gen_modules()
    graphs, graph_d = [], type_d._graph_d
    monkeypatch.setattr(type_d, "_graph_d", lambda M: graphs.append(M) or graph_d(M))
    matched, isomorphic = [], type_d._isomorphic
    monkeypatch.setattr(type_d, "_isomorphic",
                        lambda *args: matched.append(args[1]) or isomorphic(*args))
    monkeypatch.setattr(type_d, "MATCH_DEPTH", 2)
    monkeypatch.setattr(type_d, "MATCH_CAP", 2)
    assert type_d._match_up_to_base_change(R, T) == (None, True)
    assert (len(matched), len(graphs)) == (3, 2)
    assert graphs[0] == R and matched[:2] == [R.arrows, graphs[1].arrows]


def test_carries_rejects_a_wrong_mapping():
    M = type_d.make_module([("x", A.I0), ("y", A.I1), ("z", A.I1)],
                           [type_d.DArrow("x", "y", A.R1),
                            type_d.DArrow("y", "z", A.R23)])
    ident = {"x": "x", "y": "y", "z": "z"}
    assert ktd._carries(ident, M, M)
    assert not ktd._carries({"x": "x", "y": "z", "z": "y"}, M, M)
    assert not ktd._carries({"x": "y", "y": "x", "z": "z"}, M, M)
    assert not ktd._carries({"x": "x", "y": "y", "z": "y"}, M, M)
    assert not ktd._carries({"x": "x", "y": "y"}, M, M)
    # as many arrows, one of them not N's
    N = type_d.make_module(M.generators, [type_d.DArrow("x", "y", A.R1),
                                          type_d.DArrow("x", "z", A.R1)])
    assert not ktd._carries(ident, M, N)


@pytest.mark.parametrize("algo", ["basefree", "basis"])
def test_verified_carries_a_checked_witness(algo, monkeypatch):
    checks = []
    carries = ktd._carries

    def recorded(mapping, M, N):
        checks.append(carries(mapping, M, N))
        return checks[-1]

    monkeypatch.setattr(ktd, "_carries", recorded)
    # trefoil_right and trefoil_left are T(2,3) and its mirror
    for C in [load_cfk(n) for n in FIXTURE_NAMES]:
        checks.clear()
        assert ktd.verify_elliptic_invariance(C, algo).verdict == "verified"
        assert checks == [True]


@pytest.mark.parametrize("algo", ["basefree", "basis"])
def test_verify_torus_knot_5_6(algo):
    T = staircase(T56)
    res = ktd.verify_elliptic_invariance(T, algo)
    assert res.verdict == "verified"
    if algo == "basefree":
        assert len(res.witness) == 92  # generators of the reduced H box CFD
    assert ktd.verify_elliptic_invariance(mirror(T), algo).verdict == "verified"


# sha256 of write_typed(ktd_basefree(C, n)) at the default n and at n + 3,
# recorded before ktd_basefree computed each column once; the mirrors of the
# torus knots were recorded before it built its columns in one ordered pass
BASEFREE_SHA256 = {
    "unknot@default":
        "6c44c2b1e60c883ee97cea29d8ec6a4c35e187d4cbeea7a86c33572f976a2f71",
    "unknot@+3":
        "a934a38c8476a41444b4d57e07e72e77bb84499f30ed838177c67f065212975a",
    "trefoil_right@default":
        "6e9e9b37b7a7dd28f53a4d5273de46fd40604f863d9223bf43f1186f679f3201",
    "trefoil_right@+3":
        "41a534a24a15e8182506f2f5441c8063e173e4d70816c7c45c96a71ccf8e053e",
    "trefoil_left@default":
        "fd5ce37bd2b8903cb841f5c7867ef84a8f14655c9d89a457c5a08d12e2a92d03",
    "trefoil_left@+3":
        "90dc9826e36f99160e2bf5082f65ea346710b11eece02b92f5ef1a4ead061326",
    "figure_eight@default":
        "0064b37722941b8457c6d8e86707374a0a3137eb203d2859762b371a1096e33c",
    "figure_eight@+3":
        "b9a15c25fef084d6099cb6e5d891b5c07a57ab4b0af7a60a5530b19f8cc0033c",
    "five_gen@default":
        "2e55b7e92d0a19720de02115db6d5d9d93c4367f16f16e0f3723b4a3ae38bb6e",
    "five_gen@+3":
        "afbd901902b7cad9695ad116cccee938e6011fe598b7fe96c15b34265e100065",
    "T(2,3)@default":
        "2061c6cf337e98bfafa4003ae9c6bbae81db6d0724c4f5acea687468a319aa6c",
    "T(2,3)@+3":
        "15d207945c65d51e5c2881250a9fb4ef287311e5d2b97c2b51543392c341643f",
    "T(3,4)@default":
        "946c39c17df07ed64041d361ed338e39138cea990e2fabc5df08c5c6f0d81188",
    "T(3,4)@+3":
        "e088ca7fa5ce8c813cc7928b3764e9db93f0120d17fb0fb7bff752b9edbb7a04",
    "T(4,5)@default":
        "af4eb0971c556c2de82ac2f6a7c95a55ec6b31d590c62cf35aa6b7bd50e35bb3",
    "T(4,5)@+3":
        "9994c6fb69c1109ef6c213ae69b4f3550f8f776d421d2777da5684e99adac0f1",
    "T(5,6)@default":
        "fd9f2f57afb3ad0234cb98620ab193a03f16cfd6a2b5115757863868ed9521ae",
    "T(5,6)@+3":
        "56123a21e094c3a6f846fc1cd43afeaaf7d14ae11c3903ee2fdde56e4dfb83f2",
    "T(6,7)@default":
        "81552b8a231998fc63076ccd36673e2da997fd76763be4a31217dcbb1286a9e3",
    "T(6,7)@+3":
        "4fbc385f546eece592b9626e2b706ee1125ab97098be3a31afcedb7067bc3519",
    "T(7,8)@default":
        "73d57c57e0278315cc1fc23cfa8afa43bc3afa6eee46ade9e86fddf00ec725f9",
    "T(7,8)@+3":
        "1a364c7c14f32efbec7b6c85aab0047ed8570daea3a5f0cce5a87520275b2374",
    "mirror T(2,3)@default":
        "85c7eb2e3f87f75630cc55b319eeaf00c7d0c54b6c8d2ffb6116867c35b32737",
    "mirror T(2,3)@+3":
        "2a77afc03e33b871af286bce8a4f1d40963ff354436fc889dae5272a9c56c368",
    "mirror T(3,4)@default":
        "64c6b2ad9bf948658f1c914d2cb84d81e643b82e5630d8678b9e4e3fb1aadeaa",
    "mirror T(3,4)@+3":
        "cdd42d77d01671daa15c1f87c01f081483da22adb4810cd71a94f738fd08503e",
    "mirror T(4,5)@default":
        "0a548fd088a88f144da643a27b8a1444fbe79900a80f1cd2a769475b6c383216",
    "mirror T(4,5)@+3":
        "2d1bbbd67b780ac701d8189db13acb032295ceda63fa16b7c87b5154ee0c3a85",
    "mirror T(5,6)@default":
        "c8bdbe601569e1766606978df54a54b1bdae72e674990d906308b57fddcf7a86",
    "mirror T(5,6)@+3":
        "b2849f01aa521b6d3ddaa0b5e935603d6ce4522b8adb6c98fe99f5978095ee84",
    "mirror T(6,7)@default":
        "60c21277ef5a8cbd0207a9bed8cd8edfaaa6a080a30ab55ad6514ad325268fcd",
    "mirror T(6,7)@+3":
        "eab5b540a9f589a697fee58d516547d5d1fc587de54a8cfaa0e33a241bba48d5",
    "mirror T(7,8)@default":
        "da71bba34e43ea9564abf0491fd469628dc1122f856c87c242b6126a01536ad4",
    "mirror T(7,8)@+3":
        "06aedd1bb859dc794ffb74166abad94ffff255951f56d06a7e3da25f9ae0563d",
}


def _knot(name):
    """A fixture, T(p,q) from its staircase, or "mirror " and either."""
    if name.startswith("mirror "):
        return mirror(_knot(name[len("mirror "):]))
    if name.startswith("T("):
        return torus_knot(*map(int, name[2:-1].split(",")))
    return load_cfk(name)


@pytest.mark.parametrize("key", sorted(BASEFREE_SHA256))
def test_basefree_output_is_pinned(key):
    name, offset = key.split("@")
    C = _knot(name)
    D = ktd.ktd_basefree(C, None if offset == "default" else 4 * ktd._width(C) + 6)
    digest = hashlib.sha256(io_formats.write_typed(D).encode()).hexdigest()
    assert digest == BASEFREE_SHA256[key]


# sha256 of write_typed(flip_ktd_direct(C, n)) at the keys of
# BASEFREE_SHA256 and the mirrors of its torus knots, recorded before
# flip_ktd_direct read its module's tags in one pass
FLIP_SHA256 = {
    "T(2,3)@+3":
        "71eab35773272c73660a8b45f2f42f2d39f807f8e058a54eb9cb83258351201d",
    "T(2,3)@default":
        "3a0b18df309bd49b6390733cbd966c580d2d0d65850d5ee88b55a0d88a595d85",
    "T(3,4)@+3":
        "fd61dc252789af63a033ed3152913074eb0ef913a5bee27c98a9ddc3f4e97201",
    "T(3,4)@default":
        "c8f28fd5d85d4e6743b6f4d89c26b81392c44377d8233e4cb5f4045b93d4aa19",
    "T(4,5)@+3":
        "aaabd870dfc28c34926bdcf16a6e6fdfe3e475782a86bb9a06861e071c242361",
    "T(4,5)@default":
        "f7e6de82a105450cf93a0f435bf4b416a5971f1f9590afd7b6e3b5bfc87ba597",
    "T(5,6)@+3":
        "1a09bc20847704d55df440e043f7c660f6d04606904fe21dc62aa63e5cf7e1c0",
    "T(5,6)@default":
        "df796413b1289d6ebae4edbe3a745de688543cff2e737d907a22f42b846e1e0c",
    "T(6,7)@+3":
        "b0ac6ca9409d437f64a1024bf0fddeda5a672db0088e2fff797668355bc132da",
    "T(6,7)@default":
        "16a9858e466f3372e7d58c8013268d82c4d21c06b9db14b02399d151abc59667",
    "T(7,8)@+3":
        "75cb01d44f1bff6127196d5b747811eb637cb299bae610f8a56c7e671c93b8d3",
    "T(7,8)@default":
        "004268b9c6c8f621f59f254df9949c9d6cee900170d4e8327e45b0184ce4fa6d",
    "figure_eight@+3":
        "687a85aa1550b0290ff8ca6644b86fbc9344cb1409271a5ca52642e115ba6bea",
    "figure_eight@default":
        "1e88f273b2e21758c49353e4d95db60f4e21460c317c0f0428d3a8333afb3b74",
    "five_gen@+3":
        "6b5ccce3cedfcfe498a0396c2a8f3f43013799c11348adc352c09019387e3a2f",
    "five_gen@default":
        "62243902e93bff2f30288b73fa509edf3edf4dd9a882b9085e3d6778e0a6c71a",
    "mirror T(2,3)@+3":
        "1e2d049ba3a8539f0975b6ca55a069b6fedc12ece38ca66c4e94e935c6022390",
    "mirror T(2,3)@default":
        "a27c3a8426388d107551b78de15f2ad4c83cbba8b652453bba706e69c433a8dc",
    "mirror T(3,4)@+3":
        "7ec6ef73eb25581dc1079de297f1a9d6160f093bcbdc734c3e4943f2e469de9b",
    "mirror T(3,4)@default":
        "fb15e15987841e19c5d835002e9b7efbe514eb315f96e7c4d70f2af3e864a1d9",
    "mirror T(4,5)@+3":
        "52f25345aa886e5032170f39a6e42a9d219711ae286ec5c806b0643f64f99e42",
    "mirror T(4,5)@default":
        "5134ba8482bbfccc74a1e556d5267a9feebda94691ae7bce860dcac729854827",
    "mirror T(5,6)@+3":
        "88c95726b0accb3a003e0a244a095d1a9972e5d155653fec9a90d8dfd53ae4c5",
    "mirror T(5,6)@default":
        "9b1a91f6cc087070eedeeddf74ae68b4ebb58262b0fb8e8d1378d0d79bea8122",
    "mirror T(6,7)@+3":
        "d8579f084731dde2eb96c63e7f942aa7c3b3a521506e9eeba8a5c172e2aebe94",
    "mirror T(6,7)@default":
        "79748d4b33e28386242d2704985a60701ac0d4ef564b45b71a7c98ef4c1172bf",
    "mirror T(7,8)@+3":
        "eb03199b79960b272b632dc739f52101ca1673e4c979c269b0d239afc210a9f6",
    "mirror T(7,8)@default":
        "e936877235cadfef04308ad2f9bd40d279ba521a058dac064e0ead45d0f4bf0c",
    "trefoil_left@+3":
        "9310f1774898d1c306c4622959e0fd8d7cd69a61cdc321b43524d9eda0787282",
    "trefoil_left@default":
        "12b3795f8675466308c2b5fbcaa79582ec302707bd0ccb5a5b60b650085ca981",
    "trefoil_right@+3":
        "69fe33d3d6227aea9efbf251cbe54f242635f1ec96f6c1f61dc872241ac527a7",
    "trefoil_right@default":
        "fff561684d6c4fad2dc4e868bcabfca29f0971671dc201f17ef282b044c46abe",
    "unknot@+3":
        "37e2b8af63e0f72bda6dc5a39bf16185e8c4fb4c6ec17da629d14c3ce59ca1da",
    "unknot@default":
        "a8c8dbece5622940142c0426bfbf81d3f2ff7a89ab1f2e2ae7b70d6bff7de31e",
}


@pytest.mark.parametrize("key", sorted(FLIP_SHA256))
def test_flip_direct_output_is_pinned(key):
    name, offset = key.split("@")
    C = _knot(name)
    F = ktd.flip_ktd_direct(C, None if offset == "default" else 4 * ktd._width(C) + 6)
    digest = hashlib.sha256(io_formats.write_typed(F).encode()).hexdigest()
    assert digest == FLIP_SHA256[key]


# sha256 of write_typed(ktd_basis(S, 2*tau + offset)), S the simultaneously
# simplified complex, recorded before ktd_basis built its chains with one helper
BASIS_SHA256 = {
    "unknot@-3":
        "001faa0ec9b22df9289b970f5fb03ab7f9be3c4621218572370719254d950843",
    "unknot@+0":
        "0345ea1d4a7754076a0e894fddebc29882f2babdc93194abe331a01d147efe28",
    "unknot@+3":
        "7bd16efc358b5316bf573485d03695d7ffdb4ed188d227fc66058ffcac6b59d9",
    "trefoil_right@-3":
        "7dcdade4b7eb1cad1b53fdb9c664bee929c2583181a3c59ccc230a4e8d893953",
    "trefoil_right@+0":
        "22c63a8e89d7e2e4484e6823036f194e349a061381bee3694fe0c6f2152f0d51",
    "trefoil_right@+3":
        "961aee8e3cdd4523140c3b8190757c348a8bab0b6826b1e5acc0131adc2c503b",
    "trefoil_left@-3":
        "0ea4bee08927cde1c98e1ad46226177b3f9aa0a596ceabd5acff94ec3fcab5da",
    "trefoil_left@+0":
        "b98146518daceee9c25acadcb7e8b3badc499e6003acc3d7b6a5b09b84a7850f",
    "trefoil_left@+3":
        "c2c1e8df2a6fa2d85fae423c580f8b65582d6690fda74ac271d816a1c4b6b32b",
    "figure_eight@-3":
        "4922af42888216471c99e2dd3a3b41d494c5babc15b6d2c2900c8025cd6e9d9d",
    "figure_eight@+0":
        "fc54622f8c5a6f35b1b824cae1eafe9b4ca1d0b9026662fb4797bc58f7950294",
    "figure_eight@+3":
        "f199d350267be978583013bee00195a9ab118f69481d442eebbd259d9f12f3ce",
    "five_gen@-3":
        "b46277a312ef1c6fa3d1db3ac4a4162fc02630ff228044bc82ed23bd532c6f5d",
    "five_gen@+0":
        "bb51bff4187b3a7908a6266e8c292bd94217c6dc27ae6a64f116fd258ccb58b1",
    "five_gen@+3":
        "60f3feed6971ba6a090fa7e9d2de0165d6fdd5719e42b5bd0d648995678b8cdd",
    "T(2,3)@-3":
        "fdab0f93e35b843b112050ecefb042505978e98420a191b2b4c11bd043f8e981",
    "T(2,3)@+0":
        "441a9f7e82a58c012edf34a2e12676354fd23d3859d36394e29b9c25bf97f8b2",
    "T(2,3)@+3":
        "00e70efdb29dbbfd8e2079200b1a937b8548c40851327d279d0a170770827825",
    "mirror T(2,3)@-3":
        "439b24d272fcb01d8a688e2f800244df87e1ad502e68c86343d1ea6c34529ed1",
    "mirror T(2,3)@+0":
        "9179c7ae86d764aa0df3bffc15ae7ba0517ceead89373ff7b87479b47178e853",
    "mirror T(2,3)@+3":
        "627ba1ace8aeaf12a7dce51f2d581604c7f0f6426a647efa4df33d163d3227b7",
    "T(3,4)@-3":
        "6245e163a0ce3131765fe6f4b844050b3f949c81fa1fc6f7e9426d51471ad9a3",
    "T(3,4)@+0":
        "5b5dfefe0ab428337ada799d1be121699b1a46d93da5cc7726487f60a0ab16db",
    "T(3,4)@+3":
        "b7ce815e92d78afce608ea9a91a07f3a04fcfd6b8ca184a32d378cadf1c6f3d2",
    "mirror T(3,4)@-3":
        "5682833a4d16fb417656d09093c63cb1347c52144928e7e0fd16a91cc87dabdd",
    "mirror T(3,4)@+0":
        "b949fd840679f627b78b10a77fd1f541c3af97783c7b620787dbf2af576fbd62",
    "mirror T(3,4)@+3":
        "5f43bd5d67ca0f247c85fd42e882155b3adb48ce03a001eea0ac8f104728434d",
    "T(4,5)@-3":
        "ecfd5a86e34328b12abf113a3a40edb5c8f90c9c8a387e988173839bdb495ca1",
    "T(4,5)@+0":
        "33d20eb71ddbc2f97724f562a07addeefe6f58aa23039c3b5783e0b2df06e463",
    "T(4,5)@+3":
        "388be4fd2427803f71b953fd988dcbb67219437ec3b980eda486ca0a97352dfe",
    "mirror T(4,5)@-3":
        "d0b5d0f1a6d42766e446a174d54851c424ac7ad08aef08cb0767ec5c1b895adc",
    "mirror T(4,5)@+0":
        "f9e588422d44881931f875bdc13683c916e77545f72d20465fc78864334f1d54",
    "mirror T(4,5)@+3":
        "42b85b91ae5bd9793b364cbc91611a621ed223ada6dd0e66bfd01910abaee1bd",
    "T(5,6)@-3":
        "f690c3ecd4a4ce96cd155a324f5cb163fa2126aac2303e37e5ab3112a1d36dad",
    "T(5,6)@+0":
        "96d380ea9c8ed65b2622baf07ecd97bdc9b1f1e64bacb59030c44f58f2fd1f52",
    "T(5,6)@+3":
        "0f9af9f82cfbc6a38ec0f45c82c3c53528aae9a2b9b85eb82465aef018a5bb71",
    "mirror T(5,6)@-3":
        "3cee1d4065009060791ff06dffdc657ea7530b20266189d4502b662ce9720778",
    "mirror T(5,6)@+0":
        "9fd21e42b25c30c017099a1678db0673bd977379e44c208f79f5bae5564d92d5",
    "mirror T(5,6)@+3":
        "527c4768b704069eb783ff36eddeaa0ed99c348f6426ec509cc4057ad3a0bbec",
    "T(6,7)@-3":
        "71cfbd4eef2661d7c3b0420ee41dc5d3402b434c36fb962e571ef16b391f726f",
    "T(6,7)@+0":
        "34ae33ddbf202cf91986dc96e060725da1779d08d080c6fd00d3e8198af3e872",
    "T(6,7)@+3":
        "c25a1ef196b56a3bca647a39d85d35b22e905ec702a18f61798562b01f02bd8f",
    "mirror T(6,7)@-3":
        "2a9c8f1d503aa753fcc6f9c2d311f47091803f3892fc0e8a60c96187aafd9b4e",
    "mirror T(6,7)@+0":
        "5213e795dadfed5f449e6034626d1d2ff11eeb5eb0183f66f8a40cfdc0897a89",
    "mirror T(6,7)@+3":
        "b0d4abaf19cacf2b85610b111b9e83c65508868f2a406bbf969613c121aac0e1",
    "T(7,8)@-3":
        "24f0ba99e2360bd73fd24aca8625011a3f15665c7f5f1c627bf1efb87c52fd43",
    "T(7,8)@+0":
        "535440df5cab06f2c5a8d9b4f74ac6a6ef95b7dfabea451a78057f136cb6b97a",
    "T(7,8)@+3":
        "b49a09b0d9c7885fa331f9853a438cd8ddb88c58700dd959571a7143a7ddfd47",
    "mirror T(7,8)@-3":
        "ebdb20c070357acf045b061a08a587b4c0d301bfe911e854b0beed9a90334291",
    "mirror T(7,8)@+0":
        "7e64d229e196d96dec3f3cc3acb6c6ab91ad63beeae1150a3d4c6a8a7a60b6c2",
    "mirror T(7,8)@+3":
        "2dd4c7bca72ac1bcea5b2487eac62bf8635811c77f7e8abed4a4270c3a388f66",
    "T(8,9)@-3":
        "8b279d6fd4860e86714c6d4c03df2cec0e81787eb940ff8571789823d3ddbf5f",
    "T(8,9)@+0":
        "9e154c74dc64641adec0149fc396d0d4ec0c340faabaedfb3e3fc9ebe6bbadb1",
    "T(8,9)@+3":
        "74655ae06e591d2c5368863038e185a9f1b74180c41c49aa17e3a17891079096",
    "mirror T(8,9)@-3":
        "0ccefbd5a69688ac7777db67fbe284339aa80444485e32c322d18ea6ef9b0655",
    "mirror T(8,9)@+0":
        "79472cb1566fe3539ab54eca1b00f686ec5fa8a42ef96ab730d2e04a974a8439",
    "mirror T(8,9)@+3":
        "9f336c43c25281a7daece45fe4fdd6e415243cc5373f36d8285de72cee8d2edf",
}


@pytest.mark.parametrize("key", sorted(BASIS_SHA256))
def test_basis_output_is_pinned(key):
    name, offset = key.split("@")
    S = cfk.simultaneous_simplify(cfk.reduce(_knot(name)))
    D = ktd.ktd_basis(S, 2 * cfk.tau(S) + int(offset))
    digest = hashlib.sha256(io_formats.write_typed(D).encode()).hexdigest()
    assert digest == BASIS_SHA256[key]


# the public builder of each algorithm, and what ktd_basis raises when it
# finds no simplified basis of a knot complex: verify's one inconclusive build
BUILDERS = {"basefree": ktd.ktd_basefree, "basis": ktd.ktd_basis}
UNCONVERGED = "simultaneous simplification did not converge"


def _old_verdict(CL, CR, algo, framing):
    """Verdict and matched-generator count of _compare_d with the left side
    verify_elliptic_invariance used to build: H boxed with the unreduced
    module of CL.  CR is flip(CL) unless a control pairs other knots."""
    try:
        DL, DR = BUILDERS[algo](CL, framing), BUILDERS[algo](CR, framing)
    except ValueError as e:
        if str(e) != UNCONVERGED:
            raise
        return "inconclusive", 0
    left = type_d.reduce_d(type_da.box_da_d(type_da.builtin_H(), DL))[0]
    res = ktd._compare_d(reduced(left), reduced(DR))
    return res.verdict, len(res.witness or ())


def _framing(C, algo, offset):
    """The default framing of verify on C moved by offset; None for 0."""
    if not offset:
        return None
    if algo == "basefree":
        return 4 * ktd._width(C) + 3 + offset
    return BUILDERS[algo](C, None).tags[ktd.META]["framing"] + offset


VERIFY_CASES = ([(name, algo, offset) for name in FIXTURE_NAMES
                 for algo in ("basefree", "basis") for offset in (0, 1, 3)]
                + [(f"{side}T({p},{p + 1})", algo, 0) for p in range(2, 6)
                   for side in ("", "mirror ") for algo in ("basefree", "basis")])


@pytest.mark.parametrize("name, algo, offset", VERIFY_CASES)
def test_verify_agrees_with_boxing_the_unreduced_module(name, algo, offset):
    C = cfk.reduce(_knot(name))
    framing = _framing(C, algo, offset)
    res = ktd.verify_elliptic_invariance(C, algo, framing)
    assert (res.verdict, len(res.witness or ())) == \
        _old_verdict(C, cfk.flip(C), algo, framing)


def test_boxing_the_reduced_module_keeps_the_negative_control():
    # H box CFD(trefoil_right) against CFD(trefoil_left) fails both ways
    R, L = load_cfk("trefoil_right"), load_cfk("trefoil_left")
    left = type_d.reduce_d(type_da.box_da_d(
        type_da.builtin_H(), type_d.reduce_d(ktd.ktd_basefree(R))[0]))[0]
    res = ktd._compare_d(reduced(left), reduced(ktd.ktd_basefree(L)))
    assert res.verdict == "failed"
    assert _old_verdict(R, L, "basefree", None) == ("failed", 0)


def _staged(C, algo, framing):
    """verify_elliptic_invariance as the composition of the public functions,
    each stage frozen into a module, or the ValueError it raises."""
    try:
        bad = cfk.validate(C)
        if bad:
            raise ValueError("invalid complex: " + bad[0])
        C = cfk.reduce(C)
        DL, DR = BUILDERS[algo](C, framing), BUILDERS[algo](cfk.flip(C), framing)
    except ValueError as e:
        if str(e) != UNCONVERGED:
            return str(e)
        return ktd.VerifyResult("inconclusive", None,
                                f"{UNCONVERGED} in {cfk.SIMPLIFY_ROUNDS} rounds")
    H = type_da.builtin_H()
    left = type_d.reduce_d(type_da.box_da_d(H, type_d.reduce_d(DL)[0]))[0]
    return ktd._compare_d(type_d.minimize_d(left), type_d.minimize_d(type_d.reduce_d(DR)[0]))


def _graphed(C, algo, framing):
    try:
        return ktd.verify_elliptic_invariance(C, algo, framing)
    except ValueError as e:
        return str(e)


def _framings(C, algo):
    """The default framing of verify on C, then it moved by 1, 2 and 3;
    [None] when C has none: its construction raises, also when ``basis``
    finds no simplified basis."""
    try:
        D = BUILDERS[algo](C, None)
    except ValueError:
        return [None]
    return [D.tags[ktd.META]["framing"] + k for k in (0, 1, 2, 3)]


def _check_staged(C, algo):
    """Assert that verify gives the staged reference's verdict, detail and
    witness, or its error, at each of _framings; return the outcomes."""
    out = []
    for framing in _framings(C, algo):
        out.append(_graphed(C, algo, framing))
        assert out[-1] == _staged(C, algo, framing), framing
    return out


STAGED_KNOTS = FIXTURE_NAMES + [f"{m}T({p},{p + 1})" for p in range(2, 9) for m in ("", "mirror ")]


@pytest.mark.parametrize("algo", ["basefree", "basis"])
@pytest.mark.parametrize("name", STAGED_KNOTS)
def test_verify_equals_the_staged_reference(name, algo):
    assert {res.verdict for res in _check_staged(_knot(name), algo)} == {"verified"}


@pytest.mark.parametrize("algo", ["basefree", "basis"])
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_verify_equals_the_staged_reference_on_random_complexes(name, algo):
    for seed in range(40):
        _check_staged(random_complex(name, seed), algo)


# the boxed draws, seeds 0-299 of each fixture, that verify leaves
# inconclusive under either algorithm
BOXED_INCONCLUSIVE = {
    "unknot": [130, 280],
    "trefoil_right": [24, 27, 41, 50, 109, 148, 156, 173, 211, 246, 262, 269, 271, 280, 284, 295],
    "trefoil_left": [23, 84, 89, 109, 128, 137, 163, 173, 181, 198, 211, 236, 262, 271, 275, 280],
    "figure_eight": [39, 45, 82, 88, 109, 138, 211, 280],
    "five_gen": [13, 76, 99, 109, 124, 197, 227, 246, 262, 272, 277],
}
# the budgets of the match and of the simplification: the only ways verify
# may end without a verdict on a valid complex
BUDGETS = ("no permutation-level isomorphism within 2 base changes",
           "simultaneous simplification did not converge")


@pytest.mark.parametrize("algo", ["basefree", "basis"])
def test_verify_never_fails_on_boxed_complexes(algo):
    # a box adds nothing to the knot, so no draw may give failed; the whole
    # corpus of 1,500 draws runs in CI
    for name in FIXTURE_NAMES:
        for seed in sorted(set(range(20)) | set(BOXED_INCONCLUSIVE[name])):
            res = ktd.verify_elliptic_invariance(boxed_complex(name, seed), algo)
            assert res.verdict != "failed", (name, seed, res.detail)
            if res.verdict == "inconclusive":
                assert res.detail.startswith(BUDGETS), (name, seed, res.detail)


def test_verify_equals_the_staged_reference_where_it_cannot_verify():
    # a knot complex whose simplification cycles is inconclusive under basis;
    # a draw that is no knot complex is refused alike under both algorithms
    C = io_formats.parse_cfk(UNSIMPLIFIABLE)
    assert cfk.simultaneous_simplify(cfk.reduce(C)) is None
    assert _check_staged(C, "basis")[0].verdict == "inconclusive"
    for (name, seed), says in CYCLING_DRAWS.items():
        C = random_complex(name, seed)
        assert cfk.simultaneous_simplify(cfk.reduce(C)) is None, (name, seed)
        for algo in ("basefree", "basis"):
            assert _check_staged(C, algo) == [says], (name, seed, algo)
    for name, algo in (("a|8", "basefree"), ("u.1", "basis")):
        assert _check_staged(trefoil_with(name), algo) == [
            f"construction makes two generators named {name!r}"]


@pytest.mark.parametrize("name", ["trefoil_right", "figure_eight", "five_gen", "T(3,4)",
                                  "mirror T(3,4)"])
def test_adjust_framing_equals_boxing_and_reducing_each_twist(name):
    C = cfk.reduce(_knot(name))
    tau_mu = type_da.builtin_tau_mu()
    for D in (ktd.ktd_basis(cfk.simultaneous_simplify(C)), ktd.ktd_basefree(C)):
        staged = D
        for k in range(1, 4):
            staged = type_d.reduce_d(type_da.box_da_d(tau_mu, staged))[0]
            assert (io_formats.write_typed(ktd.adjust_framing(D, k))
                    == io_formats.write_typed(staged))
