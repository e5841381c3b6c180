import collections
import hashlib

import pytest

from bhf import cfk, io_formats, ktd, type_d, type_da
from bhf.algebra import AlgebraElement as A, Idempotent as I
from conftest import FIXTURE_NAMES, base_change, every_change, load_cfk
from staircase import mirror, staircase, torus_knot

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


def test_basefree_validates(any_complex):
    D = ktd.ktd_basefree(any_complex)
    assert type_d.validate_d(D) == []


def test_basefree_never_uses_rho12(any_complex):
    for n_extra in (0, 1, 2):
        t = max((abs(g.alexander) for g in any_complex.generators), default=0)
        D = ktd.ktd_basefree(any_complex, 4 * t + 3 + n_extra)
        assert all(a.label is not A.R12 for a in D.arrows)


def test_basefree_iota0_count_matches_complex(any_complex):
    D = ktd.ktd_basefree(any_complex)
    v0 = [n for n, i in D.generators if D.tags[n]["part"] == "V0"]
    assert len(v0) == len(any_complex.generators)
    assert all(D.idems()[n] is I.I0 for n in v0)


def test_basefree_rejects_small_parameter(five_gen):
    with pytest.raises(ValueError):
        ktd.ktd_basefree(five_gen, 6)


def test_basis_validates(any_complex):
    S = cfk.simultaneous_simplify(any_complex)
    D = ktd.ktd_basis(S)
    assert type_d.validate_d(D) == []


def test_basis_requires_simplified(five_gen):
    with pytest.raises(ValueError):
        ktd.ktd_basis(five_gen)


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


def test_flip_direct_matches_flip(any_complex):
    C = any_complex
    D = ktd.ktd_basefree(C)
    F = ktd.flip_ktd_direct(D, C)
    assert type_d.validate_d(F) == []
    E = ktd.ktd_basefree(cfk.flip(C))
    assert type_d.isomorphic_d(F, E) is not None


def test_flip_direct_requires_basefree(five_gen):
    S = cfk.simultaneous_simplify(five_gen)
    D = ktd.ktd_basis(S)
    with pytest.raises(ValueError):
        ktd.flip_ktd_direct(D, S)


def test_adjust_framing_zero_is_identity(trefoil):
    S = cfk.simultaneous_simplify(trefoil)
    D = ktd.ktd_basis(S)
    assert ktd.adjust_framing(D, 0) == D


def test_adjust_framing_matches_direct_construction(any_complex):
    S = cfk.simultaneous_simplify(any_complex)
    D = ktd.ktd_basis(S)
    base = D.tags[ktd.META]["framing"]
    for k in (3, 5):
        adj = ktd.minimize_d(ktd.adjust_framing(D, k))
        direct, _ = type_d.reduce_d(ktd.ktd_basis(S, base + k))
        direct = ktd.minimize_d(direct)
        assert ktd._match_up_to_base_change(adj, direct)[0] is not None


def test_algorithms_agree(any_complex):
    C = any_complex
    S = cfk.simultaneous_simplify(C)
    t = max((abs(g.alexander) for g in C.generators), default=0)
    n = 4 * t + 3
    bf = ktd.minimize_d(type_d.reduce_d(ktd.ktd_basefree(C, n))[0])
    bs = ktd.minimize_d(type_d.reduce_d(ktd.ktd_basis(S, -n))[0])
    assert ktd._match_up_to_base_change(bf, bs)[0] is not None


def test_verify_basefree(any_complex):
    res = ktd.verify_elliptic_invariance(any_complex, "basefree")
    assert res.verdict == "verified"
    assert res.witness


def test_verify_basis(any_complex):
    res = ktd.verify_elliptic_invariance(any_complex, "basis")
    assert res.verdict == "verified"


# exponents of the Alexander polynomial of T(5,6), highest first
T56 = [10, 9, 5, 3, 0, -3, -5, -9, -10]


def reduced(D):
    return ktd.minimize_d(type_d.reduce_d(D)[0])


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


def test_match_reports_the_cap_only_when_a_candidate_is_dropped():
    R, _, T = five_gen_modules()
    candidates = {base_change(R, *t).arrows for t in every_change(R.idems())}
    n = len({c for c in candidates if len(c) <= len(R.arrows)} - {R.arrows})
    assert n == 2
    assert ktd._match_up_to_base_change(R, T, depth=1, cap=n) == (None, False)
    assert ktd._match_up_to_base_change(R, T, depth=1, cap=n - 1) == (None, True)
    # the last level's base changes are never tried, so never dropped
    assert ktd._match_up_to_base_change(R, T, depth=0, cap=0) == (None, False)


def test_carries_rejects_a_wrong_mapping():
    M = type_d.make_module([("x", I.I0), ("y", I.I1), ("z", I.I1)],
                           [type_d.DArrow("x", "y", A.R1),
                            type_d.DArrow("y", "z", A.R23)])
    ident = {"x": "x", "y": "y", "z": "z"}
    assert ktd._carries(ident, M, M)
    assert not ktd._carries({"x": "x", "y": "z", "z": "y"}, M, M)
    assert not ktd._carries({"x": "y", "y": "x", "z": "z"}, M, M)
    assert not ktd._carries({"x": "x", "y": "y", "z": "y"}, M, M)
    assert not ktd._carries({"x": "x", "y": "y"}, M, M)


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
# recorded before ktd_basefree computed each column once
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


def _old_verdict(CL, CR, algo, framing):
    """Verdict and matched-generator count of _compare_d with the left side
    verify_elliptic_invariance used to build: H boxed with the unreduced
    module of CL.  CR is flip(CL) unless a control pairs other knots."""
    DL, DR = ktd._ktd(CL, algo, framing), ktd._ktd(CR, algo, framing)
    if DL is None or DR is None:
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
    return ktd._ktd(C, algo, None).tags[ktd.META]["framing"] + offset


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
