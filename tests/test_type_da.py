import pytest

from bhf import io_formats, ktd, type_d, type_da
from bhf.algebra import AlgebraElement as A, Idempotent as I
from conftest import FIXTURES, load_cfk


def sixfold_twist():
    B, L = type_da.builtin_tau_mu(), type_da.builtin_tau_lambda()
    prod = type_da.box_da_da(B, L)
    for factor in (B, L, B, L):
        prod = type_da.box_da_da(prod, factor)
    return prod


def test_builtins_are_valid():
    for build in (type_da.builtin_tau_mu, type_da.builtin_tau_lambda,
                  type_da.builtin_identity, type_da.builtin_H):
        assert type_da.validate_da(build()) == []


def test_builtin_sizes():
    assert len(type_da.builtin_tau_mu().actions) == 9
    assert len(type_da.builtin_tau_lambda().actions) == 10
    assert len(type_da.builtin_identity().actions) == 6
    H = type_da.builtin_H()
    assert len(H.generators) == 8
    assert len(H.actions) == 16


def test_H_idempotents():
    H = type_da.builtin_H()
    right = {n: r.value for n, _, r in H.generators}
    assert {n for n, v in right.items() if v == "iota0"} == {"x1", "x2", "x3"}
    assert {n for n, v in right.items() if v == "iota1"} == \
        {"u", "v", "y1", "y2", "y3"}


def test_validate_catches_broken_structure():
    H = type_da.builtin_H()
    broken = type_da.make_da(H.generators, H.actions[:-1])
    assert type_da.validate_da(broken)


def test_box_da_da_two_twists():
    prod = type_da.box_da_da(type_da.builtin_tau_mu(),
                             type_da.builtin_tau_lambda())
    assert len(prod.generators) == 5
    assert type_da.validate_da(prod) == []


def test_sixfold_twist_reduces_to_H_scripted():
    script = io_formats.parse_script(
        (FIXTURES / "h_cancellations.script").read_text(encoding="utf-8"))
    red, trace = type_da.reduce_da(sixfold_twist(), script)
    assert len(trace.pairs) == 13
    assert type_da.isomorphic_da(red, type_da.builtin_H()) is not None


def test_sixfold_twist_reduces_to_H_unscripted():
    red, _ = type_da.reduce_da(sixfold_twist())
    assert type_da.isomorphic_da(red, type_da.builtin_H()) is not None


def test_reduce_da_random_orders_agree():
    prod = sixfold_twist()
    H = type_da.builtin_H()
    for seed in range(5):
        red, _ = type_da.reduce_da(prod, seed)
        assert type_da.isomorphic_da(red, H) is not None


def test_box_da_d_validates(any_complex):
    D = ktd.ktd_basefree(any_complex)
    box = type_da.box_da_d(type_da.builtin_H(), D)
    assert type_d.validate_d(box) == []


def test_identity_unit_law(any_complex):
    D = ktd.ktd_basefree(any_complex)
    E = type_da.box_da_d(type_da.builtin_identity(), D, sep="")
    # identity generators are named i0/i1; strip them for comparison
    renamed = type_d.make_module(
        [(n[2:], i) for n, i in E.generators],
        [type_d.DArrow(a.source[2:], a.target[2:], a.label) for a in E.arrows])
    assert renamed == type_d.make_module(D.generators, D.arrows)


def test_box_associativity_with_modules():
    H = type_da.builtin_H()
    tau = type_da.builtin_tau_mu()
    for name in ("unknot", "trefoil_right"):
        D = ktd.ktd_basefree(load_cfk(name))
        one, _ = type_d.reduce_d(type_da.box_da_d(H, type_da.box_da_d(tau, D)))
        HT, _ = type_da.reduce_da(type_da.box_da_da(H, tau))
        two, _ = type_d.reduce_d(type_da.box_da_d(HT, D))
        one = ktd.minimize_d(one)
        two = ktd.minimize_d(two)
        assert ktd._match_up_to_base_change(one, two) is not None


def test_involution_commutes_with_twist():
    H = type_da.builtin_H()
    tau = type_da.builtin_tau_mu()
    D = ktd.ktd_basefree(load_cfk("trefoil_right"))
    lhs, _ = type_d.reduce_d(type_da.box_da_d(H, type_da.box_da_d(tau, D)))
    rhs, _ = type_d.reduce_d(type_da.box_da_d(tau, type_da.box_da_d(H, D)))
    assert ktd._match_up_to_base_change(
        ktd.minimize_d(lhs), ktd.minimize_d(rhs)) is not None


def test_string_reversal_loops():
    H = type_da.builtin_H()
    for k in range(1, 7):
        gens = [(f"s{i}", I.I1) for i in range(k)]
        fwd = type_d.make_module(
            gens, [type_d.DArrow(f"s{i}", f"s{(i+1)%k}", A.R23)
                   for i in range(k)])
        rev = type_d.make_module(
            gens, [type_d.DArrow(f"s{(i+1)%k}", f"s{i}", A.R23)
                   for i in range(k)])
        L, _ = type_d.reduce_d(type_da.box_da_d(H, fwd))
        assert type_d.isomorphic_d(L, rev) is not None


def test_cancel_da_arity_cap():
    prod = sixfold_twist()
    with pytest.raises(ValueError):
        type_da.reduce_da(prod, arity_cap=0)


def test_cancel_da_arity_cap_on_pass_through():
    # x -[rho1]-> t <- s -> y exits within a cap of one input; passing
    # through the second action s -[rho23]-> t first needs two
    B = type_da.make_da(
        [("x", I.I0, I.I0), ("s", I.I0, I.I1), ("t", I.I0, I.I1),
         ("y", I.I1, I.I1)],
        [type_da.DAAction("s", (), A.I0, "t"),
         type_da.DAAction("x", (A.R1,), A.I0, "t"),
         type_da.DAAction("s", (A.R23,), A.R12, "t"),
         type_da.DAAction("s", (), A.R3, "y")])
    with pytest.raises(ValueError, match="arity cap 1"):
        type_da.cancel_da(B, "s", "t", arity_cap=1)
    R = type_da.cancel_da(B, "s", "t", arity_cap=2)
    assert R.actions == (type_da.DAAction("x", (A.R1,), A.R3, "y"),
                         type_da.DAAction("x", (A.R1, A.R23), A.R123, "y"))


def test_isomorphic_da_detects_difference():
    assert type_da.isomorphic_da(type_da.builtin_tau_mu(),
                                 type_da.builtin_tau_lambda()) is None
