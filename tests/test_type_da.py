import hashlib
import random

import pytest

from bhf import io_formats, ktd, type_d, type_da
from bhf.algebra import (CHORDS, NONZERO, AlgebraElement as A, Idempotent as I,
                         left_idem, multiply, right_idem)
from conftest import FIXTURES, load_cfk

BUILTINS = (type_da.builtin_tau_mu, type_da.builtin_tau_lambda,
            type_da.builtin_identity, type_da.builtin_H)


def twist_product(k: int) -> type_da.TypeDAModule:
    """The product of k alternating twists tau_mu, tau_lambda, tau_mu, ..."""
    B, L = type_da.builtin_tau_mu(), type_da.builtin_tau_lambda()
    prod = type_da.box_da_da(B, L)
    for factor in (B, L, B, L)[:k - 2]:
        prod = type_da.box_da_da(prod, factor)
    return prod


def _relation_failures_by_sequences(B):
    """Brute-force A-infinity check of a well-formed bimodule: every
    composable chord sequence of length up to twice the maximal arity plus
    one, in order of length and then of chords, each split into the inputs
    of two actions and each pair of neighbouring inputs multiplied.
    Chords are numbered by their place in CHORDS, which makes hashing the
    sequences cheap."""
    out = []
    number = {c: i for i, c in enumerate(CHORDS)}
    lookup = {}
    for act in B.actions:
        key = (act.source, tuple(number[a] for a in act.args))
        lookup.setdefault(key, []).append(act)
    product = {(number[a], number[b]): number.get(multiply(a, b))
               for a in CHORDS for b in CHORDS}
    leaving = {i: [(k, right_idem(c)) for k, c in enumerate(CHORDS)
                   if left_idem(c) is i] for i in I}
    idems = B.idems()
    for x in B.names():
        level = [((), idems[x][1])]
        for n in range(2 * B.max_arity() + 2):
            for seq, _end in level:
                counts = {}
                for i in range(n + 1):
                    for act1 in lookup.get((x, seq[:i]), ()):
                        for act2 in lookup.get((act1.target, seq[i:]), ()):
                            c = multiply(act1.coeff, act2.coeff)
                            if c is not A.ZERO:
                                key = (act2.target, c)
                                counts[key] = counts.get(key, 0) ^ 1
                for i in range(n - 1):
                    c = product[seq[i], seq[i + 1]]
                    if c is None:
                        continue
                    for act in lookup.get((x, seq[:i] + (c,) + seq[i + 2:]), ()):
                        key = (act.target, act.coeff)
                        counts[key] = counts.get(key, 0) ^ 1
                for (tgt, c), parity in sorted(counts.items(), key=str):
                    if parity:
                        out.append(f"A-infinity relation fails at ({x}, "
                                   f"{[CHORDS[i].value for i in seq]}): odd "
                                   f"term {c.value} {tgt}")
            level = [(seq + (k,), nxt) for seq, end in level
                     for k, nxt in leaving[end]]
    return out


def _random_chain(start, n, rng):
    seq, cur = [], start
    for _ in range(n):
        c = rng.choice([c for c in CHORDS if left_idem(c) is cur])
        seq.append(c)
        cur = right_idem(c)
    return tuple(seq), cur


def _corrupt(B, rng):
    """B with 1-3 random edits: drop an action, add a well-formed action of
    arity at most 3, retarget an action to any generator (which may break
    well-formedness), or swap a coefficient for another with the same
    idempotents."""
    acts = list(B.actions)
    idems = B.idems()
    names = B.names()

    def coeffs(src, tgt):
        return [c for c in NONZERO if left_idem(c) is idems[src][0]
                and right_idem(c) is idems[tgt][0]]

    for _ in range(rng.randint(1, 3)):
        edit = rng.choice(("drop", "add", "retarget", "coeff"))
        if edit == "add":
            x = rng.choice(names)
            args, end = _random_chain(idems[x][1], rng.randint(0, 3), rng)
            tgts = [t for t in names if idems[t][1] is end and coeffs(x, t)]
            if tgts:
                t = rng.choice(tgts)
                acts.append(type_da.DAAction(x, args, rng.choice(coeffs(x, t)), t))
            continue
        if not acts:
            continue
        act = acts.pop(rng.randrange(len(acts)))
        if edit == "retarget":
            acts.append(type_da.DAAction(act.source, act.args, act.coeff,
                                         rng.choice(names)))
        elif edit == "coeff":
            other = [c for c in coeffs(act.source, act.target) if c is not act.coeff]
            acts.append(type_da.DAAction(act.source, act.args,
                                         rng.choice(other or [act.coeff]), act.target))
    return type_da.make_da(B.generators, acts)


def _oracle_corpus():
    bases = [build() for build in BUILTINS] + [twist_product(2)]
    corpus = list(bases)
    for seed in range(120):
        corpus.append(_corrupt(bases[seed % len(bases)], random.Random(seed)))
    return corpus


def test_builtins_are_valid():
    for build in BUILTINS:
        assert type_da.validate_da(build()) == []


# sha256 over repr(validate_da(B)) for B in _oracle_corpus(), recorded from
# the implementation that enumerated every chord sequence
ORACLE_DIGEST = "9227cdeaf7887342bcdb857d4e5a77f8a2461182e7b4223de84eb2708743df80"


def test_validate_da_matches_sequence_oracle():
    corpus = _oracle_corpus()
    digest = hashlib.sha256()
    invalid = well_formed = 0
    for B in corpus:
        got = type_da.validate_da(B)
        digest.update(repr(got).encode())
        invalid += bool(got)
        if all(m.startswith("A-infinity relation fails") for m in got):
            well_formed += 1
            assert got == _relation_failures_by_sequences(B)
    assert (len(corpus), invalid, well_formed) == (125, 113, 86)
    assert digest.hexdigest() == ORACLE_DIGEST


def test_larger_twist_products_are_valid():
    for k in (4, 5, 6):
        assert type_da.validate_da(twist_product(k)) == []
    prod = twist_product(6)
    act = next(a for a in prod.actions for d in prod.actions
               if not d.args and d.source == a.target
               and multiply(a.coeff, d.coeff) is not A.ZERO)
    broken = type_da.make_da(prod.generators,
                             [b for b in prod.actions if b != act])
    assert any(m.startswith("A-infinity relation fails")
               for m in type_da.validate_da(broken))


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
    red, trace = type_da.reduce_da(twist_product(6), script)
    assert len(trace.pairs) == 13
    assert type_da.isomorphic_da(red, type_da.builtin_H()) is not None


def test_sixfold_twist_reduces_to_H_unscripted():
    red, _ = type_da.reduce_da(twist_product(6))
    assert type_da.isomorphic_da(red, type_da.builtin_H()) is not None


def test_reduce_da_random_orders_agree():
    prod = twist_product(6)
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
        assert ktd._match_up_to_base_change(one, two)[0] is not None


def test_involution_commutes_with_twist():
    H = type_da.builtin_H()
    tau = type_da.builtin_tau_mu()
    D = ktd.ktd_basefree(load_cfk("trefoil_right"))
    lhs, _ = type_d.reduce_d(type_da.box_da_d(H, type_da.box_da_d(tau, D)))
    rhs, _ = type_d.reduce_d(type_da.box_da_d(tau, type_da.box_da_d(H, D)))
    assert ktd._match_up_to_base_change(
        ktd.minimize_d(lhs), ktd.minimize_d(rhs))[0] is not None


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
    prod = twist_product(6)
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
