import hashlib
import random

import pytest

from bhf import cfk, io_formats, ktd, type_d, type_da
from bhf.algebra import (CHORDS, NONZERO, AlgebraElement, AlgebraElement as A,
                         is_idempotent, left_idem, multiply, right_idem)
from bhf.type_d import DArrow, TypeDModule, make_module
from bhf.type_da import DAAction, TypeDAModule, _act, make_da
from conftest import FIXTURE_NAMES, FIXTURES, SIXFOLD, box_word, load_cfk
from staircase import mirror, torus_knot

BUILTINS = (type_da.builtin_tau_mu, type_da.builtin_tau_lambda,
            type_da.builtin_identity, type_da.builtin_H)


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
                   if left_idem(c) is i] for i in (A.I0, A.I1)}
    idems = B.idems()
    for x in B.names():
        level = [((), idems[x][1])]
        max_arity = max((len(a.args) for a in B.actions), default=0)
        for n in range(2 * max_arity + 2):
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
    bases = [build() for build in BUILTINS] + [box_word("mu lambda")]
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
    for word in ("mu lambda mu lambda", "mu lambda mu lambda mu", SIXFOLD):
        assert type_da.validate_da(box_word(word)) == []
    prod = box_word(SIXFOLD)
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


def test_validate_reports_a_zero_coefficient():
    H = type_da.builtin_H()
    zero = type_da.DAAction("x2", (), A.ZERO, "x1")
    assert type_da.validate_da(type_da.make_da(H.generators, H.actions + (zero,))) == [
        "action x2->x1: zero coefficient"]


def test_validate_reports_a_generator_without_an_idempotent():
    # a chord or zero is an algebra element but no idempotent
    B = make_da([("x", A.I0, A.R12), ("y", A.ZERO, A.I1)], [_act("x", [A.R1], A.R1, "y")])
    assert type_da.validate_da(B) == [
        "generator x: right idempotent rho12 is not iota0 or iota1",
        "generator y: left idempotent 0 is not iota0 or iota1",
        "action x('rho1',): inputs do not chain from the right idempotent",
    ]


def test_box_da_da_two_twists():
    prod = type_da.box_da_da(type_da.builtin_tau_mu(),
                             type_da.builtin_tau_lambda())
    assert len(prod.generators) == 5
    assert type_da.validate_da(prod) == []


def test_sixfold_twist_reduces_to_H_scripted():
    script = io_formats.parse_script(
        (FIXTURES / "h_cancellations.script").read_text(encoding="utf-8"))
    red, trace = type_da.reduce_da(box_word(SIXFOLD), script)
    assert len(trace.pairs) == 13
    assert type_da.isomorphic_da(red, type_da.builtin_H()) is not None


def test_sixfold_twist_reduces_to_H_unscripted():
    red, _ = type_da.reduce_da(box_word(SIXFOLD))
    assert type_da.isomorphic_da(red, type_da.builtin_H()) is not None


def test_reduce_da_random_orders_agree():
    prod = box_word(SIXFOLD)
    H = type_da.builtin_H()
    for seed in range(5):
        red, _ = type_da.reduce_da(prod, seed)
        assert type_da.isomorphic_da(red, H) is not None


# mapping-class relations: the braid relation of the two Dehn twists, the
# involution commuting with each twist, and (tau_lambda tau_mu)^3 and
# (tau_mu tau_lambda)^3 both the involution; sizes after reduce_da
RELATIONS = [
    ("mu lambda mu", "lambda mu lambda", (4, 11)),
    ("H mu", "mu H", (9, 20)),
    ("H lambda", "lambda H", (9, 22)),
    ("lambda mu lambda mu lambda mu", "H", (8, 16)),
    ("mu lambda mu lambda mu lambda", "H", (8, 16)),
]


def _reduced_word(word):
    return type_da.reduce_da(box_word(word))[0]


@pytest.mark.parametrize("left, right, size", RELATIONS,
                         ids=[f"{l} = {r}" for l, r, _ in RELATIONS])
def test_mapping_class_relations_hold(left, right, size):
    L, R = _reduced_word(left), _reduced_word(right)
    assert (len(L.generators), len(L.actions)) == size
    assert (len(R.generators), len(R.actions)) == size
    assert type_da.isomorphic_da(L, R) is not None


def _generators_per_idempotent_pair(B):
    """(generators, actions, counts at iota0 iota0, iota0 iota1, iota1 iota0,
    iota1 iota1) of reduce_da(B), which must leave no idempotent differential."""
    R = type_da.reduce_da(B)[0]
    assert not any(not a.args and is_idempotent(a.coeff) for a in R.actions)
    pairs = [(l, r) for _, l, r in R.generators]
    return len(R.generators), len(R.actions), tuple(
        pairs.count((l, r)) for l in (A.I0, A.I1) for r in (A.I0, A.I1))


def test_the_boundary_dehn_twist_is_not_the_identity_bimodule():
    """H ⊠ H, (tau_mu tau_lambda)^6 and (tau_lambda tau_mu)^6, the boundary
    Dehn twist, are not homotopic to the identity bimodule.

    The input-free actions with an idempotent output form a differential
    on each (left, right) idempotent pair: no product of two chords is an
    idempotent, so the idempotent part of the structure equation without
    inputs is the square of that part.  For the same reason the input-free
    idempotent parts of morphisms and homotopies are chain maps and chain
    homotopies, which keep the idempotent pairs.  A homotopy equivalence of
    DA bimodules thus restricts to a chain homotopy equivalence of these
    complexes, and on a reduced bimodule their differential is zero: its
    number of generators per idempotent pair is a homotopy invariant, the
    DA analogue of the count ktd._compare_d reads.  The three products
    count 3/4/4/5 against the identity's 1/0/0/1 (and H's 1/2/2/3), although
    H ⊠ H ⊠ D ≅ D on every type D module tested.
    """
    products = ["H H", "mu lambda " * 6, "lambda mu " * 6]
    assert {_generators_per_idempotent_pair(box_word(w)) for w in products} == {
        (16, 55, (3, 4, 4, 5))}
    assert _generators_per_idempotent_pair(box_word(SIXFOLD)) == (8, 16, (1, 2, 2, 3))
    assert _generators_per_idempotent_pair(type_da.builtin_identity()) == (2, 6, (1, 0, 0, 1))


def test_box_da_d_validates(any_complex):
    D = ktd.ktd_basefree(any_complex)
    box = type_da.box_da_d(type_da.builtin_H(), D)
    assert type_d.validate_d(box) == []


def test_identity_unit_law(any_complex):
    D = ktd.ktd_basefree(any_complex)
    E = type_da.box_da_d(type_da.builtin_identity(), D)
    # identity generators are named i0/i1; strip the i0⊗/i1⊗ prefix
    renamed = type_d.make_module(
        [(n[3:], i) for n, i in E.generators],
        [type_d.DArrow(a.source[3:], a.target[3:], a.label) for a in E.arrows])
    assert renamed == type_d.make_module(D.generators, D.arrows)


def test_box_associativity_with_modules():
    H = type_da.builtin_H()
    tau = type_da.builtin_tau_mu()
    for name in ("unknot", "trefoil_right"):
        D = ktd.ktd_basefree(load_cfk(name))
        one, _ = type_d.reduce_d(type_da.box_da_d(H, type_da.box_da_d(tau, D)))
        HT, _ = type_da.reduce_da(type_da.box_da_da(H, tau))
        two, _ = type_d.reduce_d(type_da.box_da_d(HT, D))
        one = type_d.minimize_d(one)
        two = type_d.minimize_d(two)
        assert type_d._match_up_to_base_change(one, two)[0] is not None


def test_involution_commutes_with_twist():
    H = type_da.builtin_H()
    tau = type_da.builtin_tau_mu()
    D = ktd.ktd_basefree(load_cfk("trefoil_right"))
    lhs, _ = type_d.reduce_d(type_da.box_da_d(H, type_da.box_da_d(tau, D)))
    rhs, _ = type_d.reduce_d(type_da.box_da_d(tau, type_da.box_da_d(H, D)))
    assert type_d._match_up_to_base_change(
        type_d.minimize_d(lhs), type_d.minimize_d(rhs))[0] is not None


def test_string_reversal_loops():
    H = type_da.builtin_H()
    for k in range(1, 7):
        gens = [(f"s{i}", A.I1) for i in range(k)]
        fwd = type_d.make_module(
            gens, [type_d.DArrow(f"s{i}", f"s{(i+1)%k}", A.R23)
                   for i in range(k)])
        rev = type_d.make_module(
            gens, [type_d.DArrow(f"s{(i+1)%k}", f"s{i}", A.R23)
                   for i in range(k)])
        L, _ = type_d.reduce_d(type_da.box_da_d(H, fwd))
        assert type_d.isomorphic_d(L, rev) is not None


def test_cancel_da_arity_cap(monkeypatch):
    prod = box_word(SIXFOLD)
    monkeypatch.setattr(type_d, "ARITY_CAP", 0)
    with pytest.raises(ValueError):
        type_da.reduce_da(prod)


def test_cancel_da_arity_cap_on_pass_through(monkeypatch):
    # x -[rho1]-> t <- s -> y exits within a cap of one input; passing
    # through the second action s -[rho23]-> t first needs two
    B = type_da.make_da(
        [("x", A.I0, A.I0), ("s", A.I0, A.I1), ("t", A.I0, A.I1),
         ("y", A.I1, A.I1)],
        [type_da.DAAction("s", (), A.I0, "t"),
         type_da.DAAction("x", (A.R1,), A.I0, "t"),
         type_da.DAAction("s", (A.R23,), A.R12, "t"),
         type_da.DAAction("s", (), A.R3, "y")])
    monkeypatch.setattr(type_d, "ARITY_CAP", 1)
    with pytest.raises(ValueError, match="arity cap 1"):
        type_da.reduce_da(B, [("s", "t")])
    monkeypatch.setattr(type_d, "ARITY_CAP", 2)
    R = type_da.reduce_da(B, [("s", "t")])[0]
    assert R.actions == (type_da.DAAction("x", (A.R1,), A.R3, "y"),
                         type_da.DAAction("x", (A.R1, A.R23), A.R123, "y"))


# the two box algorithms that the one box core replaced, as the reference
def oracle_box_da_d(B: TypeDAModule, M: TypeDModule, sep: str = "⊗") -> TypeDModule:
    """Box tensor product of a DA bimodule with a type D module."""
    b_idems = B.idems()
    m_idems = M.idems()
    gens = []
    for (bn, (bl, br)) in sorted(b_idems.items()):
        for (mn, mi) in sorted(m_idems.items()):
            if br is mi:
                gens.append((f"{bn}{sep}{mn}", bl))
    gen_set = {n for n, _ in gens}
    m_out: dict[str, list[DArrow]] = {}
    for arr in M.arrows:
        m_out.setdefault(arr.source, []).append(arr)

    def paths(start: str, labels: tuple[AlgebraElement, ...]):
        """Ends of arrow paths from start whose labels read exactly ``labels``."""
        if not labels:
            yield start
            return
        for arr in m_out.get(start, ()):
            if arr.label is labels[0]:
                yield from paths(arr.target, labels[1:])

    toggles: dict[tuple[str, str, AlgebraElement], int] = {}
    # differential arrows of M pass through untouched: b⊗x -> b⊗y
    for arr in M.arrows:
        if not is_idempotent(arr.label):
            continue
        for (bn, (bl, br)) in b_idems.items():
            if br is m_idems[arr.source]:
                key = (f"{bn}{sep}{arr.source}", f"{bn}{sep}{arr.target}", bl)
                toggles[key] = toggles.get(key, 0) ^ 1
    for act in B.actions:
        for mn in m_idems:
            if b_idems[act.source][1] is not m_idems[mn]:
                continue
            for end in paths(mn, act.args):
                key = (f"{act.source}{sep}{mn}", f"{act.target}{sep}{end}",
                       act.coeff)
                toggles[key] = toggles.get(key, 0) ^ 1
    arrows = [DArrow(*key) for key, p in toggles.items() if p]
    for arr in arrows:
        if arr.source not in gen_set or arr.target not in gen_set:
            raise AssertionError("box product produced an arrow outside the "
                                 "idempotent-compatible generators")
    return make_module(gens, arrows)


def oracle_box_da_da(B: TypeDAModule, C: TypeDAModule, sep: str = "⊗") -> TypeDAModule:
    """Box tensor product of two DA bimodules (B's inputs fed by C's outputs).

    C consumes the external algebra inputs; chains of C actions produce a
    sequence of output coefficients which a single B action consumes.  A C
    action with an idempotent output cannot feed B: it contributes alone,
    with B untouched, as a differential-style term (strict unitality).
    """
    b_idems = B.idems()
    c_idems = C.idems()
    gens = []
    for (bn, (bl, br)) in sorted(b_idems.items()):
        for (cn, (cl, cr)) in sorted(c_idems.items()):
            if br is cl:
                gens.append((f"{bn}{sep}{cn}", bl, cr))
    c_by_src: dict[str, list[DAAction]] = {}
    for act in C.actions:
        c_by_src.setdefault(act.source, []).append(act)
    b_by_src_args: dict[tuple[str, tuple], list[DAAction]] = {}
    for act in B.actions:
        b_by_src_args.setdefault((act.source, act.args), []).append(act)
    max_chain = max((len(a.args) for a in B.actions), default=0)

    toggles: dict[DAAction, int] = {}

    def emit(act: DAAction) -> None:
        toggles[act] = toggles.get(act, 0) ^ 1

    for (bn, (bl, br)) in b_idems.items():
        for cn in c_idems:
            if br is not c_idems[cn][0]:
                continue
            src = f"{bn}{sep}{cn}"
            # B acts alone (no C outputs consumed)
            for bact in b_by_src_args.get((bn, ()), ()):
                emit(_act(src, [], bact.coeff, f"{bact.target}{sep}{cn}"))
            # single C action with idempotent output: differential term
            for cact in c_by_src.get(cn, ()):
                if is_idempotent(cact.coeff):
                    emit(_act(src, cact.args, bl, f"{bn}{sep}{cact.target}"))

            # chains of C actions with non-idempotent outputs
            def chains(cur: str, outs: tuple, args: tuple, depth: int):
                if outs:
                    for bact in b_by_src_args.get((bn, outs), ()):
                        emit(_act(src, args, bact.coeff,
                                  f"{bact.target}{sep}{cur}"))
                if depth == max_chain:
                    return
                for cact in c_by_src.get(cur, ()):
                    if not is_idempotent(cact.coeff):
                        chains(cact.target, outs + (cact.coeff,),
                               args + cact.args, depth + 1)

            chains(cn, (), (), 0)
    actions = [act for act, p in toggles.items() if p]
    return make_da(gens, actions)


def _oracle_bimodules():
    H = type_da.builtin_H()
    reduced = type_da.reduce_da(type_da.box_da_da(H, type_da.builtin_tau_mu()))[0]
    return [build() for build in BUILTINS] + [reduced]


def _oracle_modules():
    """ktd_basefree and ktd_basis of the fixtures, T(2,3), ..., T(6,7) and
    their mirrors."""
    complexes = [load_cfk(name) for name in FIXTURE_NAMES]
    for p in range(2, 7):
        complexes += [torus_knot(p, p + 1), mirror(torus_knot(p, p + 1))]
    for C in complexes:
        yield ktd.ktd_basefree(C)
        yield ktd.ktd_basis(cfk.simultaneous_simplify(C))


def _random_module(seed):
    """Up to 12 generators and 30 well-formed arrows, idempotent or not;
    d^2 need not vanish, so paths of every label sequence occur."""
    rng = random.Random(seed)
    gens = [(f"g{i}", rng.choice([A.I0, A.I1])) for i in range(rng.randint(1, 12))]
    arrows = []
    for _ in range(rng.randint(0, 30)):
        (s, i), (t, j) = rng.choice(gens), rng.choice(gens)
        labels = [c for c in NONZERO if left_idem(c) is i and right_idem(c) is j]
        arrows.append(type_d.DArrow(s, t, rng.choice(labels)))
    return type_d.make_module(gens, arrows)


def test_box_da_d_matches_oracle():
    modules = list(_oracle_modules())
    modules += [_random_module(seed) for seed in range(50)]
    boxed = 0
    for B in _oracle_bimodules():
        for M in modules:
            assert (io_formats.write_typed(type_da.box_da_d(B, M))
                    == io_formats.write_typed(oracle_box_da_d(B, M)))
            boxed += 1
    assert boxed == 5 * (2 * 15 + 50)


def test_box_da_da_matches_oracle():
    bimodules = _oracle_bimodules()
    for B in bimodules:
        for C in bimodules:
            assert (io_formats.write_typeda(type_da.box_da_da(B, C))
                    == io_formats.write_typeda(oracle_box_da_da(B, C)))
    B, L = type_da.builtin_tau_mu(), type_da.builtin_tau_lambda()
    prod = ref = B
    for factor in (L, B, L, B, L):
        prod, ref = type_da.box_da_da(prod, factor), oracle_box_da_da(ref, factor)
        assert io_formats.write_typeda(prod) == io_formats.write_typeda(ref)
    assert prod == box_word(SIXFOLD)


def test_isomorphic_da_detects_difference():
    assert type_da.isomorphic_da(type_da.builtin_tau_mu(),
                                 type_da.builtin_tau_lambda()) is None


def _graph_box(B, G):
    return type_d._freeze_d(type_da._box_graph(B, G))


@pytest.mark.parametrize("name", [*FIXTURE_NAMES, "random"])
def test_the_graph_reader_boxes_as_box_da_d(name):
    # the box reads a module graph's live generators and edges as it reads
    # a frozen module, cancelled generators included in neither; the random
    # modules carry paths of every label sequence, so the two-input actions
    # of tau_mu and tau_lambda walk them too
    if name == "random":
        pairs = [(M, type_d._graph_d(M)) for M in map(_random_module, range(50))]
    else:
        D = ktd.ktd_basefree(load_cfk(name))
        reduced = type_d._graph_d(D)
        type_d._reduce(reduced, None)
        pairs = [(D, type_d._graph_d(D)), (type_d.reduce_d(D)[0], reduced)]
    for make in BUILTINS:
        B = make()
        for M, G in pairs:
            assert (io_formats.write_typed(_graph_box(B, G))
                    == io_formats.write_typed(type_da.box_da_d(B, M)))


def test_both_box_readers_reject_a_repeated_product_name():
    # a⊗(b⊗c) and (a⊗b)⊗c are both named a⊗b⊗c
    B = make_da([("a", A.I0, A.I0), ("a⊗b", A.I0, A.I0)], [])
    M = make_module([("b⊗c", A.I0), ("c", A.I0)], [])
    for box in (type_da.box_da_d, lambda B, M: _graph_box(B, type_d._graph_d(M))):
        with pytest.raises(ValueError, match="two generators named 'a⊗b⊗c'"):
            box(B, M)


@pytest.mark.parametrize("arrow", [DArrow("x", "y", A.I0),  # iota0 out of x, but y is iota1
                                   DArrow("x", "nowhere", A.R1),  # an unknown target
                                   DArrow("y", "y", A.R3)])  # rho3 starts at iota0, y is iota1
def test_both_box_readers_reject_an_arrow_outside_the_products(arrow):
    # a module that was never validated: the arrow's image in the box ends at
    # a product that the idempotents do not make
    M = make_module([("x", A.I0), ("y", A.I1)], [arrow])
    for box in (type_da.box_da_d, lambda B, M: _graph_box(B, type_d._graph_d(M))):
        with pytest.raises(AssertionError, match="outside the idempotent-compatible"):
            box(type_da.builtin_H(), M)


@pytest.mark.parametrize("arrow", [DArrow("b⊗c", "c", A.R1),  # rho1 starts at iota0, b⊗c is iota1
                                   DArrow("x", "b⊗c", A.I0)])  # iota0 into the iota1 b⊗c
def test_both_box_readers_reject_an_end_that_spells_a_product(arrow):
    # a⊗(b⊗c) is no product, yet its name a⊗b⊗c is that of the product of
    # a⊗b and c: the arrow is refused, not credited to that product
    B = make_da([("a", A.I0, A.I0), ("a⊗b", A.I0, A.I1), ("z", A.I1, A.I1)],
                [_act("a", [A.R1], A.R1, "z")])
    M = make_module([("b⊗c", A.I1), ("c", A.I1), ("x", A.I0)], [arrow])
    for box in (type_da.box_da_d, lambda B, M: _graph_box(B, type_d._graph_d(M))):
        with pytest.raises(AssertionError, match="outside the idempotent-compatible"):
            box(B, M)
