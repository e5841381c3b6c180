import bisect
import collections
import functools
import itertools
import random

import pytest

from bhf import cfk, io_formats, ktd, type_d, type_da
from bhf.algebra import _UNITS, NONZERO, AlgebraElement as A, left_idem, multiply, right_idem
from conftest import (COEFFS, FIXTURE_NAMES, base_change, boxed_complex, check_graph, every_change,
                      load_cfk, matches_as_the_search_does, Named, numbered,
                      random_complex, search_only, verify_sides)
from staircase import mirror, torus_knot

DArrow = type_d.DArrow


def chain(n, label=A.R23, idem=A.I1, loop=False):
    gens = [(f"s{i}", idem) for i in range(n)]
    arrows = [DArrow(f"s{i}", f"s{i+1}", label) for i in range(n - 1)]
    if loop:
        arrows.append(DArrow(f"s{n-1}", "s0", label))
    return type_d.make_module(gens, arrows)


@pytest.fixture
def boxed():
    """A module with cancellable idempotent arrows."""
    from bhf import type_da
    D = ktd.ktd_basefree(load_cfk("five_gen"), 7)
    return type_da.box_da_d(type_da.builtin_H(), D)


def test_validate_accepts_chain():
    assert type_d.validate_d(chain(4)) == []


def test_validate_rejects_idempotent_mismatch():
    M = type_d.make_module([("x", A.I1), ("y", A.I1)],
                           [DArrow("x", "y", A.R2)])
    assert type_d.validate_d(M)


def test_validate_reports_a_generator_without_an_idempotent():
    # a chord is an algebra element but no idempotent, and a name is neither:
    # no document could carry v or x
    M = type_d.make_module([("v", "iota0"), ("w", A.I0), ("x", A.R1), ("y", A.I1)],
                           [DArrow("v", "y", A.R1), DArrow("x", "y", A.R23)])
    assert type_d.validate_d(M) == [
        "generator v: idempotent 'iota0' is not iota0 or iota1",
        "generator x: idempotent rho1 is not iota0 or iota1",
        "arrow v->y: label rho1 does not start at 'iota0'",
        "arrow x->y: label rho23 does not start at rho1",
    ]


def test_validate_rejects_d_squared():
    M = type_d.make_module(
        [("x", A.I0), ("y", A.I1), ("z", A.I1)],
        [DArrow("x", "y", A.R1), DArrow("y", "z", A.R23)])
    assert any("d^2" in e for e in type_d.validate_d(M))


def test_validate_lists_odd_counts_in_order():
    # x->b->d and x->c->d give rho12 twice, which cancels; the rest is odd
    M = type_d.make_module(
        [("x", A.I0), ("c", A.I1), ("b", A.I1), ("d", A.I0), ("a", A.I1)],
        [DArrow("x", "c", A.R1), DArrow("x", "b", A.R1), DArrow("c", "d", A.R2),
         DArrow("b", "d", A.R2), DArrow("d", "a", A.R3), DArrow("x", "d", A.R12)])
    assert type_d.validate_d(M) == [
        "d^2 != 0: odd count b -> rho23 a",
        "d^2 != 0: odd count c -> rho23 a",
        "d^2 != 0: odd count x -> rho123 a",
    ]


def _validate_by_fields(M):
    """validate_d as it read before the table of well-formed arrows: every
    field of every arrow checked in turn, and d^2 from multiply."""
    out = []
    names = M.names()
    if len(set(names)) != len(names):
        return ["duplicate generator names"]
    idems = M.idems()
    for a in M.arrows:
        if a.source not in idems or a.target not in idems:
            out.append(f"arrow {a.source}->{a.target} references unknown generator")
            continue
        if a.label is A.ZERO:
            out.append(f"arrow {a.source}->{a.target} labelled zero")
            continue
        if left_idem(a.label) is not idems[a.source]:
            out.append(f"arrow {a.source}->{a.target}: label {a.label.value} "
                       f"does not start at {idems[a.source].value}")
        if right_idem(a.label) is not idems[a.target]:
            out.append(f"arrow {a.source}->{a.target}: label {a.label.value} "
                       f"does not end at {idems[a.target].value}")
    if out:
        return out
    outs = {}
    for a in M.arrows:
        outs.setdefault(a.source, []).append(a)
    counts = {}
    for a in M.arrows:
        for b in outs.get(a.target, ()):
            prod = multiply(a.label, b.label)
            if prod is not A.ZERO:
                key = (a.source, b.target, prod)
                counts[key] = counts.get(key, 0) ^ 1
    odd = [key for key, parity in counts.items() if parity]
    for src, tgt, lab in sorted(odd, key=str):
        out.append(f"d^2 != 0: odd count {src} -> {lab.value} {tgt}")
    return out


def _corrupt_d(M, rng):
    """M with 1-3 edits: an arrow to or from an unknown generator, a zero
    label, a label with the wrong idempotents, a dropped arrow, or a second
    generator of an existing name."""
    gens, arrows = list(M.generators), list(M.arrows)
    for _ in range(rng.randint(1, 3)):
        edit = rng.choice(("unknown", "zero", "idempotent", "drop", "duplicate"))
        if edit == "duplicate":
            n, i = rng.choice(gens)
            gens.append((n, A.I1 if i is A.I0 else A.I0))
            continue
        if not arrows:
            continue
        s, t, c = arrows.pop(rng.randrange(len(arrows)))
        if edit == "unknown":
            arrows.append(DArrow(s, "ghost", c) if rng.random() < 0.5
                          else DArrow("ghost", t, c))
        elif edit == "zero":
            arrows.append(DArrow(s, t, A.ZERO))
        elif edit == "idempotent":
            arrows.append(DArrow(s, t, rng.choice([d for d in NONZERO if d is not c])))
    return type_d.make_module(gens, arrows)


def test_validate_d_matches_field_oracle():
    H = type_da.builtin_H()
    bases = []
    for name in FIXTURE_NAMES:
        D = ktd.ktd_basefree(load_cfk(name))
        box = type_da.box_da_d(H, D)
        bases += [D, box, type_d.reduce_d(box)[0]]
    kinds = ("unknown generator", "labelled zero", "does not start at",
             "does not end at", "d^2 != 0", "duplicate generator names")
    seen = set()
    for seed in range(300):
        M = _corrupt_d(bases[seed % len(bases)], random.Random(seed))
        got = type_d.validate_d(M)
        assert got == _validate_by_fields(M), seed
        seen.update(k for k in kinds for e in got if k in e)
    assert seen == set(kinds)
    for M in bases:
        assert type_d.validate_d(M) == _validate_by_fields(M) == []


def test_cancel_basic():
    M = type_d.make_module(
        [("x", A.I1), ("y", A.I1), ("s", A.I0), ("t", A.I0)],
        [DArrow("x", "y", A.I1), DArrow("s", "y", A.R1),
         DArrow("x", "t", A.R2)])
    R = type_d.reduce_d(M, [("x", "y")])[0]
    assert {n for n, _ in R.generators} == {"s", "t"}
    assert R.arrows == (DArrow("s", "t", A.R12),)


def test_cancel_parallel_arrow_correction():
    # cancelling x->y in the presence of a parallel labelled arrow keeps
    # the correction path s -> x -> y -> t alive
    M = type_d.make_module(
        [("x", A.I1), ("y", A.I1), ("s", A.I1), ("t", A.I1)],
        [DArrow("x", "y", A.I1), DArrow("x", "y", A.R23),
         DArrow("s", "x", A.R23), DArrow("y", "t", A.R23)])
    R = type_d.reduce_d(M, [("x", "y")])[0]
    assert type_d.validate_d(R) == []


def test_reduce_removes_all_idempotent_arrows(boxed):
    R, trace = type_d.reduce_d(boxed)
    assert not any(a.label in (A.I0, A.I1) for a in R.arrows)
    assert trace.pairs  # something was cancelled


def test_reduce_replay(boxed):
    R1, trace = type_d.reduce_d(boxed)
    R2, _ = type_d.reduce_d(boxed, list(trace.pairs))
    assert R1 == R2


def test_reduce_refuses_an_order_of_another_kind():
    # a trace, a float, a string or a dict is no order, and none may run the
    # lexicographic one in its place; a trace's pairs, a tuple, replay it
    M = type_da.box_da_d(type_da.builtin_H(), ktd.ktd_basefree(load_cfk("trefoil_right")))
    R, trace = type_d.reduce_d(M, 7)
    for reduce, module in ((type_d.reduce_d, M), (type_da.reduce_da, type_da.builtin_H())):
        for order in (trace, 7.0, "7", {}):
            with pytest.raises(TypeError) as info:
                reduce(module, order)
            assert "None, an int seed or a list or tuple" in str(info.value)
            assert str(info.value).endswith("; pass trace.pairs") is (order is trace)
    assert type_d.reduce_d(M, trace.pairs) == (R, trace)


def test_reduce_confluent(boxed):
    # Different cancellation orders can land on different (but base-change
    # equivalent) reduced forms, so compare after normalizing.
    base = type_d.minimize_d(type_d.reduce_d(boxed)[0])
    for seed in range(12):
        R = type_d.minimize_d(type_d.reduce_d(boxed, seed)[0])
        assert type_d._match_up_to_base_change(base, R)[0] is not None


def test_d_squared_after_each_cancel(boxed):
    M = boxed
    while True:
        pairs = sorted((a.source, a.target) for a in M.arrows
                       if a.label in (A.I0, A.I1) and a.source != a.target)
        if not pairs:
            break
        M = type_d.reduce_d(M, pairs[:1])[0]
        assert type_d.validate_d(M) == []


def test_isomorphic_identity():
    M = chain(5)
    mapping = type_d.isomorphic_d(M, M)
    assert mapping == {f"s{i}": f"s{i}" for i in range(5)}


def test_isomorphic_relabelled():
    M = chain(4)
    N = type_d.make_module(
        [(f"t{i}", A.I1) for i in range(4)],
        [DArrow(f"t{i}", f"t{i+1}", A.R23) for i in range(3)])
    mapping = type_d.isomorphic_d(M, N)
    assert mapping == {f"s{i}": f"t{i}" for i in range(4)}


def test_isomorphic_places_a_long_chain():
    # the search places one generator per step: 1,500 steps go deeper than
    # Python's recursion limit would let a recursive search go
    M = chain(1500)
    ren, N = _renamed(M, 0)
    assert type_d.isomorphic_d(M, N) == ren


def test_isomorphic_distinguishes_direction():
    M = type_d.make_module(
        [("x", A.I0), ("y", A.I1), ("z", A.I1)],
        [DArrow("x", "y", A.R1), DArrow("z", "y", A.R23)])
    N = type_d.make_module(
        [("x", A.I0), ("y", A.I1), ("z", A.I1)],
        [DArrow("x", "y", A.R1), DArrow("y", "z", A.R23)])
    assert type_d.isomorphic_d(M, N) is None


@pytest.mark.parametrize("step", [1, -1])
def test_isomorphic_rejects_two_cycles_against_one(step):
    # two rho23 3-cycles and one rho23 6-cycle at iota1: every generator has
    # one arrow in and one out, so signatures and counts agree and only the
    # search can tell them apart, by rejecting a candidate in kept; the
    # cycles' direction decides whether an arrow in or an arrow out does
    two = type_d.make_module(
        [(f"{c}{i}", A.I1) for c in "ab" for i in range(3)],
        [DArrow(f"{c}{i}", f"{c}{(i + step) % 3}", A.R23) for c in "ab" for i in range(3)])
    one = chain(6, loop=True)
    assert type_d.isomorphic_d(two, one) is None
    assert type_d.isomorphic_d(one, two) is None


def test_isomorphic_symmetric(boxed):
    R, _ = type_d.reduce_d(boxed)
    S, _ = type_d.reduce_d(boxed, 3)
    assert (type_d.isomorphic_d(R, S) is None) == \
           (type_d.isomorphic_d(S, R) is None)


def _iso_case(name):
    """A module or bimodule, by name: builtins, each fixture's reduced
    module, and the unknot at framing 0 (one generator with a rho12 loop)."""
    if name.startswith("builtin_"):
        return getattr(type_da, name)()
    if name == "unknot_loop":
        return ktd.ktd_basis(cfk.simultaneous_simplify(load_cfk("unknot")), 0)
    return type_d.reduce_d(ktd.ktd_basefree(load_cfk(name)))[0]


def _renamed(X, seed):
    """A seeded random renaming of the generators of X, and X renamed."""
    names = sorted(X.names())
    new = [f"g{i}" for i in range(len(names))]
    random.Random(seed).shuffle(new)
    ren = dict(zip(names, new))
    if isinstance(X, type_d.TypeDModule):
        return ren, type_d.make_module(
            [(ren[n], i) for n, i in X.generators],
            [DArrow(ren[a.source], ren[a.target], a.label) for a in X.arrows])
    return ren, type_da.make_da(
        [(ren[n], l, r) for n, l, r in X.generators],
        [type_da.DAAction(ren[a.source], a.args, a.coeff, ren[a.target])
         for a in X.actions])


def _iso(X):
    return type_d.isomorphic_d if isinstance(X, type_d.TypeDModule) \
        else type_da.isomorphic_da


# builtin_tau_mu and builtin_tau_lambda have self-loop actions
ISO_CASES = ["builtin_H", "builtin_tau_mu", "builtin_tau_lambda",
             "builtin_identity", "unknot_loop"] + FIXTURE_NAMES


@pytest.mark.parametrize("name", ISO_CASES)
def test_isomorphic_finds_the_renaming(name):
    X = _iso_case(name)
    for seed in range(3):
        ren, Y = _renamed(X, seed)
        assert _iso(X)(X, Y) == ren
        assert _iso(X)(Y, X) == {v: k for k, v in ren.items()}


@pytest.mark.parametrize("name", ISO_CASES)
@pytest.mark.parametrize("change", ["drop_edge", "flip_idempotent"])
def test_isomorphic_rejects_a_changed_copy(name, change):
    X = _iso_case(name)
    _, Y = _renamed(X, 0)
    rng = random.Random(1)
    is_d = isinstance(Y, type_d.TypeDModule)
    gens, edges = list(Y.generators), list(Y.arrows if is_d else Y.actions)
    if change == "drop_edge":
        del edges[rng.randrange(len(edges))]
    else:
        i = rng.randrange(len(gens))
        n, left, *right = gens[i]
        gens[i] = (n, A.I1 if left is A.I0 else A.I0, *right)
    build = type_d.make_module if is_d else type_da.make_da
    assert _iso(X)(X, build(gens, edges)) is None


def test_least_rotation_is_the_least_of_all_rotations():
    # or None for a periodic word, whose least rotation starts twice
    rng = random.Random(5)
    periodic = 0
    for _ in range(3000):
        w = bytes(rng.choice(b"abcd"[:rng.randint(1, 4)]) for _ in range(rng.randint(1, 30)))
        if rng.random() < 0.25:
            w = w[:rng.randint(1, 5)] * rng.randint(2, 4)
        rotations = [w[i:] + w[:i] for i in range(len(w))]
        least, start = min(rotations), type_d._least_rotation(w)
        if rotations.count(least) > 1:
            assert start is None, w
            periodic += 1
        else:
            assert rotations[start] == least, w
    assert periodic > 500


def _loops(*arrows):
    """The module of arrows (source, target, label), each generator with
    the idempotent its labels give it."""
    idems = {}
    for s, t, c in arrows:
        idems[s], idems[t] = left_idem(c), right_idem(c)
    return type_d.make_module(list(idems.items()), [DArrow(*a) for a in arrows])


def _triangle(k, first=A.R1):
    # p (iota0) -first-> q -rho23-> r -rho2-> p: a primitive word whose
    # other reading, all arrows entered, differs from it
    return [(f"p{k}", f"q{k}", first), (f"q{k}", f"r{k}", A.R23), (f"r{k}", f"p{k}", A.R2)]


# modules with as many arrows as generators whose cycle words do not give
# the one isomorphism: each falls back to the search
LOOP_CONTROLS = {
    "two equal cycles": _triangle(0) + _triangle(1),
    "a periodic word": [("p0", "q0", A.R1), ("q0", "r0", A.R23), ("r0", "p1", A.R2),
                        ("p1", "q1", A.R1), ("q1", "r1", A.R23), ("r1", "p0", A.R2)],
    "a cycle equal to its reversal": [("p", "q", A.R1), ("p", "s", A.R1),
                                      ("q", "r", A.R2), ("s", "r", A.R2)],
    "a self-loop": [("x", "x", A.R23)] + _triangle(0),
    "a 2-cycle": [("p", "q", A.R1), ("p", "q", A.R3)] + _triangle(0),
    "a generator of valence 3": _triangle(0) + [("q0", "w", A.R2)],
}


@pytest.mark.parametrize("name", LOOP_CONTROLS)
def test_cycle_words_fall_back_where_they_do_not_decide(name):
    M = _loops(*LOOP_CONTROLS[name])
    assert len(M.arrows) == len(M.generators)
    assert type_d._cycle_words(M.generators, M.arrows) is None
    for seed in range(6):
        _, N = _renamed(M, seed)
        assert matches_as_the_search_does(M, N) == 0
        assert ktd._carries(type_d.isomorphic_d(M, N), M, N)


def test_cycle_words_align_distinct_cycles():
    # a triangle and a square of other words: the one isomorphism onto a
    # renamed copy is the renaming
    M = _loops(*_triangle(0), ("a", "b", A.R3), ("b", "c", A.R23), ("c", "d", A.R23),
               ("d", "a", A.R2))
    assert len(type_d._cycle_words(M.generators, M.arrows)) == 2
    for seed in range(6):
        ren, N = _renamed(M, seed)
        assert matches_as_the_search_does(M, N) == 2
        assert type_d.isomorphic_d(M, N) == ren
    # the triangle's ends changed, rho1 to rho3: equal counts, other words
    N = _loops(*_triangle(0, A.R3), ("a", "b", A.R3), ("b", "c", A.R23), ("c", "d", A.R23),
               ("d", "a", A.R2))
    assert matches_as_the_search_does(M, N) == 0
    assert type_d.isomorphic_d(M, N) is None


def _ladder_knots():
    return [load_cfk(name) for name in FIXTURE_NAMES] + [
        C for p in range(2, 14) for C in (torus_knot(p, p + 1), mirror(torus_knot(p, p + 1)))]


@pytest.mark.parametrize("algo", ["basefree", "basis"])
def test_cycle_words_match_verify_sides_as_the_search_does(algo):
    # every side but five_gen's base-free ones is loop-type, with words read
    # one way only
    knots = _ladder_knots()
    answered = sum(matches_as_the_search_does(*verify_sides(C, algo)) for C in knots)
    assert answered == 2 * (len(knots) - (algo == "basefree"))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_cycle_words_match_seeded_reductions_as_the_search_does(name):
    # a loop-type reduction minimises to the reference itself, which the
    # identity matches, so each is matched against a renamed copy too
    D = ktd.ktd_basefree(load_cfk(name))
    reference = type_d.minimize_d(type_d.reduce_d(D)[0])
    answered = 0
    for seed in range(40):
        M = type_d.minimize_d(type_d.reduce_d(D, seed)[0])
        answered += matches_as_the_search_does(M, reference)
        answered += matches_as_the_search_does(M, _renamed(reference, seed)[1])
    assert answered == (0 if name == "five_gen" else 80)


@pytest.mark.parametrize("algo", ["basefree", "basis"])
def test_cycle_words_match_the_corpora_as_the_search_does(algo):
    # 140 draws give two sides each; the words answer 90 (basefree) and 108
    # (basis) of them both ways round, and the search the rest
    compared = answered = 0
    for name in FIXTURE_NAMES:
        for C in [random_complex(name, seed) for seed in range(20)] + \
                 [boxed_complex(name, seed) for seed in range(20)]:
            if (sides := verify_sides(C, algo)) is not None:
                compared += 1
                answered += matches_as_the_search_does(*sides)
    assert (compared, answered) == (140, {"basefree": 180, "basis": 216}[algo])


def test_base_change_is_involution():
    M = chain(3)
    B = base_change(M, "s0", "s1", A.I1)
    assert B != M
    assert base_change(B, "s0", "s1", A.I1) == M


def test_base_change_preserves_validity(boxed):
    R, _ = type_d.reduce_d(boxed)
    idems = R.idems()
    names = sorted(idems)
    done = 0
    for g in names:
        for h in names:
            if g != h and idems[g] is idems[h]:
                B = base_change(R, g, h, A.I1 if idems[g] is A.I1 else A.I0)
                assert type_d.validate_d(B) == []
                done += 1
                if done >= 10:
                    return


def test_minimize_removes_spurious_arrow():
    # replacing k1 by k1 + k2 merges the two parallel rho1 arrows
    M = type_d.make_module(
        [("x", A.I0), ("k1", A.I1), ("k2", A.I1)],
        [DArrow("x", "k1", A.R1), DArrow("x", "k2", A.R1)])
    R = type_d.minimize_d(M)
    assert len(R.arrows) == 1
    assert type_d.validate_d(R) == []


def test_minimize_fixed_point(boxed):
    R, _ = type_d.reduce_d(boxed)
    M = type_d.minimize_d(R)
    assert type_d.minimize_d(M) == M
    assert type_d.validate_d(M) == []


def test_to_dot(boxed):
    R, _ = type_d.reduce_d(boxed)
    dot = type_d.to_dot(R)
    assert dot.startswith("digraph")
    assert dot == type_d.to_dot(R)


def edge_count(G):
    return sum(len(out) for out in G.out if out is not None)


def edge_set(G):
    return {(s, t, lab) for s, out in Named(G).out.items() for t, lab in out}


def _check_scored_changes(M):
    """_scored_changes, over every generator of M, leaves the graph as it
    was and gives an in-order subsequence of every_change whose deltas are
    change_delta's and the change in count that base_change makes; each
    change it leaves out toggles only absent edges an odd number of times,
    so it adds arrows or changes nothing."""
    G = type_d._graph_d(M)
    idems = M.idems()
    scored = [(gen, G.names[o], type_d._COEFF[c], delta) for gen in sorted(idems)
              for o, c, delta in type_d._scored_changes(G, G.index[gen])]
    assert type_d._freeze_d(G) == M and edge_count(G) == len(M.arrows)
    oracle = list(every_change(idems))
    rest = iter(oracle)
    assert all(t[:3] in rest for t in scored)  # an in-order subsequence
    deltas = {t[:3]: t[3] for t in scored}
    for change in oracle:
        delta = deltas.get(change)
        if delta is not None:
            assert G.change_delta(*numbered(G, *change)) == delta, change
        toggled = G.base_change(*numbered(G, *change))
        if delta is not None:
            assert edge_count(G) - len(M.arrows) == delta, change
        else:
            odd = [e for e, k in collections.Counter(toggled).items() if k % 2]
            assert edge_count(G) - len(M.arrows) == len(odd), change
        G.toggle(toggled)
    assert type_d._freeze_d(G) == M  # every undo restored the graph


@functools.lru_cache(maxsize=None)
def scrambled():
    """(R, M) pairs: R a reduced base-free module of a fixture or of T(2,3),
    T(3,4), T(4,5) or a mirror, M it after 1-12 random base changes drawn by
    random.Random(seed), seeds 0-29.  The changes leave rho23 and rho12
    loops, which no reduction of a fixture has."""
    complexes = [load_cfk(name) for name in FIXTURE_NAMES] + [
        f(torus_knot(p, p + 1)) for p in (2, 3, 4) for f in (lambda C: C, mirror)]
    pairs = []
    for C in complexes:
        R = type_d.reduce_d(ktd.ktd_basefree(C))[0]
        idems = R.idems()
        names = sorted(idems)
        for seed in range(30):
            rng = random.Random(seed)
            G = type_d._graph_d(R)
            for _ in range(rng.randint(1, 12)):
                gen, other = rng.sample(names, 2)
                G.base_change(*numbered(G, gen, other,
                                        rng.choice(COEFFS[idems[gen], idems[other]])))
            pairs.append((R, type_d._freeze_d(G)))
    return pairs


def test_scored_changes_skip_only_changes_that_remove_no_arrow():
    H = type_da.builtin_H()
    for name in FIXTURE_NAMES:
        D = ktd.ktd_basefree(load_cfk(name))
        for M in (type_da.box_da_d(H, D), D):
            for order in [None, *range(20)]:
                _check_scored_changes(type_d.reduce_d(M, order)[0])
    looped = 0
    for _, M in scrambled():
        _check_scored_changes(M)
        looped += any(a.source == a.target for a in M.arrows)
    assert looped > 100


# The greedy search and the base-change match as they were before
# _scored_changes, scoring each change of _near_changes by change_delta: the
# oracle that the candidates _scored_changes picks change nothing.
def _near_changes(G, idems):
    # read by name once: each caller undoes a change before the next one
    N = Named(G)
    for gen in sorted(idems):
        outs = {y for y, _ in N.out[gen]}
        ins = {x for x, _ in N.inc[gen]}
        near = (outs | ins | {o for y in outs for o, _ in N.inc[y]}
                | {o for x in ins for o, _ in N.out[x]})
        for other in sorted(near - {gen}):
            for coeff in COEFFS[idems[gen], idems[other]]:
                yield gen, other, coeff


def _minimize_by_scan(M):
    idems = M.idems()
    G = type_d._graph_d(M)
    while True:
        for change in _near_changes(G, idems):
            if G.change_delta(*numbered(G, *change)) < 0:
                G.base_change(*numbered(G, *change))
                break
        else:
            return type_d._freeze_d(G)


def _match_by_scan(left, right, depth=type_d.MATCH_DEPTH, cap=type_d.MATCH_CAP):
    seen = {left.arrows}
    frontier = [left]
    hit = False
    for level in range(depth + 1):
        nxt = []
        for M in frontier:
            mapping = type_d.isomorphic_d(M, right)
            if mapping is not None:
                return M, mapping
            if level == depth:
                continue
            G = type_d._graph_d(M)
            for change in _near_changes(G, M.idems()):
                if hit:
                    break
                if G.change_delta(*numbered(G, *change)) > 0:
                    continue
                toggled = G.base_change(*numbered(G, *change))
                cand = type_d._freeze_d(G)
                if cand.arrows not in seen and not (hit := len(seen) > cap):
                    seen.add(cand.arrows)
                    nxt.append(cand)
                G.toggle(toggled)
        frontier = nxt
    return None, hit


def test_greedy_and_match_agree_with_the_scan_of_every_near_change(monkeypatch):
    # the match on every fourth module, with a cap that some searches hit
    monkeypatch.setattr(type_d, "MATCH_CAP", 20)
    minimal = {}
    removed, flags = 0, collections.Counter()
    for i, (R, M) in enumerate(scrambled()):
        out = type_d.minimize_d(M)
        assert io_formats.write_typed(out) == io_formats.write_typed(_minimize_by_scan(M)), i
        removed += len(M.arrows) - len(out.arrows)
        if i % 4:
            continue
        if R not in minimal:
            minimal[R] = type_d.minimize_d(R)
        found = type_d._match_up_to_base_change(out, minimal[R])
        assert found == _match_by_scan(out, minimal[R], cap=20), i
        flags[found[1] if found[0] is None else "matched"] += 1
    assert flags[True] and flags[False] and flags["matched"]
    assert removed > 1000


def _sequential_base_change(G, gen, other, coeff):
    """base_change as it was before _Graph.toggled: toggle coeff times each
    arrow out of other as an arrow out of gen, then reread the arrows into
    gen, a loop just toggled among them, and toggle a copy of each into
    other; returns the edges toggled, in order, by name."""
    done = [(gen, y, (args, c)) for y, (args, lab) in Named(G, other).out[other]
            if (c := multiply(coeff, lab)) is not A.ZERO]
    G.toggle(numbered(G, *e) for e in done)
    more = [(x, other, (args, c)) for x, (args, lab) in Named(G, gen).inc[gen]
            if (c := multiply(lab, coeff)) is not A.ZERO]
    G.toggle(numbered(G, *e) for e in more)
    return done + more


def _check_change_delta(M):
    """change_delta leaves the graph as it was and equals the change in
    count made by base_change, for every (gen, other, coeff) it accepts,
    and base_change leaves the graph that _sequential_base_change does;
    returns the number of changes checked."""
    G = type_d._graph_d(M)
    changes = list(every_change(M.idems()))
    deltas = [G.change_delta(*numbered(G, *change)) for change in changes]
    assert type_d._freeze_d(G) == M and edge_count(G) == len(M.arrows)
    for change, delta in zip(changes, deltas):
        toggled = _sequential_base_change(G, *change)
        oracle = edge_set(G)
        G.toggle(numbered(G, *e) for e in reversed(toggled))
        toggled = G.base_change(*numbered(G, *change))
        assert edge_count(G) - len(M.arrows) == delta, change
        assert edge_set(G) == oracle, change
        G.toggle(toggled)
    assert type_d._freeze_d(G) == M
    return len(changes)


def test_change_delta_matches_base_change():
    H = type_da.builtin_H()
    checked = 0
    for name in FIXTURE_NAMES:
        D = ktd.ktd_basefree(load_cfk(name))
        for seed in range(30):
            checked += _check_change_delta(type_d.reduce_d(D, seed)[0])
        checked += _check_change_delta(type_d.reduce_d(type_da.box_da_d(H, D))[0])
    assert checked > 40000


def test_change_delta_reads_the_loop_toggled_at_gen():
    # with an arrow other -> gen, gen -> gen + c*other first toggles a loop
    # at gen, which base_change then reads among the arrows into gen: rho23
    # loops at the iota1 generators and rho12 loops at the iota0 ones; with
    # loops at both gen and other, it toggles gen -> other twice, as for
    # z -> z + x and q -> q + p, which share no arrow other -> gen
    gens = [("x", A.I1), ("y", A.I1), ("z", A.I1), ("p", A.I0), ("q", A.I0)]
    arrows = [DArrow("y", "x", A.R23), DArrow("x", "y", A.R23),
              DArrow("z", "x", A.R23), DArrow("q", "p", A.R12),
              DArrow("p", "x", A.R1), DArrow("q", "y", A.R3)]
    loops = [DArrow("x", "x", A.R23), DArrow("p", "p", A.R12),
             DArrow("z", "z", A.R23), DArrow("q", "q", A.R12)]
    for k in range(len(loops) + 1):
        for extra in itertools.combinations(loops, k):
            M = type_d.make_module(gens, arrows + list(extra))
            assert _check_change_delta(M) == 40
            _check_scored_changes(M)


def test_scored_changes_rule_on_random_modules():
    # seeded modules of 2-5 generators, d^2 = 0 not asked: loops, 2-cycles
    # (half of them of one label), chord arrows and idempotent arrows; every
    # change _scored_changes leaves out toggles no present arrow, and every
    # delta it keeps is change_delta's
    checked = kept = 0
    for seed in range(3000):
        rng = random.Random(seed)
        idems = {f"g{i}": rng.choice(type_d._IDEMPOTENTS) for i in range(rng.randint(2, 5))}
        arrows = set()
        for s, t in itertools.product(idems, repeat=2):
            if rng.random() < 0.4:
                c = rng.choice(COEFFS[idems[s], idems[t]])
                arrows.add(DArrow(s, t, c))
                if s != t and idems[s] is idems[t] and rng.random() < 0.5:
                    arrows.add(DArrow(t, s, c))
        G = type_d._graph_d(type_d.make_module(idems.items(), arrows))
        present = edge_set(G)
        scored = {(gen, G.names[o], type_d._COEFF[c]): delta for gen in idems
                  for o, c, delta in type_d._scored_changes(G, G.index[gen])}
        for change in every_change(idems):
            checked += 1
            if change in scored:
                kept += 1
                assert scored[change] == G.change_delta(*numbered(G, *change)), (seed, change)
            else:
                assert not Named(G).edges(G.toggled(*numbered(G, *change))) & present, \
                    (seed, change)
    assert checked > 50000 and kept > 5000


def _oracle_cancel(G, s, t):
    """_Graph.cancel as it was before the shared labels: a label tuple per
    edge, the differential rule written out at each use, a recursive
    closure calling multiply per product, and the old toggle per edge made
    an odd number of times; on a graph read by name (conftest.Named)."""
    def differential(lab):
        return not lab[0] and lab[1] in _UNITS

    edge = ((), G.left[s]) if s in G.left else None
    if edge is None or t not in G.left or (t, edge) not in G.out[s]:
        raise ValueError(f"no idempotent arrow {s} -> {t}")
    ends = (s, t)
    steps = [(y, lab) for y, lab in G.out[s] if y not in ends] + [
        (None, lab) for y, lab in G.out[s] if y == t and lab != edge
        and (lab[0] or lab[1] not in _UNITS)]
    toggles = {}

    def extend(coeff, args, x):
        for y, (more, lab) in steps:
            c = multiply(coeff, lab)
            if c is A.ZERO:
                continue
            if len(args) + len(more) > type_d.ARITY_CAP:
                raise ValueError(f"cancellation exceeds arity cap {type_d.ARITY_CAP}")
            if y is None:
                extend(c, args + more, x)
            else:
                key = (x, y, (args + more, c))
                toggles[key] = toggles.get(key, 0) ^ 1

    for x, (args, coeff) in [e for e in G.inc[t] if e[0] not in ends]:
        extend(coeff, args, x)
    for g in {s, t}:
        del G.left[g]
        for y, lab in G.out.pop(g, ()):
            if y not in ends:
                G.inc[y].remove((g, lab))
            if differential(lab):
                del G.diff[bisect.bisect_left(G.diff, (g, y))]
        for x, lab in G.inc.pop(g, ()):
            if x in ends:
                continue
            G.out[x].remove((g, lab))
            if differential(lab):
                del G.diff[bisect.bisect_left(G.diff, (x, g))]
    for (x, y, lab), parity in toggles.items():
        if not parity:
            continue
        if (y, lab) in G.out[x]:
            G.out[x].remove((y, lab))
            G.inc[y].remove((x, lab))
            if differential(lab):
                del G.diff[bisect.bisect_left(G.diff, (x, y))]
        else:
            G.out[x].add((y, lab))
            G.inc[y].add((x, lab))
            if differential(lab):
                bisect.insort(G.diff, (x, y))


def _graph_state(N):
    return N.out, N.inc, N.diff, N.left


def _check_cancel_against_oracle(make_graph, seed):
    """A seeded reduction of make_graph(), cancelling with _Graph.cancel on
    one copy and _oracle_cancel on another, read by name, leaves both copies
    the same and consistent (conftest.check_graph) after every step;
    returns the number of steps."""
    G, H = make_graph(), Named(make_graph())
    rng, removed = random.Random(seed), set()
    check_graph(G, removed)
    steps = 0
    while G.diff:
        i, j = divmod(rng.choice(G.diff), len(G.names))
        s, t = G.names[i], G.names[j]
        G.cancel(i, j)
        _oracle_cancel(H, s, t)
        assert _graph_state(Named(G)) == _graph_state(H), (s, t)
        removed.update((s, t))
        check_graph(G, removed)
        steps += 1
    assert not H.diff
    return steps


def _da_graph(B):
    return type_d._Graph(B.generators, B.actions)


def _oracle_modules():
    """The fixtures' and T(3,4)'s base-free modules, their boxes with H,
    tau_mu and tau_lambda, the sixfold product, and two small modules whose
    cancellation passes through mids."""
    bimodules = [type_da.builtin_H(), type_da.builtin_tau_mu(), type_da.builtin_tau_lambda()]
    knots = [load_cfk(name) for name in FIXTURE_NAMES]
    for C in knots + [torus_knot(3, 4), mirror(torus_knot(3, 4))]:
        D = ktd.ktd_basefree(C)
        yield D
        for B in bimodules:
            yield type_da.box_da_d(B, D)
    tau_mu, tau_lambda = type_da.builtin_tau_mu(), type_da.builtin_tau_lambda()
    sixfold = type_da.box_da_da(tau_mu, tau_lambda)
    for factor in (tau_mu, tau_lambda, tau_mu, tau_lambda):
        sixfold = type_da.box_da_da(sixfold, factor)
    yield sixfold
    # zig-zags x -> t <- s -> y that also pass through a chord mid s -> t
    yield type_d.make_module(
        [("x", A.I0), ("s", A.I1), ("t", A.I1), ("y", A.I1)],
        [DArrow("x", "t", A.R1), DArrow("s", "t", A.I1), DArrow("s", "t", A.R23),
         DArrow("s", "y", A.I1)])
    yield type_da.make_da(
        [("x", A.I0, A.I0), ("s", A.I0, A.I1), ("t", A.I0, A.I1), ("y", A.I1, A.I1)],
        [type_da.DAAction("s", (), A.I0, "t"), type_da.DAAction("x", (A.R1,), A.I0, "t"),
         type_da.DAAction("s", (A.R23,), A.R12, "t"), type_da.DAAction("s", (), A.R3, "y")])


def _oracle_inputs():
    """Graph makers of _oracle_modules."""
    for M in _oracle_modules():
        yield functools.partial(type_d._graph_d if isinstance(M, type_d.TypeDModule)
                                else _da_graph, M)


def test_cancel_matches_the_frozen_oracle():
    steps = 0
    for make_graph in _oracle_inputs():
        for seed in range(8):
            steps += _check_cancel_against_oracle(make_graph, seed)
    assert steps > 5000


def test_producers_build_arrows_and_actions_not_plain_tuples():
    # a plain tuple passes every byte-level golden (write_typed unpacks it,
    # and module equality compares tuples) but has no a.source or a.label;
    # the oracle modules are base-free modules, box_da_d's and box_da_da's
    produced = []
    for M in _oracle_modules():
        if isinstance(M, type_d.TypeDModule):
            R = type_d.reduce_d(M)[0]
            produced += [M, R, type_d.minimize_d(R)]
        else:
            produced += [M, type_da.reduce_da(M)[0]]
    for M in produced:
        if isinstance(M, type_d.TypeDModule):
            assert all(type(a) is DArrow and (a.source, a.target, a.label) == a
                       for a in M.arrows)
        else:
            assert all(type(a) is type_da.DAAction and (a.source, a.args, a.coeff, a.target) == a
                       for a in M.actions)
    assert sum(isinstance(M, type_da.TypeDAModule) for M in produced) == 4


def test_cancel_raises_as_the_frozen_oracle():
    # a missing edge, unknown ends, a zig-zag of 5 + 4 inputs, one more
    # than the arity cap allows
    D = ktd.ktd_basefree(load_cfk("trefoil_right"))
    x, y = next((a.source, a.target) for a in D.arrows if a.label not in (A.I0, A.I1))
    many = (A.R12,) * 5, (A.R23,) * 4
    wide = [("s", (), A.I0, "t"), ("x", many[0], A.I0, "t"), ("s", many[1], A.R1, "y")]
    cases = [(functools.partial(type_d._graph_d, D), pair, "no idempotent arrow")
             for pair in [(x, y), (x, "nowhere"), ("nowhere", y), (y, y)]]
    cases.append((lambda: type_d._Graph([("s", A.I0), ("t", A.I0), ("x", A.I0), ("y", A.I1)],
                                        wide), ("s", "t"), "arity cap"))
    # a mid with an input and an idempotent output can be passed through
    # again and again: the cap ends it
    looping = wide[:2] + [("s", (A.R12,), A.I0, "t"), ("s", (), A.R1, "y")]
    cases.append((lambda: type_d._Graph([("s", A.I0), ("t", A.I0), ("x", A.I0), ("y", A.I1)],
                                        looping), ("s", "t"), "arity cap"))
    for make_graph, (s, t), message in cases:
        # the pair is replayed: a name no generator has is refused there
        G, H = make_graph(), Named(make_graph())
        with pytest.raises(ValueError, match=message) as new:
            type_d._reduce(G, [(s, t)])
        with pytest.raises(ValueError, match=message) as old:
            _oracle_cancel(H, s, t)
        assert str(new.value) == str(old.value)
        assert _graph_state(Named(G)) == _graph_state(H)
