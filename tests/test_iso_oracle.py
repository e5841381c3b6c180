"""The isomorphism search against a frozen copy of the search it replaced,
which re-keyed every module to value strings, tried each generator against
its whole signature class and had no shortcut for equal modules."""
import random
from collections import Counter, defaultdict

import pytest

from bhf import cfk, ktd, type_d, type_da
from bhf.algebra import AlgebraElement as A
from conftest import FIXTURE_NAMES, SIXFOLD, box_word, load_cfk
from staircase import mirror, torus_knot

DArrow = type_d.DArrow


def oracle_isomorphic(gens_m, edges_m, gens_n, edges_n):
    if len(gens_m) != len(gens_n) or len(edges_m) != len(edges_n):
        return None

    def index(gens, edges):
        out = {n: set() for n in gens}
        inc = {n: set() for n in gens}
        for s, t, lab in edges:
            out[s].add((t, lab))
            inc[t].add((s, lab))
        sig = {n: (gens[n], tuple(sorted((lab, gens[t]) for t, lab in out[n])),
                   tuple(sorted((lab, gens[s]) for s, lab in inc[n])))
               for n in gens}
        return out, inc, sig

    out_m, inc_m, sig_m = index(gens_m, edges_m)
    out_n, inc_n, sig_n = index(gens_n, edges_n)
    freq = Counter(sig_m.values())
    if freq != Counter(sig_n.values()):
        return None
    placed = {}
    for root in sorted(sig_m, key=lambda n: (freq[sig_m[n]], n)):
        queue = [root]
        for n in queue:
            if n not in placed:
                placed[n] = None
                queue += sorted({t for t, _ in out_m[n]} | {s for s, _ in inc_m[n]})
    order = list(placed)
    by_sig = defaultdict(list)
    for k in sorted(sig_n):
        by_sig[sig_n[k]].append(k)
    mapping, inv = {}, {}

    def kept(n, k, out_a, inc_a, out_b, inc_b, to_b):
        for t, lab in out_a[n]:
            u = k if t == n else to_b.get(t)
            if u is not None and (u, lab) not in out_b[k]:
                return False
        for s, lab in inc_a[n]:
            u = to_b.get(s)
            if u is not None and (u, lab) not in inc_b[k]:
                return False
        return True

    def search(i):
        if i == len(order):
            return True
        n = order[i]
        for k in by_sig[sig_m[n]]:
            if (k in inv or not kept(n, k, out_m, inc_m, out_n, inc_n, mapping)
                    or not kept(k, n, out_n, inc_n, out_m, inc_m, inv)):
                continue
            mapping[n] = k
            inv[k] = n
            if search(i + 1):
                return True
            del mapping[n], inv[k]
        return False

    return mapping if search(0) else None


def oracle_isomorphic_d(M, N):
    def form(X):
        return ({n: (i.value,) for n, i in X.generators},
                [(a.source, a.target, a.label.value) for a in X.arrows])

    return oracle_isomorphic(*form(M), *form(N))


def oracle_isomorphic_da(B, C):
    def form(X):
        return ({n: (l.value, r.value) for n, l, r in X.generators},
                [(a.source, a.target, (tuple(x.value for x in a.args), a.coeff.value))
                 for a in X.actions])

    return oracle_isomorphic(*form(B), *form(C))


def _check(M, N):
    """Both ways round: the same mapping as the oracle's, insertion order
    aside, or None where it gives None; returns whether one was found."""
    iso = type_d.isomorphic_d if isinstance(M, type_d.TypeDModule) else type_da.isomorphic_da
    oracle = oracle_isomorphic_d if iso is type_d.isomorphic_d else oracle_isomorphic_da
    for X, Y in ((M, N), (N, M)):
        assert iso(X, Y) == oracle(X, Y)
    return iso(M, N) is not None


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_seeded_reductions_match_as_the_oracle_does(name):
    D = ktd.ktd_basefree(load_cfk(name))
    reference = type_d.minimize_d(type_d.reduce_d(D)[0])
    found = [_check(type_d.minimize_d(type_d.reduce_d(D, s)[0]), reference)
             for s in range(40)]
    if name != "five_gen":  # five_gen has reductions no permutation matches
        assert all(found)


def _verify_sides(C):
    """The two minimised modules that verify_elliptic_invariance compares."""
    C = cfk.reduce(C)
    DL, DR = ktd.ktd_basefree(C), ktd.ktd_basefree(cfk.flip(C))
    left = type_d.reduce_d(type_da.box_da_d(type_da.builtin_H(), type_d.reduce_d(DL)[0]))[0]
    return type_d.minimize_d(left), type_d.minimize_d(type_d.reduce_d(DR)[0])


def _oracle_search(gens_m, edges_m, gens_n, edges_n, index_n=None):
    return oracle_isomorphic_d(type_d.TypeDModule(gens_m, edges_m),
                               type_d.TypeDModule(gens_n, edges_n))


@pytest.mark.parametrize("pq", [(2, 3), (2, 5), (3, 4), (7, 8)])
@pytest.mark.parametrize("side", ["knot", "mirror"])
def test_verify_sides_match_as_the_oracle_does(pq, side, monkeypatch):
    C = torus_knot(*pq) if side == "knot" else mirror(torus_knot(*pq))
    left, right = _verify_sides(C)
    _check(left, right)
    result = ktd._compare_d(left, right)
    assert result.verdict == "verified"
    # the match, with every search of it made by the oracle instead
    monkeypatch.setattr(type_d, "_isomorphic", _oracle_search)
    assert ktd._compare_d(left, right) == result


def test_sixfold_reductions_match_as_the_oracle_does():
    prod, H = box_word(SIXFOLD), type_da.builtin_H()
    assert all(_check(type_da.reduce_da(prod, s)[0], H) for s in range(20))


def test_symmetric_modules_match_as_the_oracle_does():
    # x -> rho1 y_i for three y_i beside two rho23 cycles of length 3: many
    # mappings onto a renamed copy exist, and the search finds the oracle's
    gens = ([("x", A.I0)] + [(f"y{i}", A.I1) for i in range(3)]
            + [(f"z{i}", A.I1) for i in range(6)])
    arrows = ([DArrow("x", f"y{i}", A.R1) for i in range(3)]
              + [DArrow(f"z{i}", f"z{i // 3 * 3 + (i + 1) % 3}", A.R23) for i in range(6)])
    M = type_d.make_module(gens, arrows)
    for seed in range(8):
        names = [f"g{i}" for i in range(len(gens))]
        random.Random(seed).shuffle(names)
        ren = dict(zip(M.names(), names))
        N = type_d.make_module([(ren[n], i) for n, i in gens],
                               [DArrow(ren[a.source], ren[a.target], a.label) for a in arrows])
        assert _check(M, N)


def test_one_cycle_and_two_match_as_the_oracle_does():
    # a rho23 6-cycle against two rho23 3-cycles: equal signatures, and
    # periodic words, so the search runs and must refuse both ways round
    one = type_d.make_module([(f"s{i}", A.I1) for i in range(6)],
                             [DArrow(f"s{i}", f"s{(i + 1) % 6}", A.R23) for i in range(6)])
    two = type_d.make_module([(f"{c}{i}", A.I1) for c in "ab" for i in range(3)],
                             [DArrow(f"{c}{i}", f"{c}{(i + 1) % 3}", A.R23)
                              for c in "ab" for i in range(3)])
    assert not _check(one, two)


def test_equal_modules_match_by_the_identity():
    # a rho23 cycle of length 4: rotation is an automorphism
    cycle = type_d.make_module([(f"s{i}", A.I1) for i in range(4)],
                               [DArrow(f"s{i}", f"s{(i + 1) % 4}", A.R23) for i in range(4)])
    rotated = {f"s{i}": f"s{(i + 1) % 4}" for i in range(4)}
    assert {DArrow(rotated[a.source], rotated[a.target], a.label)
            for a in cycle.arrows} == set(cycle.arrows)
    assert type_d.isomorphic_d(cycle, cycle) == {n: n for n in cycle.names()}
    H = type_da.builtin_H()
    assert type_da.isomorphic_da(H, H) == {n: n for n in H.names()}
    assert _check(cycle, cycle) and _check(H, H)


def test_equal_generators_with_other_arrows_fall_through_to_the_search():
    gens = [(f"s{i}", A.I1) for i in range(4)]
    cycle = type_d.make_module(gens, [DArrow(f"s{i}", f"s{(i + 1) % 4}", A.R23)
                                      for i in range(4)])
    # the same cycle read the other way round: a reflection matches them
    reverse = type_d.make_module(gens, [DArrow(f"s{(i + 1) % 4}", f"s{i}", A.R23)
                                        for i in range(4)])
    assert reverse.generators == cycle.generators and reverse.arrows != cycle.arrows
    assert _check(cycle, reverse)
    assert type_d.isomorphic_d(cycle, reverse) != {n: n for n in cycle.names()}
    # H with the action x2 -> rho1 x1 moved to x3, of the same idempotents
    H = type_da.builtin_H()
    moved = [a._replace(target="x3") if a == ("x2", (), A.R1, "x1") else a
             for a in H.actions]
    other = type_da.make_da(H.generators, moved)
    assert other.generators == H.generators and other.actions != H.actions
    _check(H, other)
