import random
from collections import Counter

import pytest

from bhf import cfk, ktd
from bhf._linalg import rref
from conftest import FIXTURE_NAMES, load_cfk, random_base_change, random_complex
from staircase import mirror, torus_knot

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


def test_validate_rejects_negative_u_power():
    C = cfk.make_complex([G("x", 0, 0), G("y", -1, -3)], [Ar("x", "y", -1)])
    assert cfk.validate(C) == ["arrow x->y has negative U power"]


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


def test_reduce_refuses_an_arrow_with_a_parallel_u_power():
    # x -> y and x -> U y: cancelling x -> y over F2[U] would divide by 1 + U
    C = cfk.make_complex([G("x", 0, 1), G("y", 0, 0)], [Ar("x", "y", 0), Ar("x", "y", 1)])
    with pytest.raises(ValueError) as e:
        cfk.reduce(C)
    assert str(e.value) == "cannot cancel x->y: parallel arrow with positive U power"


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
    assert cfk.supports(five_gen, "dz")[0] == frozenset({"a", "b"})
    assert cfk.supports(five_gen, "dw")[1] == frozenset({"b"})


def test_homology_supports_trefoil(trefoil):
    assert cfk.supports(trefoil, "dz")[0] == frozenset({"a"})
    assert cfk.supports(trefoil, "dw")[1] == frozenset({"c"})


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


# the four elimination loops that one rref replaced, and the supports read
# through them, as the reference
def oracle_rref(vectors: list[int]) -> list[int]:
    """Reduced basis of the span; deterministic, pivots on lowest set bit."""
    basis: list[int] = []
    for v in vectors:
        for b in basis:
            low = b & -b
            if v & low:
                v ^= b
        if v:
            basis.append(v)
            # keep basis reduced
            low = v & -v
            basis = [b ^ v if (b is not v and b & low) else b for b in basis]
    basis.sort(key=lambda b: b & -b)
    return basis


def oracle_reduce_mod(v: int, basis: list[int]) -> int:
    for b in basis:
        if v & (b & -b):
            v ^= b
    return v


def oracle_kernel_basis(columns: dict[int, int], nbits: int) -> list[int]:
    """Kernel of the map sending unit vector e_j to columns[j] (missing -> 0).

    Returns masks over the domain index space [0, nbits).
    """
    rows: list[tuple[int, int]] = []  # (image vector, domain mask)
    for j in range(nbits):
        rows.append((columns.get(j, 0), 1 << j))
    basis: list[tuple[int, int]] = []
    ker: list[int] = []
    for img, dom in rows:
        for bimg, bdom in basis:
            low = bimg & -bimg
            if img & low:
                img ^= bimg
                dom ^= bdom
        if img:
            basis.append((img, dom))
        else:
            ker.append(dom)
    return ker


def oracle_solve(equations: list[tuple[int, int]], nbits: int) -> int | None:
    """Solve f . v_i = r_i over GF(2) for an unknown mask f of width nbits.

    ``equations`` is a list of (vector mask, parity).  Returns the solution
    with all free variables set to zero (deterministic), or None.
    """
    # Gaussian elimination on the system; variables are bits of f.
    rows = [(v, r) for v, r in equations]
    pivots: list[tuple[int, int, int]] = []  # (pivot bit, vector, rhs)
    for v, r in rows:
        for pb, pv, pr in pivots:
            if v & pb:
                v ^= pv
                r ^= pr
        if v:
            pb = v & -v
            # reduce earlier pivots
            pivots = [(b, (vv ^ v if vv & pb else vv), (rr ^ r if vv & pb else rr))
                      for b, vv, rr in pivots]
            pivots.append((pb, v, r))
        elif r:
            return None
    f = 0
    for pb, pv, pr in pivots:
        if pr:
            f |= pb
    return f


def _oracle_matrix(C, family):
    order = sorted(g.name for g in C.generators)
    index = {n: i for i, n in enumerate(order)}
    fam = C.is_horizontal if family == "dw" else C.is_vertical
    cols: dict[int, int] = {}
    for a in C.arrows:
        if fam(a):
            cols[index[a.source]] = cols.get(index[a.source], 0) ^ (1 << index[a.target])
    return order, index, cols


def oracle_homology_support(C, family):
    order, index, cols = _oracle_matrix(C, family)
    ker = oracle_kernel_basis(cols, len(order))
    img = oracle_rref([v for v in cols.values() if v])
    reduced = sorted({v for v in (oracle_reduce_mod(k, img) for k in ker) if v})
    if len(reduced) != 1:
        raise ValueError(
            f"{family} homology has rank {len(reduced)}, expected 1")
    mask = reduced[0]
    return frozenset(n for n in order if mask & (1 << index[n]))


def oracle_cohomology_support(C, family):
    order, index, cols = _oracle_matrix(C, family)
    rep = oracle_homology_support(C, family)
    rep_mask = 0
    for n in rep:
        rep_mask |= 1 << index[n]
    eqs = [(v, 0) for v in cols.values() if v] + [(rep_mask, 1)]
    f = oracle_solve(eqs, len(order))
    if f is None:
        raise ValueError("no chain functional found")
    return frozenset(n for n in order if f & (1 << index[n]))


def _oracle_rank(C, family) -> int:
    """Rank of the family's homology: dim ker - dim im."""
    order, _, cols = _oracle_matrix(C, family)
    return (len(oracle_kernel_basis(cols, len(order)))
            - len(oracle_rref([v for v in cols.values() if v])))


@pytest.fixture(scope="module")
def support_corpus() -> list[cfk.KnotComplex]:
    """Every fixture reduced after random_complex seeds 0-299, the
    staircases of T(2,3)...T(40,41) with their mirrors, and one acyclic
    pair, whose homology has rank 0 in both families."""
    corpus = [cfk.reduce(random_complex(name, seed))
              for name in FIXTURE_NAMES for seed in range(300)]
    for p in range(2, 41):
        corpus += [torus_knot(p, p + 1), mirror(torus_knot(p, p + 1))]
    return corpus + [cfk.make_complex([G("x", 0, 0), G("y", 0, -1)], [Ar("x", "y", 0)])]


@pytest.mark.parametrize("half, oracle", [
    (0, oracle_homology_support), (1, oracle_cohomology_support)],
    ids=["homology_support-oracle_homology_support",
         "cohomology_support-oracle_cohomology_support"])
def test_supports_match_elimination_oracle(support_corpus, half, oracle):
    seen = Counter()
    for C in support_corpus:
        for family in ("dw", "dz"):
            try:
                want = oracle(C, family)
            except ValueError as e:
                # the oracle names the count of distinct reduced cycles
                says = f"{family} homology has rank {_oracle_rank(C, family)}, expected 1"
                with pytest.raises(ValueError) as got:
                    cfk.supports(C, family)
                assert str(got.value) == says
                seen["raised", str(e) == says] += 1
            else:
                cycle, cocycle = cfk.supports(C, family)
                assert (cycle, cocycle)[half] == want
                seen["equal"] += 1
                # a cocycle beyond the cycle's lowest generator holds image-row pivots
                seen["sigma"] += cocycle != {min(cycle)}
    assert seen["equal"] and seen["raised", True] and seen["raised", False]
    assert seen["sigma"]


def test_one_echelon_form_per_family(five_gen, monkeypatch):
    calls, counted = [], cfk._linalg.rref
    monkeypatch.setattr(cfk._linalg, "rref", lambda rows: calls.append(1) or counted(rows))

    def echelons(build, *args):
        calls.clear()
        build(*args)
        return len(calls)
    assert echelons(cfk.supports, five_gen, "dw") == 1
    assert echelons(ktd.ktd_basefree, five_gen) == 2
    # flip(C)'s supports are C's, swapped: one pair of echelon forms serves
    assert echelons(ktd.flip_ktd_direct, five_gen) == 2
    assert echelons(ktd.verify_elliptic_invariance, five_gen, "basefree") == 2
    assert echelons(ktd.verify_elliptic_invariance, five_gen, "basis") == 0


def _rref_solve(equations: list[tuple[int, int]], nbits: int) -> int | None:
    """A linear system solved by rref: the parity sits in bit nbits, a row
    1 << nbits reads 0 = 1, and the pivots of the rows with parity 1 are the
    solution's bits, each free coordinate zero."""
    rows = rref([v | r << nbits for v, r in equations])
    if 1 << nbits in rows:
        return None
    return sum(r & -r for r in rows if r >> nbits)


def test_rref_matches_elimination_oracle():
    rng = random.Random(11)
    solved = Counter()
    for _ in range(500):
        nbits = rng.randint(1, 12)
        eqs = [(rng.getrandbits(nbits), rng.getrandbits(1))
               for _ in range(rng.randint(0, nbits + 4))]
        vectors = [v for v, _ in eqs]
        assert rref(vectors) == oracle_rref(vectors)
        want = oracle_solve(eqs, nbits)
        assert _rref_solve(eqs, nbits) == want
        solved[want is not None] += 1
    assert solved[True] >= 100 and solved[False] >= 100


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_alexander_drop_reads_the_gradings_once(name, monkeypatch):
    # is_reduced, is_horizontal and the constructions call alexander_drop
    # once per arrow: it must not rebuild the generator table each time
    C = random_complex(name, 3)
    by = C.by_name()
    drops = [by[a.source].alexander - by[a.target].alexander for a in C.arrows]
    monkeypatch.setattr(cfk.KnotComplex, "by_name",
                        lambda self: pytest.fail("by_name rebuilt per arrow"))
    assert [C.alexander_drop(a) for a in C.arrows] == drops
    assert [C.is_horizontal(a) for a in C.arrows] == [
        a.u_power + d == 0 for a, d in zip(C.arrows, drops)]
    assert cfk.is_reduced(C) == all(a.u_power > 0 or d > 0 for a, d in zip(C.arrows, drops))
