import functools
import pathlib
import random
import re
import sys

import pytest

from bhf import cfk, io_formats, ktd, type_d, type_da
from bhf.algebra import _UNITS, NONZERO, AlgebraElement, left_idem, right_idem

ACCEPTANCE_CRITERIA = {
    1: "involution bimodule recovered from the sixfold twist tensor, "
       "scripted and unscripted",
    2: "base-free module of the five-generator example matches the "
       "frozen oracle",
    3: "base-free involution invariance verified on all five fixtures",
    4: "basis-path verification and framing adjustment by twisting",
    5: "basepoint flip negates gradings and swaps arrow families",
    6: "involution bimodule reverses rho23 cycles of length 1..6",
    7: "structural invariants: d^2 per cancel, confluence, "
       "associativity, identity unit law",
    8: "direct flip of the base-free module matches the flipped complex",
    9: "unstable chain length tracks framing minus two_tau",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results: dict[int, str] = {}
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            m = re.search(r"test_acceptance\.py::test_criterion_(\d+)",
                          getattr(rep, "nodeid", ""))
            if m:
                n = int(m.group(1))
                if outcome == "passed":
                    results.setdefault(n, "PASS")
                else:
                    results[n] = "FAIL"
    if results:
        terminalreporter.section("acceptance criteria")
        for n in sorted(results):
            terminalreporter.write_line(
                f"criterion {n}: {results[n]} - {ACCEPTANCE_CRITERIA[n]}")

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
# the benchmark's staircase complexes of torus knots, for the tests at scale
sys.path.append(str(ROOT / "bench"))

FIXTURE_NAMES = ["unknot", "trefoil_right", "trefoil_left", "figure_eight",
                 "five_gen"]

# the right-handed trefoil in the terse line format
TERSE_TREFOIL = ("a: A=1 M=0\nb: A=0 M=-1\nc: A=-1 M=-2\n"
                 "b -> U^1 a\nb -> c\n")


# the bimodule that each word of box_word names
BIMODULES = {"mu": type_da.builtin_tau_mu, "lambda": type_da.builtin_tau_lambda,
             "H": type_da.builtin_H}
# (tau_mu tau_lambda)^3, whose reduction is the involution bimodule H
SIXFOLD = "mu lambda " * 3


def box_word(word: str) -> type_da.TypeDAModule:
    """The box product of the bimodules that word names ("mu", "lambda",
    "H"), left first: the left fold of box_da_da that bhf build-h makes."""
    return functools.reduce(type_da.box_da_da, [BIMODULES[w]() for w in word.split()])


def load_cfk(name: str) -> cfk.KnotComplex:
    text = (FIXTURES / f"{name}.cfk.json").read_text(encoding="utf-8")
    return io_formats.parse_cfk(text)


def random_base_change(m, rng: random.Random) -> bool:
    """Attempt one filtered base change b += U^j a on the mutable complex
    ``m`` (a ``cfk._Mut``) between two random generators; False when the
    gradings admit none."""
    if len(m.gens) < 2:
        return False
    a, b = rng.sample(sorted(m.gens), 2)
    twice_j = m.gens[a].maslov - m.gens[b].maslov
    if twice_j < 0 or twice_j % 2:
        return False
    try:
        m.add_to(a, b, twice_j // 2)
    except ValueError:  # the change would raise the Alexander filtration
        return False
    return True


def random_complex(name: str, seed: int, shift=None) -> cfk.KnotComplex:
    """A fixture plus 0-3 acyclic pairs (vertical, horizontal, or unreduced
    with U^0 and Alexander drop 0), scrambled by up to 25 attempted filtered
    base changes.  The pairs are acyclic over F2[U, U^-1], but a vertical
    pair adds rank 2 to the horizontal homology and a horizontal pair to
    the vertical one.  Such a draw is no knot complex: both constructions
    refuse it alike, and ``tau`` refuses one with a horizontal pair."""
    rng = random.Random(seed)
    C = load_cfk(name)
    gens, arrows = list(C.generators), list(C.arrows)
    for i in range(rng.randint(0, 3)):
        A, M = rng.randint(-2, 2), rng.randint(-3, 2)
        p, q = f"p{i}", f"q{i}"
        kind = rng.choice(["vertical", "horizontal", "unreduced"])
        if kind == "vertical":
            q_gen, r = cfk.KnotGenerator(q, A - rng.randint(1, 2), M - 1), 0
        elif kind == "horizontal":
            r = rng.randint(1, 2)
            q_gen = cfk.KnotGenerator(q, A + r, M - 1 + 2 * r)
        else:
            q_gen, r = cfk.KnotGenerator(q, A, M - 1), 0
        gens += [cfk.KnotGenerator(p, A, M), q_gen]
        arrows.append(cfk.KnotArrow(p, q, r))
    return _scrambled(cfk.make_complex(gens, arrows, shift or C.shift), rng)


def _scrambled(C: cfk.KnotComplex, rng: random.Random) -> cfk.KnotComplex:
    """C after 0-25 attempted filtered base changes drawn from rng."""
    m = cfk._Mut(C)
    for _ in range(rng.randint(0, 25)):
        random_base_change(m, rng)
    return m.freeze()


def boxed_complex(name: str, seed: int) -> cfk.KnotComplex:
    """A fixture plus one or two boxes: four generators a, b, c, d with
    a -> b and c -> d vertical, and a -> U^h c and b -> U^h d horizontal.
    A box is acyclic over F2[U, U^-1] and adds nothing to either homology,
    so the result is a valid knot complex of the same knot; it is scrambled
    by up to 25 attempted filtered base changes."""
    rng = random.Random(seed)
    C = load_cfk(name)
    gens, arrows = list(C.generators), list(C.arrows)
    for i in range(rng.randint(1, 2)):
        A, M = rng.randint(-2, 2), rng.randint(-3, 2)
        v, h = rng.randint(1, 2), rng.randint(1, 2)
        a, b, c, d = (f"s{i}{x}" for x in "abcd")
        gens += [cfk.KnotGenerator(a, A, M), cfk.KnotGenerator(b, A - v, M - 1),
                 cfk.KnotGenerator(c, A + h, M - 1 + 2 * h),
                 cfk.KnotGenerator(d, A + h - v, M - 2 + 2 * h)]
        arrows += [cfk.KnotArrow(a, b, 0), cfk.KnotArrow(a, c, h),
                   cfk.KnotArrow(b, d, h), cfk.KnotArrow(c, d, 0)]
    return _scrambled(cfk.make_complex(gens, arrows, C.shift), rng)


def base_change(M, gen, other, coeff):
    """M with gen replaced by gen + coeff*other, changed in place on the
    module graph and frozen."""
    G = type_d._graph_d(M)
    G.base_change(gen, other, coeff)
    return type_d._freeze_d(G)


def negated_columns(M):
    """M with each iota1 generator sym|s2 renamed sym|-s2, in its generators,
    arrows and tags: flip_ktd_direct(C, n) so renamed is ktd_basefree(flip(C), n)."""
    ren = {n: n for n, _ in M.generators}
    for n, i in M.generators:
        if i is AlgebraElement.I1:
            sym, _, s2 = n.rpartition("|")
            ren[n] = f"{sym}|{-int(s2)}"
    return type_d.make_module([(ren[n], i) for n, i in M.generators],
                              [type_d.DArrow(ren[s], ren[t], c) for s, t, c in M.arrows],
                              {ren.get(k, k): v for k, v in M.tags.items()})


def verify_sides(C, algo):
    """The two modules verify_elliptic_invariance(C, algo) compares, or None
    when it compares none (C is no knot complex, or has no simplified basis)."""
    sides, compare = [], ktd._compare_d
    ktd._compare_d = lambda left, right: sides.append((left, right)) or compare(left, right)
    try:
        ktd.verify_elliptic_invariance(C, algo)
    except ValueError:
        pass
    finally:
        ktd._compare_d = compare
    return sides[0] if sides else None


def search_only(M, N):
    """isomorphic_d(M, N) with the cycle-word path off, through a memo that
    gives N no words: the search's answer."""
    return type_d._isomorphic(M.generators, M.arrows, N.generators, N.arrows, {"words": None})


def matches_as_the_search_does(M, N) -> int:
    """Assert that isomorphic_d gives M -> N and N -> M the search's answer,
    the same mapping or None; return how many of the two the cycle words
    gave."""
    answered = 0
    for X, Y in ((M, N), (N, M)):
        assert type_d.isomorphic_d(X, Y) == search_only(X, Y)
        wx, wy = (type_d._cycle_words(Z.generators, Z.arrows) for Z in (X, Y))
        answered += X != Y and None not in (wx, wy) and wx.keys() == wy.keys()
    return answered


# the nonzero coefficients from one idempotent to another, in search order
COEFFS = {(l, r): [c for c in sorted(NONZERO) if left_idem(c) is l and right_idem(c) is r]
          for l in _UNITS for r in _UNITS}


def every_change(idems):
    """Every (gen, other, coeff) of a valid base change (gen != other and
    coeff from iota(gen) to iota(other)), in search order; type_d's
    _scored_changes, generator by generator, keeps a subsequence of it."""
    names = sorted(idems)
    for gen in names:
        for other in names:
            if other != gen:
                for coeff in COEFFS[idems[gen], idems[other]]:
                    yield gen, other, coeff


def check_graph(G, removed):
    """Assert that the in-place module graph G indexes one edge set: out
    and inc have one entry per live generator, inc mirrors out, diff agrees
    with it, and no edge touches a generator in removed."""
    assert G.out.keys() == G.left.keys() == G.inc.keys()
    edges = {(s, t, lab) for s, out in G.out.items() for t, lab in out}
    assert edges == {(s, t, lab) for t, inc in G.inc.items() for s, lab in inc}
    assert G.diff == sorted((s, t) for s, t, (args, c) in edges
                            if not args and c in _UNITS)
    assert not any(s in removed or t in removed for s, t, _ in edges)
    assert removed.isdisjoint(G.left)


@pytest.fixture(params=FIXTURE_NAMES)
def any_complex(request):
    return load_cfk(request.param)


@pytest.fixture
def five_gen():
    return load_cfk("five_gen")


@pytest.fixture
def trefoil():
    return load_cfk("trefoil_right")
