"""The elliptic involution as a rotation of letters: an oracle for the box
with H that does not box.

In Hanselman-Rasmussen-Watson's reading of a reduced type D module as an
immersed curve in the punctured torus (arXiv 1604.03466), the elliptic
involution rotates the curve by pi about the puncture.  That moves
boundary arc i to arc i + 2: rho1 and rho3 trade places, a corner at rho2
reads as rho123 from the other side and the other way round, so those
arrows reverse, and rho12 and rho23 keep their label and reverse.  On a
loop-type module, where every generator meets two arrow ends, of arrows
to two other generators, this letter map R is the module that H boxes it
to; off loop-type modules R is no module at all (it is no algebra map:
rho1 rho2 = rho12, but rho3 rho123 = 0).
"""
import random

from bhf import cfk, ktd, type_d, type_da
from bhf.algebra import AlgebraElement as A
from conftest import FIXTURE_NAMES, boxed_complex, load_cfk, random_complex
from staircase import mirror, torus_knot

# the label R gives an arrow, and whether R reverses it; idempotents stay
_ROTATED = {A.R1: (A.R3, False), A.R3: (A.R1, False),
            A.R2: (A.R123, True), A.R123: (A.R2, True),
            A.R12: (A.R12, True), A.R23: (A.R23, True)}


def rotate(M):
    """R(M): the letter rotation of each arrow of M."""
    arrows = []
    for s, t, c in M.arrows:
        label, reverse = _ROTATED[c]
        arrows.append(type_d.DArrow(*((t, s) if reverse else (s, t)), label))
    return type_d.make_module(M.generators, arrows)


def loop_type(M) -> bool:
    """Whether every generator meets two arrow ends, of arrows to two
    other generators: no loop, no 2-cycle, no other valence."""
    ends = {n: [] for n, _ in M.generators}
    for s, t, _ in M.arrows:
        ends[s].append(t)
        ends[t].append(s)
    return all(len(set(e)) == len(e) == 2 and n not in e for n, e in ends.items())


def _minimal(M):
    return type_d.minimize_d(type_d.reduce_d(M)[0])


def _knots():
    """The fixtures and T(2,3) ... T(7,8) with their mirrors: (name,
    complex) pairs."""
    knots = [(name, load_cfk(name)) for name in FIXTURE_NAMES]
    for p in range(2, 8):
        knots += [(f"T({p},{p + 1})", torus_knot(p, p + 1)),
                  (f"mirror T({p},{p + 1})", mirror(torus_knot(p, p + 1)))]
    return knots


def _cycle(k: int):
    """k iota1 generators joined in a cycle of rho23 arrows."""
    return type_d.make_module([(f"s{i}", A.I1) for i in range(k)],
                              [type_d.DArrow(f"s{i}", f"s{(i + 1) % k}", A.R23) for i in range(k)])


def _twisted(name: str, M):
    """M, and M boxed with tau_mu, with tau_lambda, and with tau_mu then
    tau_lambda, minimised after each box: (name, module) pairs."""
    mu, lam = type_da.builtin_tau_mu(), type_da.builtin_tau_lambda()
    boxed_mu = _minimal(type_da.box_da_d(mu, M))
    yield name, M
    yield f"{name} tau_mu", boxed_mu
    yield f"{name} tau_lambda", _minimal(type_da.box_da_d(lam, M))
    yield f"{name} tau_mu tau_lambda", _minimal(type_da.box_da_d(lam, boxed_mu))


_ALGOS = (("basefree", ktd.ktd_basefree), ("basis", ktd.ktd_basis))


def _sample():
    """The rho23 cycles of length 1 to 6, and the complexes of _knots, each
    built with both algorithms, reduced and minimised, then _twisted."""
    for k in range(1, 7):
        yield f"rho23 cycle of length {k}", _cycle(k)
    for name, C in _knots():
        for algo, build in _ALGOS:
            yield from _twisted(f"{name} {algo}", _minimal(build(C)))


def _misses(loops) -> list:
    """The names of the (name, module) pairs on which R is no module or not
    the module that H boxes it to."""
    H = type_da.builtin_H()
    return [name for name, N in loops
            if type_d.validate_d(rotate(N))
            or type_d.isomorphic_d(rotate(N), _minimal(type_da.box_da_d(H, N))) is None]


def test_rotation_is_the_box_with_h_on_loop_type_modules():
    # the rho23 cycles of length 1 and 2 are a loop and a 2-cycle, outside
    # the guard, but R reverses them as H does too
    sample = list(_sample())
    loops = [(name, N) for name, N in sample if loop_type(N) or name.startswith("rho23 cycle")]
    assert (len(sample), len(loops)) == (142, 138)
    assert _misses(loops) == []


def test_rotation_is_the_box_with_h_on_the_corpora():
    # three seeded draws of each fixture from each corpus, built with both
    # algorithms, reduced and minimised, then _twisted; a random draw may be
    # no knot complex, and then both constructions refuse it
    rng, sample, refused = random.Random(15), [], []
    for name in FIXTURE_NAMES:
        for make, seeds in ((random_complex, range(200)), (boxed_complex, range(300))):
            for seed in sorted(rng.sample(seeds, 3)):
                draw, C = f"{make.__name__}({name!r}, {seed})", make(name, seed)
                for algo, build in _ALGOS:
                    try:
                        M = _minimal(build(C))
                    except ValueError:
                        refused.append(f"{draw} {algo}")
                        continue
                    sample += _twisted(f"{draw} {algo}", M)
    loops = [(name, N) for name, N in sample if loop_type(N)]
    assert (len(sample), len(loops)) == (208, 192)
    assert _misses(loops) == []
    assert refused == [f"random_complex({name!r}, {seed}) {algo}"
                       for name, seed in (("unknot", 133), ("trefoil_left", 119),
                                          ("figure_eight", 88), ("five_gen", 186))
                       for algo, _ in _ALGOS]


def test_rotation_breaks_d_squared_off_loop_type_modules():
    # the negative control: a twisted five_gen module keeps a generator of
    # another valence, and R of it is no type D module
    M = _minimal(ktd.ktd_basefree(load_cfk("five_gen")))
    N = type_d.reduce_d(type_da.box_da_d(type_da.builtin_tau_lambda(), M))[0]
    assert not loop_type(N)
    assert type_d.validate_d(N) == []
    assert type_d.validate_d(rotate(N)) != []


def test_rotation_carries_one_basis_construction_onto_the_other():
    # R of the basis construction of a simultaneously simplified Cs is a
    # permutation of the construction of flip(Cs), with no reduction, on
    # either side of n = 2*tau and at it; a complex whose simplification
    # does not converge, or whose construction refuses it, would be skipped
    checked, skipped = 0, []
    for name, C in _knots():
        Cs = cfk.simultaneous_simplify(C)
        if Cs is None:
            skipped.append(f"{name}: simplification did not converge")
            continue
        two_tau = ktd.ktd_basis(Cs).tags[ktd.META]["framing"] + 3
        for n in (two_tau - 2, two_tau - 1, two_tau, two_tau + 1):
            assert type_d.isomorphic_d(rotate(ktd.ktd_basis(Cs, n)),
                                       ktd.ktd_basis(cfk.flip(Cs), n)) is not None, (name, n)
            checked += 1
    assert (checked, skipped) == (68, [])
