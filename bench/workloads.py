"""The benchmark's workloads: inputs made from a seed, operations, known answers.

Each workload builds its inputs once (``setup``) and then hands out the
operations of one pass (``items``).  An operation's result is checked
after the pass, outside the timed and traced region.  A check returns
True for the known answer, NO_MATCH when a permutation-level match
search found no mapping between modules known to be isomorphic, and
False for a failed operation (an inconclusive verdict).  It raises
WrongAnswer for a definite answer that contradicts the known one.
"""
from __future__ import annotations

import io
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

from bhf import cfk, cli, io_formats, ktd, type_d, type_da
from bhf.algebra import AlgebraElement, is_idempotent, multiply

from staircase import mirror, torus_knot

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"
FIXTURES = ["unknot", "trefoil_right", "trefoil_left", "figure_eight", "five_gen"]


class WrongAnswer(Exception):
    """An output that contradicts the known answer."""


# isomorphic_d and isomorphic_da only try generator permutations, so two
# isomorphic modules that differ by a base change get None.  That is the
# functions' documented answer, not a failed operation; the run counts
# these misses apart from failures and prints them.
NO_MATCH = "no permutation match"


@dataclass
class Item:
    name: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    largest: bool = False


def _load_fixture(name: str) -> cfk.KnotComplex:
    return io_formats.parse_cfk((FIXTURE_DIR / f"{name}.cfk.json").read_text("utf-8"))


def _valid_staircase(C: cfk.KnotComplex) -> cfk.KnotComplex:
    bad = cfk.validate(C)
    if bad:
        raise WrongAnswer(f"generated complex is invalid: {bad[0]}")
    return C


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def _genus(p: int, q: int) -> int:
    return (p - 1) * (q - 1) // 2


def _cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue() + err.getvalue()


def _verified(result) -> bool:
    code, text = result
    if code == 0 and text.startswith("verified"):
        return True
    if code == 3:  # inconclusive: the match search found no witness
        return False
    raise WrongAnswer(f"verify exited {code}: {text.strip()}")


def _exits(expected: int, result) -> bool:
    code, text = result
    if code != expected:
        raise WrongAnswer(f"exit {code}, expected {expected}: {text.strip()[:200]}")
    return True


def _is_iso_d(M, N, mapping: dict) -> bool:
    """Whether ``mapping`` carries M's generators and arrows onto N's."""
    gm, gn = dict(M.generators), dict(N.generators)
    return (sorted(mapping) == sorted(gm) and sorted(mapping.values()) == sorted(gn)
            and all(gm[x] is gn[y] for x, y in mapping.items())
            and {(mapping[a.source], mapping[a.target], a.label) for a in M.arrows}
            == {(a.source, a.target, a.label) for a in N.arrows})


def _is_iso_da(B, C, mapping: dict) -> bool:
    gb = {n: (l, r) for n, l, r in B.generators}
    gc = {n: (l, r) for n, l, r in C.generators}
    return (sorted(mapping) == sorted(gb) and sorted(mapping.values()) == sorted(gc)
            and all(gb[x] == gc[y] for x, y in mapping.items())
            and {(mapping[a.source], a.args, a.coeff, mapping[a.target])
                 for a in B.actions}
            == {(a.source, a.args, a.coeff, a.target) for a in C.actions})


def _matched(is_iso, reference, result):
    module, mapping = result
    if mapping is None:  # known answer "isomorphic", but no permutation found
        return NO_MATCH
    if not is_iso(module, reference, mapping):
        raise WrongAnswer("returned mapping is not an isomorphism")
    return True


class Workload:
    """Builds its inputs in ``setup`` and writes any files to ``workdir``;
    ``items`` returns the operations of the next pass.  Both draw only
    from the seeded generator, so a seed fixes every pass of a run."""

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.setup()

    def setup(self) -> None:
        raise NotImplementedError

    def items(self) -> list[Item]:
        raise NotImplementedError


class VerifyLadder(Workload):
    """``bhf verify`` in process: fixtures, positive and mirrored torus
    knots, and the basis algorithm on the positive ladder."""
    LADDER = [(2, 3), (2, 5), (3, 4)]
    LARGEST = "verify T(3,4)"

    def setup(self):
        self.cases = [(f"verify {f}", ["verify", str(FIXTURE_DIR / f"{f}.cfk.json")])
                      for f in FIXTURES]
        for p, q in self.LADDER:
            C = _valid_staircase(torus_knot(p, q))
            pos = _write(self.workdir / f"T{p}_{q}.cfk.json", io_formats.write_cfk(C))
            neg = _write(self.workdir / f"mirror_T{p}_{q}.cfk.json",
                         io_formats.write_cfk(_valid_staircase(mirror(C))))
            self.cases += [(f"verify T({p},{q})", ["verify", pos]),
                           (f"verify mirror T({p},{q})", ["verify", neg]),
                           (f"verify --algo basis T({p},{q})",
                            ["verify", pos, "--algo", "basis"])]

    def items(self):
        order = self.rng.sample(self.cases, len(self.cases))
        return [Item(name, partial(_cli, argv), _verified, name == self.LARGEST)
                for name, argv in order]


class ReduceLarge(Workload):
    """H ⊠ CFD(T(p,q)), lexicographic reduction, write/parse round trip."""
    LADDER = [(3, 4), (3, 5), (4, 5)]

    def setup(self):
        self.knots = {pq: _valid_staircase(torus_knot(*pq)) for pq in self.LADDER}

    @staticmethod
    def _op(C):
        R, _ = type_d.reduce_d(type_da.box_da_d(type_da.builtin_H(), ktd.ktd_basefree(C)))
        text = io_formats.write_typed(R)
        return R, text, io_formats.write_typed(io_formats.parse_typed(text))

    @staticmethod
    def _check(expected: int, result) -> bool:
        R, text, again = result
        bad = type_d.validate_d(R)
        if bad:
            raise WrongAnswer(f"reduced module is invalid: {bad[0]}")
        if any(is_idempotent(a.label) for a in R.arrows):
            raise WrongAnswer("reduced module keeps an idempotent arrow")
        if (len(R.generators), len(R.arrows)) != (expected, expected):
            raise WrongAnswer(f"{len(R.generators)} generators and {len(R.arrows)} "
                              f"arrows, expected {expected} of each")
        if text != again:
            raise WrongAnswer("write, parse, write changed the bytes")
        return True

    def items(self):
        order = self.rng.sample(self.LADDER, len(self.LADDER))
        # staircase generators + 8g + 3 generators and as many arrows
        return [Item(f"reduce T({p},{q})", partial(self._op, self.knots[p, q]),
                     partial(self._check,
                             len(self.knots[p, q].generators) + 8 * _genus(p, q) + 3),
                     (p, q) == self.LADDER[-1])
                for p, q in order]


def _twist_chain(length: int) -> type_da.TypeDAModule:
    """Box product τ_μ ⊠ τ_λ ⊠ τ_μ ⊠ ... of ``length`` alternating twists."""
    factors = [type_da.builtin_tau_mu(), type_da.builtin_tau_lambda()]
    prod = type_da.box_da_da(factors[0], factors[1])
    for i in range(2, length):
        prod = type_da.box_da_da(prod, factors[i % 2])
    return prod


class Confluence(Workload):
    """Many small reductions under random orders, each compared with a
    reference: type D modules of the fixtures, and the sixfold twist
    product against the involution bimodule H."""
    SEEDS_PER_PASS = 8
    H_CANCELLATIONS = 13

    def setup(self):
        self.modules = {}
        for f in FIXTURES:
            D = ktd.ktd_basefree(_load_fixture(f))
            self.modules[f] = D, type_d.minimize_d(type_d.reduce_d(D)[0])
        self.H = type_da.builtin_H()
        self.script = io_formats.parse_script(
            (FIXTURE_DIR / "h_cancellations.script").read_text("utf-8"))

    def _reduce_d(self, fixtures: list[str], seed: int):
        out = []
        for f in fixtures:
            D, reference = self.modules[f]
            R = type_d.minimize_d(type_d.reduce_d(D, seed)[0])
            out.append((R, type_d.isomorphic_d(R, reference)))
        return out

    def _matched_d(self, fixtures: list[str], results):
        outcomes = [_matched(_is_iso_d, self.modules[f][1], r)
                    for f, r in zip(fixtures, results)]
        return NO_MATCH if NO_MATCH in outcomes else True

    def _reduce_da(self, chain: dict, order):
        R, trace = type_da.reduce_da(chain["sixfold"], order)
        chain["cancellations"] = len(trace.pairs)
        return R, type_da.isomorphic_da(R, self.H)

    def _check_script(self, chain: dict, result):
        if chain["cancellations"] != self.H_CANCELLATIONS:
            raise WrongAnswer(f"script replay made {chain['cancellations']} "
                              f"cancellations, expected {self.H_CANCELLATIONS}")
        return _matched(_is_iso_da, self.H, result)

    def items(self):
        chain: dict = {}

        def build():
            chain["sixfold"] = _twist_chain(6)
            return chain["sixfold"]

        out = [Item("build sixfold twist", build, lambda _: True),
               Item("replay H script", partial(self._reduce_da, chain, self.script),
                    partial(self._check_script, chain))]
        # five_gen alone, the four small fixtures together, and the sixfold
        # product: three item sizes, so that the percentiles of item times
        # fall inside a size class rather than on an edge between two
        for _ in range(self.SEEDS_PER_PASS):
            seed = self.rng.randrange(2 ** 31)
            for group in (FIXTURES[-1:], FIXTURES[:-1]):
                out.append(Item(f"reduce_d {'+'.join(group)} seed {seed}",
                                partial(self._reduce_d, group, seed),
                                partial(self._matched_d, group), group == ["five_gen"]))
            out.append(Item(f"reduce_da sixfold seed {seed}",
                            partial(self._reduce_da, chain, seed),
                            partial(_matched, _is_iso_da, self.H)))
        return out


class ValidateLoad(Workload):
    """``bhf validate`` in process on large and A-infinity-heavy documents,
    and on three corrupted controls."""
    KNOT = (7, 8)

    def setup(self):
        H = type_da.builtin_H()
        twist3 = _twist_chain(3)
        C = _valid_staircase(torus_knot(*self.KNOT))
        cfd = ktd.ktd_basefree(C)
        box = type_da.box_da_d(H, cfd)
        docs = {  # name: (text, expected exit code)
            "H": (io_formats.write_typeda(H), 0),
            "twist2": (io_formats.write_typeda(_twist_chain(2)), 0),
            "twist3": (io_formats.write_typeda(twist3), 0),
            "cfd_T78": (io_formats.write_typed(cfd), 0),
            "box_T78": (io_formats.write_typed(box), 0),
            "cfk_T78": (io_formats.write_cfk(C), 0),
            "twist3_minus_action": (io_formats.write_typeda(_drop_action(twist3)), 1),
            "box_T78_minus_arrow": (io_formats.write_typed(_drop_arrow(box)), 1),
            "cfk_T78_maslov": (io_formats.write_cfk(_break_maslov(C)), 1),
        }
        self.cases = [(name, _write(self.workdir / f"{name}.json", text), code)
                      for name, (text, code) in docs.items()]

    def items(self):
        order = self.rng.sample(self.cases, len(self.cases))
        return [Item(f"validate {name}", partial(_cli, ["validate", path]),
                     partial(_exits, code), name == "box_T78")
                for name, path, code in order]


def _drop_action(B: type_da.TypeDAModule) -> type_da.TypeDAModule:
    """B minus its first action whose output composes with a differential
    leaving its target, so the A-infinity relation at that action's
    inputs gets an odd count."""
    for act in B.actions:
        if any(not nxt.args and nxt.source == act.target
               and multiply(act.coeff, nxt.coeff) is not AlgebraElement.ZERO
               for nxt in B.actions):
            return type_da.make_da(B.generators, [a for a in B.actions if a != act])
    raise ValueError("no action composes with a differential")


def _drop_arrow(M: type_d.TypeDModule) -> type_d.TypeDModule:
    """M minus its first idempotent arrow x -> y with an arrow out of y,
    which leaves an odd count in d^2 from x."""
    sources = {a.source for a in M.arrows}
    for arr in M.arrows:
        if is_idempotent(arr.label) and arr.target in sources:
            return type_d.make_module(M.generators, [a for a in M.arrows if a != arr])
    raise ValueError("no idempotent arrow is followed by another")


def _break_maslov(C: cfk.KnotComplex) -> cfk.KnotComplex:
    """Add x0 -> x2 with U^0 to a staircase: its Maslov drop is twice the
    first step of the staircase, never 1."""
    return cfk.make_complex(C.generators, C.arrows + (cfk.KnotArrow("x0", "x2", 0),))


WORKLOADS = {
    "verify-ladder": VerifyLadder,
    "reduce-large": ReduceLarge,
    "confluence": Confluence,
    "validate-load": ValidateLoad,
}
