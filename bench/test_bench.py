"""Tests of the benchmark's own parts: the torus-knot ladder, the controls
of validate-load, span accounting, and agreement with BENCHMARK.json.

    python3 -m pytest bench
"""
import json
import sys
import time
import types
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import pytest  # noqa: E402

from bhf import cfk, io_formats, type_d, type_da  # noqa: E402

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import CallCounter, Tracer  # noqa: E402
from staircase import alexander_exponents, mirror, torus_knot  # noqa: E402

KNOTS = sorted(set(workloads.VerifyLadder.LADDER + workloads.ReduceLarge.LADDER
                   + [workloads.ValidateLoad.KNOT]))


def _fixture(name):
    return io_formats.parse_cfk((ROOT / "fixtures" / f"{name}.cfk.json").read_text())


def _up_to_names(C):
    """Generators and arrows with names replaced by the rank in the
    (Alexander, Maslov) order; staircase gradings are all distinct."""
    order = sorted(C.generators, key=lambda g: (g.alexander, g.maslov))
    rank = {g.name: i for i, g in enumerate(order)}
    return ([(g.alexander, g.maslov) for g in order],
            sorted((rank[a.source], rank[a.target], a.u_power) for a in C.arrows))


@pytest.mark.parametrize("p,q", KNOTS)
def test_torus_knot_is_valid_with_tau_plus_and_minus_genus(p, q):
    g = (p - 1) * (q - 1) // 2
    positive_sign = cfk.tau(_fixture("trefoil_right"))
    C = torus_knot(p, q)
    assert cfk.validate(C) == []
    assert cfk.tau(C) == g * positive_sign
    assert cfk.validate(mirror(C)) == []
    assert cfk.tau(mirror(C)) == -g * positive_sign


def test_alexander_polynomial_of_small_torus_knots():
    assert alexander_exponents(2, 3) == [1, 0, -1]
    assert alexander_exponents(3, 4) == [3, 2, 0, -2, -3]
    for p, q in KNOTS:
        exps = alexander_exponents(p, q)
        assert exps == [-e for e in reversed(exps)]   # symmetric
        assert len(exps) % 2 == 1                     # Δ(1) = 1


def test_trefoils_match_the_fixtures_up_to_names():
    assert _up_to_names(torus_knot(2, 3)) == _up_to_names(_fixture("trefoil_right"))
    assert _up_to_names(mirror(torus_knot(2, 3))) == _up_to_names(_fixture("trefoil_left"))


def test_validate_load_controls_are_invalid():
    C = torus_knot(*workloads.ValidateLoad.KNOT)
    assert any("Maslov" in e for e in cfk.validate(workloads._break_maslov(C)))
    twist3 = workloads._twist_chain(3)
    assert type_da.validate_da(twist3) == []
    assert type_da.validate_da(workloads._drop_action(twist3)) != []
    box = type_da.box_da_d(type_da.builtin_H(), workloads.ktd.ktd_basefree(C))
    assert type_d.validate_d(workloads._drop_arrow(box)) != []


def test_a_permutation_miss_is_counted_apart_from_failures():
    class Toy:
        def items(self):
            return [workloads.Item("miss", lambda: (None, None),
                                   partial(workloads._matched, None, None)),
                    workloads.Item("raises", lambda: 1 / 0, lambda _: True),
                    workloads.Item("inconclusive", lambda: (3, "inconclusive"),
                                   workloads._verified)]

    r = run.Run(Toy())
    r.one_pass()
    assert (r.attempted, r.failed, r.no_match) == (3, 2, 1)
    with pytest.raises(workloads.WrongAnswer):
        workloads._verified((1, "not verified"))


@pytest.fixture
def toy_package():
    """A package ``toy`` whose ``outer`` calls ``inner`` through a name
    imported into another module, as bhf's modules do."""
    pkg, low, high = (types.ModuleType(n) for n in ("toy", "toy.low", "toy.high"))

    def inner(x):
        time.sleep(0.002)
        return x + 1

    def outer(x):
        time.sleep(0.002)
        return high.inner(x) * 2

    inner.__module__, outer.__module__ = "toy.low", "toy.high"
    low.inner, high.inner, high.outer = inner, inner, outer
    high.TABLE = {"inner": inner}
    sys.modules.update({"toy": pkg, "toy.low": low, "toy.high": high})
    yield low, high
    for name in ("toy", "toy.low", "toy.high"):
        del sys.modules[name]


def test_spans_nest_and_self_times_add_up(toy_package):
    low, high = toy_package
    original = low.inner
    tracer = Tracer("toy", [low, high],
                    {"high.outer": lambda args, result: {"out": result}})
    with tracer:
        assert high.inner is not original and high.TABLE["inner"] is high.inner
        tracer.item = "item-1"
        assert high.outer(1) == 4
    assert low.inner is original and high.inner is original
    assert high.TABLE["inner"] is original

    names = [s[0] for s in tracer.spans]
    assert names == ["pass", "high.outer", "low.inner"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 1]
    assert tracer.spans[2][4] == "item-1"
    own = tracer.self_times()
    assert sum(own) == pytest.approx(tracer.root_seconds(), abs=1e-9)
    assert 0.0015 < own[1] < tracer.spans[1][2] - tracer.spans[1][1]
    calls, self_s, attrs = tracer.summary()
    assert calls["low.inner"] == 1 and attrs["high.outer.out"] == 4


def test_call_counter_counts_every_call(toy_package):
    low, high = toy_package
    with CallCounter("toy", [low]) as counter:
        high.outer(1)
        high.TABLE["inner"](1)
    assert counter.counts == {"low.inner": 2}
    high.outer(1)
    assert counter.counts == {"low.inner": 2}


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        layers.PER_LAYER
    r = run.Run(workload=None)
    r.pass_s, r.item_s, r.largest_s = [1.0, 2.0], [0.5, 1.5], [1.5]
    emitted = {n: unit for n, (_, unit, _) in run._end_to_end(r, [0.1, 0.2]).items()}
    assert emitted == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["paths"] == ["bench"]
