#!/usr/bin/env python3
"""Benchmark of bhf: one workload per run, every output checked.

    python3 bench/run.py --workload verify-ladder --seed 1 --seconds 25 --trace 0

Runs from the root of a checkout (``src/bhf`` and ``fixtures`` beside
``bench``), using only the standard library.  The run sets its workload
up, then repeats passes over the workload's operations until --seconds
have gone by, and checks each result against a known answer.  A wrong
definite answer ends the run with exit code 1.

--trace 0 reports the end-to-end metrics, measured with tracing off.
--trace 1 alternates untraced and traced passes, then makes one pass
that only counts calls into the algebra layer, and reports the
per-layer metrics; the spans go to bench/traces/<workload>.jsonl.gz.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import gc
import gzip
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from spans import CallCounter, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 7


def _median(values):
    return statistics.median(values) if values else 0.0


def _quartiles(values):
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _percentile(values, p):
    return statistics.quantiles(values, n=100)[p - 1] if len(values) > 1 else values[0]


def _src_lines() -> int:
    return sum(len(p.read_text("utf-8").splitlines())
               for p in sorted((ROOT / "src" / "bhf").glob("*.py")))


# On a shared host the CPU's speed can drift by a quarter or more within
# seconds, and process CPU time drifts with it.  A fixed loop of dict and
# sort work, timed right before and after each stretch of measured work,
# tracks that drift closely.  Every timing is therefore reported at
# reference speed: its wall time times CALIBRATION_REF_S over the mean time
# of the two loops around it.
CALIBRATION_REF_S = 0.02
SEGMENT_S = 0.15  # measured work between two calibration loops


def _calibrate() -> float:
    t0 = time.perf_counter()
    d: dict = {}
    for i in range(60000):
        key = (i % 997, i & 7)
        d[key] = d.get(key, 0) ^ 1
    sorted(d.items())
    return time.perf_counter() - t0


def _at_reference_speed(wall: float, before: float, after: float) -> float:
    return wall * CALIBRATION_REF_S / ((before + after) / 2)


def _set_up(name: str, seed: int, workdir: Path):
    """Import bhf and the workloads afresh, build the workload's inputs
    and write its files.  Returns the workload and the time taken."""
    for module in [m for m in sys.modules
                   if m.split(".")[0] in ("bhf", "workloads", "staircase")]:
        del sys.modules[module]
    gc.collect()
    before = _calibrate()
    t0 = time.perf_counter()
    import workloads
    workload = workloads.WORKLOADS[name](seed, workdir)
    wall = time.perf_counter() - t0
    return workload, _at_reference_speed(wall, before, _calibrate())


class Run:
    """Passes over one workload, with their timings and check outcomes."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.no_match = 0  # permutation-level match misses, see workloads.NO_MATCH
        self.reported: set[str] = set()
        self.pass_s: list[float] = []
        self.wall_pass_s: list[float] = []
        self.item_s: list[float] = []
        self.largest_s: list[float] = []

    def one_pass(self, probe=None) -> float:
        """Run the operations of one pass, then check their results.

        ``probe``, a Tracer or a CallCounter, is entered around the
        operations only, not around the checks.  Returns the pass time at
        reference speed, the sum of its item times; with a probe there are
        no calibration loops and the time is wall-clock."""
        items = self.workload.items()
        gc.collect()  # garbage of the previous pass is not this pass's cost
        results, stretch, wall = [], [], 0.0
        before = None if probe else _calibrate()
        with probe or nullcontext():
            for item in items:
                if isinstance(probe, Tracer):
                    probe.item = item.name
                t0 = time.perf_counter()
                try:
                    result, error = item.run(), None
                except Exception as e:  # an operation that raised counts as failed
                    result, error = None, e
                results.append([item, time.perf_counter() - t0, result, error])
                stretch.append(results[-1])
                wall += results[-1][1]
                if before is not None and (item is items[-1] or
                                           sum(r[1] for r in stretch) >= SEGMENT_S):
                    after = _calibrate()
                    for r in stretch:
                        r[1] = _at_reference_speed(r[1], before, after)
                    stretch, before = [], after
        elapsed = sum(r[1] for r in results)
        if probe is None:
            self.wall_pass_s.append(wall)
        from workloads import NO_MATCH  # of the latest fresh import

        for item, seconds, result, error in results:
            self.attempted += 1
            self.item_s.append(seconds)
            if item.largest:
                self.largest_s.append(seconds)
            if error is not None:
                self._report(item.name, "failed: " + "".join(
                    traceback.format_exception_only(type(error), error)).strip())
                self.failed += 1
                continue
            outcome = item.check(result)
            if outcome == NO_MATCH:
                self._report(item.name, NO_MATCH)
                self.no_match += 1
            elif not outcome:
                self._report(item.name, "failed: no verdict")
                self.failed += 1
        return elapsed

    def _report(self, name: str, what: str) -> None:
        if name not in self.reported:
            self.reported.add(name)
            print(f"{name}: {what}", file=sys.stderr)


def _end_to_end(run: Run, setup_s: list[float]) -> dict:
    return {
        "setup_s": (_median(setup_s), "s", setup_s),
        "pass_s": (_median(run.pass_s), "s", run.pass_s),
        "largest_s": (_median(run.largest_s), "s", run.largest_s),
        "item_s.p50": (_percentile(run.item_s, 50), "s", None),
        "item_s.p90": (_percentile(run.item_s, 90), "s", None),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                         "MiB", None),
    }


def _traced(run: Run, seconds: float, trace_path: Path) -> dict:
    """Alternate untraced and traced passes, then count algebra calls."""
    import layers

    untraced, traced, per_pass = [], [], []
    deadline = time.perf_counter() + seconds
    offset = 0
    with gzip.open(trace_path, "wt", encoding="utf-8") as fh:
        fh.write(json.dumps({"fields": Tracer.FIELDS}) + "\n")
        while not traced or time.perf_counter() < deadline:
            untraced.append(run.one_pass())
            tracer = Tracer("bhf", layers.SPAN_MODULES, layers.SPAN_ATTRS)
            before = _calibrate()
            run.one_pass(tracer)
            scale = _at_reference_speed(1.0, before, _calibrate())
            pass_s = tracer.root_seconds()
            own = sum(tracer.self_times())
            if abs(own - pass_s) > 1e-6 * max(pass_s, 1.0):
                raise AssertionError(f"self times sum to {own} s, pass took {pass_s} s")
            # self times are scaled like the pass, so they still add up to it
            traced.append(pass_s * scale)
            per_pass.append({k: v * scale if k.endswith(".self_s") else v
                             for k, v in layers.traced_metrics(tracer).items()})
            tracer.dump(fh, offset)
            offset += len(tracer.spans)
        counter = CallCounter("bhf", layers.COUNT_MODULES)
        run.one_pass(counter)
        counts = counter.counts
        fh.write(json.dumps({"counts": dict(sorted(counts.items()))}) + "\n")
    metrics = {name: [m[name] for m in per_pass] for name in per_pass[0]}
    metrics["algebra.multiply.calls"] = [counts["algebra.multiply"]]
    metrics["trace.overhead_ratio"] = [t / u for t, u in zip(traced, untraced)]
    print(f"trace: {len(traced)} traced passes, median {_median(traced):.4f} s; "
          f"{len(untraced)} untraced, median {_median(untraced):.4f} s; "
          f"wall-clock spans in {trace_path.relative_to(ROOT)}")
    units = {name: unit for name, unit, _ in layers.PER_LAYER}
    return {name: (_median(metrics[name]), units[name], metrics[name])
            for name, _, _ in layers.PER_LAYER}


def _print_table(metrics: dict, n_items: int) -> None:
    """Median with quartiles and sample count; the item percentiles come
    from all n_items item times, peak RSS is one reading."""
    print(f"{'metric':40} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} {'n':>5}")
    for name, (value, unit, samples) in metrics.items():
        if samples is None:
            n = n_items if name.startswith("item_s.") else 1
            print(f"{name:40} {unit:6} {value:12.6g} {'-':>12} {'-':>12} {n:5d}")
            continue
        q1, q3 = _quartiles(samples)
        print(f"{name:40} {unit:6} {value:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{len(samples):5d}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "bhf").is_dir() or not (ROOT / "fixtures").is_dir():
        print(f"error: {ROOT} holds no src/bhf and fixtures to benchmark",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; "
                f"choose from {', '.join(workloads.WORKLOADS)}")

    workdir = BENCH / ".work" / f"{args.workload}-{os.getpid()}"
    correct, metrics, run = True, {}, None
    try:
        setup_s = []
        for i in range(SETUP_REPEATS):
            (workdir / f"setup{i}").mkdir(parents=True)
            workload = None  # free the previous set-up's inputs first
            workload, seconds = _set_up(args.workload, args.seed, workdir / f"setup{i}")
            setup_s.append(seconds)
        run = Run(workload)
        # A user's command starts with a small heap; keep the inputs held
        # for the whole run out of the collector's full passes.
        gc.collect()
        gc.freeze()
        if args.trace:
            (BENCH / "traces").mkdir(exist_ok=True)
            metrics = _traced(run, args.seconds,
                              BENCH / "traces" / f"{args.workload}.jsonl.gz")
        else:
            deadline = time.perf_counter() + args.seconds
            while not run.pass_s or time.perf_counter() < deadline:
                run.pass_s.append(run.one_pass())
            metrics = _end_to_end(run, setup_s)
    # the class of the latest fresh import, evaluated when something is raised
    except sys.modules["workloads"].WrongAnswer as e:
        print(f"wrong answer: {e}", file=sys.stderr)
        correct = False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted, failed, no_match = ((run.attempted, run.failed, run.no_match)
                                   if run else (0, 0, 0))

    # failed_ratio counts the match misses with the failures; the JSON
    # field "failed" counts only operations that raised or were inconclusive
    print(f"workload {args.workload}  seed {args.seed}  attempted {attempted}  "
          f"failed {failed}  no_match {no_match}  "
          f"failed_ratio {(failed + no_match) / max(attempted, 1):.4f}")
    _print_table(metrics, len(run.item_s) if run else 0)
    if run and run.wall_pass_s:
        print(f"times are at reference speed (calibration loop {CALIBRATION_REF_S} s); "
              f"unscaled pass_s median {_median(run.wall_pass_s):.6g} s")
    print(f"info: src_lines={_src_lines()} python={platform.python_version()} "
          f"nproc={len(os.sched_getaffinity(0))}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
