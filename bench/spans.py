"""Spans and call counts around the public functions of a package.

The traced run replaces each public function of the chosen modules, at
every place in the package that holds it (module globals and module-level
dicts such as ``cli.BUILTINS``), by a wrapper that records one span per
call: name, start, end, parent span and the benchmark item being run.
Spans stay in memory until the run ends.  A layer's self time is its
span's duration minus the durations of its direct children, so the self
times of all spans under one root add up to the root's duration.
"""
from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter, defaultdict

NAME, START, END, PARENT, ITEM, ATTRS = range(6)


def public_functions(module) -> dict:
    """Functions defined in ``module`` whose names do not start with '_'."""
    short = module.__name__.rsplit(".", 1)[-1]
    return {obj: f"{short}.{name}" for name, obj in vars(module).items()
            if inspect.isfunction(obj) and not name.startswith("_")
            and obj.__module__ == module.__name__}


def instrument(package: str, modules, make_wrapper):
    """Replace the public functions of ``modules`` by
    ``make_wrapper(name, fn)`` wherever a module of ``package`` holds
    them.  Returns a function that puts the originals back."""
    wrappers = {}
    for module in modules:
        for fn, name in public_functions(module).items():
            wrappers[fn] = make_wrapper(name, fn)
    undo = []
    holders = [m for n, m in list(sys.modules.items())
               if n == package or n.startswith(package + ".")]
    for module in holders:
        namespace = vars(module)
        dicts = [namespace] + [v for k, v in namespace.items()
                               if isinstance(v, dict) and not k.startswith("__")]
        for holder in dicts:
            for key, obj in list(holder.items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    holder[key] = wrappers[obj]
                    undo.append((holder, key, obj))

    def restore() -> None:
        for holder, key, obj in reversed(undo):
            holder[key] = obj
    return restore


class Tracer:
    """While entered, wraps the public functions of ``modules`` at every
    place in ``package`` that holds them and records their calls as spans
    [name, start, end, parent, item, attrs] under one root span "pass".

    ``attrs`` maps a span name to a function of (args, result) that
    returns a dict of numbers to keep on the span, such as sizes in and
    out; it runs after the span has ended.  Set ``item`` to label the
    spans that follow with the operation being run.
    """

    def __init__(self, package: str, modules, attrs=None):
        self.spans: list[list] = []
        self.item = None
        self._stack: list[int] = []
        self._attrs = attrs or {}
        self._targets = (package, modules)

    def __enter__(self):
        self._restore = instrument(*self._targets, self.wrap)
        self._root = self._open("pass")
        return self

    def __exit__(self, *exc):
        self._close(self._root)
        self._restore()
        return False

    def root_seconds(self) -> float:
        return self._root[END] - self._root[START]

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                self.item, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        extract = self._attrs.get(name)

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if extract is not None:
                span[ATTRS] = extract(args, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def self_times(self) -> list[float]:
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def summary(self):
        """Per span name: calls, self seconds, and summed attrs."""
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        attrs: defaultdict = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            calls[span[NAME]] += 1
            self_s[span[NAME]] += own
            for key, value in (span[ATTRS] or {}).items():
                attrs[f"{span[NAME]}.{key}"] += value
        return calls, self_s, attrs

    def parent_name(self, span: list) -> str | None:
        return self.spans[span[PARENT]][NAME] if span[PARENT] >= 0 else None

    FIELDS = ["id", "name", "start", "end", "parent", "item", "self_s", "attrs"]

    def dump(self, fh, offset: int = 0) -> None:
        """Write one JSON array per span, in the order of ``FIELDS``;
        ids and parents count from ``offset``."""
        for i, (span, own) in enumerate(zip(self.spans, self.self_times())):
            parent = offset + span[PARENT] if span[PARENT] >= 0 else None
            fh.write(json.dumps([offset + i, span[NAME], span[START], span[END],
                                 parent, span[ITEM], own, span[ATTRS]]) + "\n")


class CallCounter:
    """While entered, counts the calls of the public functions of
    ``modules`` wherever ``package`` holds them, by name."""

    def __init__(self, package: str, modules):
        self.counts: Counter = Counter()
        self._targets = (package, modules)

    def _wrap(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        counted.__wrapped__ = fn
        return counted

    def __enter__(self):
        self._restore = instrument(*self._targets, self._wrap)
        return self

    def __exit__(self, *exc):
        self._restore()
        return False
