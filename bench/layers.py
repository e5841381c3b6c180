"""Per-layer metrics of one traced pass, named after the bhf modules.

Spans wrap the public functions of ``SPAN_MODULES``; the algebra layer is
only counted, in a pass of its own, because its functions run millions
of times and spans around them would distort every other span.
"""
from __future__ import annotations

from collections import Counter

from bhf import algebra, cfk, cli, io_formats, ktd, type_d, type_da

from spans import ATTRS, NAME, Tracer, public_functions

SPAN_MODULES = (cfk, ktd, type_d, type_da, io_formats, cli)
COUNT_MODULES = (algebra,)


def _out_sizes(args, module):
    return {"gens_out": len(module.generators), "arrows_out": len(module.arrows)}


SPAN_ATTRS = {
    "type_d.reduce_d": lambda a, r: {"gens_in": len(a[0].generators),
                                     "arrows_in": len(a[0].arrows),
                                     "gens_out": len(r[0].generators)},
    "type_d.minimize_d": lambda a, r: {"arrows_removed": len(a[0].arrows) - len(r.arrows)},
    "type_d.base_change": lambda a, r: {"useful": int(len(r.arrows) < len(a[0].arrows))},
    "type_d.isomorphic_d": lambda a, r: {"hits": int(r is not None)},
    "type_da.validate_da": lambda a, r: {"actions_in": len(a[0].actions)},
    "type_da.box_da_da": lambda a, r: {"actions_out": len(r.actions)},
    "type_da.box_da_d": _out_sizes,
    "ktd.ktd_basefree": _out_sizes,
}
for _name in public_functions(io_formats).values():
    if _name.startswith("io_formats.parse_"):
        SPAN_ATTRS[_name] = lambda a, r: {"bytes_in": len(a[0].encode("utf-8"))}
    elif _name.startswith("io_formats.write_"):
        SPAN_ATTRS[_name] = lambda a, r: {"bytes_out": len(r.encode("utf-8"))}

# name, unit, better; the order in which the traced run reports them
PER_LAYER = [
    ("type_d.minimize_d.self_s", "s", "lower"),
    ("type_d.minimize_d.arrows_removed", "count", "lower"),
    ("type_d.minimize_d.useful_ratio", "ratio", "higher"),
    ("type_d.base_change.calls.minimize", "count", "lower"),
    ("type_d.base_change.self_s", "s", "lower"),
    ("ktd.verify_elliptic_invariance.self_s", "s", "lower"),
    ("type_d.base_change.calls.match", "count", "lower"),
    ("type_d.isomorphic_d.calls", "count", "lower"),
    ("type_d.isomorphic_d.self_s", "s", "lower"),
    ("type_d.isomorphic_d.hit_ratio", "ratio", "higher"),
    ("type_d.reduce_d.self_s", "s", "lower"),
    ("type_d.reduce_d.gens_in", "count", "lower"),
    ("type_d.reduce_d.arrows_in", "count", "lower"),
    ("type_d.reduce_d.gens_out", "count", "lower"),
    ("type_d.cancel.calls", "count", "lower"),
    ("type_d.cancel.self_s", "s", "lower"),
    ("type_da.validate_da.self_s", "s", "lower"),
    ("type_da.validate_da.actions_in", "count", "lower"),
    ("type_da.box_da_da.self_s", "s", "lower"),
    ("type_da.box_da_da.actions_out", "count", "lower"),
    ("type_da.reduce_da.self_s", "s", "lower"),
    ("type_da.cancel_da.calls", "count", "lower"),
    ("type_da.isomorphic_da.self_s", "s", "lower"),
    ("type_da.box_da_d.self_s", "s", "lower"),
    ("type_da.box_da_d.gens_out", "count", "lower"),
    ("type_da.box_da_d.arrows_out", "count", "lower"),
    ("ktd.ktd_basefree.self_s", "s", "lower"),
    ("ktd.ktd_basefree.gens_out", "count", "lower"),
    ("ktd.ktd_basefree.arrows_out", "count", "lower"),
    ("ktd.ktd_basis.self_s", "s", "lower"),
    ("cfk.validate.self_s", "s", "lower"),
    ("cfk.reduce.self_s", "s", "lower"),
    ("cfk.simultaneous_simplify.self_s", "s", "lower"),
    ("io_formats.parse.self_s", "s", "lower"),
    ("io_formats.write.self_s", "s", "lower"),
    ("io_formats.bytes_in", "B", "lower"),
    ("io_formats.bytes_out", "B", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("algebra.multiply.calls", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def traced_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric that one traced pass gives (all but the
    algebra count and the overhead ratio)."""
    calls, self_s, attrs = tracer.summary()
    base_change_by_parent: Counter = Counter()
    useful_in_minimize = 0
    for span in tracer.spans:
        if span[NAME] == "type_d.base_change":
            parent = tracer.parent_name(span)
            base_change_by_parent[parent] += 1
            if parent == "type_d.minimize_d" and span[ATTRS]:
                useful_in_minimize += span[ATTRS]["useful"]
    in_minimize = base_change_by_parent["type_d.minimize_d"]
    out = {
        "type_d.minimize_d.useful_ratio": _ratio(useful_in_minimize, in_minimize),
        "type_d.base_change.calls.minimize": in_minimize,
        # the match search is private to verify, so verify is its parent
        "type_d.base_change.calls.match":
            base_change_by_parent["ktd.verify_elliptic_invariance"],
        "type_d.isomorphic_d.calls": calls["type_d.isomorphic_d"],
        "type_d.isomorphic_d.hit_ratio": _ratio(attrs["type_d.isomorphic_d.hits"],
                                                calls["type_d.isomorphic_d"]),
        "type_d.cancel.calls": calls["type_d.cancel"],
        "type_da.cancel_da.calls": calls["type_da.cancel_da"],
        "io_formats.parse.self_s": sum(
            v for k, v in self_s.items()
            if k.startswith("io_formats.parse_") or k == "io_formats.detect_kind"),
        "io_formats.write.self_s": sum(
            v for k, v in self_s.items() if k.startswith("io_formats.write_")),
        "io_formats.bytes_in": sum(
            v for k, v in attrs.items() if k.endswith(".bytes_in")),
        "io_formats.bytes_out": sum(
            v for k, v in attrs.items() if k.endswith(".bytes_out")),
    }
    for name, _unit, _better in PER_LAYER:
        if name in out or name.startswith(("algebra.", "trace.")):
            continue
        span_name, key = name.rsplit(".", 1)
        out[name] = self_s[span_name] if key == "self_s" else attrs[name]
    return out
