"""On-disk formats.

Every structured document is a JSON envelope::

    {"format_version": "1", "kind": "...", "payload": {...}}

with kind one of "cfk", "type_d", "type_da", "script".  Knot complexes
also accept a terse line format ("x: A=1 M=0", "x -> U^2 y"); scripts
also accept plain lines "from -> to".  Writers are canonical: sorted
objects, two-space indentation, LF line endings, so equal objects always
serialize to identical bytes.
"""
from __future__ import annotations

import json
import re

from .algebra import element_from_name, idem_from_name
from .cfk import KnotArrow, KnotComplex, KnotGenerator, make_complex
from .type_d import _ARROW_KEY, DArrow, TypeDModule, make_module
from .type_da import _ACTION_KEY, DAAction, TypeDAModule, make_da

__all__ = [
    "ParseError", "detect_kind",
    "parse_cfk", "write_cfk", "parse_typed", "write_typed",
    "parse_typeda", "write_typeda", "parse_script", "write_script",
]

FORMAT_VERSION = "1"
KINDS = ("cfk", "type_d", "type_da", "script")


class ParseError(ValueError):
    pass


def _envelope(kind: str, payload: dict) -> str:
    doc = {"format_version": FORMAT_VERSION, "kind": kind, "payload": payload}
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def _open_envelope(text: str, kind: str | None = None) -> tuple[str, dict]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ParseError("document is not a JSON object")
    extra = set(doc) - {"format_version", "kind", "payload"}
    if extra:
        raise ParseError(f"unknown envelope fields: {sorted(extra)}")
    if doc.get("format_version") != FORMAT_VERSION:
        raise ParseError(f"unsupported format_version {doc.get('format_version')!r}")
    k = doc.get("kind")
    if k not in KINDS:
        raise ParseError(f"unknown kind {k!r}")
    if kind is not None and k != kind:
        raise ParseError(f"expected kind {kind!r}, found {k!r}")
    payload = doc.get("payload")
    if not isinstance(payload, dict):
        raise ParseError("payload must be an object")
    return k, payload


def _entries(payload: dict, key: str) -> list[dict]:
    items = payload.get(key, [])
    if not isinstance(items, list) or not all(isinstance(x, dict) for x in items):
        raise ParseError(f"{key} must be a list of objects")
    return items


def detect_kind(text: str) -> str:
    if text.lstrip().startswith("{"):
        return _open_envelope(text)[0]
    # terse knot complexes have "name: A=.. M=.." lines, scripts never do
    code = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    return "script" if "->" in code and ":" not in code else "cfk"


_GEN_RE = re.compile(r"^(\S+)\s*:\s*A=(-?\d+)\s+M=(-?\d+)$")
_ARROW_RE = re.compile(r"^(\S+)\s*->\s*(?:U\^(\d+)\s+)?(\S+)$")


def parse_cfk(text: str) -> KnotComplex:
    if text.lstrip().startswith("{"):
        _, payload = _open_envelope(text, "cfk")
        return _cfk_from_payload(payload)
    gens: list[KnotGenerator] = []
    arrows: list[KnotArrow] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _GEN_RE.match(line)
        if m:
            gens.append(KnotGenerator(m.group(1), int(m.group(2)), int(m.group(3))))
            continue
        m = _ARROW_RE.match(line)
        if m:
            arrows.append(KnotArrow(m.group(1), m.group(3),
                                    int(m.group(2) or 0)))
            continue
        raise ParseError(f"line {lineno}: cannot parse {line!r}")
    return make_complex(gens, arrows)


def _cfk_from_payload(payload: dict) -> KnotComplex:
    extra = set(payload) - {"generators", "arrows", "shift"}
    if extra:
        raise ParseError(f"unknown cfk fields: {sorted(extra)}")
    gens = []
    for g in _entries(payload, "generators"):
        try:
            gens.append(KnotGenerator(str(g["name"]), int(g["alexander"]),
                                      int(g["maslov"])))
        except (KeyError, TypeError, ValueError) as e:
            raise ParseError(f"bad generator entry {g!r}: {e}") from None
    arrows = []
    for a in _entries(payload, "arrows"):
        try:
            arrows.append(KnotArrow(str(a["from"]), str(a["to"]),
                                    int(a.get("u_power", 0))))
        except (KeyError, TypeError, ValueError) as e:
            raise ParseError(f"bad arrow entry {a!r}: {e}") from None
    shift = payload.get("shift")
    if shift is not None:
        try:
            if not isinstance(shift, list) or len(shift) != 2:
                raise ValueError("expected two integers")
            shift = (int(shift[0]), int(shift[1]))
        except (TypeError, ValueError) as e:
            raise ParseError(f"bad shift {shift!r}: {e}") from None
    return make_complex(gens, arrows, shift)


def write_cfk(C: KnotComplex) -> str:
    payload = {
        "generators": [{"name": g.name, "alexander": g.alexander,
                        "maslov": g.maslov} for g in sorted(C.generators)],
        "arrows": [{"from": a.source, "to": a.target, "u_power": a.u_power}
                   for a in sorted(C.arrows)],
        "shift": list(C.shift) if C.shift else None,
    }
    return _envelope("cfk", payload)


def parse_typed(text: str) -> TypeDModule:
    _, payload = _open_envelope(text, "type_d")
    extra = set(payload) - {"generators", "arrows", "tags"}
    if extra:
        raise ParseError(f"unknown type_d fields: {sorted(extra)}")
    gens = []
    for g in _entries(payload, "generators"):
        try:
            gens.append((str(g["name"]), idem_from_name(g["idempotent"])))
        except (KeyError, TypeError, ValueError) as e:
            raise ParseError(f"bad generator entry {g!r}: {e}") from None
    arrows = []
    for a in _entries(payload, "arrows"):
        try:
            arrows.append(DArrow(str(a["from"]), str(a["to"]),
                                 element_from_name(a["label"])))
        except (KeyError, TypeError, ValueError) as e:
            raise ParseError(f"bad arrow entry {a!r}: {e}") from None
    tags = payload.get("tags") or {}
    if not isinstance(tags, dict):
        raise ParseError("tags must be an object")
    return make_module(gens, arrows, tags)


def write_typed(M: TypeDModule) -> str:
    payload = {
        "generators": [{"name": n, "idempotent": i.value}
                       for n, i in sorted(M.generators)],
        "arrows": [{"from": a.source, "to": a.target, "label": a.label.value}
                   for a in sorted(M.arrows, key=_ARROW_KEY)],
    }
    if M.tags:
        payload["tags"] = M.tags
    return _envelope("type_d", payload)


def parse_typeda(text: str) -> TypeDAModule:
    _, payload = _open_envelope(text, "type_da")
    extra = set(payload) - {"generators", "actions"}
    if extra:
        raise ParseError(f"unknown type_da fields: {sorted(extra)}")
    gens = []
    for g in _entries(payload, "generators"):
        try:
            gens.append((str(g["name"]), idem_from_name(g["left"]),
                         idem_from_name(g["right"])))
        except (KeyError, TypeError, ValueError) as e:
            raise ParseError(f"bad generator entry {g!r}: {e}") from None
    actions = []
    for a in _entries(payload, "actions"):
        try:
            inputs = a.get("inputs", [])
            if not isinstance(inputs, list):
                raise TypeError("inputs must be a list")
            actions.append(DAAction(str(a["from"]),
                                    tuple(element_from_name(x) for x in inputs),
                                    element_from_name(a["output"]), str(a["to"])))
        except (KeyError, TypeError, ValueError) as e:
            raise ParseError(f"bad action entry {a!r}: {e}") from None
    return make_da(gens, actions)


def write_typeda(B: TypeDAModule) -> str:
    payload = {
        "generators": [{"name": n, "left": l.value, "right": r.value}
                       for n, l, r in sorted(B.generators)],
        "actions": [{"from": a.source, "inputs": [x.value for x in a.args],
                     "output": a.coeff.value, "to": a.target}
                    for a in sorted(B.actions, key=_ACTION_KEY)],
    }
    return _envelope("type_da", payload)


def parse_script(text: str) -> list[tuple[str, str]]:
    if text.lstrip().startswith("{"):
        _, payload = _open_envelope(text, "script")
        extra = set(payload) - {"pairs"}
        if extra:
            raise ParseError(f"unknown script fields: {sorted(extra)}")
        pairs = payload.get("pairs", [])
        if not isinstance(pairs, list) or not all(
                isinstance(p, list) and len(p) == 2 for p in pairs):
            raise ParseError("pairs must be a list of [from, to] lists")
        return [(str(a), str(b)) for a, b in pairs]
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split("->")]
        if len(parts) != 2 or not all(parts):
            raise ParseError(f"line {lineno}: expected 'from -> to', got {line!r}")
        pairs.append((parts[0], parts[1]))
    return pairs


def write_script(pairs) -> str:
    return "".join(f"{a} -> {b}\n" for a, b in pairs)
