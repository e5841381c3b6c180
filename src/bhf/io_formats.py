"""On-disk formats.

Every structured document is a JSON envelope::

    {"format_version": "1", "kind": "...", "payload": {...}}

with kind one of "cfk", "type_d", "type_da", "script".  Knot complexes
also accept a terse line format ("x: A=1 M=0", "x -> U^2 y"); scripts
also accept plain lines "from -> to".  Writers are canonical: sorted
objects, two-space indentation, LF line endings, so equal objects always
serialize to identical bytes: those of json.dumps(indent=2, sort_keys=True,
ensure_ascii=False), filled into templates by the C string encoder.
"""
from __future__ import annotations

import json
import re
from json.encoder import encode_basestring as _q  # json.dumps's escaper, in C

from .algebra import element_from_name, idem_from_name
from .cfk import KnotArrow, KnotComplex, KnotGenerator, make_complex
from .type_d import DArrow, TypeDModule, make_module
from .type_da import DAAction, TypeDAModule, make_da

__all__ = [
    "ParseError", "parse_any",
    "parse_cfk", "write_cfk", "parse_typed", "write_typed",
    "parse_typeda", "write_typeda", "parse_script", "write_script",
]

FORMAT_VERSION = "1"
KINDS = ("cfk", "type_d", "type_da", "script")


class ParseError(ValueError):
    pass


def _open_envelope(text: str, kind: str | None) -> tuple[str, dict]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"not valid JSON: {e}") from None
    except RecursionError:
        raise ParseError("not valid JSON: nested too deeply") from None
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


def _each(payload: dict, key: str, what: str, read) -> list:
    """read(entry) for each entry of the list of objects payload[key], in
    order; the KeyError, TypeError or ValueError of an entry becomes the one
    ParseError "bad <what> entry <entry>: <error>"."""
    entries = payload.get(key, [])
    if not isinstance(entries, list) or not set(map(type, entries)) <= {dict}:
        raise ParseError(f"{key} must be a list of objects")
    out = []
    for entry in entries:
        try:
            out.append(read(entry))
        except (KeyError, TypeError, ValueError) as e:
            raise ParseError(f"bad {what} entry {entry!r}: {e}") from None
    return out


def _once(built, field: str, values: list, where: list, say: str = "repeated {} entry {!r}"):
    """built, or a ParseError at the first repeat its field merged: over F2 it would cancel."""
    if len(getattr(built, field)) != len(values):
        first: dict = {}
        for i, value in enumerate(values):
            if first.setdefault(value, i) != i:
                raise ParseError(say.format(field[:-1], where[i]))
    return built


def _no_extra(payload: dict, kind: str, allowed: set) -> None:
    extra = set(payload) - allowed
    if extra:
        raise ParseError(f"unknown {kind} fields: {sorted(extra)}")


def _field(entry: dict, key: str, kind: type, default=None):
    value = entry[key] if default is None else entry.get(key, default)
    if type(value) is not kind:  # no bool, float or numeric string is an int
        raise TypeError(f"{key} must be {'a string' if kind is str else 'an integer'}")
    return value


def _code_lines(text: str) -> list[tuple[int, str]]:
    """(line number, text before any "#", stripped) of each line with code."""
    return [(lineno, code) for lineno, raw in enumerate(text.splitlines(), 1)
            if (code := raw.split("#", 1)[0].strip())]


def _terse_kind(lines: list[tuple[int, str]]) -> str:
    # terse knot complexes have "name: A=.. M=.." lines, scripts never do
    code = "\n".join(line for _, line in lines)
    return "script" if "->" in code and ":" not in code else "cfk"


def parse_any(text: str, kind: str | None = None) -> tuple[str, object]:
    """The (kind, object) of a document of kind if given, or else of the
    kind its envelope names or its terse lines show; text is decoded once.
    Terse text without a line of code is refused as an empty document."""
    if text.lstrip().startswith("{") or kind in ("type_d", "type_da"):
        kind, payload = _open_envelope(text, kind)
        return kind, _PAYLOAD_READERS[kind](payload)
    lines = _code_lines(text)
    if not lines:
        raise ParseError("empty document")
    kind = kind or _terse_kind(lines)
    try:
        return kind, _LINE_READERS[kind](lines)
    except ParseError as e:
        bad = e
    try:  # a JSON array, string or number is neither an envelope nor lines
        json.loads(text)
    except (json.JSONDecodeError, RecursionError):
        raise bad from None
    raise ParseError("document is not a JSON object")


def parse_cfk(text: str) -> KnotComplex:
    return parse_any(text, "cfk")[1]


def parse_typed(text: str) -> TypeDModule:
    return parse_any(text, "type_d")[1]


def parse_typeda(text: str) -> TypeDAModule:
    return parse_any(text, "type_da")[1]


def parse_script(text: str) -> list[tuple[str, str]]:
    return parse_any(text, "script")[1]


_GEN_RE = re.compile(r"^(\S+)\s*:\s*A=(-?\d+)\s+M=(-?\d+)$")
_ARROW_RE = re.compile(r"^(\S+)\s*->\s*(?:U\^(\d+)\s+)?(\S+)$")


def _shown(line: str) -> str:
    """The line quoted for an error message, cut after 80 characters."""
    return repr(line if len(line) <= 80 else line[:80] + "…")


def _cfk_lines(lines: list[tuple[int, str]]) -> KnotComplex:
    gens: list[KnotGenerator] = []
    arrows: list[KnotArrow] = []
    at: list[int] = []  # the line of each arrow
    for lineno, line in lines:
        m = _GEN_RE.match(line)
        if m:
            gens.append(KnotGenerator(m.group(1), int(m.group(2)), int(m.group(3))))
            continue
        m = _ARROW_RE.match(line)
        if m:
            arrows.append(KnotArrow(m.group(1), m.group(3),
                                    int(m.group(2) or 0)))
            at.append(lineno)
            continue
        raise ParseError(f"line {lineno}: cannot parse {_shown(line)}")
    return _once(make_complex(gens, arrows), "arrows", arrows, at, "line {1}: repeated {0}")


def _cfk_payload(payload: dict) -> KnotComplex:
    _no_extra(payload, "cfk", {"generators", "arrows", "shift"})
    gens = _each(payload, "generators", "generator", lambda g: KnotGenerator(
        _field(g, "name", str), _field(g, "alexander", int), _field(g, "maslov", int)))
    arrows = _each(payload, "arrows", "arrow", lambda a: KnotArrow(
        _field(a, "from", str), _field(a, "to", str), _field(a, "u_power", int, 0)))
    shift = payload.get("shift")
    if shift is not None:
        if not (isinstance(shift, list) and len(shift) == 2
                and all(type(x) is int for x in shift)):
            raise ParseError(f"bad shift {shift!r}: expected two integers")
        shift = tuple(shift)
    return _once(make_complex(gens, arrows, shift), "arrows", arrows, payload.get("arrows"))


def _typed_payload(payload: dict) -> TypeDModule:
    _no_extra(payload, "type_d", {"generators", "arrows", "tags"})
    gens = _each(payload, "generators", "generator", lambda g: (
        _field(g, "name", str), idem_from_name(g["idempotent"])))
    arrows = _each(payload, "arrows", "arrow", lambda a: DArrow(
        _field(a, "from", str), _field(a, "to", str), element_from_name(a["label"])))
    tags = payload.get("tags", {})
    if not isinstance(tags, dict):
        raise ParseError("tags must be an object")
    return _once(make_module(gens, arrows, tags), "arrows", arrows, payload.get("arrows"))


def _action(a: dict) -> DAAction:
    inputs = a.get("inputs", [])
    if not isinstance(inputs, list):
        raise TypeError("inputs must be a list")
    return DAAction(_field(a, "from", str), tuple(element_from_name(x) for x in inputs),
                    element_from_name(a["output"]), _field(a, "to", str))


def _typeda_payload(payload: dict) -> TypeDAModule:
    _no_extra(payload, "type_da", {"generators", "actions"})
    gens = _each(payload, "generators", "generator", lambda g: (
        _field(g, "name", str), idem_from_name(g["left"]), idem_from_name(g["right"])))
    actions = _each(payload, "actions", "action", _action)
    return _once(make_da(gens, actions), "actions", actions, payload.get("actions"))


def _script_payload(payload: dict) -> list[tuple[str, str]]:
    _no_extra(payload, "script", {"pairs"})
    pairs = payload.get("pairs", [])
    if not isinstance(pairs, list) or not all(
            isinstance(p, list) and len(p) == 2 and all(type(x) is str for x in p)
            for p in pairs):
        raise ParseError("pairs must be a list of [from, to] lists of strings")
    return [(a, b) for a, b in pairs]


def _script_lines(lines: list[tuple[int, str]]) -> list[tuple[str, str]]:
    pairs = []
    for lineno, line in lines:
        parts = [p.strip() for p in line.split("->")]
        if len(parts) != 2 or not all(parts):
            raise ParseError(f"line {lineno}: expected 'from -> to', got {_shown(line)}")
        pairs.append((parts[0], parts[1]))
    return pairs


_PAYLOAD_READERS = {"cfk": _cfk_payload, "type_d": _typed_payload,
                    "type_da": _typeda_payload, "script": _script_payload}
_LINE_READERS = {"cfk": _cfk_lines, "script": _script_lines}


def _list(items: list[str], indent: str) -> str:
    """A JSON list of encoded items, the list's own line at indent."""
    if not items:
        return "[]"
    inner = "\n" + indent + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + indent + "]"


def _document(kind: str, payload: dict) -> str:
    """The envelope around payload, whose keys come in sorted order, each
    mapped to a list of encoded items or to an encoded value."""
    fields = ",\n    ".join(f'"{k}": {_list(v, "    ") if isinstance(v, list) else v}'
                            for k, v in payload.items())
    return (f'{{\n  "format_version": "{FORMAT_VERSION}",\n  "kind": "{kind}",\n'
            f'  "payload": {{\n    {fields}\n  }}\n}}\n')


def write_cfk(C: KnotComplex) -> str:
    gens = [f'{{\n        "alexander": {g.alexander},\n        "maslov": {g.maslov},\n'
            f'        "name": {_q(g.name)}\n      }}' for g in sorted(C.generators)]
    arrows = [f'{{\n        "from": {_q(a.source)},\n        "to": {_q(a.target)},\n'
              f'        "u_power": {a.u_power}\n      }}' for a in sorted(C.arrows)]
    shift = [str(x) for x in C.shift] if C.shift else "null"
    return _document("cfk", {"arrows": arrows, "generators": gens, "shift": shift})


def write_typed(M: TypeDModule) -> str:
    arrows = [f'{{\n        "from": {_q(s)},\n        "label": "{c.value}",\n'
              f'        "to": {_q(t)}\n      }}' for s, t, c in sorted(M.arrows)]
    gens = [f'{{\n        "idempotent": "{i.value}",\n        "name": {_q(n)}\n      }}'
            for n, i in sorted(M.generators)]
    payload = {"arrows": arrows, "generators": gens}
    if M.tags:  # free-form, so left to json; strings hold no raw newline,
        # so indenting after each newline moves the whole object two levels in
        payload["tags"] = json.dumps(M.tags, indent=2, sort_keys=True,
                                     ensure_ascii=False).replace("\n", "\n    ")
    return _document("type_d", payload)


def write_typeda(B: TypeDAModule) -> str:
    actions = [f'{{\n        "from": {_q(s)},\n        "inputs": '
               f'{_list([_q(x.value) for x in args], "        ")},\n'
               f'        "output": "{c.value}",\n        "to": {_q(t)}\n      }}'
               for s, args, c, t in sorted(B.actions)]
    gens = [f'{{\n        "left": "{l.value}",\n        "name": {_q(n)},\n'
            f'        "right": "{r.value}"\n      }}' for n, l, r in sorted(B.generators)]
    return _document("type_da", {"actions": actions, "generators": gens})


def write_script(pairs) -> str:
    return "".join(f"{a} -> {b}\n" for a, b in pairs)
