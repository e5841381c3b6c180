"""On-disk formats.

Every structured document is a JSON envelope::

    {"format_version": "1", "kind": "...", "payload": {...}}

with kind one of "cfk", "type_d", "type_da", "script".  Knot complexes
also accept a terse line format ("x: A=1 M=0", "x -> U^2 y"); scripts
also accept plain lines "from -> to".  Readers read each entry once and
name the first bad one; they refuse a field the format does not name, at
every level, and an integer too long to convert, at its line.  Writers
are canonical: sorted objects, two-space indentation, LF line endings, so
equal objects always serialize to identical bytes: those of json.dumps(
indent=2, sort_keys=True, ensure_ascii=False), filled into templates by
the C string encoder.
"""
from __future__ import annotations

import json
import re
import sys
from json.encoder import encode_basestring as _q  # json.dumps's escaper, in C

from .algebra import _BY_NAME, _IDEM_BY_NAME, AlgebraElement
from .cfk import KnotArrow, KnotComplex, KnotGenerator, make_complex
from .type_d import DArrow, TypeDModule, _new, make_module
from .type_da import DAAction, TypeDAModule, make_da

__all__ = [
    "ParseError", "parse_any",
    "parse_cfk", "write_cfk", "parse_typed", "write_typed",
    "parse_typeda", "write_typeda", "parse_script", "write_script",
]

FORMAT_VERSION = "1"
KINDS = ("cfk", "type_d", "type_da", "script")
# levels of objects and lists a document may nest: json decodes about 1,000
# on Python 3.10 and 3.11, 1,500 on 3.12 and 10,000 on 3.13, and a document
# deeper than this is refused alike on each
MAX_DEPTH = 512
_NESTED = "not valid JSON: nested too deeply"


class ParseError(ValueError):
    pass


_NESTING = frozenset((dict, list))  # a set: a tuple tests a type against each by ==


def _too_deep(doc, limit: int = MAX_DEPTH) -> bool:
    """Whether doc nests objects and lists more than limit levels deep, doc
    the first: a walk one level at a time, which no recursion limit stops."""
    level = [doc] if type(doc) in _NESTING else []
    for _ in range(limit):
        level = [v for c in level for v in (c.values() if type(c) is dict else c)
                 if type(v) in _NESTING]
        if not level:
            return False
    return True


def _open_envelope(doc, kind: str | None) -> tuple[str, dict]:
    if not isinstance(doc, dict):
        raise ParseError("document is not a JSON object")
    _no_extra(doc, "envelope", {"format_version", "kind", "payload"})
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


def _too_long(text: str, lineno: int = 0) -> ParseError:
    """The error for an integer too long to convert, at lineno, or else at the
    first in the JSON text: its strings hold no raw newline, skipped whole."""
    limit = sys.get_int_max_str_digits()
    tokens = re.finditer(r'"(?:[^"\\]|\\.)*"|-?(\d+)([.eE][-+\d.eE]*)?', text)
    lineno = lineno or 1 + next((text.count("\n", 0, m.start()) for m in tokens
                                 if m[1] and not m[2] and len(m[1]) > limit), 0)
    return ParseError(f"line {lineno}: integer longer than the limit of {limit} digits")


def _each(payload: dict, key: str, what: str, fields: set, read) -> list:
    """read(entries), the objects of the list of objects payload[key].  An
    entry with a key outside fields, or that read([entry]) refuses, is bad;
    only if one is does a second pass name the first, "bad <what> entry"."""
    entries = payload.get(key, [])
    if not isinstance(entries, list) or not set(map(type, entries)) <= {dict}:
        raise ParseError(f"{key} must be a list of objects")
    try:
        if set().union(*entries) <= fields:
            return read(entries)
    except (KeyError, TypeError, ValueError):
        pass
    for entry in entries:
        try:
            if extra := entry.keys() - fields:
                raise ValueError(f"unknown fields {sorted(extra)}")
            read([entry])
        except (KeyError, TypeError, ValueError) as e:
            raise ParseError(f"bad {what} entry {entry!r}: {e}") from None
    raise AssertionError("no entry is bad")


def _once(built, field: str, values: list, where: list, say: str = "repeated {} entry {!r}"):
    """built, or a ParseError at the first repeat its field merged: over F2 it would cancel."""
    if len(getattr(built, field)) != len(values):
        first: dict = {}
        for i, value in enumerate(values):
            if first.setdefault(value, i) != i:
                raise ParseError(say.format(field[:-1], where[i]))
    return built


def _no_extra(payload: dict, kind: str, allowed: set) -> None:
    if extra := set(payload) - allowed:
        raise ParseError(f"unknown {kind} fields: {sorted(extra)}")


# Readers check each field inline, in order: v if type(v := entry[key]) is str
# else _bad(...); a name is looked up only if it is a string, so hashable.
def _bad(why: str):
    raise ValueError(why)


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
    text = text.removeprefix("\ufeff")
    if text.lstrip().startswith("{") or kind in ("type_d", "type_da"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise ParseError(f"not valid JSON: {e}") from None
        except RecursionError:
            raise ParseError(_NESTED) from None
        except ValueError:  # an integer longer than the interpreter converts
            raise _too_long(text) from None
        try:  # a document is measured only once it is refused
            kind, payload = _open_envelope(doc, kind)
            return kind, _PAYLOAD_READERS[kind](payload)
        except ParseError:
            if _too_deep(doc):
                raise ParseError(_NESTED) from None
            raise
    lines = _code_lines(text)
    if not lines:
        raise ParseError("empty document")
    kind = kind or _terse_kind(lines)
    try:
        return kind, _LINE_READERS[kind](lines)
    except ParseError as e:
        bad = e
    try:  # a JSON array, string or number is neither an envelope nor lines
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError):
        raise bad from None
    except ValueError:  # an integer longer than the interpreter converts
        raise _too_long(text) from None
    raise bad if _too_deep(doc) else ParseError("document is not a JSON object")


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
        if not (m := _GEN_RE.match(line) or _ARROW_RE.match(line)):
            raise ParseError(f"line {lineno}: cannot parse {_shown(line)}")
        try:
            if m.re is _GEN_RE:
                gens.append(KnotGenerator(m[1], int(m[2]), int(m[3])))
            else:
                arrows.append(KnotArrow(m[1], m[3], int(m[2] or 0)))
                at.append(lineno)
        except ValueError:  # an integer longer than the interpreter converts
            raise _too_long(line, lineno) from None
    return _once(make_complex(gens, arrows), "arrows", arrows, at, "line {1}: repeated {0}")


def _cfk_payload(payload: dict) -> KnotComplex:
    _no_extra(payload, "cfk", {"generators", "arrows", "shift"})
    gens = _each(payload, "generators", "generator", {"name", "alexander", "maslov"}, lambda es: [
        KnotGenerator(
            n if type(n := g["name"]) is str else _bad("name must be a string"),
            a if type(a := g["alexander"]) is int else _bad("alexander must be an integer"),
            m if type(m := g["maslov"]) is int else _bad("maslov must be an integer"))
        for g in es])
    arrows = _each(payload, "arrows", "arrow", {"from", "to", "u_power"}, lambda es: [
        KnotArrow(
            s if type(s := a["from"]) is str else _bad("from must be a string"),
            t if type(t := a["to"]) is str else _bad("to must be a string"),
            u if type(u := a.get("u_power", 0)) is int else _bad("u_power must be an integer"))
        for a in es])
    shift = payload.get("shift")
    if shift is not None:
        if not (isinstance(shift, list) and len(shift) == 2
                and all(type(x) is int for x in shift)):
            raise ParseError(f"bad shift {shift!r}: expected two integers")
        shift = tuple(shift)
    return _once(make_complex(gens, arrows, shift), "arrows", arrows, payload.get("arrows"))


def _typed_payload(payload: dict) -> TypeDModule:
    _no_extra(payload, "type_d", {"generators", "arrows", "tags"})
    gens = _each(payload, "generators", "generator", {"name", "idempotent"}, lambda es: [(
        n if type(n := g["name"]) is str else _bad("name must be a string"),
        (_IDEM_BY_NAME.get(i) if type(i := g["idempotent"]) is str else None)
        or _bad(f"unknown idempotent {i!r}")) for g in es])
    arrows = _each(payload, "arrows", "arrow", {"from", "to", "label"}, lambda es: [_new(DArrow, (
        s if type(s := a["from"]) is str else _bad("from must be a string"),
        t if type(t := a["to"]) is str else _bad("to must be a string"),
        (_BY_NAME.get(c) if type(c := a["label"]) is str else None)
        or _bad(f"unknown algebra element {c!r}"))) for a in es])
    tags = payload.get("tags", {})
    if not isinstance(tags, dict):
        raise ParseError("tags must be an object")
    if _too_deep(tags, MAX_DEPTH - 2):  # free-form: the one field read at any depth
        raise ParseError(_NESTED)
    return _once(make_module(gens, arrows, tags), "arrows", arrows, payload.get("arrows"))


def _action(a: dict) -> DAAction:
    if not isinstance(args := a.get("inputs", []), list):
        _bad("inputs must be a list")
    return _new(DAAction, (
        s if type(s := a["from"]) is str else _bad("from must be a string"),
        tuple([(_BY_NAME.get(x) if type(x) is str else None)
               or _bad(f"unknown algebra element {x!r}") for x in args]),
        (_BY_NAME.get(c) if type(c := a["output"]) is str else None)
        or _bad(f"unknown algebra element {c!r}"),
        t if type(t := a["to"]) is str else _bad("to must be a string")))


def _typeda_payload(payload: dict) -> TypeDAModule:
    _no_extra(payload, "type_da", {"generators", "actions"})
    gens = _each(payload, "generators", "generator", {"name", "left", "right"}, lambda es: [(
        n if type(n := g["name"]) is str else _bad("name must be a string"),
        (_IDEM_BY_NAME.get(l) if type(l := g["left"]) is str else None)
        or _bad(f"unknown idempotent {l!r}"),
        (_IDEM_BY_NAME.get(r) if type(r := g["right"]) is str else None)
        or _bad(f"unknown idempotent {r!r}")) for g in es])
    actions = _each(payload, "actions", "action", {"from", "inputs", "output", "to"},
                    lambda es: list(map(_action, es)))
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


_NAME = {e: e.value for e in AlgebraElement}  # .value is a descriptor in Python


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
    arrows = [f'{{\n        "from": {_q(s)},\n        "label": "{_NAME[c]}",\n'
              f'        "to": {_q(t)}\n      }}' for s, t, c in sorted(M.arrows)]
    gens = [f'{{\n        "idempotent": "{_NAME[i]}",\n        "name": {_q(n)}\n      }}'
            for n, i in sorted(M.generators)]
    payload = {"arrows": arrows, "generators": gens}
    if M.tags:  # free-form, so left to json; strings hold no raw newline,
        # so indenting after each newline moves the whole object two levels in
        payload["tags"] = json.dumps(M.tags, indent=2, sort_keys=True,
                                     ensure_ascii=False).replace("\n", "\n    ")
    return _document("type_d", payload)


def write_typeda(B: TypeDAModule) -> str:
    actions = [f'{{\n        "from": {_q(s)},\n        "inputs": '
               f'{_list([_q(_NAME[x]) for x in args], "        ")},\n'
               f'        "output": "{_NAME[c]}",\n        "to": {_q(t)}\n      }}'
               for s, args, c, t in sorted(B.actions)]
    gens = [f'{{\n        "left": "{_NAME[l]}",\n        "name": {_q(n)},\n'
            f'        "right": "{_NAME[r]}"\n      }}' for n, l, r in sorted(B.generators)]
    return _document("type_da", {"actions": actions, "generators": gens})


def write_script(pairs) -> str:
    """The terse script of pairs, a line "from -> to" each.  The text is
    read back, and a ValueError names the first pair that would not come
    back as it was: a name that is empty, has outer spaces or holds "->",
    "#" or a line break, or a first name that opens a JSON document."""
    pairs = [(a, b) for a, b in pairs]
    lines = [f"{a} -> {b}\n" for a, b in pairs]
    text = "".join(lines)
    if pairs and _read_back(text) != pairs:
        # a line reads alone as it does in the text, but for the text's opening
        bad = next((p for p, line in zip(pairs, lines) if _read_back(line, alone=True) != [p]),
                   pairs[0])
        raise ValueError(f"script pair {bad!r} would not read back as written")
    return text


def _read_back(text: str, alone: bool = False) -> list | None:
    """The pairs parse_script reads from text, or None if it refuses it;
    alone: from its lines, without the checks on a document's opening."""
    try:
        return _script_lines(_code_lines(text)) if alone else parse_script(text)
    except ParseError:
        return None
