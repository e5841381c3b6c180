"""The inline entry readers of io_formats against the per-field readers
they replaced, which read each field through a helper call (and each name
through algebra's element_from_name and idem_from_name, copied here).  The readers
return equal objects and refuse a document with the same message; the
only refusals the oracle lacks are an entry field the format does not name
and an integer too long to convert, each asserted on its own."""
import copy
import json
import random
import sys

import pytest

from bhf import io_formats, ktd, type_d, type_da
from bhf.algebra import _BY_NAME, _IDEM_BY_NAME
from bhf.cfk import KnotArrow, KnotGenerator, make_complex
from bhf.io_formats import ParseError, _once
from conftest import FIXTURE_NAMES, FIXTURES, load_cfk
from test_writer_oracle import _bimodules, _complexes, _modules


def element_from_name(name: str):
    try:
        return _BY_NAME[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise ValueError(f"unknown algebra element {name!r}") from None


def idem_from_name(name: str):
    try:
        return _IDEM_BY_NAME[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise ValueError(f"unknown idempotent {name!r}") from None


def _field(entry: dict, key: str, kind: type, default=None):
    value = entry[key] if default is None else entry.get(key, default)
    if type(value) is not kind:  # no bool, float or numeric string is an int
        raise TypeError(f"{key} must be {'a string' if kind is str else 'an integer'}")
    return value


def _each(payload: dict, key: str, what: str, read) -> list:
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


def oracle_cfk(payload: dict):
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


def oracle_typed(payload: dict):
    gens = _each(payload, "generators", "generator", lambda g: (
        _field(g, "name", str), idem_from_name(g["idempotent"])))
    arrows = _each(payload, "arrows", "arrow", lambda a: type_d.DArrow(
        _field(a, "from", str), _field(a, "to", str), element_from_name(a["label"])))
    tags = payload.get("tags", {})
    if not isinstance(tags, dict):
        raise ParseError("tags must be an object")
    return _once(type_d.make_module(gens, arrows, tags), "arrows", arrows,
                 payload.get("arrows"))


def _action(a: dict):
    inputs = a.get("inputs", [])
    if not isinstance(inputs, list):
        raise TypeError("inputs must be a list")
    return type_da.DAAction(_field(a, "from", str), tuple(element_from_name(x) for x in inputs),
                            element_from_name(a["output"]), _field(a, "to", str))


def oracle_typeda(payload: dict):
    gens = _each(payload, "generators", "generator", lambda g: (
        _field(g, "name", str), idem_from_name(g["left"]), idem_from_name(g["right"])))
    actions = _each(payload, "actions", "action", _action)
    return _once(type_da.make_da(gens, actions), "actions", actions, payload.get("actions"))


ORACLES = {"cfk": oracle_cfk, "type_d": oracle_typed, "type_da": oracle_typeda}
LISTS = {"cfk": ("generators", "arrows"), "type_d": ("generators", "arrows"),
         "type_da": ("generators", "actions")}
WHAT = {"generators": "generator", "arrows": "arrow", "actions": "action"}


def _outcome(read, *args):
    """(object, its tags or None) or the ParseError's message."""
    try:
        X = read(*args)
    except ParseError as e:
        return str(e)
    return X, getattr(X, "tags", None)


def _both(doc: dict):
    """The outcome of the new reader on the document's text and of the
    oracle on its payload."""
    new = _outcome(lambda text: io_formats.parse_any(text, doc["kind"])[1], json.dumps(doc))
    return new, _outcome(ORACLES[doc["kind"]], doc["payload"])


def _documents():
    """JSON documents of fixtures, built modules and the writer oracle's
    modules, bimodules and complexes, tricky names and tags among them."""
    texts = [(FIXTURES / f"{n}.cfk.json").read_text(encoding="utf-8") for n in FIXTURE_NAMES]
    texts += [io_formats.write_typed(ktd.ktd_basefree(load_cfk(n))) for n in FIXTURE_NAMES]
    texts += [io_formats.write_typed(M) for M in _modules()]
    texts += [io_formats.write_typeda(B) for B in _bimodules()]
    texts += [io_formats.write_cfk(C) for C in _complexes()]
    return [json.loads(text) for text in texts]


DOCUMENTS = _documents()


def test_valid_documents_read_alike():
    assert {doc["kind"] for doc in DOCUMENTS} == set(ORACLES)
    for doc in DOCUMENTS:
        new, old = _both(doc)
        assert not isinstance(new, str) and new == old


_JUNK = [None, 5, -1, 2.5, "", "x", "rho9", "iota2", "0", True, False, [], ["rho1"],
         {}, {"a": 1}]


def _mutate(entry: dict, rng: random.Random):
    """entry after one edit: a key deleted, or a value swapped for one of
    another type, True, or an unknown or unhashable name."""
    key = rng.choice(sorted(entry))
    op = rng.choice(["delete", "junk", "true", "name"])
    if op == "delete":
        del entry[key]
    elif op == "true":
        entry[key] = True
    elif op == "name" and key == "inputs" and entry[key]:
        entry[key][rng.randrange(len(entry[key]))] = rng.choice(["rho9", ["rho1"], {}, 3])
    elif op == "name":
        entry[key] = rng.choice(["rho9", "iota2", "rho1", "iota0", ["iota0"], {"x": 1}, 0])
    else:
        entry[key] = copy.deepcopy(rng.choice(_JUNK))


def _mutants(seed: int):
    """(document, list key, index) of a copy of a seeded document with one
    entry edited once or twice, or replaced by a value that is no object."""
    rng = random.Random(seed)
    doc = copy.deepcopy(rng.choice(DOCUMENTS))
    key = rng.choice([k for k in LISTS[doc["kind"]] if doc["payload"].get(k)] or [None])
    if key is None:
        return None
    entries = doc["payload"][key]
    i = rng.randrange(len(entries))
    if rng.random() < 0.1:
        entries[i] = copy.deepcopy(rng.choice([5, "x", [], None, ["a"]]))
    else:
        for _ in range(rng.choice([1, 1, 2])):
            if entries[i]:
                _mutate(entries[i], rng)
    return doc, key, i


def test_mutated_entries_read_or_fail_alike():
    failed = 0
    for seed in range(3000):
        mutant = _mutants(seed)
        if mutant is None:
            continue
        new, old = _both(mutant[0])
        assert new == old, (seed, mutant[0]["payload"][mutant[1]][mutant[2]])
        failed += isinstance(new, str)
    assert failed > 2000  # most edits break their entry


def test_an_unknown_entry_field_is_refused():
    checked = 0
    for seed in range(400):
        rng = random.Random(seed)
        doc = copy.deepcopy(rng.choice(DOCUMENTS))
        key = rng.choice(LISTS[doc["kind"]])
        entries = doc["payload"].get(key)
        if not entries:
            continue
        i = rng.randrange(len(entries))
        entries[i]["extra"] = 1
        entry = entries[i]
        new, old = _both(doc)
        assert not isinstance(old, str)  # the oracle ignores the field
        assert new == f"bad {WHAT[key]} entry {entry!r}: unknown fields ['extra']"
        checked += 1
        # within the entry the unknown field is named first; a bad entry
        # before it is named instead
        bad = copy.deepcopy(doc)
        bad["payload"][key][i].update({k: [] for k in entry if k != "extra"})
        assert _both(bad)[0].endswith(": unknown fields ['extra']")
        if i > 0:
            del bad["payload"][key][i - 1]["name" if key == "generators" else "from"]
            new, old = _both(bad)
            assert isinstance(old, str) and new == old
    assert checked > 300


def test_optional_entry_fields_stay_optional():
    doc = json.loads(io_formats.write_typeda(type_da.builtin_H()))
    for action in doc["payload"]["actions"]:
        if not action["inputs"]:
            del action["inputs"]
    new, old = _both(doc)
    assert new == old and new[0] == type_da.builtin_H()
    doc = json.loads((FIXTURES / "trefoil_right.cfk.json").read_text(encoding="utf-8"))
    for arrow in doc["payload"]["arrows"]:
        if arrow["u_power"] == 0:
            del arrow["u_power"]
    new, old = _both(doc)
    assert new == old and new[0] == load_cfk("trefoil_right")


LIMIT = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0


@pytest.mark.skipif(not LIMIT, reason="the interpreter converts integers of any length")
def test_an_integer_too_long_is_refused_with_its_line():
    digits = "7" * (LIMIT + 1)
    says = f"integer longer than the limit of {LIMIT} digits"
    text = (FIXTURES / "unknot.cfk.json").read_text(encoding="utf-8")
    # a string of as many digits, and a long float, come before it and pass
    text = text.replace('"name": "u"', f'"name": "{digits}"')
    assert json.loads(text)["payload"]["generators"][0]["name"] == digits
    lines = text.splitlines()
    at = next(i for i, line in enumerate(lines) if '"maslov"' in line)
    lines[at - 1] = lines[at - 1].replace("0,", f"{digits}.5,")
    lines[at] = lines[at].replace("0", digits)
    bad = "\n".join(lines)
    with pytest.raises(ValueError) as err:  # the interpreter's refusal
        json.loads(bad)
    assert not isinstance(err.value, json.JSONDecodeError)
    for kind in ("cfk", None):
        with pytest.raises(ParseError) as err:
            io_formats.parse_any(bad, kind)
        assert str(err.value) == f"line {at + 1}: {says}"
    # a JSON array is read as terse lines first, then refused as JSON
    with pytest.raises(ParseError) as err:
        io_formats.parse_any(f"[1,\n-{digits}]")
    assert str(err.value) == f"line 2: {says}"
    for line in (f"x: A={digits} M=0", f"x: A=0 M=-{digits}", f"x -> U^{digits} y"):
        with pytest.raises(ParseError) as err:
            io_formats.parse_cfk(f"a: A=0 M=0\n# {line}\n{line}\n")
        assert str(err.value) == f"line 3: {says}"
