import collections
import io
import json
import random
import re
import sys

import pytest

from bhf import cfk, cli, io_formats, ktd, type_d, type_da
from bhf.algebra import CHORDS, NONZERO, AlgebraElement as A
from conftest import FIXTURES, FIXTURE_NAMES, TERSE_TREFOIL, load_cfk


def test_fixture_files_parse():
    C = load_cfk("five_gen")
    assert len(C.generators) == 5
    assert len(C.arrows) == 5


def test_cfk_round_trip(any_complex):
    text = io_formats.write_cfk(any_complex)
    again = io_formats.parse_cfk(text)
    assert again == any_complex
    assert io_formats.write_cfk(again) == text


def test_line_format():
    text = """
    # a small staircase
    a: A=1 M=0
    b: A=0 M=-1
    c: A=-1 M=-2
    b -> c
    b -> U^1 a
    """
    C = io_formats.parse_cfk("\n".join(l.strip() for l in text.splitlines()))
    assert C == load_cfk("trefoil_right")


def test_line_format_bad_line():
    with pytest.raises(io_formats.ParseError, match="line 2"):
        io_formats.parse_cfk("a: A=1 M=0\nwhat is this\n")


@pytest.mark.parametrize("text", ["", "\n  \n", "# only a comment\n"])
def test_terse_text_without_code_is_refused(text):
    for parse in (io_formats.parse_cfk, io_formats.parse_script, io_formats.parse_any):
        with pytest.raises(io_formats.ParseError, match="^empty document$"):
            parse(text)
    # an envelope is never empty: its payload says what it holds
    assert io_formats.parse_script('{"format_version": "1", "kind": "script", '
                                   '"payload": {"pairs": []}}') == []


def test_typed_round_trip(any_complex):
    D = ktd.ktd_basefree(any_complex)
    text = io_formats.write_typed(D)
    again = io_formats.parse_typed(text)
    assert again.generators == D.generators
    assert again.arrows == D.arrows
    assert io_formats.write_typed(again) == \
        io_formats.write_typed(io_formats.parse_typed(text))


def test_typeda_round_trip():
    for build in (type_da.builtin_H, type_da.builtin_tau_mu,
                  type_da.builtin_identity):
        B = build()
        text = io_formats.write_typeda(B)
        again = io_formats.parse_typeda(text)
        assert again == B
        assert io_formats.write_typeda(again) == text


def test_script_round_trip():
    pairs = [("a⊗b", "c⊗d"), ("x", "y")]
    assert io_formats.parse_script(io_formats.write_script(pairs)) == pairs


def test_script_writer_refuses_pairs_that_would_not_read_back():
    # a "#" starts a comment, "->" and a line break make another field or
    # line, and outer spaces are stripped: each would come back otherwise
    for pairs in ([("a#1", "b")], [("a->x", "b")], [("a", "x\ny")], [(" a", "b ")]):
        with pytest.raises(ValueError, match="would not read back") as info:
            io_formats.write_script(pairs)
        assert repr(pairs[0]) in str(info.value)
    # the first pair that would not come back is named
    with pytest.raises(ValueError, match=re.escape(repr(("b", "c#")))):
        io_formats.write_script([("a", "b"), ("b", "c#"), ("d ", "e")])
    # only the first name opens the document; a space inside a name stays
    pairs = [("x", "y"), ("{a", "b c")]
    assert io_formats.parse_script(io_formats.write_script(pairs)) == pairs
    with pytest.raises(ValueError, match=re.escape(repr(("{a", "b c")))):
        io_formats.write_script(pairs[::-1])
    assert io_formats.write_script([]) == ""


def test_script_fixture_parses():
    pairs = io_formats.parse_script(
        (FIXTURES / "h_cancellations.script").read_text(encoding="utf-8"))
    assert len(pairs) == 13
    assert all(len(a.split("⊗")) == 6 for a, _ in pairs)


def test_canonical_output_is_lf_and_sorted(any_complex):
    text = io_formats.write_cfk(any_complex)
    assert "\r" not in text
    assert text.endswith("\n")
    doc = json.loads(text)
    assert set(doc) == {"format_version", "kind", "payload"}
    assert doc["format_version"] == "1"


def test_detect_kind(any_complex):
    def kind(text):
        return io_formats.parse_any(text)[0]

    assert kind(io_formats.write_cfk(any_complex)) == "cfk"
    D = ktd.ktd_basefree(any_complex)
    assert kind(io_formats.write_typed(D)) == "type_d"
    B = type_da.builtin_tau_mu()
    assert kind(io_formats.write_typeda(B)) == "type_da"
    assert kind(TERSE_TREFOIL) == "cfk"
    assert io_formats.parse_cfk(TERSE_TREFOIL) == load_cfk("trefoil_right")
    assert kind(io_formats.write_script([("a", "b")])) == "script"


# a document of each kind, as a writer or a person saves it
_DOCUMENTS = {
    "cfk": lambda: io_formats.write_cfk(load_cfk("five_gen")),
    "type_d": lambda: io_formats.write_typed(ktd.ktd_basefree(load_cfk("five_gen"))),
    "type_da": lambda: io_formats.write_typeda(type_da.builtin_H()),
    "script": lambda: (FIXTURES / "h_cancellations.script").read_text(encoding="utf-8"),
    "terse cfk": lambda: TERSE_TREFOIL,
}


@pytest.mark.parametrize("name", _DOCUMENTS)
def test_a_byte_order_mark_is_ignored(name):
    # an editor that saves UTF-8 with a BOM puts U+FEFF before the first line
    text = _DOCUMENTS[name]()
    read = io_formats.parse_any("\ufeff" + text)
    assert read == io_formats.parse_any(text)
    assert read[0] == name.removeprefix("terse ")


def test_a_document_of_only_a_byte_order_mark_is_empty(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("\ufeff"))
    assert cli.main(["validate", "-"]) == 1
    assert capsys.readouterr().err == "error: -: empty document\n"


def test_envelope_errors():
    with pytest.raises(io_formats.ParseError, match="format_version"):
        io_formats.parse_typed(json.dumps(
            {"format_version": "2", "kind": "type_d", "payload": {}}))
    with pytest.raises(io_formats.ParseError, match="kind"):
        io_formats.parse_typed(json.dumps(
            {"format_version": "1", "kind": "cfk", "payload": {}}))
    with pytest.raises(io_formats.ParseError, match="envelope"):
        io_formats.parse_cfk(json.dumps(
            {"format_version": "1", "kind": "cfk", "payload": {}, "x": 1}))
    with pytest.raises(io_formats.ParseError):
        io_formats.parse_cfk("{not json")


def test_nesting_deeper_than_the_limit_is_refused():
    # levels every interpreter's json decodes: the refusal is bhf's own, and
    # MAX_DEPTH levels, the envelope the first, still read
    limit = io_formats.MAX_DEPTH

    def typed(tags_depth):
        tags = {}
        for _ in range(tags_depth - 1):
            tags = {"a": tags}
        return json.dumps({"format_version": "1", "kind": "type_d", "payload": {
            "generators": [{"name": "x", "idempotent": "iota0"}], "tags": tags}})
    assert io_formats.parse_typed(typed(limit - 2)).tags
    deep = [typed(limit - 1), typed(600), '{"a":' * 600 + "1" + "}" * 600,
            typed(2).replace('"x"', "[" * 600 + "]" * 600)]
    for text in deep:
        with pytest.raises(io_formats.ParseError, match="^not valid JSON: nested too deeply$"):
            io_formats.parse_any(text)
    # terse text read as lines keeps the error of its first line
    with pytest.raises(io_formats.ParseError, match="^line 1: cannot parse"):
        io_formats.parse_any("[" * 600 + "]" * 600)
    with pytest.raises(io_formats.ParseError, match="^document is not a JSON object$"):
        io_formats.parse_any("[" * limit + "]" * limit)
    # deep enough that the decoder itself gives up on every supported
    # Python (3.13 decodes 5,000 levels that 3.12 refuses)
    with pytest.raises(io_formats.ParseError, match="^not valid JSON: nested too deeply$"):
        io_formats.parse_any('{"a":' * 100_000 + "1" + "}" * 100_000)


def test_unknown_payload_field_rejected():
    with pytest.raises(io_formats.ParseError, match=r"unknown type_d fields: \['extra'\]"):
        io_formats.parse_typed(json.dumps(
            {"format_version": "1", "kind": "type_d", "payload": {"extra": []}}))


def test_bad_entries_rejected():
    with pytest.raises(io_formats.ParseError, match="generator"):
        io_formats.parse_cfk(json.dumps(
            {"format_version": "1", "kind": "cfk",
             "payload": {"generators": [{"name": "x"}], "arrows": []}}))
    with pytest.raises(io_formats.ParseError, match="arrow"):
        io_formats.parse_typed(json.dumps(
            {"format_version": "1", "kind": "type_d",
             "payload": {"generators": [{"name": "x", "idempotent": "iota0"}],
                         "arrows": [{"from": "x", "to": "x",
                                     "label": "sigma"}]}}))


# a chord or zero is an algebra element but no idempotent
@pytest.mark.parametrize("value, shown", [
    ("iota2", "'iota2'"), (5, "5"), (["iota0"], "['iota0']"), ("rho1", "'rho1'"), ("0", "'0'")])
def test_unknown_idempotents_rejected(value, shown):
    gen = {"name": "x", "idempotent": value}
    with pytest.raises(io_formats.ParseError) as err:
        io_formats.parse_typed(json.dumps(
            {"format_version": "1", "kind": "type_d",
             "payload": {"generators": [gen], "arrows": []}}))
    assert str(err.value) == f"bad generator entry {gen!r}: unknown idempotent {shown}"
    gen = {"name": "x", "left": "iota0", "right": value}
    with pytest.raises(io_formats.ParseError) as err:
        io_formats.parse_typeda(json.dumps(
            {"format_version": "1", "kind": "type_da",
             "payload": {"generators": [gen], "actions": []}}))
    assert str(err.value) == f"bad generator entry {gen!r}: unknown idempotent {shown}"


def test_arrows_and_actions_in_dataclass_order():
    """Construction and the writers order arrows and actions as sorted()
    does, also between several labels of one (source, target) pair."""
    rng = random.Random(7)
    names = ["a", "b", "c"]
    arrows = [type_d.DArrow(rng.choice(names), rng.choice(names), rng.choice(NONZERO))
              for _ in range(60)]
    pairs = collections.Counter((a.source, a.target) for a in set(arrows))
    assert max(pairs.values()) >= 3
    M = type_d.make_module([(n, A.I0) for n in names], arrows)
    assert M.arrows == tuple(sorted(set(arrows)))
    rng.shuffle(arrows)
    text = io_formats.write_typed(type_d.TypeDModule(M.generators, tuple(arrows)))
    assert [(a["from"], a["to"], a["label"])
            for a in json.loads(text)["payload"]["arrows"]] \
        == [(a.source, a.target, a.label.value) for a in sorted(arrows)]
    actions = [type_da.DAAction(rng.choice(names),
                                tuple(rng.choice(CHORDS) for _ in range(rng.randrange(3))),
                                rng.choice(NONZERO), rng.choice(names))
               for _ in range(80)]
    gens = [(n, A.I0, A.I1) for n in names]
    B = type_da.make_da(gens, actions)
    assert B.actions == tuple(sorted(set(actions)))
    rng.shuffle(actions)
    text = io_formats.write_typeda(type_da.TypeDAModule(B.generators, tuple(actions)))
    assert [(a["from"], a["inputs"], a["output"], a["to"])
            for a in json.loads(text)["payload"]["actions"]] \
        == [(a.source, [x.value for x in a.args], a.coeff.value, a.target)
            for a in sorted(actions)]
