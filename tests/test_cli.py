import copy
import io
import json
import os
import pathlib
import random
import re
import subprocess
import sys

import pytest

import bhf
from bhf import cfk, cli, io_formats, ktd, type_d, type_da
from bhf.algebra import AlgebraElement as A
from conftest import FIXTURE_NAMES, FIXTURES, ROOT, TERSE_TREFOIL, load_cfk, random_complex


def fx(name):
    return str(FIXTURES / name)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_ok(capsys):
    code, out, _ = run(capsys, "validate", fx("five_gen.cfk.json"))
    assert code == 0
    assert "valid cfk" in out


def test_validate_terse_complex(tmp_path, capsys):
    p = tmp_path / "trefoil.cfk"
    p.write_text(TERSE_TREFOIL)
    code, out, _ = run(capsys, "validate", str(p))
    assert (code, out) == (0, "valid cfk\n")


def test_validate_bad_file(tmp_path, capsys):
    p = tmp_path / "bad.cfk.json"
    p.write_text(json.dumps({
        "format_version": "1", "kind": "cfk",
        "payload": {"generators": [
            {"name": "x", "alexander": 1, "maslov": 0},
            {"name": "y", "alexander": 0, "maslov": 5}],
            "arrows": [{"from": "x", "to": "y", "u_power": 0}]}}))
    code, _, err = run(capsys, "validate", str(p))
    assert code == 1
    assert err


def test_missing_file(capsys):
    code, _, err = run(capsys, "tau", "no_such_file.json")
    assert code == 1
    assert "error" in err


def test_usage_error(capsys):
    assert cli.main(["frobnicate"]) == 2


def test_tau(capsys):
    code, out, _ = run(capsys, "tau", fx("trefoil_left.cfk.json"))
    assert code == 0
    assert out.strip() == "-1"


def test_flip_round_trip(tmp_path, capsys):
    out_path = tmp_path / "flipped.cfk.json"
    code, _, _ = run(capsys, "flip", fx("trefoil_right.cfk.json"),
                     "-o", str(out_path))
    assert code == 0
    code, _, _ = run(capsys, "flip", str(out_path), "-o", str(out_path))
    assert code == 0
    assert out_path.read_text() == \
        (FIXTURES / "trefoil_right.cfk.json").read_text()


def test_simplify(capsys):
    code, out, _ = run(capsys, "simplify", fx("five_gen.cfk.json"))
    assert code == 0
    assert io_formats.parse_any(out)[0] == "cfk"


@pytest.mark.parametrize("mode, simplified", [("v", cfk.is_vertically_simplified),
                                              ("h", cfk.is_horizontally_simplified)])
def test_simplify_one_family(tmp_path, capsys, mode, simplified):
    C = random_complex("five_gen", 0)  # simplified in neither family
    assert not simplified(C)
    path = tmp_path / "scrambled.cfk.json"
    path.write_text(io_formats.write_cfk(C), encoding="utf-8")
    code, out, _ = run(capsys, "simplify", str(path), "--mode", mode)
    assert code == 0
    S = io_formats.parse_cfk(out)
    assert cfk.validate(S) == [] and simplified(S)


def test_cfd_unknot_framing_zero(capsys):
    code, out, _ = run(capsys, "cfd", fx("unknot.cfk.json"),
                       "--framing", "0", "--algo", "basis")
    assert code == 0
    doc = json.loads(out)
    arrows = doc["payload"]["arrows"]
    assert len(arrows) == 1
    assert arrows[0]["label"] == "rho12"
    assert arrows[0]["from"] == arrows[0]["to"]


def test_cfd_basefree_then_reduce(tmp_path, capsys):
    mod = tmp_path / "m.dmod.json"
    code, out, _ = run(capsys, "cfd", fx("five_gen.cfk.json"),
                       "--algo", "basefree", "-o", str(mod))
    assert code == 0
    code, out, _ = run(capsys, "reduce", str(mod))
    assert code == 0
    assert io_formats.parse_any(out)[0] == "type_d"


def test_tensor_with_builtin(tmp_path, capsys):
    mod = tmp_path / "m.dmod.json"
    run(capsys, "cfd", fx("trefoil_right.cfk.json"), "-o", str(mod),
        "--algo", "basefree")
    code, out, _ = run(capsys, "tensor", "--bimodule", "builtin:H", str(mod))
    assert code == 0
    assert io_formats.parse_any(out)[0] == "type_d"


# a⊗(b⊗c) and (a⊗b)⊗c are both named a⊗b⊗c
CLASHING_BIMODULE = type_da.make_da([("a", A.I0, A.I0), ("a⊗b", A.I0, A.I0)], [])
CLASHING_MODULE = type_d.make_module([("b⊗c", A.I0), ("c", A.I0)], [])


def test_tensor_rejects_duplicate_product_names(tmp_path, capsys):
    bim, mod = tmp_path / "b.damod.json", tmp_path / "m.dmod.json"
    bim.write_text(io_formats.write_typeda(CLASHING_BIMODULE), encoding="utf-8")
    mod.write_text(io_formats.write_typed(CLASHING_MODULE), encoding="utf-8")
    for path in (bim, mod):
        assert run(capsys, "validate", str(path))[0] == 0
    code, out, err = run(capsys, "tensor", "--bimodule", str(bim), str(mod))
    assert (code, out) == (1, "")
    assert err == "error: box product has two generators named 'a⊗b⊗c'\n"


def test_box_da_da_rejects_duplicate_product_names():
    C = type_da.make_da([(n, i, i) for n, i in CLASHING_MODULE.generators], [])
    with pytest.raises(ValueError, match="two generators named 'a⊗b⊗c'"):
        type_da.box_da_da(CLASHING_BIMODULE, C)


def test_build_h_matches_builtin(tmp_path, capsys):
    built = tmp_path / "h.damod.json"
    code, _, _ = run(capsys, "build-h",
                     "--script", fx("h_cancellations.script"),
                     "-o", str(built))
    assert code == 0
    code, out, _ = run(capsys, "iso", str(built), "builtin:H")
    assert code == 0
    assert "->" in out


def test_reduce_of_a_bimodule_replays_a_script(tmp_path, capsys, monkeypatch):
    # the sixfold twist product, reduced along the recorded cancellations,
    # then matched against H from stdin
    B, L = type_da.builtin_tau_mu(), type_da.builtin_tau_lambda()
    prod = type_da.box_da_da(B, L)
    for factor in (B, L, B, L):
        prod = type_da.box_da_da(prod, factor)
    path = tmp_path / "sixfold.damod.json"
    path.write_text(io_formats.write_typeda(prod), encoding="utf-8")
    code, out, _ = run(capsys, "reduce", str(path), "--script", fx("h_cancellations.script"))
    assert code == 0 and io_formats.parse_any(out)[0] == "type_da"
    monkeypatch.setattr(sys, "stdin", io.StringIO(out))
    code, out, err = run(capsys, "iso", "-", "builtin:H")
    assert (code, err) == (0, "") and "->" in out


@pytest.mark.parametrize("argv", [["cfd", "-"], ["verify", "-", "--algo", "basis"]])
def test_basis_of_an_unsimplifiable_complex_exits_1(capsys, monkeypatch, argv):
    # two generators, no arrow: the homologies have rank two, so it is no
    # knot complex, and basis refuses it as basefree does
    monkeypatch.setattr(sys, "stdin", io.StringIO("x: A=0 M=0\ny: A=0 M=0\n"))
    assert run(capsys, *argv) == (1, "", "error: dw homology has rank 2, expected 1\n")


@pytest.mark.parametrize("third, argv", [
    ("a|8", ["cfd", "-", "--algo", "basefree"]), ("a|8", ["verify", "-"]),
    ("u.1", ["cfd", "-"]), ("u.1", ["verify", "-", "--algo", "basis"])])
def test_a_generator_named_like_a_made_one_exits_1(capsys, monkeypatch, third, argv):
    # the trefoil with its third generator named like a generator the
    # construction makes: the base-free rho1 target of a, or the basis chain
    monkeypatch.setattr(sys, "stdin", io.StringIO(TERSE_TREFOIL.replace("c", third)))
    assert run(capsys, *argv) == (
        1, "", f"error: construction makes two generators named {third!r}\n")


@pytest.mark.parametrize("module", ["basefree", "builtin:H"])
def test_reduce_script_with_an_unknown_arrow_exits_1(tmp_path, capsys, module):
    if module == "basefree":
        module = str(tmp_path / "five.json")
        assert run(capsys, "cfd", fx("five_gen.cfk.json"), "--algo", "basefree",
                   "-o", module)[0] == 0
    script = tmp_path / "bad.script"
    script.write_text("nope -> a\n")
    assert run(capsys, "reduce", module, "--script", str(script)) == (
        1, "", "error: no idempotent arrow nope -> a\n")


def test_broken_pipe_on_stdout_exits_1_quietly(capsys, monkeypatch):
    class BrokenStdout(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", BrokenStdout())
    assert cli.main(["validate", fx("five_gen.cfk.json")]) == 1
    assert capsys.readouterr().err == ""


def test_iso_mismatch_is_inconclusive(capsys):
    code, _, err = run(capsys, "iso", "builtin:tau-mu", "builtin:tau-lambda")
    assert code == 3
    assert err


def test_verify_verified(capsys):
    code, out, _ = run(capsys, "verify", fx("figure_eight.cfk.json"))
    assert code == 0
    assert out.startswith("verified")


def test_verify_basis_path(capsys):
    code, out, _ = run(capsys, "verify", fx("trefoil_right.cfk.json"),
                       "--algo", "basis")
    assert code == 0
    assert out.startswith("verified")


def test_verify_exits_1_on_a_failed_verdict(capsys, monkeypatch):
    # no knot is known to fail, so the verdict is stubbed
    monkeypatch.setattr(ktd, "verify_elliptic_invariance", lambda C, algo, framing:
                        ktd.VerifyResult("failed", None, "generators per idempotent differ"))
    assert run(capsys, "verify", fx("trefoil_right.cfk.json")) == (
        1, "failed: generators per idempotent differ\n", "")


@pytest.mark.parametrize("name, algo", [("unknot", "basis"), ("trefoil_right", "basefree")])
def test_verify_at_framing_1000(capsys, name, algo):
    # about a thousand generators, one framing-chain step each
    code, out, err = run(capsys, "verify", fx(f"{name}.cfk.json"), "--algo", algo,
                         "--framing", "1000")
    assert (code, err) == (0, "") and out.startswith("verified")


# trefoil_left plus an acyclic box; its alternating simplification cycles,
# while the base-free path verifies it
UNSIMPLIFIABLE = ("a: A=1 M=2\nb: A=0 M=1\nc: A=-1 M=0\npa: A=-1 M=-1\n"
                  "pb: A=-2 M=-2\npc: A=1 M=2\npd: A=0 M=1\n"
                  "a -> b\nc -> U^1 b\npa -> U^2 a\npa -> pb\npa -> U^2 pc\n"
                  "pb -> U^2 b\npb -> U^2 pd\npc -> pd\n")

# the nine random draws, seeds 0-199, whose simultaneous simplification
# falls into a cycle; none is a knot complex, and this is what both
# algorithms, and simplify, refuse it with
CYCLING_DRAWS = {
    ("unknot", 132): "dw homology has rank 5, expected 1",
    ("trefoil_right", 45): "dw homology has rank 3, expected 1",
    ("trefoil_right", 51): "dw homology has rank 3, expected 1",
    ("trefoil_right", 148): "dw homology has rank 5, expected 1",
    ("trefoil_left", 16): "dw homology has rank 3, expected 1",
    ("trefoil_left", 186): "dw homology has rank 3, expected 1",
    ("figure_eight", 82): "dz homology has rank 3, expected 1",
    ("figure_eight", 88): "dw homology has rank 7, expected 1",
    ("figure_eight", 132): "dw homology has rank 5, expected 1",
}


def test_verify_basis_unconverged_is_inconclusive(tmp_path, capsys):
    p = tmp_path / "box.cfk"
    p.write_text(UNSIMPLIFIABLE)
    assert run(capsys, "verify", str(p), "--algo", "basis") == (
        3, "inconclusive: simultaneous simplification did not converge in "
           "64 rounds\n", "")
    code, out, _ = run(capsys, "verify", str(p))
    assert (code, out.split(":")[0]) == (0, "verified")
    assert run(capsys, "tau", str(p)) == (0, "-1\n", "")
    for argv in (["cfd", str(p)], ["simplify", str(p)]):
        assert run(capsys, *argv) == (
            1, "", "error: simultaneous simplification did not converge\n")


def test_simplify_refuses_a_cycling_draw_as_no_knot_complex(tmp_path, capsys):
    # its simplification cycles too, but the error names the homology, not a budget
    p = tmp_path / "draw.cfk.json"
    for (name, seed), says in CYCLING_DRAWS.items():
        p.write_text(io_formats.write_cfk(random_complex(name, seed)))
        assert run(capsys, "simplify", str(p)) == (1, "", f"error: {says}\n"), (name, seed)


def test_parser_is_built_once(capsys):
    calls = [["validate", fx("five_gen.cfk.json")], ["frobnicate"],
             ["cfd", fx("trefoil_right.cfk.json"), "--framing", "3"],
             ["verify", fx("trefoil_left.cfk.json"), "--algo", "nope"],
             ["cfd", fx("trefoil_right.cfk.json")],
             ["tau", fx("trefoil_right.cfk.json")],
             ["iso", "builtin:tau-mu", "builtin:tau-lambda"]]
    first = [run(capsys, *argv) for argv in calls]
    again = [run(capsys, *argv) for argv in reversed(calls)][::-1]
    assert cli._parser() is cli._parser()
    assert first == again
    assert [code for code, _, _ in first] == [0, 2, 0, 2, 0, 0, 3]
    assert first[2][1] != first[4][1]  # --framing does not stick
    assert "usage: bhf" in first[1][2] and "invalid choice" in first[3][2]


def test_dot_output(tmp_path, capsys):
    mod = tmp_path / "m.dmod.json"
    run(capsys, "cfd", fx("unknot.cfk.json"), "-o", str(mod),
        "--algo", "basefree")
    code, out, _ = run(capsys, "dot", str(mod))
    assert code == 0
    assert out.startswith("digraph")


def test_dot_escapes_quotes_and_backslashes(tmp_path, capsys):
    mod = tmp_path / "m.dmod.json"
    mod.write_text(json.dumps({
        "format_version": "1", "kind": "type_d",
        "payload": {"generators": [{"name": 'a"b', "idempotent": "iota0"},
                                   {"name": "c\\d", "idempotent": "iota1"}],
                    "arrows": [{"from": 'a"b', "to": "c\\d", "label": "rho1"}]}}))
    assert run(capsys, "validate", str(mod))[0] == 0
    code, out, _ = run(capsys, "dot", str(mod))
    assert code == 0
    quoted = r'"((?:[^"\\]|\\.)*)"'
    node = re.compile(rf"  {quoted} \[label={quoted}\];")
    edge = re.compile(rf"  {quoted} -> {quoted} \[label={quoted}\];")
    lines = out.splitlines()
    assert lines[0] == "digraph {" and lines[-1] == "}"
    parsed = [(node.fullmatch(line) or edge.fullmatch(line)).groups()
              for line in lines[1:-1]]
    unquote = lambda s: re.sub(r"\\(.)", r"\1", s)
    assert [tuple(map(unquote, p)) for p in parsed] == [
        ('a"b', 'a"b [iota0]'), ("c\\d", "c\\d [iota1]"), ('a"b', "c\\d", "rho1")]


def test_reduce_reads_no_environment(tmp_path, capsys, monkeypatch):
    mod = tmp_path / "m.dmod.json"
    mod.write_text(io_formats.write_typed(ktd.ktd_basefree(load_cfk("five_gen"))))
    plain = run(capsys, "reduce", str(mod))
    assert plain[0] == 0
    for value in ("5", "not-a-number"):
        monkeypatch.setenv("BHF_SEED", value)
        assert run(capsys, "reduce", str(mod)) == plain


def test_reduce_takes_a_seed_or_a_script_not_both(tmp_path, capsys):
    module, script = tmp_path / "five.json", tmp_path / "nothing.script"
    module.write_text(io_formats.write_typed(ktd.ktd_basefree(load_cfk("five_gen"))))
    script.write_text(_doc("script", {"pairs": []}))  # valid, and cancels nothing
    assert run(capsys, "reduce", str(module), "--seed", "1")[0] == 0
    assert run(capsys, "reduce", str(module), "--script", str(script))[0] == 0
    code, out, err = run(capsys, "reduce", str(module), "--seed", "1", "--script", str(script))
    assert (code, out) == (2, "") and "not allowed with argument --seed" in err


def test_the_readme_example_prints_verified(capsys):
    # the example imports submodules: bhf itself re-exports no name
    (example,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text("utf-8"),
                            re.S)
    exec(example, {})
    assert capsys.readouterr().out == "verified\n"


def test_python_dash_m_runs_cli():
    src = str(pathlib.Path(bhf.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run(
        [sys.executable, "-m", "bhf", "tau", fx("trefoil_left.cfk.json")],
        capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout.strip()) == (0, "-1")
    done = subprocess.run([sys.executable, "-m", "bhf", "frobnicate"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 2


def _doc(kind, payload):
    return json.dumps({"format_version": "1", "kind": kind, "payload": payload})


_SELF_LOOP = _doc("type_d", {"generators": [{"name": "x", "idempotent": "iota0"}],
                             "arrows": [{"from": "x", "to": "x", "label": "iota0"}]})
_BAD_DA = _doc("type_da", {"generators": [{"name": "x", "left": "iota0",
                                           "right": "iota0"}],
                           "actions": [{"from": "x", "inputs": [], "output": "iota0",
                                        "to": "x"}]})


_NO_ARROWS = _doc("type_d", {"generators": [{"name": "x", "idempotent": "iota0"}]})


_EMPTY_CFK = _doc("cfk", {"generators": [], "arrows": []})

_MALFORMED = [
    (["validate", "{}"], _doc("type_d", {"generators": ["x"]}), "generators must be"),
    (["reduce", "{}"], _doc("type_d", {"generators": ["x"]}), "generators must be"),
    (["tensor", "--bimodule", "builtin:H", "{}"],
     _doc("type_d", {"generators": ["x"]}), "generators must be"),
    (["validate", "{}"], _doc("type_d", {"arrows": [{"label": "rho1"}]}), "bad arrow"),
    (["validate", "{}"], _doc("type_d", {"tags": [1]}), "tags"),
    (["validate", "{}"], _doc("type_da", {"actions": ["x"]}), "actions"),
    (["validate", "{}"], _doc("type_da", {"actions": [
        {"from": "x", "to": "x", "inputs": "rho1", "output": "iota0"}]}), "bad action"),
    (["validate", "{}"], _doc("cfk", {"shift": 5}), "bad shift"),
    (["validate", "{}"], _doc("cfk", {"generators": 5}), "generators"),
    (["reduce", "{}"], _SELF_LOOP, "invalid type_d: d^2"),
    (["iso", "{}", "{}"], _SELF_LOOP, "invalid type_d: d^2"),
    (["tensor", "--bimodule", "{}", "{ok}"], _BAD_DA, "invalid type_da: A-infinity"),
    (["tensor", "--bimodule", "builtin:H", "{}"], _BAD_DA, "expected kind 'type_d'"),
    (["tau", "{}"], _SELF_LOOP, "expected kind 'cfk'"),
    # a builtin is a type_da: a command that lets the library check its complex
    # still refuses one
    (["verify", "builtin:H"], "", "expected cfk, found type_da"),
    (["cfd", "builtin:H"], "", "expected cfk, found type_da"),
    (["tau", "builtin:tau-mu"], "", "expected cfk, found type_da"),
    (["iso", "{}", "builtin:H"], _doc("cfk", {}), "expected type_d or type_da"),
    (["build-h", "--script", "{}"], "a -> b -> c\n", "expected 'from -> to'"),
    (["reduce", "{ok}", "--script", "{}"], "a -> b -> c\n", "expected 'from -> to'"),
    (["tau", "{}"], "x: A=0 M=0\ny: A=0 M=0\n", "vertical homology has rank 2"),
    # three horizontal cycles, one boundary: rank 3 - 1, whatever the cycles reduce to
    (["cfd", "{}", "--algo", "basefree"],
     "a: A=0 M=-1\nb: A=0 M=-1\nc: A=0 M=-1\nd: A=-1 M=-2\n"
     "d -> U^1 a\nd -> U^1 b\nd -> U^1 c\n", "dw homology has rank 2, expected 1"),
    # an empty complex has no homology, and no Alexander range is read
    (["cfd", "{}", "--algo", "basefree"], _EMPTY_CFK, "dw homology has rank 0, expected 1"),
    (["verify", "{}"], _EMPTY_CFK, "dw homology has rank 0, expected 1"),
    (["iso", "{}", "builtin:H"], _NO_ARROWS, "cannot compare a type_d with a type_da"),
    (["validate", "{}"], '{"a":' * 5000 + "1" + "}" * 5000, "nested too deeply"),
    (["validate", "{}"], "[1,2]", "document is not a JSON object"),
    # one kind expected: the envelope reader meets the array itself
    (["dot", "{}"], "[1,2]", "document is not a JSON object"),
    # too deep to decode as JSON, read as terse lines: the line is cut short
    (["validate", "{}"], "[" * 5000 + "]" * 5000, "cannot parse '" + "[" * 80 + "…'"),
    (["flip", "{}", "-o", "{nodir}"], TERSE_TREFOIL, "cannot write"),
    # a repeated entry would cancel its twin over F2: no list merges it silently
    (["validate", "{}"], _doc("type_d", {
        "generators": [{"name": "x", "idempotent": "iota0"}, {"name": "y", "idempotent": "iota1"}],
        "arrows": [{"from": "x", "to": "y", "label": "rho1"}] * 2}),
     "repeated arrow entry {'from': 'x', 'to': 'y', 'label': 'rho1'}"),
    (["validate", "{}"], _doc("type_da", {
        "generators": [{"name": "x", "left": "iota0", "right": "iota0"}],
        "actions": [{"from": "x", "to": "x", "inputs": [], "output": "iota0"}] * 2}),
     "repeated action entry {'from': 'x', 'to': 'x', 'inputs': [], 'output': 'iota0'}"),
    (["validate", "{}"], _doc("cfk", {
        "generators": [{"name": "b", "alexander": 0, "maslov": -1},
                       {"name": "c", "alexander": -1, "maslov": -2}],
        "arrows": [{"from": "b", "to": "c"}, {"from": "b", "to": "c", "u_power": 0}]}),
     "repeated arrow entry {'from': 'b', 'to': 'c', 'u_power': 0}"),
    (["validate", "{}"], "b: A=0 M=-1\nc: A=-1 M=-2\nb -> c\n# again\nb -> U^0 c\n",
     "line 5: repeated arrow"),
    # an entry field the format does not name is refused, as at the other levels
    (["validate", "{}"], _doc("type_d", {"generators": [
        {"name": "x", "idempotent": "iota0", "idem": "iota1"}]}),
     "bad generator entry {'name': 'x', 'idempotent': 'iota0', 'idem': 'iota1'}: "
     "unknown fields ['idem']"),
    # an integer too long to convert is refused at its line, not with the
    # interpreter's advice
    (["validate", "{}"], "a: A=0 M=0\nx: A=" + "1" * 5000 + " M=0\n",
     "line 2: integer longer than the limit of"),
    (["verify", "{}"], '{"format_version": "1", "kind": "cfk", "payload": {"generators": [\n'
     '{"name": "x", "alexander": 0, "maslov": -' + "1" * 5000 + "}]}}",
     "line 2: integer longer than the limit of"),
    (["build-h", "--script", "{}"], _doc("script", {"pairs": ["ab"]}), "pairs must be"),
    (["build-h", "--script", "{}"], _doc("script", {"pairs": [{"x": 1, "y": 2}]}),
     "[from, to] lists"),
]


@pytest.mark.parametrize("argv, text, says", _MALFORMED,
                         ids=[f"{argv[0]}:{says}" for argv, _, says in _MALFORMED])
def test_malformed_input_exits_1_without_traceback(tmp_path, capsys, argv, text, says):
    bad, ok = tmp_path / "bad.json", tmp_path / "ok.json"
    bad.write_text(text)
    ok.write_text(_NO_ARROWS)
    paths = {"{}": str(bad), "{ok}": str(ok),
             "{nodir}": str(tmp_path / "no_such_dir" / "out.json")}
    code, out, err = run(capsys, *[paths.get(a, a) for a in argv])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and says in err and "Traceback" not in err


# a command reading terse text refuses one without a line of code; one
# reading a module expects an envelope, which such text is not
_EMPTY_INPUT = [
    *[(argv, "error: -: empty document\n") for argv in (
        ["validate", "-"], ["flip", "-"], ["simplify", "-"], ["tau", "-"], ["cfd", "-"],
        ["verify", "-"], ["reduce", "-"], ["iso", "-", "builtin:H"],
        ["build-h", "--script", "-"])],
    (["tensor", "--bimodule", "builtin:H", "-"], "error: -: not valid JSON"),
    (["dot", "-"], "error: -: not valid JSON"),
]


@pytest.mark.parametrize("text", ["", "\n  \n", "# only a comment\n"],
                         ids=["empty", "blank", "comment"])
@pytest.mark.parametrize("argv, says", _EMPTY_INPUT, ids=[a[0] for a, _ in _EMPTY_INPUT])
def test_an_empty_document_exits_1(capsys, monkeypatch, argv, says, text):
    # a failed producer piped into a reader without pipefail must not pass
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(says) and "Traceback" not in err


def _edited(fixture, edit):
    """The fixture's JSON document after edit(payload)."""
    doc = json.loads((FIXTURES / f"{fixture}.cfk.json").read_text(encoding="utf-8"))
    edit(doc["payload"])
    return json.dumps(doc)


def _set(entries, key, value):
    def edit(payload):
        payload[entries][0][key] = value
    return edit


_GEN = {"name": "x", "idempotent": "iota0"}
_DA_GEN = {"name": "x", "left": "iota0", "right": "iota0"}
_ACTION = {"from": "x", "to": "x", "inputs": [], "output": "iota0"}

# one field of the wrong JSON type per document; an absent tags is valid
_STRICT = [(f"tags {json.dumps(v)}", _doc("type_d", {"generators": [_GEN], "tags": v}),
            "tags must be an object") for v in ([], 0, "", False, None)] + [
    ("arrow label", _doc("type_d", {"generators": [_GEN], "arrows": [
        {"from": "x", "to": "x", "label": ["rho12"]}]}),
     "bad arrow entry {'from': 'x', 'to': 'x', 'label': ['rho12']}: "
     "unknown algebra element ['rho12']"),
    ("action input", _doc("type_da", {"generators": [_DA_GEN], "actions": [
        dict(_ACTION, inputs=[["rho1"]])]}), ": unknown algebra element ['rho1']"),
    ("action output", _doc("type_da", {"generators": [_DA_GEN], "actions": [
        dict(_ACTION, output=["rho1"])]}), ": unknown algebra element ['rho1']"),
    ("idempotent", _doc("type_d", {"generators": [dict(_GEN, idempotent=True)]}),
     "unknown idempotent True"),
    ("type_d name", _doc("type_d", {"generators": [dict(_GEN, name=5)]}),
     "bad generator entry {'name': 5, 'idempotent': 'iota0'}: name must be a string"),
    ("type_d to", _doc("type_d", {"generators": [_GEN], "arrows": [
        {"from": "x", "to": None, "label": "rho12"}]}), "to must be a string"),
    ("type_da name", _doc("type_da", {"generators": [dict(_DA_GEN, name=["x"])]}),
     "name must be a string"),
    ("type_da from", _doc("type_da", {"generators": [_DA_GEN], "actions": [
        dict(_ACTION, **{"from": 1})]}), "bad action entry"),
    ("cfk name", _edited("unknot", _set("generators", "name", ["a"])),
     "bad generator entry {'alexander': 0, 'maslov': 0, 'name': ['a']}: "
     "name must be a string"),
    ("cfk alexander", _edited("unknot", _set("generators", "alexander", 0.9)),
     "alexander must be an integer"),
    ("cfk maslov", _edited("unknot", _set("generators", "maslov", "0")),
     "maslov must be an integer"),
    ("cfk maslov bool", _edited("unknot", _set("generators", "maslov", False)),
     "maslov must be an integer"),
    ("cfk from", _edited("trefoil_right", _set("arrows", "from", 1)),
     "from must be a string"),
    ("cfk u_power", _edited("trefoil_right", _set("arrows", "u_power", True)),
     "bad arrow entry"),
    ("cfk u_power float", _edited("trefoil_right", _set("arrows", "u_power", 1.0)),
     "u_power must be an integer"),
    ("cfk shift", _edited("unknot", lambda p: p.update(shift=[0, 1.5])), "bad shift"),
    ("cfk shift string", _edited("unknot", lambda p: p.update(shift=["0", 1])),
     "bad shift"),
    ("script pair", _doc("script", {"pairs": [[1, 2]]}), "[from, to] lists of strings"),
]


@pytest.mark.parametrize("text, says", [c[1:] for c in _STRICT],
                         ids=[c[0] for c in _STRICT])
def test_fields_of_the_wrong_type_exit_1(tmp_path, capsys, text, says):
    path = tmp_path / "doc.json"
    path.write_text(text)
    load = {"cfk": ["verify"], "type_d": ["reduce"], "type_da": ["reduce"],
            "script": ["build-h", "--script"]}[json.loads(text)["kind"]]
    for argv in (["validate", str(path)], [*load, str(path)]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error: ") and says in err, (argv, err)


def test_absent_tags_are_valid(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(_NO_ARROWS)
    assert run(capsys, "validate", str(path)) == (0, "valid type_d\n", "")


@pytest.mark.parametrize("text", [
    (FIXTURES / "five_gen.cfk.json").read_text(encoding="utf-8"),
    io_formats.write_typed(ktd.ktd_basefree(load_cfk("five_gen"))),
    io_formats.write_typeda(type_da.builtin_H()),
    _doc("script", {"pairs": [["a", "b"]]})], ids=["cfk", "type_d", "type_da", "script"])
def test_validate_decodes_json_once(tmp_path, capsys, monkeypatch, text):
    path = tmp_path / "doc.json"
    path.write_text(text)
    calls = []
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda *a, **k: calls.append(a) or loads(*a, **k))
    code, out, _ = run(capsys, "validate", str(path))
    assert (code, out.startswith("valid "), len(calls)) == (0, True, 1)


_JUNK = [None, True, -1, 2.5, "", "x", "rho12", "iota0", [], [1, 2], {}, {"a": 1}]


def _containers(node):
    if isinstance(node, (dict, list)):
        yield node
        for v in (node.values() if isinstance(node, dict) else node):
            yield from _containers(v)


def _mutate(doc, rng):
    """Delete a key or entry, swap a value for junk, or duplicate an entry,
    somewhere in the JSON tree."""
    op = rng.choice(["delete", "junk", "duplicate"])
    nodes = [c for c in _containers(doc)
             if c and (op != "duplicate" or isinstance(c, list))]
    if not nodes:
        return
    node = rng.choice(nodes)
    key = rng.choice(list(node) if isinstance(node, dict) else range(len(node)))
    if op == "delete":
        del node[key]
    elif op == "junk":
        node[key] = copy.deepcopy(rng.choice(_JUNK))
    else:
        node.insert(key, copy.deepcopy(node[key]))


def test_fuzzed_documents_never_raise(tmp_path, capsys):
    module = tmp_path / "module.json"
    module.write_text(io_formats.write_typed(ktd.ktd_basefree(load_cfk("unknot"))))
    docs = [(io_formats.write_cfk(load_cfk(n)), ["tau"]) for n in FIXTURE_NAMES]
    docs += [(io_formats.write_typed(ktd.ktd_basefree(load_cfk(n))), ["reduce"])
             for n in ("trefoil_right", "five_gen")]
    docs += [(io_formats.write_typeda(B()), ["tensor", str(module), "--bimodule"])
             for B in (type_da.builtin_tau_mu, type_da.builtin_tau_lambda,
                       type_da.builtin_identity)]
    rng = random.Random(2024)
    path = tmp_path / "doc.json"
    for _ in range(200):
        text, load = rng.choice(docs)
        doc = json.loads(text)
        for _ in range(rng.randint(1, 2)):
            _mutate(doc, rng)
        path.write_text(json.dumps(doc))
        for argv in (["validate", str(path)], [*load, str(path)]):
            code, _, err = run(capsys, *argv)
            assert code in (0, 1, 3), (argv, doc)
            assert code == 0 or err, (argv, doc)
