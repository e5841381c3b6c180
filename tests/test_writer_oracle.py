"""The template writers of io_formats against the payload-dict writers they
replaced, which build each document as a dict and hand it to json.dumps."""
import json
import random
from operator import attrgetter

import pytest

from bhf import cfk, io_formats, ktd, type_d, type_da
from bhf.algebra import CHORDS, NONZERO, AlgebraElement as A
from conftest import FIXTURE_NAMES, load_cfk, random_complex
from staircase import mirror, torus_knot


def _envelope(kind: str, payload: dict) -> str:
    doc = {"format_version": "1", "kind": kind, "payload": payload}
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def oracle_write_cfk(C):
    payload = {
        "generators": [{"name": g.name, "alexander": g.alexander,
                        "maslov": g.maslov} for g in sorted(C.generators)],
        "arrows": [{"from": a.source, "to": a.target, "u_power": a.u_power}
                   for a in sorted(C.arrows)],
        "shift": list(C.shift) if C.shift else None,
    }
    return _envelope("cfk", payload)


def oracle_write_typed(M):
    payload = {
        "generators": [{"name": n, "idempotent": i.value}
                       for n, i in sorted(M.generators)],
        "arrows": [{"from": a.source, "to": a.target, "label": a.label.value}
                   for a in sorted(M.arrows, key=attrgetter("source", "target", "label"))],
    }
    if M.tags:
        payload["tags"] = M.tags
    return _envelope("type_d", payload)


def oracle_write_typeda(B):
    payload = {
        "generators": [{"name": n, "left": l.value, "right": r.value}
                       for n, l, r in sorted(B.generators)],
        "actions": [{"from": a.source, "inputs": [x.value for x in a.args],
                     "output": a.coeff.value, "to": a.target}
                    for a in sorted(B.actions,
                                    key=attrgetter("source", "args", "coeff", "target"))],
    }
    return _envelope("type_da", payload)


# quotes, backslashes, control characters, DEL, a line separator, a lone
# surrogate and text outside ASCII and the BMP
NAMES = ['a"b', "c\\d", "e\x01f", "tab\tnew\nline", "\x7f", " ", "\ud800",
         "λ⊗μ", "x😀", "", "plain"]
TAGS = {"meta": {"algo": "basefree", "floats": [0.1, -0.0, 1e300, 2.5],
                 "flags": [True, False, None], "empty": {}, "none": []},
        "λ\"\\": [[], [{}], {"nested": {"deep": [1, -2, "s\x1f"]}}], "plain": "v"}


def _modules():
    H = type_da.builtin_H()
    for name in FIXTURE_NAMES:
        C = load_cfk(name)
        S = cfk.simultaneous_simplify(cfk.reduce(C))
        for D in (ktd.ktd_basefree(C), ktd.ktd_basis(S)):
            yield D
            yield type_d.reduce_d(type_da.box_da_d(H, D))[0]
    yield type_d.reduce_d(type_da.box_da_d(H, ktd.ktd_basefree(torus_knot(3, 4))))[0]
    yield type_d.make_module([], [])
    yield type_d.make_module([("x", A.I0)], [], {})
    yield type_d.make_module([("x", A.I0)], [], {"x": {}})
    for seed in range(12):
        rng = random.Random(seed)
        names = rng.sample(NAMES, rng.randint(1, len(NAMES)))
        gens = [(n, rng.choice([A.I0, A.I1])) for n in names]
        arrows = [type_d.DArrow(rng.choice(names), rng.choice(names), rng.choice(NONZERO))
                  for _ in range(rng.randint(0, 20))]
        tags = {k: TAGS[k] for k in rng.sample(sorted(TAGS), rng.randint(0, 3))}
        yield type_d.make_module(gens, arrows, tags)


def _bimodules():
    yield from (build() for build in (type_da.builtin_H, type_da.builtin_tau_mu,
                                      type_da.builtin_tau_lambda,
                                      type_da.builtin_identity))
    B, L = type_da.builtin_tau_mu(), type_da.builtin_tau_lambda()
    yield type_da.reduce_da(type_da.box_da_da(B, L))[0]
    yield type_da.make_da([], [])
    yield type_da.make_da([("x", A.I0, A.I1)], [])
    for seed in range(12):
        rng = random.Random(seed)
        names = rng.sample(NAMES, rng.randint(1, len(NAMES)))
        gens = [(n, rng.choice([A.I0, A.I1]), rng.choice([A.I0, A.I1])) for n in names]
        actions = [type_da.DAAction(rng.choice(names),
                                    tuple(rng.sample(CHORDS, rng.randint(0, 3))),
                                    rng.choice(NONZERO), rng.choice(names))
                   for _ in range(rng.randint(0, 20))]
        yield type_da.make_da(gens, actions)


def _complexes():
    for name in FIXTURE_NAMES:
        yield load_cfk(name)
        yield random_complex(name, 5, shift=(1, -2))
    for p, q in ((2, 3), (3, 4), (7, 8)):
        yield torus_knot(p, q)
        yield mirror(torus_knot(p, q))
    yield cfk.make_complex([], [])
    yield cfk.make_complex([], [], (0, 0))
    gens = [cfk.KnotGenerator(n, i - 3, -i) for i, n in enumerate(NAMES)]
    arrows = [cfk.KnotArrow(a, b, u) for a, b, u in zip(NAMES, NAMES[1:], range(9))]
    yield cfk.make_complex(gens, arrows)
    yield cfk.make_complex(gens, arrows, (-3, 4))


def test_write_typed_matches_oracle():
    modules = list(_modules())
    assert any(M.tags for M in modules) and any(not M.arrows for M in modules)
    for M in modules:
        assert io_formats.write_typed(M) == oracle_write_typed(M)
        # in any arrow order, as a directly built module may have
        shuffled = list(M.arrows)
        random.Random(1).shuffle(shuffled)
        N = type_d.TypeDModule(M.generators, tuple(shuffled), M.tags)
        assert io_formats.write_typed(N) == oracle_write_typed(M)


def test_write_typeda_matches_oracle():
    bimodules = list(_bimodules())
    assert {len(a.args) for B in bimodules for a in B.actions} >= {0, 1, 2, 3}
    for B in bimodules:
        assert io_formats.write_typeda(B) == oracle_write_typeda(B)


def test_write_cfk_matches_oracle():
    complexes = list(_complexes())
    assert {C.shift is None for C in complexes} == {True, False}
    for C in complexes:
        assert io_formats.write_cfk(C) == oracle_write_cfk(C)


@pytest.mark.parametrize("write, parse, build", [
    (io_formats.write_typed, io_formats.parse_typed, _modules),
    (io_formats.write_typeda, io_formats.parse_typeda, _bimodules),
    (io_formats.write_cfk, io_formats.parse_cfk, _complexes),
], ids=["type_d", "type_da", "cfk"])
def test_written_documents_parse_back(write, parse, build):
    for X in build():
        assert write(parse(write(X))) == write(X)
