"""The numbered module graph against the name-keyed one it replaced
(conftest.NameGraph and its oracle_* readers).

Both graphs reduce, minimise and match each module to the same module,
trace and mapping, and refuse a cancellation with the same message.  The
numbered graph sorts ids where the old one sorted names, so the modules
include names whose string order differs from any other order one might
sort by: x9 after x10, Z before a, a name that is a prefix of the next,
and names holding ⊗, | or letters outside ASCII.
"""
import random

import pytest

from bhf import io_formats, ktd, type_d, type_da
from bhf.algebra import AlgebraElement as A
from conftest import (FIXTURES, FIXTURE_NAMES, SIXFOLD, Named, box_word, boxed_complex, load_cfk,
                      oracle_graph, oracle_match, oracle_minimize_d, oracle_reduce_d,
                      oracle_reduce_da, random_complex)

DArrow = type_d.DArrow


def adversarial_names(k: int, seed: int) -> list[str]:
    """k distinct names, shuffled: x9 and x10, Z and a, a chain of names
    each a prefix of the next, and names holding ⊗, |, é or 日."""
    pool = []
    for i in range(k):
        pool.append([f"x{i}", "Z" if i == 1 else f"a{i}", "p" * (i // 8 + 1),
                     f"b⊗{i}", f"c|{i}", f"é{i}", f"日{i}", f"x{i}y"][i % 8])
    random.Random(seed).shuffle(pool)
    return pool


def renamed(M, seed: int):
    """M, a type D module or a DA bimodule, with its generators renamed to
    adversarial_names; tags keep the names they had."""
    new = dict(zip([g[0] for g in M.generators], adversarial_names(len(M.generators), seed)))
    gens = [(new[g[0]], *g[1:]) for g in M.generators]
    if isinstance(M, type_da.TypeDAModule):
        return type_da.make_da(gens, [type_da.DAAction(new[s], a, c, new[t])
                                      for s, a, c, t in M.actions])
    return type_d.make_module(gens, [DArrow(new[s], new[t], c) for s, t, c in M.arrows])


def _modules():
    """Base-free modules of the fixtures and of six corpus draws, their H
    boxes, and each of those renamed adversarially."""
    H = type_da.builtin_H()
    knots = [load_cfk(name) for name in FIXTURE_NAMES]
    knots += [random_complex("five_gen", 3), random_complex("figure_eight", 11),
              boxed_complex("five_gen", 0), boxed_complex("trefoil_left", 7),
              boxed_complex("unknot", 21), boxed_complex("figure_eight", 5)]
    for i, C in enumerate(knots):
        try:
            D = ktd.ktd_basefree(C)
        except ValueError:  # a random draw that is no knot complex
            continue
        for M in (D, type_da.box_da_d(H, D)):
            yield M
            yield renamed(M, i)


def _same(new, old):
    """Equal modules, tags too (module equality skips them), and traces."""
    assert io_formats.write_typed(new[0]) == io_formats.write_typed(old[0])
    assert new[1] == old[1]


def test_reduce_minimize_and_match_as_the_name_keyed_graph():
    checked = 0
    for M in _modules():
        lex = type_d.reduce_d(M)
        _same(lex, oracle_reduce_d(M))
        minimal = type_d.minimize_d(lex[0])
        _same((minimal, None), (oracle_minimize_d(lex[0]), None))
        for seed in range(20):
            got = type_d.reduce_d(M, seed)
            _same(got, oracle_reduce_d(M, seed))
            _same(type_d.reduce_d(M, list(got[1].pairs)), oracle_reduce_d(M, list(got[1].pairs)))
            if seed % 5 == 0:
                R = type_d.minimize_d(got[0])
                assert R == oracle_minimize_d(got[0])
                assert type_d._match_up_to_base_change(R, minimal) == oracle_match(R, minimal)
        checked += 1
    assert checked >= 30


def test_the_sixfold_product_reduces_as_with_the_name_keyed_graph():
    script = io_formats.parse_script((FIXTURES / "h_cancellations.script").read_text("utf-8"))
    sixfold = box_word(SIXFOLD)
    for B, orders in ((sixfold, [None, script, *range(20)]),
                      (renamed(sixfold, 1), [None, *range(20)])):
        for order in orders:
            got = type_da.reduce_da(B, order)
            assert got == oracle_reduce_da(B, order)
            assert type_da.reduce_da(B, list(got[1].pairs)) == got
            assert type_da.isomorphic_da(got[0], type_da.builtin_H()) is not None


def _refusal(run):
    with pytest.raises(ValueError) as info:
        run()
    return str(info.value)


def test_refusals_read_as_with_the_name_keyed_graph(monkeypatch):
    gens = [("x10", A.I0), ("x9", A.I0), ("Z", A.I1), ("a", A.I1)]
    # an idempotent arrow to a generator no one declared, first by name
    ghost = type_d.make_module(gens, [DArrow("Z", "Ghost", A.I1), DArrow("a", "x9", A.R2)])
    assert _refusal(lambda: type_d.reduce_d(ghost)) == "no idempotent arrow Z -> Ghost"
    assert _refusal(lambda: oracle_reduce_d(ghost)) == "no idempotent arrow Z -> Ghost"
    # an arrow to an undeclared generator that is never cancelled stays
    dangling = type_d.make_module(gens, [DArrow("x10", "x9", A.I0), DArrow("Z", "Ghost", A.R23)])
    _same(type_d.reduce_d(dangling), oracle_reduce_d(dangling))
    M = renamed(type_da.box_da_d(type_da.builtin_H(), ktd.ktd_basefree(load_cfk("five_gen"))), 2)
    pairs = list(type_d.reduce_d(M)[1].pairs)
    s, t = pairs[0]
    chord = next((a.source, a.target) for a in M.arrows if a.label not in (A.I0, A.I1))
    for bad in ([(s, "nowhere")], [("nowhere", t)], [chord], [(s, t), (s, t)], [(t, s)],
                pairs[:3] + [pairs[1]]):
        assert _refusal(lambda: type_d.reduce_d(M, bad)) == \
            _refusal(lambda: oracle_reduce_d(M, bad)), bad
    # the arity cap: caps 0-2 refuse every order, cap 3 some, cap 4 none
    sixfold, refused = box_word(SIXFOLD), 0
    for cap in (0, 1, 2, 3, 4):
        monkeypatch.setattr(type_d, "ARITY_CAP", cap)
        for order in (None, 4, 7):
            try:
                got = type_da.reduce_da(sixfold, order)
            except ValueError as e:
                assert str(e) == _refusal(lambda: oracle_reduce_da(sixfold, order)) == \
                    f"cancellation exceeds arity cap {cap}"
                refused += 1
            else:
                assert got == oracle_reduce_da(sixfold, order)
    assert refused == 11


def test_a_refused_cancellation_leaves_the_graph_as_it_was(monkeypatch):
    monkeypatch.setattr(type_d, "ARITY_CAP", 2)
    sixfold = box_word(SIXFOLD)
    G = type_d._Graph(sixfold.generators, sixfold.actions)
    refused = 0
    while G.diff:
        before = Named(G)
        before = before.out, before.inc, before.diff, before.left
        s, t = divmod(G.diff[0], len(G.names))
        try:
            G.cancel(s, t)
        except ValueError:
            after = Named(G)
            assert (after.out, after.inc, after.diff, after.left) == before
            refused += 1
            break
    assert refused == 1
    D = ktd.ktd_basefree(load_cfk("trefoil_right"))
    G, H = type_d._graph_d(D), oracle_graph(D.generators, D.arrows)
    x, y = next((a.source, a.target) for a in D.arrows if a.label is A.R1)
    for pair in ((x, y), (y, x), (x, x)):
        assert _refusal(lambda: type_d._reduce(G, [pair])) == _refusal(lambda: H.cancel(*pair))
    assert type_d._freeze_d(G, D.tags) == D
