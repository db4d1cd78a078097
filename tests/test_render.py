"""Rendering fact sets straight from chase rows, and sorting without keys.

``render_rows`` renders a relation -> rows mapping in ``fact_key`` order,
``_enqueue_batch`` sorts pending bindings in ``_pend_key`` order and
``_ordered`` breaks ties between enumerated leaves by their sorted facts;
all three try plain tuple comparison before building ``constant_key``
tuples. ``old_facts_json``, the renderer the command line had before, is
the oracle: on random programs' final states, on every corpus sample and
on a hand-built instance that forces the keyed fallback, the output must
be equal with ``==``. The batch test records every batch as the engine
enqueued it and checks it against a keyed sort of the same batch. The
leaf order must equal ``old_ordered``, and ``enumerate``, which renders
leaf rows, must print the bytes that rendering the sorted facts of
``enumerate_outcomes`` gives.
"""
from __future__ import annotations

import gzip
import json
import random
from collections import Counter
from pathlib import Path

import pytest

from gdlog.chase import FIFO, RANDOM_FAIR, REVERSED_RULES, ChaseEngine, ChaseState
from gdlog.cli import main
from gdlog.distributions import RngStream
from gdlog.enumeration import EnumerationPolicy, _explore, _ordered, enumerate_outcomes
from gdlog.model import Fact, _sorted_canonical, fact_key
from gdlog.parser import (
    parse_facts,
    render_fact,
    render_facts,
    render_program,
    render_rows,
)
from gdlog.translate import to_existential

from conftest import CORPUS, load_facts, load_program
from old_drivers import old_ordered
from randprog import random_program
from test_golden import CORPUS_PAIRS

GOLDEN = Path(__file__).resolve().parent / "golden"
SEEDS = range(300)
STEPS = 40


def old_facts_json(facts) -> list:
    """The command line's renderer before it read chase rows."""
    return [render_fact(f) for f in sorted(facts, key=fact_key)]


def _final_state(engine, facts, seed, budget):
    state = engine.initial_state(facts)
    engine.run(state, RngStream(seed, 0), budget)
    return state


def _mixed(rows) -> bool:
    """Whether plain comparison fails on ``rows``, so the keyed sort runs."""
    try:
        sorted(rows)
    except TypeError:
        return True
    return False


def test_render_rows_matches_old_on_random_programs(registry):
    facts_seen = relations = mixed = 0
    for seed in SEEDS:
        program, facts = random_program(random.Random(seed), registry)
        engine = ChaseEngine(to_existential(program))
        state = _final_state(engine, facts, seed, STEPS)
        assert render_rows(state.facts) == old_facts_json(state.instance())
        facts_seen += state.fact_count()
        relations += len(state.facts)
        mixed += sum(_mixed(rows) for rows in state.facts.values())
    # both the plain sort and the keyed fallback were exercised
    assert facts_seen > 2000 and 100 < mixed < relations - 100


@pytest.mark.parametrize(
    "program,facts,bounded", CORPUS_PAIRS, ids=[c[0] for c in CORPUS_PAIRS]
)
def test_render_rows_matches_old_on_corpus(registry, program, facts, bounded):
    prog = load_program(program + ".gdl", registry)
    edb = load_facts(facts + ".facts", prog)
    engine = ChaseEngine(to_existential(prog))
    # the longest fork chain whose values stay below 2**52: a Fork[p] from
    # there on is a DomainError
    budget = 104 if program == "fork" else 300 if bounded else 1_000_000
    state = _final_state(engine, edb, 7, budget)
    assert render_rows(state.facts) == old_facts_json(state.instance())


def test_render_rows_matches_old_on_mixed_and_escaped_constants():
    rows = {
        # a column that mixes numbers and symbols takes the keyed fallback
        "M": {(1.0, "b"), ("a", 2.0), (0.5, 0.5), ("a", "b"), (-3.0, "z")},
        "S": {('q"uote',), ("back\\slash",), ("new\nline",), ("t\tab",), ("",)},
        # -0.0 renders as 0; 1e16 is the first integral float with an exponent
        "N": {(-0.0,), (1e16,), (9999999999999998.0,), (2.5,), (-1e-300,)},
        # equal as numbers, rendered differently
        "L": {(10**17, "int"), (1e17, "float"), (1, "one")},
    }
    facts = frozenset(Fact(rel, row) for rel, rs in rows.items() for row in rs)
    got = render_rows(rows)
    assert got == old_facts_json(facts)
    assert "L(100000000000000000, \"int\")" in got and "L(1e+17, \"float\")" in got
    assert "N(0)" in got
    # what is rendered parses back to the same set
    text = render_facts(facts - {f for f in facts if f.relation == "L"})
    schema = {"M": 2, "S": 1, "N": 1}
    assert parse_facts(text, schema) == {f for f in facts if f.relation != "L"}


class _RecordingEngine(ChaseEngine):
    """Records every batch of two or more as it was enqueued."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.batches = []

    def _enqueue_batch(self, state: ChaseState, batch: list) -> None:
        super()._enqueue_batch(state, batch)
        if len(batch) > 1:
            self.batches.append((list(batch), list(state.pending)[-len(batch):]))


@pytest.mark.parametrize("order", [FIFO, REVERSED_RULES, RANDOM_FAIR])
def test_batches_enqueue_in_pend_key_order(registry, order):
    batches = mixed = 0
    for seed in SEEDS:
        program, facts = random_program(random.Random(seed), registry)
        engine = _RecordingEngine(to_existential(program), order=order, order_seed=seed)
        _final_state(engine, facts, seed, STEPS)
        for batch, enqueued in engine.batches:
            assert enqueued == sorted(batch, key=engine._pend_key)
            batches += 1
            mixed += _mixed(batch)
    assert batches > 500 and 50 < mixed < batches - 50


def test_sample_builds_no_facts(capsys, monkeypatch):
    """``sample`` renders the final chase rows: it never turns the state
    into ``Fact`` objects or builds their sort keys."""

    def forbidden(*args, **kwargs):
        raise AssertionError("sample built facts")

    monkeypatch.setattr("gdlog.chase.ChaseState.instance", forbidden)
    monkeypatch.setattr("gdlog.chase.ChaseEngine.outcome", forbidden)
    monkeypatch.setattr("gdlog.model.fact_key", forbidden)
    code = main(
        [
            "sample",
            str(CORPUS / "burglar.gdl"),
            "--edb",
            str(CORPUS / "burglar.facts"),
            "--seed",
            "7",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / "sample_burglar.out").read_text()


def test_enumerate_builds_no_facts(capsys, monkeypatch):
    """``enumerate`` renders each leaf's chase rows: it never turns a state
    into ``Fact`` objects, wraps the leaves as an ``OutcomeDistribution``
    or builds fact sort keys."""

    def forbidden(*args, **kwargs):
        raise AssertionError("enumerate built facts")

    monkeypatch.setattr("gdlog.chase.ChaseState.instance", forbidden)
    monkeypatch.setattr("gdlog.enumeration._distribution", forbidden)
    monkeypatch.setattr("gdlog.model.fact_key", forbidden)
    code = main(
        [
            "enumerate",
            str(CORPUS / "burglar.gdl"),
            "--edb",
            str(CORPUS / "burglar.facts"),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    golden = gzip.decompress((GOLDEN / "enumerate_burglar.out.gz").read_bytes())
    same = out == golden.decode()  # no diff of megabytes on failure
    assert same


@pytest.mark.parametrize("order", [FIFO, REVERSED_RULES, RANDOM_FAIR])
def test_leaf_order_matches_old_tie_break(registry, monkeypatch, order):
    sorts = Counter()

    def spy(items, key, plain_key=None):
        keyed = []

        def counted(item):
            keyed.append(item)
            return key(item)

        out = _sorted_canonical(items, counted, plain_key)
        sorts["keyed" if keyed else "plain"] += 1
        return out

    monkeypatch.setattr("gdlog.enumeration._sorted_canonical", spy)
    for seed in SEEDS:
        program, facts = random_program(random.Random(seed), registry)
        for budget in (1, 6, 40, 200):
            policy = EnumerationPolicy(node_budget=budget, order=order, order_seed=seed)
            leaves = _explore(program, facts, policy)[0]
            # compared without pytest's diff, which is slow on leaf lists
            same = list(_ordered(leaves)) == old_ordered(leaves)
            assert same, (seed, budget)
    # random input facts often mix numbers and "s" in one column, so both
    # the plain sort and the keyed fallback break many ties
    assert sorts["keyed"] > 100 and sorts["plain"] > 50, sorts
    # the corpus keeps numbers and symbols apart: its ties need no keys
    sorts.clear()
    program = load_program("burglar.gdl", registry)
    policy = EnumerationPolicy(order=order, order_seed=1)
    leaves = _explore(program, load_facts("burglar.facts", program), policy)[0]
    same = list(_ordered(leaves)) == old_ordered(leaves)
    assert same
    assert sorts["plain"] > 10 and not sorts["keyed"], sorts


def test_enumerate_cli_matches_old_rendering(registry, tmp_path, capsys):
    outcomes = 0
    for seed in SEEDS[::6]:
        program, facts = random_program(random.Random(seed), registry)
        prog = tmp_path / f"{seed}.gdl"
        prog.write_text(render_program(program))
        edb = tmp_path / f"{seed}.facts"
        edb.write_text(render_facts(facts))
        for budget in (1, 6, 40, 200):
            argv = ["enumerate", str(prog), "--edb", str(edb), "--nodes", str(budget)]
            assert main(argv) == 0
            dist = enumerate_outcomes(program, facts, EnumerationPolicy(node_budget=budget))
            old = {
                "outcomes": [
                    {"facts": old_facts_json(o.facts), "probability": p}
                    for o, p in dist.entries
                ],
                "explored_mass": dist.explored_mass,
                "residual_mass": dist.residual_mass,
            }
            assert capsys.readouterr().out == json.dumps(old, sort_keys=True) + "\n"
            outcomes += len(dist.entries)
    assert outcomes > 200  # the comparison is not vacuous
