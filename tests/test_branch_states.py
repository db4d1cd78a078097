"""Branch points of exact enumeration: copy-on-write states, one mass per
state, supports enumerated once per parameter tuple, and the collector
paused around the walk.

``ChaseState.copy`` shares every relation with the copied state until one
of them writes it. On ``randprog`` programs, with every step's invariants
re-verified, ``_explore`` must return exactly what it returns when every
copy is ``old_copy``, which shares nothing, and the Monte Carlo walk what
the old sampling loop returns over ``old_copy`` copies. A leaf keeps its
state's row sets uncopied; the per-leaf freeze and duplicate check that
``_explore`` once made are kept here as the oracle for that.
"""
from __future__ import annotations

import gc
import heapq
import random
from collections import Counter
from functools import partial
from types import SimpleNamespace

import pytest

from gdlog import enumeration, ppdl
from gdlog.chase import LEAF, ChaseEngine, ChaseState, chase_step
from gdlog.distributions import DomainError, RngStream
from gdlog.enumeration import EnumerationPolicy, _explore, enumerate_outcomes
from gdlog.model import GdlogError
from gdlog.parser import parse_facts, parse_program
from gdlog.ppdl import _estimate, _observations, exact_posterior
from gdlog.translate import to_existential

from checked_engine import CheckedEngine
from old_drivers import old_copy, old_estimate_posterior
from randprog import random_program
from test_driver_oracle import STEPS, _constrained, _query, _variable_parameter

SEEDS = range(150)
ORDERS = ("fifo", "reversed-rules", "random")


def _explored(program, facts, policy, observe):
    try:
        return _explore(program, facts, policy, observe)
    except DomainError as e:
        return str(e)


def test_explore_matches_old_copy(registry, monkeypatch):
    # every step re-verifies its state's invariants, join indexes included
    monkeypatch.setattr(enumeration, "ChaseEngine", CheckedEngine)
    rnd = random.Random(4646)
    leaves = dropped = 0
    for seed in SEEDS:
        program, facts = random_program(random.Random(seed), registry)
        observe = None
        if seed % 2:
            program = _constrained(rnd, program)
            observe = partial(_observations, program)
        if seed % 3 == 1:
            program = _variable_parameter(rnd, program)
        for budget in (6, 40, 200):
            policy = EnumerationPolicy(
                node_budget=budget, order=ORDERS[seed % 3], order_seed=seed
            )
            got = _explored(program, facts, policy, observe)
            with monkeypatch.context() as m:
                m.setattr(ChaseState, "copy", old_copy)
                assert got == _explored(program, facts, policy, observe)
            if isinstance(got, tuple):
                leaves += len(got[0])
                dropped += got[3]
    # not vacuous: many leaves are kept, and some are dropped
    assert leaves > 500 and dropped > 50, (leaves, dropped)


@pytest.mark.parametrize("order", ORDERS)
def test_leaves_keep_the_rows_they_ended_with(registry, monkeypatch, order):
    """A leaf keeps its chase state's own row sets, which copy-on-write
    states may share. Each leaf's rows are frozen when ``run_to_branch``
    reaches it, as ``_explore`` once froze every kept leaf: after the walk
    every kept leaf's rows must still equal that snapshot, and no two
    leaves reached, kept or dropped, may share one."""
    reached = {}  # id of a leaf's rows -> (those rows, their snapshot)
    run_to_branch = ChaseEngine.run_to_branch

    def freezing(engine, state, step_budget):
        stop = run_to_branch(engine, state, step_budget)
        if stop is LEAF:
            frozen = {r: frozenset(v) for r, v in state.facts.items() if v}
            reached[id(state.facts)] = state.facts, frozen
        return stop

    monkeypatch.setattr(ChaseEngine, "run_to_branch", freezing)
    rnd = random.Random(4848)
    kept = dropped = shared = 0
    for seed in SEEDS:
        program, facts = random_program(random.Random(seed), registry)
        observe = None
        if seed % 2:
            program = _constrained(rnd, program)
            observe = partial(_observations, program)
        for budget in (1, 6, 40, 200):
            reached.clear()
            policy = EnumerationPolicy(node_budget=budget, order=order, order_seed=seed)
            leaves = _explore(program, facts, policy, observe)[0]
            for rows, _, _ in leaves:
                held, frozen = reached[id(rows)]
                assert rows is held and rows == frozen
            snapshots = {frozenset(f.items()) for _, f in reached.values()}
            assert len(snapshots) == len(reached)  # no duplicate leaf
            kept += len(leaves)
            dropped += len(reached) - len(leaves)
            sets = Counter(id(v) for rows, _, _ in leaves for v in rows.values())
            shared += sum(n > 1 for n in sets.values())
    # not vacuous: many leaves are kept, some dropped, and many of the kept
    # leaves' sets are shared
    assert kept > 500 and dropped > 50 and shared > 100, (kept, dropped, shared)


def test_estimate_matches_old_loop_with_old_copy(registry, monkeypatch):
    def run(fn, *args):
        try:
            return fn(*args)
        except GdlogError as e:
            return type(e), str(e)

    rnd = random.Random(4747)
    default_cap = ppdl._CACHE_ROWS
    kinds = Counter()
    for seed in SEEDS:
        program, facts = random_program(random.Random(seed), registry)
        if seed % 2:
            program = _constrained(rnd, program)
        if seed % 3 == 1:
            program = _variable_parameter(rnd, program)
        engine = CheckedEngine(
            to_existential(program), order=ORDERS[seed % 3], order_seed=seed
        )
        try:
            outcome = engine.sample(facts, RngStream(seed, 0), STEPS).facts
        except DomainError:
            outcome = facts
        query = _query(rnd, facts, outcome)
        for budget, cap in ((4, default_cap), (STEPS, default_cap), (STEPS, 12)):
            monkeypatch.setattr(ppdl, "_CACHE_ROWS", cap)
            args = (program, engine, facts, query, 25, seed, budget)
            got = run(_estimate, *args)
            with monkeypatch.context() as m:
                m.setattr(ChaseState, "copy", old_copy)
                assert got == run(old_estimate_posterior, *args)
            kinds["error" if isinstance(got, tuple) else "estimate"] += 1
    # not vacuous: estimates and errors both occur
    assert kinds["estimate"] > 20 and kinds["error"] > 20, kinds


_ISOLATION = """edb S/1.
idb R/1.
idb D/2.
R(x) :- S(x).
D(x, Flip[0.5]) :- S(x).
"""


def test_copies_do_not_see_each_others_writes(registry):
    program = parse_program(_ISOLATION, registry)
    facts = parse_facts('S("a").\nS("b").\nS("c").', program.edb)
    engine = CheckedEngine(to_existential(program))
    det = next(r for r in engine.rules if r.head_rel == "R")
    draw = next(r for r in engine.rules if r.distrel is not None)
    drel = draw.head_rel

    def write(state, x, value):
        engine.apply(state, det, (x,))
        chase_step(state, engine.to_firing(draw, (x,)), engine, choice=value)

    def rebuilt(writes):
        state = engine.initial_state(facts)
        for x, value in writes:
            write(state, x, value)
        return state

    def answers(state):
        return {
            (rel, positions, key): sorted(state.rows_matching(rel, positions, key))
            for rel, positions in (("R", (0,)), (drel, (0,)), (drel, (0, 1)))
            for key in ("a", "b", "c", ("a", 1.0), ("b", 1.0), ("c", 0.0))
            if isinstance(key, tuple) == (len(positions) > 1)
        }

    parent = engine.initial_state(facts)
    write(parent, "a", 1.0)
    # indexes built on the parent, and one built on a copy, are shared
    assert parent.rows_matching("R", (0,), "a") == [("a",)]
    assert parent.rows_matching(drel, (0,), "a") == [("a", 1.0, 0.5)]
    left, untouched = parent.copy(), parent.copy()
    assert untouched.rows_matching(drel, (0, 1), ("a", 1.0)) == [("a", 1.0, 0.5)]
    write(parent, "b", 1.0)
    write(left, "c", 0.0)
    write(parent, "c", 1.0)

    expected = {
        "parent": (parent, [("a", 1.0), ("b", 1.0), ("c", 1.0)]),
        "left": (left, [("a", 1.0), ("c", 0.0)]),
        "untouched": (untouched, [("a", 1.0)]),
    }
    for name, (state, writes) in expected.items():
        fresh = rebuilt(writes)
        assert state.facts == fresh.facts, name
        assert state.obls == fresh.obls, name
        assert answers(state) == answers(fresh), name
        engine._verify_invariants(state)
    assert ("b",) not in left.facts["R"]
    assert left.rows_matching(drel, (0,), "c") == [("c", 0.0, 0.5)]
    assert parent.rows_matching(drel, (0,), "c") == [("c", 1.0, 0.5)]
    assert untouched.facts["R"] == {("a",)}
    assert untouched.rows_matching("R", (0,), "b") == ()


def test_branch_chase_draws_nothing_and_keeps_the_pushed_mass(registry, monkeypatch):
    popped = []

    def pop(heap):
        popped.append(heapq.heappop(heap))
        return popped[-1]

    monkeypatch.setattr(
        enumeration, "heapq", SimpleNamespace(heappop=pop, heappush=heapq.heappush)
    )
    run_to_branch = ChaseEngine.run_to_branch
    checked = []

    def checked_run(self, state, step_budget):
        neg_mass, _, top = popped[-1]
        assert top is state
        ledger, draws = list(state.ledger), list(state.draws)
        stop = run_to_branch(self, state, step_budget)
        assert state.ledger == ledger and state.draws == draws
        assert (-neg_mass).hex() == self.canonical_mass(state).hex()
        checked.append(bool(ledger or draws))
        return stop

    monkeypatch.setattr(ChaseEngine, "run_to_branch", checked_run)
    for seed in SEEDS:
        program, facts = random_program(random.Random(seed), registry)
        order = ORDERS[seed % 3]
        for budget in (6, 200):
            policy = EnumerationPolicy(node_budget=budget, order=order, order_seed=seed)
            enumerate_outcomes(program, facts, policy)
    # not vacuous: most checked states carry draws
    assert sum(checked) > 1000, (len(checked), sum(checked))


def test_one_mass_per_pushed_state(burglar_ppdl, report_edb, monkeypatch):
    calls = {"mass": 0, "push": 0}
    canonical_mass = ChaseEngine.canonical_mass

    def counted_mass(self, state):
        calls["mass"] += 1
        return canonical_mass(self, state)

    def push(heap, item):
        calls["push"] += 1
        heapq.heappush(heap, item)

    monkeypatch.setattr(ChaseEngine, "canonical_mass", counted_mass)
    monkeypatch.setattr(
        enumeration, "heapq", SimpleNamespace(heappop=heapq.heappop, heappush=push)
    )
    exact_posterior(burglar_ppdl, report_edb)
    assert calls["push"] > 1000
    assert calls["mass"] == calls["push"], calls


_BAD_ON_A_LATER_BRANCH = """edb S/1.
idb R/2.
idb T/2.
R(x, Flip[0.7]) :- S(x).
T(x, Geo[v]) :- R(x, v).
"""
# the branch R(x, 1) is explored first and caches the support of Geo[1];
# Geo[0] first appears on R(x, 0)
_BAD_MESSAGE = "rule 1 [x='a', v=0.0]: Geo: parameter p=0.0 must be in (0, 1]"


@pytest.mark.parametrize("order", ORDERS)
def test_support_memo_still_names_the_failing_firing(registry, order):
    program = parse_program(_BAD_ON_A_LATER_BRANCH, registry)
    facts = parse_facts('S("b").\nS("a").', program.edb)
    policy = EnumerationPolicy(order=order, order_seed=3)
    with pytest.raises(DomainError) as e:
        enumerate_outcomes(program, facts, policy)
    assert str(e.value) == _BAD_MESSAGE


@pytest.mark.parametrize("enabled", (True, False))
def test_collector_paused_in_the_walk_and_restored(registry, monkeypatch, enabled):
    seen = []
    run_to_branch = ChaseEngine.run_to_branch

    def watched(self, state, step_budget):
        seen.append(gc.isenabled())
        return run_to_branch(self, state, step_budget)

    monkeypatch.setattr(ChaseEngine, "run_to_branch", watched)
    good = parse_program(_ISOLATION, registry)
    bad = parse_program(_BAD_ON_A_LATER_BRANCH, registry)
    was = gc.isenabled()
    try:
        if enabled:
            gc.enable()
        else:
            gc.disable()
        enumerate_outcomes(good, parse_facts('S("a").', good.edb))
        assert gc.isenabled() is enabled
        with pytest.raises(DomainError):
            enumerate_outcomes(bad, parse_facts('S("a").', bad.edb))
        assert gc.isenabled() is enabled
    finally:
        if was:
            gc.enable()
        else:
            gc.disable()
    assert len(seen) > 3 and not any(seen)


def test_walk_makes_no_reference_cycles(burglar_ppdl, report_edb):
    gc.collect()
    was = gc.isenabled()
    gc.disable()
    try:
        exact_posterior(burglar_ppdl, report_edb)
        assert gc.collect() == 0
    finally:
        if was:
            gc.enable()

