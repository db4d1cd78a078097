from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from gdlog.chase import (
    BUDGET_EXHAUSTED,
    FIFO,
    LEAF,
    RANDOM_FAIR,
    REVERSED_RULES,
    ChaseEngine,
    Outcome,
    Rejection,
    applicable_firings,
    chase_step,
    replay_weight,
    sample_outcome,
)
from gdlog.distributions import DomainError, RngStream
from gdlog.enumeration import cylinder_mass
from gdlog.model import Fact, GdlogError, _row_key, fact_key
from gdlog.translate import to_existential

from checked_engine import CheckedEngine
from conftest import load_facts, load_program
from randprog import random_program


def _fact(rel, *args):
    return Fact(rel, tuple(float(a) if isinstance(a, (int, float)) else a for a in args))


# The one possible outcome of the burglar example worked end to end:
# earthquake in Napa only, burglaries at NP1 and NP3, triggers at NP1
# (both draws) and NP2, none at NP3, alarm off at YU1.
WORKED_OUTCOME_EXTRA = [
    _fact("Earthquake__Flip__2", "Napa", 1, 0.01),
    _fact("Earthquake__Flip__2", "Yucaipa", 0, 0.01),
    _fact("Earthquake", "Napa", 1),
    _fact("Earthquake", "Yucaipa", 0),
    _fact("Unit", "NP1", "Napa"),
    _fact("Unit", "NP2", "Napa"),
    _fact("Unit", "NP3", "Napa"),
    _fact("Unit", "YU1", "Yucaipa"),
    _fact("Burglary__Flip__3", "NP1", "Napa", 1, 0.03),
    _fact("Burglary__Flip__3", "NP2", "Napa", 0, 0.03),
    _fact("Burglary__Flip__3", "NP3", "Napa", 1, 0.03),
    _fact("Burglary__Flip__3", "YU1", "Yucaipa", 0, 0.01),
    _fact("Burglary", "NP1", "Napa", 1),
    _fact("Burglary", "NP2", "Napa", 0),
    _fact("Burglary", "NP3", "Napa", 1),
    _fact("Burglary", "YU1", "Yucaipa", 0),
    _fact("Trig__Flip__2", "NP1", 1, 0.9),
    _fact("Trig__Flip__2", "NP3", 0, 0.9),
    _fact("Trig__Flip__2", "NP1", 1, 0.6),
    _fact("Trig__Flip__2", "NP2", 1, 0.6),
    _fact("Trig__Flip__2", "NP3", 0, 0.6),
    _fact("Trig", "NP1", 1),
    _fact("Trig", "NP2", 1),
    _fact("Trig", "NP3", 0),
    _fact("Alarm", "NP1"),
    _fact("Alarm", "NP2"),
]

# independent calculator: the 11 draw weights as exact fractions
WORKED_OUTCOME_WEIGHT = float(
    Fraction(1, 100)
    * Fraction(99, 100)
    * Fraction(3, 100)
    * Fraction(97, 100)
    * Fraction(3, 100)
    * Fraction(99, 100)
    * Fraction(9, 10)
    * Fraction(1, 10)
    * Fraction(6, 10)
    * Fraction(6, 10)
    * Fraction(4, 10)
)


def worked_outcome(burglar_edb):
    return frozenset(burglar_edb) | frozenset(WORKED_OUTCOME_EXTRA)


# -- applicable firings --------------------------------------------------------


def test_initial_firings(burglar, burglar_edb):
    engine = ChaseEngine(to_existential(burglar))
    state = engine.initial_state(burglar_edb)
    firings = applicable_firings(state, engine)
    by_rule = {}
    for f in firings:
        by_rule.setdefault(f.rule_index, []).append(f.binding)
    # only rules over pure-EDB bodies can fire initially
    assert set(by_rule) == {0, 1, 2}
    assert sorted(b["c"] for b in by_rule[0]) == ["Napa", "Yucaipa"]
    assert len(by_rule[1]) == 3  # one per House row
    assert len(by_rule[2]) == 2  # one per Business row


def test_satisfied_head_not_applicable(burglar, burglar_edb):
    engine = ChaseEngine(to_existential(burglar))
    state = engine.initial_state(burglar_edb)
    quake_napa = next(
        f
        for f in applicable_firings(state, engine)
        if f.rule_index == 0 and f.binding["c"] == "Napa"
    )
    chase_step(state, quake_napa, engine, choice=1.0)
    left = [
        f.binding["c"] for f in applicable_firings(state, engine) if f.rule_index == 0
    ]
    assert left == ["Yucaipa"]


def test_empty_edb_no_firings(burglar):
    engine = ChaseEngine(to_existential(burglar))
    state = engine.initial_state(frozenset())
    assert applicable_firings(state, engine) == []


def test_nan_input_fact_rejected(burglar):
    engine = ChaseEngine(to_existential(burglar))
    nan_city = Fact("City", ("Napa", float("nan")))
    with pytest.raises(GdlogError, match=r'City\("Napa", nan\): NaN is not a'):
        engine.initial_state({_fact("City", "Yucaipa", 0.01), nan_city})


def test_input_fact_outside_the_edb_rejected(burglar):
    engine = ChaseEngine(to_existential(burglar))
    with pytest.raises(GdlogError, match=r"^input fact Alarm\(\"NP1\"\): 'Alarm' is not EDB$"):
        engine.initial_state({_fact("Alarm", "NP1")})
    with pytest.raises(GdlogError, match=r'^input fact City\("Napa"\): arity 1, declared 2$'):
        engine.initial_state({_fact("City", "Napa")})


def test_unknown_scheduling_order_rejected(burglar):
    with pytest.raises(GdlogError, match="^unknown scheduling order 'lifo'$"):
        ChaseEngine(to_existential(burglar), order="lifo")


# -- chase_step ----------------------------------------------------------------


def test_step_weights(burglar, burglar_edb):
    engine = ChaseEngine(to_existential(burglar))
    state = engine.initial_state(burglar_edb)
    firings = applicable_firings(state, engine)
    quake_napa = next(
        f for f in firings if f.rule_index == 0 and f.binding["c"] == "Napa"
    )
    chase_step(state, quake_napa, engine, choice=1.0)
    assert ("Napa", 1.0, 0.01) in state.facts["Earthquake__Flip__2"]
    assert engine.canonical_log_mass(state) == pytest.approx(math.log(0.01), rel=1e-12)

    unit = next(f for f in firings if f.rule_index == 1 and f.binding["h"] == "NP1")
    chase_step(state, unit, engine)
    assert ("NP1", "Napa") in state.facts["Unit"]
    assert engine.canonical_log_mass(state) == pytest.approx(math.log(0.01), rel=1e-12)


def test_step_rejects_out_of_support_choice(burglar, burglar_edb):
    engine = ChaseEngine(to_existential(burglar))
    state = engine.initial_state(burglar_edb)
    quake = next(
        f for f in applicable_firings(state, engine) if f.rule_index == 0
    )
    with pytest.raises(DomainError, match="outside support"):
        chase_step(state, quake, engine, choice=0.5)


def test_step_rejects_symbolic_choice(burglar, burglar_edb):
    # a symbol lies outside every numeric support; the error names the firing
    engine = ChaseEngine(to_existential(burglar))
    state = engine.initial_state(burglar_edb)
    quake = next(
        f for f in applicable_firings(state, engine) if f.rule_index == 0
    )
    with pytest.raises(DomainError, match=r"rule 0 \[.*\]: value s outside support"):
        chase_step(state, quake, engine, choice="s")
    assert "Earthquake__Flip__2" not in state.facts


def test_step_rejects_inapplicable_firing(burglar, burglar_edb):
    engine = ChaseEngine(to_existential(burglar))
    state = engine.initial_state(burglar_edb)
    quake = next(
        f for f in applicable_firings(state, engine) if f.rule_index == 0
    )
    chase_step(state, quake, engine, choice=0.0)
    with pytest.raises(GdlogError, match="head already satisfied"):
        chase_step(state, quake, engine, choice=1.0)


def test_symbolic_parameter_is_domain_error(registry):
    from gdlog.parser import parse_facts, parse_program

    p = parse_program("edb S/2.\nidb R/2.\nR(x, Flip[q]) :- S(x, q).\n", registry)
    edb = parse_facts('S("a", "oops").', p.edb)
    with pytest.raises(DomainError, match="symbolic"):
        sample_outcome(p, edb, seed=0)


def test_invalid_parameter_names_rule_and_binding(registry):
    from gdlog.parser import parse_facts, parse_program

    p = parse_program("edb S/2.\nidb R/2.\nR(x, Flip[q]) :- S(x, q).\n", registry)
    edb = parse_facts('S("a", 1.5).', p.edb)
    with pytest.raises(DomainError, match=r"rule 0 \[.*q=1.5.*\]"):
        sample_outcome(p, edb, seed=0)


def test_step_with_rng_draws_in_support(burglar, burglar_edb):
    ghat = to_existential(burglar)
    engine = ChaseEngine(ghat)
    state = engine.initial_state(burglar_edb)
    # the public op also accepts the raw translated program
    quake = next(f for f in applicable_firings(state, ghat) if f.rule_index == 0)
    chase_step(state, quake, ghat, rng=RngStream(8))
    (key,) = state.obls["Earthquake__Flip__2"]
    assert state.obls["Earthquake__Flip__2"][key] in (0.0, 1.0)


def test_firing_roundtrip_errors(burglar, burglar_edb):
    from gdlog.chase import Firing

    engine = ChaseEngine(to_existential(burglar))
    state = engine.initial_state(burglar_edb)
    with pytest.raises(GdlogError, match="no rule with index"):
        chase_step(state, Firing(99, ()), engine)
    with pytest.raises(GdlogError, match="misses variable"):
        chase_step(state, Firing(0, (("c", "Napa"),)), engine)  # r unbound
    with pytest.raises(GdlogError, match="body unsatisfied"):
        chase_step(state, Firing(0, (("c", "Atlantis"), ("r", 0.5))), engine)


def test_step_on_a_drawn_firing_needs_a_choice_or_an_rng(burglar, burglar_edb):
    engine = ChaseEngine(to_existential(burglar))
    state = engine.initial_state(burglar_edb)
    quake = next(f for f in applicable_firings(state, engine) if f.rule_index == 0)
    with pytest.raises(GdlogError, match="^distributional firing needs a choice or an rng"):
        chase_step(state, quake, engine)
    assert "Earthquake__Flip__2" not in state.facts and state.steps == 0


# -- sample_outcome ------------------------------------------------------------


def test_sampling_is_deterministic(burglar, burglar_edb):
    a = sample_outcome(burglar, burglar_edb, seed=11)
    b = sample_outcome(burglar, burglar_edb, seed=11)
    assert a.terminated == LEAF
    assert a.facts == b.facts
    assert a.log_probability == b.log_probability
    c = sample_outcome(burglar, burglar_edb, seed=12)
    assert c.terminated == LEAF


def test_doubling_chain_exhausts_budget(registry):
    doubling = load_program("doubling.gdl", registry)
    chain = load_facts("chain.facts", doubling)
    o = sample_outcome(doubling, chain, seed=3, step_budget=1000)
    assert o.terminated == BUDGET_EXHAUSTED
    for i in range(6):
        assert _fact("R", 2.0**i, 2.0 ** (i + 1)) in o.facts


def test_escape_leaf_fraction(registry):
    escape = load_program("doubling_escape.gdl", registry)
    q = load_facts("escape.facts", escape)
    engine = ChaseEngine(to_existential(escape))
    template = engine.initial_state(q)
    n = 10_000
    leaves = 0
    for i in range(n):
        state = template.copy()
        if engine.run(state, RngStream(314, i), 60) == LEAF:
            leaves += 1
    assert abs(leaves / n - 0.5) < 0.02


@pytest.mark.parametrize(
    "prog_name,fact_name",
    [
        ("burglar.gdl", "burglar.facts"),
        ("pdb.gdl", "pdb.facts"),
        ("disjunctive.gdl", "disjunctive.facts"),
        ("visits.gdl", "visits.facts"),
    ],
)
def test_weakly_acyclic_programs_always_reach_a_leaf(registry, prog_name, fact_name):
    from gdlog.analysis import is_weakly_acyclic

    program = load_program(prog_name, registry)
    assert is_weakly_acyclic(program).weakly_acyclic
    engine = ChaseEngine(to_existential(program))
    template = engine.initial_state(load_facts(fact_name, program))
    for seed in range(1000):
        state = template.copy()
        assert engine.run(state, RngStream(seed, 0), 10**6) == LEAF


def test_monotone_growth_and_fd_invariants(burglar, burglar_edb):
    engine = CheckedEngine(to_existential(burglar))
    for seed in range(25):
        state = engine.initial_state(burglar_edb)
        sizes = [state.fact_count()]
        while True:
            nxt = engine.pop_applicable(state)
            if nxt is None:
                break
            chase_step(state, engine.to_firing(*nxt), engine, rng=RngStream(seed, 0))
            sizes.append(state.fact_count())
        assert all(b == a + 1 for a, b in zip(sizes, sizes[1:]))


def test_weight_ledger_matches_recomputation(burglar, burglar_edb):
    engine = ChaseEngine(to_existential(burglar))
    for seed in range(50):
        state = engine.initial_state(burglar_edb)
        engine.run(state, RngStream(seed, 1), 10**6)
        assert math.exp(engine.canonical_log_mass(state)) == pytest.approx(
            engine.canonical_mass(state), rel=1e-9
        )


def test_invariant_check_catches_a_wrong_draw_ledger(burglar, burglar_edb):
    engine = CheckedEngine(to_existential(burglar))
    state = engine.initial_state(burglar_edb)
    rng = RngStream(0, 0)
    assert engine.run(state, rng, 3) == BUDGET_EXHAUSTED
    assert state.ledger  # the first rule draws an earthquake per city
    where, p = state.ledger[0]
    state.ledger[0] = (where, math.nextafter(p, 1.0))  # one ulp off
    with pytest.raises(AssertionError, match="draw ledger out of sync"):
        engine.run(state, rng, 10**6)


def _mixes_number_and_symbol(ledger) -> bool:
    """Some relation draws under keys with a number and a symbol at one
    position, which plain comparison cannot order."""
    kinds: dict = {}
    for (rel, key), _ in ledger:
        for i, v in enumerate(key):
            kinds.setdefault((rel, i), set()).add(isinstance(v, str))
    return any(len(k) == 2 for k in kinds.values())


@pytest.mark.parametrize("order", [FIFO, REVERSED_RULES, RANDOM_FAIR])
def test_ledger_is_in_constant_key_order(registry, order):
    """The ledger's order is the (relation, ``_row_key``) order, checked
    directly rather than through the mass it gives: after a merge into an
    empty ledger at 20 steps and into a non-empty one at 40."""
    mixed = late = 0
    for seed in range(300):
        program, facts = random_program(random.Random(seed), registry)
        engine = ChaseEngine(to_existential(program), order, seed)
        state = engine.initial_state(facts)
        rng = RngStream(seed, 0)
        for budget in (20, 40):
            engine.run(state, rng, budget)
            late += bool(state.ledger and state.draws)
            keys = [(rel, _row_key(key)) for (rel, key), _ in state.canonical_draws()]
            assert all(a < b for a, b in zip(keys, keys[1:]))
        mixed += _mixes_number_and_symbol(state.ledger)
    # not vacuous: many merges take the fallback key, some land in a ledger
    assert mixed >= 50 and late >= 5


def _break_fd(state):
    state.facts["Earthquake__Flip__2"].add(("Napa", 1.0, 0.01))


def _break_obligations(state):
    state.obls["Earthquake__Flip__2"][("Napa", 0.01)] = 1.0


def _break_join_index(state):
    _, buckets = state.index["City"][(0,)]  # City is EDB: no step rebuilds it
    buckets.popitem()


@pytest.mark.parametrize(
    "tamper,message",
    [
        (_break_fd, "functional dependency violated on Earthquake__Flip__2"),
        (_break_obligations, "obligation index out of sync for Earthquake__Flip__2"),
        (_break_join_index, r"join index on City at \(0,\) out of sync"),
    ],
)
def test_invariant_check_catches_a_tampered_state(burglar, burglar_edb, tamper, message):
    engine = CheckedEngine(to_existential(burglar))
    state = engine.initial_state(burglar_edb)
    rng = RngStream(0, 0)
    assert engine.run(state, rng, 3) == BUDGET_EXHAUSTED
    # Napa drew 0, so each tampering below contradicts the state
    assert state.obls["Earthquake__Flip__2"][("Napa", 0.01)] == 0.0
    tamper(state)
    with pytest.raises(AssertionError, match=message):
        engine.run(state, rng, 10**6)


def test_engine_rejects_a_draw_in_a_body_and_an_unknown_distribution(burglar):
    from gdlog.distributions import Registry
    from gdlog.model import Atom, DeltaTerm, Variable
    from gdlog.translate import COPIED, ExistentialProgram, ExistentialRule

    body = (Atom("S", (DeltaTerm("Flip", (0.5,)),)),)
    rule = ExistentialRule(COPIED, Atom("R", (Variable("x"),)), body)
    ghat = ExistentialProgram({"S": 1}, {"R": 1}, [], [rule], [], Registry.standard())
    with pytest.raises(GdlogError, match="draw term in a translated rule body"):
        ChaseEngine(ghat)
    bare = to_existential(burglar)._replace(dists=Registry())
    with pytest.raises(GdlogError, match="unknown distribution 'Flip'"):
        ChaseEngine(bare)


def test_run_without_rng_returns_the_drawn_firing_unapplied(burglar, burglar_edb):
    engine = ChaseEngine(to_existential(burglar))
    state = engine.initial_state(burglar_edb)
    facts = {rel: set(rows) for rel, rows in state.facts.items()}
    rule, slots = engine.run(state, None, 10**6)
    # the first pending firing draws an earthquake
    assert rule.index == 0 and rule.distrel is not None
    assert not engine.head_satisfied(state, rule, slots)
    assert state.steps == 0
    assert state.facts == facts
    assert state.canonical_draws() == []


def _heads(facts) -> dict:
    heads: dict = {}
    for f in facts:
        heads.setdefault(f.relation, set()).add(f.args)
    return heads


def _check_heads_retrace(engine, facts, seed: int, budget: int) -> int:
    """With ``heads`` the rows that a plain run with the same seed reached,
    a run retraces it; with one deterministically derived row taken out,
    the run stops at the firing that derives that row, unapplied. Returns
    the number of rows taken out."""
    plain = engine.initial_state(facts)
    end = engine.run(plain, RngStream(seed, 0), budget)
    reached = plain.instance()
    state = engine.initial_state(facts)
    assert engine.run(state, RngStream(seed, 0), budget, _heads(reached)) == end
    assert state.facts == plain.facts
    assert state.canonical_draws() == plain.canonical_draws()
    derived = {r.head_rel for r in engine.rules if r.distrel is None}
    taken = 0
    for fact in sorted(reached - frozenset(facts), key=fact_key):
        if fact.relation not in derived:
            continue
        state = engine.initial_state(facts)
        stop = engine.run(state, RngStream(seed, 0), budget, _heads(reached - {fact}))
        rule, slots = stop
        assert rule.distrel is None
        assert (rule.head_rel, rule.head_key(slots)) == (fact.relation, fact.args)
        assert fact.args not in state.facts.get(fact.relation, ())
        taken += 1
    return taken


def test_heads_retrace_a_seeded_run(burglar, burglar_edb):
    engine = ChaseEngine(to_existential(burglar))
    for seed in range(5):
        # Earthquake, Burglary and Trig of every city and unit, Alarm of some
        assert _check_heads_retrace(engine, burglar_edb, seed, 10**6) >= 10
    # cut by the budget, the run with heads is cut at the same place
    assert _check_heads_retrace(engine, burglar_edb, 0, 8) > 0


def test_heads_retrace_seeded_runs_of_random_programs(registry):
    taken = 0
    for seed in range(200):
        program, facts = random_program(random.Random(seed), registry)
        engine = CheckedEngine(to_existential(program))
        # every run reaches a leaf at 40 steps; some are cut at 6
        taken += _check_heads_retrace(engine, facts, seed, 6 if seed % 3 else 40)
    assert taken > 300  # not vacuous


def test_run_without_rng_stops_at_draws_and_heads_outside(burglar, burglar_edb):
    engine = ChaseEngine(to_existential(burglar))
    quake = _fact("Earthquake", "Napa", 1)
    heads = _heads(worked_outcome(burglar_edb) - {quake})
    state = engine.initial_state(burglar_edb)
    drawn, outside = 0, []
    while isinstance(stop := engine.run(state, None, 10**6, heads), tuple):
        rule, slots = stop
        if rule.distrel is None:
            row = rule.head_key(slots)
            assert row not in heads.get(rule.head_rel, ())
            outside.append(Fact(rule.head_rel, row))
        else:
            drawn += 1
        chase_step(state, engine.to_firing(rule, slots), engine, choice=1.0)
    assert stop == LEAF
    assert drawn == 14  # all forced to 1: 2 earthquakes, 4 burglaries, 8 triggers
    assert quake in outside and _fact("Earthquake", "Yucaipa", 1) in outside


# -- replay_weight ---------------------------------------------------------------


def test_replay_worked_outcome(burglar, burglar_edb):
    got = replay_weight(burglar, burglar_edb, worked_outcome(burglar_edb))
    assert not isinstance(got, Rejection)
    assert got == pytest.approx(WORKED_OUTCOME_WEIGHT, rel=1e-12)


def test_replay_trivial_candidate(burglar):
    # without City rows no rule ever fires; the input alone is the one outcome
    inert = frozenset({_fact("AlarmOn", "NP1")})
    assert replay_weight(burglar, inert, inert) == 1.0


def test_replay_rejects_extraneous_fact(burglar, burglar_edb):
    padded = worked_outcome(burglar_edb) | {_fact("Trig", "YU1", 1)}
    got = replay_weight(burglar, burglar_edb, padded)
    assert isinstance(got, Rejection)
    assert "extraneous" in got.reason


def test_replay_rejects_missing_fact(burglar, burglar_edb):
    # drop a forced projection fact: the candidate is no longer a solution
    dropped = worked_outcome(burglar_edb) - {_fact("Earthquake", "Napa", 1)}
    got = replay_weight(burglar, burglar_edb, dropped)
    assert isinstance(got, Rejection)
    assert "missing forced fact" in got.reason


def test_replay_rejects_fd_violation(burglar, burglar_edb):
    doubled = worked_outcome(burglar_edb) | {
        _fact("Earthquake__Flip__2", "Napa", 0, 0.01),
        _fact("Earthquake", "Napa", 0),
    }
    got = replay_weight(burglar, burglar_edb, doubled)
    assert isinstance(got, Rejection)
    assert "functional dependency" in got.reason


def test_replay_rejects_candidate_missing_input(burglar, burglar_edb):
    partial = worked_outcome(burglar_edb) - {_fact("City", "Napa", 0.03)}
    got = replay_weight(burglar, burglar_edb, partial)
    assert isinstance(got, Rejection)


def test_replay_reproduces_sampled_probability(burglar, burglar_edb):
    for seed in range(200):
        o = sample_outcome(burglar, burglar_edb, seed=seed)
        got = replay_weight(burglar, burglar_edb, o.facts)
        assert not isinstance(got, Rejection)
        assert got == pytest.approx(math.exp(o.log_probability), rel=1e-9)


def _symbol_draw_case(registry):
    from gdlog.parser import parse_facts, parse_program

    p = parse_program("edb A/1.\nidb C/2.\nC(x, Flip[0.2]) :- A(x).\n", registry)
    edb = parse_facts("A(0).", p.edb)
    return p, edb, {_fact("C__Flip__2", 0, "s", 0.2), _fact("C", 0, "s")}


SYMBOL_DRAW_REJECTION = Rejection("zero-weight choice s on C__Flip__2 at (0.0, 0.2)")


def test_replay_rejects_symbol_as_drawn_value(registry):
    # a symbol has no mass under any numeric distribution
    p, edb, drawn = _symbol_draw_case(registry)
    assert replay_weight(p, edb, edb | drawn) == SYMBOL_DRAW_REJECTION


def test_replay_rejects_zero_weight_choice(burglar, burglar_edb):
    # a Flip draw of 0.5 has no mass; the engine weighs it when applying
    flip = _fact("Earthquake__Flip__2", "Napa", 1, 0.01)
    moved = _fact("Earthquake__Flip__2", "Napa", 0.5, 0.01)
    candidate = (worked_outcome(burglar_edb) - {flip}) | {moved}
    assert replay_weight(burglar, burglar_edb, candidate) == Rejection(
        "zero-weight choice 0.5 on Earthquake__Flip__2 at ('Napa', 0.01)"
    )


def test_replay_bad_parameter_is_domain_error(registry):
    from gdlog.parser import parse_facts, parse_program

    p = parse_program("edb S/2.\nidb R/2.\nR(x, Flip[q]) :- S(x, q).\n", registry)
    edb = parse_facts('S("a", 1.5).', p.edb)
    drawn = {_fact("R__Flip__2", "a", 1, 1.5), _fact("R", "a", 1)}
    with pytest.raises(DomainError, match=r"rule 0 \[.*q=1.5.*\]: Flip"):
        replay_weight(p, edb, edb | drawn)


def _flip_of_parameter(registry, q):
    from gdlog.parser import parse_facts, parse_program

    p = parse_program("edb S/2.\nidb R/2.\nR(x, Flip[q]) :- S(x, q).\n", registry)
    return p, parse_facts(f'S("a", {q}).', p.edb)


@pytest.mark.parametrize("value", [1, "s"])
def test_bad_parameter_is_domain_error_whatever_the_value(registry, value):
    # replay, cylinder and chase_step all check the parameters before they
    # weigh the value, so a symbol does not turn the error into a Rejection
    p, edb = _flip_of_parameter(registry, 1.5)
    drawn = {_fact("R__Flip__2", "a", value, 1.5), _fact("R", "a", value)}
    firing = r"rule 0 \[x='a', q=1\.5\]"
    for forced in (replay_weight, cylinder_mass):
        with pytest.raises(DomainError, match=firing):
            forced(p, edb, edb | drawn)
    engine = ChaseEngine(to_existential(p))
    state = engine.initial_state(edb)
    (draw,) = applicable_firings(state, engine)
    with pytest.raises(DomainError, match=firing):
        chase_step(state, draw, engine, choice=value)


def test_forced_chase_rejects_unresolved_obligation_and_short_row(registry):
    p, edb = _flip_of_parameter(registry, 0.5)
    assert replay_weight(p, edb, edb) == Rejection(
        "missing forced fact: unresolved obligation on R__Flip__2 at ('a', 0.5)"
    )
    short = edb | {_fact("R__Flip__2", "a", 1)}
    arity = Rejection("fact of R__Flip__2 has arity 2, expected 3")
    assert replay_weight(p, edb, short) == arity
    assert cylinder_mass(p, edb, short) == arity


@pytest.mark.parametrize("forced", [replay_weight, cylinder_mass])
def test_forced_chase_checks_the_parameters_of_a_firing_it_does_not_draw(
    registry, forced
):
    # the target holds no value for the firing: replay would reject it and
    # cylinder drop it, but its invalid parameter is reported first
    p, edb = _flip_of_parameter(registry, 1.5)
    with pytest.raises(DomainError, match=r"rule 0 \[x='a', q=1\.5\]"):
        forced(p, edb, edb)


def test_rejection_is_falsy_and_probability_is_exp_of_log(burglar, burglar_edb):
    assert bool(Rejection("any reason")) is False
    o = sample_outcome(burglar, burglar_edb, seed=7)
    assert isinstance(o, Outcome) and 0.0 < o.probability < 1.0
    assert o.probability == math.exp(o.log_probability)


def test_replay_weighs_each_forced_draw_once(burglar, burglar_edb, monkeypatch):
    from gdlog.distributions import DistributionSpec

    outcome = sample_outcome(burglar, burglar_edb, seed=7).facts
    calls = Counter()
    for name in ("check_params", "pmf"):
        method = getattr(DistributionSpec, name)

        def counted(self, *args, _name=name, _method=method):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(DistributionSpec, name, counted)
    assert not isinstance(replay_weight(burglar, burglar_edb, outcome), Rejection)
    draws = sum("__" in f.relation for f in outcome)
    assert draws == 6
    assert calls == Counter(check_params=draws)


def test_replay_escape_leaf(registry):
    escape = load_program("doubling_escape.gdl", registry)
    q = load_facts("escape.facts", escape)
    leaf = frozenset(
        {
            _fact("Q", 0),
            _fact("R__Flip__2", 0, 0, 0.5),
            _fact("R", 0, 0),
            _fact("R__Dbl__2", 0, 0, 0),
        }
    )
    assert replay_weight(escape, q, leaf) == pytest.approx(0.5, rel=1e-12)
