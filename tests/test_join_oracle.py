"""Differential tests of the indexed join kernel against nested loops.

Random programs from ``randprog`` are chased step by step with
invariant checking on. Before every step, every (rule, delta atom) join
and every frontier-seeding join is run by the engine and by the scanning
reference in ``nested_join``; the multisets of bindings must agree.
Each rule's compiled head key, body grounders and delta matchers are
compared the same way with the term-by-term ``ground`` and ``match``, on
random programs, on every corpus program, and on a program built to hold
zero-arity atoms, repeated variables and hostile string constants.
Constraint checks are compared the same way on random constraint bodies
over the reached outcomes, with facts of foreign arities mixed in.
"""
from __future__ import annotations

import random
from collections import Counter

from gdlog.chase import ChaseEngine
from gdlog.distributions import RngStream
from gdlog.model import Atom, DeltaTerm, Fact, Program, Rule, Variable, validate_program
from gdlog.ppdl import _CompiledConstraint, check_constraints
from gdlog.translate import to_existential

from conftest import load_facts, load_program
from nested_join import match, nested_extend, reference_violations
from old_drivers import ground
from randprog import _random_constraint, random_program

SEEDS = range(200)
STEPS = 30


def _check_joins(engine, state) -> int:
    compared = 0
    for rule in engine.rules:
        start = [None] * rule.nvars
        assert Counter(engine._extend(state, rule, start, -1)) == Counter(
            nested_extend(state, rule, start, -1)
        )
        for j, (rel, args) in enumerate(rule.body):
            for row in list(state.facts.get(rel, ())):
                start = match(args, row, [None] * rule.nvars)
                if start is None:
                    continue
                got = engine._extend(state, rule, start, j)
                assert Counter(got) == Counter(nested_extend(state, rule, start, j))
                compared += 1
    return compared


def _check_compiled(engine, state) -> int:
    """The compiled closures of every rule agree with the interpreted
    ``ground`` and ``match`` on every binding and row of ``state``."""
    compared = 0
    rows = [row for rel_rows in state.facts.values() for row in rel_rows]
    for rule in engine.rules:
        for slots in nested_extend(state, rule, [None] * rule.nvars, -1):
            assert rule.head_key(slots) == ground(rule.head_args, slots)
            for (_, args), body_row in zip(rule.body, rule.body_rows):
                assert body_row(slots) == ground(args, slots)
            compared += 1
        for j, (_, args) in enumerate(rule.body):
            # rows of every relation, so that constants also fail to match
            for row in rows:
                if len(row) != len(args):
                    continue
                want = match(args, row, [None] * rule.nvars)
                got = rule.matchers[j](row)
                assert got == (None if want is None else tuple(want))
                compared += 1
    return compared


def _chase(seed: int, registry, on_step=None):
    program, facts = random_program(random.Random(seed), registry)
    return (program, *_chase_program(program, facts, seed, on_step))


def _chase_program(program, facts, seed: int, on_step=None):
    """Chase ``program``; a copy of the state takes over halfway, so that
    indexes are also rebuilt from a copied instance."""
    engine = ChaseEngine(to_existential(program), check_invariants=True)
    state = engine.initial_state(facts)
    rng = RngStream(seed, 0)
    for step in range(STEPS):
        if on_step is not None:
            on_step(engine, state)
        if step == STEPS // 2:
            state = state.copy()
        nxt = engine.pop_applicable(state)
        if nxt is None:
            break
        engine.apply(state, *nxt, rng=rng)
    return engine, state


def test_compiled_rules_match_interpreters_on_random_programs(registry):
    compared = 0

    def check(engine, state):
        nonlocal compared
        compared += _check_compiled(engine, state)

    for seed in SEEDS:
        _chase(seed, registry, check)
    assert compared > 20000  # the comparison is not vacuous


CORPUS_PAIRS = [
    ("burglar", "burglar"),
    ("burglar_ppdl", "burglar_report"),
    ("disjunctive", "disjunctive"),
    ("doubling", "chain"),
    ("doubling_escape", "escape"),
    ("fork", "chain"),
    ("fork_escape", "escape"),
    ("pdb", "pdb"),
    ("visits", "visits"),
    ("visits_base", "visits"),
    ("visits_implied", "visits"),
]


def test_compiled_rules_match_interpreters_on_corpus(registry):
    for name, facts_name in CORPUS_PAIRS:
        program = load_program(name + ".gdl", registry)
        facts = load_facts(facts_name + ".facts", program)
        compared = 0

        def check(engine, state):
            nonlocal compared
            compared += _check_compiled(engine, state)

        _chase_program(program, facts, 7, check)
        assert compared > 0, name


# constants that would run or break generated code if pasted into it
HOSTILE = ['say "hi"', "back\\slash", "{x}", "{0}", "line\nbreak", "__import__('os')"]


def test_compiled_rules_match_interpreters_on_edge_cases(registry):
    x, y, v = Variable("x"), Variable("y"), Variable("v")
    flip = DeltaTerm("Flip", (0.5,))
    rules = [
        # a variable repeated within the delta atom, a constant in the head
        Rule(Atom("A", (x, HOSTILE[0])), (Atom("E", (x, x)),)),
        # a zero-arity head, a constant in the body
        Rule(Atom("Z", ()), (Atom("E", (x, HOSTILE[5])), Atom("A", (x, y)))),
        # a zero-arity body atom and constants in a drawn head
        Rule(Atom("D", (HOSTILE[2], x, flip)), (Atom("Z", ()), Atom("E", (x, 1.0)))),
        Rule(Atom("A", (y, x)), (Atom("E", (x, y)), Atom("D", (HOSTILE[2], x, v)))),
        # a variable repeated within a delta atom that is the whole body
        Rule(Atom("D", (HOSTILE[3], x, flip)), (Atom("A", (x, x)),)),
    ]
    program = Program({"E": 2}, {"A": 2, "Z": 0, "D": 3}, rules, [], registry)
    assert validate_program(program).ok
    constants = HOSTILE + [0.0, 1.0]
    facts = frozenset(
        Fact("E", (a, b))
        for a in constants
        for b in constants
        if a == b or b in HOSTILE
    )
    compared = 0

    def check(engine, state):
        nonlocal compared
        compared += _check_compiled(engine, state)

    _, state = _chase_program(program, facts, 3, check)
    assert compared > 1000
    assert state.facts.get("Z") == {()}
    assert {(a, b) for a, b, _, _ in state.facts["D__Flip__3"]} == {
        ("{x}", 1.0),
        ("{0}", 1.0),
        ("{0}", HOSTILE[0]),
    }
    assert {(HOSTILE[5], HOSTILE[0]), (HOSTILE[5], 1.0)} <= state.facts["A"]


def test_indexed_extend_matches_nested_loops(registry):
    compared = 0

    def check(engine, state):
        nonlocal compared
        compared += _check_joins(engine, state)

    for seed in SEEDS:
        _chase(seed, registry, check)
    assert compared > 5000  # the comparison is not vacuous


class _RecordingEngine(ChaseEngine):
    def __init__(self, ghat):
        super().__init__(ghat)
        self.enqueued: list = []

    def _enqueue_batch(self, state, batch):
        self.enqueued.extend(batch)
        super()._enqueue_batch(state, batch)


def test_every_binding_is_enqueued_exactly_once(registry):
    # the frontier keeps no record of past firings: this holds only
    # because a binding is discovered when its last body row arrives
    for seed in SEEDS:
        program, facts = random_program(random.Random(seed), registry)
        engine = _RecordingEngine(to_existential(program))
        state = engine.initial_state(facts)
        engine.run(state, RngStream(seed, 0), STEPS)
        everything = Counter(
            (rule.index, slots)
            for rule in engine.rules
            for slots in nested_extend(state, rule, [None] * rule.nvars, -1)
        )
        assert Counter(engine.enqueued) == everything


def _items(binding: dict) -> frozenset:
    return frozenset(binding.items())


def test_constraint_checks_match_nested_loops(registry):
    rnd = random.Random(20240)
    violations = 0
    for seed in SEEDS:
        _, engine, state = _chase(seed, registry)
        facts = set(state.instance())
        # rows of foreign arity must never match
        facts |= {Fact("A", (0.0, 1.0)), Fact("E", (1.0,)), Fact("B", ("s", 0.0, 1.0))}
        constraints = [_random_constraint(rnd) for _ in range(6)]
        report = check_constraints(frozenset(facts), constraints)
        expected = reference_violations(facts, constraints)
        assert report.violations == expected
        assert report.satisfied == (not expected)
        violations += len(expected)
        # compiled against the chase state itself, as estimate_posterior does
        schema = engine.ghat.schema()
        on_state = reference_violations(state.instance(), constraints)
        for i, c in enumerate(constraints):
            compiled = _CompiledConstraint(c, schema)
            got = Counter(
                _items(dict(zip(compiled.var_names, slots)))
                for slots in compiled.bindings(state)
                if not compiled.head_holds(state, slots)
            )
            assert got == Counter(_items(b) for j, b in on_state if j == i)
    assert violations > 150  # the comparison is not vacuous
