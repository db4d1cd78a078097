"""Differential tests of the indexed join kernel against nested loops.

Random programs from ``randprog`` are chased step by step with
invariant checking on. Before every step, every (rule, delta atom) join
and every frontier-seeding join is run by the engine and by the scanning
reference in ``nested_join``; the multisets of bindings must agree.
Constraint checks are compared the same way on random constraint bodies
over the reached outcomes, with facts of foreign arities mixed in.
"""
from __future__ import annotations

import random
from collections import Counter

from gdlog.chase import ChaseEngine
from gdlog.distributions import RngStream
from gdlog.model import Atom, Constraint, DeltaTerm, Fact, Variable
from gdlog.ppdl import _CompiledConstraint, check_constraints
from gdlog.translate import to_existential

from nested_join import nested_extend, reference_violations
from randprog import random_program

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
                start = ChaseEngine._match(args, row, [None] * rule.nvars)
                if start is None:
                    continue
                got = engine._extend(state, rule, start, j)
                assert Counter(got) == Counter(nested_extend(state, rule, start, j))
                compared += 1
    return compared


def _chase(seed: int, registry, on_step=None):
    """Chase a random program; a copy of the state takes over halfway,
    so that indexes are also rebuilt from a copied instance."""
    program, facts = random_program(random.Random(seed), registry)
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
    return program, engine, state


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


_RELATIONS = {"E": 2, "A": 1, "B": 2, "C": 2}
# a draw term is no constant: it must match no row and hold in no head
_TERMS = [Variable("x"), Variable("y"), Variable("z"), 0.0, 1.0, "s"]
_TERMS.append(DeltaTerm("Flip", (0.5,)))


def _random_atom(rnd: random.Random, relation: str) -> Atom:
    arity = _RELATIONS[relation]
    if rnd.random() < 0.15:
        arity = max(1, arity + rnd.choice((-1, 1)))  # never matches a chase row
    return Atom(relation, tuple(rnd.choice(_TERMS) for _ in range(arity)))


def _random_constraint(rnd: random.Random) -> Constraint:
    body = tuple(
        _random_atom(rnd, rnd.choice(sorted(_RELATIONS)))
        for _ in range(rnd.randint(1, 3))
    )
    if rnd.random() < 0.3:
        return Constraint(body, None)
    body_vars = sorted(
        {v.name for a in body for v in a.args if isinstance(v, Variable)}
    )
    head = _random_atom(rnd, rnd.choice(sorted(_RELATIONS)))
    args = tuple(
        (Variable(rnd.choice(body_vars)) if body_vars else 1.0)
        if isinstance(t, Variable)
        else t
        for t in head.args
    )
    return Constraint(body, Atom(head.relation, args))


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
