"""The chase's frontier against a reference frontier, pop by pop.

Every output is the same under every fair order, so the order tests
elsewhere cannot tell whether ``reversed-rules`` really reverses the
rule priority or whether a random pop takes the item it should. This
reference frontier defines the three orders by rule index: it is seeded
with every full-body binding that the nested-loop join finds, sorted by
(rule index, binding), with the index negated under ``reversed-rules``;
after each applied firing it appends the bindings that are new since the
step before, sorted the same way. ``fifo`` and ``reversed-rules`` pop
the first item; ``random`` removes item ``_mix(order_seed, k) % len``,
where ``k`` counts every pop, stale pops included. A popped firing whose
head already holds is skipped. The engine is stepped through
``pop_applicable`` and ``apply``, and at every step both must name the
same (rule index, binding).
"""
from __future__ import annotations

import random

import pytest

from gdlog.chase import FIFO, RANDOM_FAIR, REVERSED_RULES, ChaseEngine, _mix, chase_step
from gdlog.distributions import RngStream
from gdlog.model import _row_key
from gdlog.translate import to_existential

from nested_join import nested_extend
from randprog import random_program

ORDERS = [FIFO, REVERSED_RULES, RANDOM_FAIR]


class ReferenceFrontier:
    """A list of pending (rule index, binding) pairs over an engine's rules."""

    def __init__(self, engine: ChaseEngine, state):
        self.rules = engine.rules
        self.order = engine.order
        self.order_seed = engine.order_seed
        self.sign = -1 if engine.order == REVERSED_RULES else 1
        self.pops = 0
        self.known: set = set()
        self.pending: list = []
        self.extend(state)

    def extend(self, state) -> None:
        """Append the bindings that ``state`` has and the last call had not."""
        found = {
            (rule.index, tuple(slots))
            for rule in self.rules
            for slots in nested_extend(state, rule, [None] * rule.nvars, -1)
        }
        new = found - self.known
        self.known = found
        self.pending.extend(
            sorted(new, key=lambda b: (self.sign * b[0], _row_key(b[1])))
        )

    def _head_holds(self, state, idx: int, slots) -> bool:
        rule = self.rules[idx]
        head = tuple(slots[p] if is_var else p for is_var, p in rule.head_args)
        rows = state.facts.get(rule.head_rel, ())
        if rule.distrel is None:
            return head in rows
        return any(rule.distrel.split(row)[0] == head for row in rows)

    def pop(self, state):
        """The next pending firing whose head does not hold, or None."""
        while self.pending:
            i = 0
            if self.order == RANDOM_FAIR:
                i = _mix(self.order_seed, self.pops) % len(self.pending)
            self.pops += 1
            idx, slots = self.pending.pop(i)
            if not self._head_holds(state, idx, slots):
                return idx, slots
        return None


def _check_run(engine: ChaseEngine, facts, seed: int, steps: int) -> tuple:
    """Step ``engine`` against the reference; returns the firings applied
    and the number of stale pops the reference skipped."""
    state = engine.initial_state(facts)
    ref = ReferenceFrontier(engine, state)
    assert len(state.pending) == len(ref.pending)
    rng = RngStream(seed, 0)
    fired = []
    for _ in range(steps):
        nxt = engine.pop_applicable(state)
        expected = ref.pop(state)
        if nxt is None:
            assert expected is None
            break
        rule, slots = nxt
        assert (rule.index, tuple(slots)) == expected, len(fired)
        chase_step(state, engine.to_firing(rule, slots), engine, rng=rng)
        ref.extend(state)
        assert len(state.pending) == len(ref.pending)
        fired.append(expected)
    return fired, ref.pops - len(fired)


@pytest.mark.parametrize("order", ORDERS)
def test_burglar_frontier_matches_reference(burglar, burglar_edb, order):
    ghat = to_existential(burglar)
    stale = 0
    for seed in range(3):
        engine = ChaseEngine(ghat, order=order, order_seed=seed)
        fired, skipped = _check_run(engine, burglar_edb, seed, 10_000)
        assert fired
        stale += skipped
    assert stale > 0


def test_random_programs_frontier_matches_reference(registry):
    runs = {order: [] for order in ORDERS}
    stale = 0
    for seed in range(100):
        program, facts = random_program(random.Random(seed), registry)
        ghat = to_existential(program)
        for order in ORDERS:
            engine = ChaseEngine(ghat, order=order, order_seed=seed)
            fired, skipped = _check_run(engine, facts, seed, 40)
            runs[order].append(fired)
            stale += skipped
    # the orders are told apart on these programs: each differs from fifo
    for order in (REVERSED_RULES, RANDOM_FAIR):
        differ = sum(a != b for a, b in zip(runs[FIFO], runs[order]))
        assert differ >= 20, (order, differ)
    assert stale > 100
