"""Exhaustive bounded exploration of the chase tree.

Expansion is best-first on path mass so that truncation leaves a tight
residual bound. Within a path the firing order is the engine's fair
scheduler, so the tree explored here is a genuine chase tree. Every
number reported is derived canonically from a leaf's rows and draws
(products over the draw ledger in canonical order, order-invariant float
sums, ties broken by sorted row keys), which makes the output
reproducible bit-for-bit across scheduling policies and logically
equivalent rule sets.

The loop keeps each leaf as its chase state's own rows (relation -> set
of rows), probability and draw ledger, and ``_ordered`` puts the leaves
in output order. The CLI renders each leaf's rows directly; only the
library's ``OutcomeDistribution`` builds ``Fact`` objects and log masses.

A branch point copies its state for every value of the support but the
last, whose child continues in the parent's state; a copy shares the rows
of every relation until it writes them. A state's canonical mass is taken
once, when it is pushed: the chase to the next branch point draws
nothing, so the mass popped is the mass pushed. A support is enumerated
once per rule and parameter tuple. The walk makes no reference cycles, so
the cyclic garbage collector is paused around it: the states and leaves
it allocates would otherwise trigger collections that free nothing.
"""
from __future__ import annotations

import gc
import heapq
import math

from .chase import BUDGET_EXHAUSTED, LEAF, ChaseEngine, Outcome, _log_mass
from .model import Fact, GdlogError, Program, _Record, _row_key, _sorted_canonical
from .translate import to_existential

__all__ = [
    "EnumerationPolicy",
    "OutcomeDistribution",
    "enumerate_outcomes",
    "cylinder_mass",
    "marginal",
    "marginal_bounds",
]


class EnumerationPolicy(_Record):
    """Knobs bounding the exploration.

    mass_epsilon prunes each branch set down to cumulative mass
    1 - epsilon; support_mass_target additionally caps per-node coverage
    for infinite-support distributions. node_budget caps the total
    number of chase steps taken across the whole tree (branch sets are
    expanded atomically, so the cap can overshoot by one branch width).
    """

    mass_epsilon: float = 0.0
    node_budget: int = 1_000_000
    support_mass_target: float = 1.0 - 1e-6
    order: str = "fifo"
    order_seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.mass_epsilon < 1.0):
            raise GdlogError("mass_epsilon must be in [0, 1)")
        if self.node_budget < 1:
            raise GdlogError("node_budget must be >= 1")
        if not (0.0 < self.support_mass_target <= 1.0):
            raise GdlogError("support_mass_target must be in (0, 1]")


class OutcomeDistribution(_Record):
    """Leaf outcomes with probabilities, plus unexplored mass."""

    entries: tuple  # of (Outcome, probability), pairwise distinct fact sets
    explored_mass: float
    residual_mass: float

    def probability_of(self, facts: frozenset) -> float | None:
        for outcome, p in self.entries:
            if outcome.facts == facts:
                return p
        return None


def enumerate_outcomes(
    g: Program, input_facts, policy: EnumerationPolicy | None = None
) -> OutcomeDistribution:
    """Expand the chase tree under ``policy`` and collect leaf outcomes.

    Residual mass accounts for pruned support tails, budget cuts, and
    paths still open when the budget ran out; explored and residual mass
    always total one up to float rounding.
    """
    leaves, explored, residual, _ = _explore(g, input_facts, policy)
    return _distribution(leaves, explored, residual)


def _explore(g: Program, input_facts, policy, observe=None) -> tuple:
    """The enumeration loop; returns (leaves, explored mass, residual mass,
    leaves dropped). Each leaf is (rows, probability, draw ledger): its
    chase state's own ``facts`` (relation -> set of rows) and
    ``canonical_draws()``. A leaf whose chase state fails the test
    ``observe(engine)`` returns is dropped as soon as it is reached.

    A leaf keeps its state's sets and ledger uncopied: a state writes only
    the sets it owns and its own ledger, ``copy`` drops ownership on both
    sides, ``own`` replaces a set and never mutates a shared one, and a
    leaf state is never branched again. Leaves are distinct: each support's
    values are (asserted when it is enumerated), so two leaves part at a
    branch on one FD key with different values, which the functional-
    dependency assert in ``apply`` keeps in both."""
    if policy is None:
        policy = EnumerationPolicy()
    engine = ChaseEngine(
        to_existential(g), order=policy.order, order_seed=policy.order_seed
    )
    keep = observe(engine) if observe is not None else None
    root = engine.initial_state(input_facts)
    dropped = 0
    leaves: list = []  # of (rows, probability, draw ledger)
    residual_parts: list = []
    supports: dict = {}  # (rule index, parameters) -> (support, its tail)
    steps = 0
    counter = 0
    heap = [(-1.0, counter, root)]  # (-path mass, insertion order, state)
    # the walk makes no reference cycles: reference counting frees all it
    # allocates, and collections would only rescan its live states
    collecting = gc.isenabled()
    gc.disable()
    try:
        while heap:
            neg_mass, _, state = heapq.heappop(heap)
            mass = -neg_mass  # the pushed state's canonical mass
            if steps >= policy.node_budget:
                residual_parts.append(mass)
                continue
            # drive the deterministic prefix of this subtree; the budget
            # counts steps across the whole tree
            start = state.steps
            stop = engine.run_to_branch(state, start + policy.node_budget - steps)
            steps += state.steps - start
            if stop is LEAF:
                if keep is not None and not keep(state):
                    dropped += 1
                    continue
                leaves.append((state.facts, mass, state.canonical_draws()))
                continue
            if stop is BUDGET_EXHAUSTED:
                residual_parts.append(mass)
                continue

            # distributional firing: branch over the support
            rule, slots = stop
            key = rule.head_key(slots)
            params = rule.distrel.params(key)
            memo = supports.get((rule.index, params))
            if memo is None:
                target = 1.0 - policy.mass_epsilon
                if not rule.spec.finite_support:
                    target = min(target, policy.support_mass_target)
                support = []  # the policy keeps ``target`` in (0, 1]
                rule.spec._walk(engine.checked_params(rule, slots, key), target, support)
                values = {v for v, _ in support}
                assert len(values) == len(support), "support repeats a value"
                tail = 1.0 - math.fsum(p for _, p in support)
                memo = supports[rule.index, params] = support, tail
            support, tail = memo
            if tail > 0.0:
                residual_parts.append(mass * tail)
            last = len(support) - 1
            for i, (value, p) in enumerate(support):
                child = state if i == last else state.copy()
                engine.apply(child, rule, slots, value, p)
                steps += 1
                counter += 1
                heapq.heappush(heap, (-engine.canonical_mass(child), counter, child))
    finally:
        if collecting:
            gc.enable()

    explored = math.fsum(p for _, p, _ in leaves)
    return leaves, explored, math.fsum(residual_parts), dropped


def _facts(rows) -> list:
    """A leaf's facts, read from its rows, as (relation, row) pairs."""
    return [(rel, row) for rel, rel_rows in rows.items() for row in rel_rows]


def _ordered(leaves):
    """Yield the leaves of ``_explore`` by descending probability, ties by
    sorted facts (leaves never share a fact set, so only ties need keys)."""
    by_mass: dict = {}
    for leaf in leaves:
        by_mass.setdefault(leaf[1], []).append(leaf)
    for p in sorted(by_mass, reverse=True):
        tied = by_mass[p]
        if len(tied) > 1:
            tied = _sorted_canonical(
                tied,
                lambda leaf: sorted((r, _row_key(row)) for r, row in _facts(leaf[0])),
                lambda leaf: sorted(_facts(leaf[0])),
            )
        yield from tied


def _distribution(leaves, explored, residual, norm=1.0) -> OutcomeDistribution:
    """The leaves of ``_explore`` as outcomes in ``_ordered`` order, each
    with its ledger's log probability and its probability divided by
    ``norm``. The order is taken before the division, which can round
    distinct masses to one value."""
    entries = []
    for rows, p, draws in _ordered(leaves):
        facts = frozenset(Fact(rel, row) for rel, row in _facts(rows))
        entries.append((Outcome(facts, _log_mass(draws), LEAF), p / norm))
    return OutcomeDistribution(tuple(entries), explored, residual)


def cylinder_mass(g: Program, input_facts, derivation_set):
    """Probability mass of all outcomes extending ``derivation_set``.

    Verifies the derivation-set property by chasing the input with every
    choice forced by input plus the given facts and every other firing
    skipped; rejects if that chase does not produce them all. The mass is
    the product of the draw weights.
    """
    engine = ChaseEngine(to_existential(g))
    input_facts = frozenset(input_facts)
    target = input_facts | frozenset(derivation_set)
    return engine.forced_mass(input_facts, target, strict=False)


def marginal(dist: OutcomeDistribution, query_fact: Fact) -> float:
    """Total probability of enumerated outcomes containing the fact.

    This is a lower bound whenever residual mass is positive; see
    marginal_bounds for the matching upper bound.
    """
    return math.fsum(p for outcome, p in dist.entries if query_fact in outcome.facts)


def marginal_bounds(dist: OutcomeDistribution, query_fact: Fact) -> tuple:
    lo = marginal(dist, query_fact)
    return lo, min(1.0, lo + dist.residual_mass)
