"""Constraints and posterior semantics.

A program's constraints act as observations, checked on chase states in
place: the posterior is the prior conditioned on every constraint holding.
Exact conditioning drops each failing enumerated leaf as it is reached and
renormalizes. The Monte Carlo path rejection-samples seeded runs that
walk one shared chase tree, chasing and checking each cached leaf once.

Exact conditioning works on the enumeration's leaf rows and masses. Only
``exact_posterior`` turns the retained leaves into ``Fact`` outcomes; the
exact query bounds read membership straight from the rows.
"""
from __future__ import annotations

import math
from collections import namedtuple

from .chase import (
    BUDGET_EXHAUSTED,
    ChaseEngine,
    ChaseState,
    _compile_atom_args,
    _grounder,
    join_plan,
    run_join,
)
from .distributions import RngStream
from .enumeration import (
    EnumerationPolicy,
    OutcomeDistribution,
    _distribution,
    _explore,
)
from .model import Fact, GdlogError, IllegalInput, Program, _Record, constant_key
from .parser import render_fact
from .translate import to_existential

__all__ = [
    "IllegalInput",
    "UndeterminedLegality",
    "ConstraintReport",
    "PosteriorEstimate",
    "check_constraints",
    "exact_posterior",
    "estimate_posterior",
    "LEGALITY_THRESHOLD",
]

#: Retained mass at or below this is treated as measure zero, not float dust.
LEGALITY_THRESHOLD = 1e-12

#: Rows the chase-tree states cached by ``estimate_posterior`` hold at most,
#: also where a path never ends (``corpus/doubling.gdl``).
_CACHE_ROWS = 100_000
_EXHAUSTED, _REJECTED, _ACCEPTED, _HIT = range(4)  # the classes of a leaf


class UndeterminedLegality(IllegalInput):
    """No explored outcome satisfies a program's constraints, but unexplored
    mass remains, so legality cannot be decided at this exploration depth."""


class _CompiledConstraint:
    """A constraint body compiled to a join plan; the head is ground from
    the same slots.

    With the chase's ``schema`` (relation -> arity) the plan runs over a
    chase state, where an atom of another arity matches nothing; without
    it, over rows that ``check_constraints`` groups by (relation, arity).
    """

    __slots__ = ("plan", "nvars", "var_names", "head")

    def __init__(self, c, schema: dict | None = None):
        def key(atom):  # None for an atom that matches no row
            if any(atom.delta_terms()):
                return None  # a draw term equals no constant
            if schema is None:
                return (atom.relation, len(atom.args))
            if schema.get(atom.relation) == len(atom.args):
                return atom.relation
            return None

        # a body with such an atom never matches, such a head never holds
        self.plan = self.head = None
        if any(key(a) is None for a in c.body):
            return
        slot_of: dict = {}
        body = tuple((key(a), _compile_atom_args(a.args, slot_of)) for a in c.body)
        self.plan = join_plan(body, -1)
        self.nvars = len(slot_of)
        self.var_names = tuple(slot_of)
        if c.head is not None and key(c.head) is not None:
            args = _compile_atom_args(c.head.args, slot_of)
            self.head = (key(c.head), _grounder(args))

    def bindings(self, source: ChaseState) -> list:
        if self.plan is None:
            return []
        return run_join(source, self.plan, [None] * self.nvars)

    def head_holds(self, source: ChaseState, slots) -> bool:
        if self.head is None:
            return False  # any body match is a violation
        rel, ground = self.head
        return ground(slots) in source.facts.get(rel, ())

    def violations(self, source: ChaseState) -> list:
        """The body bindings on ``source`` whose head does not hold."""
        return [s for s in self.bindings(source) if not self.head_holds(source, s)]


def _satisfies_all(compiled, source: ChaseState) -> bool:
    # a loop, not any() over a generator: this runs on every leaf
    for c in compiled:
        if c.violations(source):
            return False
    return True


def _observations(p: Program, engine: ChaseEngine):
    """The program's constraints as one test of a chase state in place."""
    schema = engine.ghat.schema()
    compiled = [_CompiledConstraint(c, schema) for c in p.constraints]
    return lambda state: _satisfies_all(compiled, state)


class ConstraintReport(_Record):
    satisfied: bool
    violations: tuple  # of (constraint index, binding dict)


def check_constraints(outcome_facts, constraints) -> ConstraintReport:
    """Check every constraint on a fact set; violations list the failing
    (constraint index, body binding) pairs."""
    source = ChaseState()  # rows keyed by (relation, arity)
    for f in outcome_facts:
        if any(v != v for v in f.args):
            # an index matches one NaN object to itself; NaN equals nothing
            raise GdlogError(f"fact {render_fact(f)}: NaN is not a constant")
        source.facts.setdefault((f.relation, len(f.args)), set()).add(f.args)
    violations = []
    for i, c in enumerate(map(_CompiledConstraint, constraints)):
        bad = [dict(zip(c.var_names, slots)) for slots in c.violations(source)]
        bad.sort(key=lambda b: sorted((k, constant_key(v)) for k, v in b.items()))
        violations.extend((i, b) for b in bad)
    return ConstraintReport(not violations, tuple(violations))


def _condition(p: Program, input_facts, policy) -> tuple:
    """The conditioning ``exact_posterior`` describes, on the leaves of
    ``_explore``: returns (kept leaves with their prior masses, explored
    mass, residual mass, the mass that divides the leaves' masses)."""
    leaves, explored, residual, dropped = _explore(
        p, input_facts, policy, lambda e: _observations(p, e)
    )
    if p.constraints and explored <= LEGALITY_THRESHOLD:
        if residual < LEGALITY_THRESHOLD:
            raise IllegalInput(
                "no possible outcome satisfies the constraints: "
                "the condition set has measure zero"
            )
        raise UndeterminedLegality(
            "no explored outcome satisfies the constraints, but "
            f"{residual:.6g} mass is unexplored: legality undetermined"
        )
    if not dropped:
        return leaves, explored, residual, 1.0
    return leaves, math.fsum(prob / explored for _, prob, _ in leaves), 0.0, explored


def exact_posterior(
    p: Program, input_facts, policy: EnumerationPolicy | None = None
) -> OutcomeDistribution:
    """Enumerate the prior, checking each leaf's chase state in place as
    it is reached, and renormalize by the retained mass.

    If the program has constraints and nothing is retained, the input is
    illegal (raises IllegalInput), or undetermined (UndeterminedLegality)
    if unexplored mass remains. When no outcome is filtered away, as
    always without constraints, the prior is returned unchanged.
    Conditioning is exact only when the prior was fully explored; with
    positive residual the result is conditioned on the explored region
    and the prior residual is not redistributed.
    """
    return _distribution(*_condition(p, input_facts, policy))


_Bounds = namedtuple("_Bounds", "point point_upper explored_mass residual_mass")


def _exact_bounds(p: Program, input_facts, query: Fact, policy) -> _Bounds:
    """The bounds on ``query`` under the exact posterior and its masses:
    ``marginal_bounds(exact_posterior(...))`` and the posterior's explored
    and residual mass, read from the leaf rows without building facts.
    ``math.fsum`` is correctly rounded, so leaf order does not matter."""
    leaves, explored, residual, norm = _condition(p, input_facts, policy)
    rel, row = query.relation, query.args
    point = math.fsum(
        prob / norm for rows, prob, _ in leaves if row in rows.get(rel, ())
    )
    return _Bounds(point, min(1.0, point + residual), explored, residual)


class PosteriorEstimate(_Record):
    """Rejection-sampling estimate of a posterior fact probability.

    Budget-exhausted runs are excluded from both the numerator and the
    denominator; their count bounds the bias by the unexplored mass.
    """

    query: Fact
    point: float | None
    std_error: float | None
    samples_total: int
    samples_accepted: int
    samples_budget_exhausted: int
    seed: int

    @property
    def defined(self) -> bool:
        return self.point is not None


def estimate_posterior(
    p: Program,
    input_facts,
    query: Fact,
    n: int,
    seed: int,
    step_budget: int = 1_000_000,
) -> PosteriorEstimate:
    """Estimate P(query | constraints) from ``n`` independent seeded runs.

    Deterministic given ``seed``: run i draws from the (seed, i) stream.
    The runs walk one shared chase tree: at each state stopped before a
    distributional firing a run draws, and only the first run to draw a
    value chases on to that child's next stop. A run's state depends only
    on its draws, so the counts are those of chasing each run alone. The
    cached states hold at most ``_CACHE_ROWS`` rows; a run whose next
    stop would not fit finishes uncached.

    With zero accepted samples the estimate is flagged undefined (point
    and std_error are None); that is a sampling statement, distinct from
    the exact path's IllegalInput.
    """
    if n < 1:
        raise GdlogError("sample count must be >= 1")
    engine = ChaseEngine(to_existential(p))
    return _estimate(p, engine, input_facts, query, n, seed, step_budget)


# a state stopped before a distributional firing, the firing with its checked
# parameters, and the children (nodes or leaf classes) by drawn value
_Node = namedtuple("_Node", "state rule slots params children")


def _estimate(p, engine, input_facts, query, n, seed, step_budget) -> PosteriorEstimate:
    """``estimate_posterior`` on ``engine``, in its scheduling order."""
    template = engine.initial_state(input_facts)
    observed = _observations(p, engine)
    held = 0  # rows of the cached states

    def chase(state: ChaseState, rng: RngStream) -> tuple:
        """(the next stop of ``state``, a leaf class or a node, and whether
        to cache it); a node past the cap draws and finishes uncached."""
        nonlocal held
        stop, cache = engine.run_to_branch(state, step_budget), True
        if isinstance(stop, tuple):
            rule, slots = stop
            params = engine.checked_params(rule, slots, rule.head_key(slots))
            rows = state.fact_count()
            if held + rows <= _CACHE_ROWS:
                held += rows
                return _Node(state, rule, slots, params, {}), True
            value, pmf = rule.spec.draw(params, rng)
            engine.apply(state, rule, slots, value, pmf)
            stop, cache = engine.run(state, rng, step_budget), False
        if stop is BUDGET_EXHAUSTED:
            return _EXHAUSTED, cache
        if not observed(state):
            return _REJECTED, cache
        hit = query.args in state.facts.get(query.relation, ())
        return (_HIT if hit else _ACCEPTED), cache

    root = None
    counts = [0] * 4  # by leaf class
    for i in range(n):
        rng = RngStream(seed, i)  # first: a bad seed fails before any chase
        node = root
        if node is None:
            node, cache = chase(template.copy(), rng)
            root = node if cache else None
        while isinstance(node, _Node):
            state, rule, slots, params, children = node
            value, pmf = rule.spec.draw(params, rng)
            node = children.get(value)
            if node is None:
                state = state.copy()
                engine.apply(state, rule, slots, value, pmf)
                node, cache = chase(state, rng)
                if cache:
                    children[value] = node
        counts[node] += 1
    accepted = counts[_ACCEPTED] + counts[_HIT]
    if accepted:
        point = counts[_HIT] / accepted
        std_error = math.sqrt(point * (1.0 - point) / accepted)
    else:
        point = None
        std_error = None
    exhausted = counts[_EXHAUSTED]
    return PosteriorEstimate(query, point, std_error, n, accepted, exhausted, seed)
