"""Reference chase drivers, kept as differential oracles.

These are the loops that drove the chase before ``ChaseEngine.run``
became the only one: ``replay_weight`` and ``cylinder_mass`` each with
its own functional-dependency index and zero-weight check, the cylinder
re-running every applicable firing on each pass, and the enumeration's
own loop over each path's deterministic prefix. Their masses come from
``old_canonical_mass`` and ``old_canonical_log_mass``, which re-sort the
drawn facts and re-weigh each through the public pmf instead of reading
the state's draw ledger. ``old_exact_posterior`` conditions an
enumerated prior as it did before leaves were checked in place: every
outcome's facts are regrouped by (relation, arity) and checked there.
``old_ordered`` is the leaf order enumeration had before tied leaves
were first compared by their plain rows: each tie sorted by the
``fact_key`` values of its facts. ``old_estimate_posterior`` is the
Monte Carlo loop before runs shared one chase tree, and ``old_copy`` is
``ChaseState.copy`` before states shared relations copy-on-write. The
property tests check that the engine returns the same masses, rejection
reasons, enumerated distributions, posteriors, estimates and leaf
orders. Heads and functional-dependency keys are grounded by ``ground``,
term by term, as the engine did before it compiled a ``head_key`` per
rule.
"""
from __future__ import annotations

import heapq
import math
from collections import deque

from gdlog.chase import (
    BUDGET_EXHAUSTED,
    LEAF,
    ChaseEngine,
    ChaseState,
    Outcome,
    Rejection,
)
from gdlog.distributions import DomainError, RngStream
from gdlog.enumeration import EnumerationPolicy, OutcomeDistribution
from gdlog.model import Fact, GdlogError, constant_key, fact_key
from gdlog.parser import render_fact
from gdlog.ppdl import (
    LEGALITY_THRESHOLD,
    IllegalInput,
    PosteriorEstimate,
    UndeterminedLegality,
    _CompiledConstraint,
    _observations,
    _satisfies_all,
)
from gdlog.translate import to_existential


def ground(args, slots) -> tuple:
    """The row (or functional-dependency key) that compiled ``args``
    ground to under ``slots``, interpreted term by term."""
    return tuple(slots[p] if is_var else p for is_var, p in args)


def _dist_facts_sorted(engine, state):
    """(spec, value, params) triples in canonical order."""
    out = []
    for name in sorted(state.obls):
        dr = engine.distrel_by_name[name]
        spec = engine.ghat.dists.get(dr.dist)
        entries = sorted(
            state.obls[name].items(),
            key=lambda kv: tuple(constant_key(c) for c in kv[0]),
        )
        for key, value in entries:
            out.append((spec, value, dr.params(key)))
    return out


def old_copy(state: ChaseState) -> ChaseState:
    """A copy that shares no relation with ``state``: every row set and
    obligation dict is copied, and the copy starts without indexes."""
    s = ChaseState.__new__(ChaseState)
    s.facts = {r: set(v) for r, v in state.facts.items()}
    s.obls = {r: dict(v) for r, v in state.obls.items()}
    s.pending = deque(state.pending)
    s.index = {}
    s.ledger = list(state.ledger)
    s.draws = list(state.draws)
    s.steps = state.steps
    s.pops = state.pops
    s.owned = set(s.facts)  # nothing is shared
    return s


def old_canonical_mass(engine, state) -> float:
    m = 1.0
    for spec, value, params in _dist_facts_sorted(engine, state):
        m *= spec.pmf(value, params)
    return m


def old_canonical_log_mass(engine, state) -> float:
    s = 0.0
    for spec, value, params in _dist_facts_sorted(engine, state):
        s += math.log(spec.pmf(value, params))
    return s


def old_replay_weight(g, input_facts, candidate):
    engine = ChaseEngine(to_existential(g))
    candidate = frozenset(candidate)
    input_facts = frozenset(input_facts)
    if not input_facts <= candidate:
        return Rejection("candidate does not contain the input instance")

    cand_rows: dict = {}
    for f in candidate:
        cand_rows.setdefault(f.relation, set()).add(f.args)
    cand_obls: dict = {}
    for dr in engine.ghat.dist_relations:
        keyed: dict = {}
        for row in cand_rows.get(dr.name, ()):
            if len(row) != dr.arity:
                return Rejection(
                    f"fact of {dr.name} has arity {len(row)}, expected {dr.arity}"
                )
            key = row[: dr.position - 1] + row[dr.position :]
            value = row[dr.position - 1]
            if key in keyed and keyed[key] != value:
                return Rejection(f"functional dependency violation on {dr.name}")
            keyed[key] = value
        cand_obls[dr.name] = keyed

    state = engine.initial_state(input_facts)
    while True:
        nxt = engine.pop_applicable(state)
        if nxt is None:
            break
        rule, slots = nxt
        if rule.distrel is None:
            row = ground(rule.head_args, slots)
            if row not in cand_rows.get(rule.head_rel, ()):
                return Rejection(
                    f"missing forced fact {render_fact(Fact(rule.head_rel, row))}"
                )
            engine.apply(state, rule, slots)
        else:
            key = ground(rule.head_args, slots)
            keyed = cand_obls.get(rule.head_rel, {})
            if key not in keyed:
                return Rejection(
                    f"missing forced fact: unresolved obligation on {rule.head_rel} "
                    f"at {key}"
                )
            value = keyed[key]
            dr = rule.distrel
            params = key[len(key) - dr.pardim :] if dr.pardim else ()
            if isinstance(value, str) or rule.spec.pmf(value, params) <= 0.0:
                return Rejection(
                    f"zero-weight choice {value} on {rule.head_rel} at {key}"
                )
            engine.apply(state, rule, slots, choice=value)

    extraneous = sorted(candidate - state.instance(), key=fact_key)
    if extraneous:
        return Rejection(f"extraneous fact {render_fact(extraneous[0])}")
    return old_canonical_mass(engine, state)


def old_cylinder_mass(g, input_facts, derivation_set):
    engine = ChaseEngine(to_existential(g))
    fset = frozenset(derivation_set)
    input_facts = frozenset(input_facts)

    target_rows: dict = {}
    for f in input_facts | fset:
        target_rows.setdefault(f.relation, set()).add(f.args)
    target_size = sum(len(v) for v in target_rows.values())

    target_obls: dict = {}
    for dr in engine.ghat.dist_relations:
        keyed: dict = {}
        for f in fset:
            if f.relation != dr.name:
                continue
            if f.arity != dr.arity:
                return Rejection(
                    f"fact of {dr.name} has arity {f.arity}, expected {dr.arity}"
                )
            key = f.args[: dr.position - 1] + f.args[dr.position :]
            value = f.args[dr.position - 1]
            if key in keyed and keyed[key] != value:
                return Rejection(f"functional dependency violation on {dr.name}")
            keyed[key] = value
        target_obls[dr.name] = keyed

    state = engine.initial_state(input_facts)
    progress = True
    while state.fact_count() < target_size and progress:
        progress = False
        for rule, slots in engine.applicable_raw(state):
            if engine.head_satisfied(state, rule, slots):
                continue  # an earlier firing in this pass satisfied it
            if rule.distrel is None:
                row = ground(rule.head_args, slots)
                if row in target_rows.get(rule.head_rel, ()) and row not in state.facts.get(
                    rule.head_rel, ()
                ):
                    engine.apply(state, rule, slots)
                    progress = True
            else:
                key = ground(rule.head_args, slots)
                keyed = target_obls.get(rule.head_rel, {})
                if key not in keyed:
                    continue
                value = keyed[key]
                dr = rule.distrel
                params = key[len(key) - dr.pardim :] if dr.pardim else ()
                if isinstance(value, str) or rule.spec.pmf(value, params) <= 0.0:
                    return Rejection(
                        f"zero-weight choice {value} on {rule.head_rel} at {key}"
                    )
                engine.apply(state, rule, slots, choice=value)
                progress = True

    if state.fact_count() != target_size:
        missing = sorted((input_facts | fset) - state.instance(), key=fact_key)
        return Rejection(
            f"not a derivation set: no chase prefix produces "
            f"{render_fact(missing[0])}"
        )
    return old_canonical_mass(engine, state)


def old_enumerate_outcomes(g, input_facts, policy: EnumerationPolicy | None = None):
    if policy is None:
        policy = EnumerationPolicy()
    engine = ChaseEngine(
        to_existential(g), order=policy.order, order_seed=policy.order_seed
    )
    root = engine.initial_state(input_facts)

    leaves: dict = {}
    residual_parts: list = []
    steps = 0
    counter = 0
    heap = [(-1.0, counter, root)]

    while heap:
        neg_mass, _, state = heapq.heappop(heap)
        if steps >= policy.node_budget:
            residual_parts.append(-neg_mass)
            continue
        while True:
            nxt = engine.pop_applicable(state)
            if nxt is None:
                facts = state.instance()
                assert facts not in leaves, "chase tree produced a duplicate leaf"
                prob = old_canonical_mass(engine, state)
                leaves[facts] = (
                    Outcome(facts, old_canonical_log_mass(engine, state), LEAF),
                    prob,
                )
                break
            rule, slots = nxt
            if steps >= policy.node_budget:
                residual_parts.append(old_canonical_mass(engine, state))
                break
            if rule.distrel is None:
                engine.apply(state, rule, slots)
                steps += 1
                continue

            dr = rule.distrel
            key = ground(rule.head_args, slots)
            params = key[len(key) - dr.pardim :] if dr.pardim else ()
            target = 1.0 - policy.mass_epsilon
            if not rule.spec.finite_support:
                target = min(target, policy.support_mass_target)
            try:
                support = rule.spec.enumerate_support(params, target)
            except DomainError as e:
                raise DomainError(
                    f"{engine._firing_context(rule, slots)}: {e}"
                ) from e
            parent_mass = old_canonical_mass(engine, state)
            tail = 1.0 - math.fsum(p for _, p in support)
            if tail > 0.0:
                residual_parts.append(parent_mass * tail)
            for value, _ in support:
                child = state.copy()
                engine.apply(child, rule, slots, choice=value)
                steps += 1
                counter += 1
                heapq.heappush(
                    heap, (-old_canonical_mass(engine, child), counter, child)
                )
            break

    explored = math.fsum(p for _, p in leaves.values())
    residual = math.fsum(residual_parts)
    entries = sorted(
        leaves.values(),
        key=lambda op: (-op[1], tuple(sorted(fact_key(f) for f in op[0].facts))),
    )
    return OutcomeDistribution(tuple(entries), explored, residual)


def old_row_keys(rows: dict) -> list:
    """The sorted ``fact_key`` values of a leaf's facts, read from its rows."""
    return sorted(
        (rel, tuple(constant_key(v) for v in row))
        for rel, rel_rows in rows.items()
        for row in rel_rows
    )


def old_ordered(leaves) -> list:
    """The leaves of ``_explore`` by descending probability, ties sorted by
    ``old_row_keys``."""
    by_mass: dict = {}
    for leaf in leaves:
        by_mass.setdefault(leaf[1], []).append(leaf)
    out = []
    for p in sorted(by_mass, reverse=True):
        tied = by_mass[p]
        if len(tied) > 1:
            tied.sort(key=lambda leaf: old_row_keys(leaf[0]))
        out.extend(tied)
    return out


def _source(facts) -> ChaseState:
    """A fact set as a join source keyed by (relation, arity)."""
    source = ChaseState()
    for f in facts:
        source.facts.setdefault((f.relation, len(f.args)), set()).add(f.args)
    return source


def old_exact_posterior(p, input_facts, policy: EnumerationPolicy | None = None):
    prior = old_enumerate_outcomes(p, input_facts, policy)
    compiled = [_CompiledConstraint(c) for c in p.constraints]
    retained = [
        (outcome, prob)
        for outcome, prob in prior.entries
        if _satisfies_all(compiled, _source(outcome.facts))
    ]
    retained_mass = math.fsum(prob for _, prob in retained)
    if retained_mass <= LEGALITY_THRESHOLD:
        if prior.residual_mass < LEGALITY_THRESHOLD:
            raise IllegalInput(
                "no possible outcome satisfies the constraints: "
                "the condition set has measure zero"
            )
        raise UndeterminedLegality(
            "no explored outcome satisfies the constraints, but "
            f"{prior.residual_mass:.6g} mass is unexplored: legality undetermined"
        )
    if len(retained) == len(prior.entries):
        return prior
    entries = tuple((o, prob / retained_mass) for o, prob in retained)
    explored = math.fsum(prob for _, prob in entries)
    return OutcomeDistribution(entries, explored, 0.0)


def old_estimate_posterior(p, engine, input_facts, query, n, seed, step_budget):
    """The Monte Carlo loop before runs shared a chase tree: every run
    copies the initial state and chases it to the end with its own
    (seed, i) stream, and every leaf is checked again."""
    if n < 1:
        raise GdlogError("sample count must be >= 1")
    template = engine.initial_state(input_facts)
    observed = _observations(p, engine)
    accepted = 0
    exhausted = 0
    hits = 0
    for i in range(n):
        state = template.copy()
        status = engine.run(state, RngStream(seed, i), step_budget)
        if status == BUDGET_EXHAUSTED:
            exhausted += 1
            continue
        if not observed(state):
            continue
        accepted += 1
        if query.args in state.facts.get(query.relation, ()):
            hits += 1
    if accepted:
        point = hits / accepted
        std_error = math.sqrt(point * (1.0 - point) / accepted)
    else:
        point = None
        std_error = None
    return PosteriorEstimate(query, point, std_error, n, accepted, exhausted, seed)
