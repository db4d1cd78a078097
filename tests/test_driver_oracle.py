"""Differential tests of the single chase driver against the old loops.

``replay_weight``, ``cylinder_mass`` and ``enumerate_outcomes`` all run
through ``ChaseEngine.run``; ``old_drivers`` keeps the loops they had
before. On random programs from ``randprog``, sampled outcomes, random
subsets of their derived facts, and sets with one tampered fact must
get the same mass (compared with ``==``) or the same rejection reason
from both, and enumeration must render the same JSON bytes. The masses
read from a state's draw ledger must equal, bit for bit, the old ones
recomputed from its drawn facts. With random constraints added,
``exact_posterior``, which checks each leaf's chase state in place, must
return the same posterior or raise the same error as the old
conditioning of the enumerated prior's fact sets, and the exact-infer
helper, which reads a query from the leaf rows, the same marginal bounds.
The Monte Carlo walk down a shared chase tree must give the same estimate
as chasing every sample from the start, or raise the same error on the
same sample.
"""
from __future__ import annotations

import dataclasses
import json
import random
from collections import Counter

from gdlog import ppdl
from gdlog.chase import (
    ChaseEngine,
    Rejection,
    applicable_firings,
    chase_step,
    replay_weight,
)
from gdlog.distributions import DomainError, RngStream
from gdlog.enumeration import (
    EnumerationPolicy,
    cylinder_mass,
    enumerate_outcomes,
    marginal_bounds,
)
from gdlog.model import DeltaTerm, Fact, GdlogError, Variable, fact_key
from gdlog.ppdl import _estimate, _exact_bounds, exact_posterior
from gdlog.translate import to_existential

from old_drivers import (
    old_canonical_log_mass,
    old_canonical_mass,
    old_cylinder_mass,
    old_enumerate_outcomes,
    old_estimate_posterior,
    old_exact_posterior,
    old_replay_weight,
)
from randprog import _VALUES, _constrained, _query, random_program
from test_enumeration import dist_as_json

SEEDS = range(300)
STEPS = 40


def _result(fn, *args):
    try:
        got = fn(*args)
    except Exception as e:  # both drivers must fail alike
        return ("raised", type(e).__name__, str(e))
    if isinstance(got, Rejection):
        return ("rejected", got.reason)
    return ("mass", got)


def _tampered(rnd: random.Random, facts: frozenset) -> list:
    """Fact sets that differ from ``facts`` in one fact: a value replaced,
    the changed fact added beside the original, one fact dropped, and a
    fact of the wrong arity added."""
    f = rnd.choice(sorted(facts, key=fact_key))
    args = list(f.args)
    args[rnd.randrange(len(args))] = rnd.choice(_VALUES)
    changed = Fact(f.relation, tuple(args))
    longer = Fact(f.relation, f.args + (rnd.choice(_VALUES),))
    return [
        (facts - {f}) | {changed},
        facts | {changed},
        facts - {f},
        facts | {longer},
    ]


def _cases(rnd: random.Random, facts: frozenset, outcome: frozenset):
    """Sets of derived facts to replay (with the input) and to measure as
    cylinders."""
    derived = outcome - facts
    sets = [derived]
    for _ in range(3):
        sets.append(frozenset(x for x in derived if rnd.random() < 0.5))
    if derived:
        sets.extend(_tampered(rnd, derived))
    return sets


def test_forced_chase_matches_old_replay_and_cylinder(registry):
    kinds = Counter()
    for seed in SEEDS:
        rnd = random.Random(seed)
        program, facts = random_program(rnd, registry)
        engine = ChaseEngine(to_existential(program))
        for k in range(3):
            outcome = engine.sample(facts, RngStream(seed, k), STEPS).facts
            for fset in _cases(rnd, facts, outcome):
                got = _result(replay_weight, program, facts, facts | fset)
                assert got == _result(old_replay_weight, program, facts, facts | fset)
                kinds["replay " + got[0]] += 1
                got = _result(cylinder_mass, program, facts, fset)
                assert got == _result(old_cylinder_mass, program, facts, fset)
                kinds["cylinder " + got[0]] += 1
    # the comparison is not vacuous: both verdicts occur often on both sides
    assert sum(kinds.values()) > 5000
    for name in ("replay mass", "replay rejected", "cylinder mass", "cylinder rejected"):
        assert kinds[name] > 300, kinds


def _render(dist) -> str:
    """The canonical JSON of ``dist``, plus each outcome's own log mass and
    termination, which that JSON leaves out."""
    return dist_as_json(dist) + json.dumps(
        [(o.log_probability, o.terminated) for o, _ in dist.entries]
    )


def test_enumeration_matches_old_loop(registry):
    leaves = 0
    for seed in SEEDS:
        program, facts = random_program(random.Random(seed), registry)
        for budget in (1, 6, 40, 200):
            order = ("fifo", "reversed-rules", "random")[seed % 3]
            policy = EnumerationPolicy(node_budget=budget, order=order, order_seed=seed)
            dist = enumerate_outcomes(program, facts, policy)
            assert _render(dist) == _render(old_enumerate_outcomes(program, facts, policy))
            leaves += len(dist.entries)
    assert leaves > 500  # the comparison is not vacuous


def test_ledger_mass_matches_old_canonical_mass(registry):
    draws = Counter()

    def check(engine, state):
        assert engine.canonical_mass(state) == old_canonical_mass(engine, state)
        assert engine.canonical_log_mass(state) == old_canonical_log_mass(engine, state)
        draws[min(sum(map(len, state.obls.values())), 3)] += 1

    for seed in SEEDS:
        rnd = random.Random(seed)
        program, facts = random_program(rnd, registry)
        # on odd seeds every step also rebuilds the ledger from the drawn
        # facts (and so merges each draw as it fires)
        engine = ChaseEngine(to_existential(program), check_invariants=seed % 2 == 1)
        # a sampled run: every draw enters the ledger at the one mass call
        state = engine.initial_state(facts)
        engine.run(state, RngStream(seed, 0), STEPS)
        check(engine, state)
        # chase_step in random firing order, masses read after some steps
        # only; a copy taken a third of the way in then diverges
        states = [engine.initial_state(facts)]
        rngs = [RngStream(seed, 1)]
        for step in range(STEPS):
            if step == STEPS // 3:
                states.append(states[0].copy())
                rngs.append(RngStream(seed, 2))
            for state, rng in zip(states, rngs):
                firings = applicable_firings(state, engine)
                if firings:
                    chase_step(state, rnd.choice(firings), engine, rng=rng)
                    if rnd.random() < 0.4:
                        check(engine, state)
        for state in states:
            check(engine, state)
    # the comparison is not vacuous: many checks see three draws or more
    assert draws[3] > 500, draws


def _posterior(condition, program, facts, policy):
    try:
        dist = condition(program, facts, policy)
    except GdlogError as e:
        return type(e), str(e)
    return dist.entries, dist.explored_mass, dist.residual_mass


def test_exact_posterior_matches_old_conditioning(registry):
    rnd = random.Random(4242)
    kinds = Counter()
    for seed in SEEDS:
        program, facts = random_program(random.Random(seed), registry)
        program = _constrained(rnd, program)
        for budget in (1, 6, 40, 200):
            order = ("fifo", "reversed-rules", "random")[seed % 3]
            policy = EnumerationPolicy(node_budget=budget, order=order, order_seed=seed)
            got = _posterior(exact_posterior, program, facts, policy)
            assert got == _posterior(old_exact_posterior, program, facts, policy)
            if isinstance(got[0], type):
                kinds[got[0].__name__] += 1
            else:
                prior = enumerate_outcomes(program, facts, policy)
                kinds["unchanged" if got[0] == prior.entries else "renormalized"] += 1
    # not vacuous: every result occurs, with and without dropped leaves
    assert set(kinds) == {"IllegalInput", "UndeterminedLegality", "unchanged", "renormalized"}
    assert min(kinds.values()) > 20, kinds


def test_exact_bounds_match_old_marginal_bounds(registry):
    """The exact-infer helper, which reads query membership and masses from
    the leaf rows, gives the same point, upper bound and masses (with
    ``==``), or the same error, as the marginal bounds of the old
    conditioning of the enumerated prior's fact sets."""
    rnd = random.Random(4343)
    kinds = Counter()
    points = Counter()
    for seed in SEEDS:
        program, facts = random_program(random.Random(seed), registry)
        program = _constrained(rnd, program)
        engine = ChaseEngine(to_existential(program))
        outcome = engine.sample(facts, RngStream(seed, 0), STEPS).facts
        for budget in (1, 6, 40, 200):
            query = _query(rnd, facts, outcome)
            order = ("fifo", "reversed-rules", "random")[seed % 3]
            policy = EnumerationPolicy(node_budget=budget, order=order, order_seed=seed)
            try:
                got = _exact_bounds(program, facts, query, policy)
            except GdlogError as e:
                got = type(e), str(e)
            try:
                old = old_exact_posterior(program, facts, policy)
            except GdlogError as e:
                assert got == (type(e), str(e))
                kinds[type(e).__name__] += 1
                continue
            lo, hi = marginal_bounds(old, query)
            assert got == (lo, hi, old.explored_mass, old.residual_mass)
            prior = enumerate_outcomes(program, facts, policy)
            kinds["unchanged" if old.entries == prior.entries else "renormalized"] += 1
            points["zero" if lo == 0.0 else "non-zero"] += 1
    # not vacuous: every result occurs, and the query both misses and hits
    assert set(kinds) == {"IllegalInput", "UndeterminedLegality", "unchanged", "renormalized"}
    assert min(kinds.values()) > 20, kinds
    assert min(points.values()) > 100, points


def _variable_parameter(rnd: random.Random, program):
    """``program`` with one draw parameter replaced by a body variable, so
    that some bindings draw with a parameter out of range or a symbol."""
    drawn = [
        i
        for i, rule in enumerate(program.rules)
        if any(True for _ in rule.head.delta_terms()) and any(rule.body_variables())
    ]
    if not drawn:
        return program
    i = rnd.choice(drawn)
    rule = program.rules[i]
    var = Variable(rnd.choice(sorted({v.name for v in rule.body_variables()})))
    args = tuple(
        DeltaTerm(t.dist, (var,)) if isinstance(t, DeltaTerm) else t
        for t in rule.head.args
    )
    rules = list(program.rules)
    rules[i] = dataclasses.replace(rule, head=dataclasses.replace(rule.head, args=args))
    return dataclasses.replace(program, rules=rules)


def test_estimate_matches_old_sampling_loop(registry, monkeypatch):
    """On random programs, some constrained and some with a variable draw
    parameter, in all three orders, under budgets that some runs exhaust
    and with a cache cap that some runs pass: the walk's
    ``PosteriorEstimate`` equals the old loop's, or both raise the same
    error after building the same streams."""
    built = []
    init = RngStream.__init__

    def recording_init(self, base_seed, stream_index=0):
        built.append(stream_index)
        init(self, base_seed, stream_index)

    def run(fn, *args):
        built.clear()
        try:
            return fn(*args)
        except GdlogError as e:
            return type(e), str(e), list(built)

    rnd = random.Random(4545)
    kinds = Counter()
    default_cap = ppdl._CACHE_ROWS
    for seed in SEEDS:
        program, facts = random_program(random.Random(seed), registry)
        if seed % 2:
            program = _constrained(rnd, program)
        if seed % 3 == 1:
            program = _variable_parameter(rnd, program)
        order = ("fifo", "reversed-rules", "random")[seed % 3]
        engine = ChaseEngine(to_existential(program), order=order, order_seed=seed)
        try:
            outcome = engine.sample(facts, RngStream(seed, 0), STEPS).facts
        except DomainError:
            outcome = facts
        query = _query(rnd, facts, outcome)
        monkeypatch.setattr(RngStream, "__init__", recording_init)
        for budget, cap in ((4, default_cap), (STEPS, default_cap), (STEPS, 12)):
            monkeypatch.setattr(ppdl, "_CACHE_ROWS", cap)
            args = (program, engine, facts, query, 25, seed, budget)
            got = run(_estimate, *args)
            assert got == run(old_estimate_posterior, *args)
            if isinstance(got, tuple):
                kinds[got[0].__name__] += 1
                kinds["error after sample 0"] += got[2][-1] > 0
                continue
            kinds["exhausted" if got.samples_budget_exhausted else "finished"] += 1
            kinds["defined" if got.defined else "undefined"] += 1
        monkeypatch.undo()
    # not vacuous: runs exhaust, estimates are and are not defined, and a
    # bad parameter is an error, also on a later sample than the first
    for kind in ("DomainError", "exhausted", "finished", "defined", "undefined"):
        assert kinds[kind] > 10, kinds
    assert kinds["error after sample 0"] > 2, kinds
