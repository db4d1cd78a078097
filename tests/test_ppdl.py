from __future__ import annotations

import math

import pytest

from gdlog import ppdl
from gdlog.chase import ChaseEngine
from gdlog.distributions import DomainError
from gdlog.enumeration import EnumerationPolicy, enumerate_outcomes, marginal
from gdlog.model import Atom, Constraint, Fact, GdlogError, Variable
from gdlog.parser import parse_facts, parse_program
from gdlog.ppdl import (
    IllegalInput,
    UndeterminedLegality,
    check_constraints,
    estimate_posterior,
    exact_posterior,
)
from gdlog.translate import to_existential

from conftest import load_facts, load_program
from old_drivers import old_estimate_posterior
from test_chase import _fact
from test_enumeration import dist_as_json


ALARM_QUERY = _fact("Earthquake", "Napa", 1)


def posterior_oracle(burglar_ppdl, report_edb, query):
    """Brute force: full prior enumeration, filter on the observation
    Alarm(NP1), renormalize by hand."""
    prior = enumerate_outcomes(burglar_ppdl, report_edb, EnumerationPolicy())
    assert abs(prior.explored_mass - 1.0) <= 1e-9
    keep = [(o, p) for o, p in prior.entries if _fact("Alarm", "NP1") in o.facts]
    z = math.fsum(p for _, p in keep)
    return math.fsum(p for o, p in keep if query in o.facts) / z


# -- check_constraints ---------------------------------------------------------


def test_constraints_satisfied(burglar_ppdl):
    facts = {_fact("ReportHAlarm", "NP1"), _fact("Alarm", "NP1")}
    report = check_constraints(facts, burglar_ppdl.constraints)
    assert report.satisfied and report.violations == ()


def test_empty_constraint_set_is_vacuous():
    assert check_constraints({_fact("X", 1)}, []).satisfied


def test_constraint_violation_lists_binding(burglar_ppdl):
    facts = {_fact("ReportHAlarm", "NP2"), _fact("Alarm", "NP1")}
    report = check_constraints(facts, burglar_ppdl.constraints)
    assert not report.satisfied
    assert report.violations == ((0, {"h": "NP2"}),)


def test_falsum_constraint_violation():
    falsum = Constraint((Atom("City", (Variable("c"), Variable("r"))),), None)
    facts = {_fact("City", "Napa", 0.03)}
    report = check_constraints(facts, [falsum])
    assert not report.satisfied
    assert report.violations[0][0] == 0


def test_constraint_ignores_facts_of_another_arity():
    x, y = Variable("x"), Variable("y")
    denial = Constraint((Atom("A", (x,)), Atom("B", (x,))), None)
    facts = {_fact("A", 1), _fact("A", 1, 1), _fact("B", 1, 1), _fact("B", 2)}
    assert check_constraints(facts, [denial]).satisfied
    facts.add(_fact("B", 1))
    assert check_constraints(facts, [denial]).violations == ((0, {"x": 1.0}),)
    # one relation at two arities in one body: each atom sees only its own
    mixed = Constraint((Atom("A", (x,)), Atom("A", (x, y))), None)
    report = check_constraints(facts, [mixed])
    assert report.violations == ((0, {"x": 1.0, "y": 1.0}),)


def test_check_constraints_rejects_nan():
    x = Variable("x")
    denial = Constraint((Atom("A", (x,)), Atom("B", (x,))), None)
    shared = float("nan")
    one_object = {Fact("A", (shared,)), Fact("B", (shared,))}
    two_objects = {Fact("A", (float("nan"),)), Fact("B", (float("nan"),))}
    for facts in (one_object, two_objects):
        with pytest.raises(GdlogError, match=r"\(nan\): NaN is not a constant"):
            check_constraints(facts, [denial])


# -- exact_posterior -----------------------------------------------------------


def test_posterior_matches_oracle(burglar_ppdl, report_edb):
    oracle = posterior_oracle(burglar_ppdl, report_edb, ALARM_QUERY)
    posterior = exact_posterior(burglar_ppdl, report_edb, EnumerationPolicy())
    assert marginal(posterior, ALARM_QUERY) == pytest.approx(oracle, rel=1e-12)
    assert posterior.explored_mass == pytest.approx(1.0, abs=1e-9)
    # conditioning on an alarm observation raises the earthquake belief
    assert oracle > 0.1


def test_posterior_probabilities_monotone(burglar_ppdl, report_edb):
    prior = enumerate_outcomes(burglar_ppdl, report_edb, EnumerationPolicy())
    prior_p = {o.facts: p for o, p in prior.entries}
    posterior = exact_posterior(burglar_ppdl, report_edb, EnumerationPolicy())
    for o, p in posterior.entries:
        assert p >= prior_p[o.facts] - 1e-15


def test_no_constraints_returns_prior_bit_identical(burglar, burglar_edb):
    prior = enumerate_outcomes(burglar, burglar_edb, EnumerationPolicy())
    posterior = exact_posterior(burglar, burglar_edb, EnumerationPolicy())
    assert dist_as_json(prior) == dist_as_json(posterior)


def test_no_constraints_and_nothing_explored_returns_prior(burglar, burglar_edb):
    # no legality problem without constraints, even with no leaf reached
    policy = EnumerationPolicy(node_budget=1)
    prior = enumerate_outcomes(burglar, burglar_edb, policy)
    posterior = exact_posterior(burglar, burglar_edb, policy)
    assert posterior.entries == () and posterior.residual_mass == 1.0
    assert dist_as_json(prior) == dist_as_json(posterior)


def test_edb_only_constraint_dichotomy(registry, burglar_edb):
    # constraints over EDB relations hold in every outcome or in none
    from gdlog.parser import render_program

    burglar_src = load_program("burglar.gdl", registry)
    satisfied = parse_program(
        render_program(burglar_src) + "City(c, r) => City(c, r).\n", registry
    )
    prior = enumerate_outcomes(satisfied, burglar_edb, EnumerationPolicy())
    posterior = exact_posterior(satisfied, burglar_edb, EnumerationPolicy())
    assert dist_as_json(prior) == dist_as_json(posterior)

    denial = parse_program(
        render_program(burglar_src) + "City(c, r) => false.\n", registry
    )
    with pytest.raises(IllegalInput):
        exact_posterior(denial, burglar_edb, EnumerationPolicy())


def test_undetermined_legality(registry):
    src = """
    edb Q/1.
    idb R/2.
    R(0, Flip[0.5]) :- Q(x).
    R(y, Fork[y]) :- R(x, y).
    Q(x) => R(1, 1).
    """
    p = parse_program(src, registry)
    q = load_facts("escape.facts", p)
    with pytest.raises(UndeterminedLegality):
        exact_posterior(p, q, EnumerationPolicy(node_budget=500))


# -- estimate_posterior ----------------------------------------------------------


def test_estimate_matches_exact(burglar_ppdl, report_edb):
    oracle = posterior_oracle(burglar_ppdl, report_edb, ALARM_QUERY)
    est = estimate_posterior(
        burglar_ppdl, report_edb, ALARM_QUERY, n=30_000, seed=4242
    )
    assert est.defined
    assert est.samples_accepted > 500
    assert est.samples_budget_exhausted == 0
    assert abs(est.point - oracle) <= 3.0 * est.std_error


def test_estimate_deterministic_fact(burglar, burglar_edb):
    est = estimate_posterior(
        burglar, burglar_edb, _fact("Unit", "NP1", "Napa"), n=500, seed=7
    )
    assert est.point == 1.0
    assert est.std_error == 0.0
    assert est.samples_accepted == 500


def test_estimate_always_false_constraints(registry, burglar_edb):
    from gdlog.parser import render_program

    denial = parse_program(
        render_program(load_program("burglar.gdl", registry))
        + "City(c, r) => false.\n",
        registry,
    )
    est = estimate_posterior(denial, burglar_edb, ALARM_QUERY, n=200, seed=1)
    assert not est.defined
    assert est.point is None and est.std_error is None
    assert est.samples_accepted == 0
    assert est.samples_total == 200


def test_estimate_needs_a_sample(burglar, burglar_edb):
    with pytest.raises(GdlogError, match="sample count must be >= 1"):
        estimate_posterior(burglar, burglar_edb, ALARM_QUERY, n=0, seed=1)


def test_estimate_counts_budget_exhaustion(registry):
    escape = load_program("doubling_escape.gdl", registry)
    q = load_facts("escape.facts", escape)
    est = estimate_posterior(
        escape, q, _fact("R", 0, 0), n=400, seed=5, step_budget=50
    )
    assert est.samples_budget_exhausted > 100
    assert est.samples_accepted + est.samples_budget_exhausted == 400
    assert est.point == 1.0  # every accepted (finite) run contains R(0,0)


def test_estimate_is_deterministic(burglar_ppdl, report_edb):
    a = estimate_posterior(burglar_ppdl, report_edb, ALARM_QUERY, n=2000, seed=99)
    b = estimate_posterior(burglar_ppdl, report_edb, ALARM_QUERY, n=2000, seed=99)
    assert (a.point, a.samples_accepted) == (b.point, b.samples_accepted)


def test_estimator_error_scaling(registry):
    # observe row "a" present (acceptance 0.3); row "b" stays Bernoulli(0.6)
    from conftest import CORPUS

    constrained = parse_program(
        (CORPUS / "pdb.gdl").read_text() + 'R("a", p) => S("a", 1).\n',
        registry,
    )
    rows = load_facts("pdb.facts", constrained)
    query = _fact("Rp", "b")
    small = estimate_posterior(constrained, rows, query, n=4000, seed=21)
    big = estimate_posterior(constrained, rows, query, n=16000, seed=22)
    ratio = small.std_error / big.std_error
    assert 1.6 <= ratio <= 2.4


@pytest.mark.parametrize("budget", [50, 2000])
@pytest.mark.parametrize("cap", [0, 1, 300, ppdl._CACHE_ROWS])
def test_estimate_cache_cap(registry, monkeypatch, budget, cap):
    """``doubling`` has one infinite path: past the cap a run stops
    caching and finishes on its own state, with the old loop's counts,
    and the cached states never hold more rows than the cap."""
    doubling = load_program("doubling.gdl", registry)
    facts = parse_facts("R0(0, 1).", doubling.edb)
    query = _fact("R", 1, 2)
    old = old_estimate_posterior(
        doubling, ChaseEngine(to_existential(doubling)), facts, query, 4, 3, budget
    )
    assert old.samples_budget_exhausted == 4
    cached = []

    class Node(ppdl._Node):  # every node built is cached
        def __new__(cls, state, *args):
            cached.append(state.fact_count())
            return super().__new__(cls, state, *args)

    monkeypatch.setattr(ppdl, "_CACHE_ROWS", cap)
    monkeypatch.setattr(ppdl, "_Node", Node)
    assert estimate_posterior(doubling, facts, query, 4, 3, budget) == old
    assert sum(cached) <= cap
    if cap >= 300:
        assert len(cached) > 10  # the cap is not vacuous


def test_negative_seed_fails_before_any_chase(registry):
    """A negative seed is reported before the chase runs: also when no rule
    draws, and ahead of a parameter the first run would find invalid."""
    plain = parse_program("edb S/1.\nidb R/1.\nR(x) :- S(x).\n", registry)
    facts = parse_facts("S(1).", plain.edb)
    with pytest.raises(GdlogError, match="must be >= 0"):
        estimate_posterior(plain, facts, _fact("R", 1), n=3, seed=-1)
    bad = parse_program("edb S/1.\nidb R/2.\nR(x, Flip[x]) :- S(x).\n", registry)
    facts = parse_facts("S(2).", bad.edb)
    with pytest.raises(DomainError):
        estimate_posterior(bad, facts, _fact("R", 2, 1), n=3, seed=0)
    with pytest.raises(GdlogError, match="must be >= 0"):
        estimate_posterior(bad, facts, _fact("R", 2, 1), n=3, seed=-1)
