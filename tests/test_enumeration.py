from __future__ import annotations

import json
import math
from collections import Counter
from itertools import product

import pytest

from gdlog.chase import Rejection, replay_weight
from gdlog.enumeration import (
    EnumerationPolicy,
    _distribution,
    cylinder_mass,
    enumerate_outcomes,
    marginal,
    marginal_bounds,
)
from gdlog.model import fact_key
from gdlog.parser import render_fact

from conftest import load_facts, load_program
from test_chase import (
    SYMBOL_DRAW_REJECTION,
    WORKED_OUTCOME_WEIGHT,
    _fact,
    _symbol_draw_case,
    worked_outcome,
)


def dist_as_json(dist) -> str:
    """Canonical serialization used for bit-for-bit comparisons."""
    return json.dumps(
        {
            "outcomes": [
                {"facts": [render_fact(f) for f in sorted(o.facts, key=fact_key)], "p": p}
                for o, p in dist.entries
            ],
            "explored": dist.explored_mass,
            "residual": dist.residual_mass,
        },
        sort_keys=True,
    )


@pytest.fixture(scope="module")
def burglar_dist(burglar, burglar_edb):
    return enumerate_outcomes(burglar, burglar_edb, EnumerationPolicy())


def test_burglar_full_exploration(burglar_dist):
    assert abs(burglar_dist.explored_mass - 1.0) <= 1e-9
    assert abs(burglar_dist.explored_mass + burglar_dist.residual_mass - 1.0) <= 1e-9
    # 2187 = sum over earthquake/burglary draws of the trigger combinations
    assert len(burglar_dist.entries) == 2187


def test_burglar_contains_worked_outcome(burglar_dist, burglar, burglar_edb):
    facts = worked_outcome(burglar_edb)
    p = burglar_dist.probability_of(facts)
    assert p is not None
    assert p == pytest.approx(WORKED_OUTCOME_WEIGHT, rel=1e-12)
    assert p == pytest.approx(replay_weight(burglar, burglar_edb, facts), rel=1e-12)


def test_probability_of_an_outcome_that_is_no_leaf(burglar_dist, burglar_edb):
    assert burglar_dist.probability_of(frozenset(burglar_edb)) is None


def test_outcome_fact_sets_are_distinct(burglar_dist):
    seen = {o.facts for o, _ in burglar_dist.entries}
    assert len(seen) == len(burglar_dist.entries)


def test_ties_are_ordered_by_sorted_facts(burglar_dist):
    entries = list(burglar_dist.entries)
    assert entries == sorted(
        entries, key=lambda op: (-op[1], tuple(sorted(map(fact_key, op[0].facts))))
    )
    # symmetric units give many leaves of equal mass
    ties = Counter(p for _, p in entries)
    assert max(ties.values()) > 2


def test_renormalised_entries_keep_the_prior_order():
    # 0.45 and the next float both divide by 0.8 to 0.5625: the leaf with
    # the larger prior mass stays first although its facts sort last
    low, high = 0.45, math.nextafter(0.45, 1.0)
    assert low / 0.8 == high / 0.8
    leaves = [({"A": {(0.0,)}}, low, 0.0), ({"A": {(1.0,)}}, high, 0.0)]
    dist = _distribution(leaves, 1.0, 0.0, 0.8)
    assert [sorted(o.facts)[0].args for o, _ in dist.entries] == [(1.0,), (0.0,)]
    assert [p for _, p in dist.entries] == [0.5625, 0.5625]


def test_probabilities_sum_below_one(burglar_dist):
    assert sum(p for _, p in burglar_dist.entries) <= 1.0 + 1e-9
    assert all(p > 0 for _, p in burglar_dist.entries)


def test_every_leaf_matches_replay(burglar, burglar_edb, burglar_dist):
    for o, p in burglar_dist.entries[:50]:
        got = replay_weight(burglar, burglar_edb, o.facts)
        assert not isinstance(got, Rejection)
        assert got == pytest.approx(p, rel=1e-9)


def test_doubling_escape_masses(registry):
    escape = load_program("doubling_escape.gdl", registry)
    q = load_facts("escape.facts", escape)
    dist = enumerate_outcomes(escape, q, EnumerationPolicy(node_budget=2000))
    assert len(dist.entries) == 1
    assert dist.entries[0][1] == pytest.approx(0.5, abs=1e-9)
    assert dist.residual_mass == pytest.approx(0.5, abs=1e-9)


def test_fork_has_no_finite_outcomes(registry):
    fork = load_program("fork.gdl", registry)
    chain = load_facts("chain.facts", fork)
    dist = enumerate_outcomes(fork, chain, EnumerationPolicy(node_budget=3000))
    assert dist.entries == ()
    assert dist.explored_mass == 0.0
    assert dist.residual_mass == pytest.approx(1.0, abs=1e-9)


def test_fork_escape_single_leaf(registry):
    fork_escape = load_program("fork_escape.gdl", registry)
    q = load_facts("escape.facts", fork_escape)
    dist = enumerate_outcomes(fork_escape, q, EnumerationPolicy(node_budget=2000))
    assert len(dist.entries) == 1
    assert dist.entries[0][1] == pytest.approx(0.25, abs=1e-9)
    assert dist.residual_mass == pytest.approx(0.75, abs=1e-9)


def test_pdb_encoding(registry):
    pdb = load_program("pdb.gdl", registry)
    rows = load_facts("pdb.facts", pdb)
    dist = enumerate_outcomes(pdb, rows, EnumerationPolicy())
    # oracle: brute force over the four possible worlds
    expected = sorted(
        (0.3 if a else 0.7) * (0.6 if b else 0.4) for a, b in product((1, 0), (1, 0))
    )
    assert sorted(p for _, p in dist.entries) == pytest.approx(expected, rel=1e-12)
    assert marginal(dist, _fact("Rp", "a")) == pytest.approx(0.3, abs=1e-9)


def test_marginals(burglar_dist):
    got = marginal(burglar_dist, _fact("Earthquake", "Napa", 1))
    assert got == pytest.approx(0.01, abs=1e-9)
    assert marginal(burglar_dist, _fact("Alarm", "Nowhere")) == 0.0
    lo, hi = marginal_bounds(burglar_dist, _fact("Earthquake", "Napa", 1))
    assert lo <= hi <= lo + burglar_dist.residual_mass + 1e-12


def test_marginal_bounds_with_residual(registry):
    escape = load_program("doubling_escape.gdl", registry)
    q = load_facts("escape.facts", escape)
    dist = enumerate_outcomes(escape, q, EnumerationPolicy(node_budget=2000))
    lo, hi = marginal_bounds(dist, _fact("R", 0, 0))
    assert lo == pytest.approx(0.5, abs=1e-9)
    assert hi == pytest.approx(1.0, abs=1e-9)


def test_chase_order_independence(burglar, burglar_edb):
    reference = None
    for order, seed in [("fifo", 0), ("reversed-rules", 0), ("random", 99)]:
        dist = enumerate_outcomes(
            burglar,
            burglar_edb,
            EnumerationPolicy(order=order, order_seed=seed),
        )
        text = dist_as_json(dist)
        if reference is None:
            reference = text
        else:
            assert text == reference, f"order {order} changed the distribution"


def test_order_independence_with_truncated_support(registry):
    # the tree has the same branch sets either way, so even a truncated
    # enumeration is identical across fair scheduling policies
    program = load_program("visits_implied.gdl", registry)
    rows = load_facts("visits.facts", program)
    texts = {
        dist_as_json(
            enumerate_outcomes(
                program, rows, EnumerationPolicy(order=order, order_seed=5)
            )
        )
        for order in ("fifo", "reversed-rules", "random")
    }
    assert len(texts) == 1


def test_logically_implied_rule_is_inert(registry):
    base = load_program("visits_base.gdl", registry)
    implied = load_program("visits_implied.gdl", registry)
    rows = load_facts("visits.facts", base)
    a = enumerate_outcomes(base, rows, EnumerationPolicy())
    b = enumerate_outcomes(implied, rows, EnumerationPolicy())
    assert dist_as_json(a) == dist_as_json(b)
    assert a.residual_mass > 0  # unbounded support was truncated
    assert a.explored_mass == pytest.approx(1.0, abs=1e-5)


def test_duplicate_generator_rule_is_inert(registry):
    # the preferred-client rule fires on a tuple the client rule already
    # covers, so the full three-rule model still equals the base model
    base = load_program("visits_base.gdl", registry)
    full = load_program("visits.gdl", registry)
    rows = load_facts("visits.facts", base)
    a = enumerate_outcomes(base, rows, EnumerationPolicy())
    b = enumerate_outcomes(full, rows, EnumerationPolicy())
    assert dist_as_json(a) == dist_as_json(b)


def _derived_distribution(dist, edb_relations):
    out = []
    for o, p in dist.entries:
        derived = sorted(
            fact_key(f) for f in o.facts if f.relation not in edb_relations
        )
        out.append((tuple(derived), p))
    return sorted(out)


def test_removing_duplicated_input_tuple_is_inert(registry):
    full = load_program("visits.gdl", registry)
    rows = load_facts("visits.facts", full)
    trimmed = frozenset(f for f in rows if f.relation != "PreferredClient")
    a = enumerate_outcomes(full, rows, EnumerationPolicy())
    b = enumerate_outcomes(full, trimmed, EnumerationPolicy())
    # outcomes differ only in the input facts they carry
    assert _derived_distribution(a, full.edb) == _derived_distribution(b, full.edb)


def test_strengthened_burglar_rule_is_inert(burglar, registry, burglar_edb):
    from gdlog.parser import parse_program, render_program

    stronger = parse_program(
        render_program(burglar)
        + "Burglary(x, c, Flip[r]) :- Unit(x, c), City(c, r), AlarmOn(x).\n",
        registry,
    )
    a = enumerate_outcomes(burglar, burglar_edb, EnumerationPolicy())
    b = enumerate_outcomes(stronger, burglar_edb, EnumerationPolicy())
    assert dist_as_json(a) == dist_as_json(b)


def test_custom_zero_parameter_distribution():
    # registry extension end to end: a three-sided die with no parameters
    from gdlog.distributions import DistributionSpec, Registry
    from gdlog.parser import parse_program

    die = {1.0: 0.5, 2.0: 0.3, 3.0: 0.2}
    reg = Registry.standard()
    reg.register(
        DistributionSpec(
            "Die3",
            0,
            True,
            lambda x, params: die.get(x, 0.0),
            lambda params: iter(sorted(die)),
            lambda params: None,
        )
    )
    program = parse_program(
        "edb S/1.\nidb Roll/2.\nRoll(x, Die3[]) :- S(x).\n", reg
    )
    rows = frozenset({_fact("S", "a")})
    dist = enumerate_outcomes(program, rows, EnumerationPolicy())
    assert dist.explored_mass == pytest.approx(1.0, abs=1e-12)
    assert sorted(p for _, p in dist.entries) == pytest.approx([0.2, 0.3, 0.5])
    assert marginal(dist, _fact("Roll", "a", 3)) == pytest.approx(0.2)


def test_node_budget_reports_residual(burglar, burglar_edb):
    dist = enumerate_outcomes(burglar, burglar_edb, EnumerationPolicy(node_budget=40))
    assert dist.explored_mass < 1.0
    assert dist.explored_mass + dist.residual_mass == pytest.approx(1.0, abs=1e-9)


def test_epsilon_pruning(burglar, burglar_edb):
    # epsilon must exceed the smallest branch tail (the 0.9 draws) to bite
    dist = enumerate_outcomes(
        burglar, burglar_edb, EnumerationPolicy(mass_epsilon=0.15)
    )
    assert dist.explored_mass < 1.0
    assert dist.explored_mass + dist.residual_mass == pytest.approx(1.0, abs=1e-9)
    assert len(dist.entries) < 2187


# -- cylinder masses -------------------------------------------------------------


def test_cylinder_single_draw(burglar, burglar_edb):
    mass = cylinder_mass(
        burglar, burglar_edb, {_fact("Earthquake__Flip__2", "Napa", 1, 0.01)}
    )
    assert mass == pytest.approx(0.01, rel=1e-12)


def test_cylinder_empty_set(burglar, burglar_edb):
    assert cylinder_mass(burglar, burglar_edb, frozenset()) == 1.0


def test_cylinder_rejects_unsupported_projection(burglar, burglar_edb):
    got = cylinder_mass(burglar, burglar_edb, {_fact("Alarm", "NP1")})
    assert isinstance(got, Rejection)
    assert "not a derivation set" in got.reason


def test_cylinder_equals_marginal_sum(burglar, burglar_edb, burglar_dist):
    # mass of a derivation set == total mass of outcomes extending it
    fset = {
        _fact("Earthquake__Flip__2", "Napa", 1, 0.01),
        _fact("Earthquake", "Napa", 1),
        _fact("Unit", "NP1", "Napa"),
    }
    mass = cylinder_mass(burglar, burglar_edb, fset)
    assert not isinstance(mass, Rejection)
    total = math.fsum(
        p for o, p in burglar_dist.entries if fset <= o.facts
    )
    assert mass == pytest.approx(total, rel=1e-9)


def test_cylinder_worked_outcome_prefix(burglar, burglar_edb):
    # the full worked outcome minus the input is itself a derivation set
    fset = worked_outcome(burglar_edb) - burglar_edb
    mass = cylinder_mass(burglar, burglar_edb, fset)
    assert mass == pytest.approx(WORKED_OUTCOME_WEIGHT, rel=1e-12)


def test_cylinder_rejects_zero_weight_choice(burglar, burglar_edb):
    got = cylinder_mass(
        burglar, burglar_edb, {_fact("Earthquake__Flip__2", "Napa", 7, 0.01)}
    )
    assert isinstance(got, Rejection)
    assert "zero-weight" in got.reason or "not a derivation set" in got.reason


def test_cylinder_rejects_symbol_as_drawn_value(registry):
    p, edb, drawn = _symbol_draw_case(registry)
    assert cylinder_mass(p, edb, drawn) == SYMBOL_DRAW_REJECTION
