"""The paper's invariance under logical program transformations, as a
random property.

Each ``randprog`` program that enumeration explores fully within the node
budget (no residual mass) is transformed in ways that change neither its
possible outcomes nor their probabilities, and the transformed program's
distribution must serialize to the same bytes. Outcome order and probabilities are
canonical (the draw ledger is sorted by relation and key, and explored and
residual masses are exact sums), so no transformation may move a bit. A
transformation that does is a finding about the engine, not a tolerance to
add here.

The same programs, each given random constraints and a query, must
keep the exact posterior bounds on that query, bit for bit, or fail with
the same error: constraints are checked on leaves, so they change neither
the tree nor whether it is fully explored.

Renaming relations is compared within a tolerance instead. A new name
moves a relation's draws in the ledger's sort order, so a leaf's
probability, the product of its n draws' pmfs, is taken in another order:
each order is within n - 1 roundings of the exact product, so the two
differ by at most about n * 2**-52, relative. The masses and the exact
bounds, ``math.fsum`` sums of such products, are held to the same relative
distance, with n the most draws in any leaf.

Programs that draw from Geo are left out before they are enumerated. Geo's
support is infinite, so a tree in which a Geo draw fires always keeps a
support tail as residual mass and is never fully explored; those trees
are also the ones that run to the node budget, and enumerating them would
cost most of the suite's time for no comparison.
"""
from __future__ import annotations

import json
import random
from collections import Counter

import pytest

from gdlog import ppdl
from gdlog.chase import ChaseEngine
from gdlog.distributions import RngStream
from gdlog.enumeration import EnumerationPolicy, enumerate_outcomes
from gdlog.model import (
    Atom,
    Constraint,
    DeltaTerm,
    Fact,
    GdlogError,
    Program,
    Rule,
    Variable,
    validate_program,
)
from gdlog.parser import render_fact
from gdlog.translate import to_existential

from randprog import _constrained, _query, random_program
from test_enumeration import dist_as_json

SEEDS = range(400)
POLICY = EnumerationPolicy(node_budget=3000)


def _rename_term(t, names: dict):
    if isinstance(t, Variable):
        return Variable(names[t.name])
    if isinstance(t, DeltaTerm):
        return DeltaTerm(t.dist, tuple(_rename_term(p, names) for p in t.params))
    return t


def _rename_atom(a: Atom, names: dict) -> Atom:
    return Atom(a.relation, tuple(_rename_term(t, names) for t in a.args))


def _permute_rules(rnd, rules):
    rules = list(rules)
    rnd.shuffle(rules)
    return rules


def _permute_bodies(rnd, rules):
    return [Rule(r.head, tuple(rnd.sample(r.body, len(r.body)))) for r in rules]


def _rename_variables(rnd, rules):
    out = []
    for rule in rules:
        old = sorted({v.name for a in (rule.head, *rule.body) for v in a.variables()})
        new = [f"w{i}" for i in range(len(old))]
        rnd.shuffle(new)
        names = dict(zip(old, new))
        head = _rename_atom(rule.head, names)
        out.append(Rule(head, tuple(_rename_atom(a, names) for a in rule.body)))
    return out


def _duplicate_rule(rnd, rules):
    rules = list(rules)
    rules.insert(rnd.randrange(len(rules) + 1), rnd.choice(rules))
    return rules


def _add_implied_rule(rnd, rules):
    # every binding of the copy extends a binding of its original with the
    # same head, and E is never empty, so the copy derives nothing new
    rules = list(rules)
    rule = rnd.choice(rules)
    extra = Atom("E", (Variable("fresh0"), Variable("fresh1")))
    body = list(rule.body)
    body.insert(rnd.randrange(len(body) + 1), extra)
    rules.insert(rnd.randrange(len(rules) + 1), Rule(rule.head, tuple(body)))
    return rules


TRANSFORMS = {
    "permute rules": _permute_rules,
    "permute body atoms": _permute_bodies,
    "rename variables": _rename_variables,
    "duplicate a rule": _duplicate_rule,
    "add an implied rule": _add_implied_rule,
}


def _transformed(program: Program, rules) -> Program:
    out = Program(program.edb, program.idb, rules, program.constraints, program.dists)
    assert validate_program(out).ok
    return out


@pytest.fixture(scope="module")
def explored(registry):
    """(seed, program, facts, serialized distribution) of every fully
    explored random program that draws only from Flip."""
    out = []
    for seed in SEEDS:
        program, facts = random_program(random.Random(seed), registry)
        heads = [t for r in program.rules for t in r.head.args]
        if any(isinstance(t, DeltaTerm) and t.dist == "Geo" for t in heads):
            continue
        dist = enumerate_outcomes(program, facts, POLICY)
        if dist.residual_mass == 0.0:
            out.append((seed, program, facts, dist_as_json(dist)))
    return out


def test_enough_programs_are_fully_explored(explored):
    assert len(explored) >= 100


@pytest.mark.parametrize("name", TRANSFORMS)
def test_transformation_leaves_the_distribution_bit_identical(explored, name):
    transform = TRANSFORMS[name]
    for seed, program, facts, expected in explored:
        rnd = random.Random(seed)
        changed = _transformed(program, transform(rnd, program.rules))
        got = dist_as_json(enumerate_outcomes(changed, facts, POLICY))
        assert got == expected, (name, seed)


def _bounds(program: Program, facts, query):
    """``_exact_bounds`` as its repr, which pins every bit, or its error."""
    try:
        return repr(ppdl._exact_bounds(program, facts, query, POLICY))
    except GdlogError as e:
        return type(e), str(e)


@pytest.fixture(scope="module")
def conditioned(explored):
    """(seed, constrained program, facts, query, bounds or error) of every
    fully explored program, with what conditioning did to its prior."""
    out, kinds = [], Counter()
    for seed, program, facts, _ in explored:
        rnd = random.Random(seed)
        program = _constrained(rnd, program)
        engine = ChaseEngine(to_existential(program))
        outcome = engine.sample(facts, RngStream(seed, 0), POLICY.node_budget).facts
        query = _query(rnd, facts, outcome)
        expected = _bounds(program, facts, query)
        if isinstance(expected, tuple):
            kinds[expected[0].__name__] += 1
        else:
            norm = ppdl._condition(program, facts, POLICY)[3]
            kinds["unchanged" if norm == 1.0 else "renormalized"] += 1
        out.append((seed, program, facts, query, expected))
    return out, kinds


def test_conditioning_is_compared_on_every_kind_of_result(conditioned):
    programs, kinds = conditioned
    assert len(programs) >= 40
    # both leaves dropped and the rest renormalized, and every leaf dropped
    assert min(kinds["renormalized"], kinds["IllegalInput"]) >= 5, kinds


@pytest.mark.parametrize("name", TRANSFORMS)
def test_transformation_leaves_the_exact_bounds_bit_identical(conditioned, name):
    transform = TRANSFORMS[name]
    for seed, program, facts, query, expected in conditioned[0]:
        changed = _transformed(program, transform(random.Random(seed), program.rules))
        assert _bounds(changed, facts, query) == expected, (name, seed)


# a bijection on relation names that reverses their sort order
RENAMED = {"A": "Z", "B": "Y", "C": "X", "E": "W"}
ORIGINAL = {new: old for old, new in RENAMED.items()}


def _renamed(relation: str, names: dict) -> str:
    # a generated name keeps its suffix: B__Flip__2 becomes Y__Flip__2
    base, sep, rest = relation.partition("__")
    return names[base] + sep + rest


def _rename_facts(facts, names: dict) -> frozenset:
    return frozenset(Fact(_renamed(f.relation, names), f.args) for f in facts)


def _rename_relations(program: Program) -> Program:
    def atom(a):
        return None if a is None else Atom(_renamed(a.relation, RENAMED), a.args)

    def schema(arities):
        return {RENAMED[r]: n for r, n in arities.items()}

    rules = [Rule(atom(r.head), tuple(map(atom, r.body))) for r in program.rules]
    constraints = [
        Constraint(tuple(map(atom, c.body)), atom(c.head)) for c in program.constraints
    ]
    out = Program(
        schema(program.edb), schema(program.idb), rules, constraints, program.dists
    )
    assert validate_program(out).ok
    return out


def _draws(leaf) -> int:
    """The draws of a leaf given as rendered facts: its generated facts."""
    return sum("__" in f.partition("(")[0] for f in leaf)


def _within(a: float, b: float, n_draws: int) -> bool:
    return abs(a - b) <= n_draws * 2.0**-52 * max(abs(a), abs(b))


def test_renaming_relations_moves_the_distribution_by_rounding_only(explored):
    for seed, program, facts, serialized in explored:
        expected = json.loads(serialized)
        want = {frozenset(o["facts"]): o["p"] for o in expected["outcomes"]}
        renamed = _rename_relations(program)
        dist = enumerate_outcomes(renamed, _rename_facts(facts, RENAMED), POLICY)
        got = {
            frozenset(map(render_fact, _rename_facts(o.facts, ORIGINAL))): p
            for o, p in dist.entries
        }
        assert got.keys() == want.keys(), seed
        for leaf, p in want.items():
            assert _within(got[leaf], p, _draws(leaf)), seed
        n = max(map(_draws, want))
        assert _within(dist.explored_mass, expected["explored"], n), seed
        assert _within(dist.residual_mass, expected["residual"], n), seed


def test_renaming_relations_moves_the_exact_bounds_by_rounding_only(
    explored, conditioned
):
    for (seed, _, _, serialized), case in zip(explored, conditioned[0]):
        _, program, facts, query, expected = case
        assert case[0] == seed
        n = max(_draws(o["facts"]) for o in json.loads(serialized)["outcomes"])
        renamed = _rename_relations(program)
        query_renamed = Fact(_renamed(query.relation, RENAMED), query.args)
        try:
            got = ppdl._exact_bounds(
                renamed, _rename_facts(facts, RENAMED), query_renamed, POLICY
            )
        except GdlogError as e:
            assert (type(e), str(e)) == expected, seed
            continue
        assert isinstance(expected, str), seed  # the original raised nothing
        want = ppdl._exact_bounds(program, facts, query, POLICY)
        assert all(_within(a, b, n) for a, b in zip(got, want)), seed
