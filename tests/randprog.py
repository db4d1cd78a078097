"""Seeded generator of small valid generative programs for property tests.

Programs use at most 4 relations and 6 rules, draw only from Flip and
Geo with constant parameters, and are valid by construction (safe heads,
nonempty bodies, declared relations). The first rule is always seeded
from the EDB and later bodies are biased toward IDB relations, so the
generated chases recurse through drawn values instead of dying at the
root. Callers chase them under a step budget.

``_random_constraint`` draws a constraint over the same relations, which
``_constrained`` adds to a program, and ``_query`` picks a query fact from
a sampled outcome.
"""
from __future__ import annotations

import random

from gdlog.model import (
    Atom,
    Constraint,
    DeltaTerm,
    Fact,
    Program,
    Rule,
    Variable,
    fact_key,
    validate_program,
)

_VARS = ["v0", "v1", "v2"]
_CONSTS = [0.0, 1.0, 2.0, "s"]
_DRAWS = [("Flip", 0.2), ("Flip", 0.5), ("Flip", 0.8), ("Geo", 0.4), ("Geo", 0.7)]


def _term(rnd: random.Random, pool):
    if pool and rnd.random() < 0.85:
        return Variable(rnd.choice(pool))
    return rnd.choice(_CONSTS)


def _atom(rnd: random.Random, rel: str, arity: int, pool):
    return Atom(rel, tuple(_term(rnd, pool) for _ in range(arity)))


def _head(rnd: random.Random, idb: dict, body) -> Atom:
    body_vars = sorted({v.name for a in body for v in a.variables()})
    head_rel = rnd.choice(sorted(idb))
    arity = idb[head_rel]
    args = [
        Variable(rnd.choice(body_vars))
        if body_vars and rnd.random() < 0.9
        else rnd.choice(_CONSTS[:3])
        for _ in range(arity)
    ]
    if rnd.random() < 0.6:
        name, p = rnd.choice(_DRAWS)
        args[rnd.randrange(arity)] = DeltaTerm(name, (p,))
    return Atom(head_rel, tuple(args))


def random_program(rnd: random.Random, registry):
    edb = {"E": 2}
    idb = dict(rnd.sample([("A", 1), ("B", 2), ("C", 2)], rnd.randint(1, 3)))
    relations = {**edb, **idb}

    seed_body = (_atom(rnd, "E", 2, _VARS[:2]),)
    rules = [Rule(_head(rnd, idb, seed_body), seed_body)]
    binary = sorted(r for r, a in idb.items() if a == 2)
    extra = rnd.randint(1, 5)
    if binary and rnd.random() < 0.5:
        # a chain rule: the drawn value feeds the next recursion key; a
        # small success rate keeps drawn values fresh so chains run long
        rel = rnd.choice(binary)
        name, p = rnd.choice(_DRAWS + [("Geo", 0.05), ("Geo", 0.02)])
        head = Atom(rel, (Variable("v1"), DeltaTerm(name, (p,))))
        rules.append(Rule(head, (Atom(rel, (Variable("v0"), Variable("v1"))),)))
        extra -= 1
    for _ in range(extra):
        body = []
        for _ in range(rnd.randint(1, 2)):
            pool = sorted(idb) if rnd.random() < 0.7 else ["E"]
            rel = rnd.choice(pool)
            body.append(_atom(rnd, rel, relations[rel], _VARS))
        rules.append(Rule(_head(rnd, idb, tuple(body)), tuple(body)))

    program = Program(edb, idb, rules, [], registry)
    assert validate_program(program).ok
    facts = frozenset(
        Fact("E", (rnd.choice(_CONSTS), rnd.choice(_CONSTS)))
        for _ in range(rnd.randint(2, 4))
    )
    return program, facts


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


def _constrained(rnd: random.Random, program):
    """``program`` with one or two random constraints."""
    while True:  # a valid program: declared relations, no draw terms
        constraints = [_random_constraint(rnd) for _ in range(rnd.randint(1, 2))]
        constrained = program._replace(constraints=constraints)
        if validate_program(constrained).ok:
            return constrained


_VALUES = [0.0, 1.0, 2.0, 3.0, 0.5, "s"]


def _query(rnd: random.Random, facts: frozenset, outcome: frozenset) -> Fact:
    """Mostly a derived fact of a sampled outcome, which many leaves hold;
    otherwise an input fact or one with a value replaced, which may be in
    no leaf."""
    derived = sorted(outcome - facts, key=fact_key)
    if derived and rnd.random() < 0.6:
        return rnd.choice(derived)
    f = rnd.choice(sorted(outcome, key=fact_key))
    if rnd.random() < 0.5:
        return f
    args = list(f.args)
    args[rnd.randrange(len(args))] = rnd.choice(_VALUES)
    return Fact(f.relation, tuple(args))
