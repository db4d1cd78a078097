from __future__ import annotations

import pytest

from gdlog.model import Atom, GdlogError, Variable
from gdlog.translate import (
    COPIED,
    EXISTENTIAL,
    PROJECTION,
    DistRelation,
    _fresh_var,
    dist_relation_for,
    render_existential_program,
    to_existential,
)

from conftest import load_program


def _kinds(ghat):
    counts = {COPIED: 0, EXISTENTIAL: 0, PROJECTION: 0}
    for r in ghat.rules:
        counts[r.kind] += 1
    return counts


def test_burglar_translation_structure(burglar):
    ghat = to_existential(burglar)
    assert len(ghat.rules) == 10
    assert _kinds(ghat) == {EXISTENTIAL: 4, COPIED: 3, PROJECTION: 3}
    assert [d.name for d in ghat.dist_relations] == [
        "Earthquake__Flip__2",
        "Burglary__Flip__3",
        "Trig__Flip__2",
    ]

    quake = ghat.rules[0]
    assert quake.kind == EXISTENTIAL
    assert quake.head == Atom(
        "Earthquake__Flip__2", (Variable("c"), Variable("y"), 0.01)
    )
    assert quake.body == (Atom("City", (Variable("c"), Variable("r"))),)

    trig9 = ghat.rules[5]
    assert trig9.head == Atom("Trig__Flip__2", (Variable("x"), Variable("y"), 0.9))
    assert trig9.body == (Atom("Burglary", (Variable("x"), Variable("c"), 1.0)),)

    alarm = ghat.rules[6]
    assert alarm.kind == COPIED
    assert alarm.head == burglar.rules[6].head
    assert alarm.body == burglar.rules[6].body


def test_burglar_fd_list(burglar):
    ghat = to_existential(burglar)
    fds = {fd.relation: (fd.determinants, fd.dependent) for fd in ghat.fds}
    assert fds == {
        "Earthquake__Flip__2": ((1, 3), 2),
        "Burglary__Flip__3": ((1, 2, 4), 3),
        "Trig__Flip__2": ((1, 3), 2),
    }


def test_dist_relation_for(burglar, registry):
    burgle = dist_relation_for(burglar.rules[3], registry)
    assert burgle == DistRelation("Burglary", 3, "Flip", 3, 1)
    assert burgle.arity == 4
    assert dist_relation_for(burglar.rules[1], registry) is None
    # the two Trig rules share one distributional relation
    t5 = dist_relation_for(burglar.rules[4], registry)
    t6 = dist_relation_for(burglar.rules[5], registry)
    assert t5 == t6


def test_rule_count_formula(registry):
    for name in ["burglar.gdl", "visits.gdl", "pdb.gdl", "doubling_escape.gdl"]:
        g = load_program(name, registry)
        ghat = to_existential(g)
        n_delta = sum(
            1 for r in g.rules if dist_relation_for(r, registry) is not None
        )
        n_free = len(g.rules) - n_delta
        assert len(ghat.rules) == n_free + n_delta + len(ghat.dist_relations)


def test_duplicate_rules_collapse(registry, burglar):
    from gdlog.model import Program

    doubled = Program(
        burglar.edb,
        burglar.idb,
        burglar.rules + [burglar.rules[0]],
        burglar.constraints,
        burglar.dists,
    )
    once = render_existential_program(to_existential(burglar))
    twice = render_existential_program(to_existential(doubled))
    assert once == twice


def test_translation_idempotent_naming(burglar):
    a = render_existential_program(to_existential(burglar))
    b = render_existential_program(to_existential(burglar))
    assert a == b


def test_schema_covers_all_relations(burglar):
    ghat = to_existential(burglar)
    schema = ghat.schema()
    assert set(burglar.idb) <= set(schema)
    assert schema["Burglary__Flip__3"] == 4
    assert schema["House"] == 2


def test_existential_var_avoids_collision(registry):
    from gdlog.parser import parse_program

    p = parse_program(
        "edb S/2.\nidb R/2.\nR(y, Flip[0.5]) :- S(y, x).\n", registry
    )
    ghat = to_existential(p)
    assert ghat.rules[0].exist_var == "y0"


def test_existential_var_skips_taken_numbered_names(registry):
    from gdlog.parser import parse_program

    p = parse_program(
        "edb S/3.\nidb R/3.\nR(y, y0, Flip[0.5]) :- S(y, y0, x).\n", registry
    )
    assert _fresh_var(p.rules[0]) == "y1"
    assert to_existential(p).rules[0].exist_var == "y1"


def test_invalid_program_rejected(registry):
    from gdlog.model import Program, Rule

    bad = Program(
        {"E": 1}, {"R": 1}, [Rule(Atom("R", (Variable("z"),)), (Atom("E", (Variable("x"),)),))], [], registry
    )
    with pytest.raises(GdlogError, match="invalid program"):
        to_existential(bad)


def test_declared_generated_name_rejected(registry):
    from gdlog.model import DeltaTerm, Program, Rule

    # the parser rejects names holding "__", so only a hand-built program
    # can declare one
    rule = Rule(
        Atom("R", (Variable("x"), DeltaTerm("Flip", (0.5,)))),
        (Atom("S", (Variable("x"),)),),
    )
    p = Program({"S": 1, "R__Flip__2": 3}, {"R": 2}, [rule], [], registry)
    with pytest.raises(
        GdlogError, match="relation name 'R__Flip__2' collides with a generated name"
    ):
        to_existential(p)


def test_program_without_registry(burglar):
    """A hand-built program with no registry validates, but its draws name
    unknown distributions: translating it is an input error."""
    from gdlog.analysis import is_weakly_acyclic
    from gdlog.chase import sample_outcome
    from gdlog.model import validate_program

    bare = burglar._replace(dists=None)
    assert validate_program(bare).ok
    assert is_weakly_acyclic(bare)
    with pytest.raises(GdlogError, match="unknown distribution 'Flip'"):
        dist_relation_for(bare.rules[0], None)
    with pytest.raises(GdlogError, match="unknown distribution 'Flip'"):
        to_existential(bare)
    with pytest.raises(GdlogError, match="unknown distribution 'Flip'"):
        sample_outcome(bare, frozenset(), 1)
