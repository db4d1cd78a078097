from __future__ import annotations

import pytest

from gdlog.model import (
    Atom,
    Constraint,
    DeltaTerm,
    Fact,
    GroundingError,
    Program,
    Rule,
    Variable,
    constant_key,
    fact_key,
    ground_atom,
    validate_program,
)


def v(name):
    return Variable(name)


def test_constant_ordering_numbers_before_symbols():
    values = ["b", 2.0, "a", -1.0, 0.5]
    ordered = sorted(values, key=constant_key)
    assert ordered == [-1.0, 0.5, 2.0, "a", "b"]


def test_instance_set_semantics():
    f = Fact("R", (1.0, "x"))
    inst = frozenset({f, Fact("R", (2.0, "y"))})
    assert len(inst | {Fact("R", (1.0, "x"))}) == len(inst)


def test_fact_key_is_total():
    facts = [Fact("B", ("z",)), Fact("A", (1.0,)), Fact("A", ("z",))]
    assert [f.relation for f in sorted(facts, key=fact_key)] == ["A", "A", "B"]
    assert sorted(facts, key=fact_key)[0].args == (1.0,)


def test_ground_atom_substitutes():
    atom = Atom("Unit", (v("x"), v("c")))
    fact = ground_atom(atom, {"x": "NP1", "c": "Napa"})
    assert fact == Fact("Unit", ("NP1", "Napa"))


def test_ground_atom_constants_pass_through():
    atom = Atom("City", ("Napa", 0.03))
    assert ground_atom(atom, {}) == Fact("City", ("Napa", 0.03))


def test_ground_atom_unbound_variable():
    atom = Atom("Trig", (v("x"), 1.0))
    with pytest.raises(GroundingError, match="'x' is unbound"):
        ground_atom(atom, {"c": "Napa"})


def test_ground_atom_draw_term():
    atom = Atom("R", (v("x"), DeltaTerm("Flip", (0.5,))))
    with pytest.raises(GroundingError, match="cannot ground a distributional term"):
        ground_atom(atom, {"x": "a"})


def _program(rules, constraints=(), registry=None):
    return Program(
        edb={"S": 2, "E": 1},
        idb={"R": 2, "T": 1},
        rules=list(rules),
        constraints=list(constraints),
        dists=registry,
    )


def test_validate_ok_burglar(burglar):
    assert validate_program(burglar).ok


def test_validate_two_draws_in_head(registry):
    rule = Rule(
        Atom("R", (DeltaTerm("Flip", (v("p"),)), DeltaTerm("Flip", (v("q"),)))),
        (Atom("S", (v("p"), v("q"))),),
    )
    report = validate_program(_program([rule], registry=registry))
    assert not report.ok
    assert "more than one" in report.diagnostics[0].reason


def test_validate_unsafe_head_variable(registry):
    rule = Rule(Atom("R", (v("x"), v("y"))), (Atom("E", (v("x"),)),))
    report = validate_program(_program([rule], registry=registry))
    assert not report.ok
    assert "unsafe head variable 'y'" in report.diagnostics[0].reason


def test_validate_empty_body(registry):
    rule = Rule(Atom("T", (v("x"),)), ())
    report = validate_program(_program([rule], registry=registry))
    assert [d.reason for d in report.diagnostics] == ["empty body"]


def test_validate_edb_head(registry):
    rule = Rule(Atom("S", (v("x"), v("x"))), (Atom("E", (v("x"),)),))
    report = validate_program(_program([rule], registry=registry))
    assert "not IDB" in report.diagnostics[0].reason


def test_validate_arity_mismatch(registry):
    rule = Rule(Atom("T", (v("x"),)), (Atom("S", (v("x"),)),))
    report = validate_program(_program([rule], registry=registry))
    assert "arity" in report.diagnostics[0].reason


def test_validate_head_arity_mismatch_and_ok_report(registry):
    rule = Rule(Atom("R", (v("x"), v("y"))), (Atom("E", (v("x"),)),))
    p = Program({"E": 1}, {"R": 1}, [rule], [], registry)
    assert str(validate_program(p)) == (
        "rule 0: relation 'R' declared with arity 1, used with 2"
    )
    good = Rule(Atom("T", (v("x"),)), (Atom("E", (v("x"),)),))
    assert str(validate_program(_program([good], registry=registry))) == "ok"


def test_validate_unknown_distribution(registry):
    rule = Rule(
        Atom("R", (v("x"), DeltaTerm("Zeta", (0.5,)))), (Atom("E", (v("x"),)),)
    )
    report = validate_program(_program([rule], registry=registry))
    assert "unknown distribution 'Zeta'" in report.diagnostics[0].reason


def test_validate_draw_in_body_atom(registry):
    rule = Rule(
        Atom("T", (v("x"),)),
        (Atom("E", (v("x"),)), Atom("E", (DeltaTerm("Flip", (0.5,)),))),
    )
    report = validate_program(_program([rule], registry=registry))
    assert [str(d) for d in report.diagnostics] == ["rule 0: Δ-term in body atom 'E'"]


def test_validate_parameter_count(registry):
    rule = Rule(
        Atom("R", (v("x"), DeltaTerm("Flip", (0.5, 0.5)))), (Atom("E", (v("x"),)),)
    )
    report = validate_program(_program([rule], registry=registry))
    assert [d.reason for d in report.diagnostics] == [
        "distribution 'Flip' expects 1 parameters, got 2"
    ]


def test_validate_empty_constraint_body(registry):
    report = validate_program(_program([], [Constraint((), None)], registry=registry))
    assert [str(d) for d in report.diagnostics] == ["constraint 0: empty body"]


def test_validate_constraint_head_safety(registry):
    c = Constraint((Atom("E", (v("x"),)),), Atom("R", (v("x"), v("z"))))
    report = validate_program(_program([], [c], registry=registry))
    assert "unsafe constraint head variable 'z'" in report.diagnostics[0].reason


def test_validate_overlapping_schemas(registry):
    p = Program({"R": 1}, {"R": 1}, [], [], registry)
    report = validate_program(p)
    assert "overlap" in report.diagnostics[0].reason


def test_validate_order_independent(registry):
    good = Rule(Atom("T", (v("x"),)), (Atom("E", (v("x"),)),))
    bad = Rule(Atom("T", (v("y"),)), (Atom("E", (v("x"),)),))
    fwd = validate_program(_program([good, bad], registry=registry))
    rev = validate_program(_program([bad, good], registry=registry))
    assert not fwd.ok and not rev.ok
    assert [d.reason for d in fwd.diagnostics] == [d.reason for d in rev.diagnostics]
    assert [d.index for d in fwd.diagnostics] == [1]
    assert [d.index for d in rev.diagnostics] == [0]
