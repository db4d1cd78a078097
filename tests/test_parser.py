from __future__ import annotations

import io

import pytest

from gdlog.model import Atom, DeltaTerm, Fact, Variable
from gdlog.parser import (
    ParseError,
    load_edb_csv,
    parse_fact_literal,
    parse_facts,
    parse_program,
    render_facts,
    render_program,
)

from conftest import CORPUS, load_program


def test_burglar_shapes(burglar):
    assert burglar.edb == {"House": 2, "Business": 2, "City": 2, "AlarmOn": 1}
    assert set(burglar.idb) == {"Earthquake", "Unit", "Burglary", "Trig", "Alarm"}
    assert len(burglar.rules) == 7 and not burglar.constraints

    quake = burglar.rules[0]
    assert quake.head == Atom(
        "Earthquake", (Variable("c"), DeltaTerm("Flip", (0.01,)))
    )
    assert quake.body == (Atom("City", (Variable("c"), Variable("r"))),)

    alarm = burglar.rules[6]
    assert alarm.head == Atom("Alarm", (Variable("x"),))
    assert alarm.body == (Atom("Trig", (Variable("x"), 1.0)),)
    assert not list(alarm.head.delta_terms())


def test_constraint_parsing(burglar_ppdl):
    assert len(burglar_ppdl.constraints) == 2
    first = burglar_ppdl.constraints[0]
    assert first.body == (Atom("ReportHAlarm", (Variable("h"),)),)
    assert first.head == Atom("Alarm", (Variable("h"),))


def test_falsum_constraint(registry):
    p = parse_program("edb E/1.\nE(x), E(x) => false.\n", registry)
    assert p.constraints[0].head is None
    assert len(p.constraints[0].body) == 2


def test_variable_param_draw(registry):
    p = parse_program(
        "edb S/2.\nidb R/2.\nR(x, Flip[p]) :- S(x, p).\n", registry
    )
    assert p.rules[0].head.args[1] == DeltaTerm("Flip", (Variable("p"),))


@pytest.mark.parametrize(
    "src,message",
    [
        ("idb R/1.\nR(x) :- Q(x).", "undeclared relation 'Q'"),
        ("edb S/2.\nidb R/1.\nR(x) :- S(x).", "arity 2"),
        ("edb S/1.\nidb R/1.\nR(Zeta[x]) :- S(x).", "unknown distribution"),
        ("edb S/1.\nidb R/1.\nR(x) :- S(x)", "expected '.'"),
        ("edb S/1.\nidb R/1.\nR(x) : S(x).", "unexpected character"),
        ("edb S/1.\nS(x).", "expected ':-' or '=>'"),
        ("edb S/1.\nedb S/2.", "duplicate declaration"),
        ("edb S/0.", "arity must be positive"),
        ("edb A/1e999.", "expected an integer arity"),
        ("edb S/1.\nidb R/1.\nR(x) :- S(x), S(1e999).", "'1e999' is not a finite number"),
        ("edb S/1.\nidb R/2.\nR(x, Geo[-1e999]) :- S(x).", "'-1e999' is not a finite"),
        ("edb S__x/1.", "reserved"),
        ('edb S/1.\nidb R/1.\nR(Foo) :- S(Foo).', "variables start lowercase"),
        ("edb S/1.\nidb R/1.\nR(x) :- S(x), .", "expected relation name"),
        ('edb S/1.\nidb R/1.\nR("ab) :- S(x).', "unterminated string"),
        ("edb S/1.\nidb R/1.\nR(x) :- S(x).\nxyzzy", "expected"),
        ('edb S/1.\nidb R/1.\nR(x) :- S("a\\q").', r"unknown escape '\\q'"),
        ('edb S/1.\nidb R/1.\nR(x) :- S("a\\', "dangling escape"),
        ('edb S/1.\nidb R/1.\nR(x) :- S("ab\n").', "unterminated string"),
    ],
)
def test_parse_errors(registry, src, message):
    with pytest.raises(ParseError, match=message):
        parse_program(src, registry)


@pytest.mark.parametrize(
    "src,col,found",
    [
        ('edb S/2.\nidb R/1.\nR(x) :- S(x "," y).', 13, """expected ')', found '","'"""),
        ('edb S/1.\nidb R/1.\nR(x) :- S(x) "," S(x).', 14, """expected '.', found '","'"""),
    ],
    ids=["in-atom", "in-body"],
)
def test_string_is_never_punctuation_in_programs(registry, src, col, found):
    with pytest.raises(ParseError) as err:
        parse_program(src, registry)
    assert (err.value.span.line, err.value.span.col) == (3, col)
    assert err.value.message == found


def test_string_draw_parameter(registry):
    # "]" is a parameter, not the closing bracket; the chase rejects it
    p = parse_program('edb S/1.\nidb R/2.\nR(x, Flip["]"]) :- S(x).', registry)
    assert p.rules[0].head.args[1] == DeltaTerm("Flip", ("]",))


def test_keyword_named_relations(registry):
    p = parse_program("idb edb/1.\nedb S/1.\nedb(x) :- S(x).", registry)
    assert p.rules[0].head == Atom("edb", (Variable("x"),))
    p = parse_program("edb edb/1.\nedb S/1.\nedb(x) => S(x).", registry)
    assert p.constraints[0].body == (Atom("edb", (Variable("x"),)),)
    p = parse_program("edb S/1.\nidb false/1.\nS(x) => false(x).", registry)
    assert p.constraints[0].head == Atom("false", (Variable("x"),))


def test_parse_error_span(registry):
    with pytest.raises(ParseError) as err:
        parse_program("edb S/1.\nidb R/1.\nR(x) :- Q(x).\n", registry, "prog.gdl")
    assert err.value.span.file == "prog.gdl"
    assert err.value.span.line == 3
    assert err.value.span.col == 9


def test_parse_error_span_tab_and_crlf(registry):
    with pytest.raises(ParseError) as err:
        parse_program("edb S/1.\r\nidb R/1.\r\nR(x) :-\tQ(x).\r\n", registry)
    assert (err.value.span.line, err.value.span.col) == (3, 9)


def test_end_of_input_after_comment(registry):
    # the column of the end of input counts the comment before it
    with pytest.raises(ParseError) as err:
        parse_program("edb S/1 // note", registry)
    assert str(err.value) == "<string>:1:16: expected '.', found 'eof'"


def test_string_escapes():
    inst = parse_facts('S("a\\nb\\tc\\"d\\\\e").', {"S": 1})
    assert inst == frozenset({Fact("S", ('a\nb\tc"d\\e',))})


def test_comments_and_whitespace(registry):
    p = parse_program(
        "// header\nedb S/1. // trailing\n\nidb R/1.\nR(x) :- S(x).\n", registry
    )
    assert len(p.rules) == 1


def test_parse_facts_basic(burglar):
    inst = parse_facts('City("Napa", 0.03).\nCity("Napa", 0.03).', burglar.edb)
    assert inst == frozenset({Fact("City", ("Napa", 0.03))})


def test_parse_facts_empty(burglar):
    assert parse_facts("", burglar.edb) == frozenset()


def test_parse_facts_errors(burglar):
    with pytest.raises(ParseError, match="arity 2"):
        parse_facts('City("Napa").', burglar.edb)
    with pytest.raises(ParseError, match="not an EDB relation"):
        parse_facts('Alarm("NP1").', burglar.edb)
    with pytest.raises(ParseError, match="expected a constant"):
        parse_facts("City(napa, 0.03).", burglar.edb)


@pytest.mark.parametrize(
    "text,schema,found",
    [
        ('S("a" ")").', {"S": 1}, """'")"'"""),
        ('S("a" "," "b").', {"S": 2}, """'","'"""),
    ],
    ids=["close", "comma"],
)
def test_string_is_never_punctuation_in_facts(text, schema, found):
    with pytest.raises(ParseError) as err:
        parse_facts(text, schema)
    assert str(err.value) == f"<string>:1:7: expected ',' or ')', found {found}"


def test_string_is_never_punctuation_in_fact_literal():
    with pytest.raises(ParseError) as err:
        parse_fact_literal('S("a" ")")', {"S": 1})
    assert str(err.value) == """<query>:1:7: expected ',' or ')', found '")"'"""


def test_parse_fact_literal(burglar):
    schema = {**burglar.edb, **burglar.idb}
    f = parse_fact_literal('Earthquake("Napa", 1)', schema)
    assert f == Fact("Earthquake", ("Napa", 1.0))


def test_load_edb_csv(burglar):
    inst = load_edb_csv("House", (CORPUS / "house.csv").open(), burglar.edb)
    assert inst == frozenset(
        {
            Fact("House", ("NP1", "Napa")),
            Fact("House", ("NP2", "Napa")),
            Fact("House", ("YU1", "Yucaipa")),
        }
    )


def test_load_edb_csv_numeric_cells(burglar):
    inst = load_edb_csv("City", io.StringIO("Napa,0.03\nYucaipa,0.01\n"), burglar.edb)
    assert Fact("City", ("Napa", 0.03)) in inst


def test_load_edb_csv_underscore_cells_are_symbols(burglar):
    # float() accepts 1_000; the fact-file syntax has no such number
    rows = io.StringIO("Napa,1_000\nYucaipa,.5\nX,_1\n")
    inst = load_edb_csv("City", rows, burglar.edb)
    assert inst == {
        Fact("City", ("Napa", "1_000")),
        Fact("City", ("Yucaipa", 0.5)),
        Fact("City", ("X", "_1")),
    }


@pytest.mark.parametrize("cell", ["nan", "NaN", " -nan "])
def test_load_edb_csv_rejects_nan(burglar, cell):
    with pytest.raises(ParseError, match=r"<csv:City>:2:1: row 2: .* \(NaN\)"):
        load_edb_csv("City", io.StringIO(f"Napa,0.03\nYucaipa,{cell}\n"), burglar.edb)


def test_load_edb_csv_rejects_infinities(burglar):
    # an infinity would print as inf, which no parser reads back
    for cell in ("inf", "-inf", " Infinity ", "1e999"):
        with pytest.raises(ParseError, match=r"<csv:City>:2:1: row 2: .* finite number"):
            load_edb_csv("City", io.StringIO(f"Napa,0.03\nYucaipa,{cell}\n"), burglar.edb)


def test_load_edb_csv_empty(burglar):
    assert load_edb_csv("House", io.StringIO(""), burglar.edb) == frozenset()


def test_load_edb_csv_column_mismatch(burglar):
    with pytest.raises(ParseError, match="row 1: expected 2 columns"):
        load_edb_csv("House", io.StringIO("NP1,Napa,extra\n"), burglar.edb)


def test_load_edb_csv_string_skips_blank_lines(burglar):
    # a str is read as the text of the file; its row numbers count blank lines
    inst = load_edb_csv("House", "\nNP1,Napa\n\nYU1,Yucaipa\n", burglar.edb)
    assert inst == {Fact("House", ("NP1", "Napa")), Fact("House", ("YU1", "Yucaipa"))}
    with pytest.raises(ParseError, match="<csv:House>:3:1: row 3: expected 2 columns"):
        load_edb_csv("House", "\n\nNP1\n", burglar.edb)


def test_load_edb_csv_rejects_a_relation_that_is_not_edb(burglar):
    with pytest.raises(ParseError, match="<csv:Unit>:1:1: 'Unit' is not an EDB relation"):
        load_edb_csv("Unit", "NP1,Napa\n", burglar.edb)


# relations named like the keywords, each used where a keyword could stand
KEYWORD_RELATIONS = """\
idb edb/1.
edb idb/2.
idb false/1.
edb(x) :- idb(x, y).
idb(x, y), edb(x) => false(x).
false(x) => false(x).
edb(x), false(x) => false.
"""


@pytest.mark.parametrize(
    "name",
    [
        "burglar.gdl",
        "burglar_ppdl.gdl",
        "doubling.gdl",
        "doubling_escape.gdl",
        "fork.gdl",
        "fork_escape.gdl",
        "visits.gdl",
        "visits_base.gdl",
        "visits_implied.gdl",
        "pdb.gdl",
        "disjunctive.gdl",
        "keyword_relations",
    ],
)
def test_program_round_trip(registry, name):
    if name == "keyword_relations":
        program = parse_program(KEYWORD_RELATIONS, registry)
    else:
        program = load_program(name, registry)
    text = render_program(program)
    again = parse_program(text, registry, f"rt:{name}")
    assert again == program
    assert render_program(again) == text


def test_facts_round_trip(burglar, burglar_edb):
    text = render_facts(burglar_edb)
    assert parse_facts(text, burglar.edb) == burglar_edb


def test_number_rendering(registry):
    p = parse_program(
        "edb S/1.\nidb R/2.\nR(x, Flip[0.25]) :- S(x).\n", registry
    )
    out = render_program(p)
    assert "Flip[0.25]" in out
    inst = parse_facts("S(3).\nS(2.5).\nS(-1).", {"S": 1})
    text = render_facts(inst)
    assert "S(3)." in text and "S(2.5)." in text and "S(-1)." in text
