"""The parser against the one it replaced (``old_parser.py``), on seeded
fuzz of programs, fact files and query literals: the same program,
instance or fact, or the same error (span and message), except in three
intended ways.

- A string spelled like punctuation, such as ``","``, is never a
  separator or a bracket. The old parser compared token text alone.
- ``edb``, ``idb`` or ``false`` followed by ``(`` names a relation. The
  old parser read a keyword there and failed at the ``(``.
- A "found" message shows a string token with its quotes.

The first and the last are exactly what the old parser does over a lexer
that gives every string token its quoted spelling as text, so no text of
a string equals punctuation; that run is the reference for them.
"""
from __future__ import annotations

import random
from collections import Counter

from gdlog import parser
from gdlog.parser import (
    ParseError,
    format_constant,
    parse_fact_literal,
    parse_facts,
    parse_program,
)

import old_parser

PUNCT_STRINGS = ['","', '")"', '"]"', '"=>"', '":-"', '"("', '"["', '"."', '"/"']
ALPHABET = [
    *"()[],./", ":-", "=>",
    "S", "R", "x", "y", "Foo", "Flip", "edb", "idb", "false",
    "1", "2", "0.5", '"a"', '""', *PUNCT_STRINGS,
]  # fmt: skip
NAMES = 3 * ["S", "R"] + ["edb", "idb", "false"]
FACT_SCHEMA = {"S": 1, "R": 2, "edb": 1, "false": 2}
TERMS = 3 * [["x"], ["y"], ['"a"'], ["1"], ["Flip", "[", "x", "]"]] + [
    ["Geo", "[", '"]"', "]"], ["Flip", "[", "]"], ['","'],
]
CONSTANTS = ['"a"', "1", "0.5", '""', *PUNCT_STRINGS]


def _mutate(rng, tokens: list) -> str:
    for _ in range(rng.choice([0, 0, 0, 1, 1, 2])):
        i = rng.randrange(len(tokens) + 1)
        op = rng.randrange(3)
        if op == 0 or i == len(tokens):
            tokens.insert(i, rng.choice(ALPHABET))
        elif op == 1:
            tokens[i] = rng.choice(ALPHABET)
        else:
            del tokens[i]
    return " ".join(tokens)


def _atom(rng, schema: dict) -> list:
    name = rng.choice(NAMES)
    arity = schema.get(name, 1) if rng.random() < 0.9 else rng.randint(1, 2)
    tokens = [name, "("]
    for i in range(arity):
        tokens += ([","] if i else []) + rng.choice(TERMS)
    return tokens + [")"]


def _program(rng) -> str:
    schema = {n: rng.randint(1, 2) for n in dict.fromkeys(NAMES) if rng.random() < 0.9}
    tokens = []
    for name, arity in schema.items():
        tokens += [rng.choice(["edb", "idb"]), name, "/", str(arity), "."]
    for _ in range(rng.randint(1, 2)):
        body = _atom(rng, schema)
        for _ in range(rng.randint(0, 1)):
            body += [","] + _atom(rng, schema)
        if rng.random() < 0.5:
            tokens += _atom(rng, schema) + [":-"] + body + ["."]
        else:
            head = ["false"] if rng.random() < 0.3 else _atom(rng, schema)
            tokens += body + ["=>"] + head + ["."]
    return _mutate(rng, tokens)


def _fact(rng) -> list:
    name = rng.choice(NAMES)
    tokens = [name, "("]
    for i in range(FACT_SCHEMA.get(name, 1)):
        tokens += ([","] if i else []) + [rng.choice(CONSTANTS)]
    return tokens + [")"]


def _facts(rng) -> str:
    tokens = []
    for _ in range(rng.randint(1, 3)):
        tokens += _fact(rng) + ["."]
    return _mutate(rng, tokens)


def _query(rng) -> str:
    return _mutate(rng, _fact(rng) + rng.choice([[], ["."]]))


def _quoted_strings(text: str, filename: str) -> list:
    return [
        t._replace(text=format_constant(t.text)) if t.kind == "string" else t
        for t in parser._lex(text, filename)
    ]


def _outcome(parse, text, arg):
    try:
        return parse(text, arg)
    except ParseError as e:
        return (e.span, e.message)


def _old_outcome(name, text, arg, lex=parser._lex):
    saved = old_parser._lex
    old_parser._lex = lex
    try:
        return _outcome(getattr(old_parser, name), text, arg)
    finally:
        old_parser._lex = saved


def _token_at(text: str, span):
    return next(
        t for t in parser._lex(text, span.file) if (t.line, t.col) == (span.line, span.col)
    )


def _difference(name, text, arg, new, old) -> str:
    """The class of a difference between the new and the old outcome."""
    quoted = _old_outcome(name, text, arg, _quoted_strings)
    if new == quoted:
        if isinstance(new, tuple) and isinstance(old, tuple) and new[0] == old[0]:
            t = _token_at(text, old[0])
            assert t.kind == "string", text
            prefix = old[1].removesuffix(f", found '{t.text or t.kind}'")
            assert new[1] == f"{prefix}, found '{format_constant(t.text)}'", text
            return "found"
        assert any(
            t.kind == "string" and t.text in (",", ")", "]", "=>")
            for t in parser._lex(text, "f")
        ), text
        return "separator"
    # the old parser read a keyword before a "(" and failed at the "("
    span, message = quoted
    tokens = parser._lex(text, span.file)
    i = tokens.index(_token_at(text, span))
    assert (tokens[i].kind, tokens[i].text) == ("punct", "("), text
    assert tokens[i - 1].text in ("edb", "idb", "false"), text
    assert message in ("expected relation name, found '('", "expected '.', found '('"), text
    return "keyword"


def test_parser_matches_old_parser(registry):
    rng = random.Random(20261019)
    cases = [
        ("parse_program", _program, parse_program, registry),
        ("parse_facts", _facts, parse_facts, FACT_SCHEMA),
        ("parse_fact_literal", _query, parse_fact_literal, FACT_SCHEMA),
    ]
    outcomes = Counter()
    for _ in range(8_000):
        name, make, parse, arg = rng.choice(cases)
        text = make(rng)
        new = _outcome(parse, text, arg)
        old = _old_outcome(name, text, arg)
        if new == old:
            outcomes[name, "same", isinstance(new, tuple)] += 1
        else:
            outcomes[name, _difference(name, text, arg, new, old)] += 1
    # not vacuous: every entry point both parses and rejects the same
    # input, and every class of difference occurs
    for name, *_ in cases:
        assert outcomes[name, "same", False] > 200, outcomes
        assert outcomes[name, "same", True] > 200, outcomes
        assert outcomes[name, "separator"] + outcomes[name, "found"] > 10, outcomes
    assert outcomes["parse_program", "keyword"] > 10, outcomes
