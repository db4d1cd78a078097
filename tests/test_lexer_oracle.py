"""The regex lexer against the hand-written scanner it replaced
(``old_lexer.py``): the same tokens, or the same error, on the corpus
and on seeded fuzz."""
from __future__ import annotations

import random

import pytest

from gdlog import parser
from gdlog.parser import ParseError, parse_facts, parse_program

import old_lexer
from conftest import CORPUS


def _tokens(lex, text):
    """Token tuples, or the (span, message) of the error."""
    try:
        return [(t.kind, t.text, t.value, t.line, t.col) for t in lex(text, "f")]
    except ParseError as e:
        return (e.span, e.message)


@pytest.mark.parametrize("path", sorted(CORPUS.iterdir()), ids=lambda p: p.name)
def test_corpus_tokens_match(path):
    text = path.read_text(encoding="utf-8")
    assert _tokens(parser._lex, text) == _tokens(old_lexer._lex, text)


def test_ascii_fuzz_matches():
    rng = random.Random(20261018)
    alphabet = 'ab_Z09+-.eE "\\\n\t\r/:=>()[],nt'
    trailing_comments = 0
    for _ in range(20_000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 14)))
        new, old = _tokens(parser._lex, text), _tokens(old_lexer._lex, text)
        if new == old:
            continue
        # the one difference: the old scanner did not advance its column
        # over a comment, so an end of input after one sat at the "//"
        assert isinstance(new, list) and isinstance(old, list), text
        assert new[:-1] == old[:-1], text
        last_line = text.rsplit("\n", 1)[-1]
        assert new[-1] == ("eof", "", None, old[-1][3], len(last_line) + 1), text
        assert last_line.startswith("//", old[-1][4] - 1), text
        trailing_comments += 1
    assert trailing_comments  # the fuzz reaches the difference


def _parse(lex, parse, text, *args):
    saved = parser._lex
    parser._lex = lex
    try:
        return parse(text, *args)
    except ParseError:
        return ParseError
    finally:
        parser._lex = saved


def test_non_ascii_fuzz_matches(registry):
    # letters, decimal and non-decimal digits, a numeral and a no-break space
    rng = random.Random(7)
    alphabet = 'éß٣²½Ⅷ\xa0aZ_09.e-+,"x '
    templates = [
        (parse_facts, "A({}).", {"A": 1, "B": 2}),
        (parse_facts, "B(1, {}).\nA(2).", {"A": 1, "B": 2}),
        (parse_program, "edb S/1.\nidb R/1.\nR(x) :- S({}).", registry),
        (parse_program, "edb S/1.\nidb R/2.\nR(x, Flip[{}]) :- S(x).", registry),
    ]
    outcomes = set()
    for _ in range(6_000):
        parse, template, arg = rng.choice(templates)
        snippet = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 6)))
        text = template.format(snippet)
        new = _parse(parser._lex, parse, text, arg)
        old = _parse(old_lexer._lex, parse, text, arg)
        assert new == old, text
        outcomes.add(new is ParseError)
    assert outcomes == {True, False}  # both accepted and rejected inputs occur
