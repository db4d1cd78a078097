"""The fact-file scanner against the token parser.

``parse_facts`` reads a fact file with ``parser._scan_facts``, one
statement per regex match, and falls back to the token parser wherever
the scanner returns None. On seeded random fact texts and on their
one-character mutations, the scanner must return the token parser's
instance or None, so ``parse_facts`` returns that instance or raises the
token parser's ``ParseError``.
"""
from __future__ import annotations

import json
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from gdlog import parser
from gdlog.parser import ParseError, parse_facts

from conftest import CORPUS

# "A__b" and "Ré" are declared, but the token parser rejects the first
# and the scanner leaves the second to it
SCHEMA = {"R": 2, "S": 1, "T_x": 3, "edb": 1, "A__b": 1, "Ré": 1}
NAMES = ["R", "S", "T_x", "edb"]
ODD_NAMES = ["A__b", "Ré", "U"]  # each makes the scanner defer
CONSTANTS = [
    "0", "1", "-2", "+3", "4.5", "-0", "0.0", "1e3", "2E-2", "7.25e+1",
    "٣", "١.٥", "12345678901234567890",
    '""', '"a"', '"a,b"', '"x)"', '"//"', '"a // b"', '"9"', '"1.5"',
    '"\\""', '"\\\\"', '"\\n\\t"', '"é"', '"(,)."',
]
SPACES = ["", " ", "  ", "\t", "\n", "\r\n", " \n "]
COMMENTS = ["// note\n", "//\n", "// S(1).\n", "//// x //\n", '// "\n', "// 5\n"]
MUTANTS = '/.,()"\\\n\r\t 1e_-+é٣Sx'


def _statement(rng) -> str:
    name = rng.choice(ODD_NAMES if rng.random() < 0.05 else NAMES)
    arity = SCHEMA.get(name, 1)
    if rng.random() < 0.05:
        arity = rng.randint(1, 3)
    args = [rng.choice(CONSTANTS) for _ in range(arity)]
    if rng.random() < 0.03:
        args[0] = rng.choice(["1e999", "-1e999"])
    separated = [x for a in args for x in (",", a)][1:]
    tokens = [name, "(", *separated, ")", "."]
    if rng.random() < 0.05:
        # a comment inside the statement, between two of its tokens
        i = rng.randrange(1, len(tokens))
        tokens.insert(i, rng.choice(COMMENTS))
    return "".join(t + rng.choice(SPACES) for t in tokens)


def _text(rng) -> str:
    parts = []
    for _ in range(rng.randint(0, 5)):
        if rng.random() < 0.3:
            parts.append(rng.choice(COMMENTS))
        parts.append(rng.choice(SPACES) + _statement(rng))
    if rng.random() < 0.2:
        parts.append("// trailing")
    return "".join(parts)


def _mutate(rng, text: str) -> str:
    i = rng.randint(0, len(text))
    op = rng.randrange(3)
    if op == 0 or not text[i:]:
        return text[:i] + rng.choice(MUTANTS) + text[i:]
    if op == 1:
        return text[:i] + text[i + 1:]
    return text[:i] + rng.choice(MUTANTS) + text[i + 1:]


def _strict(instance) -> set:
    # 0.0 equals -0.0: compare the representations too
    return {(f.relation, tuple(map(repr, f.args))) for f in instance}


def _outcome(text: str, schema=SCHEMA):
    try:
        return _strict(parse_facts(text, schema, "f"))
    except ParseError as e:
        return str(e)


def _by_tokens(text: str, monkeypatch, schema=SCHEMA):
    with monkeypatch.context() as m:
        m.setattr(parser, "_scan_facts", lambda text, schema: None)
        return _outcome(text, schema)


def _check(text: str, monkeypatch) -> bool:
    """Whether the scanner read ``text``; fails where it disagrees."""
    reference = _by_tokens(text, monkeypatch)
    scanned = parser._scan_facts(text, SCHEMA)
    if scanned is not None:
        assert _strict(scanned) == reference, text
    assert _outcome(text) == reference, text
    return scanned is not None


def test_random_texts_and_mutations(monkeypatch):
    rng = random.Random(20261019)
    read = deferred = 0
    for _ in range(1500):
        text = _text(rng)
        for t in [text] + [_mutate(rng, text) for _ in range(4)]:
            if _check(t, monkeypatch):
                read += 1
            else:
                deferred += 1
    # both sides are exercised
    assert read > 2000 and deferred > 2000, (read, deferred)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "// only a comment",
        "S(1).",
        "S(1).S(2).",
        "S(1)\n.\n",
        "S(1).\r\nS(2).\r\n",
        'R("a,b", ")").',
        'S("//").// S(3).\n',
        'S("\\"\\\\\\n\\t").',
        "S(٣).",
        "S(-0). S(0).",
        "S(0). S(-0).",
        "edb(1).",
    ],
)
def test_scanner_reads(text, monkeypatch):
    assert _check(text, monkeypatch)


@pytest.mark.parametrize(
    "text, message",
    [
        # a constant inside a comment inside a statement is no argument
        ("R(1 // 5\n).", "relation 'R' declared with arity 2, used with 1"),
        ("T_x(1 // 5\n, 2).", "relation 'T_x' declared with arity 3, used with 2"),
        ("R(1, // 5\n 2).", None),
        ("S(1 // 5\n).", None),
        ("U(1).", "'U' is not an EDB relation"),
        ("A__b(1).", "'A__b': double underscore is reserved for generated names"),
        ("Ré(1).", None),
        ("S(1, 2).", "relation 'S' declared with arity 1, used with 2"),
        ("S(1e999).", "'1e999' is not a finite number"),
        ("S(1_000).", "expected ',' or ')', found '_000'"),
        ("S(1).\nS(2)", "expected '.', found 'eof'"),
        ("S(1)..", "expected relation name, found '.'"),
        ("S(1).\f", "unexpected character '\\x0c'"),
    ],
)
def test_scanner_defers(text, message, monkeypatch):
    assert parser._scan_facts(text, SCHEMA) is None
    assert not _check(text, monkeypatch)
    if message is None:
        parse_facts(text, SCHEMA, "f")
    else:
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_facts(text, SCHEMA, "f")


def test_corpus_facts_are_scanned(burglar, monkeypatch):
    text = (CORPUS / "burglar.facts").read_text(encoding="utf-8")
    scanned = parser._scan_facts(text, burglar.edb)
    assert scanned is not None
    assert _strict(scanned) == _by_tokens(text, monkeypatch, burglar.edb)


# inputs on which a pattern that can match a character two ways backtracks
# exponentially once the match fails; each must fail within 1 s
SLOW_IF_AMBIGUOUS = [
    " " * 10_000 + "!",
    "\n" * 10_000 + "!",
    "//" * 40 + "\n!",
    "S(1)." + "//" * 40 + "\n!",
    "S(" + " " * 10_000 + "!",
    "S(1" + ", 1" * 5_000 + ")!",
]
_TIMED = """
import json, sys, time
from gdlog.parser import ParseError, parse_facts
out = []
for text in json.loads(sys.stdin.read()):
    started = time.perf_counter()
    try:
        parse_facts(text, {"S": 1}, "f")
        message = None
    except ParseError as e:
        message = e.message
    out.append([message, time.perf_counter() - started])
print(json.dumps(out))
"""


def test_failed_scan_is_fast():
    # in a child, so that a regression fails on the timeout instead of
    # hanging the suite
    cases = SLOW_IF_AMBIGUOUS + ["//" * 40 + "!"]  # the last is one comment
    env = {
        "PATH": "/usr/bin:/bin",
        "PYTHONPATH": str(Path(parser.__file__).resolve().parents[1]),
        "PYTHONDONTWRITEBYTECODE": "1",
    }
    proc = subprocess.run(
        [sys.executable, "-c", _TIMED], input=json.dumps(cases),
        capture_output=True, text=True, env=env, timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    messages = [m for m, _ in results]
    assert messages == ["unexpected character '!'"] * len(SLOW_IF_AMBIGUOUS) + [None]
    assert max(t for _, t in results) < 1.0, results
