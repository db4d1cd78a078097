r"""Concrete syntax for programs (.gdl) and fact files.

Grammar sketch::

    program    := (decl | rule | constraint)* ;
    decl       := ("edb" | "idb") IDENT "/" INT "." ;
    rule       := atom ":-" atom ("," atom)* "." ;
    constraint := atom ("," atom)* "=>" (atom | "false") "." ;
    atom       := IDENT "(" term ("," term)* ")" ;
    term       := NUMBER | STRING | IDENT              -- lowercase start: variable
                | IDENT "[" [term ("," term)*] "]" ;   -- distribution draw

Tokens are the punctuation ``:- => ( ) [ ] , . /``; numbers
``[+-]?\d+(\.\d+)?([eE][+-]?\d+)?`` in decimal digits; double-quoted
strings on one line, with the escapes ``\n``, ``\t``, ``\"`` and ``\\``;
and identifiers, a letter or ``_`` then letters, digits and ``_``.
Spaces, tabs, carriage returns and comments from ``//`` to end of line
separate tokens. A ``.`` not followed by a digit ends a statement, so
``S(1).`` holds the number 1. A string is never punctuation: ``","`` is
a constant, not a separator. Keywords are decided by one token of
lookahead: ``edb``, ``idb`` or ``false`` followed by ``(`` names a
relation. Relations must be declared before use;
arities are checked at parse time. Identifiers containing ``__`` are
reserved for generated relation names and rejected here.
"""
from __future__ import annotations

import csv
import io
import math
import re
from collections import namedtuple

from .model import (
    Atom,
    Constraint,
    DeltaTerm,
    Fact,
    GdlogError,
    Instance,
    Program,
    Rule,
    Variable,
    _Record,
    _arity_problem,
    _row_key,
    _sorted_canonical,
)

__all__ = [
    "SourceSpan",
    "ParseError",
    "parse_program",
    "parse_facts",
    "parse_fact_literal",
    "load_edb_csv",
    "format_constant",
    "render_fact",
    "render_facts",
    "render_rows",
    "render_atom",
    "render_rule",
    "render_constraint",
    "render_declarations",
    "render_program",
]


class SourceSpan(_Record):
    file: str
    line: int  # 1-based
    col: int  # 1-based

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.col}"


class ParseError(GdlogError):
    def __init__(self, span: SourceSpan, message: str):
        super().__init__(f"{span}: {message}")
        self.span = span
        self.message = message


# ---------------------------------------------------------------------------
# Lexer

# kind is "ident", "number", "string", "punct" or "eof"
_Token = namedtuple("_Token", "kind text value line col")

_NUMBER = r"[+-]?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?"
_STRING_BODY = r'(?:[^"\\\n]|\\[nt"\\])*'
# the first alternative that matches wins; unnamed ones are skipped
_TOKEN = re.compile(
    r"(?P<newline>\n)|[ \t\r]+|//[^\n]*"
    r"|(?P<punct>:-|=>|[()\[\],./])"
    rf"|(?P<number>{_NUMBER})"
    rf'|"(?P<string>{_STRING_BODY})"'
    r"|(?P<ident>\w+)"
    r"|(?P<error>.)"
)
_STRING_PREFIX = re.compile(_STRING_BODY)
_ESCAPE = re.compile(r"\\(.)")
_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}


def _unescape(body: str) -> str:
    """The value of a string literal's text between its quotes."""
    if "\\" not in body:
        return body
    return _ESCAPE.sub(lambda e: _ESCAPES[e[1]], body)


def _lex_error(text: str, i: int, span: SourceSpan) -> ParseError:
    """The error at offset ``i`` (at ``span``), where no token matches."""
    if text[i] != '"':
        return ParseError(span, f"unexpected character {text[i]!r}")
    j = _STRING_PREFIX.match(text, i + 1).end()
    if j == len(text) or text[j] == "\n":
        return ParseError(span, "unterminated string literal")
    # text[j] is a backslash that starts no known escape
    span = SourceSpan(span.file, span.line, span.col + j - i)
    if j + 1 == len(text):
        return ParseError(span, "dangling escape")
    return ParseError(span, f"unknown escape '\\{text[j + 1]}'")


def _lex(text: str, filename: str) -> list:
    tokens = []
    line, line_start = 1, 0  # line_start: offset of the line's first character
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        if kind == "newline":
            line += 1
            line_start = m.end()
            continue
        lexeme = m[kind]
        col = m.start() - line_start + 1
        if kind == "punct":
            value = None
        elif kind == "string":
            value = lexeme = _unescape(lexeme)
        elif kind == "number":
            value = float(lexeme)
        elif kind == "ident" and (lexeme[0].isalpha() or lexeme[0] == "_"):
            value = lexeme
        else:
            raise _lex_error(text, m.start(), SourceSpan(filename, line, col))
        tokens.append(_Token(kind, lexeme, value, line, col))
    tokens.append(_Token("eof", "", None, line, len(text) - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# Program parser


class _Parser:
    def __init__(self, text: str, filename: str):
        self.tokens = _lex(text, filename)
        self.pos = 0
        self.filename = filename

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        t = self.tokens[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def error(self, token: _Token, message: str) -> ParseError:
        return ParseError(SourceSpan(self.filename, token.line, token.col), message)

    def found(self, token: _Token, what: str) -> ParseError:
        """The error for ``token`` where ``what`` was expected."""
        if token.kind == "string":
            shown = format_constant(token.text)  # with its quotes
        else:
            shown = token.text or token.kind
        return self.error(token, f"expected {what}, found '{shown}'")

    def accept(self, punct: str) -> bool:
        """Consume the next token if it is the punctuation ``punct``."""
        t = self.tokens[self.pos]
        if t.kind == "punct" and t.text == punct:
            self.pos += 1
            return True
        return False

    def expect_punct(self, punct: str) -> None:
        if not self.accept(punct):
            raise self.found(self.peek(), f"'{punct}'")

    def comma_list(self, item) -> list:
        """``item ("," item)*``, each item read by calling ``item()``."""
        items = [item()]
        while self.accept(","):
            items.append(item())
        return items

    def keyword(self, *words: str) -> _Token | None:
        """Consume the next token if it is one of the identifiers ``words``
        used as a keyword: followed by ``(``, it names a relation."""
        t = self.tokens[self.pos]
        if t.kind != "ident" or t.text not in words:
            return None
        self.pos += 1
        if self.accept("("):
            self.pos -= 2
            return None
        return t

    def constant(self):
        """The value of the next token, a number or a string; infinities
        are errors."""
        t = self.next()
        if t.kind not in ("number", "string"):
            raise self.found(t, "a constant")
        if t.kind == "number" and not math.isfinite(t.value):
            # an infinity would print as inf, which no parser reads back
            raise self.error(t, f"'{t.text}' is not a finite number")
        return t.value

    def expect_ident(self, what: str = "identifier") -> _Token:
        t = self.next()
        if t.kind != "ident":
            raise self.found(t, what)
        if "__" in t.text:
            raise self.error(
                t, f"'{t.text}': double underscore is reserved for generated names"
            )
        return t


def _check_relation(p: _Parser, tok: _Token, arity: int, schema: dict):
    problem = _arity_problem(tok.text, schema.get(tok.text), arity)
    if problem:
        raise p.error(tok, problem)


def _parse_term(p: _Parser, dists, param: bool = False):
    # a distribution parameter (``param``) is a term with no draw
    if p.peek().kind in ("number", "string"):
        return p.constant()
    tok = p.expect_ident("a parameter" if param else "a term")
    if not param and p.accept("["):
        spec = dists.get(tok.text) if dists is not None else None
        if spec is None:
            raise p.error(tok, f"unknown distribution '{tok.text}'")
        params = []
        if not p.accept("]"):  # Name[] for zero-parameter draws
            params = p.comma_list(lambda: _parse_term(p, dists, param=True))
            p.expect_punct("]")
        if len(params) != spec.pardim:
            raise p.error(
                tok,
                f"distribution '{tok.text}' expects {spec.pardim} "
                f"parameters, got {len(params)}",
            )
        return DeltaTerm(tok.text, tuple(params))
    if tok.text[0].islower():
        return Variable(tok.text)
    hint = "" if param else "; quote symbolic constants"
    raise p.error(tok, f"'{tok.text}': variables start lowercase{hint}")


def _parse_atom(p: _Parser, schema: dict, dists) -> Atom:
    tok = p.expect_ident("relation name")
    p.expect_punct("(")
    args = p.comma_list(lambda: _parse_term(p, dists))
    p.expect_punct(")")
    _check_relation(p, tok, len(args), schema)
    return Atom(tok.text, tuple(args))


def parse_program(text: str, dists, filename: str = "<string>") -> Program:
    """Parse a .gdl program against the distribution registry ``dists``."""
    p = _Parser(text, filename)
    edb: dict = {}
    idb: dict = {}
    schema: dict = {}  # edb and idb together
    rules: list = []
    constraints: list = []

    def atom() -> Atom:
        return _parse_atom(p, schema, dists)

    while p.peek().kind != "eof":
        decl = p.keyword("edb", "idb")
        if decl is not None:
            name_tok = p.expect_ident("relation name")
            p.expect_punct("/")
            arity_tok = p.next()
            if arity_tok.kind != "number" or not arity_tok.value.is_integer():
                raise p.error(arity_tok, "expected an integer arity")
            arity = int(arity_tok.value)
            if arity < 1:
                # the atom grammar has no nullary form
                raise p.error(arity_tok, "arity must be positive")
            p.expect_punct(".")
            name = name_tok.text
            if name in schema:
                raise p.error(name_tok, f"duplicate declaration of '{name}'")
            schema[name] = (edb if decl.text == "edb" else idb)[name] = arity
            continue

        first = atom()
        if p.accept(":-"):
            rules.append(Rule(first, tuple(p.comma_list(atom))))
        else:
            body = [first]
            if p.accept(","):
                body += p.comma_list(atom)
                p.expect_punct("=>")
            elif not p.accept("=>"):
                raise p.found(p.peek(), "':-' or '=>'")
            head = None if p.keyword("false") else atom()
            constraints.append(Constraint(tuple(body), head))
        p.expect_punct(".")

    return Program(edb, idb, rules, constraints, dists)


# ---------------------------------------------------------------------------
# Fact files


def _parse_one_fact(p: _Parser, schema: dict, what: str) -> Fact:
    tok = p.expect_ident("relation name")
    p.expect_punct("(")
    args = p.comma_list(p.constant)
    if not p.accept(")"):
        raise p.found(p.peek(), "',' or ')'")
    p.expect_punct(".")
    if tok.text not in schema:
        raise p.error(tok, f"'{tok.text}' is not {what}")
    _check_relation(p, tok, len(args), schema)
    return Fact(tok.text, tuple(args))


# Spaces and comments between statements. Each character can be matched
# one way only (a comment runs to the end of its line), so a failed match
# backtracks in linear time; Python 3.10 has no atomic groups.
_SKIP = r"(?:[ \t\r\n]|//[^\n]*(?![^\n]))*"
_SPACE = r"[ \t\r\n]*"  # inside a statement: no comment
_CONSTANT = rf'(?:{_NUMBER}|"{_STRING_BODY}")'
_STATEMENT = re.compile(
    rf"{_SKIP}([A-Za-z_][A-Za-z0-9_]*){_SPACE}\({_SPACE}"
    rf"({_CONSTANT}(?:{_SPACE},{_SPACE}{_CONSTANT})*){_SPACE}\){_SPACE}\."
)
_ARGUMENT = re.compile(rf'({_NUMBER})|"({_STRING_BODY})"')  # number, string body
_TAIL = re.compile(_SKIP)


def _scan_facts(text: str, edb_schema: dict) -> Instance | None:
    """The instance of a fact file read one statement per regex match, or
    None where the token parser must decide.

    A statement is read only when it holds no comment, its relation name
    is ASCII, declared and free of ``__``, its arity matches and its
    numbers are finite. Numbers and strings are read as ``_lex`` reads
    them, so the instance equals the token parser's.
    """
    facts = set()
    pos = 0
    while m := _STATEMENT.match(text, pos):
        name, args = m.groups()
        row = []
        # args holds constants, spaces and commas only: no comment, so
        # every constant found is one of the statement's
        for number, string in _ARGUMENT.findall(args):
            if number:
                value = float(number)
                if not math.isfinite(value):
                    return None
                row.append(value)
            else:
                row.append(_unescape(string))
        if "__" in name or edb_schema.get(name) != len(row):
            return None
        facts.add(Fact(name, tuple(row)))
        pos = m.end()
    if _TAIL.fullmatch(text, pos) is None:
        return None
    return frozenset(facts)


def parse_facts(text: str, edb_schema: dict, filename: str = "<string>") -> Instance:
    """Parse ``Rel(c1, ..., cn).`` statements into an instance.

    Only EDB relations are allowed; duplicates collapse. A text the
    scanner is not sure of is read by the token parser, which reports the
    first error.
    """
    facts = _scan_facts(text, edb_schema)
    if facts is not None:
        return facts
    p = _Parser(text, filename)
    facts = set()
    while p.peek().kind != "eof":
        facts.add(_parse_one_fact(p, edb_schema, "an EDB relation"))
    return frozenset(facts)


def parse_fact_literal(text: str, schema: dict, filename: str = "<query>") -> Fact:
    """Parse a single ground fact literal such as ``Earthquake("Napa", 1)``.

    The trailing period is optional. ``schema`` maps every queryable
    relation to its arity.
    """
    stripped = text.strip()
    if not stripped.endswith("."):
        stripped += "."
    p = _Parser(stripped, filename)
    fact = _parse_one_fact(p, schema, "a known relation")
    if p.peek().kind != "eof":
        raise p.error(p.peek(), "trailing input after fact")
    return fact


def load_edb_csv(relation: str, rows, edb_schema: dict) -> Instance:
    """Load header-less CSV rows as facts of ``relation``.

    ``rows`` is a text stream or a string. Numeric-looking cells parse
    as numbers, everything else as symbols; a NaN or infinite cell is
    an error. A cell holding ``_`` is a symbol, since no number of the
    fact-file syntax holds one.
    """
    if relation not in edb_schema:
        raise ParseError(
            SourceSpan(f"<csv:{relation}>", 1, 1),
            f"'{relation}' is not an EDB relation",
        )
    arity = edb_schema[relation]
    if isinstance(rows, str):
        rows = io.StringIO(rows)
    facts = set()
    for lineno, row in enumerate(csv.reader(rows), start=1):
        if not row:
            continue  # blank line
        if len(row) != arity:
            raise ParseError(
                SourceSpan(f"<csv:{relation}>", lineno, 1),
                f"row {lineno}: expected {arity} columns, got {len(row)}",
            )
        args = []
        for cell in row:
            cell = cell.strip()
            if "_" in cell:  # float() would read 1_000 as 1000.0
                args.append(cell)
                continue
            try:
                value = float(cell)
            except ValueError:
                args.append(cell)
                continue
            if not math.isfinite(value):
                # NaN equals nothing, not even itself: no join could match
                # it; an infinity would print as inf, which nothing parses
                what = "a number (NaN)" if math.isnan(value) else "a finite number"
                raise ParseError(
                    SourceSpan(f"<csv:{relation}>", lineno, 1),
                    f"row {lineno}: '{cell}' is not {what}",
                )
            args.append(value)
        facts.add(Fact(relation, tuple(args)))
    return frozenset(facts)


# ---------------------------------------------------------------------------
# Pretty-printing


def format_constant(c) -> str:
    if isinstance(c, str):
        escaped = c.replace("\\", "\\\\").replace('"', '\\"')
        escaped = escaped.replace("\n", "\\n").replace("\t", "\\t")
        return f'"{escaped}"'
    if math.isfinite(c) and c == math.floor(c) and abs(c) < 1e16:
        return str(int(c))
    return repr(c)


def _format_term(t) -> str:
    if isinstance(t, Variable):
        return t.name
    if isinstance(t, DeltaTerm):
        inner = ", ".join(_format_term(x) for x in t.params)
        return f"{t.dist}[{inner}]"
    return format_constant(t)


def render_atom(atom: Atom) -> str:
    inner = ", ".join(_format_term(t) for t in atom.args)
    return f"{atom.relation}({inner})"


def render_rule(rule: Rule) -> str:
    body = ", ".join(render_atom(a) for a in rule.body)
    return f"{render_atom(rule.head)} :- {body}."


def render_constraint(c: Constraint) -> str:
    body = ", ".join(render_atom(a) for a in c.body)
    head = "false" if c.head is None else render_atom(c.head)
    return f"{body} => {head}."


def render_declarations(edb: dict, idb: dict) -> list:
    """The declaration lines of the schemas ``edb`` and ``idb``, in order."""
    return [
        f"{kind} {name}/{arity}."
        for kind, schema in (("edb", edb), ("idb", idb))
        for name, arity in schema.items()
    ]


def render_program(program: Program) -> str:
    lines = render_declarations(program.edb, program.idb)
    if program.rules:
        lines.append("")
    for r in program.rules:
        lines.append(render_rule(r))
    if program.constraints:
        lines.append("")
    for c in program.constraints:
        lines.append(render_constraint(c))
    return "\n".join(lines) + "\n"


render_fact = render_atom  # a Fact's arguments are constants, rendered alike


def render_rows(rows_by_rel) -> list:
    """The facts of a set held as relation -> rows, each rendered as by
    ``render_fact``, in ``fact_key`` order: by relation name, then row."""
    out = []
    # each constant's text, keyed by type as well: the int 10**17 equals
    # the float 1e17, but they render differently
    text: dict = {}
    for rel in sorted(rows_by_rel):
        head = rel + "("
        for row in _sorted_canonical(rows_by_rel[rel], _row_key):
            parts = []
            for v in row:
                key = (v.__class__, v)
                t = text.get(key)
                if t is None:
                    t = text[key] = format_constant(v)
                parts.append(t)
            out.append(head + ", ".join(parts) + ")")
    return out


def render_facts(instance) -> str:
    rows: dict = {}
    for f in instance:
        rows.setdefault(f.relation, []).append(f.args)
    return "".join(f"{line}.\n" for line in render_rows(rows))
