"""The recursive-descent half of ``gdlog.parser`` before every
punctuation test checked the token's kind, kept verbatim (over the
current lexer) as the reference for ``test_parser_oracle.py``."""
from __future__ import annotations

import math

from gdlog.model import Atom, Constraint, DeltaTerm, Fact, Instance, Program, Rule, Variable
from gdlog.parser import ParseError, SourceSpan, _lex, _Token


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

    def expect_punct(self, text: str) -> _Token:
        t = self.next()
        if t.kind != "punct" or t.text != text:
            raise self.error(t, f"expected '{text}', found '{t.text or t.kind}'")
        return t

    def constant(self, t: _Token):
        """The value of a number or string token; infinities are errors."""
        if t.kind == "number" and not math.isfinite(t.value):
            # an infinity would print as inf, which no parser reads back
            raise self.error(t, f"'{t.text}' is not a finite number")
        return t.value

    def expect_ident(self, what: str = "identifier") -> _Token:
        t = self.next()
        if t.kind != "ident":
            raise self.error(t, f"expected {what}, found '{t.text or t.kind}'")
        if "__" in t.text:
            raise self.error(
                t, f"'{t.text}': double underscore is reserved for generated names"
            )
        return t


def _check_relation(p: _Parser, tok: _Token, name: str, arity: int, schema: dict):
    if name not in schema:
        raise p.error(tok, f"undeclared relation '{name}'")
    if schema[name] != arity:
        raise p.error(
            tok,
            f"relation '{name}' declared with arity {schema[name]}, "
            f"used with {arity}",
        )


def _parse_term(p: _Parser, dists):
    t = p.peek()
    if t.kind in ("number", "string"):
        p.next()
        return p.constant(t)
    if t.kind == "ident":
        tok = p.expect_ident("term")
        nxt = p.peek()
        if nxt.kind == "punct" and nxt.text == "[":
            spec = dists.get(tok.text) if dists is not None else None
            if spec is None:
                raise p.error(tok, f"unknown distribution '{tok.text}'")
            p.expect_punct("[")
            params = []
            if p.peek().text != "]":  # Name[] for zero-parameter draws
                params.append(_parse_inner_term(p))
                while p.peek().text == ",":
                    p.next()
                    params.append(_parse_inner_term(p))
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
        raise p.error(
            tok,
            f"'{tok.text}': variables start lowercase; quote symbolic constants",
        )
    raise p.error(t, f"expected a term, found '{t.text or t.kind}'")


def _parse_inner_term(p: _Parser):
    # distribution parameters: constants or variables, no nested draws
    t = p.peek()
    if t.kind in ("number", "string"):
        p.next()
        return p.constant(t)
    if t.kind == "ident":
        tok = p.expect_ident("parameter")
        if tok.text[0].islower():
            return Variable(tok.text)
        raise p.error(tok, f"'{tok.text}': variables start lowercase")
    raise p.error(t, f"expected a parameter, found '{t.text or t.kind}'")


def _parse_atom(p: _Parser, schema: dict, dists) -> Atom:
    tok = p.expect_ident("relation name")
    p.expect_punct("(")
    args = [_parse_term(p, dists)]
    while p.peek().text == ",":
        p.next()
        args.append(_parse_term(p, dists))
    p.expect_punct(")")
    _check_relation(p, tok, tok.text, len(args), schema)
    return Atom(tok.text, tuple(args))


def parse_program(text: str, dists, filename: str = "<string>") -> Program:
    """Parse a .gdl program against the distribution registry ``dists``."""
    p = _Parser(text, filename)
    edb: dict = {}
    idb: dict = {}
    rules: list = []
    constraints: list = []

    while p.peek().kind != "eof":
        t = p.peek()
        if t.kind == "ident" and t.text in ("edb", "idb"):
            p.next()
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
            if name in edb or name in idb:
                raise p.error(name_tok, f"duplicate declaration of '{name}'")
            (edb if t.text == "edb" else idb)[name] = arity
            continue

        schema = {**edb, **idb}
        first = _parse_atom(p, schema, dists)
        sep = p.next()
        if sep.kind == "punct" and sep.text == ":-":
            body = [_parse_atom(p, schema, dists)]
            while p.peek().text == ",":
                p.next()
                body.append(_parse_atom(p, schema, dists))
            p.expect_punct(".")
            rules.append(Rule(first, tuple(body)))
        elif sep.kind == "punct" and (sep.text == "," or sep.text == "=>"):
            body = [first]
            while sep.text == ",":
                body.append(_parse_atom(p, schema, dists))
                sep = p.next()
            if sep.text != "=>":
                raise p.error(sep, f"expected '=>', found '{sep.text or sep.kind}'")
            head: Atom | None
            nxt = p.peek()
            if nxt.kind == "ident" and nxt.text == "false":
                p.next()
                head = None
            else:
                head = _parse_atom(p, schema, dists)
            p.expect_punct(".")
            constraints.append(Constraint(tuple(body), head))
        else:
            raise p.error(sep, f"expected ':-' or '=>', found '{sep.text or sep.kind}'")

    return Program(edb, idb, rules, constraints, dists)


# ---------------------------------------------------------------------------
# Fact files


def _parse_one_fact(p: _Parser, schema: dict, what: str) -> Fact:
    tok = p.expect_ident("relation name")
    p.expect_punct("(")
    args = []
    while True:
        t = p.next()
        if t.kind in ("number", "string"):
            args.append(p.constant(t))
        else:
            raise p.error(t, f"expected a constant, found '{t.text or t.kind}'")
        t = p.next()
        if t.text == ")":
            break
        if t.text != ",":
            raise p.error(t, f"expected ',' or ')', found '{t.text or t.kind}'")
    p.expect_punct(".")
    if tok.text not in schema:
        raise p.error(tok, f"'{tok.text}' is not {what}")
    if schema[tok.text] != len(args):
        raise p.error(
            tok,
            f"relation '{tok.text}' declared with arity {schema[tok.text]}, "
            f"used with {len(args)}",
        )
    return Fact(tok.text, tuple(args))


def parse_facts(text: str, edb_schema: dict, filename: str = "<string>") -> Instance:
    """Parse ``Rel(c1, ..., cn).`` statements into an instance.

    Only EDB relations are allowed; duplicates collapse.
    """
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
