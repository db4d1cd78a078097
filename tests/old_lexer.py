"""The hand-written scanner that ``gdlog.parser._lex`` replaced, kept
verbatim as the reference for ``test_lexer_oracle.py``."""
from __future__ import annotations

from dataclasses import dataclass

from gdlog.parser import ParseError, SourceSpan


@dataclass(frozen=True)
class _Token:
    kind: str  # "ident" | "number" | "string" | "punct" | "eof"
    text: str
    value: object
    line: int
    col: int


def _is_ident_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _is_ident_char(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


def _lex(text: str, filename: str) -> list:
    tokens = []
    i, line, col = 0, 1, 1
    n = len(text)

    def span() -> SourceSpan:
        return SourceSpan(filename, line, col)

    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith(":-", i) or text.startswith("=>", i):
            tokens.append(_Token("punct", text[i : i + 2], None, line, col))
            i += 2
            col += 2
            continue
        if ch in "()[],./":
            tokens.append(_Token("punct", ch, None, line, col))
            i += 1
            col += 1
            continue
        if ch == '"':
            start_line, start_col = line, col
            i += 1
            col += 1
            buf = []
            while True:
                if i >= n or text[i] == "\n":
                    raise ParseError(
                        SourceSpan(filename, start_line, start_col),
                        "unterminated string literal",
                    )
                c = text[i]
                if c == '"':
                    i += 1
                    col += 1
                    break
                if c == "\\":
                    if i + 1 >= n:
                        raise ParseError(span(), "dangling escape")
                    esc = text[i + 1]
                    mapped = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}.get(esc)
                    if mapped is None:
                        raise ParseError(span(), f"unknown escape '\\{esc}'")
                    buf.append(mapped)
                    i += 2
                    col += 2
                else:
                    buf.append(c)
                    i += 1
                    col += 1
            tokens.append(
                _Token("string", "".join(buf), "".join(buf), start_line, start_col)
            )
            continue
        if ch.isdigit() or (ch in "+-" and i + 1 < n and text[i + 1].isdigit()):
            start_line, start_col = line, col
            j = i
            if text[j] in "+-":
                j += 1
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == ".":
                # a trailing period is the statement terminator, not a decimal
                if j + 1 < n and text[j + 1].isdigit():
                    j += 1
                    while j < n and text[j].isdigit():
                        j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            lit = text[i:j]
            try:
                value = float(lit)
            except ValueError:
                raise ParseError(
                    SourceSpan(filename, start_line, start_col),
                    f"malformed number '{lit}'",
                ) from None
            tokens.append(_Token("number", lit, value, start_line, start_col))
            col += j - i
            i = j
            continue
        if _is_ident_start(ch):
            start_col = col
            j = i
            while j < n and _is_ident_char(text[j]):
                j += 1
            name = text[i:j]
            tokens.append(_Token("ident", name, name, line, start_col))
            col += j - i
            i = j
            continue
        raise ParseError(span(), f"unexpected character {ch!r}")
    tokens.append(_Token("eof", "", None, line, col))
    return tokens
