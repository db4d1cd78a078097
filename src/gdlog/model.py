"""Core domain types: programs, rules, atoms, facts, instances.

Constants are either 64-bit reals or opaque symbolic tokens (plain
strings). All types here are immutable after construction and can be
shared freely across threads.
"""
from __future__ import annotations

from operator import attrgetter
from typing import Iterator, Mapping, Union

__all__ = [
    "Constant",
    "Variable",
    "DeltaTerm",
    "Term",
    "Atom",
    "Rule",
    "Constraint",
    "Program",
    "Fact",
    "Instance",
    "Diagnostic",
    "ValidationReport",
    "GdlogError",
    "GroundingError",
    "IllegalInput",
    "constant_key",
    "fact_key",
    "ground_atom",
    "validate_program",
]


class GdlogError(Exception):
    """Base class for all errors raised by this package."""


class GroundingError(GdlogError):
    pass


class IllegalInput(GdlogError):
    """The constraint-satisfying outcome set has measure zero."""


#: A constant is a real number (float) or an interned symbolic token (str).
Constant = Union[float, str]


def constant_key(c: Constant):
    """Total order on constants: numerics first, then symbols."""
    if isinstance(c, str):
        return (1, 0.0, c)
    return (0, c, "")


class _Record:
    """Base of the immutable record types: one field per class annotation.

    A class attribute named like a field is that field's default, and the
    class keyword ``uncompared`` names fields that equality and hashing
    skip. Unlike ``dataclasses`` it generates no code: every method reads
    the field list, so defining a record runs no ``exec`` at import.
    """

    def __init_subclass__(cls, uncompared=()):
        cls._fields = names = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
        key = attrgetter(*(n for n in names if n not in uncompared))
        one = len(names) - len(uncompared) == 1  # attrgetter returns no tuple
        cls._key = staticmethod((lambda r: (key(r),)) if one else key)
        cls._post_init = hasattr(cls, "__post_init__")
        cls.__match_args__ = names

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs or len(args) != len(names):
            given = dict(zip(names, args))
            values = {**self._defaults, **given, **kwargs}
            extra = len(args) > len(names) or given.keys() & kwargs
            if extra or values.keys() != set(names):
                raise TypeError(f"{type(self).__name__} takes the fields {names}")
            args = [values[n] for n in names]
        for name, value in zip(names, args):  # not as a dict: reads stay fast
            object.__setattr__(self, name, value)
        if self._post_init:
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _asdict(self) -> dict:
        return {n: getattr(self, n) for n in self._fields}

    def _replace(self, **changes):
        return type(self)(**{**self._asdict(), **changes})


class Variable(_Record):
    name: str

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"


class DeltaTerm(_Record):
    """A draw from a named parameterized distribution, e.g. Flip[0.3]."""

    dist: str
    params: tuple  # constants and/or Variables

    def __repr__(self) -> str:
        return f"DeltaTerm({self.dist!r}, {self.params!r})"


#: Terms appearing in atoms: constants, variables, or (in rule heads) a draw.
Term = Union[Constant, Variable, DeltaTerm]


class Atom(_Record):
    relation: str
    args: tuple  # of Term

    @property
    def arity(self) -> int:
        return len(self.args)

    def variables(self) -> Iterator[Variable]:
        for t in self.args:
            if isinstance(t, Variable):
                yield t
            elif isinstance(t, DeltaTerm):
                for p in t.params:
                    if isinstance(p, Variable):
                        yield p

    def delta_terms(self) -> Iterator[DeltaTerm]:
        for t in self.args:
            if isinstance(t, DeltaTerm):
                yield t


class Rule(_Record):
    """A generative rule. The head may contain at most one draw term."""

    head: Atom
    body: tuple  # of Atom, nonempty

    def head_variables(self) -> Iterator[Variable]:
        return self.head.variables()

    def body_variables(self) -> Iterator[Variable]:
        for a in self.body:
            yield from a.variables()


class Constraint(_Record):
    """An observation `body => head`. A head of None encodes falsum."""

    body: tuple  # of Atom, nonempty
    head: Atom | None


class Fact(_Record):
    relation: str
    args: tuple  # of Constant

    @property
    def arity(self) -> int:
        return len(self.args)


def _row_key(row) -> tuple:
    """Canonical sort key for a row of constants (numbers before symbols)."""
    return tuple(map(constant_key, row))


def fact_key(f: Fact):
    """Canonical sort key for facts (used for stable output ordering)."""
    return (f.relation, _row_key(f.args))


def _sorted_canonical(items, key, plain_key=None) -> list:
    """``items`` sorted by ``key``, a key built from ``constant_key``.

    Plain comparison (of ``plain_key`` values, if given) is tried first.
    Where it does not raise it gives the same order: numbers compare by
    value and symbols by code point, and a number never equals a symbol.
    It raises TypeError where it must order a number against a symbol,
    and only then is ``key`` built for every item.
    """
    try:
        return sorted(items, key=plain_key)
    except TypeError:
        return sorted(items, key=key)


#: An instance is a finite set of facts (set semantics, no duplicates).
Instance = frozenset


class Program(_Record, uncompared=("dists",)):
    """A generative program: EDB/IDB schemas, rules, and constraints.

    ``dists`` is the registry of distributions the rules may draw from;
    it does not participate in structural equality. Treat instances as
    immutable; nothing in the engine mutates them.
    """

    edb: dict  # relation name -> arity
    idb: dict  # relation name -> arity
    rules: list  # of Rule
    constraints: list  # of Constraint
    dists: object = None

    def arity_of(self, relation: str) -> int | None:
        if relation in self.edb:
            return self.edb[relation]
        return self.idb.get(relation)


# ---------------------------------------------------------------------------
# Validation


class Diagnostic(_Record):
    scope: str  # "program" | "rule" | "constraint"
    index: int | None
    reason: str

    def __str__(self) -> str:
        where = self.scope if self.index is None else f"{self.scope} {self.index}"
        return f"{where}: {self.reason}"


class ValidationReport(_Record):
    diagnostics: tuple

    @property
    def ok(self) -> bool:
        return not self.diagnostics

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return "; ".join(str(d) for d in self.diagnostics)


def _arity_problem(relation: str, declared: int | None, used: int) -> str | None:
    """Why ``used`` arguments misfit ``relation`` of arity ``declared``, or None."""
    if declared is None:
        return f"undeclared relation '{relation}'"
    if declared != used:
        return f"relation '{relation}' declared with arity {declared}, used with {used}"
    return None


def _check_atom(program: Program, atom: Atom) -> str | None:
    return _arity_problem(atom.relation, program.arity_of(atom.relation), atom.arity)


def _first_rule_problem(program: Program, rule: Rule) -> str | None:
    # Checks are ordered so the reported reason is the first violated clause.
    if rule.head.relation not in program.idb:
        return f"head relation '{rule.head.relation}' is not IDB"
    deltas = list(rule.head.delta_terms())
    if len(deltas) > 1:
        return "more than one Δ-term in head"
    if not rule.body:
        return "empty body"
    for a in rule.body:
        if any(True for _ in a.delta_terms()):
            return f"Δ-term in body atom '{a.relation}'"
    problem = _check_atom(program, rule.head)
    if problem:
        return problem
    for a in rule.body:
        problem = _check_atom(program, a)
        if problem:
            return problem
    if program.dists is not None and deltas:
        d = deltas[0]
        spec = program.dists.get(d.dist)
        if spec is None:
            return f"unknown distribution '{d.dist}'"
        if spec.pardim != len(d.params):
            return (
                f"distribution '{d.dist}' expects {spec.pardim} parameters, "
                f"got {len(d.params)}"
            )
    body_vars = {v.name for v in rule.body_variables()}
    for v in rule.head_variables():
        if v.name not in body_vars:
            return f"unsafe head variable '{v.name}'"
    return None


def _first_constraint_problem(program: Program, c: Constraint) -> str | None:
    if not c.body:
        return "empty body"
    for a in c.body:
        if any(True for _ in a.delta_terms()):
            return f"Δ-term in constraint body atom '{a.relation}'"
        problem = _check_atom(program, a)
        if problem:
            return problem
    if c.head is not None:
        if any(True for _ in c.head.delta_terms()):
            return "Δ-term in constraint head"
        problem = _check_atom(program, c.head)
        if problem:
            return problem
        body_vars = {v.name for a in c.body for v in a.variables()}
        for v in c.head.variables():
            if v.name not in body_vars:
                return f"unsafe constraint head variable '{v.name}'"
    return None


def validate_program(program: Program) -> ValidationReport:
    """Check every structural invariant; diagnostics pinpoint the first
    violated clause per rule. Order-independent: permuting rules permutes
    diagnostics but never flips ok/not-ok."""
    diags = []
    shared = sorted(set(program.edb) & set(program.idb))
    if shared:
        diags.append(
            Diagnostic("program", None, f"EDB and IDB schemas overlap on {shared}")
        )
    for i, rule in enumerate(program.rules):
        reason = _first_rule_problem(program, rule)
        if reason:
            diags.append(Diagnostic("rule", i, reason))
    for i, c in enumerate(program.constraints):
        reason = _first_constraint_problem(program, c)
        if reason:
            diags.append(Diagnostic("constraint", i, reason))
    return ValidationReport(tuple(diags))


def ground_atom(atom: Atom, binding: Mapping[str, Constant]) -> Fact:
    """Substitute ``binding`` into ``atom``; constants pass through.

    Raises GroundingError on unbound variables or draw terms.
    """
    out = []
    for t in atom.args:
        if isinstance(t, Variable):
            if t.name not in binding:
                raise GroundingError(f"variable '{t.name}' is unbound")
            out.append(binding[t.name])
        elif isinstance(t, DeltaTerm):
            raise GroundingError("cannot ground a distributional term")
        else:
            out.append(t)
    return Fact(atom.relation, tuple(out))
