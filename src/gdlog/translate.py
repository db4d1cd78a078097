"""Translation of a generative program into existential Datalog.

Every rule whose head draws from a distribution is rewritten against an
auxiliary distributional relation that stores the drawn tuple plus the
distribution parameters; a projection rule maps it back onto the
original head relation. Rules without draws are copied verbatim. Each
distributional relation carries a functional dependency: all attributes
except the sampled one determine the sampled one.
"""
from __future__ import annotations

from dataclasses import dataclass

from .model import (
    Atom,
    DeltaTerm,
    GdlogError,
    Program,
    Rule,
    Variable,
    validate_program,
)
from .parser import render_atom, render_declarations

__all__ = [
    "DistRelation",
    "FunctionalDependency",
    "ExistentialRule",
    "ExistentialProgram",
    "dist_relation_for",
    "to_existential",
    "render_existential_rule",
    "render_existential_program",
]

COPIED = "copied"
EXISTENTIAL = "existential"
PROJECTION = "projection"


@dataclass(frozen=True)
class DistRelation:
    """Auxiliary relation for draws into ``base`` at ``position`` (1-based).

    A row's FD key is every attribute but the drawn one, in order, so the
    distribution parameters end the key."""

    base: str
    position: int
    dist: str
    base_arity: int
    pardim: int

    @property
    def name(self) -> str:
        return f"{self.base}__{self.dist}__{self.position}"

    @property
    def arity(self) -> int:
        return self.base_arity + self.pardim

    def split(self, row: tuple) -> tuple:
        """(FD key, drawn value) of a row."""
        i = self.position - 1
        return row[:i] + row[i + 1 :], row[i]

    def row(self, key: tuple, value) -> tuple:
        i = self.position - 1
        return key[:i] + (value,) + key[i:]

    def params(self, key: tuple) -> tuple:
        return key[len(key) - self.pardim :]

    def fd_index(self, rows) -> dict | None:
        """FD key -> drawn value over a set of rows; None when two rows
        share a key."""
        index = dict(map(self.split, rows))
        return index if len(index) == len(rows) else None


@dataclass(frozen=True)
class FunctionalDependency:
    relation: str
    determinants: tuple  # 1-based attribute indexes
    dependent: int

    def __str__(self) -> str:
        lhs = ",".join(str(i) for i in self.determinants)
        return f"{self.relation}: {{{lhs}}} -> {self.dependent}"


@dataclass(frozen=True)
class ExistentialRule:
    """One rule of the translated program.

    For ``existential`` rules the head is an atom over the
    distributional relation with ``exist_var`` at the sampled position;
    ``copied`` and ``projection`` rules have plain heads.
    """

    kind: str
    head: Atom
    body: tuple  # of Atom
    distrel: DistRelation | None = None
    exist_var: str | None = None


@dataclass
class ExistentialProgram:
    edb: dict
    idb: dict  # ordinary IDB relations only
    dist_relations: list  # of DistRelation, first-occurrence order
    rules: list  # of ExistentialRule
    fds: list  # of FunctionalDependency
    dists: object

    def schema(self) -> dict:
        """Full relation -> arity map (EDB, IDB, distributional)."""
        out = {**self.edb, **self.idb}
        for d in self.dist_relations:
            out[d.name] = d.arity
        return out


def dist_relation_for(rule: Rule, dists) -> DistRelation | None:
    """The distributional relation a rule populates, or None if draw-free."""
    for i, t in enumerate(rule.head.args, start=1):
        if isinstance(t, DeltaTerm):
            spec = dists.get(t.dist) if dists is not None else None
            if spec is None:
                raise GdlogError(f"unknown distribution '{t.dist}'")
            return DistRelation(
                rule.head.relation, i, t.dist, rule.head.arity, spec.pardim
            )
    return None


def _fresh_var(rule: Rule) -> str:
    taken = {v.name for v in rule.body_variables()}
    taken.update(v.name for v in rule.head_variables())
    if "y" not in taken:
        return "y"
    k = 0
    while f"y{k}" in taken:
        k += 1
    return f"y{k}"


def to_existential(g: Program) -> ExistentialProgram:
    """Build the existential program (schema, rules, FD list) for ``g``.

    Exact duplicate rules are collapsed first, so a program stays
    semantically identical under rule duplication. The rule list holds
    the translated original rules in order, then one projection rule per
    distributional relation.
    """
    report = validate_program(g)
    if not report.ok:
        raise GdlogError(f"invalid program: {report}")

    dist_relations: list = []
    by_name: dict = {}
    rules: list = []

    for r in dict.fromkeys(g.rules):
        dr = dist_relation_for(r, g.dists)
        if dr is None:
            rules.append(ExistentialRule(COPIED, r.head, r.body))
            continue
        if dr.name not in by_name:
            if dr.name in g.edb or dr.name in g.idb:
                raise GdlogError(
                    f"relation name '{dr.name}' collides with a generated name"
                )
            by_name[dr.name] = dr
            dist_relations.append(dr)
        key, delta = dr.split(r.head.args)
        y = _fresh_var(r)
        head = Atom(dr.name, dr.row(key + tuple(delta.params), Variable(y)))
        rules.append(ExistentialRule(EXISTENTIAL, head, r.body, dr, y))

    for dr in dist_relations:
        xs = tuple(Variable(f"x{i}") for i in range(1, dr.base_arity + 1))
        ps = tuple(Variable(f"p{i}") for i in range(1, dr.pardim + 1))
        head = Atom(dr.base, xs)
        body = (Atom(dr.name, xs + ps),)
        rules.append(ExistentialRule(PROJECTION, head, body, dr))

    fds = [
        FunctionalDependency(
            dr.name,
            tuple(i for i in range(1, dr.arity + 1) if i != dr.position),
            dr.position,
        )
        for dr in dist_relations
    ]
    return ExistentialProgram(
        dict(g.edb), dict(g.idb), dist_relations, rules, fds, g.dists
    )


def render_existential_rule(rule: ExistentialRule) -> str:
    body = ", ".join(render_atom(a) for a in rule.body)
    head = render_atom(rule.head)
    if rule.kind == EXISTENTIAL:
        return f"exists {rule.exist_var}: {head} :- {body}."
    return f"{head} :- {body}."


def render_existential_program(p: ExistentialProgram) -> str:
    idb = {**p.idb, **{dr.name: dr.arity for dr in p.dist_relations}}
    lines = render_declarations(p.edb, idb)
    lines.append("")
    for r in p.rules:
        lines.append(render_existential_rule(r))
    if p.fds:
        lines.append("")
        for fd in p.fds:
            lines.append(f"// fd {fd}")
    return "\n".join(lines) + "\n"
