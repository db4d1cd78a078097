"""The record classes as ``dataclasses`` defined them, before ``model._Record``.

Differential oracle for ``tests/test_records.py``: each class keeps the
old decorator, its fields with their defaults and ``compare=False``
flags, and the methods that change what a record does on construction,
comparison, hashing or ``repr`` (``__post_init__``, ``__repr__``,
``__bool__``). Other methods are left out; the new classes keep them.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from gdlog.model import GdlogError


@dataclass(frozen=True)
class Variable:
    name: str

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"


@dataclass(frozen=True)
class DeltaTerm:
    dist: str
    params: tuple

    def __repr__(self) -> str:
        return f"DeltaTerm({self.dist!r}, {self.params!r})"


@dataclass(frozen=True)
class Atom:
    relation: str
    args: tuple


@dataclass(frozen=True)
class Rule:
    head: Atom
    body: tuple


@dataclass(frozen=True)
class Constraint:
    body: tuple
    head: Atom | None


@dataclass(frozen=True)
class Fact:
    relation: str
    args: tuple


@dataclass(frozen=True)
class Program:
    edb: dict
    idb: dict
    rules: list
    constraints: list
    dists: object = field(compare=False, default=None)


@dataclass(frozen=True)
class Diagnostic:
    scope: str
    index: int | None
    reason: str


@dataclass(frozen=True)
class ValidationReport:
    diagnostics: tuple


@dataclass(frozen=True)
class SourceSpan:
    file: str
    line: int
    col: int


@dataclass(frozen=True)
class DistRelation:
    base: str
    position: int
    dist: str
    base_arity: int
    pardim: int


@dataclass(frozen=True)
class FunctionalDependency:
    relation: str
    determinants: tuple
    dependent: int


@dataclass(frozen=True)
class ExistentialRule:
    kind: str
    head: Atom
    body: tuple
    distrel: DistRelation | None = None
    exist_var: str | None = None


@dataclass
class ExistentialProgram:
    edb: dict
    idb: dict
    dist_relations: list
    rules: list
    fds: list
    dists: object


@dataclass(frozen=True)
class Firing:
    rule_index: int
    binding_items: tuple


@dataclass(frozen=True)
class Rejection:
    reason: str

    def __bool__(self) -> bool:
        return False


@dataclass(frozen=True)
class Outcome:
    facts: frozenset
    log_probability: float
    terminated: str


@dataclass(frozen=True)
class DistributionSpec:
    name: str
    pardim: int
    finite_support: bool
    _pmf: Callable = field(compare=False)
    _support: Callable = field(compare=False)
    _param_problem: Callable = field(compare=False)


@dataclass(frozen=True)
class EnumerationPolicy:
    mass_epsilon: float = 0.0
    node_budget: int = 1_000_000
    support_mass_target: float = 1.0 - 1e-6
    order: str = "fifo"
    order_seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.mass_epsilon < 1.0):
            raise GdlogError("mass_epsilon must be in [0, 1)")
        if self.node_budget < 1:
            raise GdlogError("node_budget must be >= 1")
        if not (0.0 < self.support_mass_target <= 1.0):
            raise GdlogError("support_mass_target must be in (0, 1]")


@dataclass(frozen=True)
class OutcomeDistribution:
    entries: tuple
    explored_mass: float
    residual_mass: float


@dataclass(frozen=True)
class ConstraintReport:
    satisfied: bool
    violations: tuple


@dataclass(frozen=True)
class PosteriorEstimate:
    query: Fact
    point: float | None
    std_error: float | None
    samples_total: int
    samples_accepted: int
    samples_budget_exhausted: int
    seed: int


@dataclass(frozen=True)
class DependencyGraph:
    nodes: frozenset
    normal_edges: frozenset
    special_edges: frozenset


@dataclass(frozen=True)
class WeakAcyclicityResult:
    weakly_acyclic: bool
    witness: tuple | None

    def __bool__(self) -> bool:
        return self.weakly_acyclic
