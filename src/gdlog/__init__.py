"""gdlog: a probabilistic Datalog engine.

Programs extend Datalog with rule heads that draw values from named
discrete distributions. The package parses such programs, translates
them to existential Datalog, checks weak acyclicity, runs a
probabilistic chase (seeded sampling and exact bounded enumeration),
and conditions the outcome distribution on logical constraints.

The public names below are imported from their submodules on first
use, so a command loads only the modules it runs.
"""
import importlib

# each submodule with the public names it defines
_SUBMODULES = {
    "analysis": (
        "DependencyGraph",
        "Position",
        "build_dependency_graph",
        "is_weakly_acyclic",
    ),
    "chase": (
        "BUDGET_EXHAUSTED",
        "LEAF",
        "ChaseEngine",
        "Firing",
        "Outcome",
        "Rejection",
        "applicable_firings",
        "chase_step",
        "replay_weight",
        "sample_outcome",
    ),
    "distributions": ("DistributionSpec", "DomainError", "Registry", "RngStream"),
    "enumeration": (
        "EnumerationPolicy",
        "OutcomeDistribution",
        "cylinder_mass",
        "enumerate_outcomes",
        "marginal",
        "marginal_bounds",
    ),
    "model": (
        "Atom",
        "Constant",
        "Constraint",
        "DeltaTerm",
        "Fact",
        "GdlogError",
        "IllegalInput",
        "Instance",
        "Program",
        "Rule",
        "ValidationReport",
        "Variable",
        "ground_atom",
        "validate_program",
    ),
    "parser": (
        "ParseError",
        "SourceSpan",
        "load_edb_csv",
        "parse_facts",
        "parse_program",
        "render_facts",
        "render_program",
    ),
    "ppdl": (
        "PosteriorEstimate",
        "UndeterminedLegality",
        "check_constraints",
        "estimate_posterior",
        "exact_posterior",
    ),
    "translate": (
        "DistRelation",
        "ExistentialProgram",
        "ExistentialRule",
        "dist_relation_for",
        "to_existential",
    ),
}
# public name -> the submodule that defines it
_EXPORTS = {name: module for module, names in _SUBMODULES.items() for name in names}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:  # ``gdlog.ppdl`` after a bare ``import gdlog``
        return importlib.import_module(f".{name}", __name__)
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *_SUBMODULES, *_EXPORTS})
