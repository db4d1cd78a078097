"""The package's public names, which it imports from its submodules on
first use."""
from __future__ import annotations

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import gdlog

# every name the package exported when it imported all its submodules
PUBLIC = {
    "analysis": [
        "DependencyGraph", "Position", "build_dependency_graph", "is_weakly_acyclic",
    ],
    "chase": [
        "BUDGET_EXHAUSTED", "LEAF", "ChaseEngine", "Firing", "Outcome", "Rejection",
        "applicable_firings", "chase_step", "replay_weight", "sample_outcome",
    ],
    "distributions": ["DistributionSpec", "DomainError", "Registry", "RngStream"],
    "enumeration": [
        "EnumerationPolicy", "OutcomeDistribution", "cylinder_mass",
        "enumerate_outcomes", "marginal", "marginal_bounds",
    ],
    "model": [
        "Atom", "Constant", "Constraint", "DeltaTerm", "Fact", "GdlogError",
        "Instance", "Program", "Rule", "ValidationReport", "Variable", "ground_atom",
        "validate_program",
    ],
    "parser": [
        "ParseError", "SourceSpan", "load_edb_csv", "parse_facts", "parse_program",
        "render_facts", "render_program",
    ],
    "ppdl": [
        "IllegalInput", "PosteriorEstimate", "UndeterminedLegality",
        "check_constraints", "estimate_posterior", "exact_posterior",
    ],
    "translate": [
        "DistRelation", "ExistentialProgram", "ExistentialRule", "dist_relation_for",
        "to_existential",
    ],
}


def test_every_public_name_resolves():
    for module, names in PUBLIC.items():
        for name in names:
            expected = getattr(importlib.import_module(f"gdlog.{module}"), name)
            assert getattr(gdlog, name) is expected, name
            assert name in dir(gdlog)


def test_star_import_gives_the_public_names():
    namespace: dict = {}
    exec("from gdlog import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(n for names in PUBLIC.values() for n in names)


def test_submodules_import():
    # in a fresh interpreter, where no submodule is loaded yet
    child = (
        "import gdlog\n"
        "from gdlog import ppdl\n"
        "print(ppdl.IllegalInput is gdlog.IllegalInput, gdlog.enumeration.__name__)\n"
    )
    env = {
        "PATH": "/usr/bin:/bin",
        "PYTHONPATH": str(Path(gdlog.__file__).resolve().parents[1]),
        "PYTHONDONTWRITEBYTECODE": "1",
    }
    proc = subprocess.run(
        [sys.executable, "-c", child], capture_output=True, text=True, env=env
    )
    assert (proc.stdout, proc.stderr) == ("True gdlog.enumeration\n", "")


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'gdlog' has no attribute 'nope'"):
        gdlog.nope
