"""Byte-for-byte golden outputs of the command line.

Each case runs ``gdlog.cli.main`` in-process, from the repository root,
and compares its exit code and stdout with ``tests/golden/<name>.out``.
Outputs larger than 64 KiB are stored gzip-compressed as
``<name>.out.gz``; the comparison is on the decompressed bytes. The files
pin the determinism contract, so an engine change that moves any output
byte fails here. After a deliberate change of output, regenerate with

    PYTHONPATH=src python tests/test_golden.py

and justify the new bytes in the change description.
"""
from __future__ import annotations

import contextlib
import gzip
import io
import os
import sys
from pathlib import Path

import pytest

from gdlog.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
GZIP_OVER = 64 * 1024

QUERY = 'Earthquake("Napa", 1)'

# (name, expected exit code, argv): the command-line examples of README.md
README_CASES = [
    ("check_burglar", 0, ["check", "corpus/burglar.gdl"]),
    ("check_doubling", 3, ["check", "corpus/doubling.gdl"]),
    ("check_dot_burglar", 0, ["check", "--dot", "corpus/burglar.gdl"]),
    ("translate_burglar", 0, ["translate", "corpus/burglar.gdl"]),
    ("infer_exact_burglar_ppdl", 0, [
        "infer", "corpus/burglar_ppdl.gdl", "--edb", "corpus/burglar_report.facts",
        "--query", QUERY, "--mode", "exact",
    ]),
    ("infer_mc_burglar_ppdl", 0, [
        "infer", "corpus/burglar_ppdl.gdl", "--edb", "corpus/burglar_report.facts",
        "--query", QUERY, "--mode", "mc", "--samples", "2000", "--seed", "1",
    ]),
    # exact inference beyond the fully explored case: renormalised over a
    # truncated exploration, with support pruning, and without constraints
    # (one with residual mass and a hit, one truncated with no hit)
    ("infer_exact_burglar_ppdl_nodes300", 0, [
        "infer", "corpus/burglar_ppdl.gdl", "--edb", "corpus/burglar_report.facts",
        "--query", QUERY, "--mode", "exact", "--nodes", "300",
    ]),
    ("infer_exact_burglar_ppdl_epsilon", 0, [
        "infer", "corpus/burglar_ppdl.gdl", "--edb", "corpus/burglar_report.facts",
        "--query", QUERY, "--mode", "exact", "--nodes", "300", "--epsilon", "0.2",
    ]),
    ("infer_exact_doubling_escape", 0, [
        "infer", "corpus/doubling_escape.gdl", "--edb", "corpus/escape.facts",
        "--query", "R(0, 0)", "--mode", "exact", "--nodes", "300",
    ]),
    ("infer_exact_burglar_truncated", 0, [
        "infer", "corpus/burglar.gdl", "--edb", "corpus/burglar.facts",
        "--query", QUERY, "--mode", "exact", "--nodes", "50",
    ]),
]

# every corpus program that has a facts file; the doubling and fork
# programs have infinite outcomes and run under a small step budget
CORPUS_PAIRS = [
    ("burglar", "burglar", False),
    ("burglar_ppdl", "burglar_report", False),
    ("disjunctive", "disjunctive", False),
    ("doubling", "chain", True),
    ("doubling_escape", "escape", True),
    ("fork", "chain", True),
    ("fork_escape", "escape", True),
    ("pdb", "pdb", False),
    ("visits", "visits", False),
    ("visits_base", "visits", False),
    ("visits_implied", "visits", False),
]


def _corpus_cases():
    for program, facts, bounded in CORPUS_PAIRS:
        edb = ["corpus/" + program + ".gdl", "--edb", "corpus/" + facts + ".facts"]
        yield (
            "sample_" + program,
            # the fork chain reaches Fork[p] with p past 2**52 at its 106th step
            2 if program == "fork" else 0,
            ["sample", *edb, "--seed", "7"] + (["--budget", "300"] if bounded else []),
        )
        yield (
            "enumerate_" + program,
            0,
            ["enumerate", *edb] + (["--nodes", "300"] if bounded else []),
        )


# the README's sample (burglar, seed 7) and enumerate (pdb) examples are
# among the corpus cases; a fork sample that stops at its budget, short of
# the 106th step, pins the fork chain's draws
CASES = README_CASES + list(_corpus_cases()) + [
    ("sample_fork_budget100", 0, [
        "sample", "corpus/fork.gdl", "--edb", "corpus/chain.facts",
        "--seed", "7", "--budget", "100",
    ]),
]


def _run(argv) -> tuple:
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    return code, out.getvalue().encode()


def _read_golden(name: str) -> bytes:
    plain = GOLDEN / (name + ".out")
    if plain.exists():
        return plain.read_bytes()
    return gzip.decompress((GOLDEN / (name + ".out.gz")).read_bytes())


def _write_golden(name: str, data: bytes) -> None:
    for stale in GOLDEN.glob(name + ".out*"):
        stale.unlink()
    if len(data) > GZIP_OVER:
        (GOLDEN / (name + ".out.gz")).write_bytes(gzip.compress(data, 9, mtime=0))
    else:
        (GOLDEN / (name + ".out")).write_bytes(data)


def test_case_names_are_unique():
    names = [name for name, _, _ in CASES]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("name,exit_code,argv", CASES, ids=[c[0] for c in CASES])
def test_golden_output(name, exit_code, argv):
    code, out = _run(argv)
    assert code == exit_code
    assert out == _read_golden(name)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, exit_code, argv in CASES:
        code, out = _run(argv)
        if code != exit_code:
            sys.exit(f"{name}: exit code {code}, expected {exit_code}")
        _write_golden(name, out)
        print(f"{name}: {len(out)} bytes")
