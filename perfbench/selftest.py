"""Self-tests of the benchmark itself. Run from the root of a checkout:

    python3 perfbench/selftest.py

Checks that the generators are deterministic per seed, that every
oracle accepts gdlog's real output and rejects tampered copies of it
(a dropped fact, a flipped draw, an edited log_probability or point),
that today's code leaves no trace hook missing while a missing hook
only blanks its own metrics, and that the benchmark refuses to run
without a gdlog source tree. Exits non-zero on the first failure.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMALL = {"join": 60, "closure": 20, "exact": 3, "mc": 2000}


def check_generators():
    for w in WORKLOADS.values():
        a, b, c = (w.generate(seed, w.size) for seed in (1, 1, 2))
        assert (a.files, a.argv) == (b.files, b.argv), f"{w.name}: seed 1 differs"
        assert a.files != c.files, f"{w.name}: seeds 1 and 2 give the same files"


def _mutate(report, **changes):
    return (json.dumps({**report, **changes}, sort_keys=True) + "\n").encode()


def _flip(fact: str) -> str:
    """Flip the drawn 0/1 of an auxiliary Flip fact (second-to-last arg)."""
    head, _, params = fact.rpartition(", ")
    head, _, value = head.rpartition(", ")
    return f"{head}, {1 - int(value)}, {params}"


def tampered(name, report):
    """(description, stdout) pairs an oracle must reject."""
    if name in ("join", "closure"):
        facts = report["facts"]
        derived = next(f for f in facts if f.startswith(("Unit(", "Path(")))
        draw = next(i for i, f in enumerate(facts) if "__Flip__" in f)
        flipped = facts[:draw] + [_flip(facts[draw])] + facts[draw + 1 :]
        return [
            ("dropped fact", _mutate(report, facts=[f for f in facts if f != derived])),
            ("flipped draw", _mutate(report, facts=flipped)),
            ("edited log_probability",
             _mutate(report, log_probability=report["log_probability"] + 1e-6)),
        ]
    if name == "exact":
        return [("edited point", _mutate(report, point=report["point"] + 1e-9))]
    return [
        ("edited point", _mutate(report, point=float(report["point"] < 0.5))),
        ("budget exhausted", _mutate(report, samples_budget_exhausted=1)),
    ]


def check_oracles(work: Path):
    for name, size in SMALL.items():
        inp = WORKLOADS[name].generate(7, size)
        (work / name).mkdir(parents=True)
        for fname, text in inp.files.items():
            (work / name / fname).write_text(text)
        runner = run.Runner(work)
        assert runner.run(name, inp, trace=False) is not None, runner.failures
        stdout = runner.reference[name]
        assert oracle.check(inp, stdout) == [], name
        report = json.loads(stdout)
        assert oracle.check(inp, _mutate(report)) == [], f"{name}: re-encoding rejected"
        for what, bad in tampered(name, report):
            assert oracle.check(inp, bad), f"{name}: oracle accepted a {what}"


def check_hooks():
    sys.path.insert(0, str(ROOT / "src"))
    import spans

    tracer = spans.Tracer()
    tracer.install()
    assert not tracer.missing, f"hook targets missing: {sorted(tracer.missing)}"
    trace = {"self_s": {"chase.apply": 1.0}, "calls": {"chase.apply": 3},
             "counts": {}, "missing": ["chase.join"]}
    meta = {"run_s": 1.0, "import_s": 0.1, "trace": trace}
    results = {("full", True): [meta], ("full", False): [meta], ("half", False): [meta]}
    metrics = run.per_layer(results, [])
    assert metrics["chase.join_s"] is None and metrics["chase.join_rows"] is None
    assert metrics["chase.apply_s"] == 1.0 and metrics["chase.steps"] == 3
    other = {**meta, "trace": {**trace, "calls": {"chase.apply": 4}}}
    mismatches: list = []
    run.per_layer({**results, ("full", True): [meta, other]}, mismatches)
    assert mismatches and "chase.steps" in mismatches[0], mismatches


def check_bare_checkout(work: Path):
    bare = work / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "join", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout


def main() -> int:
    work = HERE / "_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        for check in (check_generators, check_hooks):
            check()
            print(f"ok {check.__name__}")
        for check in (check_oracles, check_bare_checkout):
            check(work)
            print(f"ok {check.__name__}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any((HERE / "_work").iterdir()):
            (HERE / "_work").rmdir()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
