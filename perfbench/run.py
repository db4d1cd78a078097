"""gdlog benchmark: one workload, one seed, a fixed measuring time.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload join --seed 1 --seconds 20 --trace 0

The run generates the workload's inputs from ``--seed`` into a scratch
directory inside ``perfbench/``, then starts one fresh interpreter after
another (``child.py``), each running the same ``gdlog.cli.main`` call the
``gdlog`` command makes, until ``--seconds`` have passed. One warm-up
command, whose timings are discarded, writes the bytecode cache first.
Every command's stdout is checked against an engine-free oracle
(``oracle.py``) and must be byte-identical to the warm-up's; a command
that fails either check, or exits non-zero, counts as failed.

With ``--trace 0`` the last stdout line reports the end-to-end metrics,
each the median over the timed commands: ``setup_s``, ``run_s`` and
``peak_rss_mb``. ``error_rate`` (failed / attempted) is printed above it
and carried by the ``attempted`` and ``failed`` fields.

Times are wall times in seconds of a reference-speed machine. A shared
machine runs the same command up to twice as slowly for seconds at a
time, so this process times two reference tasks (``calibrate``) just
before it starts each command and just after the command ends: a loop
of dict and set work, which scales ``run_s``, and a fresh interpreter
importing numpy, which scales ``setup_s``. Each time is scaled by its
reference constant over the task's mean time around the command. The
references run outside the command's process, so they leave no trace
in its memory. The unscaled medians are printed above the last line.

With ``--trace 1`` the commands alternate between a traced one (hooks
from ``spans.py`` on every module boundary), an untraced one, and an
untraced one at half the workload's size. The last line reports the
per-layer metrics: self times are medians over the traced commands;
counts and ratios come from the traced commands and must agree exactly
between them (a disagreement makes the run incorrect, but is not a
failed command). ``chase.growth_per_doubling`` is the untraced ``run_s`` at full
size over that at half size, and ``trace.overhead`` the traced
``run_s`` over the untraced one. A metric whose hook target no longer
exists is reported with value null.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
from child import MARK  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CHILD_TIMEOUT_S = 120
# reference-task times (see ``calibrate``) that define reference speed
LOOP_REF_S = 0.040
IMPORT_REF_S = 0.15
MIN_TIMED = 5  # timed commands per kind, even when --seconds runs out first
GRACE_S = 60  # how far past --seconds a run may go to reach MIN_TIMED
END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}


def _self(name):
    return (lambda t: t["self_s"].get(name, 0.0)), "s", (name,)


def _calls(name):
    return (lambda t: t["calls"].get(name, 0)), "count", (name,)


def _count(counter, name):
    return (lambda t: t["counts"].get(counter, 0)), "count", (name,)


def _ratio(num, den):
    return lambda t: num(t) / den(t) if den(t) else 0.0


# per-layer metric -> (value from one traced command, unit, hooks it needs)
LAYER_METRICS = {
    "chase.join_s": _self("chase.join"),
    "chase.join_calls": _calls("chase.join"),
    "chase.join_rows": _count("chase.join_rows", "chase.join"),
    "chase.pops": _calls("chase.pops"),
    "chase.steps": _calls("chase.apply"),
    "chase.stale_pop_ratio": (
        _ratio(
            lambda t: t["calls"].get("chase.pops", 0) - t["counts"].get("chase.pop_useful", 0),
            lambda t: t["calls"].get("chase.pops", 0),
        ),
        "ratio",
        ("chase.pops", "chase.pop"),
    ),
    "chase.pop_s": _self("chase.pop"),
    "chase.apply_s": _self("chase.apply"),
    "chase.seed_s": _self("chase.seed"),
    "chase.copy_s": _self("chase.copy"),
    "chase.copies": _calls("chase.copy"),
    "chase.mass_s": _self("chase.mass"),
    "chase.mass_calls": _calls("chase.mass"),
    "distributions.rng_init_s": _self("distributions.rng_init"),
    "distributions.streams": _calls("distributions.rng_init"),
    "distributions.sample_calls": _calls("distributions.sample"),
    "distributions.pmf_calls": _calls("distributions.pmf"),
    "distributions.check_params_calls": _calls("distributions.check_params"),
    "distributions.support_s": _self("distributions.support"),
    "enumeration.self_s": _self("enumeration"),
    "enumeration.leaves": _count("enumeration.leaves", "enumeration"),
    "enumeration.branches": _count("enumeration.branches", "distributions.support"),
    "ppdl.constraint_s": _self("ppdl.constraint"),
    "ppdl.constraint_checks": _calls("ppdl.constraint"),
    "ppdl.accept_ratio": (
        _ratio(
            lambda t: t["counts"].get("ppdl.accepted", 0),
            lambda t: t["calls"].get("ppdl.constraint", 0),
        ),
        "ratio",
        ("ppdl.constraint",),
    ),
    "ppdl.driver_s": _self("ppdl.driver"),
    "cli.emit_s": _self("cli.emit"),
    "parser.s": _self("parser"),
    "parser.facts": _count("parser.facts", "parser"),
    "model.validate_s": _self("model.validate"),
    "translate.s": _self("translate"),
}
LAYER_UNITS = {
    **{name: unit for name, (_, unit, _) in LAYER_METRICS.items()},
    "cli.import_s": "s",
    "chase.growth_per_doubling": "ratio",
    "trace.overhead": "ratio",
}


def calibrate() -> tuple:
    """Times of two fixed reference tasks that run no gdlog code.

    Shared machines change speed for seconds at a time, and these tasks
    slow down with them. ``loop`` fills a dict of sets of tuples, copies
    part of it, and counts keys in a small dict: the engine's kind of
    work, so it tracks ``run_s``. ``import`` is a fresh interpreter that
    imports numpy and exits. Set-up is almost all import, which the loop
    does not track (scaled by the loop, the ``setup_s`` medians of two
    sets of runs of the same code differed by a third), so it scales
    set-up.
    """
    start = time.perf_counter()
    rows: dict = {}
    for i in range(60000):
        rows.setdefault(i % 5003, set()).add((i, str(i % 311), float(i)))
    copies = [{k: set(v) for k, v in list(rows.items())[:1500]} for _ in range(3)]
    counts: dict = {}
    for i in range(20000):
        key = (i % 97, i % 89, len(copies))
        counts[key] = counts.get(key, 0) + 1
    loop_s = time.perf_counter() - start
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)
    return loop_s, time.perf_counter() - start


class Runner:
    """Starts the child commands and checks every output."""

    def __init__(self, work: Path):
        self.work = work
        self.attempted = 0
        self.failures: list = []
        self.reference: dict = {}  # input key -> first stdout seen
        self.problems: dict = {}  # input key -> oracle problems with that stdout
        self.calib = None  # the last calibration, if no other work followed it

    def run(self, key: str, inp, trace: bool):
        """One command on input ``key``; its measurements, or None if it failed."""
        self.attempted += 1
        spec = json.dumps({"argv": inp.argv, "trace": trace})
        env = dict(os.environ, PYTHONHASHSEED=str(self.attempted))
        before = self.calib or calibrate()
        self.calib = None
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), spec],
                cwd=self.work / key, env=env, capture_output=True,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return self._fail(key, f"timed out after {CHILD_TIMEOUT_S} s")
        after = self.calib = calibrate()
        stdout, mark, meta = proc.stdout.rpartition(("\n" + MARK).encode())
        if proc.returncode != 0 or not mark:
            err = proc.stderr.decode(errors="replace").strip().splitlines()
            return self._fail(key, f"exit code {proc.returncode}: {err[-1:] or ''}")
        if key not in self.reference:
            self.reference[key] = stdout
            self.problems[key] = oracle.check(inp, stdout)
            self.calib = None  # the oracle ran since
        elif stdout != self.reference[key]:
            return self._fail(key, "stdout differs from the first run on the same input")
        if self.problems[key]:
            return self._fail(key, "; ".join(self.problems[key][:3]))
        return _scaled(json.loads(meta), before, after)

    def _fail(self, key, reason):
        self.failures.append(f"{key}: {reason}")
        return None


def _scaled(meta: dict, before: tuple, after: tuple) -> dict:
    """Scale a command's times to reference speed; keep the wall times.

    Set-up and import times are scaled by the mean import reference
    around the command, all other times by the mean loop reference.
    """
    loop = LOOP_REF_S / ((before[0] + after[0]) / 2)
    imp = IMPORT_REF_S / ((before[1] + after[1]) / 2)
    meta["wall"] = {name: meta[name] for name in ("setup_s", "run_s")}
    meta["setup_s"] *= imp
    meta["import_s"] *= imp
    meta["run_s"] *= loop
    if "trace" in meta:
        t = meta["trace"]
        t["self_s"] = {name: v * loop for name, v in t["self_s"].items()}
    return meta


def measure(workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    inputs = {"full": workload.generate(seed, workload.size)}
    if trace:
        inputs["half"] = workload.generate(seed, workload.size // 2)
    for key, inp in inputs.items():
        (work / key).mkdir(parents=True)
        for name, text in inp.files.items():
            (work / key / name).write_text(text)
    runner = Runner(work)
    for key, inp in inputs.items():
        runner.run(key, inp, trace=False)  # warm-up

    kinds = [("full", False)]
    if trace:
        kinds = [("full", True), ("full", False), ("half", False)]
    results = {kind: [] for kind in kinds}
    deadline = time.perf_counter() + seconds
    while True:
        for key, traced in kinds:
            meta = runner.run(key, inputs[key], traced)
            if meta is not None:
                results[(key, traced)].append(meta)
        now = time.perf_counter()
        enough = min(len(r) for r in results.values()) >= MIN_TIMED
        if now >= deadline and (enough or runner.failures or now >= deadline + GRACE_S):
            break
    return {
        "inputs": inputs,
        "results": results,
        "attempted": runner.attempted,
        "failures": runner.failures,
    }


def _median(values):
    return statistics.median(values) if values else None


def end_to_end(results) -> dict:
    runs = results[("full", False)]
    return {name: _median([r[name] for r in runs]) for name in END_TO_END_UNITS}


def per_layer(results, mismatches: list) -> dict:
    traces = [r["trace"] for r in results[("full", True)]]
    missing = set(traces[0]["missing"]) if traces else set()
    out = {}
    for name, (value, unit, needs) in LAYER_METRICS.items():
        if not traces or missing.intersection(needs):
            out[name] = None
            continue
        values = [value(t) for t in traces]
        if unit == "s":
            out[name] = statistics.median(values)
        else:
            out[name] = values[0]
            if len(set(values)) != 1:
                mismatches.append(f"{name} differs between traced runs: {sorted(set(values))}")
    traced = _median([r["run_s"] for r in results[("full", True)]])
    full = _median([r["run_s"] for r in results[("full", False)]])
    half = _median([r["run_s"] for r in results[("half", False)]])
    out["cli.import_s"] = _median([r["import_s"] for r in results[("full", True)]])
    out["chase.growth_per_doubling"] = full / half if full and half else None
    out["trace.overhead"] = traced / full if traced and full else None
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "gdlog" / "__init__.py").is_file():
        print(f"error: no gdlog source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        m = measure(workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if (HERE / "_work").is_dir() and not any((HERE / "_work").iterdir()):
            (HERE / "_work").rmdir()

    results, failures = m["results"], m["failures"]
    timed = len(results[("full", bool(args.trace))])
    print(f"workload {workload.name} ({m['inputs']['full'].size}), seed {args.seed}: "
          f"{m['attempted']} commands, {timed} timed")
    mismatches: list = []
    if args.trace:
        metrics, units = per_layer(results, mismatches), LAYER_UNITS
    else:
        metrics, units = end_to_end(results), END_TO_END_UNITS
        for name in ("setup_s", "run_s"):
            wall = _median([r["wall"][name] for r in results[("full", False)]])
            if wall is not None:
                print(f"  {name + ' (unscaled wall)':<34} {wall:.6g} s")
    for reason in failures:
        print(f"  FAILED {reason}")
    for reason in mismatches:
        print(f"  INCORRECT {reason}")
    print(f"  {'error_rate':<34} {len(failures) / m['attempted']:.6g} ratio "
          f"({len(failures)}/{m['attempted']})")
    for name, value in metrics.items():
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"  {name:<34} {shown} {units[name]}")
    if not all(results.values()):
        print("error: a kind of command never succeeded", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not failures and not mismatches,
        "attempted": m["attempted"],
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
