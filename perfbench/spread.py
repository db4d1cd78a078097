"""Run the benchmark over several seeds and summarise every metric.

Usage (from the root of a checkout):

    python3 perfbench/spread.py --seeds 1-10 [--trace 1]

Runs ``run.py`` once per workload of ``BENCHMARK.json`` and seed, one
run at a time, with its ``run_seconds``. For each workload it prints the
error rate over all commands, then per metric the median of the
per-run values, the quartiles, and the spread: the distance between the
first and third quartile as a share of the median. End-to-end metrics
also show their bound from ``BENCHMARK.json``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="e.g. 1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    for workload in (w["name"] for w in bench["workloads"]):
        values: dict = {}
        units: dict = {}
        attempted = failed = 0
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True,
            )
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(proc.stdout.splitlines()[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            if result["failed"]:
                print(proc.stdout)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        print(f"{workload}: {len(args.seeds)} runs, error_rate {failed / attempted:.6g} "
              f"({failed}/{attempted} commands)")
        for name, vals in values.items():
            vals = [v for v in vals if v is not None]
            if not vals:
                print(f"  {name:<34} missing")
                continue
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = f"  bound {bounds[name]}" if name in bounds else ""
            print(f"  {name:<34} median {med:<12.6g} {units[name]:<6} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {spread:.4f}{bound}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
