"""Command-line front end.

Exit codes: 0 success, 1 parse/validation error, 2 runtime domain
error, 3 not weakly acyclic (check only), 4 illegal input (infer only).
Reports go to stdout as stable JSON (or text where noted); diagnostics
go to stderr. Output is byte-identical for identical inputs, flags, and
seed.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

# analysis, enumeration and ppdl are imported inside the commands that run
# them, so that sample and translate do not load them
from .chase import ChaseEngine
from .distributions import DomainError, Registry, RngStream
from .model import GdlogError, IllegalInput, validate_program
from .parser import (
    load_edb_csv,
    parse_fact_literal,
    parse_facts,
    parse_program,
    render_fact,
    render_rows,
)
from .translate import render_existential_program, to_existential

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_RUNTIME = 2
EXIT_CYCLIC = 3
EXIT_ILLEGAL = 4


def _log(message: str) -> None:
    # GDLOG_LOG controls stderr verbosity only; results never depend on it
    if os.environ.get("GDLOG_LOG"):
        print(f"gdlog: {message}", file=sys.stderr)


def _build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gdlog",
        description="Probabilistic Datalog: analyze, translate, sample, "
        "enumerate, and infer.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("program", help="path to the .gdl program")
        sp.add_argument(
            "--edb",
            action="append",
            default=[],
            metavar="SRC",
            help="fact file path, or Rel=path.csv for a header-less CSV "
            "when the text before the first '=' is an identifier; repeatable",
        )

    sp = sub.add_parser("check", help="decide weak acyclicity")
    common(sp)
    sp.add_argument("--dot", action="store_true", help="emit the dependency graph in DOT")

    sp = sub.add_parser("translate", help="print the existential program")
    common(sp)

    sp = sub.add_parser("sample", help="sample one possible outcome")
    common(sp)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--budget", type=int, default=1_000_000, metavar="N")

    sp = sub.add_parser("enumerate", help="enumerate the outcome distribution")
    common(sp)
    sp.add_argument("--epsilon", type=float, default=0.0, metavar="E")
    sp.add_argument("--nodes", type=int, default=1_000_000, metavar="N")
    sp.add_argument(
        "--support-mass", type=float, default=1.0 - 1e-6, metavar="M",
        help="per-node support coverage for infinite supports",
    )

    sp = sub.add_parser("infer", help="posterior probability of a query fact")
    common(sp)
    sp.add_argument("--query", required=True, metavar="FACT")
    sp.add_argument("--mode", choices=["exact", "mc"], default="exact")
    sp.add_argument("--samples", type=int, default=10_000, metavar="N")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--budget", type=int, default=1_000_000, metavar="N")
    sp.add_argument("--epsilon", type=float, default=0.0, metavar="E")
    sp.add_argument("--nodes", type=int, default=1_000_000, metavar="N")
    return ap


def _load_program(args):
    dists = Registry.with_demo_distributions()
    path = Path(args.program)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as e:
        raise GdlogError(f"{path}: {e}") from e
    program = parse_program(text, dists, str(path))
    report = validate_program(program)
    if not report.ok:
        raise GdlogError(f"{path}: invalid program: {report}")
    _log(
        f"loaded {path}: {len(program.rules)} rules, "
        f"{len(program.constraints)} constraints"
    )
    return program


def _load_edb(args, program):
    facts = set()
    for src in args.edb:
        try:
            rel, eq, csv_path = src.partition("=")
            if eq and rel.isidentifier():
                with open(csv_path, newline="", encoding="utf-8-sig") as fh:
                    facts |= load_edb_csv(rel, fh, program.edb)
            else:
                text = Path(src).read_text(encoding="utf-8-sig")
                facts |= parse_facts(text, program.edb, src)
        except UnicodeDecodeError as e:
            raise GdlogError(f"{src}: {e}") from e
    _log(f"loaded {len(facts)} input facts")
    return frozenset(facts)


def _facts_json(rows_by_rel) -> list:
    return render_rows(rows_by_rel)


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _cmd_check(args) -> int:
    from .analysis import build_dependency_graph, is_weakly_acyclic, to_dot

    program = _load_program(args)
    result = is_weakly_acyclic(program)
    if args.dot:
        sys.stdout.write(to_dot(build_dependency_graph(program)))
    if result.weakly_acyclic:
        if not args.dot:
            print("WEAKLY-ACYCLIC")
        return EXIT_OK
    if not args.dot:
        print("NOT-WEAKLY-ACYCLIC")
        for e in result.witness:
            print(f"  {e}")
    return EXIT_CYCLIC


def _cmd_translate(args) -> int:
    program = _load_program(args)
    sys.stdout.write(render_existential_program(to_existential(program)))
    return EXIT_OK


def _cmd_sample(args) -> int:
    program = _load_program(args)
    input_facts = _load_edb(args, program)
    engine = ChaseEngine(to_existential(program))
    # the outcome is rendered from the chase rows: no Fact is built
    state = engine.initial_state(input_facts)
    terminated = engine.run(state, RngStream(args.seed, 0), args.budget)
    _emit(
        {
            "facts": _facts_json(state.facts),
            "log_probability": engine.canonical_log_mass(state),
            "terminated": terminated,
        }
    )
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    from .enumeration import EnumerationPolicy, _explore, _ordered

    program = _load_program(args)
    input_facts = _load_edb(args, program)
    policy = EnumerationPolicy(
        mass_epsilon=args.epsilon,
        node_budget=args.nodes,
        support_mass_target=args.support_mass,
    )
    leaves, explored, residual, _ = _explore(program, input_facts, policy)
    _emit(
        {
            "outcomes": [
                {"facts": _facts_json(rows), "probability": p}
                for rows, p, _ in _ordered(leaves)
            ],
            "explored_mass": explored,
            "residual_mass": residual,
        }
    )
    return EXIT_OK


def _cmd_infer(args) -> int:
    from .enumeration import EnumerationPolicy
    from .ppdl import _exact_bounds, estimate_posterior

    program = _load_program(args)
    input_facts = _load_edb(args, program)
    query = parse_fact_literal(args.query, {**program.edb, **program.idb})
    if args.mode == "mc":
        if args.seed is None:
            raise GdlogError("--seed is required with --mode mc")
        est = estimate_posterior(
            program, input_facts, query, args.samples, args.seed, args.budget
        )
        report = est._asdict()
    else:
        policy = EnumerationPolicy(mass_epsilon=args.epsilon, node_budget=args.nodes)
        report = _exact_bounds(program, input_facts, query, policy)._asdict()
    _emit({**report, "mode": args.mode, "query": render_fact(query)})
    return EXIT_OK


_COMMANDS = {
    "check": _cmd_check,
    "translate": _cmd_translate,
    "sample": _cmd_sample,
    "enumerate": _cmd_enumerate,
    "infer": _cmd_infer,
}


def main(argv=None) -> int:
    args = _build_arg_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        code = _COMMANDS[args.command](args)
    except (GdlogError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        if isinstance(e, IllegalInput):
            return EXIT_ILLEGAL
        return EXIT_RUNTIME if isinstance(e, DomainError) else EXIT_INPUT
    _log(f"{args.command} finished in {time.perf_counter() - started:.3f}s")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
