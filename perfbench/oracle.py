"""Engine-free oracles for the benchmark's command outputs.

``check(inp, stdout)`` returns a list of problems; an empty list means
the output is correct. ``sample`` outputs are checked with a small
semi-naive evaluator of the workload's rules, using the drawn values
the output itself contains; ``infer`` outputs against a brute-force
posterior over every Earthquake and Burglary assignment.
"""
from __future__ import annotations

import itertools
import json
import math
import re
import sys

_TOKEN = re.compile(r'"((?:[^"\\]|\\.)*)"|([^,\s()]+)')


def parse_fact(text: str):
    """``Rel(c1, ..., cn)`` as printed by gdlog -> (relation, args tuple)."""
    rel, _, rest = text.partition("(")
    args = []
    for s, other in _TOKEN.findall(rest.rstrip(")")):
        if other:
            args.append(float(other))
        else:
            args.append(re.sub(r"\\(.)", r"\1", s))
    return rel, tuple(args)


def flip_pmf(value: float, p: float) -> float:
    return p if value == 1.0 else (1.0 - p if value == 0.0 else 0.0)


def _draw_position(head):
    for i, t in enumerate(head[1]):
        if isinstance(t, tuple):
            return i
    return None


def aux_relation(head) -> str | None:
    """Name gdlog gives the relation holding a rule's draws."""
    i = _draw_position(head)
    return None if i is None else f"{head[0]}__{head[1][i][0]}__{i + 1}"


def _match(terms, row, binding):
    out = dict(binding)
    for t, v in zip(terms, row):
        if isinstance(t, str):
            if out.setdefault(t, v) != v:
                return None
        elif t != v:
            return None
    return out


class _Db:
    """Fact sets with hash indexes on bound positions, grown in place."""

    def __init__(self):
        self.rows: dict = {}
        self.indexes: dict = {}  # (rel, positions) -> {key: [rows]}

    def add(self, rel, row) -> bool:
        rows = self.rows.setdefault(rel, set())
        if row in rows:
            return False
        rows.add(row)
        for (r, pos), idx in self.indexes.items():
            if r == rel:
                idx.setdefault(tuple(row[i] for i in pos), []).append(row)
        return True

    def lookup(self, rel, pos, key):
        idx = self.indexes.get((rel, pos))
        if idx is None:
            idx = self.indexes[(rel, pos)] = {}
            for row in self.rows.get(rel, ()):
                idx.setdefault(tuple(row[i] for i in pos), []).append(row)
        return idx.get(key, ())

    def join(self, atoms, binding):
        if not atoms:
            yield binding
            return
        rel, terms = atoms[0]
        pos = tuple(
            i for i, t in enumerate(terms) if not isinstance(t, str) or t in binding
        )
        key = tuple(binding[terms[i]] if isinstance(terms[i], str) else terms[i] for i in pos)
        for row in list(self.lookup(rel, pos, key)):
            b = _match(terms, row, binding)
            if b is not None:
                yield from self.join(atoms[1:], b)


def evaluate(rules, edb, draws):
    """Least model of ``rules`` over ``edb``; every distributional firing
    takes its value from ``draws[(aux relation, key)]``.

    Returns (facts as a set of (relation, args), problems).
    """
    db = _Db()
    problems = []
    delta = [f for f in edb if db.add(*f)]
    while delta:
        by_rel: dict = {}
        for rel, row in delta:
            by_rel.setdefault(rel, []).append(row)
        derived = []
        for head, body in rules:
            for i, (rel, terms) in enumerate(body):
                for row in by_rel.get(rel, ()):
                    start = _match(terms, row, {})
                    if start is None:
                        continue
                    for b in db.join(body[:i] + body[i + 1 :], start):
                        derived.extend(_fire(head, b, draws, problems))
        delta = [f for f in derived if db.add(*f)]
    facts = {(rel, row) for rel, rows in db.rows.items() for row in rows}
    return facts, problems


def _fire(head, binding, draws, problems):
    vals = [binding[t] if isinstance(t, str) else t for t in head[1]]
    i = _draw_position(head)
    if i is None:
        return [(head[0], tuple(vals))]
    param = binding[head[1][i][1]] if isinstance(head[1][i][1], str) else head[1][i][1]
    aux = aux_relation(head)
    key = tuple(vals[:i] + vals[i + 1 :]) + (param,)
    value = draws.get((aux, key))
    if value is None:
        problems.append(f"not closed: no draw of {aux} at {key}")
        return []
    row = tuple(vals[:i]) + (value,) + tuple(vals[i + 1 :])
    return [(head[0], row), (aux, row + (param,))]


def check_model(inp, report: dict) -> list:
    """A ``sample`` report against the least model given its own draws."""
    problems = []
    if report.get("terminated") != "leaf":
        problems.append(f"terminated is {report.get('terminated')!r}, not 'leaf'")
    out = [parse_fact(f) for f in report["facts"]]
    facts = set(out)
    if len(facts) != len(out):
        problems.append("duplicate facts in the output")
    draws: dict = {}
    logs = []
    aux_position = {aux_relation(h): _draw_position(h) for h, _ in inp.rules}
    aux_position.pop(None, None)
    for aux, i in aux_position.items():
        for rel, args in facts:
            if rel != aux:
                continue
            key = args[:i] + args[i + 1 :]
            if draws.setdefault((aux, key), args[i]) != args[i]:
                problems.append(f"two values drawn for {aux} at {key}")
            pmf = flip_pmf(args[i], args[-1])
            if pmf <= 0.0:
                problems.append(f"draw {args} of {aux} has no mass")
            else:
                logs.append(math.log(pmf))
    model, missing = evaluate(inp.rules, inp.edb, draws)
    problems += missing
    for rel, args in sorted(facts - model, key=repr)[:3]:
        problems.append(f"underivable fact {rel}{args}")
    for rel, args in sorted(model - facts, key=repr)[:3]:
        problems.append(f"not closed: missing {rel}{args}")
    expected = math.fsum(logs)
    lp = report["log_probability"]
    # bound on the rounding error of summing the terms in any order
    tolerance = len(logs) * sys.float_info.epsilon * math.fsum(map(abs, logs))
    if not abs(lp - expected) <= tolerance:
        problems.append(f"log_probability {lp!r}, summed log-pmf {expected!r}")
    if any(head[0] == "Path" for head, _ in inp.rules):
        problems += _check_paths(facts)
    return problems


def _check_paths(facts) -> list:
    """Path must be exactly the reachability of the Open edges drawn 1."""
    succ: dict = {}
    for rel, args in facts:
        if rel == "Open" and args[2] == 1.0:
            succ.setdefault(args[0], []).append(args[1])
    reach = set()
    for x in succ:
        seen, todo = set(), list(succ[x])
        while todo:
            y = todo.pop()
            if y not in seen:
                seen.add(y)
                todo.extend(succ.get(y, ()))
        reach |= {(x, y) for y in seen}
    paths = {args for rel, args in facts if rel == "Path"}
    if paths != reach:
        return [f"Path differs from BFS reachability: {len(paths)} vs {len(reach)} pairs"]
    return []


def brute_posterior(rates, unit_city, reported, query_unit) -> float:
    """P(Burglary of query_unit | every reported unit has an alarm)."""
    num, den = [], []
    for quakes in itertools.product((0, 1), repeat=len(rates)):
        pe = math.prod(0.01 if e else 1.0 - 0.01 for e in quakes)
        for burgl in itertools.product((0, 1), repeat=len(unit_city)):
            w = pe * math.prod(
                rates[c] if b else 1.0 - rates[c] for b, c in zip(burgl, unit_city)
            )
            for u in reported:
                w *= 1.0 - (1.0 - 0.6 * quakes[unit_city[u]]) * (1.0 - 0.9 * burgl[u])
            den.append(w)
            if burgl[query_unit]:
                num.append(w)
    return math.fsum(num) / math.fsum(den)


def check_posterior(inp, report: dict) -> list:
    """An ``infer`` report against the brute-force posterior."""
    post = inp.posterior
    truth = brute_posterior(post["rates"], post["unit_city"], post["reported"], post["query_unit"])
    problems = []
    if report["mode"] != post["mode"]:
        problems.append(f"mode {report['mode']!r}, asked {post['mode']!r}")
    if post["mode"] == "exact":
        for key in ("point", "point_upper"):
            if not abs(report[key] - truth) <= 1e-12:
                problems.append(f"{key} {report[key]!r}, brute-force posterior {truth!r}")
        return problems
    if report["samples_budget_exhausted"] != 0:
        problems.append(f"{report['samples_budget_exhausted']} samples exhausted the budget")
    if report["samples_total"] != post["samples"]:
        problems.append(f"samples_total {report['samples_total']}, asked {post['samples']}")
    point, accepted = report["point"], report["samples_accepted"]
    if point is None or accepted < 1:
        problems.append("no accepted sample")
    else:
        sigma = math.sqrt(truth * (1.0 - truth) / accepted)
        if not abs(point - truth) <= 4.0 * sigma:
            problems.append(f"point {point!r} is beyond 4 sigma of {truth!r} ({accepted} accepted)")
    return problems


def check(inp, stdout: bytes) -> list:
    """Problems with one command's stdout; empty if it is correct."""
    lines = stdout.decode().splitlines()
    if len(lines) != 1:
        return [f"expected one JSON line on stdout, got {len(lines)}"]
    try:
        report = json.loads(lines[0])
        if inp.oracle == "model":
            return check_model(inp, report)
        return check_posterior(inp, report)
    except (ValueError, KeyError, TypeError, IndexError) as e:
        return [f"malformed report: {e!r}"]
