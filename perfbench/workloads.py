"""Seeded input generators for the benchmark workloads.

Every workload turns ``(seed, size)`` into the files gdlog reads (a
``.gdl`` program and a ``.facts`` EDB), the CLI arguments that run them,
and the structured data the oracles in ``oracle.py`` need. The same seed
and size always give byte-identical files. The engine only ever sees the
generated files; the oracles never call the engine.

Programs are kept here as data, so the oracles can evaluate them
without gdlog's parser. A term is a variable name (``str``), a number
(``float``), or a draw ``(distribution, parameter term)``; an atom is
``(relation, terms)``; a rule is ``(head atom, body atoms)``; a
constraint is ``(body atoms, head atom)``.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

# The burglar model of corpus/burglar.gdl, with the observation
# constraints of corpus/burglar_ppdl.gdl.
BURGLAR_EDB = (("House", 2), ("Business", 2), ("City", 2), ("AlarmOn", 1))
BURGLAR_IDB = (("Earthquake", 2), ("Unit", 2), ("Burglary", 3), ("Trig", 2), ("Alarm", 1))
BURGLAR_RULES = (
    (("Earthquake", ("c", ("Flip", 0.01))), (("City", ("c", "r")),)),
    (("Unit", ("h", "c")), (("House", ("h", "c")),)),
    (("Unit", ("b", "c")), (("Business", ("b", "c")),)),
    (("Burglary", ("x", "c", ("Flip", "r"))), (("Unit", ("x", "c")), ("City", ("c", "r")))),
    (("Trig", ("x", ("Flip", 0.6))), (("Unit", ("x", "c")), ("Earthquake", ("c", 1.0)))),
    (("Trig", ("x", ("Flip", 0.9))), (("Burglary", ("x", "c", 1.0)),)),
    (("Alarm", ("x",)), (("Trig", ("x", 1.0)),)),
)
PPDL_EDB = BURGLAR_EDB + (("ReportHAlarm", 1), ("ReportBAlarm", 1))
PPDL_CONSTRAINTS = (
    ((("ReportHAlarm", ("h",)),), ("Alarm", ("h",))),
    ((("ReportBAlarm", ("b",)),), ("Alarm", ("b",))),
)

# Transitive closure over the edges that a Flip keeps open.
CLOSURE_EDB = (("Edge", 2),)
CLOSURE_IDB = (("Open", 3), ("Path", 2))
CLOSURE_RULES = (
    (("Open", ("x", "y", ("Flip", 0.9))), (("Edge", ("x", "y")),)),
    (("Path", ("x", "y")), (("Open", ("x", "y", 1.0)),)),
    (("Path", ("x", "z")), (("Path", ("x", "y")), ("Open", ("y", "z", 1.0)))),
)


def format_constant(c) -> str:
    """Constants as gdlog prints them: integral numbers without a point."""
    if isinstance(c, str):
        return '"' + c.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if math.isfinite(c) and c == math.floor(c) and abs(c) < 1e16:
        return str(int(c))
    return repr(c)


def _term(t) -> str:
    if isinstance(t, tuple):
        return f"{t[0]}[{_term(t[1])}]"
    if isinstance(t, str):
        return t
    return format_constant(t)


def _atom(a) -> str:
    return f"{a[0]}({', '.join(_term(t) for t in a[1])})"


def render_program(edb, idb, rules, constraints=()) -> str:
    lines = [f"edb {r}/{n}." for r, n in edb] + [f"idb {r}/{n}." for r, n in idb]
    lines.append("")
    lines += [f"{_atom(h)} :- {', '.join(_atom(b) for b in body)}." for h, body in rules]
    if constraints:
        lines.append("")
        lines += [
            f"{', '.join(_atom(b) for b in body)} => {_atom(h)}." for body, h in constraints
        ]
    return "\n".join(lines) + "\n"


def render_facts(facts) -> str:
    return "".join(
        f"{rel}({', '.join(format_constant(c) for c in args)}).\n" for rel, args in facts
    )


@dataclass
class Input:
    """One generated input: files, CLI arguments, and oracle data."""

    files: dict  # file name -> text
    argv: list  # gdlog CLI arguments; file names are relative to the input dir
    size: str  # human-readable input size
    rules: tuple
    edb: list  # of (relation, args tuple)
    oracle: str  # "model" or "posterior"
    posterior: dict = field(default_factory=dict)  # data for the posterior oracle


def _rate(rng: random.Random) -> float:
    return rng.randint(5, 50) / 1000


def gen_join(seed: int, n: int) -> Input:
    """``sample`` on the burglar model with n cities, n houses, n/2 businesses."""
    rng = random.Random(f"join:{seed}:{n}")
    facts = [("City", (f"C{i}", _rate(rng))) for i in range(n)]
    facts += [("House", (f"H{i}", f"C{rng.randrange(n)}")) for i in range(n)]
    facts += [("Business", (f"B{i}", f"C{rng.randrange(n)}")) for i in range(n // 2)]
    facts += [("AlarmOn", (f"H{i}",)) for i in range(0, n, 20)]
    return Input(
        files={
            "join.gdl": render_program(BURGLAR_EDB, BURGLAR_IDB, BURGLAR_RULES),
            "join.facts": render_facts(facts),
        },
        argv=["sample", "join.gdl", "--edb", "join.facts", "--seed", str(rng.randrange(1 << 31))],
        size=f"{n} cities, {n} houses, {n // 2} businesses",
        rules=BURGLAR_RULES,
        edb=facts,
        oracle="model",
    )


def gen_closure(seed: int, n: int) -> Input:
    """``sample`` of the Open-edge closure over a ring of n nodes plus 2n random edges.

    The random edges are two random permutations of the nodes, with no
    self-loop and no repeated edge, so every node has exactly three edges
    out and three in. The open edges then almost always leave one
    strongly connected graph: Path has n * n facts, and the number of
    derivations depends on the seed only through how many Flips come up 1.
    """
    rng = random.Random(f"closure:{seed}:{n}")
    edges = [(i, (i + 1) % n) for i in range(n)]
    for _ in range(2):
        seen = set(edges)
        while True:
            targets = rng.sample(range(n), n)
            perm = list(enumerate(targets))
            if all(a != b and (a, b) not in seen for a, b in perm):
                break
        edges += perm
    facts = [("Edge", (float(a), float(b))) for a, b in edges]
    return Input(
        files={
            "closure.gdl": render_program(CLOSURE_EDB, CLOSURE_IDB, CLOSURE_RULES),
            "closure.facts": render_facts(facts),
        },
        argv=[
            "sample", "closure.gdl", "--edb", "closure.facts",
            "--seed", str(rng.randrange(1 << 31)),
        ],
        size=f"{n} nodes, {len(edges)} edges",
        rules=CLOSURE_RULES,
        edb=facts,
        oracle="model",
    )


def _gen_alarm(rng: random.Random, units: int, cities: int):
    """Cities, units spread round-robin over them, and one alarm report.

    The round-robin spread fixes the shape of the chase tree, so the
    seed varies names, rates and the reported unit but not the work.
    """
    rates = [_rate(rng) for _ in range(cities)]
    facts = [("City", (f"K{c}", rates[c])) for c in range(cities)]
    kinds = []
    for u in range(units):
        kind = rng.choice(("House", "Business"))
        kinds.append(kind)
        facts.append((kind, (f"U{u}", f"K{u % cities}")))
    reported = rng.randrange(units)
    report = "ReportHAlarm" if kinds[reported] == "House" else "ReportBAlarm"
    facts.append((report, (f"U{reported}",)))
    query = ("Burglary", (f"U{reported}", f"K{reported % cities}", 1.0))
    posterior = {
        "rates": rates,
        "unit_city": [u % cities for u in range(units)],
        "reported": [reported],
        "query_unit": reported,
    }
    return facts, query, posterior


def _gen_infer(name: str, seed: int, units: int, mode_args: list) -> Input:
    rng = random.Random(f"{name}:{seed}:{units}")
    facts, query, posterior = _gen_alarm(rng, units, cities=2)
    posterior["mode"] = mode_args[1]
    argv = [
        "infer", f"{name}.gdl", "--edb", f"{name}.facts",
        "--query", f"{query[0]}({', '.join(format_constant(c) for c in query[1])})",
        *mode_args, "--seed", str(rng.randrange(1 << 31)),
    ]
    return Input(
        files={
            f"{name}.gdl": render_program(
                PPDL_EDB, BURGLAR_IDB, BURGLAR_RULES, PPDL_CONSTRAINTS
            ),
            f"{name}.facts": render_facts(facts),
        },
        argv=argv,
        size=f"{units} units in 2 cities, 1 alarm report",
        rules=BURGLAR_RULES,
        edb=facts,
        oracle="posterior",
        posterior=posterior,
    )


def gen_exact(seed: int, units: int) -> Input:
    """``infer --mode exact`` on the observed burglar model."""
    return _gen_infer("exact", seed, units, ["--mode", "exact"])


def gen_mc(seed: int, samples: int) -> Input:
    """``infer --mode mc`` with a fixed sample count on the exact workload's model."""
    inp = _gen_infer("mc", seed, 4, ["--mode", "mc", "--samples", str(samples)])
    inp.size += f", {samples} samples"
    inp.posterior["samples"] = samples
    return inp


@dataclass(frozen=True)
class Workload:
    name: str
    generate: object  # (seed, size) -> Input
    size: int  # the size parameter at full scale; the traced run also uses size // 2
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "join", gen_join, 800,
            "sample on burglar: wide non-recursive multi-relation joins and output "
            "rendering, with almost no copying or mass work",
        ),
        Workload(
            "closure", gen_closure, 70,
            "sample of a recursive closure: self-joins and frontier dedup, with many "
            "stale pops",
        ),
        Workload(
            "exact", gen_exact, 4,
            "infer --mode exact: best-first enumeration, a state copy per branch and "
            "canonical mass on every push, over tiny joins",
        ),
        Workload(
            "mc", gen_mc, 2000,
            "infer --mode mc: per-sample fixed costs (state copy, rng streams, param "
            "checks, constraint check) over tiny joins",
        ),
    )
}
