"""Acceptance suite: one test per shipped criterion, at pinned tolerances.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS line per
criterion (failures surface as ordinary pytest failures).
"""
from __future__ import annotations

import math
import random
import time
from collections import Counter
from fractions import Fraction

from gdlog.analysis import build_dependency_graph, is_weakly_acyclic
from gdlog.chase import LEAF, ChaseEngine
from gdlog.distributions import RngStream
from gdlog.enumeration import EnumerationPolicy, enumerate_outcomes, marginal
from gdlog.ppdl import estimate_posterior, exact_posterior
from gdlog.translate import COPIED, EXISTENTIAL, PROJECTION, to_existential

from checked_engine import CheckedEngine
from conftest import load_facts, load_program
from randprog import random_program
from test_chase import WORKED_OUTCOME_WEIGHT, _fact, worked_outcome
from test_enumeration import dist_as_json


class timer:
    def __init__(self, number: int, name: str, limit_s: float):
        self.number, self.name, self.limit = number, name, limit_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            status = "PASS" if elapsed < self.limit else "FAIL (over time)"
            print(
                f"ACCEPTANCE {self.number} [{self.name}]: {status} "
                f"({elapsed:.2f}s, limit {self.limit:g}s)"
            )
            assert elapsed < self.limit, f"criterion {self.number} exceeded time limit"
        else:
            print(f"ACCEPTANCE {self.number} [{self.name}]: FAIL")
        return False


def test_01_translation_fidelity(burglar):
    with timer(1, "translation fidelity", 1.0):
        ghat = to_existential(burglar)
        assert len(ghat.rules) == 10
        kinds = Counter(r.kind for r in ghat.rules)
        assert kinds[EXISTENTIAL] == 4  # one per draw rule
        assert kinds[PROJECTION] == 3  # one per distributional relation
        assert kinds[COPIED] == 3  # draw-free rules pass through
        assert len(ghat.fds) == 3
        assert [d.name for d in ghat.dist_relations] == [
            "Earthquake__Flip__2",
            "Burglary__Flip__3",
            "Trig__Flip__2",
        ]
        # structural spot checks against the worked translation
        r0 = ghat.rules[0]
        assert r0.kind == EXISTENTIAL and r0.head.relation == "Earthquake__Flip__2"
        assert r0.head.args[2] == 0.01 and r0.body[0].relation == "City"
        assert ghat.rules[6].kind == COPIED
        assert ghat.rules[6].head == burglar.rules[6].head
        proj = ghat.rules[7]
        assert proj.kind == PROJECTION and proj.head.relation == "Earthquake"
        fd = ghat.fds[1]
        assert fd.relation == "Burglary__Flip__3"
        assert fd.determinants == (1, 2, 4) and fd.dependent == 3


def test_02_burglar_exact_semantics(burglar, burglar_edb):
    with timer(2, "burglar exact semantics", 10.0):
        dist = enumerate_outcomes(burglar, burglar_edb, EnumerationPolicy())
        assert abs(dist.explored_mass - 1.0) <= 1e-9
        reference = WORKED_OUTCOME_WEIGHT  # independent 11-weight product
        assert reference == float(
            Fraction(11088929808, 10**17)
        )  # cross-check of the frozen constant
        got = dist.probability_of(worked_outcome(burglar_edb))
        assert got is not None
        assert abs(got - reference) <= 1e-12 * reference


def test_03_weak_acyclicity(burglar, registry):
    with timer(3, "weak acyclicity", 1.0):
        assert is_weakly_acyclic(burglar).weakly_acyclic
        doubling = load_program("doubling.gdl", registry)
        result = is_weakly_acyclic(doubling)
        assert not result.weakly_acyclic
        witness = result.witness
        assert witness and any(e.special for e in witness)
        graph = build_dependency_graph(doubling)
        for e in witness:
            assert graph.has_edge(e)
        for cur, nxt in zip(witness, witness[1:]):
            assert cur.dst == nxt.src
        assert witness[-1].dst == witness[0].src


def test_04_finite_mass_bound(registry):
    with timer(4, "finite-mass bound", 5.0):
        escape = load_program("doubling_escape.gdl", registry)
        dist = enumerate_outcomes(
            escape,
            load_facts("escape.facts", escape),
            EnumerationPolicy(node_budget=2000),
        )
        assert len(dist.entries) == 1
        assert abs(dist.entries[0][1] - 0.5) <= 1e-9
        assert abs(dist.residual_mass - 0.5) <= 1e-9

        fork_escape = load_program("fork_escape.gdl", registry)
        dist = enumerate_outcomes(
            fork_escape,
            load_facts("escape.facts", fork_escape),
            EnumerationPolicy(node_budget=2000),
        )
        assert len(dist.entries) == 1
        assert abs(dist.entries[0][1] - 0.25) <= 1e-9
        assert abs(dist.residual_mass - 0.75) <= 1e-9


# every corpus program with its canonical input; programs whose outcomes
# are infinite get a small step budget (enough to prove explored < 1)
CORPUS_MANIFEST = [
    ("burglar.gdl", "burglar.facts", 1_000_000),
    ("burglar_ppdl.gdl", "burglar_report.facts", 1_000_000),
    ("pdb.gdl", "pdb.facts", 1_000_000),
    ("disjunctive.gdl", "disjunctive.facts", 1_000_000),
    ("visits_base.gdl", "visits.facts", 1_000_000),
    ("visits_implied.gdl", "visits.facts", 1_000_000),
    ("visits.gdl", "visits.facts", 1_000_000),
    ("doubling.gdl", "chain.facts", 500),
    ("doubling_escape.gdl", "escape.facts", 500),
    ("fork.gdl", "chain.facts", 500),
    ("fork_escape.gdl", "escape.facts", 500),
]


def test_05_chase_order_independence(registry):
    with timer(5, "chase-order independence", 60.0):
        fully_explored = 0
        for prog_name, fact_name, budget in CORPUS_MANIFEST:
            program = load_program(prog_name, registry)
            facts = load_facts(fact_name, program)
            reference = enumerate_outcomes(
                program, facts, EnumerationPolicy(node_budget=budget)
            )
            if abs(reference.explored_mass - 1.0) > 1e-9:
                continue  # the criterion covers fully explored programs
            fully_explored += 1
            ref_text = dist_as_json(reference)
            ref_masses = {o.facts: p for o, p in reference.entries}
            for order, seed in [("reversed-rules", 0), ("random", 1234)]:
                dist = enumerate_outcomes(
                    program,
                    facts,
                    EnumerationPolicy(
                        node_budget=budget, order=order, order_seed=seed
                    ),
                )
                assert dist_as_json(dist) == ref_text, (prog_name, order)
                other = {o.facts: p for o, p in dist.entries}
                assert other.keys() == ref_masses.keys()
                for k, p in ref_masses.items():
                    assert abs(other[k] - p) < 1e-9
        assert fully_explored == 4  # burglar x2, pdb, disjunctive


def test_06_sampling_enumeration_agreement(burglar, burglar_edb):
    with timer(6, "sampling agreement", 60.0):
        dist = enumerate_outcomes(burglar, burglar_edb, EnumerationPolicy())
        engine = ChaseEngine(to_existential(burglar))
        drels = [d.name for d in engine.ghat.dist_relations]

        def draw_key(facts_by_rel):
            return tuple(
                sorted(
                    (name, row)
                    for name in drels
                    for row in facts_by_rel.get(name, ())
                )
            )

        n = 100_000
        template = engine.initial_state(burglar_edb)
        counts: Counter = Counter()
        for i in range(n):
            state = template.copy()
            assert engine.run(state, RngStream(20260809, i), 10**6) == LEAF
            counts[draw_key(state.facts)] += 1

        checked = 0
        for outcome, p in dist.entries:
            if p < 1e-3:
                continue
            by_rel: dict = {}
            for f in outcome.facts:
                by_rel.setdefault(f.relation, set()).add(f.args)
            freq = counts.get(draw_key(by_rel), 0) / n
            sigma = math.sqrt(p * (1.0 - p) / n)
            assert abs(freq - p) <= 4.0 * sigma, (p, freq)
            checked += 1
        assert checked >= 10  # the bulk of the mass was actually compared


def test_07_posterior_correctness(burglar_ppdl, report_edb):
    with timer(7, "posterior correctness", 120.0):
        query = _fact("Earthquake", "Napa", 1)
        observed = _fact("Alarm", "NP1")
        # brute-force oracle: enumerate the prior, filter, renormalize
        prior = enumerate_outcomes(burglar_ppdl, report_edb, EnumerationPolicy())
        assert abs(prior.explored_mass - 1.0) <= 1e-9
        kept = [(o, p) for o, p in prior.entries if observed in o.facts]
        z = math.fsum(p for _, p in kept)
        oracle = math.fsum(p for o, p in kept if query in o.facts) / z

        posterior = exact_posterior(burglar_ppdl, report_edb, EnumerationPolicy())
        assert abs(marginal(posterior, query) - oracle) <= 1e-12

        est = estimate_posterior(
            burglar_ppdl, report_edb, query, n=100_000, seed=60902
        )
        assert est.defined and est.samples_budget_exhausted == 0
        assert abs(est.point - oracle) <= 3.0 * est.std_error


def test_08_encoding_sanity(registry):
    with timer(8, "encoding sanity", 5.0):
        pdb = load_program("pdb.gdl", registry)
        dist = enumerate_outcomes(
            pdb, load_facts("pdb.facts", pdb), EnumerationPolicy()
        )
        # brute force over the four possible worlds of the two tuples
        worlds = sorted(
            (pa if a else 1 - pa) * (pb if b else 1 - pb)
            for a in (1, 0)
            for b in (1, 0)
            for pa, pb in [(0.3, 0.6)]
        )
        got = sorted(p for _, p in dist.entries)
        assert len(got) == 4
        for x, y in zip(got, worlds):
            assert abs(x - y) <= 1e-12
        assert abs(marginal(dist, _fact("Rp", "a")) - 0.3) <= 1e-9

        base = load_program("visits_base.gdl", registry)
        extended = load_program("visits_implied.gdl", registry)
        rows = load_facts("visits.facts", base)
        a = enumerate_outcomes(base, rows, EnumerationPolicy())
        b = enumerate_outcomes(extended, rows, EnumerationPolicy())
        assert dist_as_json(a) == dist_as_json(b)  # bit-for-bit


def test_09_property_suites(registry):
    with timer(9, "FD and injectivity property suites", 300.0):
        rnd = random.Random(986513)
        for i in range(1000):
            program, facts = random_program(rnd, registry)
            engine = CheckedEngine(to_existential(program))
            template = engine.initial_state(facts)
            for seed in range(10):
                state = template.copy()
                before = state.fact_count()
                engine.run(state, RngStream(seed, i), 200)
                # strict growth: every step added exactly one fact
                assert state.fact_count() == before + state.steps
