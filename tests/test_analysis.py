from __future__ import annotations

import random
from collections import Counter

from gdlog.analysis import (
    Position,
    build_dependency_graph,
    is_weakly_acyclic,
    to_dot,
)
from gdlog.model import Program
from gdlog.parser import parse_program

from conftest import CORPUS, load_program
from old_analysis import old_is_weakly_acyclic
from randprog import random_program


def test_burglar_dependency_graph(burglar):
    g = build_dependency_graph(burglar)
    u1, u2 = Position("Unit", 1), Position("Unit", 2)
    b1, b2, b3 = (Position("Burglary", i) for i in (1, 2, 3))
    t1, t2 = Position("Trig", 1), Position("Trig", 2)
    a1 = Position("Alarm", 1)
    # derived by hand from the rules: EDB positions never appear
    assert g.normal_edges == frozenset(
        {(u1, b1), (u2, b2), (u1, t1), (b1, t1), (t1, a1)}
    )
    assert g.special_edges == frozenset({(u1, b3), (u2, b3), (u1, t2), (b1, t2)})
    assert Position("Earthquake", 1) in g.nodes
    assert Position("City", 1) not in g.nodes


def test_burglar_weakly_acyclic(burglar):
    assert is_weakly_acyclic(burglar).weakly_acyclic


def test_doubling_rejected_with_witness(registry):
    doubling = load_program("doubling.gdl", registry)
    g = build_dependency_graph(doubling)
    r1, r2 = Position("R", 1), Position("R", 2)
    assert (r2, r1) in g.normal_edges
    assert (r2, r2) in g.special_edges

    result = is_weakly_acyclic(doubling)
    assert not result.weakly_acyclic
    witness = result.witness
    assert witness == ((r2, r2, True),)


def test_witness_is_verifiable(registry):
    # a longer special cycle: the draw position feeds back through a copy
    src = """
    edb E/1.
    idb P/1.
    idb Q/2.
    P(x) :- E(x).
    Q(x, Geo[0.5]) :- P(x).
    P(y) :- Q(x, y).
    """
    p = parse_program(src, registry)
    result = is_weakly_acyclic(p)
    assert not result.weakly_acyclic
    g = build_dependency_graph(p)
    witness = result.witness
    assert any(e.special for e in witness)
    for e in witness:
        assert g.has_edge(e)
    for cur, nxt in zip(witness, witness[1:]):
        assert cur.dst == nxt.src
    assert witness[-1].dst == witness[0].src


def test_delta_free_program_has_no_special_edges(registry):
    src = "edb E/2.\nidb P/2.\nP(x, y) :- E(x, y).\nP(x, z) :- P(x, y), P(y, z).\n"
    p = parse_program(src, registry)
    g = build_dependency_graph(p)
    assert g.special_edges == frozenset()
    assert is_weakly_acyclic(p).weakly_acyclic


def test_graph_invariant_under_rule_reordering(burglar):
    reordered = Program(
        burglar.edb,
        burglar.idb,
        list(reversed(burglar.rules)),
        burglar.constraints,
        burglar.dists,
    )
    assert build_dependency_graph(burglar) == build_dependency_graph(reordered)


def test_nodes_are_all_idb_positions(burglar):
    g = build_dependency_graph(burglar)
    expected = {
        Position(rel, i)
        for rel, arity in burglar.idb.items()
        for i in range(1, arity + 1)
    }
    assert g.nodes == frozenset(expected)


def test_dot_output(burglar):
    dot = to_dot(build_dependency_graph(burglar))
    assert dot.startswith("digraph")
    assert '"Unit.1" -> "Burglary.3" [style=dashed' in dot


def test_reachability_matches_old_scc_check(registry):
    # same verdict and same witness as the strongly-connected-component
    # check on random programs and on every corpus program
    programs = [random_program(random.Random(s), registry)[0] for s in range(5000)]
    programs += [load_program(p.name, registry) for p in sorted(CORPUS.glob("*.gdl"))]
    lengths = Counter()
    for p in programs:
        result = is_weakly_acyclic(p)
        assert result == old_is_weakly_acyclic(p)
        lengths[len(result.witness) if result.witness else 0] += 1
    # not vacuous: both verdicts, self-loop witnesses and longer cycles
    assert lengths[0] > 1000 and lengths[1] > 100
    assert sum(n for k, n in lengths.items() if k > 1) > 100
