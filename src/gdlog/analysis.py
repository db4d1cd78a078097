"""Dependency graph and weak-acyclicity check.

Nodes are IDB positions (relation, attribute). A normal edge connects a
body position of a variable to a head position of the same variable; a
special edge runs from every body position of an exported variable into
the head position holding a distribution draw. A program is weakly
acyclic when no cycle passes through a special edge; this guarantees
that every possible outcome is finite.
"""
from __future__ import annotations

from collections import deque
from typing import NamedTuple

from .model import DeltaTerm, Program, Rule, Variable, _Record

__all__ = [
    "Position",
    "Edge",
    "DependencyGraph",
    "WeakAcyclicityResult",
    "build_dependency_graph",
    "is_weakly_acyclic",
    "to_dot",
]


class Position(NamedTuple):
    relation: str
    attribute: int  # 1-based


class Edge(NamedTuple):
    src: Position
    dst: Position
    special: bool

    def __str__(self) -> str:
        arrow = "->*" if self.special else "->"
        return (
            f"({self.src.relation},{self.src.attribute}) {arrow} "
            f"({self.dst.relation},{self.dst.attribute})"
        )


class DependencyGraph(_Record):
    nodes: frozenset  # of Position
    normal_edges: frozenset  # of (Position, Position)
    special_edges: frozenset  # of (Position, Position)

    def edges(self):
        for s, d in sorted(self.normal_edges):
            yield Edge(s, d, False)
        for s, d in sorted(self.special_edges):
            yield Edge(s, d, True)

    def has_edge(self, e: Edge) -> bool:
        pool = self.special_edges if e.special else self.normal_edges
        return (e.src, e.dst) in pool


def _body_positions(program: Program, rule: Rule) -> dict:
    """variable name -> set of IDB body positions where it occurs."""
    out: dict = {}
    for atom in rule.body:
        if atom.relation not in program.idb:
            continue  # positions are defined over IDB only
        for i, t in enumerate(atom.args, start=1):
            if isinstance(t, Variable):
                out.setdefault(t.name, set()).add(Position(atom.relation, i))
    return out


def build_dependency_graph(program: Program) -> DependencyGraph:
    nodes = {
        Position(rel, i)
        for rel, arity in program.idb.items()
        for i in range(1, arity + 1)
    }
    normal = set()
    special = set()
    for rule in program.rules:
        occ = _body_positions(program, rule)
        head = rule.head
        delta_pos = None
        for j, t in enumerate(head.args, start=1):
            if isinstance(t, DeltaTerm):
                delta_pos = j
            elif isinstance(t, Variable):
                for src in occ.get(t.name, ()):
                    normal.add((src, Position(head.relation, j)))
        if delta_pos is not None:
            dst = Position(head.relation, delta_pos)
            # every exported variable feeds the sampled position
            for v in rule.head_variables():
                for src in occ.get(v.name, ()):
                    special.add((src, dst))
    return DependencyGraph(frozenset(nodes), frozenset(normal), frozenset(special))


class WeakAcyclicityResult(_Record):
    weakly_acyclic: bool
    witness: tuple | None  # of Edge forming a cycle through a special edge

    def __bool__(self) -> bool:
        return self.weakly_acyclic


def _path(src: Position, dst: Position, succ_edges: dict) -> list | None:
    """Edges of a BFS path src -> dst, or None if dst is unreachable."""
    if src == dst:
        return []
    prev: dict = {src: None}
    q = deque([src])
    while q:
        node = q.popleft()
        for nxt, edge in succ_edges.get(node, ()):
            if nxt in prev:
                continue
            prev[nxt] = (node, edge)
            if nxt == dst:
                path = []
                while prev[nxt] is not None:
                    nxt, edge = prev[nxt]
                    path.append(edge)
                path.reverse()
                return path
            q.append(nxt)
    return None


def is_weakly_acyclic(program: Program) -> WeakAcyclicityResult:
    """Decide weak acyclicity; on failure return a verifiable witness
    cycle (a chained edge list containing at least one special edge).

    A special edge (s, d) lies on a cycle exactly when s is reachable
    from d. Special edges are tried in sorted order, and the witness is
    the first such edge followed by the BFS path from d back to s.
    """
    g = build_dependency_graph(program)
    succ_edges: dict = {}
    for e in g.edges():
        succ_edges.setdefault(e.src, []).append((e.dst, e))
    for edges in succ_edges.values():
        edges.sort()
    for s, d in sorted(g.special_edges):
        back = _path(d, s, succ_edges)
        if back is not None:
            return WeakAcyclicityResult(False, (Edge(s, d, True), *back))
    return WeakAcyclicityResult(True, None)


def to_dot(graph: DependencyGraph) -> str:
    """Render the dependency graph in DOT; special edges are dashed."""
    lines = ["digraph dependencies {"]
    for n in sorted(graph.nodes):
        lines.append(f'  "{n.relation}.{n.attribute}";')
    for e in graph.edges():
        style = ' [style=dashed, label="*"]' if e.special else ""
        lines.append(
            f'  "{e.src.relation}.{e.src.attribute}" -> '
            f'"{e.dst.relation}.{e.dst.attribute}"{style};'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
