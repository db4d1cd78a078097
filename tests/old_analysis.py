"""Reference weak-acyclicity check, kept as a differential oracle.

This is the check as it was before ``is_weakly_acyclic`` became one
reachability search per special edge: an iterative Tarjan pass computes
the strongly connected components, a special edge is cyclic when both
ends share a component, and the witness is a BFS path inside that
component. The property test checks that both give the same verdict and
the same witness.
"""
from __future__ import annotations

from collections import deque

from gdlog.analysis import Edge, Position, WeakAcyclicityResult, build_dependency_graph
from gdlog.model import Program


def _sccs(nodes, succ) -> dict:
    """Iterative Tarjan; returns node -> component id."""
    index: dict = {}
    low: dict = {}
    on_stack: set = set()
    stack: list = []
    comp: dict = {}
    counter = [0]
    ncomp = [0]

    for root in sorted(nodes):
        if root in index:
            continue
        work = [(root, iter(succ.get(root, ())))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in index:
                    index[nxt] = low[nxt] = counter[0]
                    counter[0] += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(succ.get(nxt, ()))))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp[w] = ncomp[0]
                    if w == node:
                        break
                ncomp[0] += 1
    return comp


def _path_within(src: Position, dst: Position, succ_edges: dict, allowed) -> list:
    """BFS path src -> dst using edges whose endpoints are in ``allowed``."""
    if src == dst:
        return []
    prev: dict = {src: None}
    q = deque([src])
    while q:
        node = q.popleft()
        for nxt, edge in succ_edges.get(node, ()):
            if nxt not in allowed or nxt in prev:
                continue
            prev[nxt] = (node, edge)
            if nxt == dst:
                path = []
                cur = nxt
                while prev[cur] is not None:
                    node, edge = prev[cur]
                    path.append(edge)
                    cur = node
                path.reverse()
                return path
            q.append(nxt)
    raise AssertionError("no path inside a strongly connected component")


def old_is_weakly_acyclic(program: Program) -> WeakAcyclicityResult:
    """Decide weak acyclicity; on failure return a verifiable witness
    cycle (a chained edge list containing at least one special edge)."""
    g = build_dependency_graph(program)
    succ: dict = {}
    succ_edges: dict = {}
    for s, d in g.normal_edges:
        succ.setdefault(s, set()).add(d)
        succ_edges.setdefault(s, []).append((d, Edge(s, d, False)))
    for s, d in g.special_edges:
        succ.setdefault(s, set()).add(d)
        succ_edges.setdefault(s, []).append((d, Edge(s, d, True)))
    for edges in succ_edges.values():
        edges.sort()
    comp = _sccs(g.nodes, {k: sorted(v) for k, v in succ.items()})

    for s, d in sorted(g.special_edges):
        if comp.get(s) == comp.get(d):
            allowed = {n for n in g.nodes if comp.get(n) == comp[s]}
            back = _path_within(d, s, succ_edges, allowed)
            return WeakAcyclicityResult(False, (Edge(s, d, True), *back))
    return WeakAcyclicityResult(True, None)

