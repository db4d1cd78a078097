"""Reference nested-loop joins, kept as differential oracles.

These are the engine's joins before it indexed them: every body atom is
matched by scanning all rows of its relation. They are slow and simple,
and the property tests check that the indexed kernel returns the same
multiset of bindings. ``match`` interprets an atom term by term, as the
engine did before it compiled a matcher per body atom; the property
tests also check the compiled matchers against it.
"""
from __future__ import annotations

from gdlog.model import Variable, constant_key


def match(args, row, slots):
    """``slots`` extended by matching ``row`` against compiled ``args``
    term by term (a new list), or None if a term disagrees."""
    out = list(slots)
    for (is_var, payload), val in zip(args, row):
        if not is_var:
            if payload != val:
                return None
        elif out[payload] is None:
            out[payload] = val
        elif out[payload] != val:
            return None
    return out


def nested_extend(state, rule, slots, skip_idx: int) -> list:
    """All full-body bindings of ``rule`` extending ``slots``, by scanning;
    atom ``skip_idx`` is already matched."""
    order = [i for i in range(len(rule.body)) if i != skip_idx]
    results = []

    def rec(k, cur):
        if k == len(order):
            results.append(tuple(cur))
            return
        rel, args = rule.body[order[k]]
        for row in state.facts.get(rel, ()):
            nxt = match(args, row, cur)
            if nxt is not None:
                rec(k + 1, nxt)

    rec(0, list(slots))
    return results


def _match_atom(atom, row, binding: dict) -> dict | None:
    out = binding
    copied = False
    for t, val in zip(atom.args, row):
        if isinstance(t, Variable):
            cur = out.get(t.name)
            if cur is None and t.name not in out:
                if not copied:
                    out = dict(out)
                    copied = True
                out[t.name] = val
            elif cur != val:
                return None
        elif t != val:
            return None
    return out if copied else dict(out)


def body_bindings(body, rows_by_rel: dict):
    """Binding dicts of a constraint body over rows of any arity."""

    def rec(k: int, binding: dict):
        if k == len(body):
            yield binding
            return
        atom = body[k]
        for row in rows_by_rel.get(atom.relation, ()):
            if len(row) != len(atom.args):
                continue  # a foreign fact set may hold other arities
            nxt = _match_atom(atom, row, binding)
            if nxt is not None:
                yield from rec(k + 1, nxt)

    yield from rec(0, {})


def _head_holds(constraint, binding: dict, rows_by_rel: dict) -> bool:
    if constraint.head is None:
        return False
    row = tuple(
        binding[t.name] if isinstance(t, Variable) else t
        for t in constraint.head.args
    )
    return row in rows_by_rel.get(constraint.head.relation, ())


def reference_violations(facts, constraints) -> tuple:
    """The violations ``check_constraints`` reports, by scanning."""
    rows: dict = {}
    for f in facts:
        rows.setdefault(f.relation, set()).add(f.args)
    violations = []
    for i, c in enumerate(constraints):
        bad = [b for b in body_bindings(c.body, rows) if not _head_holds(c, b, rows)]
        bad.sort(key=lambda b: sorted((k, constant_key(v)) for k, v in b.items()))
        violations.extend((i, b) for b in bad)
    return tuple(violations)
