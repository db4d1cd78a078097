"""Probabilistic chase over a translated existential program.

The engine's frontier holds pending firings as (rank, binding) pairs, a
rule's rank being its priority under the scheduling order; a popped
firing is re-checked for applicability, and every enqueued firing is
eventually processed or found satisfied, which makes every run fair.
Runs are reproducible: the frontier grows in (rank, binding) order and
every random choice comes from an explicit seeded stream.

Joins are semi-naive. When a fact is inserted, only the bindings that
use it are discovered: the new row is matched against each body atom of
its relation, and the rest of the body is joined against the instance.
Every other body atom is looked up through a hash index on the state,
keyed by the positions that a constant or an earlier atom already binds
(one compiled plan per rule and delta atom); an atom with no bound
position is scanned. Indexes are built from the fact sets on first use
and kept up to date on insertion. A copy of a state shares every
relation's rows, obligations and indexes with it; the first write to a
relation, on either side, copies its rows and obligations and drops its
indexes, which are rebuilt on demand, so a branch pays only for the
relations it writes.
Since facts are only ever added, a binding is discovered exactly once,
when the last of its body rows arrives, so the frontier needs no record
of past firings: the only duplicates are within one discovery batch,
when the new row matches several atoms of one rule.

Each rule is specialised once, when the engine is built, into closures
generated over its compiled atoms, so the hot path interprets no terms:
``head_key(slots)`` grounds the head row, or the functional-dependency
key of a drawn head, and ``matchers[j](row)`` checks a new row against
the constants and repeated variables of body atom j and returns the
slots it binds, already the whole binding when the body is that one
atom, so no join runs. Constants reach the generated code through its
namespace, never through its source text.

``ChaseEngine.run`` is the one chase driver, with one stop rule: a firing
it cannot decide is returned unapplied, be it a distributional firing in a
run without an rng or a deterministic one whose head row is outside the
run's ``heads``. Chases differ only in who picks a drawn value: sampling
draws it, enumeration branches over the support (``run_to_branch``), Monte
Carlo inference follows one drawn value per sample, replay and cylinder
masses force it from a target fact set, which is also their ``heads``
(``forced_mass``), and ``chase_step`` takes a caller's choice or draws.
Each of them checks the firing's parameters and weighs the value;
``apply`` only records the firing it was given.

Draw weights are accumulated in log space while a run is in flight. Each
state also keeps a ledger of its draws' pmfs under their raw (relation,
FD key), taken when the draw fires and merged in the canonical order of
``_sorted_canonical`` on the next read; the probability attached to an
outcome is the product read from that ledger, so it does not depend on
the order in which the chase happened to fire rules.
"""
from __future__ import annotations

import math
from collections import Counter, deque
from operator import itemgetter

from .distributions import DomainError, RngStream
from .model import (
    DeltaTerm,
    Fact,
    GdlogError,
    Program,
    Variable,
    _Record,
    _row_key,
    _sorted_canonical,
    fact_key,
)
from .parser import render_fact
from .translate import EXISTENTIAL, ExistentialProgram, to_existential

__all__ = [
    "LEAF",
    "BUDGET_EXHAUSTED",
    "Firing",
    "Outcome",
    "Rejection",
    "ChaseState",
    "ChaseEngine",
    "applicable_firings",
    "chase_step",
    "sample_outcome",
    "replay_weight",
]

LEAF = "leaf"
BUDGET_EXHAUSTED = "budget-exhausted"

FIFO = "fifo"
REVERSED_RULES = "reversed-rules"
RANDOM_FAIR = "random"

_M64 = (1 << 64) - 1


def _mix(a: int, b: int) -> int:
    # splitmix64 finalizer; deterministic scheduler randomness
    z = (a * 0x9E3779B97F4A7C15 + b) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def _draw_key(entry) -> tuple:
    # the canonical key, built only where plain comparison raises
    (rel, key), _ = entry
    return (rel, _row_key(key))


def _log_mass(ledger) -> float:
    """The log probability of a draw ledger, summed in its order."""
    s = 0.0
    for _, p in ledger:
        s += math.log(p)
    return s


class Firing(_Record):
    """A rule index plus a body binding, in a hashable public form."""

    rule_index: int
    binding_items: tuple  # sorted (variable name, constant) pairs

    @property
    def binding(self) -> dict:
        return dict(self.binding_items)


class Rejection(_Record):
    """Why a candidate fact set was not accepted."""

    reason: str

    def __bool__(self) -> bool:
        return False


class Outcome(_Record):
    facts: frozenset  # of Fact
    log_probability: float
    terminated: str  # LEAF or BUDGET_EXHAUSTED

    @property
    def probability(self) -> float:
        return math.exp(self.log_probability)


class ChaseState:
    """Mutable run state: growing instance, frontier, weight ledger.

    States share relations copy-on-write. A relation's row set, its
    obligations and its index buckets are mutated only by a state that
    owns them, and a state owns them (``rel in owned``) only if no other
    state references them; an index built on shared rows serves every
    state that shares them. ``copy`` gives up ownership on both sides and
    ``own`` takes it back, one relation at a time.
    """

    __slots__ = (
        "facts",
        "obls",
        "pending",
        "index",
        "ledger",
        "draws",
        "steps",
        "pops",
        "owned",
    )

    def __init__(self):
        self.facts: dict = {}  # relation -> set of arg tuples
        self.obls: dict = {}  # distrel name -> {key tuple: drawn value}
        self.pending = deque()  # of (rule rank, slot tuple)
        # relation -> bound positions -> (key getter, {key: [rows]})
        self.index: dict = {}
        self.ledger: list = []  # ((distrel name, FD key), pmf), canonical order
        self.draws: list = []  # the same entries, not yet in the ledger
        self.steps = 0
        self.pops = 0  # random pops, which seed the next one
        self.owned: set = set()  # relations no other state references

    def copy(self) -> "ChaseState":
        s = ChaseState.__new__(ChaseState)
        s.facts = dict(self.facts)
        s.obls = dict(self.obls)
        s.pending = deque(self.pending)
        s.index = dict(self.index)
        s.ledger = list(self.ledger)  # entries are immutable tuples
        s.draws = list(self.draws)
        s.steps = self.steps
        s.pops = self.pops
        s.owned = set()
        self.owned = set()
        return s

    def own(self, rel: str) -> None:
        """Take this state's own copy of ``rel``'s rows and obligations
        before its first write to them, dropping the shared indexes."""
        self.owned.add(rel)
        self.facts[rel] = set(self.facts.get(rel, ()))
        if rel in self.obls:
            self.obls[rel] = dict(self.obls[rel])
        self.index.pop(rel, None)

    def rows_matching(self, rel: str, positions: tuple, key) -> list:
        """Rows of ``rel`` whose values at ``positions`` equal ``key``: a
        constant for one position, a tuple of constants for several."""
        indexes = self.index.get(rel)
        if indexes is None:
            indexes = self.index[rel] = {}
        entry = indexes.get(positions)
        if entry is None:
            rows = self.facts.get(rel, ())
            entry = indexes[positions] = _build_index(rows, positions)
        return entry[1].get(key, ())

    def add_row(self, rel: str, row: tuple) -> None:
        """Insert a new row into the instance and every index built on it."""
        if rel not in self.owned:
            self.own(rel)
        rows = self.facts[rel]
        assert row not in rows, "chase step would not grow the instance"
        rows.add(row)
        for getter, buckets in self.index.get(rel, {}).values():
            buckets.setdefault(getter(row), []).append(row)

    def canonical_draws(self) -> list:
        """The ledger: every draw's pmf in canonical (relation, key) order."""
        if self.draws:
            self.ledger.extend(self.draws)
            self.draws.clear()
            self.ledger = _sorted_canonical(self.ledger, _draw_key, itemgetter(0))
        return self.ledger

    def fact_count(self) -> int:
        return sum(len(v) for v in self.facts.values())

    def instance(self) -> frozenset:
        return frozenset(
            Fact(rel, row) for rel, rows in self.facts.items() for row in rows
        )


def _multisets(buckets: dict) -> dict:
    return {key: Counter(rows) for key, rows in buckets.items()}


def _build_index(rows, positions: tuple) -> tuple:
    getter = itemgetter(*positions)
    buckets: dict = {}
    for row in rows:
        buckets.setdefault(getter(row), []).append(row)
    return getter, buckets


def join_plan(body, skip_idx: int) -> tuple:
    """Compile a join over the compiled ``body`` atoms other than
    ``skip_idx`` (whose variables are bound beforehand; -1 for none).

    Each step is (relation, bound positions, key sources, binds, checks):
    the positions that a constant or an earlier atom fixes form the
    index key; ``binds`` are (position, slot) pairs for variables first
    seen in this atom, ``checks`` pairs of positions that must hold equal
    values because a variable repeats within the atom.
    """
    bound = set()
    if skip_idx >= 0:
        bound.update(p for is_var, p in body[skip_idx][1] if is_var)
    steps = []
    for i, (rel, args) in enumerate(body):
        if i == skip_idx:
            continue
        positions, key_src, binds, checks = [], [], [], []
        first: dict = {}  # slot -> position where this atom binds it
        for pos, (is_var, p) in enumerate(args):
            if not is_var or p in bound:
                positions.append(pos)
                key_src.append((is_var, p))
            elif p in first:
                checks.append((pos, first[p]))
            else:
                first[p] = pos
                binds.append((pos, p))
        bound.update(first)
        steps.append(
            (rel, tuple(positions), tuple(key_src), tuple(binds), tuple(checks))
        )
    return tuple(steps)


def run_join(state: ChaseState, plan: tuple, slots) -> list:
    """Every binding (a tuple of slot values) that extends ``slots`` and
    matches all atoms of ``plan`` against ``state``, one per combination
    of matching rows."""
    if not plan:
        return [tuple(slots)]
    results: list = []
    _join_step(state, plan, 0, list(slots), results)
    return results


def _join_step(state: ChaseState, plan: tuple, k: int, cur: list, results: list):
    # one flat loop over the rows of step k, recursing for the steps after
    # it; ``cur`` is updated in place: a step only reads slots that earlier
    # steps bound, and rebinds its own slots for every row it tries
    rel, positions, key_src, binds, checks = plan[k]
    if not positions:
        rows = state.facts.get(rel, ())
    elif len(key_src) == 1:
        is_var, p = key_src[0]
        rows = state.rows_matching(rel, positions, cur[p] if is_var else p)
    else:
        key = tuple(cur[p] if is_var else p for is_var, p in key_src)
        rows = state.rows_matching(rel, positions, key)
    last = k + 1 == len(plan)
    for row in rows:
        if checks and any(row[a] != row[b] for a, b in checks):
            continue
        for pos, slot in binds:
            cur[slot] = row[pos]
        if last:
            results.append(tuple(cur))
        else:
            _join_step(state, plan, k + 1, cur, results)


class _CompiledRule:
    __slots__ = (
        "index",
        "rank",
        "body",
        "plans",
        "nvars",
        "var_names",
        "matchers",
        "head_rel",
        "head_args",
        "head_key",
        "distrel",
        "spec",
    )


def _compile_atom_args(args, slot_of: dict):
    out = []
    for t in args:
        if isinstance(t, Variable):
            out.append((True, slot_of.setdefault(t.name, len(slot_of))))
        elif isinstance(t, DeltaTerm):
            raise GdlogError("draw term in a translated rule body")
        else:
            out.append((False, t))
    return tuple(out)


def _grounder(args):
    """``lambda s: row``: the tuple that compiled ``args`` ground to over
    the slot tuple ``s``. Constants reach the code through its namespace,
    never through its source."""
    ns: dict = {}
    terms = []
    for is_var, p in args:
        if not is_var:
            ns[f"c{len(ns)}"] = p
        terms.append(f"s[{p}], " if is_var else f"c{len(ns) - 1}, ")
    return eval(f"lambda s: ({''.join(terms)})", ns)


def _matcher(args, nvars: int):
    """``lambda r: slots``: the slot tuple that row ``r`` binds when it
    matches compiled ``args`` (None in every other slot), or None if it
    differs from a constant or holds two values for a repeated variable."""
    ns: dict = {}
    tests = []
    slots = ["None"] * nvars
    for pos, (is_var, p) in enumerate(args):
        if not is_var:
            ns[f"c{len(ns)}"] = p
            tests.append(f"r[{pos}] != c{len(ns) - 1}")
        elif slots[p] == "None":
            slots[p] = f"r[{pos}]"
        else:
            tests.append(f"r[{pos}] != {slots[p]}")
    out = f"({''.join(v + ', ' for v in slots)})"
    if tests:
        out = f"None if {' or '.join(tests)} else {out}"
    return eval(f"lambda r: {out}", ns)


class ChaseEngine:
    """Compiled rules plus scheduling policy for one existential program.

    ``order`` picks the fair scheduling flavor: "fifo" (default),
    "reversed-rules" (FIFO with rule priority reversed), or "random"
    (seeded random pops from the frontier). The frontier holds (rank,
    binding) pairs, a rank being a rule's index in ``_ranked``, the rules
    in priority order.
    """

    def __init__(self, ghat: ExistentialProgram, order: str = FIFO, order_seed: int = 0):
        if order not in (FIFO, REVERSED_RULES, RANDOM_FAIR):
            raise GdlogError(f"unknown scheduling order '{order}'")
        self.ghat = ghat
        self.order = order
        self.order_seed = order_seed
        self.distrel_by_name = {d.name: d for d in ghat.dist_relations}
        self.rules = [self._compile(i, r) for i, r in enumerate(ghat.rules)]
        self._ranked = self.rules[::-1] if order == REVERSED_RULES else self.rules
        for rank, rule in enumerate(self._ranked):
            rule.rank = rank
        self._delta: dict = {}  # relation -> [(rule, body atom index)]
        for rule in self.rules:
            for j, (rel, _) in enumerate(rule.body):
                self._delta.setdefault(rel, []).append((rule, j))

    def _compile(self, idx: int, rule) -> _CompiledRule:
        c = _CompiledRule()
        c.index = idx
        slot_of: dict = {}
        c.body = tuple(
            (a.relation, _compile_atom_args(a.args, slot_of)) for a in rule.body
        )
        # plans[j + 1] joins the body given atom j (j = -1: seeding)
        c.plans = tuple(join_plan(c.body, j) for j in range(-1, len(c.body)))
        if rule.kind == EXISTENTIAL:
            dr = rule.distrel
            spec = self.ghat.dists.get(dr.dist)
            if spec is None:
                raise GdlogError(f"unknown distribution '{dr.dist}'")
            c.distrel = dr
            c.spec = spec
            c.head_rel = dr.name
            head = dr.split(rule.head.args)[0]
        else:
            c.distrel = None
            c.spec = None
            c.head_rel = rule.head.relation
            head = rule.head.args
        # the head row, or the functional-dependency key of a drawn head
        c.head_args = _compile_atom_args(head, slot_of)
        c.nvars = len(slot_of)
        c.head_key = _grounder(c.head_args)
        c.matchers = tuple(_matcher(args, c.nvars) for _, args in c.body)
        c.var_names = tuple(slot_of)  # slots are numbered in insertion order
        return c

    # -- joins ------------------------------------------------------------

    def _extend(self, state: ChaseState, rule: _CompiledRule, slots, skip_idx: int):
        """All full-body bindings extending ``slots``; atom skip_idx is
        already matched."""
        return run_join(state, rule.plans[skip_idx + 1], slots)

    # -- frontier ---------------------------------------------------------

    def _pend_key(self, item) -> tuple:
        rank, slots = item
        return (rank, _row_key(slots))

    def _enqueue_batch(self, state: ChaseState, batch: list) -> None:
        if len(batch) > 1:
            batch = _sorted_canonical(batch, self._pend_key)
        state.pending.extend(batch)

    def _bindings(self, state: ChaseState):
        """(rule, slots) for every full-body binding of every rule, by rule."""
        for rule in self.rules:
            for slots in self._extend(state, rule, [None] * rule.nvars, -1):
                yield rule, slots

    def _seed_frontier(self, state: ChaseState) -> None:
        # the state holds only EDB rows, so no head holds yet
        self._enqueue_batch(state, [(r.rank, s) for r, s in self._bindings(state)])

    def _discover(self, state: ChaseState, rel: str, row: tuple) -> None:
        batch = []
        for rule, atom_idx in self._delta.get(rel, ()):
            start = rule.matchers[atom_idx](row)
            if start is None:
                continue
            if not rule.plans[atom_idx + 1]:
                batch.append((rule.rank, start))  # the body is this one atom
                continue
            for slots in self._extend(state, rule, start, atom_idx):
                batch.append((rule.rank, slots))
        if len(batch) > 1:
            # a row matching several atoms of one rule finds a binding twice
            batch = list(dict.fromkeys(batch))
        if batch:
            self._enqueue_batch(state, batch)

    def _pop_pending(self, state: ChaseState):
        if self.order == RANDOM_FAIR:
            i = _mix(self.order_seed, state.pops) % len(state.pending)
            state.pops += 1
            item = state.pending[i]
            del state.pending[i]
            return item
        return state.pending.popleft()

    def head_satisfied(self, state: ChaseState, rule: _CompiledRule, slots) -> bool:
        held = state.facts if rule.distrel is None else state.obls
        return rule.head_key(slots) in held.get(rule.head_rel, ())

    def pop_applicable(self, state: ChaseState):
        """Next pending firing whose head is still unsatisfied, or None."""
        while state.pending:
            rank, slots = self._pop_pending(state)
            rule = self._ranked[rank]
            if not self.head_satisfied(state, rule, slots):
                return rule, slots
        return None

    # -- steps ------------------------------------------------------------

    def initial_state(self, input_facts) -> ChaseState:
        state = ChaseState()
        for f in input_facts:
            arity = self.ghat.edb.get(f.relation)
            if arity is None:
                raise GdlogError(
                    f"input fact {render_fact(f)}: '{f.relation}' is not EDB"
                )
            if arity != f.arity:
                raise GdlogError(
                    f"input fact {render_fact(f)}: arity {f.arity}, "
                    f"declared {arity}"
                )
            if any(v != v for v in f.args):
                # NaN equals nothing, itself included: no join may match it
                raise GdlogError(f"input fact {render_fact(f)}: NaN is not a constant")
            state.facts.setdefault(f.relation, set()).add(f.args)
        self._seed_frontier(state)
        return state

    def _firing_context(self, rule: _CompiledRule, slots) -> str:
        pairs = ", ".join(
            f"{n}={v!r}" for n, v in zip(rule.var_names, slots) if v is not None
        )
        return f"rule {rule.index} [{pairs}]"

    def checked_params(self, rule: _CompiledRule, slots, key) -> tuple:
        """A distributional firing's checked parameters; ``key`` is its head
        key. A DomainError names the firing."""
        try:
            return rule.spec.check_params(rule.distrel.params(key))
        except DomainError as e:
            raise DomainError(f"{self._firing_context(rule, slots)}: {e}") from e

    def apply(self, state: ChaseState, rule: _CompiledRule, slots, value=None, pmf=None):
        """Record a firing whose caller decided it: a drawn head takes
        ``value`` with its ``pmf``, weighed on parameters that
        ``checked_params`` passed. Returns the added (relation, row)."""
        rel, dr = rule.head_rel, rule.distrel
        row = key = rule.head_key(slots)
        if dr is not None:
            row = dr.row(key, value)
        state.add_row(rel, row)  # first taking ``rel``'s rows and obligations
        if dr is not None:
            obls = state.obls.setdefault(rel, {})
            assert key not in obls, "functional dependency would be violated"
            obls[key] = value
            state.draws.append(((rel, key), pmf))
        state.steps += 1
        self._discover(state, rel, row)
        return rel, row

    def _verify_invariants(self, state: ChaseState) -> None:
        # recompute the FD groups from the raw fact sets
        for name, dr in self.distrel_by_name.items():
            groups = dr.fd_index(state.facts.get(name, set()))
            if groups is None:
                raise AssertionError(f"functional dependency violated on {name}")
            if groups != state.obls.get(name, {}):
                raise AssertionError(f"obligation index out of sync for {name}")
        # recompute the draw ledger through the public pmf; pmfs are
        # positive, so == compares their bits
        ledger = []
        for name, obls in state.obls.items():
            dr = self.distrel_by_name[name]
            spec = self.ghat.dists.get(dr.dist)
            ledger.extend(
                ((name, key), spec.pmf(value, dr.params(key)))
                for key, value in obls.items()
            )
        ledger = _sorted_canonical(ledger, _draw_key, itemgetter(0))
        if ledger != state.canonical_draws():
            raise AssertionError("draw ledger out of sync")
        # rebuild every join index from the raw fact sets
        for rel, indexes in state.index.items():
            rows = state.facts.get(rel, ())
            for positions, (_, buckets) in indexes.items():
                fresh = _build_index(rows, positions)[1]
                if _multisets(buckets) != _multisets(fresh):
                    raise AssertionError(
                        f"join index on {rel} at {positions} out of sync"
                    )

    def run(self, state: ChaseState, rng, step_budget: int, heads=None):
        """Drive the chase until no firing applies (LEAF) or ``state.steps``
        reaches ``step_budget`` with one still applicable (BUDGET_EXHAUSTED).

        A distributional firing within the budget draws from ``rng``, and a
        deterministic one is applied if its head row is in ``heads``
        (relation -> rows) or no ``heads`` is given. Otherwise the run stops
        and returns the firing, popped from the frontier but unapplied, as
        (rule, slots).
        """
        if step_budget < 1:
            raise GdlogError("step_budget must be positive")
        while True:
            nxt = self.pop_applicable(state)
            if nxt is None:
                return LEAF
            if state.steps >= step_budget:
                return BUDGET_EXHAUSTED
            rule, slots = nxt
            if rule.distrel is not None:
                if rng is None:
                    return nxt
                params = self.checked_params(rule, slots, rule.head_key(slots))
                value, pmf = rule.spec.draw(params, rng)
                self.apply(state, rule, slots, value, pmf)
            elif heads is None or rule.head_key(slots) in heads.get(rule.head_rel, ()):
                self.apply(state, rule, slots)
            else:
                return nxt

    def run_to_branch(self, state: ChaseState, step_budget: int):
        """Chase without draws: LEAF, BUDGET_EXHAUSTED, or the distributional
        firing the run stopped before, unapplied, as (rule, slots)."""
        return self.run(state, None, step_budget)

    # -- outcome bookkeeping ----------------------------------------------

    def canonical_mass(self, state: ChaseState) -> float:
        m = 1.0
        for _, p in state.canonical_draws():
            m *= p
        return m

    def canonical_log_mass(self, state: ChaseState) -> float:
        return _log_mass(state.canonical_draws())

    def outcome(self, state: ChaseState, terminated: str) -> Outcome:
        return Outcome(state.instance(), self.canonical_log_mass(state), terminated)

    def sample(self, input_facts, rng: RngStream, step_budget: int) -> Outcome:
        state = self.initial_state(input_facts)
        return self.outcome(state, self.run(state, rng, step_budget))

    def forced_mass(self, input_facts, target: frozenset, strict: bool):
        """Chase ``input_facts`` with every choice forced by ``target``.

        The run has no rng and the target as its ``heads``, so it returns
        each distributional firing and each deterministic firing whose head
        is not in the target. A distributional firing's parameters are
        checked first, so an invalid one raises DomainError as in every
        other chase, even for a firing then dropped or rejected; a firing
        whose value the target's functional dependency fixes is drawn with
        it, weighed once through ``mass``. A firing whose head is not in the
        target is rejected if ``strict`` (replay: the target must be an
        outcome), else dropped (cylinder: the target need only be a chase
        prefix). Facts only grow and every applied firing adds a target
        fact, so dropping cannot lose a firing that would later fit. Returns
        the canonical mass of the reached state, or a Rejection naming the
        first problem, including a target fact left underived.
        """
        heads: dict = {}  # the target's rows by relation
        for f in target:
            heads.setdefault(f.relation, set()).add(f.args)
        keyed: dict = {}
        for dr in self.ghat.dist_relations:
            rows = heads.get(dr.name, set())
            for row in rows:
                if len(row) != dr.arity:
                    return Rejection(
                        f"fact of {dr.name} has arity {len(row)}, expected {dr.arity}"
                    )
            keyed[dr.name] = dr.fd_index(rows)
            if keyed[dr.name] is None:
                return Rejection(f"functional dependency violation on {dr.name}")
        state = self.initial_state(input_facts)
        # each step adds a target fact, so this budget is never reached
        budget = len(target) + 1
        while isinstance(stop := self.run(state, None, budget, heads), tuple):
            rule, slots = stop
            rel, key = rule.head_rel, rule.head_key(slots)
            if rule.distrel is None:  # a head outside the target
                if strict:
                    fact = render_fact(Fact(rel, key))
                    return Rejection(f"missing forced fact {fact}")
                continue  # the run popped the firing: it is dropped
            params = self.checked_params(rule, slots, key)
            if key not in keyed[rel]:
                if strict:
                    return Rejection(
                        f"missing forced fact: unresolved obligation on {rel} at {key}"
                    )
                continue  # the run popped the firing: it is dropped
            value = keyed[rel][key]
            pmf = rule.spec.mass(value, params)
            if pmf <= 0.0:
                return Rejection(f"zero-weight choice {value} on {rel} at {key}")
            self.apply(state, rule, slots, float(value), pmf)
        left = sorted(target - state.instance(), key=fact_key)
        if left:
            fact = render_fact(left[0])
            if strict:
                return Rejection(f"extraneous fact {fact}")
            return Rejection(f"not a derivation set: no chase prefix produces {fact}")
        return self.canonical_mass(state)

    # -- public firing interface -------------------------------------------

    def applicable_raw(self, state: ChaseState):
        out = [b for b in self._bindings(state) if not self.head_satisfied(state, *b)]
        out.sort(key=lambda rs: (rs[0].index, _row_key(rs[1])))
        return out

    def to_firing(self, rule: _CompiledRule, slots) -> Firing:
        items = tuple(sorted(zip(rule.var_names, slots)))
        return Firing(rule.index, items)

    def from_firing(self, firing: Firing):
        if not 0 <= firing.rule_index < len(self.rules):
            raise GdlogError(f"no rule with index {firing.rule_index}")
        rule = self.rules[firing.rule_index]
        binding = firing.binding
        slots = []
        for name in rule.var_names:
            if name not in binding:
                raise GdlogError(f"binding misses variable '{name}'")
            slots.append(binding[name])
        return rule, tuple(slots)

    def body_satisfied(self, state: ChaseState, rule: _CompiledRule, slots) -> bool:
        return all(
            tuple(slots[p] if is_var else p for is_var, p in args)
            in state.facts.get(rel, ())
            for rel, args in rule.body
        )


# ---------------------------------------------------------------------------
# Specified operations


def applicable_firings(state: ChaseState, ghat) -> list:
    """All currently applicable firings in (rule index, binding) order."""
    engine = ghat if isinstance(ghat, ChaseEngine) else ChaseEngine(ghat)
    return [engine.to_firing(rule, slots) for rule, slots in engine.applicable_raw(state)]


def chase_step(
    state: ChaseState,
    firing: Firing,
    ghat,
    choice: float | None = None,
    rng: RngStream | None = None,
) -> ChaseState:
    """Apply one firing to ``state`` (mutating it) and return it. A drawn
    head takes ``choice``, weighed through ``mass``, or else a draw from
    ``rng``; an invalid parameter or a value of no mass raises DomainError."""
    engine = ghat if isinstance(ghat, ChaseEngine) else ChaseEngine(ghat)
    rule, slots = engine.from_firing(firing)
    if not engine.body_satisfied(state, rule, slots):
        raise GdlogError("firing is not applicable: body unsatisfied")
    if engine.head_satisfied(state, rule, slots):
        raise GdlogError("firing is not applicable: head already satisfied")
    value = pmf = None
    if rule.distrel is not None:
        params = engine.checked_params(rule, slots, rule.head_key(slots))
        if choice is not None:
            value = choice if isinstance(choice, str) else float(choice)
            pmf = rule.spec.mass(value, params)
            if pmf <= 0.0:
                raise DomainError(
                    f"{engine._firing_context(rule, slots)}: value {value} "
                    f"outside support of {rule.distrel.dist}"
                )
        elif rng is not None:
            value, pmf = rule.spec.draw(params, rng)
        else:
            raise GdlogError("distributional firing needs a choice or an rng")
    engine.apply(state, rule, slots, value, pmf)
    return state


def sample_outcome(
    g: Program, input_facts, seed: int, step_budget: int = 1_000_000
) -> Outcome:
    """One seeded random walk down a chase tree of ``g`` on ``input_facts``."""
    engine = ChaseEngine(to_existential(g))
    return engine.sample(input_facts, RngStream(seed, 0), step_budget)


def replay_weight(g: Program, input_facts, candidate):
    """Deterministically re-chase ``candidate`` and return its probability.

    At every distributional firing the functional dependency forces a
    unique value inside the candidate. Accepts (returning the product of
    draw weights) only if the chase reaches a leaf equal to the
    candidate; otherwise returns a Rejection naming the first problem.
    """
    engine = ChaseEngine(to_existential(g))
    candidate = frozenset(candidate)
    input_facts = frozenset(input_facts)
    if not input_facts <= candidate:
        return Rejection("candidate does not contain the input instance")
    return engine.forced_mass(input_facts, candidate, strict=True)
