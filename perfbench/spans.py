"""Runtime hooks on gdlog's module boundaries, for the traced run.

Each hook replaces one function or method by a wrapper that records a
span (name and duration) or only counts calls. Spans are aggregated in
memory: per name, the number of calls and the self time (duration minus
the child spans it covers). A hook whose target no longer exists is
listed as missing instead of failing the run.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict


def _len(counter):
    return lambda result: {counter: len(result)}


# (target "module:attribute[.method]", name, records a span?, result -> counts)
HOOKS = (
    ("gdlog.cli:_emit", "cli.emit", True, None),
    ("gdlog.cli:_facts_json", "cli.emit", True, None),
    ("gdlog.parser:parse_program", "parser", True, None),
    ("gdlog.parser:parse_facts", "parser", True, _len("parser.facts")),
    ("gdlog.parser:load_edb_csv", "parser", True, _len("parser.facts")),
    ("gdlog.parser:parse_fact_literal", "parser", True, None),
    ("gdlog.model:validate_program", "model.validate", True, None),
    ("gdlog.translate:to_existential", "translate", True, None),
    ("gdlog.chase:ChaseEngine.initial_state", "chase.seed", True, None),
    ("gdlog.chase:ChaseEngine._seed_frontier", "chase.seed", True, None),
    ("gdlog.chase:ChaseEngine._extend", "chase.join", True, _len("chase.join_rows")),
    ("gdlog.chase:ChaseEngine.pop_applicable", "chase.pop", True,
     lambda r: {"chase.pop_useful": r is not None}),
    ("gdlog.chase:ChaseEngine._pop_pending", "chase.pops", False, None),
    ("gdlog.chase:ChaseEngine.apply", "chase.apply", True, None),
    ("gdlog.chase:ChaseState.copy", "chase.copy", True, None),
    ("gdlog.chase:ChaseEngine.canonical_mass", "chase.mass", True, None),
    ("gdlog.chase:ChaseEngine.canonical_log_mass", "chase.mass", True, None),
    ("gdlog.distributions:RngStream.__init__", "distributions.rng_init", True, None),
    ("gdlog.distributions:DistributionSpec.sample", "distributions.sample", False, None),
    ("gdlog.distributions:DistributionSpec.pmf", "distributions.pmf", False, None),
    ("gdlog.distributions:DistributionSpec.check_params", "distributions.check_params",
     False, None),
    ("gdlog.distributions:DistributionSpec.enumerate_support", "distributions.support",
     True, _len("enumeration.branches")),
    ("gdlog.enumeration:enumerate_outcomes", "enumeration", True,
     lambda r: {"enumeration.leaves": len(r.entries)}),
    ("gdlog.ppdl:_satisfies_all", "ppdl.constraint", True,
     lambda r: {"ppdl.accepted": bool(r)}),
    ("gdlog.ppdl:check_constraints", "ppdl.constraint", True,
     lambda r: {"ppdl.accepted": r.satisfied}),
    ("gdlog.ppdl:exact_posterior", "ppdl.driver", True, None),
    ("gdlog.ppdl:estimate_posterior", "ppdl.driver", True, None),
)


class Tracer:
    def __init__(self):
        self.stack = [[0.0]]  # open spans: [time covered by their child spans]
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.missing = set()

    def install(self) -> None:
        for target, name, is_span, measure in HOOKS:
            if not self._patch(target, name, is_span, measure):
                self.missing.add(name)

    def _patch(self, target, name, is_span, measure) -> bool:
        module_name, _, path = target.partition(":")
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return False
        owner_name, _, method = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            fn = vars(owner).get(method) if owner is not None else None
            if not callable(fn):
                return False
            setattr(owner, method, self._wrap(fn, name, is_span, measure))
            return True
        fn = getattr(module, method, None)
        if not callable(fn):
            return False
        wrapper = self._wrap(fn, name, is_span, measure)
        # rebind every name other gdlog modules imported the function under
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").partition(".")[0] == "gdlog":
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, attr, wrapper)
        return True

    def _wrap(self, fn, name, is_span, measure):
        calls, counts = self.calls, self.counts
        if not is_span:
            def counter(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return functools.wraps(fn)(counter)

        stack, self_s = self.stack, self.self_s
        clock = time.perf_counter

        def span(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                d = clock() - start
                stack.pop()
                stack[-1][0] += d
                self_s[name] += d - frame[0]
                calls[name] += 1
            if measure is not None:
                for k, v in measure(result).items():
                    counts[k] += v
            return result

        return functools.wraps(fn)(span)

    def report(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "missing": sorted(self.missing),
        }
