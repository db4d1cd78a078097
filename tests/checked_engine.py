"""A chase engine that re-verifies its invariants after every step.

``CheckedEngine.apply`` records the firing as ``ChaseEngine.apply`` does,
then recomputes from scratch the functional dependencies, the obligation
index, the draw ledger and every join index
(``ChaseEngine._verify_invariants``), raising AssertionError on a
mismatch. Tests use it wherever a chase should keep those invariants.
"""
from __future__ import annotations

from gdlog.chase import ChaseEngine


class CheckedEngine(ChaseEngine):
    def apply(self, state, rule, slots, value=None, pmf=None):
        out = super().apply(state, rule, slots, value, pmf)
        self._verify_invariants(state)
        return out
