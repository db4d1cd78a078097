"""One support walk against the two loops it replaced.

``old_walks`` keeps ``draw`` and ``enumerate_support`` as they were before
both went through ``DistributionSpec._walk``. Over random parameters of
every built-in and demo distribution, custom specs with a gap, with a
float sum short of 1 and with a sum that stalls, and uniforms and mass
targets on and beside the cumulative sums, the new methods return the old
results bit for bit. The one intended change is a support without
positive mass: ``enumerate_support`` listed it as empty, so enumeration
booked that impossible mass as unexplored; now it raises, as ``draw``
always did.
"""
from __future__ import annotations

import math
import random

import old_walks
import pytest

from gdlog.distributions import DistributionSpec, DomainError, Registry, RngStream


class Fixed:
    """A stream whose uniform is always ``u``."""

    def __init__(self, u):
        self.u = u

    def uniform(self):
        return self.u


def _custom(name, masses):
    return DistributionSpec(
        name,
        0,
        True,
        lambda x, params: masses.get(x, 0.0),
        lambda params: iter(masses),
        lambda params: None,
    )


CUSTOM = [
    _custom("Gap", {0.0: 0.0, 1.0: 0.5, 2.0: 0.0, 3.0: 0.5}),
    _custom("Tenths", {float(k): 0.1 for k in range(10)}),  # sums to 1 - 2**-53
    _custom("Stall", {0.0: 0.5, 1.0: 0.25, 2.0: 2.0**-60, 3.0: 0.25}),
]
EDGE_UNIFORMS = (0.0, 5e-324, 0.5, 1.0 - 2.0**-53)
TARGETS = (5e-324, 0.5, 0.99, 1.0 - 1e-6, 1.0 - 1e-12, 1.0)


def _cases(rnd):
    reg = Registry.with_demo_distributions()
    poisson, geo = reg.get("Poisson"), reg.get("Geo")
    cases = [(poisson, (lam,)) for lam in (1e-3, 0.5, 3.0, 745.0, 1e4)]
    cases += [(geo, (p,)) for p in (1e-3, 0.3, 0.5, 1.0 - 2.0**-53, 1.0)]
    cases += [
        (reg.get(name), (p,))
        for name in ("Dbl", "Fork")
        for p in (0.0, -0.0, 3.0, -2.5, 5e-324, 1e15, math.nextafter(2.0**52, 0.0))
    ]
    cases += [(reg.get("Flip"), (p,)) for p in (0.0, 0.3, 1.0)]
    for _ in range(40):
        lam = rnd.choice((rnd.uniform(1e-3, 30.0), 10.0 ** rnd.uniform(-3.0, 4.0)))
        cases.append((poisson, (lam,)))
        cases.append((geo, (rnd.choice((rnd.random(), 10.0 ** rnd.uniform(-2.0, 0.0))),)))
        for name in ("Dbl", "Fork"):
            p = rnd.choice((rnd.uniform(-1e6, 1e6), float(rnd.randrange(-(2**51), 2**51))))
            cases.append((reg.get(name), (p,)))
    return cases + [(spec, ()) for spec in CUSTOM]


def _bits(pairs) -> list:
    return [(float(v).hex(), p.hex()) for v, p in pairs]


def _probes(rnd, cums) -> list:
    """Some cumulative sums: the first, the last and a few between."""
    picks = {0, len(cums) - 1, *(rnd.randrange(len(cums)) for _ in range(4))}
    return [cums[i] for i in sorted(picks)]


def test_walk_matches_the_old_loops():
    rnd = random.Random(2014)
    draws = supports = 0
    for spec, params in _cases(rnd):
        full = old_walks.enumerate_support(spec, params, 1.0)
        cums, cum = [], 0.0
        for _, p in full:
            cum += p  # summed in the walk's order, as the walk sums
            cums.append(cum)
        probes = _probes(rnd, cums)
        uniforms = [*EDGE_UNIFORMS, *(RngStream(7, i).uniform() for i in range(4))]
        uniforms += [u for c in probes for u in (math.nextafter(c, 0.0), c) if u < 1.0]
        for u in uniforms:
            want = old_walks.draw(spec, params, Fixed(u))
            assert _bits([spec.draw(params, Fixed(u))]) == _bits([want]), (spec, params, u)
            draws += 1
        targets = [*TARGETS, *probes, *(math.nextafter(c, 1.0) for c in probes)]
        for target in (t for t in targets if 0.0 < t <= 1.0):
            want = old_walks.enumerate_support(spec, params, target)
            got = spec.enumerate_support(params, target)
            assert _bits(got) == _bits(want), (spec, params, target)
            supports += 1
    assert draws >= 2000 and supports >= 1500


def test_a_support_without_mass_raises_in_both():
    void = _custom("Void", {0.0: 0.0, 1.0: 0.0})
    pytest.raises(DomainError, old_walks.enumerate_support, void, (), 1.0)  # the gate
    for u in EDGE_UNIFORMS:
        with pytest.raises(DomainError, match=r"^Void: empty support for params"):
            old_walks.draw(void, (), Fixed(u))
        with pytest.raises(DomainError, match=r"^Void: empty support for params"):
            void.draw((), Fixed(u))
    for target in TARGETS:
        with pytest.raises(DomainError, match=r"^Void: empty support for params"):
            void.enumerate_support((), target)
