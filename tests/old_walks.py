"""``DistributionSpec.draw`` and ``enumerate_support`` as two loops over a
support, each with its own stop rules, before both went through one walk
(``DistributionSpec._walk``); and Poisson's support start as it was found
by bisection, before it became a closed-form bound.

Differential oracle for ``tests/test_walk_oracle.py`` and, for the start,
``tests/test_distributions.py``. Each loop takes the spec whose ``_support``
and ``_pmf`` it walks, and the same arguments as the method it stands for.
"""
from __future__ import annotations

import math

from gdlog.distributions import DomainError


def draw(spec, params: tuple, rng) -> tuple:
    u = rng.uniform()
    if spec._flip:  # the walk's result: 1 - p > 0 unless p = 1, where u < p
        (p,) = params
        return (1.0, p) if u < p else (0.0, 1.0 - p)
    cum = 0.0
    last = None
    for v in spec._support(params):
        p = spec._pmf(v, params)
        if p > 0.0:
            last = v, p
            prev, cum = cum, cum + p
            if u < cum or cum == prev:  # a stalled sum lost the rest to rounding
                return last
        elif last is not None:
            break  # past the positive tail
    if last is None:
        raise DomainError(f"{spec.name}: empty support for params {params}")
    return last  # u fell into the rounding loss of a support that ended


def enumerate_support(spec, params, mass_target: float) -> list:
    if not (0.0 < mass_target <= 1.0):
        raise DomainError(f"mass_target must be in (0, 1], got {mass_target}")
    params = spec.check_params(params)
    out = []
    cum = 0.0
    for v in spec._support(params):
        p = spec._pmf(v, params)
        if p > 0.0:
            out.append((v, p))
            prev = cum
            cum += p
            if cum >= mass_target or cum == prev:
                break
        elif out:
            break
    return out


def poisson_start(lam: float) -> int:
    """The last natural whose log pmf, rising up to the mode, is under -800,
    found by bisection over the pmf's log formula; 0 if there is none."""
    lo, hi = 0, math.floor(lam)
    while hi - lo > 1:  # lo is 0 or has log pmf under -800; hi has not
        mid = (lo + hi) // 2
        low = mid * math.log(lam) - lam - math.lgamma(mid + 1.0) < -800.0
        lo, hi = (mid, hi) if low else (lo, mid)
    return lo
