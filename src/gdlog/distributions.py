"""Registry of parameterized discrete numerical distributions.

Built-ins: Flip (Bernoulli over {0,1}), Poisson, and Geo (geometric,
number of failures before the first success). Two demo distributions
used by the example corpus can be added with ``with_demo_distributions``:
Dbl (all mass on 2p) and Fork (half on 2p, half on 2p+1).

Sampling is by inversion over the support enumeration order with a
single uniform draw, so it is bit-reproducible and agrees with the pmf
by construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .model import GdlogError

__all__ = [
    "DomainError",
    "DistributionSpec",
    "Registry",
    "RngStream",
]


class DomainError(GdlogError):
    """Raised when a distribution parameter is outside its valid domain."""


class RngStream:
    """Deterministic uniform stream keyed by (base_seed, stream_index).

    Equal pairs yield bit-identical draws; distinct pairs give
    statistically independent streams (numpy SeedSequence spawning).
    """

    def __init__(self, base_seed: int, stream_index: int = 0):
        self.base_seed = int(base_seed)
        self.stream_index = int(stream_index)
        if self.base_seed < 0 or self.stream_index < 0:
            raise GdlogError(f"seed and stream index must be >= 0, got {self!r}")
        seq = np.random.SeedSequence(
            entropy=self.base_seed, spawn_key=(self.stream_index,)
        )
        self._gen = np.random.Generator(np.random.PCG64(seq))

    def uniform(self) -> float:
        """Next float64 in [0, 1)."""
        return float(self._gen.random())

    def __repr__(self) -> str:
        return f"RngStream({self.base_seed}, {self.stream_index})"


@dataclass(frozen=True)
class DistributionSpec:
    """One entry of the registry: pmf, support order, parameter domain.

    ``support`` yields candidate values in a fixed order with
    nondecreasing cumulative mass covering the whole support. For
    infinite supports the iterator is endless; enumeration stops when
    the requested mass is covered or the float accumulator stalls.
    """

    name: str
    pardim: int
    finite_support: bool
    _pmf: Callable = field(compare=False)
    _support: Callable = field(compare=False)
    _param_problem: Callable = field(compare=False)

    def check_params(self, params) -> tuple:
        params = tuple(params)
        if len(params) != self.pardim:
            raise DomainError(
                f"{self.name} expects {self.pardim} parameters, got {len(params)}"
            )
        for p in params:
            if isinstance(p, str):
                raise DomainError(
                    f"{self.name}: parameter {p!r} is symbolic, must be numeric"
                )
        problem = self._param_problem(params)
        if problem:
            raise DomainError(f"{self.name}: {problem}")
        return tuple(float(p) for p in params)

    def pmf(self, value: float, params) -> float:
        """Probability mass at ``value``; 0 outside the support."""
        return self._pmf(float(value), self.check_params(params))

    def sample(self, params, rng: RngStream) -> float:
        """Draw a support-positive value; deterministic given the stream."""
        return self.draw(self.check_params(params), rng)[0]

    def draw(self, params: tuple, rng: RngStream) -> tuple:
        """(value, pmf at value) of one draw; ``params`` must come from
        ``check_params``."""
        u = rng.uniform()
        cum = 0.0
        last = None
        for v in self._support(params):
            p = self._pmf(v, params)
            if p > 0.0:
                last = v, p
                cum += p
                if u < cum:
                    return last
            elif last is not None:
                break  # past the positive tail
        if last is None:
            raise DomainError(f"{self.name}: empty support for params {params}")
        return last  # u fell into mass lost to rounding; clamp to the tail

    def enumerate_support(self, params, mass_target: float) -> list:
        """Ordered (value, pmf) pairs with cumulative pmf >= mass_target.

        The list is always finite: enumeration also stops once adding
        further mass no longer changes the float accumulator.
        """
        if not (0.0 < mass_target <= 1.0):
            raise DomainError(f"mass_target must be in (0, 1], got {mass_target}")
        params = self.check_params(params)
        out = []
        cum = 0.0
        for v in self._support(params):
            p = self._pmf(v, params)
            if p > 0.0:
                out.append((v, p))
                prev = cum
                cum += p
                if cum >= mass_target or cum == prev:
                    break
            elif out:
                break
        return out


class Registry:
    """The set of distributions a program may draw from, by name."""

    def __init__(self):
        self._specs: dict = {}

    def register(self, spec: DistributionSpec) -> None:
        if spec.name in self._specs:
            raise GdlogError(f"distribution '{spec.name}' already registered")
        self._specs[spec.name] = spec

    def get(self, name: str) -> DistributionSpec | None:
        return self._specs.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def names(self) -> list:
        return sorted(self._specs)

    @staticmethod
    def standard() -> "Registry":
        r = Registry()
        r.register(_FLIP)
        r.register(_POISSON)
        r.register(_GEO)
        return r

    @staticmethod
    def with_demo_distributions() -> "Registry":
        r = Registry.standard()
        r.register(_DBL)
        r.register(_FORK)
        return r


# ---------------------------------------------------------------------------
# Built-in distributions


def _flip_pmf(x: float, params) -> float:
    (p,) = params
    if x == 1.0:
        return p
    if x == 0.0:
        return 1.0 - p
    return 0.0


def _flip_support(params) -> Iterator[float]:
    yield 1.0
    yield 0.0


def _flip_check(params) -> str | None:
    (p,) = params
    if not (0.0 <= p <= 1.0) or math.isnan(p):
        return f"parameter p={p} must be in [0, 1]"
    return None


_FLIP = DistributionSpec("Flip", 1, True, _flip_pmf, _flip_support, _flip_check)


def _naturals(params) -> Iterator[float]:
    x = 0.0
    while True:
        yield x
        x += 1.0


def _is_natural(x: float) -> bool:
    return math.isfinite(x) and x >= 0.0 and x == math.floor(x)


def _poisson_pmf(x: float, params) -> float:
    (lam,) = params
    if not _is_natural(x):
        return 0.0
    return math.exp(x * math.log(lam) - lam - math.lgamma(x + 1.0))


def _poisson_check(params) -> str | None:
    (lam,) = params
    if not (lam > 0.0) or not math.isfinite(lam):
        return f"parameter lambda={lam} must be in (0, inf)"
    return None


_POISSON = DistributionSpec(
    "Poisson", 1, False, _poisson_pmf, _naturals, _poisson_check
)


def _geo_pmf(x: float, params) -> float:
    (p,) = params
    if not _is_natural(x):
        return 0.0
    return (1.0 - p) ** x * p


def _geo_check(params) -> str | None:
    (p,) = params
    # p = 0 is rejected: the pmf would be identically zero.
    if not (0.0 < p <= 1.0) or math.isnan(p):
        return f"parameter p={p} must be in (0, 1]"
    return None


_GEO = DistributionSpec("Geo", 1, False, _geo_pmf, _naturals, _geo_check)


def _dbl_pmf(x: float, params) -> float:
    (p,) = params
    return 1.0 if x == 2.0 * p else 0.0


def _dbl_support(params) -> Iterator[float]:
    yield 2.0 * params[0]


def _finite_check(params) -> str | None:
    bad = [p for p in params if not math.isfinite(p)]
    if bad:
        return f"parameters must be finite, got {bad}"
    return None


_DBL = DistributionSpec("Dbl", 1, True, _dbl_pmf, _dbl_support, _finite_check)


def _fork_pmf(x: float, params) -> float:
    (p,) = params
    return 0.5 if x == 2.0 * p or x == 2.0 * p + 1.0 else 0.0


def _fork_support(params) -> Iterator[float]:
    yield 2.0 * params[0]
    yield 2.0 * params[0] + 1.0


_FORK = DistributionSpec("Fork", 1, True, _fork_pmf, _fork_support, _finite_check)
