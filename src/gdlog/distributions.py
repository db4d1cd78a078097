"""Registry of parameterized discrete numerical distributions.

Built-ins: Flip (Bernoulli over {0,1}), Poisson, and Geo (geometric,
number of failures before the first success). Two demo distributions
used by the example corpus can be added with ``with_demo_distributions``:
Dbl (all mass on 2p) and Fork (half on 2p, half on 2p+1).

Sampling is by inversion over the support enumeration order with a
single uniform draw, so it is bit-reproducible and agrees with the pmf
by construction. Flip's inversion is written out, ``(1, p)`` if the
uniform is under p and ``(0, 1 - p)`` otherwise, because Flip is the
most drawn distribution and the walk over its two values costs twice as
much; it returns what the walk returns for every p in [0, 1].
"""
from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Iterator

from .model import GdlogError, _Record

__all__ = [
    "DomainError",
    "DistributionSpec",
    "Registry",
    "RngStream",
]


class DomainError(GdlogError):
    """Raised when a distribution parameter is outside its valid domain."""


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# SeedSequence: each hash constant is the last times _HASH; _MIX_L and _MIX_R
# mix a hashed word into a pool word
_HASH, _MIX_L, _MIX_R = 0x931E8875, 0xCA01F9DD, 0x4973F715
_B0, _B1, _B2, _B3, _B4, _B5, _B6, _B7, _B8 = (
    0x8B51F9DD * pow(0x58F38DED, i, 1 << 32) & _M32 for i in range(9)
)  # the output words' hash constants


def _hash(v: int, x: int, m: int) -> int:
    v = (v ^ x) * m & _M32
    return v ^ v >> 16


def _mix(x: int, y: int) -> int:
    m = (_MIX_L * x - _MIX_R * y) & _M32
    return m ^ m >> 16


@lru_cache(maxsize=16)
def _seed_pool(seed: int) -> tuple:
    """SeedSequence's 4-word pool after all of ``seed``'s entropy words, and
    the next hash constant: every stream of one seed starts from these.
    The seed's 32-bit words come least significant first, padded to 4."""
    words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 97), 32)]
    consts = _hash_constants()
    pool = [_hash(v, *next(consts)) for v in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], *next(consts)))
    for v in words[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], _hash(v, *next(consts)))
    return (*pool, next(consts)[0])


def _hash_constants(c: int = 0x43B0D7E5) -> Iterator[tuple]:
    """SeedSequence's hash constants by pairs: hash k xors c_k, times c_k+1."""
    while True:
        x, c = c, c * _HASH & _M32
        yield x, c


def _pcg_seed(seed: int, index: int) -> tuple:
    """PCG64 (state, increment) seeded by SeedSequence(seed, spawn_key=(index,))."""
    a, b, c, d, k = _seed_pool(seed)
    while True:  # each 32-bit word of the index, least significant first,
        w = index & _M32  # is hashed by the next 4 constants into a, b, c, d
        h = (w ^ k) * (k := k * _HASH & _M32) & _M32
        a = (m := (_MIX_L * a - _MIX_R * (h ^ h >> 16)) & _M32) ^ m >> 16
        h = (w ^ k) * (k := k * _HASH & _M32) & _M32
        b = (m := (_MIX_L * b - _MIX_R * (h ^ h >> 16)) & _M32) ^ m >> 16
        h = (w ^ k) * (k := k * _HASH & _M32) & _M32
        c = (m := (_MIX_L * c - _MIX_R * (h ^ h >> 16)) & _M32) ^ m >> 16
        h = (w ^ k) * (k := k * _HASH & _M32) & _M32
        d = (m := (_MIX_L * d - _MIX_R * (h ^ h >> 16)) & _M32) ^ m >> 16
        index >>= 32
        if not index:
            break
    w0, w1, w2, w3, w4, w5, w6, w7 = [v ^ v >> 16 for v in (
        (a ^ _B0) * _B1 & _M32, (b ^ _B1) * _B2 & _M32,
        (c ^ _B2) * _B3 & _M32, (d ^ _B3) * _B4 & _M32,
        (a ^ _B4) * _B5 & _M32, (b ^ _B5) * _B6 & _M32,
        (c ^ _B6) * _B7 & _M32, (d ^ _B7) * _B8 & _M32,
    )]
    inc = ((w4 | w5 << 32) << 65 | (w6 | w7 << 32) << 1 | 1) & _M128
    start = (w0 | w1 << 32) << 64 | w2 | w3 << 32
    return ((inc + start) * _PCG_MULT + inc) & _M128, inc


class RngStream:
    """Deterministic uniform stream keyed by (base_seed, stream_index).

    Equal pairs yield bit-identical draws; distinct pairs give statistically
    independent streams. SeedSequence hashing seeds PCG64, a 128-bit LCG with
    XSL-RR output (O'Neill, "PCG: A Family of Simple Fast Space-Efficient
    Statistically Good Algorithms for Random Number Generation", 2014).
    """

    def __init__(self, base_seed: int, stream_index: int = 0):
        self.base_seed = int(base_seed)
        self.stream_index = int(stream_index)
        if self.base_seed < 0 or self.stream_index < 0:
            raise GdlogError(f"seed and stream index must be >= 0, got {self!r}")
        self._state, self._inc = _pcg_seed(self.base_seed, self.stream_index)

    def uniform(self) -> float:
        """Next float64 in [0, 1): the top 53 bits of PCG64's next output."""
        s = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        x, r = (s >> 64 ^ s) & _M64, s >> 122
        return (((x >> r | x << (64 - r)) & _M64) >> 11) * 2.0**-53

    def __repr__(self) -> str:
        return f"RngStream({self.base_seed}, {self.stream_index})"


class DistributionSpec(_Record, uncompared=("_pmf", "_support", "_param_problem")):
    """One entry of the registry: pmf, support order, parameter domain.

    ``support`` yields candidate values in a fixed order with
    nondecreasing cumulative mass covering the whole support. For
    infinite supports the iterator is endless; enumeration stops when
    the requested mass is covered or the float accumulator stalls.
    """

    name: str
    pardim: int
    finite_support: bool
    _pmf: Callable
    _support: Callable
    _param_problem: Callable
    _flip = False  # not a field: set on Flip's spec, whose draw is written out

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
        """Probability mass at ``value``; 0 outside the support, as for a symbol."""
        return self.mass(value, self.check_params(params))

    def mass(self, value, params: tuple) -> float:
        """``pmf`` at ``value``; ``params`` must come from ``check_params``."""
        return 0.0 if isinstance(value, str) else self._pmf(float(value), params)

    def sample(self, params, rng: RngStream) -> float:
        """Draw a support-positive value; deterministic given the stream."""
        return self.draw(self.check_params(params), rng)[0]

    def draw(self, params: tuple, rng: RngStream) -> tuple:
        """(value, pmf at value) of one draw; ``params`` must come from
        ``check_params``."""
        u = rng.uniform()
        if self._flip:  # the walk's result: 1 - p > 0 unless p = 1, where u < p
            (p,) = params
            return (1.0, p) if u < p else (0.0, 1.0 - p)
        cum = 0.0
        last = None
        for v in self._support(params):
            p = self._pmf(v, params)
            if p > 0.0:
                last = v, p
                prev, cum = cum, cum + p
                if u < cum or cum == prev:  # a stalled sum lost the rest to rounding
                    return last
            elif last is not None:
                break  # past the positive tail
        if last is None:
            raise DomainError(f"{self.name}: empty support for params {params}")
        return last  # u fell into the rounding loss of a support that ended

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
object.__setattr__(_FLIP, "_flip", True)


def _naturals(params, x: float = 0.0) -> Iterator[float]:
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


def _poisson_support(params) -> Iterator[float]:
    """The naturals from the last value whose log pmf, rising up to the mode,
    is under -800: ``exp`` underflows to 0.0 under about -745.2, so each value
    skipped has pmf exactly 0.0 and adds no mass to a draw or enumeration."""
    (lam,) = params
    lo, hi = 0, math.floor(lam)
    while hi - lo > 1:  # lo is 0 or has log pmf under -800; hi has not
        mid = (lo + hi) // 2
        low = mid * math.log(lam) - lam - math.lgamma(mid + 1.0) < -800.0
        lo, hi = (mid, hi) if low else (lo, mid)
    return _naturals(params, float(lo))


def _poisson_check(params) -> str | None:
    # a walk ends by the last value of positive mass, under lam + 40 sqrt(lam):
    # below 2**52 that is under 2**53, where ``_naturals`` still steps by 1.0
    (lam,) = params
    if not (0.0 < lam < 2.0**52):
        return f"parameter lambda={lam} must be in (0, 2**52)"
    return None


_POISSON = DistributionSpec(
    "Poisson", 1, False, _poisson_pmf, _poisson_support, _poisson_check
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
    if not math.isfinite(2.0 * params[0]):  # the support values 2p and 2p + 1
        return f"parameter p={params[0]} doubles past the float range"
    return None


_DBL = DistributionSpec("Dbl", 1, True, _dbl_pmf, _dbl_support, _finite_check)


def _fork_pmf(x: float, params) -> float:
    (p,) = params
    return 0.5 if x == 2.0 * p or x == 2.0 * p + 1.0 else 0.0


def _fork_support(params) -> Iterator[float]:
    yield 2.0 * params[0]
    yield 2.0 * params[0] + 1.0


_FORK = DistributionSpec("Fork", 1, True, _fork_pmf, _fork_support, _finite_check)
