from __future__ import annotations

import math
import random
import sys
from collections import Counter

import pytest
import scipy.stats

from gdlog.distributions import DomainError, Registry, RngStream
from gdlog.model import GdlogError

import old_walks
from numpy_rng import NumpyRngStream


@pytest.fixture(scope="module")
def reg():
    return Registry.with_demo_distributions()


# -- pmf ---------------------------------------------------------------------


def test_flip_pmf(reg):
    flip = reg.get("Flip")
    assert flip.pmf(1, [0.3]) == 0.3
    assert flip.pmf(0, [0.3]) == 0.7
    assert flip.pmf(0, [1.0]) == 0.0
    assert flip.pmf(0.5, [0.3]) == 0.0


def test_poisson_pmf_at_zero(reg):
    # oracle: direct evaluation of lambda^x e^-lambda / x! at x=0, lambda=1
    assert reg.get("Poisson").pmf(0, [1.0]) == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_poisson_pmf_formula(reg):
    poisson = reg.get("Poisson")
    for lam in (0.5, 1.0, 2.0, 7.5):
        for x in range(12):
            direct = lam**x * math.exp(-lam) / math.factorial(x)
            assert poisson.pmf(x, [lam]) == pytest.approx(direct, rel=1e-12)
    assert poisson.pmf(-1, [1.0]) == 0.0
    assert poisson.pmf(2.5, [1.0]) == 0.0


def test_geo_pmf(reg):
    geo = reg.get("Geo")
    assert geo.pmf(2, [0.5]) == pytest.approx((1 - 0.5) ** 2 * 0.5, rel=1e-12)
    assert geo.pmf(2, [0.5]) == 0.125
    assert geo.pmf(0, [1.0]) == 1.0
    assert geo.pmf(-3, [0.5]) == 0.0


def test_demo_distributions(reg):
    dbl = reg.get("Dbl")
    assert dbl.pmf(4, [2.0]) == 1.0
    assert dbl.pmf(5, [2.0]) == 0.0
    fork = reg.get("Fork")
    assert fork.pmf(4, [2.0]) == 0.5
    assert fork.pmf(5, [2.0]) == 0.5
    assert fork.pmf(6, [2.0]) == 0.0


def test_symbol_has_no_mass():
    # a symbol is outside every numeric support, even one that spells a number;
    # the parameters are still checked first
    flip = Registry.standard().get("Flip")
    assert flip.pmf("1", (0.3,)) == 0.0
    assert flip.pmf("s", (0.3,)) == 0.0
    with pytest.raises(DomainError, match="Flip"):
        flip.pmf("s", (1.5,))


def test_parameter_domains(reg):
    with pytest.raises(DomainError, match="Flip"):
        reg.get("Flip").pmf(1, [1.5])
    with pytest.raises(DomainError, match="lambda"):
        reg.get("Poisson").pmf(1, [-1.0])
    with pytest.raises(DomainError, match="Poisson"):
        reg.get("Poisson").sample([-1.0], RngStream(0))
    with pytest.raises(DomainError, match="Geo"):
        reg.get("Geo").pmf(1, [0.0])
    with pytest.raises(DomainError, match="symbolic"):
        reg.get("Flip").pmf(1, ["Napa"])
    with pytest.raises(DomainError, match="parameters"):
        reg.get("Flip").pmf(1, [0.3, 0.4])


def test_registry_membership_and_finite_parameters(reg):
    assert "Flip" in Registry.standard()
    assert "Dbl" not in Registry.standard()
    with pytest.raises(DomainError, match=r"^Dbl: parameters must be finite, got \[inf\]$"):
        reg.get("Dbl").pmf(1, [math.inf])


def test_doubling_parameters_stay_in_the_float_range(reg):
    """Dbl and Fork reject a parameter whose support values 2p and 2p + 1
    overflow, so no draw returns ``inf``. Fork also rejects |p| >= 2**52,
    where 2p + 1 is not a float and rounds to 2p or 2p + 2."""
    top = sys.float_info.max / 2  # 2 * top is the largest float
    dbl, fork = reg.get("Dbl"), reg.get("Fork")
    for p in (top, -top, 1e300):
        assert all(math.isfinite(v) for v, _ in dbl.enumerate_support((p,), 1.0))
        with pytest.raises(DomainError, match=r"^Fork: parameter p=.* 2\*\*52\)$"):
            fork.check_params((p,))
    below = math.nextafter(2.0**52, 0.0)
    for p in (below, -below):
        assert fork.enumerate_support((p,), 1.0) == [(2 * p, 0.5), (2 * p + 1, 0.5)]
    for name in ("Dbl", "Fork"):
        spec = reg.get(name)
        for p in (math.nextafter(top, math.inf), -1e308):
            with pytest.raises(DomainError, match=rf"^{name}: parameter p=.* doubles "):
                spec.check_params((p,))


def test_poisson_mean_below_2_pow_52(reg):
    """From 2**53 on, adding 1.0 to a float leaves it unchanged, so a support
    walk from near a mean of 1e17 never moves. Means from 2**52 on are
    rejected; below, a walk ends by the last value of positive mass, which
    is under lam + 40 sqrt(lam) and so under 2**53."""
    from gdlog.distributions import _poisson_pmf, _poisson_support

    spec = reg.get("Poisson")
    for lam in (2.0**52, 1e17, math.inf, math.nan):
        with pytest.raises(DomainError, match=r"lambda=.* must be in \(0, 2\*\*52\)$"):
            spec.check_params((lam,))
    # a NaN fails every chained comparison, so each check rejects it
    with pytest.raises(DomainError, match=r"^Flip: parameter p=nan must be in \[0, 1\]$"):
        reg.get("Flip").check_params((math.nan,))
    with pytest.raises(DomainError, match=r"^Geo: parameter p=nan must be in \(0, 1\]$"):
        reg.get("Geo").check_params((math.nan,))
    lam = 2.0**52 - 1.0
    assert spec.check_params((lam,)) == (lam,)
    support = _poisson_support((lam,))
    start = next(support)
    assert [next(support), next(support)] == [start + 1.0, start + 2.0]
    far = math.floor(lam + 40.0 * math.sqrt(lam))
    assert far < 2.0**53 - 1.0 and _poisson_pmf(float(far), (lam,)) == 0.0


# -- enumerate_support --------------------------------------------------------


def test_flip_support_order(reg):
    assert reg.get("Flip").enumerate_support([0.3], 1.0) == [(1.0, 0.3), (0.0, 0.7)]
    # zero-mass points are never emitted
    assert reg.get("Flip").enumerate_support([1.0], 1.0) == [(1.0, 1.0)]


def test_poisson_support_to_mass_target(reg):
    # oracle first: sum lambda^x e^-lambda / x! ascending until >= 0.99
    lam = 1.0
    cum, hi = 0.0, 0
    while True:
        cum += lam**hi * math.exp(-lam) / math.factorial(hi)
        if cum >= 0.99:
            break
        hi += 1
    support = reg.get("Poisson").enumerate_support([lam], 0.99)
    assert [v for v, _ in support] == [float(x) for x in range(hi + 1)]
    total = sum(p for _, p in support)
    assert total >= 0.99
    assert total == pytest.approx(cum, rel=1e-12)


def test_geo_support_to_mass_target(reg):
    # oracle: geometric partial sums 0.5, 0.75, 0.875, 0.9375
    support = reg.get("Geo").enumerate_support([0.5], 0.9)
    assert [v for v, _ in support] == [0.0, 1.0, 2.0, 3.0]
    assert sum(p for _, p in support) == pytest.approx(0.9375, abs=1e-12)


def test_support_is_finite_even_at_full_mass(reg):
    support = reg.get("Poisson").enumerate_support([2.0], 1.0)
    assert len(support) < 200
    assert sum(p for _, p in support) == pytest.approx(1.0, abs=1e-9)


def test_support_invariants(reg):
    for name, params in [
        ("Flip", [0.3]),
        ("Poisson", [2.0]),
        ("Geo", [0.4]),
        ("Fork", [3.0]),
    ]:
        spec = reg.get(name)
        support = spec.enumerate_support(params, 1.0 - 1e-12)
        values = [v for v, _ in support]
        assert len(values) == len(set(values))
        cum = 0.0
        for _, p in support:
            assert p > 0.0
            prev = cum
            cum += p
            assert cum >= prev
        assert cum <= 1.0 + 1e-12
        if spec.finite_support:
            assert cum >= 1.0 - 1e-9


def test_bad_mass_target(reg):
    with pytest.raises(DomainError):
        reg.get("Flip").enumerate_support([0.5], 0.0)


def test_registry_rejects_duplicate_names():
    from gdlog.model import GdlogError

    reg = Registry.standard()
    with pytest.raises(GdlogError, match="already registered"):
        reg.register(reg.get("Flip"))
    assert reg.names() == ["Flip", "Geo", "Poisson"]


def test_custom_spec_without_mass_and_with_a_gap():
    # a zero after positive mass ends the support walk, even short of the
    # mass target or of the uniform; a support that ends with its float sum
    # short of 1 draws its last value for a uniform above that sum; a support
    # with no positive mass fails the parameter check, so every chase names
    # the firing, while the spec's own calls keep the bare message
    from gdlog.chase import (
        ChaseEngine,
        applicable_firings,
        chase_step,
        replay_weight,
        sample_outcome,
    )
    from gdlog.distributions import DistributionSpec
    from gdlog.enumeration import cylinder_mass, enumerate_outcomes
    from gdlog.model import Fact
    from gdlog.parser import parse_facts, parse_program
    from gdlog.ppdl import estimate_posterior, exact_posterior
    from gdlog.translate import to_existential

    class Fixed:
        def __init__(self, u):
            self.u = u

        def uniform(self):
            return self.u

    def spec(name, masses):
        return DistributionSpec(
            name,
            0,
            True,
            lambda x, params: masses.get(x, 0.0),
            lambda params: iter(masses),
            lambda params: None,
        )

    reg = Registry()
    reg.register(spec("Gap", {0.0: 0.0, 1.0: 0.5, 2.0: 0.0, 3.0: 0.5}))
    reg.register(spec("Void", {0.0: 0.0, 1.0: 0.0}))
    reg.register(spec("Tenths", {float(k): 0.1 for k in range(10)}))
    assert reg.get("Gap").enumerate_support((), 1.0) == [(1.0, 0.5)]
    for u in (0.0, 0.5, 0.75, 1.0 - 2.0**-53):
        assert reg.get("Gap").draw((), Fixed(u)) == (1.0, 0.5)
    tenths = reg.get("Tenths").enumerate_support((), 1.0)
    assert len(tenths) == 10 and sum(p for _, p in tenths) == 1.0 - 2.0**-53
    assert reg.get("Tenths").draw((), Fixed(1.0 - 2.0**-53)) == (9.0, 0.1)
    assert reg.get("Tenths").draw((), Fixed(0.85)) == (8.0, 0.1)
    void = reg.get("Void")
    empty = r"^Void: empty support for params \(\)$"
    for call in (
        lambda: void.check_params(()),
        lambda: void.pmf(0.0, ()),
        lambda: void.sample((), RngStream(0)),
        lambda: void.enumerate_support((), 1.0),
        lambda: void.draw((), RngStream(0)),  # unchecked: the walk's own guard
    ):
        with pytest.raises(DomainError, match=empty):
            call()
    program = parse_program("edb S/1.\nidb R/1.\nR(Void[]) :- S(x).\n", reg)
    facts = parse_facts("S(1).\n", program.edb)
    engine = ChaseEngine(to_existential(program))
    state = engine.initial_state(facts)
    (firing,) = applicable_firings(state, engine)
    named = r"^rule 0 \[x=1\.0\]: Void: empty support for params \(\)$"
    for call in (
        lambda: sample_outcome(program, facts, 0),
        lambda: enumerate_outcomes(program, facts),
        lambda: exact_posterior(program, facts),
        lambda: estimate_posterior(program, facts, Fact("R", (0.0,)), 3, 0),
        lambda: replay_weight(program, facts, facts),
        lambda: cylinder_mass(program, facts, ()),
        lambda: chase_step(state.copy(), firing, engine, choice=0.0),
        lambda: chase_step(state.copy(), firing, engine, rng=RngStream(0)),
    ):
        with pytest.raises(DomainError, match=named):
            call()


# -- sampling -----------------------------------------------------------------


def test_sampler_determinism():
    a = RngStream(1234, 7)
    b = RngStream(1234, 7)
    reg = Registry.standard()
    geo = reg.get("Geo")
    assert [geo.sample([0.4], a) for _ in range(500)] == [
        geo.sample([0.4], b) for _ in range(500)
    ]


def test_streams_differ_across_indexes():
    reg = Registry.standard()
    flip = reg.get("Flip")
    a = [flip.sample([0.5], RngStream(99, i)) for i in range(64)]
    b = [flip.sample([0.5], RngStream(99, i + 64)) for i in range(64)]
    assert a != b


def test_stream_matches_numpy_oracle():
    # bit-identical to numpy's SeedSequence -> PCG64 -> random(), including
    # seeds and indices of several 32-bit words
    rnd = random.Random(2014)
    seeds = [0, 1, 7, 2**32 - 1, 2**32, 2**63, 2**64 + 5, 2**96 - 1, 10**30, 2**1000 + 9]
    seeds += [rnd.getrandbits(rnd.choice((8, 31, 33, 64, 65, 127, 200))) for _ in range(10)]
    indices = [0, 1, 2, 63, 2**32 - 1, 2**32, 2**64, 2**127 - 1, 2**200 + 1]
    indices += [rnd.getrandbits(rnd.choice((8, 32, 40, 96))) for _ in range(6)]
    pairs = [(s, i) for s in seeds for i in indices]
    # the streams of one seed share its cached pool: visit 18 seeds round-robin
    # (more than the cache holds, so it evicts), among them 4- and 5-word seeds
    # and seeds whose low 4 words agree, over consecutive and large indices
    shared = [0, 5, 60902, 2**96 - 1, 2**96, 2**127 + 3, 2**128 - 1, 2**128 + 5]
    shared += [2**129 + 5, 2**160 + 5, 2**255 + 1, 2**64 * 5 + 5]
    shared += [rnd.getrandbits(rnd.choice((16, 64, 128, 160))) for _ in range(6)]
    assert len(set(shared)) == 18
    pairs += [(s, i) for i in [*range(256), 2**32 - 1, 2**32, 2**64] for s in shared]
    assert len(set(pairs)) >= 300
    draws = 0
    for seed, index in pairs:
        got, want = RngStream(seed, index), NumpyRngStream(seed, index)
        for _ in range(34):
            assert got.uniform() == want.uniform(), (seed, index)
            draws += 1
    assert draws >= 10_000


def test_flip_closed_form_matches_the_walk(reg):
    """Flip's written-out inversion returns what the generic walk over its
    support returns, bit for bit, for every p in [0, 1] and u in [0, 1)."""
    from gdlog.distributions import (
        DistributionSpec,
        _flip_check,
        _flip_pmf,
        _flip_support,
    )

    class Fixed:
        def __init__(self, u):
            self.u = u

        def uniform(self):
            return self.u

    def bits(draw):
        return tuple(float(x).hex() for x in draw)

    flip = reg.get("Flip")
    walk = DistributionSpec("Flip", 1, True, _flip_pmf, _flip_support, _flip_check)
    assert flip._flip and not walk._flip and walk == flip
    checked = 0
    for p in (0.0, 5e-324, 2.0**-53, 0.01, 0.5, 0.9, 1.0 - 2.0**-53, 1.0):
        for u in (0.0, math.nextafter(p, 0.0), p, math.nextafter(p, 1.0), 1.0 - 2.0**-53):
            if u < 1.0:  # a uniform is never 1
                got, want = flip.draw((p,), Fixed(u)), walk.draw((p,), Fixed(u))
                assert bits(got) == bits(want), (p, u)
                checked += 1
    assert checked == 37
    rnd = random.Random(53)
    for k in range(10_000):
        p = rnd.choice((rnd.random(), rnd.random() ** 40, 1.0 - rnd.random() ** 40))
        seed, index = rnd.getrandbits(32), rnd.getrandbits(rnd.choice((8, 40)))
        got = flip.draw((p,), RngStream(seed, index))
        assert bits(got) == bits(walk.draw((p,), RngStream(seed, index))), (p, seed)


def test_negative_seed_or_stream_index_rejected():
    for seed, index in ((-1, 0), (0, -1), (-(2**70), 3)):
        with pytest.raises(GdlogError, match="must be >= 0"):
            RngStream(seed, index)


def test_draw_clamps_to_the_last_value_of_positive_mass(reg):
    # a uniform past the summed mass, which rounding leaves below 1, falls
    # on the value where the sum stops growing: the last one that
    # enumerate_support lists at full mass, not one far into the tail
    class Top:
        def uniform(self):
            return 1.0 - 2.0**-53

    for name, p in (("Poisson", 1.0), ("Geo", 0.3), ("Geo", 1e-3)):
        spec = reg.get(name)
        assert spec.draw((p,), Top()) == spec.enumerate_support((p,), 1.0)[-1]
    assert reg.get("Poisson").draw((1.0,), Top()) == (19.0, 3.0242027006024186e-18)
    assert reg.get("Geo").draw((1e-3,), Top())[0] == 30507.0
    assert reg.get("Flip").draw((0.5,), Top()) == (0.0, 0.5)


def test_degenerate_flip_sample(reg):
    rng = RngStream(5)
    assert all(reg.get("Flip").sample([1.0], rng) == 1.0 for _ in range(20))


def test_flip_law_of_large_numbers(reg):
    rng = RngStream(2024, 0)
    flip = reg.get("Flip")
    n = 100_000
    ones = sum(flip.sample([0.3], rng) for _ in range(n))
    assert abs(ones / n - 0.3) < 0.01


@pytest.mark.parametrize(
    "name,params",
    [("Flip", [0.3]), ("Poisson", [2.0]), ("Geo", [0.4])],
)
def test_sampler_pmf_agreement_chi_square(reg, name, params):
    spec = reg.get(name)
    n = 100_000
    rng = RngStream(777, 0)
    counts = Counter(spec.sample(params, rng) for _ in range(n))
    support = spec.enumerate_support(params, 0.9999)
    observed, expected = [], []
    tail_obs = n
    tail_exp = float(n)
    for value, p in support:
        if p * n < 10:
            break  # lump small-expectation buckets into the tail
        observed.append(counts.get(value, 0))
        expected.append(p * n)
        tail_obs -= counts.get(value, 0)
        tail_exp -= p * n
    if tail_exp >= 10:
        observed.append(tail_obs)
        expected.append(tail_exp)
    else:  # negligible tail: fold it into the last bucket
        observed[-1] += tail_obs
        expected[-1] += tail_exp
    stat, pvalue = scipy.stats.chisquare(observed, expected)
    assert pvalue > 1e-3, f"{name}: chi2={stat}, p={pvalue}"


# -- Poisson support start ----------------------------------------------------

# 1,070 is where the closed-form start first leaves 0; just past it (74
# values at 1,071.5) it starts furthest before the bisection's start
POISSON_MEANS = (0.5, 1.0, 3.0, 10.0, 100.0, 745.0, 800.0, 801.0, 1e3, 1060.0, 1070.0)
POISSON_MEANS += (1107.0, 1170.0, 1600.0, 2000.0, 1e4, 1e5)


def _old_poisson():
    """Poisson as it was, with its support walked from 0."""
    from gdlog.distributions import (
        DistributionSpec,
        _naturals,
        _poisson_check,
        _poisson_pmf,
    )

    return DistributionSpec(
        "Poisson", 1, False, _poisson_pmf, _naturals, _poisson_check
    )


def _old_draw_table(lam):
    """(values, pmfs, cumulative sums) of every draw the walk from 0 can make."""
    from gdlog.distributions import _naturals, _poisson_pmf

    values, pmfs, cums, cum = [], [], [], 0.0
    for v in _naturals((lam,)):
        p = _poisson_pmf(v, (lam,))
        if p > 0.0:
            cum += p
            values.append(v), pmfs.append(p), cums.append(cum)
        elif values:
            return values, pmfs, cums


@pytest.mark.parametrize("lam", POISSON_MEANS)
def test_poisson_support_skips_only_values_without_mass(reg, lam):
    from bisect import bisect_right

    from gdlog.distributions import _poisson_pmf, _poisson_support

    start = next(_poisson_support((lam,)))
    assert all(_poisson_pmf(float(x), (lam,)) == 0.0 for x in range(int(start)))
    assert (start > 0.0) is (lam >= 1070.0)  # log pmf(0) = -lam: none skipped
    # draws: the old spec itself on a few streams, its walk's table on 300
    old, new = _old_poisson(), reg.get("Poisson")
    for i in range(3):
        assert new.draw((lam,), RngStream(3, i)) == old.draw((lam,), RngStream(3, i))
    values, pmfs, cums = _old_draw_table(lam)
    for i in range(300):
        u = RngStream(11, i).uniform()
        k = min(bisect_right(cums, u), len(values) - 1)
        assert new.draw((lam,), RngStream(11, i)) == (values[k], pmfs[k])
    for target in (0.5, 0.99, 1.0 - 1e-12, 1.0):
        support = new.enumerate_support((lam,), target)
        assert support == old.enumerate_support((lam,), target)


def test_large_poisson_mean_starts_near_its_mass():
    from gdlog.distributions import _poisson_support

    for lam in (1e6, 1e8):
        start = next(_poisson_support((lam,)))
        assert lam - 50.0 * math.sqrt(lam) < start < lam - 30.0 * math.sqrt(lam)


def _stirling_log_pmf(x: float, lam: float) -> float:
    """Poisson's log pmf at a natural x >= 1 below a mean under 2**52, within
    1/(360 x**3) + 1e-6: x log(lam / x) - (lam - x) with Stirling's series to
    1/(12x), where ``log1p`` keeps the cancelling terms accurate."""
    d = lam - x
    stirling = 0.5 * math.log(2.0 * math.pi * x) + 1.0 / (12.0 * x)
    return x * math.log1p(d / x) - d - stirling


def test_poisson_start_is_a_bound_under_the_mass():
    """Over a log grid of means up to 2**52 - 1, the closed-form start has
    an accurate log pmf under -800 and a computed pmf of 0.0, and the pmf is
    0.0 at values sampled between it and the bisection's start. The closed
    form starts at or before the bisection, except above 1e15: there the log
    formula rounds by up to about 31, more than the bound's slack of about 18
    (Stirling's -log(2 pi x) / 2), so the bisection, which reads that formula,
    can stop up to about 0.2 sqrt(lam) before the closed form."""
    from gdlog.distributions import _poisson_pmf, _poisson_support

    means = [10.0 ** (k / 100) for k in range(-300, 1566)] + [2.0**52 - 1.0]
    above = 0
    for lam in means:
        start, old = next(_poisson_support((lam,))), old_walks.poisson_start(lam)
        if start > 0.0:
            assert _stirling_log_pmf(start, lam) <= -800.0, lam
            assert _poisson_pmf(start, (lam,)) == 0.0, lam
        lo, hi = sorted((int(start), old))
        for j in range(33 if hi > 0 else 0):
            x = float(lo + (hi - lo) * j // 32)
            assert _poisson_pmf(x, (lam,)) == 0.0, (lam, x)
        if start > old:
            assert lam > 1e15, lam
            above += 1
    assert len(means) == 1867 and above < 10
