import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinex import (
    Population,
    RuleKind,
    RuleSpec,
    gini_grid,
    gini_population,
    liquidity_grid,
    mobility_profile,
)
from kinex.engine import _record
from kinex.master_eq import Exponential, LinearScheme, build_grid
from kinex.metrics import (
    DEFAULT_EPS_ZERO,
    _gini_coefficients,
    _gini_sums,
    gini_population_bruteforce,
)

from conftest import make_grid

YS1 = RuleSpec(kind=RuleKind.YARD_SALE, lam=1.0)
IA = RuleSpec(kind=RuleKind.IGLESIAS_ALMEIDA)


def record_of(wealth, sweep_abs=0.0):
    """The Monte Carlo record of a population, as ``engine.run`` takes it."""
    return _record(Population(wealth), DEFAULT_EPS_ZERO, 1, sweep_abs)


class TestGiniPopulation:
    def test_perfect_equality(self):
        assert gini_population(Population([1.0, 1.0, 1.0, 1.0])) == 0.0

    def test_finite_oligarchy(self):
        assert gini_population(Population([0.0, 0.0, 0.0, 4.0])) == 0.75

    def test_arithmetic_sequence(self):
        # oracle: brute-force double sum = 20, 20 / (2 * 2.5 * 16) = 0.25
        assert gini_population(Population([1.0, 2.0, 3.0, 4.0])) == 0.25

    def test_zero_total_is_an_error(self):
        with pytest.raises(ValueError, match="degenerate"):
            gini_population(Population([0.0, 0.0]))

    def test_matches_bruteforce_on_random_populations(self):
        gen = np.random.Generator(np.random.PCG64(5))
        for _ in range(20):
            n = int(gen.integers(2, 400))
            pop = Population(gen.exponential(2.0, size=n))
            fast = gini_population(pop)
            slow = gini_population_bruteforce(pop)
            assert fast == pytest.approx(slow, rel=1e-12)

    def test_cached_coefficients_match_the_inline_formula(self):
        # sizes interleaved and repeated, so cache hits follow other sizes
        gen = np.random.Generator(np.random.PCG64(11))
        for n in [2, 3, 128, 4096, 65536] * 2:
            pop = Population(gen.exponential(1.0, size=n))
            x = np.sort(pop.wealth)
            inline = float(((2.0 * np.arange(n) - (n - 1)) * x).sum() / (n * pop.total))
            assert gini_population(pop).hex() == inline.hex(), n

    def test_cached_coefficients_are_read_only(self):
        coef = _gini_coefficients(16)
        assert not coef.flags.writeable
        with pytest.raises(ValueError):
            coef[0] = 0.0

    def test_tie_handling_is_order_independent(self):
        a = gini_population(Population([2.0, 1.0, 1.0, 5.0]))
        b = gini_population(Population([1.0, 5.0, 2.0, 1.0]))
        assert a == b


@given(
    st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=2, max_size=64),
    st.floats(min_value=1e-6, max_value=1e6),
)
@settings(max_examples=100, deadline=None)
def test_gini_scale_invariance(wealths, c):
    base = gini_population(Population(wealths))
    scaled = gini_population(Population([c * w for w in wealths]))
    assert scaled == pytest.approx(base, abs=1e-12)


@given(
    st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=2, max_size=64),
    st.randoms(),
)
@settings(max_examples=100, deadline=None)
def test_population_metrics_permutation_invariance(wealths, rnd):
    if math.fsum(wealths) <= 0:
        wealths = [w + 1.0 for w in wealths]
    shuffled = list(wealths)
    rnd.shuffle(shuffled)
    a, b = Population(wealths), Population(shuffled)
    assert gini_population(a) == pytest.approx(gini_population(b), abs=1e-13)
    ra, rb = (record_of(p.wealth) for p in (a, b))
    assert ra.zero_fraction == rb.zero_fraction
    assert ra.top_share == pytest.approx(rb.top_share, abs=1e-15)


def exponential_gini_quadrature_oracle(mean=1.0, x_max=60.0, points=6001):
    """High-resolution trapezoid quadrature of the Gini double integral for
    an exponential density (analytic value is exactly 1/2)."""
    x = np.linspace(0.0, x_max, points)
    f = np.exp(-x / mean) / mean
    w = np.full(points, x[1] - x[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    inner = np.abs(x[:, None] - x[None, :])
    val = (w * f) @ inner @ (w * f)
    return val / (2.0 * mean)


class TestGiniGrid:
    def test_point_mass_is_zero(self):
        grid = make_grid([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
        assert gini_grid(grid) == 0.0

    def test_two_equal_atoms(self):
        # oracle: closed form for a two-atom density at 0 and 2<x>, G = 1/2
        grid = make_grid([0.0, 2.0, 3.0], [0.5, 0.5, 0.0])
        assert gini_grid(grid) == pytest.approx(0.5, rel=1e-14)

    def test_exponential_density(self):
        oracle = exponential_gini_quadrature_oracle()
        assert oracle == pytest.approx(0.5, abs=1e-3)
        grid = build_grid(LinearScheme(20.0, 400), Exponential(1.0))
        assert gini_grid(grid) == pytest.approx(oracle, abs=0.01)

    def test_rejects_unnormalized_grid(self):
        grid = make_grid([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
        grid.masses[1] = 1.1
        with pytest.raises(ValueError, match="mass"):
            gini_grid(grid)

    def test_reduces_to_population_gini_on_point_masses(self):
        values = [0.5, 1.25, 3.0, 7.5]
        grid = make_grid(values, [0.25] * 4)
        pop = Population(values)
        assert gini_grid(grid) == pytest.approx(gini_population(pop), rel=1e-14)


class TestGridMean:
    @settings(max_examples=100, deadline=None)
    @given(cells=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    def test_is_the_index_order_first_moment(self, cells, seed):
        # the integrator's M1, bit for bit: no BLAS kernel picks the order
        gen = np.random.Generator(np.random.PCG64(seed))
        c = np.concatenate(([0.0], np.cumsum(gen.exponential(size=cells - 1))))
        grid = make_grid(c, gen.dirichlet(np.ones(cells)))
        mean = grid.mean
        assert type(mean) is float
        assert mean == _gini_sums(grid.masses, grid.centers)[1]


class TestMobilityProfile:
    def test_point_mass_yard_sale(self):
        # oracle: Eq of mobility with a point-mass partner density,
        # l(1) = 0.3 * min(1, 1) = 0.3
        rule = RuleSpec(kind=RuleKind.YARD_SALE, lam=0.3)
        grid = make_grid([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
        l = mobility_profile(grid, rule)
        assert l[1] == pytest.approx(0.3, rel=1e-14)

    def test_zero_wealth_is_immobile(self):
        for rule in [YS1, IA, RuleSpec(kind=RuleKind.UNBIASED_LOSER, lam=0.9)]:
            grid = make_grid([0.0, 1.0, 2.0], [0.2, 0.5, 0.3])
            assert mobility_profile(grid, rule)[0] == 0.0

    def test_iglesias_almeida_profile(self):
        # oracle: x * 1 / (x + 1) at x in {1, 3} -> {0.5, 0.75}
        grid = make_grid([0.0, 1.0, 3.0], [0.0, 1.0, 0.0])
        l = mobility_profile(grid, IA)
        assert l[1] == pytest.approx(0.5, rel=1e-14)
        assert l[2] == pytest.approx(0.75, rel=1e-14)

    def test_random_lambda_uses_exact_average(self):
        from kinex import UNIFORM_LAMBDA

        grid = make_grid([0.0, 1.0, 2.0], [0.1, 0.6, 0.3])
        rand = mobility_profile(grid, RuleSpec(kind=RuleKind.YARD_SALE, lam=UNIFORM_LAMBDA))
        half = mobility_profile(grid, RuleSpec(kind=RuleKind.YARD_SALE, lam=0.5))
        assert np.allclose(rand, half, rtol=0, atol=0)


class TestLiquidityGrid:
    def test_equal_wealth_yard_sale_fixed_point(self):
        grid = make_grid([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
        assert liquidity_grid(grid, YS1) == pytest.approx(0.5, rel=1e-14)

    def test_equal_wealth_iglesias_almeida(self):
        grid = make_grid([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
        assert liquidity_grid(grid, IA) == pytest.approx(0.25, rel=1e-14)

    def test_oligarchy_limit_vanishes(self):
        prev = math.inf
        for m_factor in [1e2, 1e3, 1e4]:
            far = m_factor * 1.0
            grid = make_grid([0.0, far], [1.0 - 1.0 / m_factor, 1.0 / m_factor])
            liq = liquidity_grid(grid, RuleSpec(kind=RuleKind.YARD_SALE, lam=0.5))
            assert liq < prev
            prev = liq
        assert prev < 1e-3

    def test_bounded_by_unity(self):
        gen = np.random.Generator(np.random.PCG64(11))
        for _ in range(10):
            c = np.sort(gen.uniform(0.1, 30.0, size=24))
            m = gen.dirichlet(np.ones(24))
            grid = make_grid(c, m)
            for rule in [YS1, IA]:
                assert 0.0 <= liquidity_grid(grid, rule) <= 1.0


class TestRecord:
    def test_exact_oligarchy(self):
        rec = record_of([0.0, 0.0, 0.0, 4.0])
        assert rec.gini == 0.75  # the finite-N maximum (N - 1) / N
        assert rec.zero_fraction == 0.75
        assert rec.top_share == 1.0

    def test_perfect_equality(self):
        rec = record_of([1.0, 1.0, 1.0, 1.0])
        assert rec.gini == 0.0
        assert rec.zero_fraction == 0.0
        assert rec.top_share == 0.25

    def test_liquidity_of_a_sweep(self):
        # sum |delta| / (N <x>): no transfer, and one of <x> per agent pair
        assert record_of([1.0, 1.0, 1.0, 1.0]).liquidity == 0.0
        assert record_of([1.0, 1.0, 1.0, 1.0], sweep_abs=2.0).liquidity == 0.5


class TestMobilityBound:
    def test_profile_bounded_by_twice_mean(self):
        gen = np.random.Generator(np.random.PCG64(3))
        rules = [
            RuleSpec(kind=RuleKind.YARD_SALE, lam=1.0),
            RuleSpec(kind=RuleKind.UNBIASED_LOSER, lam=1.0),
            IA,
        ]
        for _ in range(10):
            n = int(gen.integers(8, 64))
            c = np.sort(gen.uniform(0.01, 50.0, size=n))
            m = gen.dirichlet(np.ones(n))
            grid = make_grid(c, m)
            bound = 2.0 * grid.mean
            for rule in rules:
                assert mobility_profile(grid, rule).max() <= bound * (1 + 1e-10)
