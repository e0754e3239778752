import logging
import math

import numpy as np
import pytest

from kinex import (
    UNIFORM_LAMBDA,
    RuleKind,
    RuleSpec,
    build_grid,
    build_kernel,
    check_kernel,
    delta_distribution,
    expected_abs_delta,
    format_rule,
    gini_grid,
    gini_rate,
    integrate,
    mobility_bound_check,
    mobility_profile,
    oligarchy_surrogate,
    rhs,
)
from kinex.master_eq import (
    Exponential,
    IntegrationAbort,
    LinearScheme,
    LogScheme,
    TRUNCATION_TOL,
    PointMass,
    UniformBand,
    _grid_axes,
    _pair_atoms,
    _split_points,
    parse_density,
    parse_grid_scheme,
)

from conftest import gini_dip, make_grid

YS = lambda lam: RuleSpec(kind=RuleKind.YARD_SALE, lam=lam)
UL = lambda lam: RuleSpec(kind=RuleKind.UNBIASED_LOSER, lam=lam)
IA = RuleSpec(kind=RuleKind.IGLESIAS_ALMEIDA)
CL = lambda lam: RuleSpec(kind=RuleKind.CLASSIC_LOSER, lam=lam)


class TestBuildGrid:
    def test_linear_point_mass_mean_exact(self):
        grid = build_grid(LinearScheme(10.0, 100), PointMass(1.0))
        assert grid.mean == 1.0
        assert grid.total_mass() == pytest.approx(1.0, abs=1e-15)
        # mass confined to the cells bracketing x=1
        occupied = np.nonzero(grid.masses)[0]
        assert occupied.size <= 2
        assert all(abs(grid.centers[k] - 1.0) <= 0.1 for k in occupied)

    def test_log_scheme_has_zero_cell(self):
        grid = build_grid(LogScheme(1e-3, 100.0, 64), PointMass(1.0))
        assert grid.centers[0] == 0.0
        assert grid.edges[0] == 0.0
        assert grid.cells == 65  # 64 log cells plus the dedicated zero cell

    def test_exponential_matches_analytic_gini(self):
        grid = build_grid(LinearScheme(20.0, 400), Exponential(1.0))
        assert grid.mean == pytest.approx(1.0, abs=1e-12)
        assert gini_grid(grid) == pytest.approx(0.5, abs=0.01)

    def test_uniform_band(self):
        grid = build_grid(LinearScheme(30.0, 100), UniformBand(0.0, 2.0))
        assert grid.mean == pytest.approx(1.0, abs=1e-12)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            build_grid(LinearScheme(10.0, 8), PointMass(1.0))  # too few cells
        with pytest.raises(ValueError):
            build_grid(LinearScheme(5.0, 100), PointMass(1.0))  # x_max < 10*mean
        with pytest.raises(ValueError):
            build_grid(LogScheme(-1.0, 10.0, 64), PointMass(0.5))

    @pytest.mark.parametrize(
        "scheme",
        [LogScheme(1e-3, math.inf, 40), LinearScheme(math.nan, 40),
         LinearScheme(1.7e308, 40)],
        ids=["log-inf", "linear-nan", "linear-overflow"],
    )
    def test_rejects_axis_without_finite_points(self, scheme):
        with pytest.raises(ValueError):
            _grid_axes(scheme)

    @pytest.mark.parametrize(
        "density",
        [PointMass(1e-320), Exponential(math.nan), Exponential(1e-320),
         Exponential(1e-306)],
        ids=["point-rounds-to-zero", "exp-nan", "exp-subnormal", "exp-overflows"],
    )
    def test_rejects_density_without_representable_mean(self, density):
        with pytest.raises(ValueError):
            build_grid(LogScheme(1e-3, 1e3, 40), density)

    def test_parsers(self):
        assert parse_grid_scheme("linear:10:200") == LinearScheme(10.0, 200)
        assert parse_grid_scheme("log:1e-4:1e5:200") == LogScheme(1e-4, 1e5, 200)
        assert parse_density("point:1.5") == PointMass(1.5)
        assert parse_density("uniform:0:2") == UniformBand(0.0, 2.0)
        assert parse_density("exp:1") == Exponential(1.0)
        with pytest.raises(ValueError):
            parse_grid_scheme("linear:10")
        with pytest.raises(ValueError):
            parse_density("gauss:1")


class TestSplitPoints:
    def test_documented_example(self):
        # solve w*1.0 + (1-w)*1.5 = 1.3 -> weights (0.4, 0.6)
        centers = np.array([0.0, 1.0, 1.5, 3.0])
        lo, hi, w, over = _split_points(centers, np.array([1.3]))
        assert (lo[0], hi[0]) == (1, 2)
        assert w[0] == pytest.approx(0.4, rel=1e-14)
        assert over[0] == 0.0

    def test_exact_hit_single_cell(self):
        centers = np.array([0.0, 1.0, 2.0])
        lo, hi, w, over = _split_points(centers, np.array([1.0]))
        assert (lo[0], hi[0], w[0], over[0]) == (1, 1, 1.0, 0.0)

    def test_overflow_assigns_top_cell(self):
        centers = np.array([0.0, 1.0, 2.0])
        lo, hi, w, over = _split_points(centers, np.array([2.5]))
        assert (lo[0], hi[0], w[0]) == (2, 2, 1.0)
        assert over[0] == 0.5

    def test_mass_and_mean_exact(self):
        gen = np.random.Generator(np.random.PCG64(1))
        centers = np.concatenate(([0.0], np.sort(gen.uniform(0.1, 50.0, 40))))
        posts = gen.uniform(0.0, 50.0, size=200)
        lo, hi, w, over = _split_points(centers, posts)
        represented = w * centers[lo] + (1.0 - w) * centers[hi]
        assert np.allclose(represented, np.minimum(posts, centers[-1]), rtol=1e-14)


def small_grid(rule_safe=True):
    """Truncation-free grid: max pair post-wealth stays below the top point."""
    centers = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 6.0, 10.0, 16.0, 24.0, 40.0]
    masses = np.zeros(len(centers))
    masses[2] = 1.0
    return make_grid(centers, masses)


class TestBuildKernel:
    def test_rows_sum_to_one_and_unbiased(self):
        grid = small_grid()
        for rule in [YS(0.5), UL(0.5), IA]:
            report = check_kernel(build_kernel(rule, grid))
            assert report.max_norm_error <= 1e-12
            assert report.passed

    def test_yard_sale_pair_atoms(self):
        # Eq. atoms at (x=1, x'=3): +/-0.5 with probability 1/2 each
        grid = make_grid([0.0, 0.5, 1.0, 1.5, 3.0, 6.0, 8.0], [0, 0, 1.0, 0, 0, 0, 0])
        kernel = build_kernel(YS(0.5), grid)
        a = 2  # cell at 1.0
        b = 4  # cell at 3.0
        c = grid.centers
        pair_a, pair_b, delta, prob = _pair_atoms(YS(0.5), c)
        mask = (pair_a == a) & (pair_b == b)
        assert sorted(delta[mask].tolist()) == [-0.5, 0.5]
        assert prob[mask].tolist() == [0.5, 0.5]
        lo, hi, w_lo, _ = _split_points(c, c[a] + delta[mask])
        represented = w_lo * c[lo] + (1.0 - w_lo) * c[hi] - c[a]
        assert math.fsum(prob[mask] * represented) == 0.0
        # the kernel's column of the pair holds exactly these atoms
        column = np.zeros(grid.cells)
        np.add.at(column, lo, prob[mask] * w_lo)
        np.add.at(column, hi, prob[mask] * (1.0 - w_lo))
        column[a] -= 1.0
        n = grid.cells
        assert kernel.gain[:, a * n + b].toarray().ravel().tolist() == column.tolist()

    def test_zero_wealth_row_is_identity(self):
        # a pair with an agent at zero moves nothing, so in its column (0, b)
        # and in the partner's column (b, 0) gain cancels loss exactly
        grid = small_grid()
        n = grid.cells
        for rule in [YS(0.7), UL(0.3), IA]:
            gain = build_kernel(rule, grid).gain
            for b in [0, 3, 7]:
                assert gain[:, b].nnz == 0
                assert gain[:, b * n].nnz == 0

    def test_classic_loser_zero_row_not_identity(self):
        kernel = build_kernel(CL(0.5), small_grid())
        column = kernel.gain[:, 4].toarray().ravel()  # partner at 2.0, gain atom 1.0
        assert column[1:].max() > 0.0

    def test_corrupted_row_flagged(self):
        kernel = build_kernel(YS(0.5), small_grid())
        column = 2 * kernel.cells + 3  # pair (2, 3)
        stored = np.nonzero(kernel.gain.indices == column)[0]
        kernel.gain.data[stored[0]] += 0.1
        report = check_kernel(kernel)
        assert not report.passed
        assert report.max_norm_error == pytest.approx(0.1, rel=1e-12)

    def test_classic_loser_bias_reported(self):
        grid = small_grid()
        kernel = build_kernel(CL(0.5), grid)
        report = check_kernel(kernel)
        c = grid.centers
        expected = 0.5 * (c[None, :] - c[:, None]) / 2.0
        faithful = ~kernel.truncated_pairs
        assert np.allclose(
            report.bias[faithful], expected[faithful], rtol=0, atol=1e-12
        )
        # biased baseline is exempt from the bias gate but not normalization
        assert report.passed

    @pytest.mark.parametrize("rule", [YS(0.5), YS(UNIFORM_LAMBDA), UL(UNIFORM_LAMBDA), IA])
    def test_net_gain_columns_cancel(self, rule):
        # one column per ordered pair; gain and loss of the pair meet there
        grid = small_grid()
        n = grid.cells
        kernel = build_kernel(rule, grid)
        col_sums = np.asarray(kernel.gain.sum(axis=0)).ravel()
        assert np.abs(col_sums).max() <= 1e-15
        # pairs with a member at zero wealth move nothing and store nothing
        stored = np.diff(kernel.gain.tocsc().indptr).reshape(n, n)
        assert not stored[0, :].any() and not stored[:, 0].any()

    def test_random_lambda_mixture_valid(self):
        from kinex import UNIFORM_LAMBDA

        kernel = build_kernel(
            RuleSpec(kind=RuleKind.YARD_SALE, lam=UNIFORM_LAMBDA), small_grid()
        )
        report = check_kernel(kernel)
        assert report.passed


def rhs_longdouble(kernel, m):
    """Gain minus loss in long double, rebuilt from the rule's per-atom
    arrays (``_pair_atoms`` and ``_split_points``) instead of ``gain``."""
    c = kernel.centers
    pair_a, pair_b, delta, prob = _pair_atoms(kernel.rule, c)
    lo, hi, w_lo, _ = _split_points(c, c[pair_a] + delta)
    m = m.astype(np.longdouble)
    weight = prob.astype(np.longdouble) * m[pair_a] * m[pair_b]
    w_lo = w_lo.astype(np.longdouble)
    r = np.zeros(kernel.cells, dtype=np.longdouble)
    np.add.at(r, lo, weight * w_lo)
    np.add.at(r, hi, weight * (1.0 - w_lo))
    return r - m * m.sum()


class TestRhs:
    def test_absorbing_state_is_stationary(self):
        # the grid size sets the order in which a column's entries are
        # summed; the lambda-mixture weights must cancel in every order
        grids = [small_grid()] + [
            build_grid(LogScheme(1e-3, 100.0, cells), PointMass(1.0))
            for cells in (19, 28, 46)
        ]
        for grid in grids:
            masses = np.zeros(grid.cells)
            masses[0] = 1.0
            grid = grid.with_masses(masses)
            for rule in [YS(0.5), YS(UNIFORM_LAMBDA), UL(UNIFORM_LAMBDA), IA]:
                kernel = build_kernel(rule, grid)
                assert np.all(rhs(grid, kernel) == 0.0), (grid.cells, rule)

    @pytest.mark.parametrize(
        "rule",
        [YS(0.3), UL(0.6), UL(UNIFORM_LAMBDA), IA, CL(0.5)],
        ids=[
            "yardsale", "unbiased-loser", "unbiased-loser-uniform",
            "iglesias-almeida", "loser",
        ],
    )
    def test_near_condensed_matches_longdouble_reference(self, rule):
        # nearly all mass at zero wealth: the zero cell's self-pairs move
        # nothing and must not leave a rounding residue of size m_0^2
        gen = np.random.Generator(np.random.PCG64(5))
        grid0 = build_grid(LogScheme(1e-3, 60.0, 70), Exponential(1.0))
        kernel = build_kernel(rule, grid0)
        for _ in range(4):
            masses = np.zeros(grid0.cells)
            masses[0] = 0.99
            masses[1:] = 0.01 * gen.dirichlet(np.full(grid0.cells - 1, 0.5))
            ref = rhs_longdouble(kernel, masses)
            err = np.abs(rhs(grid0.with_masses(masses), kernel) - ref).max()
            assert err <= 1e-12 * np.abs(ref).max()

    def test_conservation(self):
        grid = build_grid(LogScheme(1e-3, 200.0, 80), Exponential(1.0))
        kernel = build_kernel(UL(0.5), grid)
        r = rhs(grid, kernel)
        assert abs(math.fsum(r)) <= 1e-13
        assert abs(float(np.dot(r, grid.centers))) <= 1e-12

    def test_point_mass_drains_symmetrically(self):
        # one step from a point mass: equal gain mass below and above center
        centers = [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 3.0, 5.0, 12.0]
        masses = np.zeros(len(centers))
        k_c = centers.index(1.0)
        masses[k_c] = 1.0
        grid = make_grid(centers, masses)
        kernel = build_kernel(YS(0.5), grid)
        r = rhs(grid, kernel)
        assert r[k_c] == pytest.approx(-1.0, rel=1e-12)  # full drain rate
        below = float(r[:k_c].sum())
        above = float(r[k_c + 1 :].sum())
        assert below == pytest.approx(0.5, rel=1e-12)
        assert above == pytest.approx(0.5, rel=1e-12)

    def test_oligarchy_surrogate_approaches_stationarity(self):
        grid = build_grid(LogScheme(1e-4, 1e5, 200), PointMass(1.0))
        kernel = build_kernel(YS(0.5), grid)
        norms = []
        for m_factor in [1e2, 1e3, 1e4]:
            sur = oligarchy_surrogate(grid, m_factor)
            norms.append(float(np.abs(rhs(sur, kernel)).sum()))
        assert norms[0] > norms[1] > norms[2]
        assert norms[2] <= 1e-4


def gini_rate_bruteforce(grid, rule, lam=None):
    """O(cells^3) direct triple sum of the Gini evolution functional,
    rebuilt from the exact delta laws (independent of the kernel arrays)."""
    c = grid.centers
    m = grid.masses
    mean = grid.mean
    total = 0.0
    for a in range(c.size):
        for b in range(c.size):
            if m[a] == 0.0 or m[b] == 0.0:
                continue
            inner = 0.0
            for delta, p in delta_distribution(rule, c[a], c[b], lam=lam).atoms:
                post = c[a] + delta
                inner += p * float(np.dot(m, np.abs(post - c)))
            inner -= float(np.dot(m, np.abs(c[a] - c)))
            total += m[a] * m[b] * inner
    return total / mean


def gini_rate_per_entry(grid, kernel):
    """Per-atom evaluation of the Gini evolution functional: phi at each
    atom's represented post-wealth by prefix sums, rebuilt from the rule's
    per-atom arrays (``_pair_atoms`` and ``_split_points``) instead of
    ``gain``."""
    c = kernel.centers
    pair_a, pair_b, delta, prob = _pair_atoms(kernel.rule, c)
    over = _split_points(c, c[pair_a] + delta)[3]
    repr_delta = np.where(over > 0.0, c[-1] - c[pair_a], delta)
    m = grid.masses
    cum_m = np.concatenate(([0.0], np.cumsum(m)))
    cum_mc = np.concatenate(([0.0], np.cumsum(m * c)))
    m_tot = cum_m[-1]
    m1_tot = cum_mc[-1]
    post = c[pair_a] + repr_delta
    idx = np.searchsorted(c, post, side="right")
    phi_post = post * (2.0 * cum_m[idx] - m_tot) + (m1_tot - 2.0 * cum_mc[idx])
    phi_c = c * (2.0 * cum_m[1:] - m_tot) + (m1_tot - 2.0 * cum_mc[1:])
    weight = prob * m[pair_a] * m[pair_b]
    return float(np.dot(weight, phi_post - phi_c[pair_a]) / m1_tot)


class TestGiniRate:
    @pytest.mark.parametrize(
        "rule",
        [YS(0.3), UL(0.6), UL(UNIFORM_LAMBDA), IA, CL(0.5)],
        ids=[
            "yardsale", "unbiased-loser", "unbiased-loser-uniform",
            "iglesias-almeida", "loser",
        ],
    )
    @pytest.mark.parametrize("truncating", [False, True], ids=["on-grid", "truncating"])
    def test_matches_per_entry_reference(self, rule, truncating):
        gen = np.random.Generator(np.random.PCG64(41))
        grid0 = build_grid(LogScheme(1e-3, 60.0, 70), Exponential(1.0))
        kernel = build_kernel(rule, grid0)
        # the truncating states put mass on the top cells, whose pairs send
        # wealth past the top point; the others stay below its reach
        support = grid0.centers <= (np.inf if truncating else grid0.centers[-1] / 2.0)
        for _ in range(4):
            masses = np.zeros(grid0.cells)
            masses[support] = gen.dirichlet(np.full(int(support.sum()), 0.5))
            grid = grid0.with_masses(masses)
            lost = float((kernel.trunc_coef * np.outer(masses, masses)).sum())
            assert (lost > 0.0) == truncating
            assert gini_rate(grid, kernel) == pytest.approx(
                gini_rate_per_entry(grid, kernel), rel=1e-10
            )

    @pytest.mark.parametrize("rule", [YS(0.5), UL(0.5), IA])
    def test_matches_bruteforce_triple_sum(self, rule):
        gen = np.random.Generator(np.random.PCG64(17))
        # buffer points keep every mass-bearing pair's post-wealths on-grid
        centers = np.concatenate(
            ([0.0], np.sort(gen.uniform(0.05, 2.0, 30)), [3.5, 8.0])
        )
        masses = np.concatenate((gen.dirichlet(np.ones(31)), [0.0, 0.0]))
        grid = make_grid(centers, masses)
        kernel = build_kernel(rule, grid)
        weighted_truncation = float(
            (kernel.trunc_coef * np.outer(masses, masses)).sum()
        )
        assert weighted_truncation == 0.0
        fast = gini_rate(grid, kernel)
        slow = gini_rate_bruteforce(grid, rule)
        assert fast == pytest.approx(slow, rel=1e-12)

    def test_oligarchy_surrogate_rate_vanishes(self):
        grid = build_grid(LogScheme(1e-4, 1e6, 220), PointMass(1.0))
        kernel = build_kernel(YS(0.5), grid)
        sur = oligarchy_surrogate(grid, 1e5)
        assert abs(gini_rate(sur, kernel)) <= 1e-10

    def test_nonnegative_for_unbiased_kernels(self):
        gen = np.random.Generator(np.random.PCG64(23))
        grid0 = build_grid(LogScheme(1e-3, 500.0, 100), Exponential(1.0))
        low = grid0.centers <= grid0.centers[-1] / 2.0  # below truncation reach
        for rule in [YS(0.3), UL(0.8), IA]:
            kernel = build_kernel(rule, grid0)
            for _ in range(5):
                masses = np.zeros(grid0.cells)
                masses[low] = gen.dirichlet(np.ones(int(low.sum())))
                grid = grid0.with_masses(masses)
                assert gini_rate(grid, kernel) >= -1e-10

    def test_classic_loser_rate_can_go_negative(self):
        # The poor-favoring rule relaxes toward its own steady state, so its
        # Gini overshoots and then contracts: find a state along the
        # relaxation where dG/dt < 0 and cross-check sign and size against
        # a small-step finite difference.
        centers = sorted({0.0, 0.1, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 9.1, 12.0, 20.0, 30.0, 45.0})
        masses = np.zeros(len(centers))
        masses[centers.index(0.1)] = 0.9
        masses[centers.index(9.1)] = 0.1
        grid = make_grid(centers, masses)
        kernel = build_kernel(CL(0.5), grid)
        snaps, report = integrate(grid, kernel, dt=0.2, t_end=30.0, snapshot_every=1)
        dg = np.diff(np.concatenate(([gini_grid(grid)], report.gini)))
        neg_steps = np.nonzero(dg < 0)[0]
        assert neg_steps.size > 0
        state = grid.with_masses(snaps[neg_steps[0]][1].masses)
        rate = gini_rate(state, kernel)
        assert rate < 0.0
        _, fd_report = integrate(state, kernel, dt=1e-4, t_end=2e-4)
        fd = (fd_report.gini[0] - gini_grid(state)) / fd_report.dt[0]
        assert fd == pytest.approx(rate, rel=0.02)

    def test_mean_drift_fully_explained_by_truncation(self):
        # regression for the truncation bookkeeping: the evolved density's
        # wealth loss must equal the tracked agent-1 overshoot exactly
        centers = sorted({0.0, 0.1, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 9.1, 12.0, 20.0, 30.0, 45.0})
        masses = np.zeros(len(centers))
        masses[centers.index(0.1)] = 0.9
        masses[centers.index(9.1)] = 0.1
        grid = make_grid(centers, masses)
        mean0 = grid.mean
        kernel = build_kernel(CL(0.5), grid)
        _, report = integrate(grid, kernel, dt=0.2, t_end=10.0)
        assert report.truncated_wealth > 0.0
        assert report.mean_drift[-1] * mean0 == pytest.approx(
            -report.truncated_wealth, rel=1e-6
        )


class TestMobilityBound:
    def test_equal_wealth_yard_sale_ratio_half(self):
        centers = [0.0, 0.5, 1.0, 1.5, 2.0, 4.0, 8.0, 12.0]
        masses = np.zeros(len(centers))
        masses[centers.index(1.0)] = 1.0
        grid = make_grid(centers, masses)
        kernel = build_kernel(YS(1.0), grid)
        assert mobility_bound_check(grid, kernel) == pytest.approx(0.5, rel=1e-14)

    def test_iglesias_almeida_strictly_below_one(self):
        gen = np.random.Generator(np.random.PCG64(29))
        grid0 = build_grid(LogScheme(1e-3, 300.0, 80), Exponential(1.0))
        kernel = build_kernel(IA, grid0)
        for _ in range(5):
            grid = grid0.with_masses(gen.dirichlet(np.ones(grid0.cells)))
            assert mobility_bound_check(grid, kernel) < 1.0

    def test_zero_cell_ratio_zero(self):
        grid = small_grid()
        kernel = build_kernel(YS(1.0), grid)
        l = kernel.abs_delta @ grid.masses
        assert l[0] == 0.0

    def test_internal_mobility_matches_metrics(self):
        # One definition, two implementations (closed forms vs kernel atoms):
        # exact agreement wherever the tagged agent's post-wealths fit the
        # grid; clipping at the top cell can only reduce the kernel side.
        grid = build_grid(LogScheme(1e-3, 200.0, 90), Exponential(1.0))
        for rule in [YS(0.4), UL(0.6), IA]:
            kernel = build_kernel(rule, grid)
            internal = kernel.abs_delta @ grid.masses
            external = mobility_profile(grid, rule)
            faithful_rows = ~kernel.truncated_pairs.any(axis=1)
            assert faithful_rows.sum() > grid.cells // 2
            assert np.allclose(
                internal[faithful_rows], external[faithful_rows],
                rtol=1e-12, atol=1e-15,
            )
            assert np.all(internal <= external * (1 + 1e-12) + 1e-15)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("check", [gini_rate, mobility_bound_check])
def test_all_mass_at_zero_is_degenerate(check):
    # 0/0 in the Gini rate and the bound ratio: raise, as gini_grid does,
    # rather than return NaN or divide by zero
    kernel = build_kernel(YS(0.5), small_grid())
    masses = np.zeros(kernel.centers.size)
    masses[0] = 1.0
    grid = small_grid().with_masses(masses)
    with pytest.raises(ValueError, match="degenerate: zero mean wealth"):
        check(grid, kernel)


class TestAbsDelta:
    """``abs_delta``, the per-pair E|delta| behind liquidity and bound_ratio."""

    @pytest.mark.parametrize("rule", [YS(0.5), CL(0.5), UL(0.5), IA], ids=format_rule)
    def test_matches_expected_abs_delta(self, rule):
        # at (77283, 1.05e-4) the unbiased loser's 1 - p_plus keeps 8 digits;
        # summing the loser's |delta| from it was off by 4.9e-8 relative
        grid = build_grid(LogScheme(1e-4, 1e5, 200), PointMass(1.0))
        c = grid.centers
        kernel = build_kernel(rule, grid)
        exact = expected_abs_delta(rule, c[:, None], c[None, :])
        faithful = ~kernel.truncated_pairs
        np.testing.assert_allclose(
            kernel.abs_delta[faithful], exact[faithful], rtol=1e-15, atol=0.0
        )
        a, b = np.argmin(abs(c - 77283.0)), np.argmin(abs(c - 1.05e-4))
        assert faithful[a, b]
        assert kernel.abs_delta[a, b] == exact[a, b]

    @pytest.mark.parametrize(
        "rule", [YS(0.5), YS(UNIFORM_LAMBDA), CL(0.5), CL(UNIFORM_LAMBDA), IA],
        ids=format_rule,
    )
    def test_other_rules_keep_the_atom_sum(self, rule):
        # the sum of p |represented delta| over the kernel's atoms, in atom
        # order, bitwise: these rules have no cancellation to avoid
        grid = build_grid(LogScheme(1e-3, 200.0, 96), Exponential(1.0))
        c = grid.centers
        pair_a, pair_b, delta, prob = _pair_atoms(rule, c)
        over = _split_points(c, c[pair_a] + delta)[3]
        represented = np.where(over > 0.0, c[-1] - c[pair_a], delta)
        atom_sum = np.zeros((grid.cells, grid.cells))
        np.add.at(atom_sum, (pair_a, pair_b), prob * np.abs(represented))
        kernel = build_kernel(rule, grid)
        assert kernel.has_truncation
        np.testing.assert_array_equal(
            kernel.abs_delta.view(np.int64), atom_sum.view(np.int64)
        )


class TestIntegrate:
    def test_monotone_gini_and_conservation(self):
        grid = build_grid(LogScheme(1e-3, 2e3, 120), PointMass(1.0))
        kernel = build_kernel(YS(0.3), grid)
        snaps, report = integrate(grid, kernel, dt=20.0, t_end=200.0)
        dg = np.diff(np.concatenate(([gini_grid(grid)], report.gini)))
        assert dg.min() >= -1e-10
        assert np.abs(report.mass_drift).max() <= 1e-10
        assert np.abs(report.mean_drift).max() <= 1e-8
        assert report.gini[-1] > gini_grid(grid)

    def test_snapshots_returned(self):
        grid = build_grid(LogScheme(1e-3, 100.0, 64), Exponential(1.0))
        kernel = build_kernel(IA, grid)
        snaps, report = integrate(grid, kernel, dt=1.0, t_end=3.0, snapshot_every=2)
        assert snaps[0][0] == 0.0
        assert snaps[-1][0] == pytest.approx(report.t[-1])
        assert len(snaps) >= 3
        for t, g in snaps:
            assert g.total_mass() == pytest.approx(1.0, abs=1e-10)

    def test_early_stop_thresholds(self):
        grid = build_grid(LogScheme(1e-4, 1e5, 200), PointMass(1.0))
        kernel = build_kernel(YS(0.5), grid)
        snaps, report = integrate(
            grid, kernel, dt=50.0, t_end=1e5, stop_gini=0.99, stop_liquidity=0.01
        )
        assert report.stopped_early
        assert report.gini[-1] >= 0.99
        assert report.liquidity[-1] <= 0.01

    def test_positivity_halvings_counted(self):
        # coarse grid, large dt: once the mass cap lets h*M exceed 1, the
        # Euler step overshoots and only halving keeps the masses >= 0
        grid = build_grid(LogScheme(1e-3, 1e3, 40), PointMass(1.0))
        kernel = build_kernel(YS(0.5), grid)
        _, report = integrate(grid, kernel, dt=50.0, t_end=200.0)
        assert report.positivity_halvings > 0

    def test_gini_decrease_aborts_with_report(self, monkeypatch):
        # the check of step 3 sees its Gini 0.1 low, a transient decrease
        monkeypatch.setattr("kinex.master_eq._weighted_gini", gini_dip(call=4))
        grid = build_grid(LogScheme(1e-3, 1e3, 64), Exponential(1.0))
        kernel = build_kernel(YS(0.5), grid)
        with pytest.raises(IntegrationAbort, match="Gini decrease") as exc:
            integrate(grid, kernel, dt=1.0, t_end=10.0)
        report = exc.value.report
        assert report.steps == 2
        assert report.gini.size == 2

    def test_classic_loser_is_exempt_from_gini_audit(self):
        # its Gini may fall: near its plateau these large steps overshoot it
        grid = build_grid(LogScheme(1e-3, 1e3, 64), Exponential(1.0))
        kernel = build_kernel(CL(0.5), grid)
        _, report = integrate(grid, kernel, dt=5.0, t_end=100.0)
        assert report.t[-1] == 100.0
        assert np.diff(report.gini).min() < -1e-12

    @pytest.mark.parametrize("dt, t_end", [(math.nan, 1.0), (1.0, math.nan),
                                           (math.inf, 1.0), (1.0, math.inf)])
    def test_rejects_non_finite_times(self, dt, t_end):
        grid = build_grid(LogScheme(1e-3, 1e3, 40), PointMass(1.0))
        kernel = build_kernel(YS(0.5), grid)
        with pytest.raises(ValueError, match="finite"):
            integrate(grid, kernel, dt=dt, t_end=t_end)

    def test_condensation_drift_stays_at_rounding_level(self):
        # each pair's gain and loss cancel inside one column of the net
        # operator, so dm/dt carries no m_0^2-sized rounding residue
        grid = build_grid(LogScheme(1e-4, 1e5, 200), PointMass(1.0))
        kernel = build_kernel(YS(0.5), grid)
        _, report = integrate(
            grid, kernel, dt=50.0, t_end=1e5, stop_gini=0.995, stop_liquidity=0.005
        )
        assert report.stopped_early
        assert np.abs(report.mass_drift).max() <= 1e-13
        assert np.abs(report.mean_drift).max() <= 1e-13

    def test_truncation_counted_quietly_when_negligible(self, caplog):
        caplog.set_level(logging.DEBUG, logger="kinex.master_eq")
        grid = build_grid(LogScheme(1e-4, 1e5, 200), PointMass(1.0))
        kernel = build_kernel(YS(0.5), grid)
        count = int(kernel.truncated_pairs.sum())
        assert count > 0
        debug = [r for r in caplog.records if r.levelno == logging.DEBUG]
        assert any(str(count) in r.getMessage() for r in debug)
        _, report = integrate(grid, kernel, dt=50.0, t_end=500.0)
        assert 0.0 < report.truncated_wealth <= 0.5 * TRUNCATION_TOL * grid.mean
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]

    def test_truncation_warns_once_near_tolerance(self, caplog):
        caplog.set_level(logging.DEBUG, logger="kinex.master_eq")
        centers = sorted({0.0, 0.1, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 9.1, 12.0, 20.0, 30.0, 45.0})
        masses = np.zeros(len(centers))
        masses[centers.index(0.1)] = 0.9
        masses[centers.index(9.1)] = 0.1
        grid = make_grid(centers, masses)
        kernel = build_kernel(CL(0.5), grid)
        _, report = integrate(grid, kernel, dt=0.2, t_end=10.0)
        assert report.truncated_wealth > 0.5 * TRUNCATION_TOL * grid.mean
        warnings = [r for r in caplog.records if r.levelno >= logging.WARNING]
        assert len(warnings) == 1
        assert "truncated wealth" in warnings[0].getMessage()

    def test_rejects_mismatched_kernel(self):
        g1 = build_grid(LogScheme(1e-3, 100.0, 64), PointMass(1.0))
        g2 = build_grid(LogScheme(1e-3, 100.0, 72), PointMass(1.0))
        kernel = build_kernel(YS(0.5), g1)
        with pytest.raises(ValueError):
            integrate(g2, kernel, dt=1.0, t_end=1.0)
