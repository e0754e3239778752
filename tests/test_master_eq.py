import hashlib
import itertools
import logging
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

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
    two_point_law,
)
from kinex.master_eq import (
    DiscreteKernel,
    Exponential,
    IntegrationAbort,
    IntegrationReport,
    LinearScheme,
    LogScheme,
    PairRows,
    TRUNCATION_TOL,
    PointMass,
    UniformBand,
    _column_runs,
    _grid_axes,
    _lambda_mixture,
    _split_points,
    _with_suffix_sums,
    parse_density,
    parse_grid_scheme,
)
import kinex.cli
import kinex.master_eq as master_eq
from kinex.metrics import _gini_sums

from conftest import compiled_product, gini_dip, make_grid

YS = lambda lam: RuleSpec(kind=RuleKind.YARD_SALE, lam=lam)
UL = lambda lam: RuleSpec(kind=RuleKind.UNBIASED_LOSER, lam=lam)
IA = RuleSpec(kind=RuleKind.IGLESIAS_ALMEIDA)
CL = lambda lam: RuleSpec(kind=RuleKind.CLASSIC_LOSER, lam=lam)
RULE_VARIANTS = [YS(0.5), YS(UNIFORM_LAMBDA), UL(0.5), UL(UNIFORM_LAMBDA), CL(0.5),
                 CL(UNIFORM_LAMBDA), IA]


def pair_atoms(rule, c):
    """(pair_a, pair_b, delta, prob) of every delta atom with non-zero
    probability over all ordered cell pairs, in the kernel's atom order: the
    rule's ``two_point_law`` at each node of its lambda mixture, evaluated
    on gathered copies of the pairs' wealths, apart from ``build_kernel``."""
    n = c.size
    pair_a = np.repeat(np.arange(n), n)
    pair_b = np.tile(np.arange(n), n)
    parts = []
    for lam, wnode in _lambda_mixture(rule):
        d_plus, p_plus, d_minus = two_point_law(rule, c[pair_a], c[pair_b], lam)
        for d, p in ((d_plus, p_plus * wnode), (d_minus, (1.0 - p_plus) * wnode)):
            keep = p != 0.0
            parts.append((pair_a[keep], pair_b[keep], d[keep], p[keep]))
    return [np.concatenate(column) for column in zip(*parts)]


def scipy_csr(matrix):
    """scipy's ``csr_array`` over the CSR arrays of the ``PairRows``
    ``matrix``: the reference of its row sums, and scipy's methods."""
    return scipy.sparse.csr_array(
        (matrix.data, matrix.indices, matrix.indptr), shape=matrix.shape
    )


def scipy_product(matrix, m):
    """``matrix.product(m)`` from scipy's product with [m; S]: its row sums
    times m_a summed per k, and times |c_k - c_a| summed per a, by
    ``np.bincount``: the sums in the order the product takes them."""
    sums = scipy_csr(matrix) @ _with_suffix_sums(m)
    weighted = ((matrix.row_k, sums * m[matrix.row_a]),
                (matrix.row_a, sums * row_dist(matrix)))
    return tuple(np.bincount(cell, weights=w, minlength=m.size) for cell, w in weighted)


def row_dist(matrix):
    """Each row's |c_k - c_a|, from the grid points of the ``PairRows``
    ``matrix``."""
    c = matrix.centers
    return np.abs(c[matrix.row_k] - c[matrix.row_a])


def trunc_matrix(kernel):
    """``kernel.trunc_coef`` as the dense [a, b] array of tau_ab."""
    trunc = kernel.trunc_coef
    tau = np.zeros((kernel.cells, kernel.cells))
    tau[np.repeat(trunc.row_a, np.diff(trunc.indptr)), trunc.indices] = trunc.data
    return tau


def net_gain(kernel):
    """N = G - L as a cells x cells^2 matrix whose column a*n + b is pair
    (a, b): the pair rows (a, k) of ``kernel.gain`` put back in place, each
    entry of suffix column n + a in every column b >= a."""
    n = kernel.cells
    rows = scipy_csr(kernel.gain).tocoo()
    a = kernel.gain.row_a[rows.row].astype(np.int64)
    col = rows.col.astype(np.int64)
    span = np.where(col >= n, n - a, 1)
    entry = np.repeat(np.arange(col.size), span)
    b = col[entry] + np.arange(entry.size) - np.repeat(np.cumsum(span) - span, span)
    b = np.where(b >= n, b - n, b)  # column n + a spans b = a, ..., n - 1
    return scipy.sparse.csr_matrix(
        (rows.data[entry], (kernel.gain.row_k[rows.row][entry], a[entry] * n + b)),
        shape=(n, n * n),
    )


def pair_entries(kernel, a, b):
    """Positions in ``kernel.gain.data`` of pair (a, b)'s entries of N: in
    column b, or, for b >= a, in suffix column n + a."""
    gain = kernel.gain
    row_a = np.repeat(gain.row_a, np.diff(gain.indptr))
    suffix = (gain.indices == kernel.cells + a) & (b >= a)
    return np.flatnonzero((row_a == a) & ((gain.indices == b) | suffix))


def full_net_gain(rule, c):
    """(keys, values) of N's non-zero entries, key k * n^2 + a * n + b, in key
    order, summed from ``pair_atoms`` in the kernel's order: each atom's
    lower point then its upper one, atom by atom, and the loss last."""
    n = c.size
    pair_a, pair_b, delta, prob = pair_atoms(rule, c)
    lo, hi, w_lo = _split_points(c, c[pair_a] + delta)
    pair = np.repeat(pair_a * n + pair_b, 2)
    dest = np.column_stack((lo, hi)).ravel()
    weight = np.column_stack((prob * w_lo, prob * (1.0 - w_lo))).ravel()
    every = np.arange(n * n)
    key = np.concatenate((dest * n * n + pair, every // n * n * n + every))
    val = np.concatenate((weight, np.full(n * n, -1.0)))
    order = np.argsort(key, kind="stable")
    key, val = key[order], val[order]
    first = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    val = np.add.reduceat(val, first)
    keep = val != 0.0
    return key[first][keep], val[keep]


STORED = ("data", "run_col", "run_start", "row_runs", "row_a", "row_k")


def kernel_arrays(kernel):
    """Every array a kernel keeps, by name: the derived ``indices`` and
    ``indptr`` of its operators are not kept."""
    return {
        **{f"{name}.{array}": getattr(getattr(kernel, name), array)
           for name in ("gain", "trunc_coef") for array in STORED},
        "centers": kernel.centers,
    }


def truncated(kernel):
    """Dense [a, b] mask of the pairs that lose wealth past the top cell,
    the pairs ``kernel.trunc_coef`` stores."""
    return trunc_matrix(kernel) > 0.0


def buffer_nbytes(array):
    """Size of the buffer ``array`` lives in: its own, or its base's."""
    while array.base is not None:
        array = array.base
    return array.nbytes


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
        # the neighbour-ratio bound of the top points overflows, silently
        grid = build_grid(LogScheme(1e-3, 1e308, 96), PointMass(1.0))
        assert grid.centers[0] == 0.0 and grid.cells == 97

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
        lo, hi, w = _split_points(centers, np.array([1.3]))
        assert (lo[0], hi[0]) == (1, 2)
        assert w[0] == pytest.approx(0.4, rel=1e-14)

    def test_exact_hit_single_cell(self):
        centers = np.array([0.0, 1.0, 2.0])
        lo, hi, w = _split_points(centers, np.array([1.0]))
        assert (lo[0], hi[0], w[0]) == (1, 1, 1.0)

    def test_overflow_assigns_top_cell(self):
        centers = np.array([0.0, 1.0, 2.0])
        lo, hi, w = _split_points(centers, np.array([2.5]))
        assert (lo[0], hi[0], w[0]) == (2, 2, 1.0)

    def test_mass_and_mean_exact(self):
        gen = np.random.Generator(np.random.PCG64(1))
        centers = np.concatenate(([0.0], np.sort(gen.uniform(0.1, 50.0, 40))))
        posts = gen.uniform(0.0, 50.0, size=200)
        lo, hi, w = _split_points(centers, posts)
        represented = w * centers[lo] + (1.0 - w) * centers[hi]
        assert np.allclose(represented, np.minimum(posts, centers[-1]), rtol=1e-14)


def small_grid(rule_safe=True):
    """Grid whose masses stay below the top point; every lambda > 0 kernel on
    it still truncates the pairs of its top cells."""
    centers = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 6.0, 10.0, 16.0, 24.0, 40.0]
    masses = np.zeros(len(centers))
    masses[2] = 1.0
    return make_grid(centers, masses)


# sha256 of the little-endian float64 bytes of check_kernel's norm_error and
# bias and of abs_delta, per rule variant on log:1e-4:1e5:200: the per-pair
# sums over gain's entries, each weight and each sum pinned bit for bit
PAIR_SUMS_SHA256 = {
    "yardsale:lambda=0.5": (
        "73f8496fd22451bd4e03e6d585cfee121ed76e6dde49a11ea49e26d9f95c2e23",
        "a87e992b8bac1f15abcd88f8759f5e256fbd3583ac2944812f32730feed7587b",
        "154f7ceee7268d830f1c7af3008a72685d10caae75490f22efc7006f7e061a75",
    ),
    "yardsale:lambda=uniform": (
        "9d8d0502871944ca801ef64683fdde71d3eea31151f87dfe7b28a317860d984d",
        "af4ce4b8470776be67592e8bc9e8a6ab66722d48c60bee0c042824f78e57f510",
        "a39a6998e1925ddae2dedc54983d9fc2e22ea5a8a37a222dd7b2e560e7b5967c",
    ),
    "unbiased-loser:lambda=0.5": (
        "8da609408d3233b9f59f081f19324cf69a9584b3a916b0663fd205271a75a409",
        "2964c934a818009be006eb998e8a4555cc626eaa8f45534978732661b2469660",
        "fdd6a90cdb0f1ef39ac705e5bd81b03ba3a77db57322ce3c50559e14520fb956",
    ),
    "unbiased-loser:lambda=uniform": (
        "c66eff71131fa3007d87336ea196205d4dfc5166c71a6f6d6c84732ffa9871df",
        "3340605098da29acd16c7326de92c6844bdb1ab4575b39f8b4a94cfe46ecac02",
        "f0ae78154e52326376a42c77a30655c5c88ec0b976ccb96b613bbb8fb0b7459f",
    ),
    "loser:lambda=0.5": (
        "6b27441fad0447f8bae873d3e8a24f231816bb8282ff9e125f490c68baa44aea",
        "3c14e2da966ff78e382dca1cdd4492584d30fce9e2fa6a80dae4f90979323a5d",
        "789ec52c410f7b8f48c5a3113b347b1f42dac7346bf83245782623bcfed3b473",
    ),
    "loser:lambda=uniform": (
        "18d546299b7fa2b6cdaf070daabbd5c2b5ddf75db6dca229e1506032af6bbeef",
        "68f2b8424a23888130fc8fd246718d73d838474d19d46cbd873391f8c1143633",
        "e623fe5cb79eea72baa0abc7e4463cd45bcfd28a4d56b5f14d522bfd1efa399a",
    ),
    "iglesias-almeida": (
        "66a2ab08470ea617f0bbf4e32e96d00757f4db89cf94f1831a6166565fead3e3",
        "ca9144838dac30809fa2221cad33c9272504f3caf2b4f2d52c9a352d33a62b86",
        "d4b9c1c771e018f6c70cee9607a71f5e08628b06c416293f1b55898584dd041a",
    ),
}


class TestBuildKernel:
    def test_rows_sum_to_one_and_unbiased(self):
        grid = small_grid()
        for rule in [YS(0.5), UL(0.5), IA]:
            report = check_kernel(build_kernel(rule, grid))
            assert report.max_norm_error <= 1e-12
            assert report.passed

    @pytest.mark.parametrize("rule", RULE_VARIANTS, ids=format_rule)
    def test_pair_sums_keep_their_bytes(self, rule):
        kernel = build_kernel(rule, build_grid(LogScheme(1e-4, 1e5, 200), PointMass(1.0)))
        report = check_kernel(kernel)
        digests = tuple(hashlib.sha256(np.asarray(x, "<f8").tobytes()).hexdigest()
                        for x in (report.norm_error, report.bias, kernel.abs_delta))
        assert digests == PAIR_SUMS_SHA256[format_rule(rule)]

    def test_yard_sale_pair_atoms(self):
        # Eq. atoms at (x=1, x'=3): +/-0.5 with probability 1/2 each
        grid = make_grid([0.0, 0.5, 1.0, 1.5, 3.0, 6.0, 8.0], [0, 0, 1.0, 0, 0, 0, 0])
        kernel = build_kernel(YS(0.5), grid)
        a = 2  # cell at 1.0
        b = 4  # cell at 3.0
        c = grid.centers
        pair_a, pair_b, delta, prob = pair_atoms(YS(0.5), c)
        mask = (pair_a == a) & (pair_b == b)
        assert sorted(delta[mask].tolist()) == [-0.5, 0.5]
        assert prob[mask].tolist() == [0.5, 0.5]
        lo, hi, w_lo = _split_points(c, c[a] + delta[mask])
        represented = w_lo * c[lo] + (1.0 - w_lo) * c[hi] - c[a]
        assert math.fsum(prob[mask] * represented) == 0.0
        # the kernel's column of the pair holds exactly these atoms
        column = np.zeros(grid.cells)
        np.add.at(column, lo, prob[mask] * w_lo)
        np.add.at(column, hi, prob[mask] * (1.0 - w_lo))
        column[a] -= 1.0
        n = grid.cells
        assert net_gain(kernel)[:, a * n + b].toarray().ravel().tolist() == column.tolist()

    def test_zero_wealth_row_is_identity(self):
        # a pair with an agent at zero moves nothing, so in its column (0, b)
        # and in the partner's column (b, 0) gain cancels loss exactly
        grid = small_grid()
        n = grid.cells
        for rule in [YS(0.7), UL(0.3), IA]:
            gain = net_gain(build_kernel(rule, grid))
            for b in [0, 3, 7]:
                assert gain[:, b].nnz == 0
                assert gain[:, b * n].nnz == 0

    def test_classic_loser_zero_row_not_identity(self):
        kernel = build_kernel(CL(0.5), small_grid())
        column = net_gain(kernel)[:, 4].toarray().ravel()  # partner at 2.0, gain atom 1.0
        assert column[1:].max() > 0.0

    def test_corrupted_row_flagged(self):
        kernel = build_kernel(YS(0.5), small_grid())
        stored = pair_entries(kernel, 2, 3)
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
        faithful = ~truncated(kernel)
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
        gain = net_gain(build_kernel(rule, grid))
        col_sums = np.asarray(gain.sum(axis=0)).ravel()
        assert np.abs(col_sums).max() <= 1e-15
        # pairs with a member at zero wealth move nothing and store nothing
        stored = np.diff(gain.tocsc().indptr).reshape(n, n)
        assert not stored[0, :].any() and not stored[:, 0].any()

    def test_random_lambda_mixture_valid(self):
        from kinex import UNIFORM_LAMBDA

        kernel = build_kernel(
            RuleSpec(kind=RuleKind.YARD_SALE, lam=UNIFORM_LAMBDA), small_grid()
        )
        report = check_kernel(kernel)
        assert report.passed

    @pytest.mark.parametrize(
        "rule", [YS(0.5), YS(UNIFORM_LAMBDA), UL(UNIFORM_LAMBDA)], ids=format_rule
    )
    def test_blocks_change_nothing(self, rule, monkeypatch):
        # one tagged cell per block against one block for the whole grid,
        # on a grid that truncates at the top cell
        grid = build_grid(LogScheme(1e-3, 200.0, 96), Exponential(1.0))
        built = {}
        for budget in (1, 2**62):
            monkeypatch.setattr(master_eq, "BLOCK_BYTES", budget)
            built[budget] = kernel_arrays(build_kernel(rule, grid))
        assert built[1]["trunc_coef.data"].size > 0
        for name, array in built[1].items():
            other = built[2**62][name]
            assert array.dtype == other.dtype, name
            assert array.tobytes() == other.tobytes(), name

    @pytest.mark.parametrize("rule", [YS(0.5), YS(UNIFORM_LAMBDA)], ids=format_rule)
    def test_one_law_evaluation_per_node_and_block(self, rule, monkeypatch):
        grid = build_grid(LogScheme(1e-3, 200.0, 96), Exponential(1.0))
        laws, blocks = [], []
        law, block = master_eq.two_point_law, master_eq._block_entries
        monkeypatch.setattr(master_eq, "two_point_law",
                            lambda *args: laws.append(1) or law(*args))
        monkeypatch.setattr(master_eq, "_block_entries",
                            lambda *args: blocks.append(1) or block(*args))
        monkeypatch.setattr(master_eq, "BLOCK_BYTES", 2**18)
        build_kernel(rule, grid)
        assert len(blocks) > 1
        assert len(laws) == len(_lambda_mixture(rule)) * len(blocks)

    @pytest.mark.parametrize("rule", [YS(0.5), UL(UNIFORM_LAMBDA)], ids=format_rule)
    def test_trunc_coef_is_the_atoms_overshoot(self, rule):
        # sum of p * max(c_a + delta - c_top, 0) over the kernel's atoms, in
        # atom order, bitwise
        grid = build_grid(LogScheme(1e-3, 200.0, 96), Exponential(1.0))
        c = grid.centers
        pair_a, pair_b, delta, prob = pair_atoms(rule, c)
        over = np.maximum(c[pair_a] + delta - c[-1], 0.0)
        lost = np.zeros((grid.cells, grid.cells))
        np.add.at(lost, (pair_a, pair_b), prob * over)
        kernel = build_kernel(rule, grid)
        assert kernel.trunc_coef.nnz == np.count_nonzero(lost) > 0
        assert bits(trunc_matrix(kernel)) == bits(lost)
        # one row (a, a) per cell a whose pairs truncate, in a order
        trunc = kernel.trunc_coef
        assert trunc.row_a.tolist() == trunc.row_k.tolist()
        assert trunc.row_a.tolist() == np.flatnonzero(lost.any(axis=1)).tolist()

    @pytest.mark.parametrize(
        "rule", [YS(0.5), YS(UNIFORM_LAMBDA), UL(UNIFORM_LAMBDA), IA, CL(0.5)],
        ids=format_rule,
    )
    def test_kernel_arrays_own_their_memory(self, rule):
        grid = build_grid(LogScheme(1e-4, 1e5, 200), PointMass(1.0))
        for name, array in kernel_arrays(build_kernel(rule, grid)).items():
            assert buffer_nbytes(array) == array.nbytes, name

    @pytest.mark.parametrize(
        "scheme", [LinearScheme(10.0, 16), LogScheme(1e-3, 200.0, 96)],
        ids=["linear-16", "log-96"],
    )
    @pytest.mark.parametrize("rule", RULE_VARIANTS, ids=format_rule)
    def test_gain_is_the_atoms_with_suffixes_stored_once(self, rule, scheme):
        grid = build_grid(scheme, Exponential(1.0))
        n = grid.cells
        kernel = build_kernel(rule, grid)
        # expanded, gain holds the full layout summed from the atoms, bitwise
        key, val = full_net_gain(rule, grid.centers)
        net = net_gain(kernel).tocoo()
        got = net.row.astype(np.int64) * n * n + net.col
        order = np.argsort(got)
        assert got[order].tolist() == key.tolist()
        assert bits(net.data[order]) == bits(val)
        # yard-sale's delta = +-lambda c_a for every partner b >= a fills
        # suffix columns, of cells a > 0 alone; no other rule has one
        row_a = np.repeat(kernel.gain.row_a, np.diff(kernel.gain.indptr))
        suffix = kernel.gain.indices >= n
        if rule.kind is RuleKind.YARD_SALE:
            assert suffix.any()
            assert np.array_equal(kernel.gain.indices[suffix] - n, row_a[suffix])
            assert row_a[suffix].min() > 0
        else:
            assert not suffix.any()

    def test_traced_build_fits_its_block_budget(self):
        # the me_fine_grid kernel: the build holds the kernel's own arrays
        # and, on top, one block's temporaries at a time
        grid = build_grid(LogScheme(1e-4, 1e5, 800), PointMass(1.0))
        tracemalloc.start()
        try:
            kernel = build_kernel(YS(0.5), grid)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kept = sum(a.nbytes for a in kernel_arrays(kernel).values())
        assert kept <= retained <= kept + 2**16
        assert peak <= retained + master_eq.BLOCK_BYTES
        gain = kernel.gain
        rows, runs = gain.shape[0], gain.run_col.size
        assert (gain.nnz, rows, runs) == (1_129_906, 33_775, 36_977)
        # past data, no per-entry array and no per-row float: row_runs, row_a
        # and row_k per row, run_col and run_start per run, and the last item
        # of each offset array
        assert sum(getattr(gain, name).nbytes for name in STORED[1:]) <= (
            12 * rows + 8 * runs + 8)


def bits(array):
    """The bit patterns of a float64 array, so that -0.0 and each NaN count."""
    return np.asarray(array, dtype=np.float64).view(np.int64).tolist()


def bits_any_nan(values):
    """``bits``, with every NaN counted as one: the sign and payload of a
    NaN made by arithmetic depend on the instructions that made it."""
    return bits([math.nan if math.isnan(v) else v for v in values])


# floats whose products and sums round in every special way; a product of
# NaNs of opposite signs keeps the sign of one of them
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
           math.inf, -math.inf, math.nan, -math.nan, 1.0, -3.0]


@st.composite
def pair_rows_and_masses(draw):
    """(data, indices, indptr, row_a, row_k, centers, m) of a random
    pair-row operator on up to 4 cells, some of its rows empty, its columns
    unsorted or repeated and its row cells in any order, its grid points
    and masses m of its cells, with -0.0, subnormals, infinities and NaN
    among the values."""
    value = st.floats(width=64) | st.sampled_from(SPECIAL)
    cells = draw(st.integers(1, 4))
    cell = st.integers(0, cells - 1)
    entries = st.lists(st.tuples(st.integers(0, 2 * cells - 1), value), max_size=6)
    rows = draw(st.lists(st.tuples(cell, cell, entries), max_size=8))
    indptr = np.cumsum([0] + [len(row) for _, _, row in rows], dtype=np.int32)
    flat = [entry for _, _, row in rows for entry in row]
    indices = np.array([col for col, _ in flat], dtype=np.int32)
    data = np.array([v for _, v in flat], dtype=np.float64)
    row_a = np.array([a for a, _, _ in rows], dtype=np.int32)
    row_k = np.array([k for _, k, _ in rows], dtype=np.int32)
    centers, m = (np.array(draw(st.lists(value, min_size=cells, max_size=cells)),
                           dtype=np.float64) for _ in range(2))
    return data, indices, indptr, row_a, row_k, centers, m


def check_dense_mobility(matrix, m, l):
    """Check the mobility l of ``matrix.product(m)`` against the dense
    sum_b |Delta|_ab m_b in rationals, |Delta|_ab = sum over rows (a, k) of
    dist = |c_k - c_a| times the row's entry of pair b, a suffix column n + j
    standing for every b >= j. A cell is checked where its rows, their dist
    and every mass are finite and no sum of absolute values reaches the
    overflow range. Each product rounds by u relative and 2^-1075 absolute,
    each sum by u relative: the row's terms carry the suffix sum's n - 1
    roundings and their own, the row sum len - 1, its weight one and the
    sum over the R_a rows R_a - 1 (dist is taken as rounded), so
    |l_a - exact_a| <= 1.01 (n + L + R_a + 2) u mag_a plus 2^-1075 per
    product, dist-weighted: mag_a is sum_rows dist sum_j |data_j| |x|_j,
    |x| = [|m|; sums of |m| over b >= j], and L the longest row."""
    n = m.size
    if not np.isfinite(m).all():
        return
    dists = row_dist(matrix)
    exact_x = [Fraction(v) for v in m.tolist()]
    exact_x += [sum(exact_x[j:], Fraction(0)) for j in range(n)]
    abs_x = [abs(v) for v in exact_x[:n]]
    abs_x += [sum(abs_x[j:], Fraction(0)) for j in range(n)]
    lengths = np.diff(matrix.indptr)
    longest = int(lengths.max(initial=0))
    eta, u = Fraction(2) ** -1075, Fraction(2) ** -53
    limit = Fraction(np.finfo(np.float64).max) / 2
    for a in range(n):
        rows = np.flatnonzero(matrix.row_a == a)
        entries = [slice(matrix.indptr[i], matrix.indptr[i + 1]) for i in rows]
        if not all(np.isfinite(matrix.data[e]).all() for e in entries) or not np.isfinite(
                dists[rows]).all():
            continue
        exact = mag = tiny = Fraction(0)
        too_large = abs_x[n] > limit
        for i, e in zip(rows, entries):
            dist = Fraction(dists[i])
            pairs = list(zip(matrix.data[e].tolist(), matrix.indices[e].tolist()))
            row_mag = sum((abs(Fraction(d)) * abs_x[j] for d, j in pairs), Fraction(0))
            exact += dist * sum((Fraction(d) * exact_x[j] for d, j in pairs), Fraction(0))
            mag += dist * row_mag
            tiny += eta * (dist * len(pairs) + 1)
            too_large |= row_mag > limit
        if too_large or mag > limit:
            continue
        bound = Fraction(101, 100) * (n + longest + rows.size + 2) * u * mag + tiny
        assert math.isfinite(l[a]) and abs(Fraction(l[a]) - exact) <= bound, (a, l[a], exact)


def pair_rows(data, indices, indptr, row_a, row_k, centers):
    """The ``PairRows`` of compressed sparse row arrays: ``data`` with the
    runs of the columns ``indices`` of the rows that ``indptr`` bounds."""
    return PairRows(data, *_column_runs(indptr, indices), row_a, row_k, centers)


class TestPairRowProduct:
    """``PairRows.product``, ``_sweep.c``'s ``pair_rhs`` or numpy's
    ``bincount``, gives scipy's ``csr_array`` product with [m; S], times m_a
    and summed per k by ``bincount``, bit for bit on every output that is
    not NaN, and NaN in the same cells."""

    # three rows of three cells, in pair_rhs' order: (0, 1) with one run,
    # columns 1 and 2, (2, 1) empty and (1, 0) with column 5
    SMALL = dict(run_col=np.array([1, 5], np.int32), run_start=np.array([0, 2, 3], np.int32),
                 row_runs=np.array([0, 1, 1, 2], np.int32), data=np.array([0.5, -1.0, 2.0]),
                 row_a=np.array([0, 2, 1], np.int32), row_k=np.array([1, 1, 0], np.int32))

    @pytest.mark.parametrize("cells", [200, 800])
    @pytest.mark.parametrize("rule", RULE_VARIANTS, ids=format_rule)
    def test_kernel_products_match_scipy(self, product_path, rule, cells):
        scheme = LogScheme(1e-4, 1e5, cells)
        grid = build_grid(scheme, PointMass(1.0))
        kernel = build_kernel(rule, grid)
        # a spread state, as mid-run, and a condensed one: nearly all mass
        # at zero and at 1e4, with a faint tail on every cell
        spread = build_grid(scheme, Exponential(1.0)).masses
        condensed = (1.0 - 1e-9) * oligarchy_surrogate(grid, 1e4).masses + 1e-9 * spread
        for m in (spread, condensed):
            for matrix in (kernel.gain, kernel.trunc_coef):
                assert bits(matrix.product(m)) == bits(scipy_product(matrix, m))

    # the product path is patched once per test, not per example
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(arrays=pair_rows_and_masses())
    # nine NaN x NaN terms, one row into each of nine cells, x = S_0 =
    # inf - inf: NaN in every cell on both paths
    @example(arrays=(np.full(9, math.nan), np.full(9, 9, np.int32),
                     np.arange(10, dtype=np.int32), np.full(9, 2, np.int32),
                     np.arange(9, dtype=np.int32), np.arange(9.0),
                     np.array([math.inf, -math.inf] + [1.0] * 7)))
    # finite rows of every kind: a suffix column, a repeated one, a run of
    # two, a row (a, a) of dist 0 and an empty row
    @example(arrays=(np.array([0.5, -1.0, 3.0, 2.0, 1e-3]), np.array([4, 0, 1, 1, 2], np.int32),
                     np.array([0, 3, 3, 4, 5], np.int32), np.array([1, 0, 1, 2], np.int32),
                     np.array([2, 1, 1, 0], np.int32), np.array([0.0, 0.3, 7.0]),
                     np.array([0.25, 0.5, 0.25])))
    def test_random_products_match_scipy(self, product_path, arrays):
        data, indices, indptr, row_a, row_k, centers, m = arrays
        with np.errstate(all="ignore"):  # inf - inf among the points
            matrix = pair_rows(data, indices, indptr, row_a, row_k, centers)
            want = scipy_product(matrix, m)
            got = matrix.product(m)
            assert all(x.dtype == np.float64 for x in got)
            assert bits_any_nan(np.concatenate(got)) == bits_any_nan(np.concatenate(want))
            check_dense_mobility(matrix, m, got[1])
        if product_path == "numpy":
            return
        out, l = np.full(m.size, 7.0), np.full(m.size, 7.0)
        result = compiled_product().pair_rhs(matrix.run_col, matrix.run_start,
                                             matrix.row_runs, data, row_a, row_k,
                                             matrix.centers, m, out, l)
        assert result[0] is out and result[1] is l
        assert bits(np.concatenate(result)) == bits(np.concatenate(got))

    @given(arrays=pair_rows_and_masses())
    # runs cut by a row's end, a repeat, a step down and a gap, and a run
    # of four
    @example(arrays=(np.arange(11.0), np.array([3, 4, 5, 5, 6, 2, 3, 7, 0, 1, 2], np.int32),
                     np.array([0, 2, 2, 7, 11], np.int32), np.zeros(4, np.int32),
                     np.zeros(4, np.int32), np.zeros(8), np.zeros(8)))
    def test_runs_give_back_the_columns(self, arrays):
        data, indices, indptr, row_a, row_k, centers, _ = arrays
        matrix = pair_rows(data, indices, indptr, row_a, row_k, centers)
        # a run starts at each row's first entry and at each column that is
        # not the previous one + 1: (column, length) of each, row by row
        runs = [[] for _ in range(indptr.size - 1)]
        for i, row in enumerate(runs):
            for j in range(indptr[i], indptr[i + 1]):
                if row and indices[j] == indices[j - 1] + 1:
                    row[-1][1] += 1
                else:
                    row.append([int(indices[j]), 1])
        flat = [run for row in runs for run in row]
        assert matrix.run_col.tolist() == [col for col, _ in flat]
        assert np.diff(matrix.run_start).tolist() == [length for _, length in flat]
        assert np.diff(matrix.row_runs).tolist() == [len(row) for row in runs]
        assert "indices" not in vars(matrix) and "indptr" not in vars(matrix)
        for name, want in (("indices", indices), ("indptr", indptr)):
            got = getattr(matrix, name)
            assert got.dtype == np.int32 and not got.flags.writeable, name
            assert got.tolist() == want.tolist(), name
            assert vars(matrix)[name] is got, name  # derived once

    def test_integrate_never_forms_the_per_entry_columns(self, monkeypatch, tmp_path):
        compiled_product()
        grid = build_grid(LogScheme(1e-3, 200.0, 96), Exponential(1.0))
        kernels = [build_kernel(YS(0.5), grid)]
        integrate(grid, kernels[0], 5.0, 40.0)
        build = kinex.cli.build_kernel
        monkeypatch.setattr(kinex.cli, "build_kernel",
                            lambda *args: kernels.append(build(*args)) or kernels[-1])
        assert kinex.cli.main([
            "integrate", "--rule", "yardsale:lambda=0.5", "--grid", "log:1e-3:200:96",
            "--init", "exp:1", "--dt", "5", "--t-end", "40",
            "--out", str(tmp_path / "int.csv")]) == 0
        assert len(kernels) == 2
        for kernel in kernels:
            for matrix in (kernel.gain, kernel.trunc_coef):
                assert matrix.nnz > 0
                assert not {"indices", "indptr"} & set(vars(matrix))

    def call(self, **given):
        """Call ``pair_rhs`` on the SMALL operator, its grid points, masses,
        out and l with the arguments ``given`` in place of its own; it must
        raise and leave out and l as they were."""
        args = {**self.SMALL, "c": np.arange(3.0), "m": np.ones(3), "out": np.full(3, 7.0),
                "l": np.full(3, 7.0), **given}
        before = bits(np.concatenate((args["out"], args["l"])))
        with pytest.raises((TypeError, ValueError)) as err:
            compiled_product().pair_rhs(*args.values())
        assert bits(np.concatenate((args["out"], args["l"]))) == before
        return str(err.value)

    def test_malformed_calls_raise_before_writing(self):
        for name in ("run_col", "run_start", "row_runs", "row_k"):
            assert "int32" in self.call(**{name: self.SMALL[name].astype(np.int64)}), name
        assert "float64" in self.call(m=np.ones(3, np.float32))
        assert "one-dimensional" in self.call(m=np.ones((3, 1)))
        self.call(m=np.ones(6)[::2])
        assert "float64" in self.call(c=np.arange(3, dtype=np.int32))
        assert "float64" in self.call(c=np.arange(3.0, dtype=np.float32))
        frozen = np.full(3, 7.0)
        frozen.flags.writeable = False
        self.call(out=frozen)
        self.call(l=frozen)
        assert "one item per cell" in self.call(out=np.full(4, 7.0))
        assert "one item per cell" in self.call(l=np.full(2, 7.0))
        assert "one item per cell" in self.call(m=np.ones(4))
        assert "one item per row" in self.call(row_a=np.array([0, 2], np.int32))
        assert "one item per cell" in self.call(c=np.arange(4.0))
        assert "one item per cell" in self.call(c=np.arange(2.0))
        assert "one-dimensional" in self.call(c=np.zeros((3, 1)))
        assert "one item per run" in self.call(run_col=np.array([1, 5, 5], np.int32))
        for given, message in [
            ({"run_start": [0, 4, 3]}, "run_start decreases at 1"),
            ({"run_start": [0, 2, 2]}, "run_start must run from 0 to 3"),
            ({"run_start": [1, 2, 3]}, "run_start must run from 0 to 3"),
            ({"data": np.ones(2)}, "run_start must run from 0 to 2"),
            ({"row_runs": [0, 2, 1, 2]}, "row_runs decreases at 1"),
            ({"row_runs": [0, 1, 1, 1]}, "row_runs must run from 0 to 2"),
            ({"row_runs": [], "row_a": [], "row_k": []},
             "row_runs must run from 0 to 2"),
        ]:
            given = {name: np.asarray(x, getattr(x, "dtype", np.int32))
                     for name, x in given.items()}
            assert message in self.call(**given), given
        with pytest.raises(TypeError, match="10 arguments"):
            compiled_product().pair_rhs(*self.SMALL.values())

    def test_container_checks_its_arrays_once(self, product_path):
        centers = np.array([0.0, 1.0, 3.0])
        matrix = PairRows(**{name: x.copy() for name, x in self.SMALL.items()},
                          centers=centers)
        assert matrix.nnz == 3 and matrix.shape == (3, 6)
        # the caller's points are kept, not copied, and frozen
        assert matrix.centers is centers
        for name in (*STORED[1:], "centers", "indices", "indptr"):
            assert not getattr(matrix, name).flags.writeable, name
        assert matrix.data.flags.writeable
        assert matrix.indices.tolist() == [1, 2, 5]
        assert matrix.indptr.tolist() == [0, 2, 2, 3]
        # x = [m; S] = [1, 2, 4, 7, 6, 4]: row (0, 1) is 0.5 * 2 - 4, times
        # m_0 or |c_1 - c_0| = 1, and row (1, 0) 2 * 4, times m_1 or 1
        assert bits(matrix.product(np.array([1.0, 2.0, 4.0]))) == bits(
            [[16.0, -3.0, 0.0], [-3.0, 8.0, 0.0]])
        # each product reads the distances from the points: on [0, 4, 9]
        # both rows' |c_k - c_a| is 4
        other = PairRows(**self.SMALL, centers=np.array([0.0, 4.0, 9.0]))
        assert bits(other.product(np.array([1.0, 2.0, 4.0]))[1]) == bits([-12.0, 32.0, 0.0])
        # one ValueError on both paths: strided masses are rejected, not copied
        for m in (np.ones(4), np.ones((3, 1)), np.ones(3, np.int64),
                  np.ones(3, np.float32), np.ones(6)[::2]):
            with pytest.raises(ValueError, match="3 cells: need contiguous float64"):
                matrix.product(m)
        for name, bad, match in [
            ("run_col", [5, 5], "outside"),  # its first run reaches column 6
            ("run_col", [1, 6], "outside"),
            ("run_col", [-1, 5], "outside"),
            ("row_k", [1, 1, 3], "outside"),
            ("row_a", [0, -1, 1], "outside"),
            ("run_start", [0, 3, 2], "form"),
            ("run_start", [0, 2, 2], "form"),
            ("run_start", [1, 2, 3], "form"),
            ("run_start", [0, 3], "form"),
            ("row_runs", [0, 2, 1, 2], "form"),
            ("row_runs", [0, 1, 1, 1], "form"),
            ("row_runs", [1, 1, 1, 2], "form"),
            ("row_runs", [0, 1, 2], "form"),
            ("row_a", [0, 2], "form"),
            ("row_k", np.array([1, 1, 0], np.int64), "int32"),
            ("run_col", np.array([1, 5], np.int64), "int32"),
            ("run_start", np.array([0, 2, 3], np.int64), "int32"),
            ("row_runs", np.array([0, 1, 1, 2], np.int64), "int32"),
            ("centers", np.array([0, 1, 3]), "float64"),
            ("centers", np.array([0.0, 1.0, 3.0], np.float32), "float64"),
            ("centers", np.zeros((3, 1)), "1-D contiguous float64 points"),
            ("centers", np.arange(6.0)[::2], "1-D contiguous float64 points"),
        ]:
            arrays = {**self.SMALL, "centers": centers,
                      name: np.asarray(bad, getattr(bad, "dtype", np.int32))}
            with pytest.raises(ValueError, match=match):
                PairRows(**arrays)
        # a kernel's operators share one array of points, which it keeps
        kernel = build_kernel(YS(0.5), small_grid())
        assert kernel.centers is kernel.gain.centers is kernel.trunc_coef.centers
        for grid in (small_grid(), build_grid(LinearScheme(10.0, 16), Exponential(1.0))):
            other = build_kernel(YS(0.5), grid)
            with pytest.raises(ValueError, match="other grid points"):
                DiscreteKernel(kernel.rule, kernel.gain, other.trunc_coef)


def rhs_longdouble(kernel, m):
    """Gain minus loss in long double, rebuilt from the rule's per-atom
    arrays (``pair_atoms`` and ``_split_points``) instead of ``gain``."""
    c = kernel.centers
    pair_a, pair_b, delta, prob = pair_atoms(kernel.rule, c)
    lo, hi, w_lo = _split_points(c, c[pair_a] + delta)
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


def gini_sums_loop(m, c, r):
    """``_gini_sums`` in Python floats, one term at a time: the prefix sums
    before cell k from 0.0, every other sum from its first term."""
    m, c = m.tolist(), c.tolist()
    before_m = before_mc = 0.0
    pair = phi_r = through_m = through_mc = None
    for k, (mk, ck) in enumerate(zip(m, c)):
        term = mk * (ck * before_m - before_mc)
        pair = term if pair is None else pair + term
        through_m = mk if through_m is None else through_m + mk
        through_mc = mk * ck if through_mc is None else through_mc + mk * ck
        if r is not None:
            term = 2.0 * (ck * (through_m - m[0]) - through_mc) * float(r[k])
            phi_r = term if phi_r is None else phi_r + term
        before_m, before_mc = through_m, through_mc
    return through_m, through_mc, pair, phi_r


def random_masses(gen, cells):
    """Normalized masses with about a third of the cells empty, the zero
    cell among them half the time."""
    m = gen.dirichlet(np.full(cells, 0.3))
    m[gen.random(cells) < 0.33] = 0.0
    m[0] = 0.0 if gen.random() < 0.5 else m[0]
    m[gen.integers(1, cells)] += 0.1  # not all mass at zero
    return m / m.sum()


class TestStepSeams:
    """The integrator's seams ``_rhs_masses``, ``_weighted_gini`` and
    ``_gini_rate_masses`` give the same bits whether ``_sweep.c``'s
    ``pair_rhs`` and ``gini_sums`` or numpy compute them."""

    @pytest.mark.parametrize("rule", RULE_VARIANTS, ids=format_rule)
    def test_rhs_keeps_the_product_and_bincount_bits(self, product_path, rule):
        grid = build_grid(LogScheme(1e-3, 1e3, 48), Exponential(1.0))
        kernel = build_kernel(rule, grid)
        gen = np.random.Generator(np.random.PCG64(23))
        for _ in range(8):
            m = random_masses(gen, grid.cells)
            # dm/dt and the mobility l_a = sum_b E|delta|(a, b) m_b
            want = scipy_product(kernel.gain, m)
            assert bits(master_eq._rhs_masses(kernel, m)) == bits(want)

    @pytest.mark.parametrize("rule", RULE_VARIANTS, ids=format_rule)
    def test_gini_and_rate_sum_in_index_order(self, product_path, rule):
        grid = build_grid(LogScheme(1e-3, 1e3, 48), Exponential(1.0))
        kernel = build_kernel(rule, grid)
        c = kernel.centers
        gen = np.random.Generator(np.random.PCG64(29))
        for _ in range(8):
            m = random_masses(gen, grid.cells)
            r = master_eq._rhs_masses(kernel, m)[0]
            trunc_rate = master_eq._trunc_rate(kernel, m)
            mass, mean, pair, phi_r = gini_sums_loop(m, c, r)
            assert bits(master_eq._grid_sums(m, c, r)) == bits([mass, mean, pair, phi_r])
            assert master_eq._grid_sums(m, c, None)[3] is None
            assert bits(master_eq._weighted_gini(m, c)) == bits([2.0 * pair / (2.0 * mean), mean])
            want = (phi_r - (2.0 * m[0] - mass) * trunc_rate) / mean
            got = master_eq._gini_rate_masses(kernel, m, r, trunc_rate)
            assert bits([got]) == bits([want])

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.floats(width=64) | st.sampled_from(SPECIAL),
                           min_size=3, max_size=30))
    def test_compiled_gini_sums_match_numpy_on_any_floats(self, values):
        module = compiled_product()
        n = len(values) // 3
        m, c, r = (np.array(values[k * n:(k + 1) * n]) for k in range(3))
        with np.errstate(all="ignore"):
            want = bits_any_nan(gini_sums_loop(m, c, r))
            assert bits_any_nan(_gini_sums(m, c, r)) == want
            assert bits_any_nan(module.gini_sums(m, c, r)) == want
            assert bits_any_nan(module.gini_sums(m, c, None)[:3]) == want[:3]

    def test_all_mass_at_zero_has_gini_0(self, product_path):
        c = np.linspace(0.0, 3.0, 4)
        assert master_eq._weighted_gini(np.array([1.0, 0.0, 0.0, 0.0]), c) == (0.0, 0.0)

    def test_malformed_gini_sums_calls_raise(self):
        module = compiled_product()
        n = 5
        c = np.linspace(0.0, 4.0, n)
        for m, c, r in [(np.ones(n - 1), c, None), (np.ones(n), c, np.ones(n - 1)),
                        (np.ones(n, np.float32), c, None), (np.empty(0), c[:0], None),
                        (np.ones(n), c, np.ones(n, np.int64))]:
            with pytest.raises((TypeError, ValueError)):
                module.gini_sums(m, c, r)

    @pytest.mark.parametrize("rule", RULE_VARIANTS, ids=format_rule)
    def test_trunc_rate_sums_the_product(self, product_path, rule):
        # the sum of trunc_coef's product, bitwise on both paths, and within
        # the rounding of its sums of sum_ab tau_ab m_a m_b, all terms >= 0:
        # a row of r entries and its weight m_a round r + 1 times, the sum
        # over cells n - 1 times
        grid = build_grid(LogScheme(1e-3, 200.0, 96), Exponential(1.0))
        kernel = build_kernel(rule, grid)
        trunc = kernel.trunc_coef
        tau = trunc_matrix(kernel)
        bound = (np.diff(trunc.indptr).max(initial=0) + grid.cells) * 2.0**-53
        gen = np.random.Generator(np.random.PCG64(31))
        rates = []
        for _ in range(8):
            m = random_masses(gen, grid.cells)
            rate = master_eq._trunc_rate(kernel, m)
            assert bits([rate]) == bits([scipy_product(trunc, m)[0].sum()])
            exact = math.fsum((tau * np.outer(m, m)).ravel().tolist())
            assert abs(rate - exact) <= bound * exact
            rates.append(rate)
        assert max(rates) > 0.0


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


def gini_rate_per_entry(grid, kernel, dtype=np.float64):
    """Per-atom evaluation of the Gini evolution functional: phi at each
    atom's represented post-wealth by prefix sums, rebuilt from the rule's
    per-atom arrays (``pair_atoms`` and ``_split_points``) instead of
    ``gain``, in the arithmetic of ``dtype``."""
    c = kernel.centers
    pair_a, pair_b, delta, prob = pair_atoms(kernel.rule, c)
    repr_delta = np.where(c[pair_a] + delta > c[-1], c[-1] - c[pair_a], delta)
    idx = np.searchsorted(c, c[pair_a] + repr_delta, side="right")
    c = c.astype(dtype)
    m = grid.masses.astype(dtype)
    cum_m = np.concatenate(([0.0], np.cumsum(m)))
    cum_mc = np.concatenate(([0.0], np.cumsum(m * c)))
    m_tot = cum_m[-1]
    m1_tot = cum_mc[-1]
    post = c[pair_a] + repr_delta
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
            lost = float((trunc_matrix(kernel) * np.outer(masses, masses)).sum())
            assert (lost > 0.0) == truncating
            assert gini_rate(grid, kernel) == pytest.approx(
                gini_rate_per_entry(grid, kernel), rel=1e-10
            )

    def test_condensation_run_matches_longdouble_reference(self):
        # every 100th state of the yard-sale lambda=0.1 run of criterion 5:
        # as the state condenses, phi_c . dm/dt cancels across all cells (to
        # 2.5e-12 relative here), and the shifted phi does not
        grid = build_grid(LogScheme(1e-4, 1e5, 200), PointMass(1.0))
        kernel = build_kernel(YS(0.1), grid)
        snaps, report = integrate(
            grid, kernel, dt=50.0, t_end=1e5, stop_gini=0.995, stop_liquidity=0.005,
            snapshot_every=100,
        )
        assert report.stopped_early and len(snaps) > 60
        for _, state in snaps[:-1]:
            reference = gini_rate_per_entry(state, kernel, np.longdouble)
            assert gini_rate(state, kernel) == pytest.approx(reference, rel=1.5e-12, abs=0.0)

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
            (trunc_matrix(kernel) * np.outer(masses, masses)).sum()
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
        l = master_eq._rhs_masses(kernel, grid.masses)[1]
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
            faithful_rows = ~truncated(kernel).any(axis=1)
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
    """``abs_delta``, the per-pair E|delta| behind liquidity and bound_ratio,
    derived from ``gain`` as sum_k |c_k - c_a| N[k, (a, b)]."""

    @pytest.mark.parametrize("rule", RULE_VARIANTS, ids=format_rule)
    def test_matches_expected_abs_delta(self, rule):
        # against the closed form averaged over the rule's lambda nodes, on
        # the pairs whose post-wealths fit the grid. Per atom of probability
        # p and shift d, split between points lo and hi: the post-wealth
        # c_a + d rounds by u c_hi, the split weight by 2 u of the gap
        # c_hi - c_lo, p and its product with the weight by 2 u p, and
        # 1 - p_plus of the unbiased loser by u absolute, u |d| in the
        # moment; the sums over atoms, entries and nodes add up to 8 u per
        # atom of the reference, whose own rounding is 8 u.
        grid = build_grid(LogScheme(1e-4, 1e5, 200), PointMass(1.0))
        c = grid.centers
        n = grid.cells
        kernel = build_kernel(rule, grid)
        exact = sum(w * expected_abs_delta(rule, c[:, None], c[None, :], lam=lam)
                    for lam, w in _lambda_mixture(rule))
        pair_a, pair_b, delta, prob = pair_atoms(rule, c)
        lo, hi, _ = _split_points(c, c[pair_a] + delta)
        u = 2.0**-53
        per_atom = u * (prob * (c[hi] + 2.0 * (c[hi] - c[lo]) + 2.0 * np.abs(delta))
                        + np.abs(delta))
        bound = np.bincount(pair_a * n + pair_b, weights=per_atom, minlength=n * n)
        atoms = np.bincount(pair_a * n + pair_b, minlength=n * n)
        bound = (bound + 8.0 * u * (atoms + 1) * exact.ravel()).reshape(n, n)
        faithful = ~truncated(kernel)
        error = np.abs(kernel.abs_delta - exact)
        assert faithful.sum() > n * n // 2
        assert np.all(error[faithful] <= bound[faithful])
        # clipping at the top cell can only lower it
        assert np.all(kernel.abs_delta <= exact + bound)

    def test_integrator_never_reads_it(self, monkeypatch, tmp_path):
        def unread(kernel):
            raise AssertionError("abs_delta read")

        monkeypatch.setattr(DiscreteKernel, "abs_delta", property(unread))
        grid = build_grid(LogScheme(1e-4, 1e5, 200), PointMass(1.0))
        kernel = build_kernel(YS(0.5), grid)
        with pytest.raises(AssertionError, match="abs_delta read"):
            kernel.abs_delta
        assert 0.0 < mobility_bound_check(grid, kernel) <= 1.0
        _, report = integrate(grid, kernel, dt=50.0, t_end=500.0)
        assert report.steps > 5 and np.all(report.liquidity > 0.0)
        out = tmp_path / "i.csv"
        assert kinex.cli.main(["integrate", "--rule", "yardsale:lambda=0.5",
                               "--grid", "log:1e-3:1e3:40", "--init", "point:1",
                               "--dt", "1", "--t-end", "5", "--out", str(out)]) == 0


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

    def test_mass_drift_aborts_with_report(self, monkeypatch):
        # the rate of step 3 leaks mass into the zero cell, which keeps the
        # mean and raises the Gini: only the mass audit sees it
        inner = master_eq._rhs_masses
        calls = itertools.count(1)

        def leaking(kernel, m):
            r, l = inner(kernel, m)
            if next(calls) == 3:
                r[0] += 1e-6
            return r, l

        monkeypatch.setattr(master_eq, "_rhs_masses", leaking)
        grid = build_grid(LogScheme(1e-3, 1e3, 64), Exponential(1.0))
        kernel = build_kernel(YS(0.5), grid)
        with pytest.raises(IntegrationAbort, match="mass drift") as exc:
            integrate(grid, kernel, dt=1.0, t_end=10.0)
        report = exc.value.report
        assert report.steps == 2
        assert report.mass_drift.size == 2

    def test_nan_rate_aborts_without_a_nan_row(self, monkeypatch):
        # one NaN in the rate of step 3 makes the candidate's Gini, mass and
        # mean NaN; the audits refuse it rather than write it into a row
        inner = master_eq._rhs_masses
        calls = itertools.count(1)

        def poisoned(kernel, m):
            r, l = inner(kernel, m)
            if next(calls) == 3:
                r[5] = math.nan
            return r, l

        monkeypatch.setattr(master_eq, "_rhs_masses", poisoned)
        grid = build_grid(LogScheme(1e-3, 1e3, 64), Exponential(1.0))
        kernel = build_kernel(YS(0.5), grid)
        with pytest.raises(IntegrationAbort, match="nan") as exc:
            integrate(grid, kernel, dt=1.0, t_end=10.0)
        report = exc.value.report
        assert report.steps == 2
        for name in IntegrationReport.COLUMNS:
            assert np.isfinite(getattr(report, name)).all(), name

    @pytest.mark.parametrize("rule", [YS(0.5), CL(0.5)], ids=format_rule)
    def test_final_snapshot_gini_is_the_last_row(self, product_path, rule):
        grid = build_grid(LogScheme(1e-4, 1e5, 120), PointMass(1.0))
        kernel = build_kernel(rule, grid)
        snaps, report = integrate(grid, kernel, dt=50.0, t_end=400.0)
        assert report.steps > 5
        assert bits([gini_grid(snaps[-1][1])]) == bits(report.gini[-1:])

    def test_rejects_zero_mean(self):
        grid = small_grid()
        masses = np.zeros(grid.cells)
        masses[0] = 1.0
        with pytest.raises(ValueError, match="degenerate: zero mean wealth"):
            integrate(grid.with_masses(masses), build_kernel(YS(0.5), grid), 1.0, 1.0)

    def test_step_budget_aborts_with_report(self, monkeypatch):
        monkeypatch.setattr(master_eq, "MAX_STEPS", 3)
        grid = build_grid(LogScheme(1e-3, 1e3, 64), Exponential(1.0))
        kernel = build_kernel(YS(0.5), grid)
        with pytest.raises(IntegrationAbort, match="step budget 3 exceeded") as exc:
            integrate(grid, kernel, dt=1.0, t_end=10.0)
        assert exc.value.report.steps == 3

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
        # a first product without a compiler logs its WARNING in _load
        master_eq._load()
        caplog.clear()
        grid = build_grid(LogScheme(1e-4, 1e5, 200), PointMass(1.0))
        kernel = build_kernel(YS(0.5), grid)
        count = int(truncated(kernel).sum())
        assert count > 0
        debug = [r for r in caplog.records if r.levelno == logging.DEBUG]
        assert any(str(count) in r.getMessage() for r in debug)
        _, report = integrate(grid, kernel, dt=50.0, t_end=500.0)
        assert 0.0 < report.truncated_wealth <= 0.5 * TRUNCATION_TOL * grid.mean
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]

    def test_truncation_warns_once_near_tolerance(self, caplog):
        caplog.set_level(logging.DEBUG, logger="kinex.master_eq")
        master_eq._load()
        caplog.clear()
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
