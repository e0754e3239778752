"""Thermodynamic-limit dynamics of binary wealth exchange on a wealth grid.

The transfer kernel of each rule is discretized per ordered cell pair: each
delta atom maps the tagged agent's post-exchange wealth onto the grid by
conservative two-point splitting (mass is shared between the two
representative points bracketing a post-wealth so that both the split's
total mass and its total wealth are exact). Normalization and zero expected
gain therefore survive discretization to rounding error, which is what makes
the monotone-Gini and condensation statements hold for the discrete system
as well. Gain and loss of every pair are stored together in one net gain
operator N = G - L, laid out by pair rows: row (a, k) holds N[k, (a, b)]
over partners b. Where the rule's law gives every partner b >= a the same
outcome (yard-sale: delta = +-lambda min(c_a, c_b) = +-lambda c_a), those
entries are stored once, in suffix column n + a, which multiplies
S_a = sum_{b >= a} m_b. So one sparse product with [m; S] followed by a
weighted bincount over the rows gives dm/dt, and the Gini rate is a dot
product with it. A winner's atom lands at or above the grid point c_a and
a loser's at or below it, so pair (a, b)'s E|delta| is
sum_k |c_k - c_a| N[k, (a, b)], and the same pass gives the mobility l_a
as the first absolute moment about c_a of the row sums (a, k). The
operator is built in blocks of tagged cells a whose temporaries fit
``BLOCK_BYTES``, each block's rows appended to the kernel's own arrays.

The kernel holds both sparse operators, ``gain`` and the truncation rate
``trunc_coef``, in ``PairRows``: the entries of the pair rows, their
columns stored as runs of consecutive columns, each row's (a, k), and the
grid points both share, the kernel's one record of its geometry. Its one
product is ``_sweep.c``'s ``pair_rhs``, loaded through ``engine._load`` at
the first product, which forms [m; S], reads it run
by run and sums each pair row from 0.0 in stored order, as scipy's
``csr_array`` product does, and adds it times m_a into cell k and times
|c_k - c_a| into the mobility of cell a, in one pass. Where the module
does not load, it is numpy's product and ``bincount`` over the same
arrays, adding in the same order. Each compiled function and its numpy
twin give the same bits on every output that is not NaN, and NaN in the
same cells. Each integrator step makes one compiled call per seam:
``_rhs_masses`` and ``_trunc_rate`` one ``pair_rhs`` each, and
``_weighted_gini`` and ``_gini_rate_masses`` one ``gini_sums`` each, the
prefix sums of the grid Gini and its rate in index order, whose numpy
fallback (``metrics._gini_sums``' ``cumsum``) adds in the same order.

Time stepping is explicit Euler. The step is capped so at most 10% of
total mass moves per step and halved whenever a cell mass would go
negative. For an unbiased rule every step is then audited: the Gini index
is a Lyapunov function of the dynamics, so a decrease aborts the run
instead of being stepped around. Every audit is written so that a NaN
fails it: a step that makes one aborts rather than writes it into a row.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar

import numpy as np

from .core import RuleKind, RuleSpec, WealthGrid
from .engine import _load
from .metrics import _gini_of_sums, _gini_sums
from .rules import two_point_law

log = logging.getLogger("kinex.master_eq")

__all__ = [
    "LinearScheme",
    "LogScheme",
    "PointMass",
    "UniformBand",
    "Exponential",
    "DiscreteKernel",
    "KernelCheckReport",
    "IntegrationReport",
    "IntegrationAbort",
    "build_grid",
    "build_kernel",
    "check_kernel",
    "rhs",
    "integrate",
    "gini_rate",
    "mobility_bound_check",
    "oligarchy_surrogate",
    "parse_grid_scheme",
    "parse_density",
]

MIN_CELLS = 16
# Fraction of total mass allowed to move in one explicit Euler step.
STEP_MASS_FRACTION = 0.1
# Per-step conservation tolerances (relative to initial mean for the mean).
STEP_MASS_TOL = 1e-12
STEP_MEAN_TOL = 1e-10
# Cumulative truncated wealth (relative) beyond which a run is flagged
# non-conservative.
TRUNCATION_TOL = 1e-8
# Gini decrease in one step that the audit of an unbiased run accepts as
# rounding.
GINI_DECREASE_TOL = 1e-12
# Steps one integration may take before it aborts.
MAX_STEPS = 2_000_000
# Nodes of the Gauss-Legendre mixture standing in for Uniform[0,1] lambda.
LAMBDA_NODES = 8
# Largest factor between neighbouring positive grid points: the split of a
# gain between two points errs by about 1e-16 of their gap, and every rule's
# kernel passed ``check_kernel`` up to 3.2e5 and failed some from 6.5e5.
MAX_POINT_RATIO = 1e5
# Bytes of temporaries one block of tagged cells may hold while
# ``build_kernel`` forms and sums its entries. Freed block temporaries stay
# in the process heap, so the budget also bounds what a build adds to the
# peak RSS; at 16 MiB the 201-cell grid of criterion 5 built in one block
# and its integrate command peaked 1.2 MiB higher than at 4 MiB.
BLOCK_BYTES = 4 * 2**20


@dataclass(frozen=True)
class LinearScheme:
    x_max: float
    cells: int


@dataclass(frozen=True)
class LogScheme:
    """Log-spaced cells on [x_min, x_max] plus a dedicated cell at x = 0."""

    x_min: float
    x_max: float
    cells: int


@dataclass(frozen=True)
class PointMass:
    x: float


@dataclass(frozen=True)
class UniformBand:
    a: float
    b: float


@dataclass(frozen=True)
class Exponential:
    mean: float


def parse_grid_scheme(text: str) -> LinearScheme | LogScheme:
    """Parse "linear:<xmax>:<cells>" or "log:<xmin>:<xmax>:<cells>"."""
    parts = text.split(":")
    try:
        if parts[0] == "linear" and len(parts) == 3:
            return LinearScheme(x_max=float(parts[1]), cells=int(parts[2]))
        if parts[0] == "log" and len(parts) == 4:
            return LogScheme(
                x_min=float(parts[1]), x_max=float(parts[2]), cells=int(parts[3])
            )
    except ValueError as exc:
        raise ValueError(f"bad grid spec {text!r}: {exc}") from None
    raise ValueError(f"bad grid spec {text!r}")


def parse_density(text: str) -> PointMass | UniformBand | Exponential:
    """Parse "point:<x>", "uniform:<a>:<b>", or "exp:<mean>"."""
    parts = text.split(":")
    try:
        if parts[0] == "point" and len(parts) == 2:
            return PointMass(x=float(parts[1]))
        if parts[0] == "uniform" and len(parts) == 3:
            return UniformBand(a=float(parts[1]), b=float(parts[2]))
        if parts[0] == "exp" and len(parts) == 2:
            return Exponential(float(parts[1]))
    except ValueError as exc:
        raise ValueError(f"bad density spec {text!r}: {exc}") from None
    raise ValueError(f"bad density spec {text!r}")


def _density_mean(density) -> float:
    if isinstance(density, PointMass):
        return density.x
    if isinstance(density, UniformBand):
        return 0.5 * (density.a + density.b)
    return density.mean


def _grid_axes(scheme) -> tuple[np.ndarray, np.ndarray]:
    """Edges and representative points; the first point is exactly 0.

    Every grid resolves the absorbing state: the first cell's quadrature
    point sits at zero wealth so the kernel's identity row at x = 0 and the
    two-point split of near-zero post-wealths both exist.
    """
    if isinstance(scheme, LinearScheme):
        if scheme.cells < MIN_CELLS:
            raise ValueError(f"need at least {MIN_CELLS} cells")
        if not 0.0 < scheme.x_max < math.inf:
            raise ValueError("x_max must be positive and finite")
        edges = np.linspace(0.0, scheme.x_max, scheme.cells + 1)
    elif isinstance(scheme, LogScheme):
        if scheme.cells < MIN_CELLS:
            raise ValueError(f"need at least {MIN_CELLS} cells")
        if not 0.0 < scheme.x_min < scheme.x_max < math.inf:
            raise ValueError("need 0 < x_min < x_max < inf")
        edges = np.concatenate(
            ([0.0], np.geomspace(scheme.x_min, scheme.x_max, scheme.cells + 1))
        )
    else:
        raise TypeError(f"unknown grid scheme {scheme!r}")
    # an overflowing top point is rejected below
    with np.errstate(over="ignore"):
        centers = 0.5 * (edges[:-1] + edges[1:])
    centers[0] = 0.0
    if not np.isfinite(centers[-1]):
        raise ValueError("x_max too large: the top grid point overflows")
    return edges, centers


def _split_points(centers: np.ndarray, post: np.ndarray):
    """Conservative two-point split of post-wealths onto the grid.

    Returns (lo, hi, w_lo): mass w_lo goes to centers[lo] and 1 - w_lo to
    centers[hi], with w_lo*c_lo + (1-w_lo)*c_hi equal to the post-wealth
    exactly. Post-wealths above the top point are assigned to the top cell;
    the caller accounts for the wealth this loses.
    """
    n = centers.size
    post = np.asarray(post, dtype=np.float64)
    lo = np.searchsorted(centers, post, side="right") - 1
    lo = np.clip(lo, 0, n - 1)
    over = post > centers[-1]
    exact = (centers[lo] == post) | over
    hi = np.where(exact, lo, np.minimum(lo + 1, n - 1))
    denom = np.where(exact, 1.0, centers[hi] - centers[lo])
    w_lo = np.where(exact, 1.0, (centers[hi] - post) / denom)
    return lo.astype(np.int64, copy=False), hi.astype(np.int64, copy=False), w_lo


def _mean_correct(masses: np.ndarray, centers: np.ndarray, target: float) -> None:
    """Shift mass between one cell below and one above the target mean so the
    first moment, summed in index order as the integrator sums it, equals
    ``target`` exactly, without changing total mass."""
    current = _gini_sums(masses, centers)[1]
    diff = target - current
    if diff == 0.0:
        return
    below = centers < target
    above = centers > target
    if not below.any() or not above.any():
        raise ValueError("target mean outside the grid's representable range")
    k_lo = int(np.argmax(np.where(below, masses, -1.0)))
    k_hi = int(np.argmax(np.where(above, masses, -1.0)))
    eta = diff / (centers[k_hi] - centers[k_lo])
    if eta > masses[k_lo] or -eta > masses[k_hi]:
        raise ValueError("mean correction would need more mass than available")
    masses[k_lo] -= eta
    masses[k_hi] += eta


def _point_split(centers: np.ndarray, x: float) -> np.ndarray:
    """Unit mass at wealth ``x``, split mean-exactly between the two grid
    points bracketing it."""
    lo, hi, w = _split_points(centers, np.array([x]))
    masses = np.zeros(centers.size)
    masses[lo[0]] = w[0]
    masses[hi[0]] += 1.0 - w[0]
    return masses


def build_grid(scheme, density) -> WealthGrid:
    """Discretize an initial density onto a wealth grid.

    The result is normalized exactly and its first moment is corrected to
    the density's nominal mean by a two-cell adjustment, so integration
    starts from a state that satisfies the conservation contracts to
    rounding error. Requires neighbouring positive points at most
    ``MAX_POINT_RATIO`` apart, x_max >= 10 * mean and a mean at most the
    second-highest representative point, which keeps the top point, where
    exchanges truncate, empty. A uniform or exponential mean must also reach
    the lowest positive point; a point mass below it is split exactly.
    """
    edges, centers = _grid_axes(scheme)
    # the points of a grid at a nominal factor of 1e5 differ by it give or
    # take a few ulps; a bound that overflows to inf exceeds every point
    with np.errstate(over="ignore"):
        if np.any(centers[2:] > MAX_POINT_RATIO * (1.0 + 1e-12) * centers[1:-1]):
            raise ValueError(
                f"neighbouring grid points lie more than {MAX_POINT_RATIO:g} times apart"
            )
    target_mean = _density_mean(density)
    if not 0.0 < target_mean < math.inf:
        raise ValueError("initial density must have a positive finite mean")
    if edges[-1] < 10.0 * target_mean:
        raise ValueError("x_max must be at least 10 * mean of the initial density")
    if target_mean > centers[-2]:
        raise ValueError("initial mean above the grid's second-highest point")

    if isinstance(density, PointMass):
        masses = _point_split(centers, density.x)
        if not np.dot(masses, centers) > 0.0:
            # the point lies closer to 0 than a float resolves
            raise ValueError(f"point mass {density.x!r} rounds to 0 on the grid")
        return WealthGrid(edges, masses, centers)

    if target_mean < centers[1]:
        raise ValueError("initial mean below the grid's lowest positive point")
    if isinstance(density, UniformBand):
        a, b = density.a, density.b
        if not 0.0 <= a < b <= edges[-1]:
            raise ValueError("uniform band must satisfy 0 <= a < b <= x_max")
        overlap = np.clip(edges[1:], a, b) - np.clip(edges[:-1], a, b)
        masses = np.maximum(overlap, 0.0) / (b - a)
    elif isinstance(density, Exponential):
        # edges / mean may overflow to inf, and exp(-inf) = 0 is exact
        with np.errstate(over="ignore"):
            cdf = 1.0 - np.exp(-edges / density.mean)
        masses = np.diff(cdf)
        masses[-1] += 1.0 - cdf[-1]  # lump the truncated tail into the top cell
    else:
        raise TypeError(f"unknown density spec {density!r}")

    masses /= math.fsum(masses)
    _mean_correct(masses, centers, target_mean)
    return WealthGrid(edges, masses, centers)


def oligarchy_surrogate(grid: WealthGrid, m_factor: float) -> WealthGrid:
    """Finite-grid surrogate of the absolute oligarchy at mean wealth 1.

    Mass 1 - 1/M at zero wealth plus mass 1/M at wealth M; the exact limit
    state is reached as M grows. The far point is placed by the same
    mean-exact split as everything else.
    """
    if m_factor > grid.centers[-1]:
        raise ValueError("surrogate wealth M exceeds the grid")
    masses = _point_split(grid.centers, m_factor) / m_factor
    masses[0] += 1.0 - 1.0 / m_factor
    return grid.with_masses(masses)


def _lambda_mixture(rule: RuleSpec) -> list[tuple[float, float]]:
    """(lambda, weight) nodes representing the rule's lambda law.

    A fixed lambda is a single node. The Uniform[0,1] random lambda is
    represented by a Gauss-Legendre mixture: the master equation is linear
    in the kernel, so any convex mixture of per-lambda kernels is itself a
    valid, exactly normalized and unbiased kernel, and the node set
    converges weakly to the uniform average.
    """
    if rule.kind is RuleKind.IGLESIAS_ALMEIDA:
        return [(1.0, 1.0)]
    if rule.random_lambda:
        x, wgt = np.polynomial.legendre.leggauss(LAMBDA_NODES)
        # Weights on a 2^-40 lattice with the last one closing the sum, so
        # they add up to exactly 1 in any order: the atoms of a pair that
        # transfers nothing then cancel the pair's loss entry exactly and
        # zero wealth stays exactly absorbing.
        weights = [round(math.ldexp(wi / 2.0, 40)) / 2.0**40 for wi in wgt[:-1]]
        weights.append(1.0 - math.fsum(weights))
        return [(0.5 * (xi + 1.0), wi) for xi, wi in zip(x, weights)]
    return [(float(rule.lam), 1.0)]


class PairRows:
    """A sparse operator A on [m; S], S_a = sum_{b >= a} m_b, of a grid of
    float64 points ``centers``, laid out by pair rows: row i is pair row
    (``row_a[i]``, ``row_k[i]``) and holds the entries ``data[j]`` of its
    runs r, ``row_runs[i] <= r < row_runs[i + 1]``. Run r holds the entries
    ``run_start[r] <= j < run_start[r + 1]``, in the consecutive columns
    ``run_col[r] + (j - run_start[r])``. ``data`` is float64, the other
    arrays int32; ``shape`` is (rows, 2 cells). No array holds a row's
    |c_k - c_a|: each product forms it from ``centers``, one contiguous item
    per cell. ``_column_runs`` gives the runs of any columns. In compressed
    sparse row form the operator is ``data``, ``indices`` and ``indptr``,
    each entry's column and each row's first entry, derived from the runs
    when first read; the compiled product reads neither.

    Its one product, ``product(m)`` at C-contiguous float64 masses m of
    ``cells`` items, is (out, l) with s_(a, k) = (A [m; S])_(a, k),
    out[k] = sum over rows (a, k) of m_a s_(a, k) and l[a] = sum over rows
    (a, k) of |c_k - c_a| s_(a, k): ``_sweep.c``'s ``pair_rhs``, or, where
    the compiled module does not load, ``np.bincount`` of
    ``x[indices] * data`` by row, then ``np.bincount`` of the sums times
    m_a by k and times |c_k - c_a| by a. Both sum each row from 0.0 in stored
    order, as scipy's product does, and add the rows into each cell in row
    order, so they give the same bits on every output that is not NaN, and
    NaN in the same cells. Any other m, strided ones included, raises
    ValueError on both paths. The arrays are checked here, once:
    ``pair_rhs`` trusts that every run lies in [0, 2 cells) and every row
    cell in [0, cells), so all but ``data``, which stays writable, are then
    made read-only, ``centers`` too. Raises ValueError on arrays that do not
    form such an operator.
    """

    def __init__(self, data: np.ndarray, run_col: np.ndarray, run_start: np.ndarray,
                 row_runs: np.ndarray, row_a: np.ndarray, row_k: np.ndarray,
                 centers: np.ndarray):
        rows = row_a.size
        cells = centers.size
        index_arrays = (run_col, run_start, row_runs, row_a, row_k)
        if (data.dtype, centers.dtype, centers.ndim) != (np.float64, np.float64, 1) or any(
                x.dtype != np.int32 for x in index_arrays) or not centers.flags.c_contiguous:
            raise ValueError("pair-row arrays must be float64 data, 1-D contiguous float64 "
                             "points and int32 indices")
        if (
            data.ndim != 1 or run_start.shape != (run_col.size + 1,)
            or row_runs.shape != (rows + 1,) or not row_a.shape == row_k.shape == (rows,)
            or (run_start[0], run_start[-1], row_runs[0], row_runs[-1]) != (
                0, data.size, 0, run_col.size)
            or np.any(np.diff(run_start) < 0) or np.any(np.diff(row_runs) < 0)
        ):
            raise ValueError(f"pair-row arrays do not form {rows} rows of {data.size} entries")
        if run_col.size and not (0 <= run_col.min() and np.max(
                run_col + np.diff(run_start).astype(np.int64)) <= 2 * cells):
            raise ValueError(f"column runs outside [0, {2 * cells})")
        if rows and not (0 <= min(row_a.min(), row_k.min())
                         and max(row_a.max(), row_k.max()) < cells):
            raise ValueError(f"row cells outside [0, {cells})")
        for x in (*index_arrays, centers):
            x.flags.writeable = False
        self.data = data
        self.run_col = run_col
        self.run_start = run_start
        self.row_runs = row_runs
        self.row_a = row_a
        self.row_k = row_k
        self.centers = centers
        self.cells = cells
        self.shape = (rows, 2 * cells)
        self.nnz = data.size

    @cached_property
    def indices(self) -> np.ndarray:
        indices = np.arange(self.nnz, dtype=np.int32) + np.repeat(
            self.run_col - self.run_start[:-1], np.diff(self.run_start))
        indices.flags.writeable = False
        return indices

    @cached_property
    def indptr(self) -> np.ndarray:
        indptr = self.run_start[self.row_runs]
        indptr.flags.writeable = False
        return indptr

    def product(self, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n = self.cells
        if m.shape != (n,) or m.dtype != np.float64 or not m.flags.c_contiguous:
            raise ValueError(f"{m.dtype} masses of shape {m.shape} for {n} cells: "
                             "need contiguous float64")
        module = _load()
        if module is not None:
            return module.pair_rhs(self.run_col, self.run_start, self.row_runs, self.data,
                                   self.row_a, self.row_k, self.centers, m, np.empty(n),
                                   np.empty(n))
        rows = self.shape[0]
        # like pair_rhs and scipy it stays quiet on overflow and NaN
        with np.errstate(over="ignore", invalid="ignore"):
            terms = _with_suffix_sums(m)[self.indices] * self.data
            row = np.repeat(np.arange(rows), np.diff(self.indptr))
            sums = np.bincount(row, weights=terms, minlength=rows)
            dist = np.abs(self.centers[self.row_k] - self.centers[self.row_a])
            weighted = ((self.row_k, sums * m[self.row_a]), (self.row_a, sums * dist))
        # integer zeros where no row is
        return tuple(np.bincount(cell, weights=w, minlength=n).astype(np.float64, copy=False)
                     for cell, w in weighted)


class DiscreteKernel:
    """Discretized transfer kernel on a wealth grid: what the integrator reads.

    - ``gain`` is the net gain operator N = G - L laid out by pair rows:
      Nt[(a, k), b] = N[k, (a, b)], a ``PairRows`` with one row per
      (tagged cell a, destination cell k) that holds an entry, in (a, k)
      order. Where every partner b >= a of a cell a < n - 1 has bitwise the
      same law at every lambda node, row (a, k) stores the partners b < a
      in their columns and N[k, (a, a)], which stands for each b >= a, in
      column n + a alone. Other rows leave the suffix columns empty. A
      row's columns are stored as runs of consecutive columns, and the
      per-entry ``indices`` are derived only when read. dm/dt
      and the mobility are then ``gain.product(m)``, the operator's only
      product. G sends the pair's mass to the cells where the tagged agent
      lands: each delta atom splits the agent's post-wealth between the
      two grid points bracketing it. L[a, (a, b)] = 1 removes the agent
      from its source cell. A pair's entries sum to zero to rounding; for a
      pair that transfers nothing the tagged agent's entries cancel the -1
      exactly and the pair stores nothing.
    - ``abs_delta`` is the per-pair expected |delta|, the mobility
      integrand, a dense n x n array indexed [a, b]: derived from ``gain``
      when first read, as sum_k |c_k - c_a| N[k, (a, b)]. The integrator
      and the CLI never read it.
    - ``trunc_coef`` is the wealth lost past the top cell per unit pair mass
      and time, tau_ab, a ``PairRows`` with one row (a, a) per cell a whose
      pairs truncate, each holding those partners b in column b: the
      kernel's one record of truncation. Its product at m holds
      m_a sum_b tau_ab m_b in cell a.
    - ``centers`` is ``gain.centers``, the kernel's one frozen array of
      grid points; ValueError where ``trunc_coef`` was made on another.

    The build forms the atoms one lambda node and one block of tagged cells
    at a time and keeps none of them. The partner's post-wealth needs no
    encoding of its own: the outcome of the partner in pair (a, b) is the
    tagged outcome of pair (b, a), which the ordered double sum already
    covers.
    """

    def __init__(self, rule: RuleSpec, gain: PairRows, trunc_coef: PairRows):
        if trunc_coef.centers is not gain.centers:
            raise ValueError("gain and trunc_coef were made on other grid points")
        self.rule = rule
        self.centers = gain.centers
        self.cells = gain.cells
        self.gain = gain
        self.trunc_coef = trunc_coef

    @cached_property
    def abs_delta(self) -> np.ndarray:
        c, gain = self.centers, self.gain
        return _pair_sums(gain, np.abs(c[gain.row_k] - c[gain.row_a]))


def _append(buf: np.ndarray, part: np.ndarray) -> None:
    """Grow ``buf`` in place by exactly ``part``, which it then ends with."""
    start = buf.size
    buf.resize(start + part.size, refcheck=False)
    buf[start:] = part


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """Where each run of equal values of the sorted ``ordered`` starts."""
    starts = np.ones(ordered.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    return np.flatnonzero(starts)


def _block_entries(rule, nodes, c, a0, a1, trunc):
    """Summed entries of the pair rows (a, k), a0 <= a < a1, of N.

    Returns (key, value) of every non-zero entry in (a, k, column) order,
    with key ((a - a0) * n + k) * 2n + column. The law of each lambda node
    is evaluated once. Over it the suffix cells are found first: each
    a < n - 1 whose three law arrays, at every node, are bitwise equal over
    the partners b >= a to their value at b = a. All those pairs have the
    same entries, so a suffix cell forms only its pairs b < a, in columns
    b, and pair (a, a), in column n + a, which stands for every b >= a; any
    other cell forms its pairs in columns b. Then one node loop adds the
    truncation, the winner's overshoot past the top point, to ``trunc``
    (rows a0..a1 only), and forms the atoms. Each entry sums its
    contributions in one order: per node, the winner's atom then the
    loser's, each at its lower point then its upper one, and the loss -1
    last; a stable sort of the keys keeps that order and ``np.add.reduceat``
    sums each run of equal keys. Every pair lies in one block, so the sums
    do not depend on the block size.
    """
    n = c.size
    width = 2 * n
    ca = c[a0:a1, None]
    cells = np.arange(a0, a1)
    laws = [two_point_law(rule, ca, c[None, :], lam) for lam, _ in nodes]
    upper = np.arange(n) >= cells[:, None]  # the partners b >= a
    suffix = cells < n - 1  # a suffix of one pair saves nothing
    for x in (x for law in laws for x in law):
        if not suffix.any():  # no candidate left to compare
            break
        x = x.view(np.int64)
        suffix &= ~np.any((x != x[:, a0:a1].diagonal()[:, None]) & upper, axis=1)
    formed = ~(upper & suffix[:, None])
    del upper
    shift = np.flatnonzero(suffix)
    formed[shift, shift + a0] = True
    key_type = np.int32 if (a1 - a0) * n * width <= np.iinfo(np.int32).max else np.int64
    # each pair's key at destination k = 0
    pair_key = np.add.outer(np.arange(a1 - a0, dtype=key_type) * (n * width),
                            np.arange(n, dtype=key_type))
    pair_key[shift, shift + a0] += n
    del shift
    pairs = np.count_nonzero(formed)
    # room for both points of each node's two atoms, and the loss
    key = np.empty((4 * len(nodes) + 1) * pairs, dtype=key_type)
    val = np.empty(key.size)
    end = 0
    for (_, wnode), (d_plus, p_plus, d_minus) in zip(nodes, laws):
        p_win = p_plus * wnode
        trunc += p_win * np.maximum(ca + d_plus - c[-1], 0.0)  # d_minus <= 0 never passes
        for d, p in ((d_plus, p_win), (d_minus, (1.0 - p_plus) * wnode)):
            q = np.flatnonzero(formed & (p != 0.0))  # the atom's pairs (a - a0) * n + b
            p = p.ravel()[q]
            lo, hi, w_lo = _split_points(c, (ca + d).ravel()[q])
            q = pair_key.ravel()[q]
            for k, w in ((lo, p * w_lo), (hi, p * (1.0 - w_lo))):
                np.add(k * width, q, out=key[end:end + q.size], casting="unsafe")
                val[end:end + q.size] = w
                end += q.size
            del p, q, lo, hi, w_lo, k, w  # before the next atom's split
    del laws, d_plus, p_plus, d_minus, p_win, d
    # the loss entry of pair (a, b) sits in row (a, a)
    pair_key += (cells.astype(key_type) * width)[:, None]
    key[end:end + pairs] = pair_key[formed]
    val[end:end + pairs] = -1.0
    end += pairs
    del pair_key, formed
    order = np.argsort(key[:end], kind="stable")
    key = key[order]
    val = val[order]
    del order
    first = _run_starts(key)
    val = np.add.reduceat(val, first)
    key = key[first]
    del first
    keep = val != 0.0
    return key[keep], val[keep]


def build_kernel(rule: RuleSpec, grid: WealthGrid) -> DiscreteKernel:
    """Discretize the rule's transfer kernel on the grid.

    The tagged cells a are taken in blocks of consecutive cells, each as
    large as lets its temporaries fit ``BLOCK_BYTES`` (one cell at least).
    Per block, ``two_point_law`` is evaluated once per node of the rule's
    lambda mixture on the block's pairs ``c[a0:a1, None], c[None, :]`` and
    kept: the suffix cells are found over those arrays first, then one loop
    over the nodes sums the truncation and forms the atoms of the pairs
    ``gain`` stores. Each of the node's two delta atoms maps the tagged
    agent's post-exchange wealth to grid cells by the mean-exact two-point
    split, so per-pair normalization is exact and the represented expected
    gain is zero to rounding error for the unbiased rules.
    Post-wealths above the top representative point are assigned to the top
    cell; the resulting wealth loss is tracked by the integrator and flags
    the run non-conservative beyond 1e-8 relative. A block's summed entries,
    a run of whole pair rows of ``gain``, and its offsets are appended to
    arrays the kernel owns, which grow by exactly that run; no block's
    entries outlive it.
    """
    c = grid.centers.copy()
    n = c.size
    nodes = _lambda_mixture(rule)
    # Temporaries per pair of a block: per contribution (both points of each
    # of a node's two atoms, and the loss) a 4-byte key and a value, and as
    # much again to sort them, the three law arrays of each node (24 bytes),
    # plus about 16 floats while an atom is split, and the pair's key at
    # k = 0, its masks and its loss key (24 bytes).
    pair_bytes = 28 * (4 * len(nodes) + 1) + 24 * len(nodes) + 8 * 16 + 24
    step = max(1, BLOCK_BYTES // (pair_bytes * n))
    gain = _new_rows()
    # Wealth lost by the evolved density per unit (pair-mass * time), the
    # tagged agent's overshoot alone (the partner's outcome of pair (a, b)
    # is the tagged outcome of pair (b, a)), stored in rows (a, a).
    trunc_coef = _new_rows()
    for a0 in range(0, n, step):
        a1 = min(a0 + step, n)
        trunc = np.zeros((a1 - a0, n))
        key, val = _block_entries(rule, nodes, c, a0, a1, trunc)
        rows = key // (2 * n)  # (a - a0) * n + k
        key -= rows * (2 * n)
        _append_rows(gain, rows, key, val, a0, n)
        del rows, key, val
        a, b = np.nonzero(trunc)  # a - a0: row (a, a) is (a - a0) * (n + 1) + a0
        _append_rows(trunc_coef, a * (n + 1) + a0, b, trunc[a, b], a0, n)
        del trunc, a, b

    gain = PairRows(*gain, c)
    trunc_coef = PairRows(*trunc_coef, c)
    if trunc_coef.nnz:
        log.debug("kernel truncates wealth at the top cell for %d of %d pairs",
                  trunc_coef.nnz, n * n)
    return DiscreteKernel(rule, gain, trunc_coef)


def _new_rows() -> list[np.ndarray]:
    """Growing arrays of a ``PairRows`` of no rows: data, run_col,
    run_start, row_runs, row_a and row_k."""
    return [np.empty(0)] + [np.zeros(x, dtype=np.int32) for x in (0, 1, 1, 0, 0)]


def _column_runs(indptr: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, ...]:
    """``PairRows``' int32 (run_col, run_start, row_runs) of the columns
    ``cols`` of rows whose entries start at ``indptr``, rows + 1 items: a
    run starts at each row's first entry and wherever a column is not the
    previous column + 1."""
    starts = np.ones(cols.size, dtype=bool)
    np.not_equal(cols[1:], cols[:-1] + 1, out=starts[1:])
    starts[indptr[:-1][np.diff(indptr) > 0]] = True
    starts = np.flatnonzero(starts)
    return tuple(x.astype(np.int32) for x in (
        cols[starts], np.append(starts, cols.size), np.searchsorted(starts, indptr)))


def _append_rows(parts, rows, cols, vals, a0, n) -> None:
    """Append to the arrays ``parts`` of ``_new_rows`` the entries ``vals`` in
    columns ``cols`` of the pair rows ``rows`` = (a - a0) * n + k, given in
    (row, column) order."""
    data, run_col, run_start, row_runs, row_a, row_k = parts
    _append(data, vals)
    first = _run_starts(rows)
    cols, starts, runs = _column_runs(np.append(first, rows.size), cols)
    _append(run_col, cols)
    # the block's offsets after its first, past the entries and runs before it
    _append(run_start, starts[1:] + run_start[-1])
    _append(row_runs, runs[1:] + row_runs[-1])
    rows = rows[first]
    _append(row_a, rows // n + a0)
    _append(row_k, rows % n)


def _pair_sums(gain: PairRows, row_weights: np.ndarray) -> np.ndarray:
    """The n x n [a, b] sums of ``gain``'s entries, each times its row's
    ``row_weights``, over each pair: by (a, column), then suffix column
    n + a added to each b >= a; a column without entries adds 0.0."""
    n = gain.cells
    per_row = np.diff(gain.indptr)
    pair = np.repeat(gain.row_a * np.int64(2 * n), per_row) + gain.indices
    weights = gain.data * np.repeat(row_weights, per_row)
    sums = np.bincount(pair, weights=weights, minlength=2 * n * n).reshape(n, 2 * n)
    a = np.arange(n)
    return sums[:, :n] + np.triu(np.broadcast_to(sums[a, n + a][:, None], (n, n)))


@dataclass
class KernelCheckReport:
    """Exhaustive per-pair normalization and bias audit of a kernel's N."""

    max_norm_error: float
    max_bias: float
    max_bias_rel: float
    passed: bool
    norm_error: np.ndarray
    bias: np.ndarray
    truncated_pairs: int

    NORM_TOL = 1e-12
    BIAS_REL_TOL = 1e-10


def check_kernel(kernel: DiscreteKernel) -> KernelCheckReport:
    """Audit the net gain operator N that the integrator uses, pair by pair.

    Pair (a, b)'s entries of N, column b of the pair rows (a, k) or, for
    b >= a, suffix column n + a, hold the pair's atoms split onto the grid
    minus one unit at c_a, so their sum is the pair's normalization error
    and their first moment sum_k c_k N[k, (a, b)] is the represented
    expected gain (the bias). Both are ``_pair_sums``, as
    ``DiscreteKernel.abs_delta`` is: formed per stored column, the suffix
    column's sums expanded over its pairs b >= a, so the reports are n x n
    as for the pairs stored one by one; of those pairs, (a, a) has the
    smallest bias scale, so the gate is no looser. Passes
    iff every pair is normalized within 1e-12 and, for unbiased rules, the
    bias is within 1e-10 * (x_k + x_k') of zero on every pair whose
    post-wealths fit the grid. Pairs truncated at the top cell are
    necessarily biased; they are excluded from the pass gate, counted in the
    report, and their wealth loss is tracked by the integrator. The classic
    loser rule reports its bias but is exempt from the bias gate.
    """
    c = kernel.centers
    gain = kernel.gain
    norm_error = np.abs(_pair_sums(gain, np.ones(gain.shape[0])))
    bias = _pair_sums(gain, c[gain.row_k])
    scale = np.maximum(c[:, None] + c[None, :], 1e-300)
    bias_rel = np.abs(bias) / scale
    passed = bool(norm_error.max() <= KernelCheckReport.NORM_TOL)
    trunc = kernel.trunc_coef
    if kernel.rule.unbiased:
        gated = bias_rel.copy()
        gated[np.repeat(trunc.row_a, np.diff(trunc.indptr)), trunc.indices] = 0.0
        passed = passed and float(gated.max()) <= KernelCheckReport.BIAS_REL_TOL
    return KernelCheckReport(
        max_norm_error=float(norm_error.max()),
        max_bias=float(np.abs(bias).max()),
        max_bias_rel=float(bias_rel.max()),
        passed=passed,
        norm_error=norm_error,
        bias=bias,
        truncated_pairs=trunc.nnz,
    )


def rhs(grid: WealthGrid, kernel: DiscreteKernel) -> np.ndarray:
    """Gain-minus-loss bilinear form: dm_k/dt over all cells.

    dm_k/dt = sum_(a, b) N[k, (a, b)] m_a m_b for the net gain operator
    N = G - L. On the pair rows of ``gain`` that is one sparse product
    (Nt [m; S])_(a, k) = sum_b N[k, (a, b)] m_b, where a suffix column
    n + a multiplies S_a = sum_{b >= a} m_b (one reversed cumulative sum),
    weighted by m_a and summed over the rows of each k in (a, k) order. Each
    pair's gain and loss are summed into the same entries of N, so a pair
    that moves no wealth contributes exactly nothing and zero wealth is
    exactly absorbing (S_a of a > 0 holds no m_0). Total mass of the result
    is zero to rounding (per-pair probabilities and split weights both sum
    to one) and total wealth is zero within 1e-12 relative for unbiased
    kernels (mean-exact splitting).
    """
    return _rhs_masses(kernel, grid.masses)[0]


def _with_suffix_sums(m: np.ndarray) -> np.ndarray:
    """[m; S] with S_a = sum_{b >= a} m_b: what a ``PairRows`` multiplies."""
    return np.concatenate((m, np.cumsum(m[::-1])[::-1]))


def _rhs_masses(kernel: DiscreteKernel, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(``rhs``, mobility l_a = sum_b E|delta|(a, b) m_b) at the C-contiguous
    float64 masses ``m``: ``gain``'s product."""
    return kernel.gain.product(m)


def _trunc_rate(kernel: DiscreteKernel, m: np.ndarray) -> float:
    """Wealth lost past the top cell per unit time at masses ``m``,
    sum_a m_a sum_b tau_ab m_b: the sum of ``trunc_coef``'s product."""
    return float(kernel.trunc_coef.product(m)[0].sum())


def gini_rate(grid: WealthGrid, kernel: DiscreteKernel) -> float:
    """dG/dt: the triple sum of the Gini evolution functional.

    With phi(y) = sum_k m_k |y - c_k| the functional is
    sum_e prob_e m_a m_b [phi(post_e) - phi(c_a)] / M1 over the delta atoms e
    of every ordered pair (a, b), post_e being the tagged agent's represented
    post-wealth. phi is linear between neighbouring grid points, and the
    mean-exact split sends weights w and 1 - w to the two points bracketing
    post_e with post_e as their weighted mean, so
    phi(post_e) = w phi(c_lo) + (1 - w) phi(c_hi) exactly. The atom sum of a
    pair is therefore sum_k G[k, (a, b)] phi(c_k), the loss term phi(c_a) is
    sum_k L[k, (a, b)] phi(c_k), and the functional is
    sum_k phi(c_k) sum_(a, b) N[k, (a, b)] m_a m_b / M1 = phi_c . (dm/dt) / M1
    in exact arithmetic.
    It is the time derivative of the grid Gini
    sum_jk m_j m_k |c_j - c_k| / (2 M1), whose numerator changes at
    2 phi_c . dm/dt while M1 stays fixed (up to tracked truncation).
    Because N cancels gain against loss inside each pair's entries, a pair
    that moves no wealth (any pair with a member at zero) adds exactly
    nothing, so the dominant zero-cell mass of a condensing state leaves
    no rounding residue. The dot product is taken with the shifted
    phi' = phi_c - M1 - (2 m_0 - M0) c, which is small where the mass sits
    at zero, and the shift is added back exactly: dm/dt conserves mass and
    loses wealth only at the truncation rate, so phi_c . dm/dt =
    phi' . dm/dt - (2 m_0 - M0) * trunc_rate. Non-negative for unbiased
    kernels up to rounding error. Raises ValueError when the mean wealth is
    zero.
    """
    if grid.mean <= 0.0:
        raise ValueError("degenerate: zero mean wealth")
    m = grid.masses
    return _gini_rate_masses(kernel, m, rhs(grid, kernel), _trunc_rate(kernel, m))


def _gini_rate_masses(
    kernel: DiscreteKernel, m: np.ndarray, r: np.ndarray, trunc_rate: float
) -> float:
    """``gini_rate`` of masses ``m`` whose right-hand side is ``r`` and
    whose truncation rate is ``trunc_rate``, from one pass of
    ``_grid_sums``."""
    mass, mean, _, phi_r = _grid_sums(m, kernel.centers, r)
    return (phi_r - (2.0 * float(m[0]) - mass) * trunc_rate) / mean


def _weighted_gini(m: np.ndarray, c: np.ndarray) -> tuple[float, float]:
    """(``metrics.gini_grid``, M1) of masses ``m`` at the sorted points
    ``c`` without its checks, from one pass of ``_grid_sums``: the
    integrator's Gini and mean of every candidate state, M1 in index order.
    All mass at zero wealth has Gini 0."""
    sums = _grid_sums(m, c, None)
    return _gini_of_sums(sums), sums[1]


def _grid_sums(m: np.ndarray, c: np.ndarray, r: np.ndarray | None) -> tuple:
    """``metrics._gini_sums`` of C-contiguous float64 arrays: ``_sweep.c``'s
    ``gini_sums``, or numpy's cumulative sums where the module does not
    load. Both sum in index order from the first term, so they give the
    same bits."""
    module = _load()
    return _gini_sums(m, c, r) if module is None else module.gini_sums(m, c, r)


def _mobility_ratios(m: np.ndarray, l: np.ndarray, two_mean: float) -> tuple[float, float]:
    """(liquidity, bound ratio) of masses ``m`` with mobility ``l``: the
    mass-weighted mobility, summed by numpy's pairwise sum, and the largest
    mobility max_k l(x_k), each over ``two_mean`` = 2 <x>."""
    return float((m * l).sum()) / two_mean, float(l.max()) / two_mean


def mobility_bound_check(grid: WealthGrid, kernel: DiscreteKernel) -> float:
    """max_k l(x_k) / (2 <x>) from kernel atoms; <= 1 for unbiased kernels.
    Raises ValueError when the mean wealth is zero."""
    if grid.mean <= 0.0:
        raise ValueError("degenerate: zero mean wealth")
    l = _rhs_masses(kernel, grid.masses)[1]
    return _mobility_ratios(grid.masses, l, 2.0 * grid.mean)[1]


class IntegrationAbort(RuntimeError):
    """Raised when a per-step invariant breach exceeds its tolerance."""

    def __init__(self, message: str, report: "IntegrationReport"):
        super().__init__(message)
        self.report = report


@dataclass
class IntegrationReport:
    """Per-step integration diagnostics plus run-level flags.

    One row per accepted step; ``COLUMNS`` names the per-step columns in
    field order, the CLI's CSV order. ``positivity_halvings`` counts the
    step halvings taken to keep every cell mass non-negative. A run that
    aborts carries the report of the steps accepted before the breach.
    """

    COLUMNS: ClassVar[tuple[str, ...]] = (
        "t", "dt", "gini", "gini_rate", "liquidity", "bound_ratio",
        "mass_drift", "mean_drift",
    )

    t: np.ndarray = field(default_factory=lambda: np.empty(0))
    dt: np.ndarray = field(default_factory=lambda: np.empty(0))
    gini: np.ndarray = field(default_factory=lambda: np.empty(0))
    gini_rate: np.ndarray = field(default_factory=lambda: np.empty(0))
    liquidity: np.ndarray = field(default_factory=lambda: np.empty(0))
    bound_ratio: np.ndarray = field(default_factory=lambda: np.empty(0))
    mass_drift: np.ndarray = field(default_factory=lambda: np.empty(0))
    mean_drift: np.ndarray = field(default_factory=lambda: np.empty(0))
    truncated_wealth: float = 0.0
    non_conservative: bool = False
    stopped_early: bool = False
    steps: int = 0
    positivity_halvings: int = 0


def integrate(
    grid: WealthGrid,
    kernel: DiscreteKernel,
    dt: float,
    t_end: float,
    stop_gini: float | None = None,
    stop_liquidity: float | None = None,
    snapshot_every: int = 0,
) -> tuple[list[tuple[float, WealthGrid]], IntegrationReport]:
    """Explicit Euler integration of the master equation.

    ``dt`` is the maximum step. The step taken is also capped so at most
    10% of total mass moves in it, and halved until no cell mass goes
    negative. Each step is then audited, and a breach raises
    ``IntegrationAbort`` with the report of the steps before it: a mass
    drift beyond 1e-12 or a mean drift beyond 1e-10 relative (net of the
    tracked top-cell truncation) in one step, a Gini decrease beyond 1e-12
    in one step of an unbiased rule (the classic loser rule is exempt), or
    more than ``MAX_STEPS`` steps. Snapshots of the grid are returned at
    the start, the end, and every ``snapshot_every`` accepted steps if
    positive.

    When both stop thresholds are given, integration stops early once
    G >= stop_gini and L <= stop_liquidity; a single given threshold stops
    on its own condition.
    """
    if not (0.0 < dt < math.inf and 0.0 < t_end < math.inf):
        raise ValueError("dt and t_end must be positive and finite")
    if not all(v is None or 0.0 <= v < math.inf for v in (stop_gini, stop_liquidity)):
        raise ValueError("stop thresholds must be finite and >= 0")
    if snapshot_every < 0:
        raise ValueError("snapshot_every must be >= 0")
    c = kernel.centers
    if c.shape != grid.centers.shape or not np.array_equal(c, grid.centers):
        raise ValueError("kernel was built for a different grid")
    m = grid.masses.copy()
    mass0 = math.fsum(m)
    # M1 in index order: a BLAS dot's order depends on the CPU
    g_prev, mean0 = _weighted_gini(m, c)
    if not mean0 > 0.0:
        raise ValueError("degenerate: zero mean wealth")
    two_mean0 = 2.0 * mean0

    report = IntegrationReport()
    rows: list[tuple[float, ...]] = []
    snapshots: list[tuple[float, WealthGrid]] = [(0.0, grid.with_masses(m))]
    t = 0.0
    cum_trunc = 0.0
    trunc_warned = False
    mass_prev = mass0
    mean_prev = mean0
    stop_hit = False
    step_no = 0
    r, _ = _rhs_masses(kernel, m)  # then one per state a step reaches

    # every exit, an abort included, fills the report in the finally block
    try:
        while t < t_end and not stop_hit:
            if step_no >= MAX_STEPS:
                raise IntegrationAbort(f"step budget {MAX_STEPS} exceeded", report)
            step_no += 1

            trunc_rate = _trunc_rate(kernel, m)
            rate = _gini_rate_masses(kernel, m, r, trunc_rate)

            norm1 = float(np.abs(r).sum())
            dt_eff = min(dt, t_end - t)
            if norm1 > 0.0:
                dt_eff = min(dt_eff, STEP_MASS_FRACTION * m.sum() / norm1)

            candidate = m + dt_eff * r
            if candidate.min() < 0.0:
                for _ in range(100):
                    dt_eff *= 0.5
                    report.positivity_halvings += 1
                    candidate = m + dt_eff * r
                    if candidate.min() >= 0.0:
                        break
                else:
                    raise IntegrationAbort("positivity unreachable by halving", report)

            g_new, mean = _weighted_gini(candidate, c)
            # Gini is a Lyapunov function only for unbiased kernels; a NaN
            # Gini fails the check
            if kernel.rule.unbiased and not g_new >= g_prev - GINI_DECREASE_TOL:
                raise IntegrationAbort(
                    f"Gini decrease {float(g_new - g_prev)!r} at t={float(t)!r} "
                    f"with dt={float(dt_eff)!r}",
                    report,
                )

            m = candidate
            t += dt_eff
            step_trunc = dt_eff * trunc_rate
            cum_trunc += step_trunc
            if not trunc_warned and cum_trunc > 0.5 * TRUNCATION_TOL * mean0:
                trunc_warned = True
                log.warning(
                    "truncated wealth %.3e at t=%.6g has passed half the "
                    "non-conservative threshold %.1e of the initial mean",
                    cum_trunc / mean0,
                    t,
                    TRUNCATION_TOL,
                )

            mass = math.fsum(m.tolist())
            # written so that a NaN fails them, as a breach
            if not abs(mass - mass_prev) <= STEP_MASS_TOL:
                raise IntegrationAbort(
                    f"mass drift {mass - mass_prev!r} in one step at t={float(t)!r}",
                    report,
                )
            if not abs(mean - mean_prev + step_trunc) <= STEP_MEAN_TOL * mean0:
                raise IntegrationAbort(
                    f"unexplained mean drift {mean - mean_prev!r} at t={float(t)!r}",
                    report,
                )

            # the next step's dm/dt, and the mobility of this step's row
            r, l = _rhs_masses(kernel, m)
            liquidity, bound_ratio = _mobility_ratios(m, l, two_mean0)
            drifts = ((mass - mass0) / mass0, (mean - mean0) / mean0)
            rows.append((t, dt_eff, g_new, rate, liquidity, bound_ratio, *drifts))
            if snapshot_every and step_no % snapshot_every == 0:
                snapshots.append((t, grid.with_masses(m)))

            g_prev = g_new
            mass_prev = mass
            mean_prev = mean
            stop_hit = (
                (stop_gini is not None or stop_liquidity is not None)
                and (stop_gini is None or g_new >= stop_gini)
                and (stop_liquidity is None or liquidity <= stop_liquidity)
            )
    finally:
        columns = np.array(rows).reshape(-1, len(IntegrationReport.COLUMNS)).T
        for name, column in zip(IntegrationReport.COLUMNS, columns):
            setattr(report, name, column)
        report.steps = len(rows)
        report.truncated_wealth = cum_trunc
        report.non_conservative = cum_trunc > TRUNCATION_TOL * mean0
        report.stopped_early = stop_hit

    snapshots.append((t, grid.with_masses(m)))
    return snapshots, report
