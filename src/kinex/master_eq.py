"""Thermodynamic-limit dynamics of binary wealth exchange on a wealth grid.

The transfer kernel of each rule is discretized per ordered cell pair: each
delta atom maps the tagged agent's post-exchange wealth onto the grid by
conservative two-point splitting (mass is shared between the two
representative points bracketing a post-wealth so that both the split's
total mass and its total wealth are exact). Normalization and zero expected
gain therefore survive discretization to rounding error, which is what makes
the monotone-Gini and condensation statements hold for the discrete system
as well. Gain and loss of every pair are stored together in one net gain
operator, so a single sparse product gives dm/dt, and the Gini rate is a dot
product with it.

Time stepping is explicit Euler. The step is capped so at most 10% of
total mass moves per step and halved whenever a cell mass would go
negative. For an unbiased rule every step is then audited: the Gini index
is a Lyapunov function of the dynamics, so a decrease aborts the run
instead of being stepped around.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .core import RuleKind, RuleSpec, WealthGrid
from .metrics import _weighted_gini
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

    Returns (lo, hi, w_lo, overshoot): mass w_lo goes to centers[lo] and
    1 - w_lo to centers[hi], with w_lo*c_lo + (1-w_lo)*c_hi equal to the
    post-wealth exactly. Post-wealths above the top point are assigned to
    the top cell; the lost wealth per unit mass is returned as overshoot.
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
    overshoot = np.where(over, post - centers[-1], 0.0)
    return lo.astype(np.int64, copy=False), hi.astype(np.int64, copy=False), w_lo, overshoot


def _mean_correct(masses: np.ndarray, centers: np.ndarray, target: float) -> None:
    """Shift mass between one cell below and one above the target mean so the
    first moment equals ``target`` exactly, without changing total mass."""
    current = float(np.dot(masses, centers))
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
    lo, hi, w, _ = _split_points(centers, np.array([x]))
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
    # take a few ulps
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


class DiscreteKernel:
    """Discretized transfer kernel on a wealth grid: what the integrator reads.

    - ``gain`` is the net gain operator N = G - L (sparse, cells x cells^2).
      G sends the outer product of masses to the cells where the tagged
      agent lands: each delta atom of pair (a, b) splits the agent's
      post-wealth between the two grid points bracketing it.
      L[a, (a, b)] = 1 removes the agent from its source cell, so
      ``gain @ vec(m m^T)`` is dm/dt. A pair's column sums to zero to
      rounding; for a pair that transfers nothing the tagged agent's
      entries cancel the -1 exactly and the column stores nothing.
    - ``abs_delta`` is the per-pair expected |delta|, the mobility
      integrand.
    - ``trunc_coef`` is the wealth lost past the top cell per unit pair mass
      and time; ``truncated_pairs`` marks the pairs where it is positive.

    The per-atom arrays the build works from are not kept. The partner's
    post-wealth needs no encoding of its own: the outcome of the partner in
    pair (a, b) is the tagged outcome of pair (b, a), which the ordered
    double sum already covers.
    """

    def __init__(
        self, rule: RuleSpec, centers: np.ndarray, gain, abs_delta, trunc_coef
    ):
        self.rule = rule
        self.centers = centers
        self.cells = centers.size
        self.gain = gain
        self.abs_delta = abs_delta
        self.trunc_coef = trunc_coef
        self.truncated_pairs = trunc_coef > 0.0
        self.has_truncation = bool(self.truncated_pairs.any())


def _rule_atoms(rule: RuleSpec, ca: np.ndarray, cb: np.ndarray):
    """Delta atoms for all ordered pairs: list of (delta, prob) array pairs,
    the rule's ``two_point_law`` at every node of its lambda mixture."""
    atoms = []
    for lam, wnode in _lambda_mixture(rule):
        d_plus, p_plus, d_minus = two_point_law(rule, ca, cb, lam)
        atoms.append((d_plus, p_plus * wnode))
        atoms.append((d_minus, (1.0 - p_plus) * wnode))
    return atoms


def build_kernel(rule: RuleSpec, grid: WealthGrid) -> DiscreteKernel:
    """Discretize the rule's transfer kernel on the grid.

    Each delta atom of each ordered cell pair maps the tagged agent's
    post-exchange wealth to grid cells by the mean-exact two-point split, so
    per-pair normalization is exact and the represented expected gain is
    zero to rounding error for the unbiased rules. Post-wealths above the top
    representative point are assigned to the top cell; the resulting wealth
    loss is tracked by the integrator and flags the run non-conservative
    beyond 1e-8 relative.
    """
    # imported here, not at module level, so that a process that builds no
    # kernel (every Monte Carlo command) never loads scipy
    import scipy.sparse as sparse

    c = grid.centers.copy()
    n = c.size
    # before the per-atom arrays exist, so its temporaries add no peak memory
    abs_delta = _abs_delta(rule, c)
    pair_a, pair_b, delta, prob = _pair_atoms(rule, c)
    lo, hi, w_lo, over = _split_points(c, c[pair_a] + delta)
    del delta

    # Wealth lost by the evolved density per unit (pair-mass * time).
    # Only the tagged agent's overshoot counts: the gain operator uses
    # agent-1 destinations alone (agent-2 outcomes of pair (a, b) are
    # agent-1 outcomes of pair (b, a), which the ordered double sum
    # already covers).
    trunc_coef = np.zeros((n, n))
    trunc = prob * over
    if np.any(trunc > 0.0):
        np.add.at(trunc_coef, (pair_a, pair_b), trunc)
    del trunc, over

    # COO triplets of G (both split points of each atom) and -L (one per
    # pair); the CSR conversion sums them and zeros are dropped after.
    # 32-bit indices are what scipy keeps for this shape (cells^2 stays
    # below 2^31 on any grid whose per-pair arrays fit in memory), so it
    # needs no converted copy, and every per-atom array is dropped as soon
    # as it is used: both keep the build's peak memory down.
    pair_q = pair_a * n + pair_b
    del pair_a, pair_b
    rows = np.concatenate([lo, hi, np.repeat(np.arange(n), n)], dtype=np.int32)
    del lo, hi
    cols = np.concatenate([pair_q, pair_q, np.arange(n * n)], dtype=np.int32)
    del pair_q
    vals = np.concatenate([prob * w_lo, prob * (1.0 - w_lo), np.full(n * n, -1.0)])
    del prob, w_lo
    gain = sparse.csr_matrix((vals, (rows, cols)), shape=(n, n * n))
    del rows, cols, vals
    gain.eliminate_zeros()

    kernel = DiscreteKernel(rule, c, gain, abs_delta, trunc_coef)
    if kernel.has_truncation:
        log.debug(
            "kernel truncates wealth at the top cell for %d of %d pairs",
            int(kernel.truncated_pairs.sum()),
            n * n,
        )
    return kernel


def _abs_delta(rule: RuleSpec, c: np.ndarray) -> np.ndarray:
    """Per-pair expected |delta| on the grid, the mobility integrand.

    The winner's gain is the one truncated at the top cell, as in ``gain``.
    For an unbiased rule the loser's atom carries the winner's |delta| mass,
    (1 - p_plus) |d_minus| = p_plus d_plus, and is taken from the winner:
    1 - p_plus cancels at extreme wealth ratios of the unbiased loser rule.
    For the other rules this sums the same products in the same order as
    the per-atom sum p |delta| over the kernel's atoms.
    """
    ca = c[:, None]
    room = c[-1] - ca
    out = np.zeros((c.size, c.size))
    for lam, wnode in _lambda_mixture(rule):
        d_plus, p_plus, d_minus = two_point_law(rule, ca, c[None, :], lam)
        p_win = p_plus * wnode
        out += p_win * np.abs(np.where(ca + d_plus > c[-1], room, d_plus))
        if rule.unbiased:
            out += p_win * d_plus
        else:
            out += ((1.0 - p_plus) * wnode) * np.abs(d_minus)
    return out


def _pair_atoms(rule: RuleSpec, c: np.ndarray) -> list[np.ndarray]:
    """(pair_a, pair_b, delta, prob) of every atom with non-zero probability,
    over all ordered cell pairs."""
    n = c.size
    pair_a = np.repeat(np.arange(n, dtype=np.int64), n)
    pair_b = np.tile(np.arange(n, dtype=np.int64), n)
    parts = []
    for d, p in _rule_atoms(rule, c[pair_a], c[pair_b]):
        keep = p != 0.0
        parts.append((pair_a[keep], pair_b[keep], d[keep], p[keep]))
    return [np.concatenate(column) for column in zip(*parts)]


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

    Column (a, b) of N holds the pair's atoms split onto the grid minus one
    unit at c_a, so its sum 1^T N is the pair's normalization error and its
    first moment c^T N is the represented expected gain (the bias). Passes
    iff every pair is normalized within 1e-12 and, for unbiased rules, the
    bias is within 1e-10 * (x_k + x_k') of zero on every pair whose
    post-wealths fit the grid. Pairs truncated at the top cell are
    necessarily biased; they are excluded from the pass gate, counted in the
    report, and their wealth loss is tracked by the integrator. The classic
    loser rule reports its bias but is exempt from the bias gate.
    """
    n = kernel.cells
    c = kernel.centers
    norm_error = np.abs(np.ones(n) @ kernel.gain).reshape(n, n)
    bias = (c @ kernel.gain).reshape(n, n)
    scale = np.maximum(c[:, None] + c[None, :], 1e-300)
    bias_rel = np.abs(bias) / scale
    passed = bool(norm_error.max() <= KernelCheckReport.NORM_TOL)
    if kernel.rule.unbiased:
        faithful = bias_rel[~kernel.truncated_pairs]
        worst = float(faithful.max()) if faithful.size else 0.0
        passed = passed and worst <= KernelCheckReport.BIAS_REL_TOL
    return KernelCheckReport(
        max_norm_error=float(norm_error.max()),
        max_bias=float(np.abs(bias).max()),
        max_bias_rel=float(bias_rel.max()),
        passed=passed,
        norm_error=norm_error,
        bias=bias,
        truncated_pairs=int(kernel.truncated_pairs.sum()),
    )


def rhs(grid: WealthGrid, kernel: DiscreteKernel) -> np.ndarray:
    """Gain-minus-loss bilinear form: dm_k/dt over all cells.

    One product of the net gain operator N = G - L with vec(m m^T). Each
    pair's gain and loss meet in the same column of N, so a pair that moves
    no wealth contributes exactly nothing and zero wealth is exactly
    absorbing. Total mass of the result is zero to rounding (per-pair
    probabilities and split weights both sum to one) and total wealth is
    zero within 1e-12 relative for unbiased kernels (mean-exact splitting).
    """
    m = grid.masses
    return _rhs_masses(kernel, m, np.empty((m.size, m.size)))


def _rhs_masses(kernel: DiscreteKernel, m: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """dm/dt of masses ``m``; the pair masses m m^T are written into the
    cells x cells buffer ``pairs``, which ``integrate`` allocates once."""
    return kernel.gain @ np.multiply.outer(m, m, out=pairs).ravel()


def gini_rate(grid: WealthGrid, kernel: DiscreteKernel) -> float:
    """dG/dt: the triple sum of the Gini evolution functional.

    With phi(y) = sum_k m_k |y - c_k| the functional is
    sum_e prob_e m_a m_b [phi(post_e) - phi(c_a)] / M1 over the delta atoms e
    of every ordered pair (a, b), post_e being the tagged agent's represented
    post-wealth. phi is linear between neighbouring grid points, and the
    mean-exact split sends weights w and 1 - w to the two points bracketing
    post_e with post_e as their weighted mean, so
    phi(post_e) = w phi(c_lo) + (1 - w) phi(c_hi) exactly. The atom sum of a
    pair is therefore the pair's column of G applied to phi at the grid
    points, the loss term phi(c_a) is its column of L, and the functional is
    phi_c^T N vec(m m^T) / M1 = phi_c . (dm/dt) / M1 in exact arithmetic.
    It is the time derivative of the grid Gini
    sum_jk m_j m_k |c_j - c_k| / (2 M1), whose numerator changes at
    2 phi_c . dm/dt while M1 stays fixed (up to tracked truncation).
    Because N cancels gain against loss inside each pair's column, a pair
    that moves no wealth (any pair with a member at zero) adds exactly
    nothing, so the dominant zero-cell mass of a condensing state leaves
    no rounding residue. Non-negative for unbiased kernels up to rounding
    error. Raises ValueError when the mean wealth is zero.
    """
    if grid.mean <= 0.0:
        raise ValueError("degenerate: zero mean wealth")
    return _gini_rate_masses(kernel, grid.masses, rhs(grid, kernel))


def _gini_rate_masses(kernel: DiscreteKernel, m: np.ndarray, r: np.ndarray) -> float:
    """``gini_rate`` of masses ``m`` whose right-hand side is ``r``."""
    c = kernel.centers
    cum_m = np.cumsum(m)
    cum_mc = np.cumsum(m * c)
    m_tot = cum_m[-1]
    m1_tot = cum_mc[-1]
    phi_c = c * (2.0 * cum_m - m_tot) + (m1_tot - 2.0 * cum_mc)
    return float(np.dot(phi_c, r) / m1_tot)


def _mobility_ratios(
    kernel: DiscreteKernel, m: np.ndarray, two_mean: float
) -> tuple[float, float]:
    """(liquidity, bound ratio) of masses ``m``: the mass-weighted mobility
    and the largest mobility max_k l(x_k), each over ``two_mean`` = 2 <x>."""
    l = kernel.abs_delta @ m
    return float(np.dot(m, l)) / two_mean, float(l.max()) / two_mean


def mobility_bound_check(grid: WealthGrid, kernel: DiscreteKernel) -> float:
    """max_k l(x_k) / (2 <x>) from kernel atoms; <= 1 for unbiased kernels.
    Raises ValueError when the mean wealth is zero."""
    if grid.mean <= 0.0:
        raise ValueError("degenerate: zero mean wealth")
    return _mobility_ratios(kernel, grid.masses, 2.0 * grid.mean)[1]


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
    c = kernel.centers
    if c.shape != grid.centers.shape or not np.array_equal(c, grid.centers):
        raise ValueError("kernel was built for a different grid")
    m = grid.masses.copy()
    pairs = np.empty((m.size, m.size))
    mass0 = math.fsum(m)
    mean0 = float(np.dot(m, c))
    two_mean0 = 2.0 * mean0

    report = IntegrationReport()
    rows: list[tuple[float, ...]] = []
    snapshots: list[tuple[float, WealthGrid]] = [(0.0, grid.with_masses(m))]
    t = 0.0
    cum_trunc = 0.0
    trunc_warned = False
    g_prev = _weighted_gini(m, c)
    mass_prev = mass0
    mean_prev = mean0
    stop_hit = False
    step_no = 0

    # every exit, an abort included, fills the report in the finally block
    try:
        while t < t_end and not stop_hit:
            if step_no >= MAX_STEPS:
                raise IntegrationAbort(f"step budget {MAX_STEPS} exceeded", report)
            step_no += 1

            r = _rhs_masses(kernel, m, pairs)
            rate = _gini_rate_masses(kernel, m, r)
            trunc_rate = float(m @ kernel.trunc_coef @ m) if kernel.has_truncation else 0.0

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

            g_new = _weighted_gini(candidate, c)
            # Gini is a Lyapunov function only for unbiased kernels
            if kernel.rule.unbiased and g_new < g_prev - GINI_DECREASE_TOL:
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

            mass = math.fsum(m)
            mean = float(np.dot(m, c))
            if abs(mass - mass_prev) > STEP_MASS_TOL:
                raise IntegrationAbort(
                    f"mass drift {mass - mass_prev!r} in one step at t={float(t)!r}",
                    report,
                )
            if abs(mean - mean_prev + step_trunc) > STEP_MEAN_TOL * mean0:
                raise IntegrationAbort(
                    f"unexplained mean drift {mean - mean_prev!r} at t={float(t)!r}",
                    report,
                )

            liquidity, bound_ratio = _mobility_ratios(kernel, m, two_mean0)
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
