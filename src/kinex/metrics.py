"""Inequality and mobility measures for populations and gridded densities.

Gini is the normalized mean absolute pairwise wealth difference; mobility
l(x) is the expected |delta| per unit time for an agent at wealth x against
a partner drawn from the density; liquidity L is the density-weighted
mobility over twice the mean wealth. All grid-side quantities are exact
quadratures over cell masses at the representative points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Population, RuleSpec, WealthGrid
from .rules import expected_abs_delta, metrics_lambda

DEFAULT_EPS_ZERO = 1e-9


@dataclass(frozen=True)
class MetricsRecord:
    """Per-recorded-sweep metrics of a finite population."""

    t: float
    gini: float
    liquidity: float
    mean_wealth: float
    top_share: float
    zero_fraction: float


def gini_population(pop: Population) -> float:
    """Gini index of a finite population via the sorted prefix-sum formula.

    Equals (sum_{i,j} |x_i - x_j|) / (2 N^2 <x>). Ties contribute zero and
    the result is independent of the order among tied entries, since equal
    values receive coefficients that sum identically.
    """
    if pop.total <= 0.0:
        raise ValueError("degenerate: zero total wealth")
    x = np.sort(pop.wealth)
    n = x.size
    coef = 2.0 * np.arange(n) - (n - 1)
    return float(np.dot(coef, x) / (n * pop.total))


def gini_population_bruteforce(pop: Population) -> float:
    """O(N^2) double-sum Gini; independent oracle for the sorted formula."""
    if pop.total <= 0.0:
        raise ValueError("degenerate: zero total wealth")
    x = pop.wealth
    n = x.size
    diff = np.abs(x[:, None] - x[None, :])
    mean = pop.total / n
    return float(diff.sum() / (2.0 * n * n * mean))


def _require_normalized(grid: WealthGrid) -> None:
    mass = grid.total_mass()
    if abs(mass - 1.0) > 1e-8:
        raise ValueError(f"grid mass {mass!r} deviates from 1 beyond 1e-08")


def gini_grid(grid: WealthGrid) -> float:
    """Gini index of a gridded density (quadrature over cell masses).

    Reduces to ``gini_population`` when the grid holds point masses: the
    double integral becomes the same double sum over representative points.
    """
    _require_normalized(grid)
    if grid.mean <= 0.0:
        raise ValueError("degenerate: zero mean wealth")
    return _weighted_gini(grid.masses, grid.centers)


def _weighted_gini(m: np.ndarray, c: np.ndarray) -> float:
    """Gini of masses ``m`` at sorted points ``c``, normalized by their mean.

    The unchecked core of ``gini_grid``, which the integrator calls on every
    candidate state; all mass at zero wealth has Gini 0.
    """
    mean = float(np.dot(m, c))
    if mean <= 0.0:
        return 0.0
    # Points are sorted, so sum_{k,k'} m m' |c - c'| folds into prefix sums.
    cum_m = np.concatenate(([0.0], np.cumsum(m)))[:-1]
    cum_mc = np.concatenate(([0.0], np.cumsum(m * c)))[:-1]
    pair_sum = 2.0 * float(np.dot(m, c * cum_m - cum_mc))
    return pair_sum / (2.0 * mean)


def mobility_profile(grid: WealthGrid, rule: RuleSpec) -> np.ndarray:
    """Mobility l(x_k) at every representative point.

    l(x_k) = sum_k' mass(k') * E[|delta|](x_k, x_k'). Rules with random
    lambda use the exact Uniform[0,1] average (lambda -> 1/2 in the
    linear-in-lambda closed forms).
    """
    _require_normalized(grid)
    c = grid.centers
    e_abs = expected_abs_delta(rule, c[:, None], c[None, :], lam=metrics_lambda(rule))
    return e_abs @ grid.masses


def liquidity_grid(grid: WealthGrid, rule: RuleSpec) -> float:
    """Liquidity L = (1/(2<x>)) * sum_k mass(k) * l(x_k); lies in [0, 1]."""
    mean = grid.mean
    if mean <= 0.0:
        raise ValueError("degenerate: zero mean wealth")
    l = mobility_profile(grid, rule)
    return float(np.dot(grid.masses, l) / (2.0 * mean))
