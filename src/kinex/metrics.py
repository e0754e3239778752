"""Inequality and mobility measures for populations and gridded densities.

Gini is the normalized mean absolute pairwise wealth difference; mobility
l(x) is the expected |delta| per unit time for an agent at wealth x against
a partner drawn from the density; liquidity L is the density-weighted
mobility over twice the mean wealth. All grid-side quantities are exact
quadratures over cell masses at the representative points. The grid Gini
comes from ``_gini_sums``, numpy's reference of the prefix sums that
``_sweep.c``'s ``gini_sums`` computes for the master-equation integrator,
with the same bits.
"""

from __future__ import annotations

import functools
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
    values receive coefficients that sum identically. Its sum is numpy's
    pairwise one: a BLAS dot's bits vary with the kernel the CPU selects.
    """
    if pop.total <= 0.0:
        raise ValueError("degenerate: zero total wealth")
    x = np.sort(pop.wealth)
    n = x.size
    return float(np.multiply(_gini_coefficients(n), x, out=x).sum() / (n * pop.total))


@functools.lru_cache(maxsize=8)
def _gini_coefficients(n: int) -> np.ndarray:
    """The weights 2i - (n - 1) of the sorted formula, read-only.

    Cached per N because a run records the Gini of one population size many
    times, and at large N building the vector costs a good part of a record.
    """
    coef = 2.0 * np.arange(n) - (n - 1)
    coef.flags.writeable = False
    return coef


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
    return _gini_of_sums(_gini_sums(grid.masses, grid.centers))


def _gini_sums(m: np.ndarray, c: np.ndarray, r: np.ndarray | None = None) -> tuple:
    """(M0, M1, pair, phi' . r) of masses ``m`` at sorted points ``c``.

    M0 = sum m_k and M1 = sum m_k c_k. The points are sorted, so the half
    pair sum sum_{j < k} m_j m_k (c_k - c_j) folds into prefix sums:
    pair = sum_k m_k (c_k P_k - Q_k) with P_k and Q_k the sums of m_j and
    m_j c_j over j < k. phi'_k = 2 (c_k (P_k + m_k - m_0) - (Q_k + m_k c_k))
    is the shifted phi of ``master_eq.gini_rate``, and the fourth item its
    dot product with ``r``, or None where ``r`` is None. Every sum runs in
    index order from its first term (``np.cumsum``), as ``_sweep.c``'s
    ``gini_sums`` sums them, so both give the same bits.
    """
    cum_m = np.cumsum(m)
    cum_mc = np.cumsum(m * c)
    before_m = np.concatenate(([0.0], cum_m[:-1]))
    before_mc = np.concatenate(([0.0], cum_mc[:-1]))
    pair = np.cumsum(m * (c * before_m - before_mc))[-1]
    phi_r = None
    if r is not None:
        phi_r = float(np.cumsum(2.0 * (c * (cum_m - m[0]) - cum_mc) * r)[-1])
    return float(cum_m[-1]), float(cum_mc[-1]), float(pair), phi_r


def _gini_of_sums(sums: tuple) -> float:
    """The Gini index 2 pair / (2 M1) of ``_gini_sums``' sums; 0 where the
    mean M1 is not positive (all mass at zero wealth)."""
    _, mean, pair, _ = sums
    if mean <= 0.0:
        return 0.0
    return 2.0 * pair / (2.0 * mean)


def mobility_profile(grid: WealthGrid, rule: RuleSpec) -> np.ndarray:
    """Mobility l(x_k) at every representative point.

    l(x_k) = sum_k' mass(k') * E[|delta|](x_k, x_k'), each row summed by
    numpy's pairwise sum, not through BLAS. Rules with random lambda use the
    exact Uniform[0,1] average (lambda -> 1/2 in the linear-in-lambda closed
    forms).
    """
    _require_normalized(grid)
    c = grid.centers
    e_abs = expected_abs_delta(rule, c[:, None], c[None, :], lam=metrics_lambda(rule))
    return (e_abs * grid.masses).sum(axis=1)


def liquidity_grid(grid: WealthGrid, rule: RuleSpec) -> float:
    """Liquidity L = (1/(2<x>)) * sum_k mass(k) * l(x_k), summed by numpy's
    pairwise sum; lies in [0, 1]."""
    mean = grid.mean
    if mean <= 0.0:
        raise ValueError("degenerate: zero mean wealth")
    l = mobility_profile(grid, rule)
    return float((grid.masses * l).sum() / (2.0 * mean))
