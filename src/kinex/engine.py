"""Finite-N Monte Carlo driver: pair selection, sweeps, stopping, ensembles.

Time unit: one sweep = N/2 pairwise exchanges, so each agent participates
on average once per sweep. Pairs (i, j) are drawn uniformly over ordered
pairs with i != j; all four rule laws are exchangeable in (i, j), so ordered
selection is observationally equivalent to unordered and simpler.

A single trajectory is strictly sequential (the model is a sequential
Markov chain). For speed the sweep loop draws its pair indices, coins and
lambda values in one batch per sweep from the trajectory's RngStream, in a
fixed order (i block, j block, lambda block, coin block), so a run is fully
reproducible from (seed, stream id).
"""

from __future__ import annotations

import enum
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .core import Population, RngStream, RuleKind, RuleSpec
from .metrics import DEFAULT_EPS_ZERO, MetricsRecord, gini_population

__all__ = [
    "Initial",
    "SimConfig",
    "StopReason",
    "Trajectory",
    "EnsembleSummary",
    "run",
    "run_ensemble",
    "parse_initial",
]

# Smallest normal float: the Iglesias-Almeida sweep divides a product below
# it factor by factor.
_TINY = sys.float_info.min


@dataclass(frozen=True)
class Initial:
    """Initial condition: equal wealth (all 1), uniform random, or a snapshot file."""

    kind: str  # "equal" | "uniform" | "file"
    path: str | None = None

    def __post_init__(self):
        if self.kind not in ("equal", "uniform", "file"):
            raise ValueError(f"unknown initial condition {self.kind!r}")
        if self.kind == "file" and not self.path:
            raise ValueError("file initial condition requires a path")


def parse_initial(text: str) -> Initial:
    """Parse "equal", "uniform", or "file:<path>"."""
    if text in ("equal", "uniform"):
        return Initial(kind=text)
    if text.startswith("file:"):
        return Initial(kind="file", path=text[len("file:"):])
    raise ValueError(f"unknown initial condition {text!r}")


class StopReason(enum.Enum):
    MAX_SWEEPS = "max_sweeps"
    CONDENSED = "condensed"


@dataclass(frozen=True)
class SimConfig:
    """Configuration of one finite-N run.

    Stop thresholds are optional; a threshold that is set must be met on the
    most recent recorded sweep for the run to stop as Condensed, and every
    set threshold must be met simultaneously (a Gini plateau with residual
    churn must not trigger a stop).
    """

    n: int
    rule: RuleSpec
    max_sweeps: int
    seed: int = 0
    initial: Initial = Initial(kind="equal")
    record_every: int = 1
    stop_gini_gap: float | None = None
    stop_liquidity: float | None = None
    eps_zero: float = DEFAULT_EPS_ZERO

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be >= 1")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        for name in ("stop_gini_gap", "stop_liquidity"):
            v = getattr(self, name)
            if v is not None and v < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.eps_zero < 0:
            raise ValueError("eps_zero must be >= 0")


@dataclass
class Trajectory:
    records: list[MetricsRecord]
    final_population: Population
    stop_reason: StopReason
    snapshots: list[tuple[int, np.ndarray]] = field(default_factory=list)


@dataclass
class EnsembleSummary:
    """Per-recorded-time mean/stddev of Gini and liquidity over replicas."""

    t: np.ndarray
    gini_mean: np.ndarray
    gini_std: np.ndarray
    liquidity_mean: np.ndarray
    liquidity_std: np.ndarray
    replicas: int


def _initial_wealth(config: SimConfig, gen: np.random.Generator) -> np.ndarray:
    if config.initial.kind == "equal":
        return np.ones(config.n)
    if config.initial.kind == "uniform":
        u = gen.uniform(0.0, 2.0, size=config.n)
        return u * (config.n / math.fsum(u))
    from .core import read_snapshot

    pop = read_snapshot(config.initial.path)
    if pop.size != config.n:
        raise ValueError(
            f"snapshot has N={pop.size}, config expects N={config.n}"
        )
    return pop.wealth


def _sweep(w: list, rule: RuleSpec, gen: np.random.Generator) -> float:
    """Run N/2 exchanges in place; returns sum of |delta| over the sweep.

    Each rule's branch restates ``rules.two_point_law`` for one exchange:
    a per-exchange call to the vectorised law would dominate this loop. A
    test pins every branch, and the draw layout, to the law.
    """
    n = len(w)
    s = n // 2
    ii = gen.integers(0, n, size=s).tolist()
    jj = gen.integers(0, n - 1, size=s).tolist()
    kind = rule.kind
    random_lam = rule.random_lambda
    lam = 0.0 if random_lam else (1.0 if rule.lam is None else float(rule.lam))
    lams = gen.random(size=s).tolist() if random_lam else None
    sum_abs = 0.0

    if kind is RuleKind.YARD_SALE:
        coins = gen.integers(0, 2, size=s).tolist()
        for k in range(s):
            i = ii[k]
            j = jj[k]
            if j >= i:
                j += 1
            wi = w[i]
            wj = w[j]
            mn = wi if wi < wj else wj
            if random_lam:
                lam = lams[k]
            d = lam * mn
            sum_abs += d
            if coins[k]:
                w[i] = wi + d
                w[j] = wj - d
            else:
                w[i] = wi - d
                w[j] = wj + d
    elif kind is RuleKind.CLASSIC_LOSER:
        coins = gen.integers(0, 2, size=s).tolist()
        for k in range(s):
            i = ii[k]
            j = jj[k]
            if j >= i:
                j += 1
            wi = w[i]
            wj = w[j]
            if random_lam:
                lam = lams[k]
            if coins[k]:
                d = lam * wj
            else:
                d = -(lam * wi)
            sum_abs += d if d >= 0 else -d
            w[i] = wi + d
            w[j] = wj - d
    elif kind is RuleKind.UNBIASED_LOSER:
        us = gen.random(size=s).tolist()
        for k in range(s):
            i = ii[k]
            j = jj[k]
            if j >= i:
                j += 1
            wi = w[i]
            wj = w[j]
            tot = wi + wj
            if random_lam:
                lam = lams[k]
            if tot > 0.0 and us[k] < wi / tot:
                d = lam * wj
            else:
                d = -(lam * wi)
            sum_abs += d if d >= 0 else -d
            w[i] = wi + d
            w[j] = wj - d
    else:  # Iglesias-Almeida
        coins = gen.integers(0, 2, size=s).tolist()
        for k in range(s):
            i = ii[k]
            j = jj[k]
            if j >= i:
                j += 1
            wi = w[i]
            wj = w[j]
            tot = wi + wj
            d = wi * wj
            # a product below the normal range keeps too few bits to divide
            # (the guard of rules.harmonic_transfer)
            if d >= _TINY:
                d /= tot
            elif tot > 0.0:
                d = wi * (wj / tot)
            # rounding at extreme wealth ratios can overshoot min(wi, wj)
            # by an ulp; clamp to keep the loser's wealth non-negative
            mn = wi if wi < wj else wj
            if d > mn:
                d = mn
            sum_abs += d
            if coins[k]:
                w[i] = wi + d
                w[j] = wj - d
            else:
                w[i] = wi - d
                w[j] = wj + d
    return sum_abs


def _record(
    w: list, total: float, eps_zero: float, t: int, sweep_abs: float
) -> MetricsRecord:
    n = len(w)
    arr = np.asarray(w)
    pop = Population(arr, total=total)
    g = gini_population(pop)
    mean = total / n
    return MetricsRecord(
        t=float(t),
        gini=g,
        liquidity=sweep_abs / total,
        mean_wealth=mean,
        top_share=float(arr.max()) / total,
        zero_fraction=float(np.count_nonzero(arr < eps_zero * mean)) / n,
    )


def run(
    config: SimConfig,
    stream: int = 0,
    initial_population: Population | None = None,
    snapshot_every: int = 0,
) -> Trajectory:
    """Execute one trajectory: sweeps of N/2 exchanges with periodic records.

    Metrics are recorded every ``record_every`` sweeps; the recorded
    liquidity is the empirical estimator over the just-completed sweep.
    The run stops Condensed when every configured stop threshold is met on
    a recorded sweep, else at max_sweeps. ``initial_population`` injects a
    starting state programmatically (the API analog of a file initial).
    ``snapshot_every`` > 0 additionally stores wealth-vector copies every
    that many sweeps.
    """
    rng = RngStream(config.seed, stream)
    gen = rng.gen
    if initial_population is not None:
        if initial_population.size != config.n:
            raise ValueError("initial population size differs from config.n")
        w0 = initial_population.wealth
    else:
        w0 = _initial_wealth(config, gen)
    total = math.fsum(w0)
    if total <= 0.0:
        raise ValueError("degenerate: zero total wealth")
    w = [float(x) for x in w0]

    records: list[MetricsRecord] = []
    snapshots: list[tuple[int, np.ndarray]] = []
    stop_reason = StopReason.MAX_SWEEPS
    check_stop = (
        config.stop_gini_gap is not None or config.stop_liquidity is not None
    )
    gap_max = (config.n - 1) / config.n

    for sweep_no in range(1, config.max_sweeps + 1):
        sweep_abs = _sweep(w, config.rule, gen)
        if snapshot_every and sweep_no % snapshot_every == 0:
            snapshots.append((sweep_no, np.asarray(w).copy()))
        if sweep_no % config.record_every != 0:
            continue
        rec = _record(w, total, config.eps_zero, sweep_no, sweep_abs)
        records.append(rec)
        if check_stop:
            ok = True
            if config.stop_gini_gap is not None:
                ok = ok and (gap_max - rec.gini) <= config.stop_gini_gap
            if config.stop_liquidity is not None:
                ok = ok and rec.liquidity <= config.stop_liquidity
            if ok:
                stop_reason = StopReason.CONDENSED
                break

    final = Population(np.asarray(w), total=total)
    return Trajectory(
        records=records,
        final_population=final,
        stop_reason=stop_reason,
        snapshots=snapshots,
    )


def _replica_curves(args) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    config, stream = args
    traj = run(config, stream=stream)
    t = np.array([r.t for r in traj.records])
    g = np.array([r.gini for r in traj.records])
    l = np.array([r.liquidity for r in traj.records])
    return t, g, l


def worker_count() -> int:
    """Worker cap for replica parallelism: KINEX_THREADS or all CPUs."""
    env = os.environ.get("KINEX_THREADS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def run_ensemble(
    config: SimConfig, replicas: int, workers: int | None = None
) -> EnsembleSummary:
    """Run independent replicas on stream ids 0..R-1 derived from config.seed.

    Early-stop thresholds are ignored for ensemble runs so that every
    replica shares one time axis; aggregation is ordered by replica id
    regardless of completion order, so results do not depend on the worker
    count. Standard deviations use ddof=1 and need replicas >= 2.
    """
    if replicas < 2:
        raise ValueError("replicas must be >= 2")
    base = replace(config, stop_gini_gap=None, stop_liquidity=None)
    jobs = [(base, r) for r in range(replicas)]
    if workers is None:
        workers = worker_count()
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_replica_curves, jobs, chunksize=4))
    else:
        results = [_replica_curves(job) for job in jobs]

    t0 = results[0][0]
    for t, _, _ in results[1:]:
        if t.shape != t0.shape or not np.array_equal(t, t0):
            raise RuntimeError("replica time axes differ")
    gini = np.vstack([g for _, g, _ in results])
    liq = np.vstack([l for _, _, l in results])
    return EnsembleSummary(
        t=t0,
        gini_mean=gini.mean(axis=0),
        gini_std=gini.std(axis=0, ddof=1),
        liquidity_mean=liq.mean(axis=0),
        liquidity_std=liq.std(axis=0, ddof=1),
        replicas=replicas,
    )
