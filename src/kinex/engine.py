"""Finite-N Monte Carlo driver: pair selection, sweeps, stopping, ensembles.

Time unit: one sweep = N/2 pairwise exchanges, so each agent participates
on average once per sweep. Pairs (i, j) are drawn uniformly over ordered
pairs with i != j; all four rule laws are exchangeable in (i, j), so ordered
selection is observationally equivalent to unordered and simpler.

A single trajectory is strictly sequential (the model is a sequential
Markov chain). For speed a sweep draws its pair indices, coins and lambda
values in one batch per sweep from the trajectory's RngStream, in a fixed
order (i block, j block, lambda block, coin block), so a run is fully
reproducible from (seed, stream id).

A sweep takes one of two paths with the same draws. Below
``_ROUNDS_MIN_N`` agents a Python loop applies one exchange at a time on a
list. From there on the sweep runs in conflict-free rounds on an array: a
round applies, vectorised over ``rules.two_point_law``, every remaining
exchange that is the earliest remaining one of both its agents. These
share no agent with each other or with any pending exchange before them,
so they read exactly the wealths the loop would, and the two paths give
bitwise the same wealths and sums of |delta|. The crossover is measured:
at N=65536 the rounds take a quarter to a third of the loop's time per
exchange, at N=2048 they take longer for every rule, since a sweep needs
about ten rounds of fixed-cost numpy calls whatever its size.

Each record, and the final state, is audited: a negative wealth or a
wealth sum drifting from the initial total beyond rounding raises
ContractViolation.
"""

from __future__ import annotations

import enum
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .core import ContractViolation, Population, RngStream, RuleKind, RuleSpec
from .metrics import DEFAULT_EPS_ZERO, MetricsRecord, gini_population
from .rules import two_point_law

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

# Relative drift of the wealth sum from its initial total that the audit
# of each record accepts. Rounding alone drifted by at most 1.6e-14 in the
# runs measured (2e5 classic-loser exchanges at N=2; 3.9e-15 in 20k sweeps
# at N=128); one lost exchange at N=65536 moves the sum by about 1e-5.
_DRIFT_TOL = 1e-9

# Populations at least this large sweep in conflict-free rounds (see
# ``_sweep_rounds``); smaller ones one exchange at a time, where a round's
# fixed numpy cost outweighs the few exchanges in it.
_ROUNDS_MIN_N = 4096


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


def _draw_exchanges(n: int, rule: RuleSpec, gen: np.random.Generator):
    """One sweep's draws, in the fixed layout (i block, j block, lambda block,
    coin block): the N/2 pairs (i, j) with j != i, the per-exchange lambdas
    (None for a fixed lambda) and the coins, uniforms for the unbiased loser
    rule and 0/1 integers for the others."""
    s = n // 2
    ii = gen.integers(0, n, size=s)
    jj = gen.integers(0, n - 1, size=s)
    jj += jj >= ii
    lams = gen.random(size=s) if rule.random_lambda else None
    if rule.kind is RuleKind.UNBIASED_LOSER:
        coins = gen.random(size=s)
    else:
        coins = gen.integers(0, 2, size=s)
    return ii, jj, lams, coins


def _sweep(w, rule: RuleSpec, gen: np.random.Generator) -> float:
    """Run N/2 exchanges in place; returns sum of |delta| over the sweep.

    ``w`` is a list below ``_ROUNDS_MIN_N`` agents, where the scalar loop
    runs, and a float64 array from there on, where the sweep runs in
    conflict-free rounds. Both paths take the same draws and give bitwise
    the same wealth and sum.
    """
    if len(w) >= _ROUNDS_MIN_N:
        return _sweep_rounds(w, rule, gen)
    return _sweep_scalar(w, rule, gen)


def _sweep_scalar(w: list, rule: RuleSpec, gen: np.random.Generator) -> float:
    """``_sweep`` one exchange at a time, on a list.

    Each rule's branch restates ``rules.two_point_law`` for one exchange:
    a per-exchange call to the vectorised law would dominate this loop. A
    test pins every branch, and the draw layout, to the law.
    """
    ii, jj, lams, coins = _draw_exchanges(len(w), rule, gen)
    s = len(ii)
    ii = ii.tolist()
    jj = jj.tolist()
    coins = coins.tolist()
    kind = rule.kind
    random_lam = lams is not None
    lam = 0.0 if random_lam else (1.0 if rule.lam is None else float(rule.lam))
    if random_lam:
        lams = lams.tolist()
    sum_abs = 0.0

    if kind is RuleKind.YARD_SALE:
        for k in range(s):
            i = ii[k]
            j = jj[k]
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
        for k in range(s):
            i = ii[k]
            j = jj[k]
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
        for k in range(s):
            i = ii[k]
            j = jj[k]
            wi = w[i]
            wj = w[j]
            tot = wi + wj
            if random_lam:
                lam = lams[k]
            if tot > 0.0 and coins[k] < wi / tot:
                d = lam * wj
            else:
                d = -(lam * wi)
            sum_abs += d if d >= 0 else -d
            w[i] = wi + d
            w[j] = wj - d
    else:  # Iglesias-Almeida
        for k in range(s):
            i = ii[k]
            j = jj[k]
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


def _sweep_rounds(w: np.ndarray, rule: RuleSpec, gen: np.random.Generator) -> float:
    """``_sweep`` in conflict-free rounds of vectorised exchanges, on an array.

    A round applies every remaining exchange that is the earliest remaining
    one of both its agents. Such exchanges share no agent with each other or
    with any exchange still pending before them, so each reads the wealths
    the sequential loop would read, and applying them at once gives its
    wealths bitwise. The atoms come from ``rules.two_point_law``; agent i
    takes d_plus when its coin shows 1, or, for the unbiased loser rule, when
    its uniform falls below p_plus. On wealths without -0.0 (``run`` clears
    it), adding d_minus = -d + 0.0 equals subtracting d, as the loop does.
    """
    n = len(w)
    ii, jj, lams, coins = _draw_exchanges(n, rule, gen)
    s = ii.size
    uniform_coin = rule.kind is RuleKind.UNBIASED_LOSER
    if not uniform_coin:
        coins = coins.astype(bool)
    abs_d = np.empty(s)
    # the earliest remaining exchange of each agent (s: none), kept by
    # lowering; only an agent whose earliest one was applied goes back up
    first = np.full(n, s, dtype=ii.dtype)
    # the exchanges not yet applied, in order, and their agents
    left, a_left, b_left = np.arange(s), ii, jj
    while left.size:
        np.minimum.at(first, a_left, left)
        np.minimum.at(first, b_left, left)
        ready = (first[a_left] == left) & (first[b_left] == left)
        # index arrays: a boolean mask gathers several times slower
        go = np.flatnonzero(ready)
        wait = np.flatnonzero(~ready)
        now, a, b = left[go], a_left[go], b_left[go]
        left, a_left, b_left = left[wait], a_left[wait], b_left[wait]
        first[a] = s
        first[b] = s
        wa = w[a]
        wb = w[b]
        d_plus, p_plus, d_minus = two_point_law(
            rule, wa, wb, None if lams is None else lams[now]
        )
        win = coins[now] < p_plus if uniform_coin else coins[now]
        d = np.where(win, d_plus, d_minus)
        w[a] = wa + d
        w[b] = wb - d
        abs_d[now] = np.abs(d)
    # in exchange order, as the loop adds them (np.sum would pair them up);
    # the loop's leading 0.0 changes no sum of non-negative terms
    return float(np.add.accumulate(abs_d)[-1])


def _audit(arr: np.ndarray, total: float) -> None:
    """Raise ContractViolation on negative wealth or a drifted wealth sum.

    Every exchange moves one delta between two agents, so only rounding may
    move the sum away from the initial ``total``.
    """
    low = float(arr.min())
    if not low >= 0.0:
        raise ContractViolation(f"negative wealth {low!r} in the population")
    drift = abs(float(arr.sum()) - total)
    if not drift <= _DRIFT_TOL * total:
        raise ContractViolation(
            f"wealth sum drifted by {drift!r} from the total {total!r}"
        )


def _record(
    w, total: float, eps_zero: float, t: int, sweep_abs: float
) -> MetricsRecord:
    n = len(w)
    arr = np.asarray(w)
    _audit(arr, total)
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
    a recorded sweep, else at max_sweeps. Each record, and the final state,
    is audited: negative wealth or a wealth sum off the initial total by
    more than rounding raises ContractViolation. ``initial_population``
    injects a starting state programmatically (the API analog of a file
    initial).
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
    # a fresh copy, with -0.0 made 0.0 (see _sweep_rounds)
    w = np.array(w0, dtype=np.float64) + 0.0
    if config.n < _ROUNDS_MIN_N:
        w = w.tolist()

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

    arr = np.asarray(w)
    _audit(arr, total)
    return Trajectory(
        records=records,
        final_population=Population(arr, total=total),
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


def run_ensemble(config: SimConfig, replicas: int) -> EnsembleSummary:
    """Run independent replicas on stream ids 0..R-1 derived from config.seed.

    Replicas run on ``worker_count()`` processes. Early-stop thresholds are
    ignored for ensemble runs so that every replica shares one time axis;
    aggregation is ordered by replica id regardless of completion order, so
    results do not depend on the worker count. Standard deviations use
    ddof=1 and need replicas >= 2.
    """
    if replicas < 2:
        raise ValueError("replicas must be >= 2")
    base = replace(config, stop_gini_gap=None, stop_liquidity=None)
    jobs = [(base, r) for r in range(replicas)]
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
