"""Finite-N Monte Carlo driver: pair selection, sweeps, stopping, ensembles.

Time unit: one sweep = N/2 pairwise exchanges, so each agent participates
on average once per sweep. Pairs (i, j) are drawn uniformly over ordered
pairs with i != j; all four rule laws are exchangeable in (i, j), so ordered
selection is observationally equivalent to unordered and simpler.

A single trajectory is strictly sequential (the model is a sequential
Markov chain). For speed a sweep's pair indices, coins and lambda values
are drawn in one batch per sweep from the trajectory's RngStream, in the
fixed layout of ``_layout`` (i block, j block, lambda block, coin block),
so a run is fully reproducible from (seed, stream id). A sweep is a pure
function of its draws: ``run`` draws each sweep from one draw source and
hands the draws to ``_sweep``. ``_draw_exchanges`` draws the layout with
``Generator`` calls. Below ``_ROUNDS_MIN_N`` agents ``run`` reads the same
draws, bit for bit, from ``_draw_block``, which draws the 32-bit words of
``_BLOCK_EXCHANGES`` exchanges in one call and decodes them as numpy's
``Generator`` would, instead of paying numpy's per-call cost on three or
four small draws every sweep.

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

A run keeps one ``Population``, which each record reads in place and
``run`` returns. Each record, and the final state, is audited: a negative
wealth or a wealth sum drifting from the initial total beyond rounding
raises ContractViolation.
"""

from __future__ import annotations

import enum
import functools
import itertools
import logging
import math
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (
    ContractViolation,
    Population,
    RngStream,
    RuleKind,
    RuleSpec,
    read_snapshot,
)
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

# Exchanges ``_draw_block`` draws at a time (at least a sweep's); no output
# depends on it. A sweep of yard-sale lambda=0.1 at N=128 took (best of 5
# runs of 8000; 2-CPU Xeon, Python 3.11, numpy 2.4.6) 63 us with one sweep
# per block, 19 us with 1024 exchanges, 16 us with 4096 or 8192 and 18-21 us
# with 16384, against 48-50 us with Generator calls per sweep; at N=1024,
# 133-162 us from 4096 up, 194 us with one sweep and 166-174 us with calls.
_BLOCK_EXCHANGES = 4096

log = logging.getLogger("kinex.engine")


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
        for name in ("stop_gini_gap", "stop_liquidity", "eps_zero"):
            v = getattr(self, name)
            if v is not None and not 0.0 <= v < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")


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
    return read_snapshot(config.initial.path).wealth


def _layout(n: int, rule: RuleSpec) -> tuple:
    """The range of each block of one sweep's draws, in draw order: i, j
    (over n - 1 values, then stepped past i), the lambdas of a random-lambda
    rule, and the coins; None stands for a block of ``random()`` uniforms."""
    coins = None if rule.kind is RuleKind.UNBIASED_LOSER else 2
    return (n, n - 1, None, coins) if rule.random_lambda else (n, n - 1, coins)


def _exchanges(blocks) -> tuple:
    """(i, j, lambdas or None, coins) of the blocks of ``_layout``, with j
    stepped past i, so j != i."""
    ii, jj, *lams, coins = blocks
    jj += jj >= ii
    return ii, jj, lams[0] if lams else None, coins


def _draw_exchanges(n: int, rule: RuleSpec, gen: np.random.Generator) -> tuple:
    """One sweep's draws, drawn through ``Generator`` calls in the layout
    of ``_layout``: the N/2 exchanges' (i, j, lambdas or None, coins) as
    arrays. ``_draw_block`` gives the same draws from the same stream."""
    s = n // 2
    return _exchanges([
        gen.random(size=s) if bound is None else gen.integers(0, bound, size=s)
        for bound in _layout(n, rule)
    ])


def _draw_block(n: int, rule: RuleSpec, gen: np.random.Generator, sweeps: int) -> tuple:
    """``sweeps`` calls of ``_draw_exchanges`` in one: the same draws, as
    (sweeps, N/2) arrays, and the same generator state after them.
    ``_decode`` draws them but for a range of one value (j at N=2), which
    takes no word, uniforms that could start on a pending half, and a block
    that rejects a word: ``_draw_defined`` draws those, the last from the
    state before the block."""
    s = n // 2
    layout = _layout(n, rule)
    state = gen.bit_generator.state
    # uniforms follow the i and j blocks, 2s words, in every sweep
    whole = not state["has_uint32"] and _words(layout, s) % 2 == 0
    if 1 not in layout and (whole or None not in layout) and _decoding_matches_numpy():
        blocks = _decode(layout, s, gen, sweeps)
        if blocks is not None:
            return _exchanges(blocks)
        gen.bit_generator.state = state
    return _exchanges(_draw_defined(layout, s, gen, sweeps))


def _words(layout: tuple, s: int) -> int:
    """32-bit words per sweep: one per bounded integer, two per uniform."""
    return sum(s if bound else 2 * s for bound in layout)


def _draw_defined(layout: tuple, s: int, gen: np.random.Generator, sweeps: int) -> list:
    """The blocks of ``sweeps`` sweeps of ``layout`` by definition: one
    ``integers`` call over each draw's range, in draw order. A uniform is
    ``integers(0, 2**53) * 2**-53``, which numpy draws as ``random()`` does,
    from a whole 64-bit output; a range of one value takes nothing."""
    ranges = np.repeat([2**53 if bound is None else bound for bound in layout], s)
    values = gen.integers(0, np.tile(ranges, sweeps)).reshape(sweeps, -1)
    blocks = np.hsplit(values, len(layout))
    return [b * 2.0**-53 if bound is None else b for bound, b in zip(layout, blocks)]


def _decode(layout: tuple, s: int, gen: np.random.Generator, sweeps: int):
    """``_draw_defined``'s blocks decoded from one ``integers`` call's 32-bit
    words, in stream order with any pending half first; None if a word is
    rejected. A bounded integer in [0, b) is Lemire's ``(x * b) >> 32`` of
    its word x, rejected, as numpy does, when ``(x * b) mod 2**32`` is below
    ``(2**32 - b) mod b`` (never for a power of two b). A uniform is
    ``random()``'s ``(x >> 11) * 2**-53`` of the 64-bit output x whose low
    and high halves are its two words."""
    words = gen.integers(0, 2**32, size=(sweeps, _words(layout, s)), dtype=np.uint64)
    blocks = []
    for bound in layout:
        if bound is None:
            lo, hi = words[:, : 2 * s : 2], words[:, 1 : 2 * s : 2]
            blocks.append(((hi << 32 | lo) >> 11) * 2.0**-53)
            words = words[:, 2 * s :]
        else:
            m = words[:, :s] * np.uint64(bound)
            if ((m & 0xFFFFFFFF) < (2**32 - bound) % bound).any():
                return None
            blocks.append((m >> 32).view(np.int64))
            words = words[:, s:]
    return blocks


@functools.cache
def _decoding_matches_numpy() -> bool:
    """Whether ``_decode`` gives ``_draw_defined``'s draws, and the same
    words after them, on the installed numpy, once per process: on words
    only at odd N/2, entered with a half pending, and on uniforms after
    words. If not, ``_draw_block`` draws by definition alone: the same
    output, more slowly."""
    for layout, pending in (((6, 5, 2), True), ((128, 127, None), False)):
        s = layout[0] // 2
        gen, twin = (np.random.Generator(np.random.PCG64(8)) for _ in "ab")
        if pending:
            gen.integers(0, 3)
            twin.integers(0, 3)
        got, want = _decode(layout, s, gen, 4), _draw_defined(layout, s, twin, 4)
        if got is None or not all(map(np.array_equal, got, want)) or (
            gen.integers(0, 2**32, size=3) != twin.integers(0, 2**32, size=3)
        ).any():
            log.warning(
                "decoded draws differ from numpy %s's Generator; "
                "drawing through Generator calls per block",
                np.__version__,
            )
            return False
    return True


def _block_sweeps(n: int, rule: RuleSpec, gen: np.random.Generator):
    """``_draw_exchanges``' draws, sweep after sweep, as lists, drawn by
    ``_draw_block`` a block of ``_BLOCK_EXCHANGES`` exchanges at a time."""
    sweeps = max(1, _BLOCK_EXCHANGES // (n // 2))
    while True:
        ii, jj, lams, coins = _draw_block(n, rule, gen, sweeps)
        lams = itertools.repeat(None) if lams is None else lams.tolist()
        yield from zip(ii.tolist(), jj.tolist(), lams, coins.tolist())


def _sweep(w, rule: RuleSpec, draws: tuple) -> float:
    """Run one sweep's exchanges in place; returns sum of |delta| over them.

    ``draws`` is the sweep's (i, j, lambdas or None, coins) from
    ``_draw_exchanges``. Below ``_ROUNDS_MIN_N`` agents ``w`` and the draws
    are lists and the scalar loop runs; from there on they are arrays and
    the sweep runs in conflict-free rounds. Both paths give bitwise the same
    wealth and sum for the same draws.
    """
    if len(w) >= _ROUNDS_MIN_N:
        return _sweep_rounds(w, rule, draws)
    return _sweep_scalar(w, rule, draws)


def _sweep_scalar(w: list, rule: RuleSpec, draws: tuple) -> float:
    """``_sweep`` one exchange at a time, on a list and list draws.

    Each rule's branch restates ``rules.two_point_law`` for one exchange:
    a per-exchange call to the vectorised law would dominate this loop. A
    test pins every branch to the law.
    """
    ii, jj, lams, coins = draws
    kind = rule.kind
    if lams is None:
        lams = itertools.repeat(1.0 if rule.lam is None else float(rule.lam))
    sum_abs = 0.0

    if kind is RuleKind.YARD_SALE:
        for i, j, lam, coin in zip(ii, jj, lams, coins):
            wi = w[i]
            wj = w[j]
            mn = wi if wi < wj else wj
            d = lam * mn
            sum_abs += d
            if coin:
                w[i] = wi + d
                w[j] = wj - d
            else:
                w[i] = wi - d
                w[j] = wj + d
    elif kind is RuleKind.CLASSIC_LOSER:
        for i, j, lam, coin in zip(ii, jj, lams, coins):
            wi = w[i]
            wj = w[j]
            if coin:
                d = lam * wj
            else:
                d = -(lam * wi)
            sum_abs += d if d >= 0 else -d
            w[i] = wi + d
            w[j] = wj - d
    elif kind is RuleKind.UNBIASED_LOSER:
        for i, j, lam, coin in zip(ii, jj, lams, coins):
            wi = w[i]
            wj = w[j]
            tot = wi + wj
            if tot > 0.0 and coin < wi / tot:
                d = lam * wj
            else:
                d = -(lam * wi)
            sum_abs += d if d >= 0 else -d
            w[i] = wi + d
            w[j] = wj - d
    else:  # Iglesias-Almeida
        for i, j, coin in zip(ii, jj, coins):
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
            if coin:
                w[i] = wi + d
                w[j] = wj - d
            else:
                w[i] = wi - d
                w[j] = wj + d
    return sum_abs


def _sweep_rounds(w: np.ndarray, rule: RuleSpec, draws: tuple) -> float:
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
    ii, jj, lams, coins = draws
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


def _audit(w, pop: Population) -> None:
    """Copy the loop's wealths ``w`` into ``pop`` unless they are its array,
    then raise ContractViolation on negative wealth or a sum drifted from
    ``pop.total``: every exchange moves one delta between two agents, so
    only rounding may move the sum."""
    arr = pop.wealth
    if w is not arr:
        arr[:] = w
    low = float(arr.min())
    if not low >= 0.0:
        raise ContractViolation(f"negative wealth {low!r} in the population")
    drift = abs(float(arr.sum()) - pop.total)
    if not drift <= _DRIFT_TOL * pop.total:
        raise ContractViolation(
            f"wealth sum drifted by {drift!r} from the total {pop.total!r}"
        )


def _record(
    w, pop: Population, eps_zero: float, t: int, sweep_abs: float
) -> MetricsRecord:
    """The metrics of the run's ``pop`` once ``_audit`` has copied the
    loop's wealths ``w`` into it."""
    _audit(w, pop)
    arr, total, n = pop.wealth, pop.total, pop.size
    mean = total / n
    return MetricsRecord(
        t=float(t),
        gini=gini_population(pop),
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

    The run's state is one ``Population``, a checked copy of the initial
    wealth with -0.0 made 0.0, returned as ``Trajectory.final_population``.
    From ``_ROUNDS_MIN_N`` agents up the sweeps change its array in place;
    below, they run on a list that each record and the end copy into it.
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
    if snapshot_every < 0:
        raise ValueError("snapshot_every must be >= 0")
    gen = RngStream(config.seed, stream).gen
    if initial_population is not None:
        w0 = initial_population.wealth
    else:
        w0 = _initial_wealth(config, gen)
    pop = Population(w0)
    pop.wealth += 0.0  # -0.0 made 0.0 (see _sweep_rounds)
    if pop.size != config.n:
        raise ValueError(
            f"initial wealth has N={pop.size}, config expects N={config.n}"
        )
    if pop.total <= 0.0:
        raise ValueError("degenerate: zero total wealth")
    n, rule = config.n, config.rule
    # the one source of each sweep's draws, in the form its path reads
    if n >= _ROUNDS_MIN_N:
        w = pop.wealth
        draw = functools.partial(_draw_exchanges, n, rule, gen)
    else:
        w = pop.wealth.tolist()
        # from here on the blocks alone draw from gen, ahead of the sweeps
        draw = _block_sweeps(n, rule, gen).__next__

    records: list[MetricsRecord] = []
    snapshots: list[tuple[int, np.ndarray]] = []
    stop_reason = StopReason.MAX_SWEEPS
    check_stop = (
        config.stop_gini_gap is not None or config.stop_liquidity is not None
    )
    gap_max = (n - 1) / n

    for sweep_no in range(1, config.max_sweeps + 1):
        sweep_abs = _sweep(w, rule, draw())
        if snapshot_every and sweep_no % snapshot_every == 0:
            snapshots.append((sweep_no, np.array(w)))
        if sweep_no % config.record_every != 0:
            continue
        rec = _record(w, pop, config.eps_zero, sweep_no, sweep_abs)
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

    _audit(w, pop)
    return Trajectory(
        records=records,
        final_population=pop,
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

    Replicas run on up to ``worker_count()`` processes, at most one per
    chunk of four replicas the pool hands out. Early-stop thresholds are
    ignored for ensemble runs so that every replica shares one time axis;
    aggregation is ordered by replica id regardless of completion order, so
    results do not depend on the worker count. Standard deviations use
    ddof=1 and need replicas >= 2.
    """
    if replicas < 2:
        raise ValueError("replicas must be >= 2")
    base = replace(config, stop_gini_gap=None, stop_liquidity=None)
    jobs = [(base, r) for r in range(replicas)]
    # the pool forks all its workers at the first submit, so a worker
    # beyond the number of chunks would only sit idle
    chunk = 4
    workers = min(worker_count(), math.ceil(replicas / chunk))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_replica_curves, jobs, chunksize=chunk))
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
