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
draws, bit for bit, from ``_SweepDecoder``, which decodes them from one raw
PCG64 block per ``_BLOCK_EXCHANGES`` exchanges, as numpy's ``Generator``
would draw them, instead of paying numpy's per-call cost on three or four
small draws every sweep. A self-check against ``_draw_exchanges`` on first
use falls back, with a warning, to drawing each sweep through ``Generator``
calls where the decoding no longer matches the installed numpy.

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
import functools
import itertools
import logging
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (
    UNIFORM_LAMBDA,
    ContractViolation,
    Population,
    RngStream,
    RuleKind,
    RuleSpec,
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

# Exchanges whose draws ``_SweepDecoder`` decodes from one raw block (at
# least one sweep's). Per sweep of yard-sale lambda=0.1 at N=128 (best of
# 5 runs of 8000 sweeps; 2-CPU Xeon, Python 3.11, numpy 2.4.6): 45 us with
# one sweep per block, 23 us with 1024 exchanges, 19 us with 4096, 18 us
# with 8192 and 20 us with 16384, against 49 us with per-sweep Generator
# calls. At N=1024 the exchange loop dominates and the block size moved
# the time only within the noise (142-201 us).
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
    arrays. ``_SweepDecoder`` gives the same draws from the same stream."""
    s = n // 2
    return _exchanges([
        gen.random(size=s) if bound is None else gen.integers(0, bound, size=s)
        for bound in _layout(n, rule)
    ])


def _draw_lists(n: int, rule: RuleSpec, gen: np.random.Generator) -> tuple:
    """``_draw_exchanges`` as lists, the form ``_SweepDecoder`` gives."""
    return tuple(
        None if a is None else a.tolist() for a in _draw_exchanges(n, rule, gen)
    )


def _lemire(words: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``integers(0, n)`` by Lemire's method, as numpy draws it from 32-bit
    words x: the value ``(x * n) >> 32`` of each word, and whether it is
    accepted; a word is rejected when ``(x * n) mod 2**32`` is below
    ``(2**32 - n) mod n`` (never for a power of two n)."""
    m = words.astype(np.uint64) * np.uint64(n)
    return m >> 32, (m & 0xFFFFFFFF) >= (2**32 - n) % n


class _SweepDecoder:
    """``_draw_exchanges``' draws, sweep after sweep, decoded from one
    ``random_raw`` block per ``_BLOCK_EXCHANGES`` exchanges of a generator.

    The block is decoded bitwise as numpy's ``Generator`` draws it, in the
    layout of ``_layout``: ``integers`` takes a 32-bit word, the
    low half of a 64-bit output and then its high half, which stays
    pending, across sweeps and blocks too; ``random()`` takes
    ``(x >> 11) * 2**-53`` of a whole output and leaves a pending half
    alone; a range of one value (the j block at N=2) takes no word. A block
    that rejects a word (see ``_lemire``; a chance below n / 2**32 per
    draw) is drawn again through ``_draw_exchanges`` from the generator
    state before it, so numpy itself reads any further output it needs.

    The decoder draws ahead of the sweeps it has handed out: once it is in
    use, nothing else may draw from the generator.
    """

    def __init__(self, gen: np.random.Generator, n: int, rule: RuleSpec):
        self._draw = functools.partial(_draw_lists, n, rule, gen)
        self._bitgen = gen.bit_generator
        state = self._bitgen.state
        self._pending = state["uinteger"] if state["has_uint32"] else None
        self._s = n // 2
        self._sweeps = max(1, _BLOCK_EXCHANGES // self._s)
        self._bounds = _layout(n, rule)
        self._plans = {}
        self._ready = iter(())

    def next_sweep(self) -> tuple[list, list, list | None, list]:
        """The next sweep's (i, j, lambdas or None, coins), as lists."""
        sweep = next(self._ready, None)
        if sweep is None:
            self._ready = self._decode_block()
            sweep = next(self._ready)
        return sweep

    def _plan(self, pending: bool):
        """Where a block's draws lie, when it starts with a half pending or not.

        Returns the raw outputs the block takes; for each block of the
        layout but a range of one value, a (sweeps, N/2) index array into the
        block's words (the pending half, then each output's low and high
        half) or, for ``random()``, into its outputs; and the index of the
        word left pending at the end, or None.
        """
        by_word = [b is not None for b in self._bounds if b != 1]
        index = []
        raws = 0
        half = 0 if pending else None
        for _ in range(self._sweeps):
            for word in by_word:
                for _ in range(self._s):
                    if not word:
                        index.append(raws)
                        raws += 1
                    elif half is not None:
                        index.append(half)
                        half = None
                    else:
                        index.append(1 + 2 * raws)
                        half = 2 + 2 * raws
                        raws += 1
        blocks = np.array(index).reshape(self._sweeps, -1)
        return raws, np.hsplit(blocks, len(by_word)), half

    def _decode_block(self):
        pending = self._pending
        key = pending is not None
        if key not in self._plans:
            self._plans[key] = self._plan(key)
        raws, indices, end = self._plans[key]
        state = self._bitgen.state
        raw = self._bitgen.random_raw(raws)
        words = np.empty(2 * raws + 1, dtype=np.uint32)
        words[0] = 0 if pending is None else pending
        # low half first on a little-endian machine (the self-check of
        # ``_decoder_matches_numpy`` covers any other)
        words[1:] = raw.view(np.uint32)
        blocks = []
        index = iter(indices)
        for bound in self._bounds:
            if bound == 1:
                blocks.append(np.zeros((self._sweeps, self._s), dtype=np.uint64))
            elif bound is None:
                blocks.append((raw[next(index)] >> 11) * 2.0**-53)
            else:
                values, accepted = _lemire(words[next(index)], bound)
                if not accepted.all():
                    # random_raw leaves the state's pending half as it was
                    state["has_uint32"] = int(pending is not None)
                    state["uinteger"] = 0 if pending is None else pending
                    self._bitgen.state = state
                    return self._draw_block()
                blocks.append(values)
        self._pending = None if end is None else int(words[end])
        ii, jj, lams, coins = _exchanges(blocks)
        return zip(
            ii.tolist(),
            jj.tolist(),
            itertools.repeat(None) if lams is None else lams.tolist(),
            coins.tolist(),
        )

    def _draw_block(self):
        """The next block's sweeps, drawn through ``Generator`` calls."""
        sweeps = [self._draw() for _ in range(self._sweeps)]
        state = self._bitgen.state
        self._pending = state["uinteger"] if state["has_uint32"] else None
        return iter(sweeps)


@functools.cache
def _decoder_matches_numpy() -> bool:
    """Whether ``_SweepDecoder`` gives ``_draw_exchanges``' draws on the
    installed numpy; checked once per process, on a throwaway generator.

    It compares a block and one sweep more from a generator with a half
    pending, on two layouts that hold every kind of draw: 0/1 coins after
    lambdas, so a word follows a ``random()`` draw, and uniform coins.
    N/2 = 511 is odd, so halves stay pending across sweeps and blocks. On
    a mismatch ``run`` draws each sweep through ``_draw_lists``, which
    gives the same output more slowly.
    """
    n = 1023
    for rule in (
        RuleSpec(kind=RuleKind.YARD_SALE, lam=UNIFORM_LAMBDA),
        RuleSpec(kind=RuleKind.UNBIASED_LOSER, lam=0.5),
    ):
        gen, twin = (np.random.Generator(np.random.PCG64(8)) for _ in "ab")
        gen.integers(0, 3)
        twin.integers(0, 3)
        decoder = _SweepDecoder(gen, n, rule)
        for _ in range(decoder._sweeps + 1):
            if decoder.next_sweep() != _draw_lists(n, rule, twin):
                log.warning(
                    "decoded draws differ from numpy %s's Generator; "
                    "drawing through Generator calls per sweep",
                    np.__version__,
                )
                return False
    return True


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
    s = len(ii)
    kind = rule.kind
    random_lam = lams is not None
    lam = 0.0 if random_lam else (1.0 if rule.lam is None else float(rule.lam))
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
    n, rule = config.n, config.rule
    # the one source of each sweep's draws, in the form its path reads
    if n >= _ROUNDS_MIN_N:
        draw = functools.partial(_draw_exchanges, n, rule, gen)
    else:
        w = w.tolist()
        if _decoder_matches_numpy():
            # from here on the decoder alone draws from gen, ahead of the sweeps
            draw = _SweepDecoder(gen, n, rule).next_sweep
        else:
            draw = functools.partial(_draw_lists, n, rule, gen)

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
