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
function of its draws: ``run`` draws each sweep, then hands the draws to
``_sweep``. ``_draw_exchanges`` draws the layout with ``Generator`` calls.

Every sweep, whatever N, is one call of the compiled module ``_sweep.c``'s
``draw``, which draws what ``_draw_exchanges`` draws, bit for bit, into
buffers kept for the run, and one of its ``sweep``. It and the Python loop
``_sweep_scalar`` each run every rule in one exchange loop, in which the
rule sets only agent i's gain on a win, its loss on a loss and the win
test, with bitwise the same wealths and sums of |delta|.
``_compiled_sweep`` builds the module on first use with the system C
compiler into a per-user cache, loads it once per process and checks its
draws against ``_draw_exchanges``. Where no compiler or ``Python.h`` is
found, or the check fails, ``_draw_exchanges`` and the Python loop run
instead, logged once. The same module holds the pair-row product of
``master_eq.PairRows`` and the Gini sums of the master equation, which
load it through ``_load``, without the draw check.

A run keeps one ``Population``, which the sweeps change and each record
reads in place; ``run`` returns it. Each record, and the final state, is
audited: a negative wealth or a wealth sum drifting from the initial total
beyond rounding raises ContractViolation.
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
    UNIFORM_LAMBDA,
    read_snapshot,
)
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

# Relative drift of the wealth sum from its initial total that the audit
# of each record accepts. Rounding alone drifted by at most 1.6e-14 in the
# runs measured (2e5 classic-loser exchanges at N=2; 3.9e-15 in 20k sweeps
# at N=128); one lost exchange at N=65536 moves the sum by about 1e-5.
_DRIFT_TOL = 1e-9

# The compiled loop's flags: no fused multiply-add, -march or fast-math,
# so that it rounds as ``_sweep_scalar`` does.
_CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")

# The rule codes of ``_sweep.c``: the order of ``RuleKind``.
_KIND_CODES = {kind: code for code, kind in enumerate(RuleKind)}

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
        if self.n >= 2**32:  # the compiled draw's 32-bit bounded integers
            raise ValueError("n must be < 2**32")
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


def _layout(n: int, rule: RuleSpec, block) -> tuple:
    """One sweep's (i, j, lambdas or None, coins), each block made by
    ``block(bound)`` in draw order: i over n values, j over n - 1 (to be
    stepped past i), the lambdas of a random-lambda rule, and the coins; a
    bound of None stands for a block of ``random()`` uniforms."""
    ii, jj = block(n), block(n - 1)
    lams = block(None) if rule.random_lambda else None
    return ii, jj, lams, block(None if rule.kind is RuleKind.UNBIASED_LOSER else 2)


def _draw_exchanges(n: int, rule: RuleSpec, gen: np.random.Generator) -> tuple:
    """One sweep's draws, drawn through ``Generator`` calls in the layout
    of ``_layout``: the N/2 exchanges' (i, j, lambdas or None, coins) as
    arrays, with j stepped past i, so j != i."""
    s = n // 2
    ii, jj, lams, coins = _layout(
        n, rule, lambda b: gen.random(size=s) if b is None else gen.integers(0, b, size=s)
    )
    jj += jj >= ii
    return ii, jj, lams, coins


def _draw_source(n: int, rule: RuleSpec, gen: np.random.Generator, module):
    """``_draw_exchanges``' draws from ``gen``'s stream, a sweep a call: the
    compiled ``draw`` of ``module``, into arrays made once, which each call
    refills and returns, or, where ``module`` is None, ``_draw_exchanges``."""
    if module is None:
        return functools.partial(_draw_exchanges, n, rule, gen)
    arrays = _layout(n, rule, lambda b: np.empty(n // 2, float if b is None else np.int64))
    draw = functools.partial(module.draw, gen.bit_generator.capsule, n, *arrays)
    # the capsule points into the bit generator but does not keep it alive
    draw.generator = gen
    return draw


def _draw_matches_numpy(module) -> bool:
    """Whether the compiled ``draw`` of ``module`` gives ``_draw_exchanges``'
    draws and leaves the generator in the same state, on the installed
    numpy, entered with a half pending: on words only at odd N/2, and on
    uniforms after words."""
    for n, rule in (
        (6, RuleSpec(kind=RuleKind.YARD_SALE, lam=0.5)),
        (128, RuleSpec(kind=RuleKind.UNBIASED_LOSER, lam=UNIFORM_LAMBDA)),
    ):
        gen, twin = (np.random.Generator(np.random.PCG64(8)) for _ in "ab")
        gen.integers(0, 3)
        twin.integers(0, 3)
        got = _draw_source(n, rule, gen, module)
        for _ in range(3):
            if not all(map(np.array_equal, got(), _draw_exchanges(n, rule, twin))):
                return False
        if gen.bit_generator.state != twin.bit_generator.state:
            return False
    return True


@functools.cache
def _compiled_sweep():
    """The module of ``_sweep.c`` (its ``draw`` and ``sweep``), once per
    process; None, logged once at WARNING, where ``_load`` gives None or
    its ``draw`` fails ``_draw_matches_numpy``."""
    module = _load()
    if module is not None and not _draw_matches_numpy(module):
        log.warning(
            "compiled draws differ from numpy %s's Generator; "
            "drawing and sweeping in Python",
            np.__version__,
        )
        return None
    return module


@functools.cache
def _load():
    """The module of ``_sweep.c``, loaded once per process; None, logged
    once at WARNING, where it cannot be built. The Monte Carlo runs reach
    it through ``_compiled_sweep``, the master-equation products of
    ``master_eq.PairRows`` directly; where it is None, they sweep in
    Python and multiply with numpy's ``bincount``. Builds are cached in
    ``$XDG_CACHE_HOME/kinex`` (``~/.cache/kinex``) under the sha256 of the
    source, ``_CFLAGS`` and the extension suffix. A cache directory others
    may write to is never read: the module is then built in a private one."""
    from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
    from importlib.util import module_from_spec, spec_from_loader

    cache = os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache")
    cache = os.path.join(cache, "kinex")
    try:
        os.makedirs(cache, mode=0o700, exist_ok=True)
        st = os.stat(cache)
        private = st.st_uid == os.getuid() and not st.st_mode & 0o022
    except OSError:
        private = False
    source = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_sweep.c")
    suffix = EXTENSION_SUFFIXES[0]
    try:  # CPython's own sha256: hashlib's loads OpenSSL, 3.6 MiB resident
        from _sha2 import sha256  # Python >= 3.12
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:  # a CPython built without either
            from hashlib import sha256
    try:
        with open(source, "rb") as f:
            key = sha256(f.read() + repr((_CFLAGS, suffix)).encode()).hexdigest()
        path = os.path.join(cache, f"_sweep-{key[:32]}{suffix}")
        if not (private and os.path.isfile(path)):
            path = _build(source, path, private)
        loader = ExtensionFileLoader("kinex._sweep", path)
        module = module_from_spec(spec_from_loader(loader.name, loader))
        loader.exec_module(module)
    except (OSError, ImportError) as e:
        log.warning(
            "no compiled module (%s); sweeping in Python and multiplying "
            "master-equation operators with numpy", e
        )
        return None
    if os.path.dirname(path) != cache:  # a private build, loaded
        import shutil

        shutil.rmtree(os.path.dirname(path))
    return module


def _build(source: str, path: str, private: bool) -> str:
    """Compile ``source`` to ``path``, or, where the cache is not ``private``
    or writable, to a fresh private directory, and return where: through a
    temporary file renamed into place, so that no reader sees half a build.
    Raises OSError where no compiler or ``Python.h`` is found, or it fails."""
    import shutil
    import subprocess
    import sysconfig
    import tempfile

    cc = next(filter(None, map(shutil.which, ("cc", "gcc", "clang"))), None)
    include = sysconfig.get_paths()["include"]
    if cc is None or not os.path.isfile(os.path.join(include, "Python.h")):
        raise OSError(f"no C compiler on PATH or no Python.h in {include}")
    folder, name = os.path.split(path)
    if not (private and os.access(folder, os.W_OK)):
        folder = tempfile.mkdtemp(prefix="kinex-")
    fd, tmp = tempfile.mkstemp(dir=folder)
    os.close(fd)
    cmd = [cc, *_CFLAGS, "-I", include, source, "-o", tmp]
    done = subprocess.run(cmd, capture_output=True, text=True)
    if done.returncode:
        os.unlink(tmp)
        raise OSError(f"{cc} failed: {done.stderr.strip()[-500:]}")
    os.replace(tmp, os.path.join(folder, name))
    return os.path.join(folder, name)


def _sweep(w: np.ndarray, rule: RuleSpec, draws: tuple) -> float:
    """Run one sweep's exchanges on the wealth array ``w`` in place, in one
    call of the compiled loop (or ``_sweep_scalar`` where it is missing);
    returns the sum of |delta| over them. ``draws`` is the sweep's (i, j,
    lambdas or None, coins) from ``_draw_exchanges``, as arrays."""
    module = _compiled_sweep()
    if module is None:
        return _sweep_scalar(w, rule, draws)
    lam = 1.0 if draws[2] is not None or rule.lam is None else rule.lam
    return module.sweep(_KIND_CODES[rule.kind], w, lam, *draws)


def _sweep_scalar(w: np.ndarray, rule: RuleSpec, draws: tuple) -> float:
    """``_sweep`` in Python, one exchange at a time on lists of the arrays:
    the reference of the compiled loop and its fallback. One loop serves
    every rule: the rule sets agent i's gain ``up`` on a win and its loss
    ``down`` on a loss, ``rules.two_point_law``'s atoms for one exchange
    (the vectorised law called per exchange would dominate the loop), and
    the win test; tests pin the two. Raises ValueError, before it writes,
    on draws of unequal lengths or an exchange whose agents are equal or not
    in ``w``."""
    if len({len(a) for a in draws if a is not None}) > 1:
        raise ValueError("ii, jj, lams and coins must have equal lengths")
    ii, jj, n = draws[0], draws[1], len(w)
    lo, hi = np.minimum(ii, jj), np.maximum(ii, jj)
    bad = (lo < 0) | (hi >= n) | (lo == hi)
    if bad.any():
        k = int(bad.argmax())
        raise ValueError(f"exchange {k} pairs agents {ii[k]} and {jj[k]} of {n}")
    arr, w = w, w.tolist()
    ii, jj, lams, coins = (None if a is None else a.tolist() for a in draws)
    kind = rule.kind
    yard_sale, harmonic = kind is RuleKind.YARD_SALE, kind is RuleKind.IGLESIAS_ALMEIDA
    uniform = kind is RuleKind.UNBIASED_LOSER
    if lams is None:
        lams = itertools.repeat(1.0 if rule.lam is None else float(rule.lam))
    sum_abs = 0.0
    for i, j, lam, coin in zip(ii, jj, lams, coins):
        wi = w[i]
        wj = w[j]
        if yard_sale:
            up = down = lam * (wi if wi < wj else wj)
        elif harmonic:
            tot = wi + wj
            up = wi * wj
            # a product below the normal range keeps too few bits to divide
            # (the guard of rules.harmonic_transfer)
            if up >= _TINY:
                up /= tot
            elif tot > 0.0:
                up = wi * (wj / tot)
            # rounding at extreme wealth ratios can overshoot min(wi, wj)
            # by an ulp; clamp to keep the loser's wealth non-negative
            mn = wi if wi < wj else wj
            up = down = mn if up > mn else up
        else:  # the loser rules
            tot = wi + wj
            up = lam * wj
            down = lam * wi
        # agent i wins on its coin, or, unbiased, on a uniform below p_plus
        if (tot > 0.0 and coin < wi / tot) if uniform else coin:
            sum_abs += up
            w[i] = wi + up
            w[j] = wj - up
        else:
            sum_abs += down
            w[i] = wi - down
            w[j] = wj + down
    arr[:] = w
    return sum_abs


def _audit(pop: Population) -> None:
    """Raise ContractViolation on negative wealth in ``pop`` or a sum
    drifted from ``pop.total``: every exchange moves one delta between two
    agents, so only rounding may move the sum."""
    arr = pop.wealth
    low = float(arr.min())
    if not low >= 0.0:
        raise ContractViolation(f"negative wealth {low!r} in the population")
    drift = abs(float(arr.sum()) - pop.total)
    if not drift <= _DRIFT_TOL * pop.total:
        raise ContractViolation(
            f"wealth sum drifted by {drift!r} from the total {pop.total!r}"
        )


def _record(pop: Population, eps_zero: float, t: int, sweep_abs: float) -> MetricsRecord:
    """The metrics of the run's ``pop``, read in place once ``_audit`` has
    passed it."""
    _audit(pop)
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
    wealth (``initial_population``, the API analog of a file initial, if
    given) with -0.0 made 0.0, returned as ``Trajectory.final_population``.
    Every sweep changes its array in place, through one ``_sweep`` call.
    Metrics are recorded every ``record_every`` sweeps; the recorded
    liquidity is the empirical estimator over the just-completed sweep.
    The run stops Condensed when every configured stop threshold is met on
    a recorded sweep, else at max_sweeps. Each record, and the final state,
    is audited (``_audit``). ``snapshot_every`` > 0 also keeps copies of
    the wealth every that many sweeps.
    """
    if snapshot_every < 0:
        raise ValueError("snapshot_every must be >= 0")
    gen = RngStream(config.seed, stream).gen
    if initial_population is not None:
        w0 = initial_population.wealth
    else:
        w0 = _initial_wealth(config, gen)
    pop = Population(w0)
    pop.wealth += 0.0  # -0.0 made 0.0
    if pop.size != config.n:
        raise ValueError(
            f"initial wealth has N={pop.size}, config expects N={config.n}"
        )
    if pop.total <= 0.0:
        raise ValueError("degenerate: zero total wealth")
    n, rule = config.n, config.rule
    w = pop.wealth
    draw = _draw_source(n, rule, gen, _compiled_sweep())

    records: list[MetricsRecord] = []
    snapshots: list[tuple[int, np.ndarray]] = []
    stop_reason = StopReason.MAX_SWEEPS
    gap_max = (n - 1) / n

    for sweep_no in range(1, config.max_sweeps + 1):
        sweep_abs = _sweep(w, rule, draw())
        if snapshot_every and sweep_no % snapshot_every == 0:
            snapshots.append((sweep_no, np.array(w)))
        if sweep_no % config.record_every != 0:
            continue
        rec = _record(pop, config.eps_zero, sweep_no, sweep_abs)
        records.append(rec)
        if (
            (config.stop_gini_gap is not None or config.stop_liquidity is not None)
            and (config.stop_gini_gap is None or gap_max - rec.gini <= config.stop_gini_gap)
            and (config.stop_liquidity is None or rec.liquidity <= config.stop_liquidity)
        ):
            stop_reason = StopReason.CONDENSED
            break

    _audit(pop)
    return Trajectory(records, pop, stop_reason, snapshots)


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
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"KINEX_THREADS must be an integer, got {env!r}") from None
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
    # built here once, not in each forked worker; the workers check its
    # draws, so that this process does not load numpy.random (6 MiB)
    _load()
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
