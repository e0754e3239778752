#!/usr/bin/env python3
"""kinex benchmark: one workload, run as repeated ``kinex`` CLI invocations.

usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

NAME is mc_ensemble, mc_large_n, me_condense, me_fine_grid, or ``all`` for
the four in turn. Run it from anywhere; it uses the ``src/`` tree of the
checkout it sits in and writes only under ``.bench_work/`` there.

Each invocation is ``kinex.cli.main`` in a fresh Python subprocess. The load
is a closed loop: one invocation at a time, the next one starting when the
previous one has exited. Invocations repeat until the next one would pass
the ``--seconds`` budget (at least a workload-specific minimum). Every
invocation's outputs are checked (see ``checks.py``) and must be
byte-identical to the run's first invocation and to earlier runs of the
same source and seed. ``--trace 1`` makes a separate traced run: untraced
and traced invocations alternate, the traced ones record spans at each layer
boundary (see ``tracing.py``), and the per-layer metrics come from them.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The lines before
it are a readable report. ``README.md`` in this directory defines every
metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import check_outputs, sha256  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_PROBES = 5
# Every run must exit within 180 s; no invocation starts past this point.
HARD_LIMIT_S = 140.0
# One core per process: keeps cpu_s free of idle BLAS threads spinning and
# matches the closed-loop load model (mc_ensemble: 2 processes on 2 cores).
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1"}
ISOLATION = (
    "measures only its own processes: no cache dropping, no CPU pinning, "
    "no system-wide tracing"
)

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mib", "MiB"),
]

PER_LAYER = [
    ("engine.sweep.calls", "count"),
    ("engine.sweep.busy_s", "s"),
    ("engine.sweep.ns_per_exchange", "ns"),
    ("engine.exchanges", "count"),
    ("exchanges_per_s", "1/s"),
    ("engine.record.calls", "count"),
    ("engine.record.busy_s", "s"),
    ("engine.record.us_per_call", "us"),
    ("engine.ensemble.replica_s_p50", "s"),
    ("engine.ensemble.replica_s_max", "s"),
    ("engine.ensemble.parallel_efficiency", "ratio"),
    ("engine.ensemble.imbalance", "ratio"),
    ("metrics.gini_population.calls", "count"),
    ("metrics.gini_population.busy_s", "s"),
    ("master_eq.build_kernel.s", "s"),
    ("master_eq.kernel.retained_mib", "MiB"),
    ("master_eq.kernel.peak_mib", "MiB"),
    ("master_eq.kernel.gain_nnz", "count"),
    ("master_eq.integrate.steps", "count"),
    ("master_eq.integrate.busy_s", "s"),
    ("master_eq.integrate.self_s", "s"),
    ("master_eq.step.gini_rate_s", "s"),
    ("master_eq.step.gain_matvec_s", "s"),
    ("master_eq.step.gini_check_s", "s"),
    ("master_eq.step.liquidity_s", "s"),
    ("master_eq.step.gini_evals", "count"),
    ("master_eq.gain_matvec.flops", "count"),
    ("master_eq.gain_matvec.bytes_computed", "B"),
    ("cli.write.busy_s", "s"),
    ("cli.write.bytes", "B"),
    ("trace.overhead_s", "s"),
]

# Counts that must repeat exactly between invocations and runs of one source.
EXACT_COUNTS = [
    "engine.sweep.calls",
    "engine.exchanges",
    "engine.record.calls",
    "metrics.gini_population.calls",
    "master_eq.kernel.gain_nnz",
    "master_eq.integrate.steps",
    "master_eq.step.gini_evals",
    "master_eq.gain_matvec.flops",
    "master_eq.gain_matvec.bytes_computed",
    "cli.write.bytes",
]

_SWEEP = ["kinex.engine._sweep"]
_RECORD = ["kinex.engine._record"]
_REPLICA = ["kinex.engine._replica_curves"]
_KERNEL = ["kinex.cli.build_kernel"]
_GAIN = _KERNEL + ["DiscreteKernel.gain"]
_INTEGRATE = ["kinex.cli.integrate"]
_STEP = _INTEGRATE + ["kinex.master_eq._gini_rate_masses",
                      "kinex.master_eq._weighted_gini"] + _GAIN + [
                          "DiscreteKernel.abs_delta"]
_WRITE = ["kinex.cli._write_csv", "kinex.cli._write_metadata"]
# Hooks each per-layer metric is read from; an absent hook makes it absent.
DEPENDS = {
    "engine.sweep.calls": _SWEEP,
    "engine.sweep.busy_s": _SWEEP,
    "engine.sweep.ns_per_exchange": _SWEEP,
    "engine.exchanges": _SWEEP,
    "engine.record.calls": _RECORD,
    "engine.record.busy_s": _RECORD,
    "engine.record.us_per_call": _RECORD,
    "engine.ensemble.replica_s_p50": _REPLICA,
    "engine.ensemble.replica_s_max": _REPLICA,
    "engine.ensemble.parallel_efficiency": ["kinex.cli.run_ensemble"],
    "engine.ensemble.imbalance": _REPLICA,
    "metrics.gini_population.calls": ["kinex.engine.gini_population"],
    "metrics.gini_population.busy_s": ["kinex.engine.gini_population"],
    "master_eq.build_kernel.s": _KERNEL,
    "master_eq.kernel.retained_mib": _KERNEL,
    "master_eq.kernel.peak_mib": _KERNEL,
    "master_eq.kernel.gain_nnz": _GAIN,
    "master_eq.integrate.steps": _INTEGRATE,
    "master_eq.integrate.busy_s": _INTEGRATE,
    "master_eq.integrate.self_s": _STEP,
    "master_eq.step.gini_rate_s": _INTEGRATE + ["kinex.master_eq._gini_rate_masses"],
    "master_eq.step.gain_matvec_s": _INTEGRATE + _GAIN,
    "master_eq.step.gini_check_s": _INTEGRATE + ["kinex.master_eq._weighted_gini"],
    "master_eq.step.liquidity_s": _INTEGRATE + _KERNEL + ["DiscreteKernel.abs_delta"],
    "master_eq.step.gini_evals": _INTEGRATE + ["kinex.master_eq._weighted_gini"],
    "master_eq.gain_matvec.flops": _INTEGRATE + _GAIN,
    "master_eq.gain_matvec.bytes_computed": _INTEGRATE + _GAIN,
    "cli.write.busy_s": _WRITE,
    "cli.write.bytes": _WRITE,
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str
    flags: tuple[str, ...]
    spec: dict  # what the output checks need
    threads: int | None  # KINEX_THREADS of the CLI process
    seeded: bool  # the benchmark seed becomes the CLI --seed
    min_runs: int  # untraced invocations per run, at least

    def argv(self, seed: int, out: str) -> list[str]:
        seed_flag = ["--seed", str(seed)] if self.seeded else []
        return [self.command, *self.flags, *seed_flag, "--out", out]

    @property
    def exchanges(self) -> int:
        """Exchanges one invocation performs (0 for the master equation)."""
        s = self.spec
        if self.command == "integrate":
            return 0
        return s.get("replicas", 1) * s["sweeps"] * (s["n"] // 2)


def _mc(name, why, command, rule, n, sweeps, record_every, replicas=None,
        threads=None, min_runs=3) -> Workload:
    flags = ["--rule", rule, "--n", str(n), "--record-every", str(record_every),
             "--sweeps", str(sweeps)]
    spec = {"command": command, "n": n, "sweeps": sweeps,
            "record_every": record_every}
    if replicas is not None:
        flags += ["--replicas", str(replicas)]
        spec["replicas"] = replicas
    return Workload(name, why, command, tuple(flags), spec, threads, True, min_runs)


def _me(name, why, rule, grid, t_end: str, stop=None, min_runs=3) -> Workload:
    flags = ["--rule", rule, "--grid", grid, "--init", "point:1", "--dt", "50",
             "--t-end", t_end]
    spec = {"command": "integrate", "t_end": float(t_end)}
    if stop is not None:
        flags += ["--stop-gini", stop[0], "--stop-liquidity", stop[1]]
        spec["stop_gini"], spec["stop_liquidity"] = map(float, stop)
    return Workload(name, why, "integrate", tuple(flags), spec, None, False, min_runs)


def workloads(smoke: bool = False) -> dict[str, Workload]:
    """The four workloads; ``smoke`` shrinks every size for a quick self-test."""
    table = [
        _mc("mc_ensemble",
            "shape of acceptance criterion 7: small-N sweeps where per-call "
            "overhead and the 2-process fan-out dominate",
            "ensemble", "yardsale:lambda=0.1", n=16 if smoke else 128,
            sweeps=40 if smoke else 8000, record_every=10 if smoke else 500,
            replicas=2 if smoke else 8, threads=2),
        _mc("mc_large_n",
            "per-exchange cost of the slowest rule on a 65536-agent working "
            "set, with a Gini record every sweep; one process, no fan-out",
            "simulate", "unbiased-loser:lambda=uniform",
            n=256 if smoke else 65536, sweeps=5 if smoke else 40,
            record_every=1),
        _me("me_condense",
            "time to condensation (G >= 0.995, L <= 0.005) on the slowest "
            "configuration of acceptance criterion 5",
            "yardsale:lambda=0.5" if smoke else "yardsale:lambda=0.1",
            "log:1e-4:1e5:40" if smoke else "log:1e-4:1e5:200",
            t_end="1e5", stop=("0.995", "0.005"), min_runs=2),
        _me("me_fine_grid",
            "kernel build and memory on an 800-cell grid, plus few integrator "
            "steps on a large working set",
            "yardsale:lambda=0.5",
            "log:1e-4:1e5:40" if smoke else "log:1e-4:1e5:800",
            t_end="0.2" if smoke else "1"),
    ]
    return {w.name: w for w in table}


@dataclass
class Invocation:
    label: str  # "untraced", "traced" or "traced-1w"
    wall_s: float
    cpu_s: float
    peak_rss_mib: float
    returncode: int
    failures: list[str]
    main_s: float | None = None
    import_s: float | None = None
    csv_sha: str | None = None
    meta_sha: str | None = None
    layer: dict | None = None
    hooks: dict = field(default_factory=dict)
    versions: dict = field(default_factory=dict)
    spans: list | None = None

    @property
    def failed(self) -> bool:
        return bool(self.failures)


def child_env(threads: int | None) -> dict[str, str]:
    env = dict(os.environ)
    env.update(CHILD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("KINEX_THREADS", None)
    if threads is not None:
        env["KINEX_THREADS"] = str(threads)
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except OSError:
        pass


def spawn(argv: list[str], cwd: Path, env: dict, stdout, stderr, timeout: float):
    """Run argv to exit; returns (wall seconds, exit code, rusage).

    The rusage comes from wait4, so it covers the process and every
    descendant it waited for (the ensemble's pool workers). A process still
    running after ``timeout`` is killed with its process group.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=stdout,
                            stderr=stderr, start_new_session=True)
    timer = threading.Timer(timeout, _kill_group, (proc.pid,))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage


def _read(path: Path) -> bytes | None:
    try:
        return path.read_bytes()
    except FileNotFoundError:
        return None


def invoke(w: Workload, seed: int, inv_dir: Path, label: str,
           timeout: float) -> Invocation:
    inv_dir.mkdir(parents=True)
    traced = label != "untraced"
    threads = 1 if label == "traced-1w" else w.threads
    trace_dir = inv_dir / "spans"
    if traced:
        trace_dir.mkdir()
    out = inv_dir / "out.csv"
    argv = [sys.executable, str(BENCH_DIR / "child.py"), str(inv_dir / "result.json"),
            str(trace_dir) if traced else "-", "--", *w.argv(seed, str(out))]
    with open(inv_dir / "stdout", "wb") as so, open(inv_dir / "stderr", "wb") as se:
        wall, code, usage = spawn(argv, inv_dir, child_env(threads), so, se, timeout)
    stdout = (_read(inv_dir / "stdout") or b"").decode("utf-8", "replace")
    csv_bytes = _read(out)
    meta_bytes = _read(Path(str(out) + ".meta.json"))
    inv = Invocation(
        label=label,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mib=usage.ru_maxrss / 1024.0,
        returncode=code,
        failures=check_outputs(w.spec, code, stdout, csv_bytes, meta_bytes),
        csv_sha=sha256(csv_bytes) if csv_bytes is not None else None,
        meta_sha=sha256(meta_bytes) if meta_bytes is not None else None,
    )
    result = _read(inv_dir / "result.json")
    if result is None:
        if not inv.failures:
            inv.failures.append("no result from the benchmark child")
        return inv
    info = json.loads(result)
    inv.main_s = info["main_s"]
    inv.import_s = info["import_s"]
    inv.hooks = info["hooks"]
    inv.versions = info["versions"]
    if traced:
        spans = []
        for path in sorted(trace_dir.glob("spans-*.pickle")):
            with open(path, "rb") as fh:  # written by this benchmark's child
                spans.extend(pickle.load(fh))
        inv.spans = spans
        inv.layer = layer_values(spans, inv.hooks)
        if inv.layer.get("engine.exchanges") not in (None, w.exchanges):
            inv.failures.append(
                f"traced exchanges {inv.layer['engine.exchanges']} != {w.exchanges}")
    return inv


def layer_values(spans: list, hooks: dict) -> dict[str, float | None]:
    """Per-layer values of one traced invocation, from its spans.

    A layer the invocation never entered reads 0; a metric whose hook
    target is missing from the package reads None (absent).
    """
    by = defaultdict(list)
    for s in spans:
        by[s[2]].append(s)

    def busy(name):
        return sum(s[4] - s[3] for s in by[name])

    def total(name, key):
        return sum((s[6] or {}).get(key, 0) for s in by[name])

    def largest(name, key):
        return max(((s[6] or {}).get(key, 0) for s in by[name]), default=0)

    v: dict[str, float | None] = {}
    exchanges = total("engine.sweep", "exchanges")
    v["engine.sweep.calls"] = len(by["engine.sweep"])
    v["engine.sweep.busy_s"] = busy("engine.sweep")
    v["engine.sweep.ns_per_exchange"] = (
        1e9 * v["engine.sweep.busy_s"] / exchanges if exchanges else 0.0)
    v["engine.exchanges"] = exchanges
    v["engine.record.calls"] = len(by["engine.record"])
    v["engine.record.busy_s"] = busy("engine.record")
    v["engine.record.us_per_call"] = (
        1e6 * v["engine.record.busy_s"] / v["engine.record.calls"]
        if v["engine.record.calls"] else 0.0)

    replicas = [s[4] - s[3] for s in by["engine.replica"]]
    per_worker = defaultdict(float)
    for s in by["engine.replica"]:
        per_worker[s[5]] += s[4] - s[3]
    v["engine.ensemble.replica_s_p50"] = statistics.median(replicas) if replicas else 0.0
    v["engine.ensemble.replica_s_max"] = max(replicas, default=0.0)
    v["engine.ensemble.imbalance"] = (
        max(per_worker.values()) / statistics.fmean(per_worker.values())
        if per_worker else 0.0)
    v["engine.ensemble.wall_s"] = busy("engine.ensemble")
    v["engine.ensemble.parallel_efficiency"] = 0.0  # needs two invocations
    v["metrics.gini_population.calls"] = len(by["metrics.gini_population"])
    v["metrics.gini_population.busy_s"] = busy("metrics.gini_population")

    v["master_eq.build_kernel.s"] = busy("master_eq.build_kernel")
    v["master_eq.kernel.retained_mib"] = largest("master_eq.build_kernel", "retained_mib")
    v["master_eq.kernel.peak_mib"] = largest("master_eq.build_kernel", "peak_mib")
    v["master_eq.kernel.gain_nnz"] = largest("master_eq.build_kernel", "gain_nnz")
    integrate_ids = {s[0] for s in by["master_eq.integrate"]}
    in_steps = sum(s[4] - s[3] for s in spans if s[1] in integrate_ids)
    v["master_eq.integrate.steps"] = total("master_eq.integrate", "steps")
    v["master_eq.integrate.busy_s"] = busy("master_eq.integrate")
    v["master_eq.integrate.self_s"] = v["master_eq.integrate.busy_s"] - in_steps
    for part in ("gini_rate", "gain_matvec", "gini_check", "liquidity"):
        v[f"master_eq.step.{part}_s"] = busy(f"master_eq.step.{part}")
    v["master_eq.step.gini_evals"] = len(by["master_eq.step.gini_check"])
    matvecs = len(by["master_eq.step.gain_matvec"])
    v["master_eq.gain_matvec.flops"] = 2 * v["master_eq.kernel.gain_nnz"] * matvecs
    v["master_eq.gain_matvec.bytes_computed"] = (
        largest("master_eq.build_kernel", "matvec_bytes") * matvecs)
    v["cli.write.busy_s"] = busy("cli.write")
    v["cli.write.bytes"] = total("cli.write", "bytes")

    for name, needed in DEPENDS.items():
        if any(hooks.get(key) is False for key in needed):
            v[name] = None
    return v


def source_digest() -> str:
    """sha256 over the package source: identifies the code under test."""
    h = hashlib.sha256()
    for path in sorted((SRC / "kinex").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def git_rev() -> str:
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def cache_sizes() -> dict[str, str]:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        caches[f"L{level} {kind}"] = size
    return caches


def steal_seconds() -> float | None:
    """Cumulative CPU time the hypervisor gave to other guests (/proc/stat)."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def calibration_ms(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python loop: the machine's speed right now.

    Not a metric of kinex. It lets a reader tell a slower machine from
    slower code when comparing runs made at different times.
    """
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(200_000):
            acc += i * 0.5
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def provenance() -> dict:
    return {
        "git_rev": git_rev(),
        "source_sha256": source_digest(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "caches": cache_sizes(),
        "loadavg_at_start": os.getloadavg(),
        "child_env": dict(CHILD_ENV),
        "isolation": ISOLATION,
    }


def probe_setup(run_dir: Path, count: int, deadline: float) -> list[float]:
    """Wall times of interpreter start plus ``import kinex.cli``.

    One untimed probe first, so that byte-compiled files exist and the
    page cache holds the libraries, as on every run a user makes after the
    first.
    """
    argv = [sys.executable, "-c", "import kinex.cli"]
    env = child_env(None)
    times = []
    for k in range(count + 1):
        wall, code, _ = spawn(argv, run_dir, env, subprocess.DEVNULL, None,
                              max(10.0, deadline - time.perf_counter()))
        if code != 0:
            raise RuntimeError(f"import kinex.cli failed with exit code {code}")
        if k:
            times.append(wall)
    return times


def summary(values: list[float]) -> dict:
    out = {"median": statistics.median(values), "n": len(values),
           "min": min(values), "max": max(values)}
    if len(values) >= 4:
        q = statistics.quantiles(values, n=4)
        out["p25"], out["p75"] = q[0], q[2]
    return out


class Registry:
    """Output hashes and exact counts of earlier runs, keyed by source and seed."""

    def __init__(self, path: Path):
        self.path = path
        try:
            self.data = json.loads(path.read_text())
        except (FileNotFoundError, ValueError):
            self.data = {}

    def check(self, key: str, outputs: dict, counts: dict | None) -> list[str]:
        """Compare with the stored entry (storing what is new); return mismatches."""
        entry = self.data.setdefault(key, {})
        problems = []
        for field_name, value in [("outputs", outputs), ("counts", counts)]:
            if value is None:
                continue
            if field_name not in entry:
                entry[field_name] = value
            elif entry[field_name] != value:
                problems.append(
                    f"{field_name} differ from an earlier run of this source and seed: "
                    f"{entry[field_name]} != {value}")
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.data, indent=1, sort_keys=True))
        os.replace(tmp, self.path)
        return problems


def run_workload(w: Workload, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> dict:
    start = time.perf_counter()
    deadline = start + seconds
    hard_stop = start + HARD_LIMIT_S
    prov = provenance()
    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"run-{os.getpid()}-{w.name}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()
    steal_start = steal_seconds()
    try:
        setup = probe_setup(run_dir, 1 if smoke else SETUP_PROBES, hard_stop)
        prov["calibration_ms"] = calibration_ms()
        labels = ["untraced"]
        if trace:
            labels.append("traced")
            if w.threads and w.threads > 1:
                labels.append("traced-1w")
        min_rounds = 1 if trace else w.min_runs
        invocations: list[Invocation] = []
        round_times = []
        while True:
            t0 = time.perf_counter()
            for label in labels:
                timeout = max(10.0, hard_stop + 30.0 - time.perf_counter())
                invocations.append(invoke(w, seed, run_dir / f"inv{len(invocations)}",
                                          label, timeout))
            now = time.perf_counter()
            round_times.append(now - t0)
            expected_end = now + statistics.median(round_times)
            if len(round_times) >= min_rounds and expected_end > deadline:
                break
            if expected_end > hard_stop:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    steal_end = steal_seconds()
    if steal_start is not None and steal_end is not None:
        prov["steal_s_during_run"] = steal_end - steal_start
    check_identity(invocations)
    first = invocations[0]
    traced = [inv for inv in invocations if inv.layer is not None]
    counts = None
    if traced:
        counts = {name: traced[0].layer[name] for name in EXACT_COUNTS}
        for inv in traced[1:]:
            got = {name: inv.layer[name] for name in EXACT_COUNTS}
            if got != counts:
                inv.failures.append(f"exact counts differ within the run: {got} != {counts}")
    key = (f"kinex {' '.join(w.argv(seed if w.seeded else 0, 'out.csv'))} "
           f"src={prov['source_sha256']}")
    problems = []
    if not first.failed:
        problems = Registry(WORK / "registry.json").check(
            key, {"csv_sha256": first.csv_sha, "meta_sha256": first.meta_sha}, counts)
    if problems:
        for inv in invocations:
            inv.failures.extend(problems)

    untraced = [inv for inv in invocations if inv.label == "untraced"]
    e2e = {
        "wall_s": summary([inv.wall_s for inv in untraced]),
        "setup_s": summary(setup),
        "cpu_s": summary([inv.cpu_s for inv in untraced]),
        "peak_rss_mib": summary([inv.peak_rss_mib for inv in untraced]),
    }
    main_times = [inv.main_s for inv in untraced if inv.main_s]
    rate = (statistics.median(w.exchanges / t for t in main_times)
            if w.exchanges and main_times else 0.0)
    attempted = len(invocations)
    failed = sum(inv.failed for inv in invocations)

    layer = None
    if trace:
        layer = per_layer(invocations, rate)
    metrics_out = {}
    for name, unit in (PER_LAYER if trace else END_TO_END):
        value = layer[name] if trace else e2e[name]["median"]
        metrics_out[name] = {"value": value, "unit": unit}

    versions = next((inv.versions for inv in invocations if inv.versions), {})
    report = {
        "workload": w.name,
        "why": w.why,
        "argv": w.argv(seed, "out.csv"),
        "seed": seed if w.seeded else f"{seed} (ignored: deterministic workload)",
        "kinex_threads": w.threads,
        "trace": trace,
        "smoke": smoke,
        "seconds": seconds,
        "elapsed_s": time.perf_counter() - start,
        "provenance": {**prov, **versions},
        "end_to_end": e2e,
        "exchanges_per_s": rate,
        "error_rate": failed / attempted,
        "outputs": {"csv_sha256": first.csv_sha, "meta_sha256": first.meta_sha},
        "per_layer": layer,
        "invocations": [
            {"label": inv.label, "wall_s": inv.wall_s, "cpu_s": inv.cpu_s,
             "peak_rss_mib": inv.peak_rss_mib, "main_s": inv.main_s,
             "import_s": inv.import_s, "returncode": inv.returncode,
             "failures": inv.failures}
            for inv in invocations
        ],
    }
    if traced:
        write_spans(WORK / f"spans-{w.name}.jsonl", traced[0].spans)
    (WORK / f"report-{w.name}-trace{int(trace)}.json").write_text(
        json.dumps(report, indent=1))
    print_report(report)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics_out}


def check_identity(invocations: list[Invocation]) -> None:
    """Fail every invocation whose output bytes differ from the first one's."""
    first = invocations[0]
    for inv in invocations[1:]:
        if (inv.csv_sha, inv.meta_sha) != (first.csv_sha, first.meta_sha):
            inv.failures.append("output bytes differ from the run's first invocation")


def per_layer(invocations: list[Invocation], rate: float) -> dict:
    """Medians over the traced (full worker count) invocations."""
    traced = [inv for inv in invocations if inv.label == "traced"]
    one_worker = [inv for inv in invocations if inv.label == "traced-1w"]
    untraced = [inv for inv in invocations if inv.label == "untraced"]
    out = {}
    for name, _ in PER_LAYER:
        values = [inv.layer.get(name) for inv in traced if inv.layer]
        if not values or any(v is None for v in values):
            out[name] = None
        elif name in EXACT_COUNTS:
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    out["exchanges_per_s"] = rate
    two = [inv.layer["engine.ensemble.wall_s"] for inv in traced if inv.layer]
    one = [inv.layer["engine.ensemble.wall_s"] for inv in one_worker if inv.layer]
    if out["engine.ensemble.parallel_efficiency"] is not None:
        out["engine.ensemble.parallel_efficiency"] = (
            statistics.median(one) / (2 * statistics.median(two))
            if one and two and min(two) > 0 else 0.0)
    out["trace.overhead_s"] = (
        statistics.median(inv.wall_s for inv in traced)
        - statistics.median(inv.wall_s for inv in untraced))
    return out


def write_spans(path: Path, spans: list) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for sid, parent, name, t0, t1, pid, attrs in sorted(spans, key=lambda s: s[3]):
            fh.write(json.dumps({"name": name, "start": t0, "end": t1, "id": sid,
                                 "parent": parent, "pid": pid, "attrs": attrs}) + "\n")


def _fmt(value) -> str:
    if value is None:
        return "absent"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def print_report(r: dict) -> None:
    p = r["provenance"]
    print(f"== {r['workload']}  trace={int(r['trace'])}  seed={r['seed']}  "
          f"smoke={r['smoke']}")
    print(f"   why: {r['why']}")
    print(f"   argv: kinex {' '.join(r['argv'])}  KINEX_THREADS={r['kinex_threads']}")
    print(f"   rev {p['git_rev']}  src sha256 {p['source_sha256'][:16]}  "
          f"python {p.get('python')} numpy {p.get('numpy')} scipy {p.get('scipy')}")
    print(f"   nproc {p['nproc']} (allowed {p['cpus_allowed']})  caches {p['caches']}  "
          f"loadavg {tuple(round(x, 2) for x in p['loadavg_at_start'])}")
    print(f"   machine speed: calibration loop {_fmt(p['calibration_ms'])} ms; "
          f"hypervisor steal during run {_fmt(p.get('steal_s_during_run'))} s")
    print(f"   env {p['child_env']}; {p['isolation']}")
    units = dict(END_TO_END)
    for name, s in r["end_to_end"].items():
        quart = f"  p25 {_fmt(s['p25'])} p75 {_fmt(s['p75'])}" if "p25" in s else ""
        print(f"   {name:<14} {_fmt(s['median']):>12} {units[name]:<5} median of "
              f"{s['n']}  min {_fmt(s['min'])} max {_fmt(s['max'])}{quart}")
    n = len([i for i in r["invocations"] if i["label"] == "untraced"])
    if r["exchanges_per_s"]:
        print(f"   {'exchanges_per_s':<14} {_fmt(r['exchanges_per_s']):>12} 1/s   "
              f"median of {n}")
    else:
        print(f"   {'exchanges_per_s':<14} {'n/a':>12} 1/s   (no exchanges in this workload)")
    failed = [i for i in r["invocations"] if i["failures"]]
    print(f"   {'error_rate':<14} {_fmt(r['error_rate']):>12} 1     "
          f"{len(failed)} of {len(r['invocations'])} invocations failed")
    print(f"   check: {'ok' if not failed else 'FAILED'}  csv sha256 "
          f"{r['outputs']['csv_sha256']}  meta sha256 {r['outputs']['meta_sha256']}")
    for inv in failed[:5]:
        print(f"   failure ({inv['label']}): {'; '.join(inv['failures'][:3])}")
    if r["per_layer"] is not None:
        units = dict(PER_LAYER)
        for name, value in r["per_layer"].items():
            if name in units:
                print(f"   {name:<38} {_fmt(value):>14} {units[name]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads(), "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one setup probe: a quick self-test")
    args = parser.parse_args(argv)
    if not (SRC / "kinex" / "cli.py").is_file():
        print(f"perfbench: no kinex package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    table = workloads(args.smoke)
    names = list(table) if args.workload == "all" else [args.workload]
    results = {name: run_workload(table[name], args.seed, args.seconds,
                                  bool(args.trace), args.smoke)
               for name in names}
    if len(results) == 1:
        line = results[names[0]]
    else:
        line = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
