"""Span tracer for the traced benchmark run, installed from outside the package.

Every hook replaces a module attribute of kinex (or an attribute of the
kernel object ``build_kernel`` returns) with a wrapper that records a span:
(id, parent id, name, start, end, pid, attributes). The package source is
never edited. A hook whose target does not exist is recorded as absent, so
the metrics derived from it read "absent" instead of 0.

Spans stay in memory and are written out (pickled) by each Monte Carlo
replica when it ends (replicas may run in forked pool workers, which
inherit the hooks) and by the invoking process when the CLI call returns.
``perf_counter`` is the system-wide monotonic clock on Linux, so spans from
different processes share one time axis.
"""

from __future__ import annotations

import functools
import os
import pickle
import time
import tracemalloc
from pathlib import Path

MIB = 1024.0 * 1024.0


class Tracer:
    def __init__(self, out_dir: str):
        self.out_dir = Path(out_dir)
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.hooks: dict[str, bool] = {}
        self.pid = os.getpid()
        self._seq = 0
        self._files = 0
        # getpid is a system call; keep it off the per-span path
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        self.pid = os.getpid()

    def begin(self) -> tuple[int, int, float]:
        self._seq += 1
        sid = (self.pid << 32) | self._seq
        parent = self.stack[-1] if self.stack else 0
        self.stack.append(sid)
        return sid, parent, time.perf_counter()

    def end(self, token, name: str, attrs: dict | None = None,
            t1: float | None = None) -> None:
        if t1 is None:
            t1 = time.perf_counter()
        sid, parent, t0 = token
        self.stack.pop()
        self.spans.append((sid, parent, name, t0, t1, self.pid, attrs))

    def flush(self, start: int = 0) -> None:
        """Write spans[start:] to a new file and drop them from memory."""
        self._files += 1
        path = self.out_dir / f"spans-{self.pid}-{self._files}.pickle"
        with open(path, "wb") as fh:
            pickle.dump(self.spans[start:], fh, protocol=pickle.HIGHEST_PROTOCOL)
        del self.spans[start:]

    def wrap(self, owner, attr: str, name: str, attrs=None):
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``attrs(args, result)`` computes span attributes after the timed
        call returns. Returns the original, or None when the target is absent.
        """
        key = f"{owner.__name__}.{attr}"
        orig = getattr(owner, attr, None)
        self.hooks[key] = callable(orig)
        if not callable(orig):
            return None
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            token = tracer.begin()
            ok = False
            try:
                result = orig(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = time.perf_counter()
                extra = attrs(args, result) if ok and attrs is not None else None
                tracer.end(token, name, extra, t1)

        setattr(owner, attr, wrapper)
        return orig


class _Matvec:
    """Stands in for a matrix attribute of the kernel; times each ``@``."""

    def __init__(self, tracer: Tracer, name: str, matrix):
        self._tracer = tracer
        self._name = name
        self._matrix = matrix

    def __matmul__(self, v):
        token = self._tracer.begin()
        try:
            return self._matrix @ v
        finally:
            self._tracer.end(token, self._name)

    def __getattr__(self, attr):
        return getattr(self._matrix, attr)


def _gain_bytes(gain) -> int:
    """Bytes one ``gain @ v`` reads and writes, computed from array sizes:
    the CSR arrays, the n*n outer-product vector and the n-cell result."""
    cells = gain.shape[0]
    arrays = gain.data.nbytes + gain.indices.nbytes + gain.indptr.nbytes
    return arrays + 8 * cells * cells + 8 * cells


def install(tracer: Tracer) -> None:
    """Hook every layer boundary the benchmark reports on."""
    import kinex.cli as cli
    import kinex.engine as engine
    import kinex.master_eq as master_eq

    # engine: the sweep loop, per-record metrics, one trajectory, the fan-out
    tracer.wrap(engine, "_sweep", "engine.sweep",
                lambda a, r: {"exchanges": len(a[0]) // 2})
    tracer.wrap(engine, "_record", "engine.record")
    tracer.wrap(engine, "gini_population", "metrics.gini_population")
    tracer.wrap(cli, "run", "engine.run")
    tracer.wrap(cli, "run_ensemble", "engine.ensemble")
    replica = tracer.wrap(engine, "_replica_curves", "engine.replica")
    if replica is not None:
        traced_replica = engine._replica_curves

        @functools.wraps(replica)
        def replica_and_flush(args):
            start = len(tracer.spans)
            result = traced_replica(args)
            tracer.flush(start)
            return result

        engine._replica_curves = replica_and_flush

    # master_eq: kernel build (with its memory), the integrator, step parts
    tracer.wrap(master_eq, "_gini_rate_masses", "master_eq.step.gini_rate")
    tracer.wrap(master_eq, "_weighted_gini", "master_eq.step.gini_check")
    tracer.wrap(cli, "integrate", "master_eq.integrate",
                lambda a, r: {"steps": r[1].steps})
    build = getattr(cli, "build_kernel", None)
    tracer.hooks["kinex.cli.build_kernel"] = callable(build)
    if callable(build):

        @functools.wraps(build)
        def traced_build(*args, **kwargs):
            tracemalloc.start()
            token = tracer.begin()
            kernel = None
            try:
                kernel = build(*args, **kwargs)
                return kernel
            finally:
                t1 = time.perf_counter()
                current, peak = tracemalloc.get_traced_memory()
                tracemalloc.stop()
                attrs = {"retained_mib": current / MIB, "peak_mib": peak / MIB}
                if kernel is not None:
                    _hook_kernel(tracer, kernel, attrs)
                tracer.end(token, "master_eq.build_kernel", attrs, t1)

        cli.build_kernel = traced_build

    # cli: output files
    tracer.wrap(cli, "_write_csv", "cli.write",
                lambda a, r: {"bytes": os.path.getsize(a[0])})
    tracer.wrap(cli, "_write_metadata", "cli.write",
                lambda a, r: {"bytes": os.path.getsize(a[0].out + ".meta.json")
                              if a[0].out else 0})


def _hook_kernel(tracer: Tracer, kernel, attrs: dict) -> None:
    gain = getattr(kernel, "gain", None)
    tracer.hooks["DiscreteKernel.gain"] = gain is not None
    if gain is not None:
        attrs["gain_nnz"] = int(gain.nnz)
        attrs["matvec_bytes"] = _gain_bytes(gain)
        kernel.gain = _Matvec(tracer, "master_eq.step.gain_matvec", gain)
    abs_delta = getattr(kernel, "abs_delta", None)
    tracer.hooks["DiscreteKernel.abs_delta"] = abs_delta is not None
    if abs_delta is not None:
        kernel.abs_delta = _Matvec(tracer, "master_eq.step.liquidity", abs_delta)
