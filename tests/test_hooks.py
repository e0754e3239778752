"""Guards for names that code outside the package looks up by string.

The benchmark in ``perfbench/`` reads each per-layer metric from hooks that
wrap module attributes by name (``DEPENDS`` in ``perfbench/run.py``); a hook
whose target is gone makes its metric read null instead of failing, and a
hook that is no longer called reads 0. These tests turn such a rename, or
a hook left uncalled by the CLI runs the benchmark makes, into a failure,
and check the package's exports.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import kinex
import kinex.cli
from kinex import RuleKind, RuleSpec, build_grid, build_kernel
from kinex.master_eq import LinearScheme, PointMass

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"


def _benchmark_hooks() -> list[str]:
    """Every hook name in the benchmark's DEPENDS table."""
    saved_path = list(sys.path)
    spec = importlib.util.spec_from_file_location(
        "_perfbench_run", BENCH_DIR / "run.py"
    )
    run = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = run  # its dataclasses look their module up
    try:
        spec.loader.exec_module(run)
    finally:
        # run.py puts its own directory on sys.path to import its siblings
        sys.path[:] = saved_path
        for name, module in list(sys.modules.items()):
            if Path(getattr(module, "__file__", None) or "/").parent == BENCH_DIR:
                del sys.modules[name]
    return sorted({hook for needed in run.DEPENDS.values() for hook in needed})


HOOKS = _benchmark_hooks()


@pytest.mark.parametrize("hook", [h for h in HOOKS if h.startswith("kinex.")])
def test_benchmark_hook_resolves(hook):
    module_name, _, attr = hook.rpartition(".")
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), hook


def test_benchmark_kernel_attributes_exist():
    grid = build_grid(LinearScheme(10.0, 16), PointMass(1.0))
    kernel = build_kernel(RuleSpec(kind=RuleKind.YARD_SALE, lam=0.5), grid)
    kernel_hooks = [h for h in HOOKS if h.startswith("DiscreteKernel.")]
    assert kernel_hooks
    for hook in kernel_hooks:
        assert getattr(kernel, hook.partition(".")[2], None) is not None, hook


@pytest.mark.parametrize("name", kinex.__all__)
def test_exported_name_resolves(name):
    assert hasattr(kinex, name), name


@pytest.mark.parametrize("n", [64, 8192])
def test_run_calls_sweep_once_per_sweep(monkeypatch, n):
    # the benchmark counts sweeps at engine._sweep, and each sweep makes
    # one call of the compiled draw and one of the compiled loop
    import types

    import kinex.engine as engine

    module = engine._compiled_sweep()
    calls = {"_sweep": 0, "draw": 0, "loop": 0}

    def counted(name, inner):
        def call(*args):
            calls[name] += 1
            return inner(*args)

        return call

    monkeypatch.setattr(engine, "_sweep", counted("_sweep", engine._sweep))
    counted_module = module and types.SimpleNamespace(
        draw=counted("draw", module.draw), sweep=counted("loop", module.sweep)
    )
    monkeypatch.setattr(engine, "_compiled_sweep", lambda: counted_module)
    config = engine.SimConfig(
        n=n, rule=RuleSpec(kind=RuleKind.YARD_SALE, lam=0.5), max_sweeps=3
    )
    engine.run(config)
    compiled = 3 if module else 0
    assert calls == {"_sweep": 3, "draw": compiled, "loop": compiled}


@pytest.mark.parametrize("n", [64, 4096])
def test_traced_exchange_count_is_the_sweeps_draws(monkeypatch, n):
    # the benchmark's tracer counts a sweep's exchanges as len(args[0]) // 2
    # of engine._sweep (perfbench/tracing.py), so the wealth must stay the
    # first argument, and the sweep's draws must hold that many exchanges
    import kinex.engine as engine

    inner = engine._sweep
    counts = []

    def counted(*args):
        counts.append((len(args[0]) // 2, len(args[2][0])))
        return inner(*args)

    monkeypatch.setattr(engine, "_sweep", counted)
    config = engine.SimConfig(
        n=n, rule=RuleSpec(kind=RuleKind.YARD_SALE, lam=0.5), max_sweeps=2
    )
    engine.run(config)
    assert counts == [(n // 2, n // 2)] * 2


def _count_calls(monkeypatch, target: str) -> list:
    """Wrap the function at dotted path ``target`` so each call is counted."""
    module_name, _, attr = target.rpartition(".")
    module = importlib.import_module(module_name)
    inner = getattr(module, attr)
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, attr, counted)
    return calls


def test_simulate_calls_gini_population_once_per_record(monkeypatch, tmp_path):
    calls = _count_calls(monkeypatch, "kinex.engine.gini_population")
    code = kinex.cli.main([
        "simulate", "--rule", "yardsale:lambda=0.5", "--n", "16",
        "--sweeps", "3", "--record-every", "1", "--out", str(tmp_path / "s.csv"),
    ])
    assert code == 0
    assert len(calls) == 3


def test_integrate_calls_gini_hooks_once_per_step(monkeypatch, tmp_path):
    gini = _count_calls(monkeypatch, "kinex.master_eq._weighted_gini")
    rate = _count_calls(monkeypatch, "kinex.master_eq._gini_rate_masses")
    # the product with the gain operator has no hook of its own: the
    # compiled path reads gain's arrays inside _rhs_masses, once for the
    # initial state and once for each state a step reaches
    products = _count_calls(monkeypatch, "kinex.master_eq._rhs_masses")
    out = tmp_path / "i.csv"
    code = kinex.cli.main([
        "integrate", "--rule", "yardsale:lambda=0.5", "--grid", "log:1e-3:1e3:40",
        "--init", "point:1", "--dt", "1", "--t-end", "5", "--out", str(out),
    ])
    assert code == 0
    steps = len(out.read_text().splitlines()) - 1
    assert steps >= 5
    assert len(gini) == 1 + steps
    assert len(rate) == steps
    assert len(products) == 1 + steps
