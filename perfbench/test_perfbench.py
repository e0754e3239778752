"""Tests of the benchmark itself: metric coverage, output checks, tracing.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from checks import INTEGRATE_HEADER, check_outputs  # noqa: E402
from tracing import Tracer  # noqa: E402

ME_SPEC = {"command": "integrate", "t_end": 0.3}
ME_ROWS = [
    "0.1,0.1,0.02,0.05,0.04,0.05,0,0",
    "0.2,0.1,0.03,0.05,0.04,0.05,0,1e-16",
    "0.3,0.1,0.04,0.05,0.04,0.05,-1e-16,0",
]
ME_STDOUT = "steps=3 t_final=0.3 gini_final=0.04 stopped_early=False\n"
ME_META = json.dumps({"command": "integrate"}).encode()


def _me_csv(rows) -> bytes:
    return ("\n".join([INTEGRATE_HEADER, *rows]) + "\n").encode()


def _run_smoke(trace: int) -> tuple[dict, str]:
    out = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", "all",
         "--smoke", "--seconds", "1", "--seed", "3", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1]), out.stdout


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_emits_every_metric_with_its_unit(trace):
    line, report = _run_smoke(trace)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 4
    expected = run.PER_LAYER if trace else run.END_TO_END
    for workload in run.workloads():
        assert f"== {workload}  trace={trace}" in report
        for name, unit in expected:
            metric = line["metrics"][f"{workload}/{name}"]
            assert metric["unit"] == unit
            assert isinstance(metric["value"], (int, float)), (workload, name)
    for name in ("wall_s", "setup_s", "cpu_s", "peak_rss_mib", "exchanges_per_s",
                 "error_rate"):
        assert f"   {name} " in report
    if trace:
        m = line["metrics"]
        ens = run.workloads(smoke=True)["mc_ensemble"]
        assert m["mc_ensemble/engine.exchanges"]["value"] == ens.exchanges
        assert m["mc_ensemble/engine.ensemble.parallel_efficiency"]["value"] > 0
        assert m["me_condense/master_eq.integrate.steps"]["value"] > 0
        assert (m["me_condense/master_eq.step.gini_evals"]["value"]
                >= m["me_condense/master_eq.integrate.steps"]["value"] + 1)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.workloads())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER


def test_clean_me_output_passes():
    assert check_outputs(ME_SPEC, 0, ME_STDOUT, _me_csv(ME_ROWS), ME_META) == []


@pytest.mark.parametrize("row, fault", [
    ("0.3,0.1,0.04,0.05,0.04,0.05,2e-8,0", "mass_drift"),
    ("0.3,0.1,0.04,0.05,0.04,0.05,0,-3e-8", "mean_drift"),
    ("0.3,0.1,0.0299,0.05,0.04,0.05,0,0", "dG"),
    ("0.3,0.1,0.04,0.05,0.04,1.000001,0,0", "bound_ratio"),
])
def test_checker_flags_a_bad_row(row, fault):
    failures = check_outputs(ME_SPEC, 0, ME_STDOUT, _me_csv(ME_ROWS[:2] + [row]), ME_META)
    assert any(fault in f for f in failures), failures


def test_checker_flags_nonzero_exit():
    assert check_outputs(ME_SPEC, 3, ME_STDOUT, _me_csv(ME_ROWS), ME_META) == ["exit code 3"]


def test_checker_flags_missed_condensation():
    spec = {**ME_SPEC, "stop_gini": 0.995, "stop_liquidity": 0.005}
    failures = check_outputs(spec, 0, ME_STDOUT, _me_csv(ME_ROWS), ME_META)
    assert "integration did not stop early" in failures


def test_checker_flags_mc_row_count_and_mean():
    spec = {"command": "simulate", "n": 4, "sweeps": 2, "record_every": 1}
    header = "t,gini,liquidity,mean_wealth,top_share,zero_fraction,gini_gap"
    csv = f"{header}\n1,0.2,0.1,1,0.3,0,0.55\n".encode()
    meta = json.dumps({"command": "simulate"}).encode()
    assert check_outputs(spec, 0, "", csv, meta) == ["1 rows, expected 2"]
    csv += b"2,0.8,0.1,0.999,0.3,0,0\n"
    failures = check_outputs(spec, 0, "", csv, meta)
    assert any("outside" in f for f in failures)
    assert any("mean_wealth" in f for f in failures)


def _invocation(csv_sha):
    return run.Invocation("untraced", 1.0, 1.0, 50.0, 0, [], csv_sha=csv_sha,
                          meta_sha="m")


def test_mismatched_bytes_fail_the_invocation(tmp_path):
    invocations = [_invocation("a"), _invocation("a"), _invocation("b")]
    run.check_identity(invocations)
    assert [inv.failed for inv in invocations] == [False, False, True]

    registry = run.Registry(tmp_path / "registry.json")
    assert registry.check("k", {"csv_sha256": "a"}, {"steps": 3}) == []
    assert run.Registry(tmp_path / "registry.json").check(
        "k", {"csv_sha256": "a"}, {"steps": 3}) == []
    assert registry.check("k", {"csv_sha256": "b"}, None)
    assert registry.check("k", {"csv_sha256": "a"}, {"steps": 4})


def test_missing_hook_target_reads_absent(tmp_path):
    tracer = Tracer(str(tmp_path))
    module = types.SimpleNamespace(__name__="kinex.engine")
    assert tracer.wrap(module, "_sweep", "engine.sweep") is None
    assert tracer.hooks == {"kinex.engine._sweep": False}
    values = run.layer_values([], tracer.hooks)
    assert values["engine.sweep.busy_s"] is None
    assert values["engine.record.busy_s"] == 0


def test_refuses_to_run_without_the_source(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in run.BENCH_DIR.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    out = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "mc_large_n",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0 and out.stdout == ""
