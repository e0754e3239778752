"""Output checks for one kinex CLI invocation.

Every check reads only what the invocation left behind (exit code, stdout,
the CSV and its ``.meta.json`` sidecar) and returns a list of failure
strings; an empty list means the invocation passed. A failed check makes
the invocation count as failed in the benchmark's error rate.
"""

from __future__ import annotations

import hashlib
import json
import re

SIM_HEADER = "t,gini,liquidity,mean_wealth,top_share,zero_fraction,gini_gap"
ENSEMBLE_HEADER = "t,gini_mean,gini_std,liquidity_mean,liquidity_std"
INTEGRATE_HEADER = (
    "t,dt,gini,gini_rate,liquidity,bound_ratio,mass_drift,mean_drift"
)
HEADERS = {
    "simulate": SIM_HEADER,
    "ensemble": ENSEMBLE_HEADER,
    "integrate": INTEGRATE_HEADER,
}

# Master-equation row invariants: conservation, monotone Gini, mobility bound.
DRIFT_TOL = 1e-8
DGINI_TOL = 1e-10
BOUND_TOL = 1e-10


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def parse_csv(text: str) -> tuple[str, list[dict[str, float]]]:
    """Header line and rows as column -> float maps."""
    lines = text.splitlines()
    if not lines:
        return "", []
    header = lines[0]
    cols = header.split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(cols):
            raise ValueError(f"row has {len(cells)} cells, header {len(cols)}")
        rows.append({c: float(v) for c, v in zip(cols, cells)})
    return header, rows


def _check_mc_rows(command: str, rows, n: int, record_every: int) -> list[str]:
    failures = []
    g_max = (n - 1) / n
    gini_col = "gini" if command == "simulate" else "gini_mean"
    for k, row in enumerate(rows, 1):
        if row["t"] != k * record_every:
            failures.append(f"row {k}: t={row['t']}, expected {k * record_every}")
        if not 0.0 <= row[gini_col] <= g_max:
            failures.append(f"row {k}: {gini_col}={row[gini_col]} outside [0, {g_max}]")
        if command == "simulate" and row["mean_wealth"] != 1.0:
            failures.append(f"row {k}: mean_wealth={row['mean_wealth']}, expected 1")
    return failures


def _check_me_rows(rows) -> list[str]:
    failures = []
    g_prev = None
    for k, row in enumerate(rows, 1):
        for col in ("mass_drift", "mean_drift"):
            if not abs(row[col]) <= DRIFT_TOL:
                failures.append(f"row {k}: |{col}|={abs(row[col])} > {DRIFT_TOL}")
        if g_prev is not None and not row["gini"] - g_prev >= -DGINI_TOL:
            failures.append(f"row {k}: dG={row['gini'] - g_prev} < -{DGINI_TOL}")
        if not row["bound_ratio"] <= 1.0 + BOUND_TOL:
            failures.append(f"row {k}: bound_ratio={row['bound_ratio']} > 1+{BOUND_TOL}")
        g_prev = row["gini"]
    return failures


def _stdout_field(stdout: str, key: str) -> str | None:
    m = re.search(rf"\b{key}=(\S+)", stdout)
    return m.group(1) if m else None


def check_outputs(spec: dict, returncode: int, stdout: str, csv_bytes: bytes | None,
                  meta_bytes: bytes | None) -> list[str]:
    """All output checks of one invocation of the workload described by ``spec``.

    ``spec`` carries the CLI ``command`` and the sizes the checks need:
    ``n``, ``sweeps`` and ``record_every`` for the Monte Carlo commands;
    ``t_end`` and optional ``stop_gini``/``stop_liquidity`` for integrate.
    """
    if returncode != 0:
        return [f"exit code {returncode}"]
    if csv_bytes is None:
        return ["CSV output missing"]
    if meta_bytes is None:
        return ["metadata sidecar missing"]
    command = spec["command"]
    failures = []
    try:
        meta = json.loads(meta_bytes)
    except ValueError as exc:
        return [f"metadata is not JSON: {exc}"]
    if meta.get("command") != command:
        failures.append(f"metadata command {meta.get('command')!r} != {command!r}")
    try:
        header, rows = parse_csv(csv_bytes.decode("ascii"))
    except ValueError as exc:
        return failures + [f"CSV unreadable: {exc}"]
    if header != HEADERS[command]:
        return failures + [f"CSV header {header!r} != {HEADERS[command]!r}"]

    if command in ("simulate", "ensemble"):
        expected = spec["sweeps"] // spec["record_every"]
        if len(rows) != expected:
            failures.append(f"{len(rows)} rows, expected {expected}")
        failures += _check_mc_rows(command, rows, spec["n"], spec["record_every"])
        return failures

    steps = _stdout_field(stdout, "steps")
    if steps is None or int(steps) != len(rows) or not rows:
        failures.append(f"{len(rows)} rows, stdout reports steps={steps}")
    failures += _check_me_rows(rows)
    if not rows:
        return failures
    last = rows[-1]
    stop_gini = spec.get("stop_gini")
    if stop_gini is None:
        if abs(last["t"] - spec["t_end"]) > 1e-9 * spec["t_end"]:
            failures.append(f"final t={last['t']}, expected t_end={spec['t_end']}")
        return failures
    if _stdout_field(stdout, "stopped_early") != "True" or last["t"] >= spec["t_end"]:
        failures.append("integration did not stop early")
    if not last["gini"] >= stop_gini:
        failures.append(f"final G={last['gini']} < {stop_gini}")
    if not last["liquidity"] <= spec["stop_liquidity"]:
        failures.append(f"final L={last['liquidity']} > {spec['stop_liquidity']}")
    return failures
