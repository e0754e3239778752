"""Acceptance criteria, one test per criterion.

Each test prints one [criterion N] PASS/FAIL line (run with ``pytest -s``
to see the lines for passing criteria as well). Stochastic criteria use
frozen seeds; numbers quoted as regressions were produced by this engine
and are not external ground truth.
"""

import functools
import math
import time

import numpy as np

from kinex import (
    Population,
    RuleKind,
    RuleSpec,
    SimConfig,
    build_grid,
    build_kernel,
    delta_distribution,
    gini_grid,
    gini_population,
    gini_rate,
    integrate,
    liquidity_grid,
    mobility_profile,
    oligarchy_surrogate,
    rhs,
    run,
    run_ensemble,
)
from kinex.master_eq import Exponential, LogScheme, PointMass
from kinex.metrics import gini_population_bruteforce

from conftest import CRITERION_12_COMMANDS, make_grid

YS = lambda lam: RuleSpec(kind=RuleKind.YARD_SALE, lam=lam)
UL = lambda lam: RuleSpec(kind=RuleKind.UNBIASED_LOSER, lam=lam)
CL = lambda lam: RuleSpec(kind=RuleKind.CLASSIC_LOSER, lam=lam)
IA = RuleSpec(kind=RuleKind.IGLESIAS_ALMEIDA)
UNBIASED = [YS(0.5), UL(0.5), IA]

ACCEPTANCE_GRID = LogScheme(1e-4, 1e5, 200)  # 200 log cells + zero cell


def criterion(number, title, budget_seconds):
    """Wrap a criterion body: time it, print one PASS/FAIL line."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {number:2d}] FAIL  {title}")
                raise
            elapsed = time.perf_counter() - t0
            print(f"[criterion {number:2d}] PASS  {title} ({elapsed:.1f} s)")
            assert elapsed < budget_seconds, (
                f"criterion {number} exceeded its {budget_seconds} s budget"
            )

        return wrapper

    return deco


@criterion(1, "Gini oracle equivalence (sorted formula vs O(N^2) double sum)", 10)
def test_criterion_01_gini_oracle_equivalence():
    gen = np.random.Generator(np.random.PCG64(101))
    for _ in range(200):
        n = int(gen.integers(2, 2001))
        wealth = gen.exponential(1.0, size=n)
        wealth[gen.random(n) < 0.1] = 0.0  # exact zeros are common states
        if wealth.sum() <= 0:
            wealth[0] = 1.0
        pop = Population(wealth)
        fast = gini_population(pop)
        slow = gini_population_bruteforce(pop)
        assert abs(fast - slow) <= 1e-12 * max(abs(slow), 1.0)


@criterion(2, "Unbiasedness of exchange laws (zero expected gain)", 5)
def test_criterion_02_unbiasedness():
    gen = np.random.Generator(np.random.PCG64(202))
    for _ in range(10_000):
        x_i = float(gen.uniform(0.0, 10.0))
        x_j = float(gen.uniform(0.0, 10.0))
        lam = float(gen.uniform(0.0, 1.0))
        for rule in UNBIASED:
            mean = delta_distribution(rule, x_i, x_j, lam=lam).mean()
            assert abs(mean) <= 1e-12 * (x_i + x_j + 1e-300)
        cl_mean = delta_distribution(CL(0.5), x_i, x_j, lam=lam).mean()
        assert abs(cl_mean - lam * (x_j - x_i) / 2.0) <= 1e-12


@criterion(3, "Absorbing state at zero wealth (law and simulation)", 30)
def test_criterion_03_absorbing_state():
    gen = np.random.Generator(np.random.PCG64(303))
    for x_j in gen.uniform(0.0, 1e6, size=1000):
        for rule in UNBIASED:
            dist = delta_distribution(rule, 0.0, float(x_j), lam=0.7)
            assert dist.atoms == ((0.0, 1.0),)
    for seed, rule in enumerate(UNBIASED):
        init = Population([0.0] + [1.0] * 63)
        cfg = SimConfig(
            n=64, rule=rule, max_sweeps=10_000, record_every=10_000, seed=seed
        )
        traj = run(cfg, initial_population=init)
        assert traj.final_population.wealth[0] == 0.0


@criterion(4, "Corollary bound: mobility l(x) <= 2<x> on random grids", 30)
def test_criterion_04_mobility_bound():
    gen = np.random.Generator(np.random.PCG64(404))
    rules = [YS, UL, lambda lam: IA]
    for _ in range(20):
        cells = int(gen.integers(20, 100))
        centers = np.concatenate(([0.0], np.sort(gen.uniform(1e-3, 50.0, cells - 1))))
        masses = gen.dirichlet(np.ones(cells))
        grid = make_grid(centers, masses)
        lam = float(gen.uniform(0.0, 1.0))
        for make_rule in rules:
            ratio = mobility_profile(grid, make_rule(lam)).max() / (2.0 * grid.mean)
            assert ratio <= 1.0 + 1e-10


def _condensation_run(rule, density):
    grid = build_grid(ACCEPTANCE_GRID, density)
    kernel = build_kernel(rule, grid)
    g0 = gini_grid(grid)
    snaps, report = integrate(
        grid, kernel, dt=50.0, t_end=1e5, stop_gini=0.995, stop_liquidity=0.005
    )
    return g0, report


MASTER_EQ_CONFIGS = [
    ("yardsale lam=0.1 point", YS(0.1), PointMass(1.0)),
    ("yardsale lam=0.1 exp", YS(0.1), Exponential(1.0)),
    ("yardsale lam=0.5 point", YS(0.5), PointMass(1.0)),
    ("yardsale lam=0.5 exp", YS(0.5), Exponential(1.0)),
    ("unbiased-loser lam=0.5 point", UL(0.5), PointMass(1.0)),
    ("unbiased-loser lam=0.5 exp", UL(0.5), Exponential(1.0)),
    ("iglesias-almeida point", IA, PointMass(1.0)),
    ("iglesias-almeida exp", IA, Exponential(1.0)),
]

_master_eq_reports = {}


def _get_report(name, rule, density):
    if name not in _master_eq_reports:
        _master_eq_reports[name] = _condensation_run(rule, density)
    return _master_eq_reports[name]


@criterion(5, "Monotone Gini, deterministic (per-step dG and rate >= -1e-10)", 300)
def test_criterion_05_monotone_gini_deterministic():
    for name, rule, density in MASTER_EQ_CONFIGS:
        g0, report = _get_report(name, rule, density)
        assert report.steps > 0, name
        dg = np.diff(np.concatenate(([g0], report.gini)))
        assert dg.min() >= -1e-10, name
        assert report.gini_rate.min() >= -1e-10, name


@criterion(6, "Condensation limit (G >= 0.99, L <= 0.01, drift <= 1e-8)", 10)
def test_criterion_06_condensation_limit():
    # reuses the criterion-5 runs; its budget is accounted there
    for name, rule, density in MASTER_EQ_CONFIGS:
        _, report = _get_report(name, rule, density)
        assert report.stopped_early, name
        assert report.gini[-1] >= 0.99, name
        assert report.liquidity[-1] <= 0.01, name
        assert np.abs(report.mass_drift).max() <= 1e-8, name
        assert np.abs(report.mean_drift).max() <= 1e-8, name
        assert not report.non_conservative, name


@criterion(7, "Monotone Gini, stochastic ensemble (mean within noise band)", 120)
def test_criterion_07_monotone_gini_stochastic():
    replicas = 100
    cfg = SimConfig(
        n=128, rule=YS(0.1), max_sweeps=20_000, record_every=500, seed=707
    )
    summary = run_ensemble(cfg, replicas)
    sem = summary.gini_std / math.sqrt(replicas)
    for k in range(1, summary.t.size):
        band = 3.0 * max(sem[k - 1], sem[k])
        assert summary.gini_mean[k] >= summary.gini_mean[k - 1] - band
    final_gap = (128 - 1) / 128 - summary.gini_mean[-1]
    assert final_gap <= 0.02


@criterion(8, "Liquidity fixed point (equal wealth, lam=1 -> L=1/2 exactly)", 1)
def test_criterion_08_liquidity_fixed_point():
    # N=2 is the even-N case where every exchange of sweep 1 moves exactly
    # <x> under uniform random pair selection.
    cfg = SimConfig(n=2, rule=YS(1.0), max_sweeps=1, record_every=1, seed=8)
    traj = run(cfg)
    empirical = traj.records[0].liquidity
    assert empirical == 0.5
    grid = make_grid([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
    assert abs(liquidity_grid(grid, YS(1.0)) - empirical) <= 1e-12


@criterion(9, "Stationarity of the absolute oligarchy surrogate", 60)
def test_criterion_09_oligarchy_stationarity():
    grid = build_grid(ACCEPTANCE_GRID, PointMass(1.0))
    kernel = build_kernel(YS(0.5), grid)
    norms = []
    for m_factor in [1e2, 1e3, 1e4]:
        sur = oligarchy_surrogate(grid, m_factor)
        norms.append(float(np.abs(rhs(sur, kernel)).sum()))
    assert norms[0] > norms[1] > norms[2]
    assert norms[2] <= 1e-4


@criterion(10, "Cross-path consistency: gini_rate vs finite difference", 60)
def test_criterion_10_gini_rate_cross_check():
    grid = build_grid(ACCEPTANCE_GRID, PointMass(1.0))
    kernel = build_kernel(YS(0.5), grid)
    rate = gini_rate(grid, kernel)
    g0 = gini_grid(grid)

    def fd(dt):
        snaps, report = integrate(grid, kernel, dt=dt, t_end=dt)
        assert report.steps == 1 and report.dt[0] == dt
        return (report.gini[0] - g0) / dt

    dt = 0.02
    err_full = abs(fd(dt) - rate)
    err_half = abs(fd(dt / 2.0) - rate)
    assert err_full <= 0.02 * abs(rate)
    assert err_half <= 0.7 * err_full  # first-order improvement


@criterion(11, "Biased baseline: classic loser plateaus, no condensation", 120)
def test_criterion_11_biased_baseline_contrast():
    replicas = 100
    cfg = SimConfig(
        n=128, rule=CL(0.5), max_sweeps=400, record_every=10, seed=1111
    )
    summary = run_ensemble(cfg, replicas)
    q = summary.t.size // 4
    last_quarter_gini = summary.gini_mean[-q:]
    last_quarter_liq = summary.liquidity_mean[-q:]
    # plateau values are engine-frozen regressions (about 0.49 and 0.25)
    assert last_quarter_gini.max() < 0.9
    assert last_quarter_liq.min() > 0.05


@criterion(12, "End-to-end determinism: byte-identical CLI reruns", 120)
def test_criterion_12_cli_determinism(tmp_path):
    from kinex.cli import main

    for name, args in CRITERION_12_COMMANDS.items():
        outputs = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{name}_{attempt}.csv"
            assert main(args + ["--out", str(out)]) == 0, name
            outputs.append(
                out.read_bytes() + (tmp_path / f"{name}_{attempt}.csv.meta.json").read_bytes()
            )
        assert outputs[0] == outputs[1], f"{name} rerun differs"
