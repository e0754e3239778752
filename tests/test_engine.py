import math

import numpy as np
import pytest

from kinex import (
    UNIFORM_LAMBDA,
    Population,
    RuleKind,
    RuleSpec,
    SimConfig,
    StopReason,
    format_rule,
    run,
    run_ensemble,
    two_point_law,
)
from kinex.engine import (
    _ROUNDS_MIN_N,
    Initial,
    _sweep,
    _sweep_rounds,
    _sweep_scalar,
    parse_initial,
)
from kinex.rules import harmonic_transfer

from conftest import one_exchange, seed_with, sweep_draws

YS = lambda lam: RuleSpec(kind=RuleKind.YARD_SALE, lam=lam)
UNBIASED = [
    YS(0.5),
    RuleSpec(kind=RuleKind.UNBIASED_LOSER, lam=0.5),
    RuleSpec(kind=RuleKind.IGLESIAS_ALMEIDA),
]


ALL_RULES = UNBIASED + [
    RuleSpec(kind=RuleKind.CLASSIC_LOSER, lam=0.5),
    YS(UNIFORM_LAMBDA),
    RuleSpec(kind=RuleKind.UNBIASED_LOSER, lam=UNIFORM_LAMBDA),
    RuleSpec(kind=RuleKind.CLASSIC_LOSER, lam=UNIFORM_LAMBDA),
]


class TestStep:
    """One exchange step: with two agents a sweep is exactly one exchange."""

    def test_forced_pair_and_coin(self):
        # the seed forces i=0, j=1 and the coin 0 (eta=-1): delta=-1
        rule = YS(1.0)
        w, moved = one_exchange(rule, [1.0, 3.0], seed_with(rule, 0, 0))
        assert w == [0.0, 4.0]
        assert moved == 1.0

    @pytest.mark.parametrize("rule", UNBIASED)
    def test_zero_agent_untouched(self, rule):
        for seed in range(20):
            w, moved = one_exchange(rule, [0.0, 5.0], seed)
            assert w == [0.0, 5.0]
            assert moved == 0.0

    def test_repeated_steps_reproducible(self):
        def states(seed):
            w = [1.0, 2.0, 3.0]
            gen = np.random.Generator(np.random.PCG64(seed))
            out = []
            for _ in range(64):
                _sweep(w, YS(0.3), gen)
                out.append(list(w))
            return out

        assert states(42) == states(42)


class TestSweepFollowsLaw:
    """``_sweep`` restates ``two_point_law`` per exchange; pin the two."""

    @pytest.mark.parametrize("rule", ALL_RULES, ids=format_rule)
    @pytest.mark.parametrize(
        "wealth",
        # at the extreme ratio the raw harmonic transfer rounds above the
        # poorer wealth; the product of the last pair is subnormal
        [(2.0, 5.0), (5.0, 2.0), (0.0, 3.0), (0.0, 0.0),
         (5.289786656422299e-17, 176.37038341643014),
         (3.663685537297814e-159, 3.663685537297814e-159)],
        ids=["2-5", "5-2", "zero", "both-zero", "extreme-ratio", "subnormal-product"],
    )
    def test_one_exchange_takes_the_drawn_atom(self, rule, wealth):
        # the replayed draws pick the atom; the outcome must be it, bitwise
        for seed in range(40):
            i, lam, coin = sweep_draws(rule, seed)
            j = 1 - i
            d_plus, p_plus, d_minus = two_point_law(rule, wealth[i], wealth[j], lam)
            win = coin < p_plus if rule.kind is RuleKind.UNBIASED_LOSER else coin
            delta = float(d_plus if win else d_minus)
            w, moved = one_exchange(rule, wealth, seed)
            assert w[i] == wealth[i] + delta
            assert w[j] == wealth[j] - delta
            assert moved == abs(delta)


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).view(np.int64)


class TestSweepPathsAgree:
    """The scalar loop and the conflict-free rounds give bitwise one sweep."""

    @staticmethod
    def adversarial_wealth(n: int) -> np.ndarray:
        # zeros (so some pairs are both zero), the extreme ratio at which
        # the raw harmonic transfer rounds above the poorer wealth, a wealth
        # whose square is subnormal, and ordinary wealths, shuffled
        special = [0.0, 5.289786656422299e-17, 176.37038341643014,
                   3.663685537297814e-159]
        gen = np.random.Generator(np.random.PCG64(n))
        w = gen.uniform(0.0, 2.0, size=n)
        w[: 4 * (n // 5)] = np.repeat(special, n // 5)
        if n == 2:
            w[:] = special[1:3]
        return gen.permutation(w)

    # population sizes below and above the crossover
    SMALL, LARGE = (2, 65), 4097

    def test_sizes_straddle_the_crossover(self):
        assert max(self.SMALL) < _ROUNDS_MIN_N <= self.LARGE

    @pytest.mark.parametrize("rule", ALL_RULES, ids=format_rule)
    @pytest.mark.parametrize("n", [*SMALL, LARGE])
    def test_same_wealth_and_sums(self, rule, n):
        w0 = self.adversarial_wealth(n)
        scalar, rounds = w0.tolist(), w0.copy()
        gen_s = np.random.Generator(np.random.PCG64(17))
        gen_r = np.random.Generator(np.random.PCG64(17))
        for _ in range(6):
            moved_s = _sweep_scalar(scalar, rule, gen_s)
            moved_r = _sweep_rounds(rounds, rule, gen_r)
            assert _bits(moved_s) == _bits(moved_r)
        np.testing.assert_array_equal(_bits(scalar), _bits(rounds))
        assert not np.array_equal(_bits(w0), _bits(rounds))
        # both generators drew the same stream
        assert gen_s.random() == gen_r.random()

    def test_run_clears_negative_zero(self):
        # the rounds path equals the loop only on wealths without -0.0
        wealth = self.adversarial_wealth(self.LARGE)
        cfg = SimConfig(n=wealth.size, rule=YS(0.5), max_sweeps=3, seed=2)
        finals = []
        for zero in (0.0, -0.0):
            init = np.where(wealth == 0.0, zero, wealth)
            traj = run(cfg, initial_population=Population(init))
            finals.append(_bits(traj.final_population.wealth))
        np.testing.assert_array_equal(*finals)


class TestRunBasics:
    def test_two_agent_condensation_in_one_sweep(self):
        cfg = SimConfig(
            n=2, rule=YS(1.0), max_sweeps=10, stop_gini_gap=1e-6, seed=5
        )
        traj = run(cfg)
        rec = traj.records[-1]
        assert traj.stop_reason is StopReason.CONDENSED
        assert rec.t == 1.0
        assert rec.gini == 0.5  # (N-1)/N exactly
        assert sorted(traj.final_population.wealth.tolist()) == [0.0, 2.0]

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(n=2, rule=YS(0.5), max_sweeps=0)
        with pytest.raises(ValueError):
            SimConfig(n=1, rule=YS(0.5), max_sweeps=5)
        with pytest.raises(ValueError):
            SimConfig(n=4, rule=YS(0.5), max_sweeps=5, record_every=0)

    def test_total_wealth_conserved(self):
        cfg = SimConfig(n=32, rule=YS(0.8), max_sweeps=500, record_every=100, seed=3)
        traj = run(cfg)
        assert math.fsum(traj.final_population.wealth) == pytest.approx(
            32.0, rel=1e-12
        )

    def test_deterministic_replay(self):
        cfg = SimConfig(n=16, rule=YS(0.5), max_sweeps=100, record_every=10, seed=9)
        a, b = run(cfg), run(cfg)
        assert np.array_equal(a.final_population.wealth, b.final_population.wealth)
        assert [(r.t, r.gini, r.liquidity) for r in a.records] == [
            (r.t, r.gini, r.liquidity) for r in b.records
        ]

    def test_uniform_initial_rescaled_to_total_n(self):
        cfg = SimConfig(
            n=64,
            rule=YS(0.5),
            max_sweeps=1,
            seed=21,
            initial=Initial(kind="uniform"),
        )
        traj = run(cfg)
        assert math.fsum(traj.final_population.wealth) == pytest.approx(
            64.0, rel=1e-12
        )

    def test_file_initial(self, tmp_path):
        from kinex import write_snapshot

        path = tmp_path / "init.txt"
        write_snapshot(path, Population([4.0, 0.0, 0.0, 0.0]))
        cfg = SimConfig(
            n=4,
            rule=YS(0.5),
            max_sweeps=5,
            initial=parse_initial(f"file:{path}"),
        )
        traj = run(cfg)
        assert math.fsum(traj.final_population.wealth) == pytest.approx(4.0)

    def test_snapshots_collected(self):
        cfg = SimConfig(n=8, rule=YS(0.5), max_sweeps=20, record_every=5, seed=1)
        traj = run(cfg, snapshot_every=10)
        assert [t for t, _ in traj.snapshots] == [10, 20]

    def test_records_use_configured_cadence(self):
        cfg = SimConfig(n=8, rule=YS(0.5), max_sweeps=25, record_every=10, seed=1)
        traj = run(cfg)
        assert [r.t for r in traj.records] == [10.0, 20.0]


class TestAbsorbingStateInSimulation:
    @pytest.mark.parametrize("rule", UNBIASED)
    def test_exact_zero_agents_stay_zero(self, rule):
        init = Population([0.0, 0.0] + [1.0] * 14)
        cfg = SimConfig(n=16, rule=rule, max_sweeps=2000, record_every=500, seed=13)
        traj = run(cfg, initial_population=init)
        assert traj.final_population.wealth[0] == 0.0
        assert traj.final_population.wealth[1] == 0.0

    def test_zero_set_never_shrinks_for_yard_sale(self):
        init = Population([0.0] * 4 + [1.0] * 12)
        cfg = SimConfig(n=16, rule=YS(0.9), max_sweeps=1000, record_every=1000, seed=2)
        traj = run(cfg, initial_population=init, snapshot_every=100)
        zero_sets = [set(np.nonzero(w == 0.0)[0]) for _, w in traj.snapshots]
        base = set(range(4))
        for zs in zero_sets:
            assert base <= zs
            base = zs

    def test_iglesias_almeida_extreme_ratio_stays_nonnegative(self):
        # at wealth ratios beyond 2^53 the raw harmonic transfer can round
        # one ulp above min(wi, wj); the sweep loop must clamp it
        init = Population([1e-16, 100.0] + [1.0] * 14)
        cfg = SimConfig(
            n=16,
            rule=RuleSpec(kind=RuleKind.IGLESIAS_ALMEIDA),
            max_sweeps=5000,
            record_every=5000,
            seed=6,
        )
        traj = run(cfg, initial_population=init)
        assert np.all(traj.final_population.wealth >= 0.0)

    def test_iglesias_almeida_subnormal_product_matches_law(self):
        # x*x is subnormal here; dividing it by 2x loses 7e-8 relative, so
        # the sweep must divide factor by factor like the exact law does
        x = 3.663685537297814e-159
        gen = np.random.Generator(np.random.PCG64(3))
        moved = _sweep([x, x], RuleSpec(kind=RuleKind.IGLESIAS_ALMEIDA), gen)
        assert moved == float(harmonic_transfer(x, x))

    def test_classic_loser_violates_absorbing_state(self):
        init = Population([0.0] + [1.0] * 15)
        cfg = SimConfig(
            n=16,
            rule=RuleSpec(kind=RuleKind.CLASSIC_LOSER, lam=0.5),
            max_sweeps=200,
            record_every=200,
            seed=4,
        )
        traj = run(cfg, initial_population=init)
        assert traj.final_population.wealth[0] > 0.0

    def test_yard_sale_drives_zero_fraction_up(self):
        # condensation endpoint of a small yard-sale economy; engine-frozen
        # regression seed (a handful of agents decay below the zero
        # threshold only after ~1e5 sweeps, with seed-to-seed spread)
        cfg = SimConfig(
            n=128, rule=YS(0.1), max_sweeps=100_000, record_every=10_000, seed=0
        )
        traj = run(cfg)
        assert traj.records[-1].zero_fraction >= 0.95


class TestEnsemble:
    @pytest.fixture(autouse=True)
    def one_worker(self, monkeypatch):
        monkeypatch.setenv("KINEX_THREADS", "1")

    def test_requires_two_replicas(self):
        cfg = SimConfig(n=8, rule=YS(0.5), max_sweeps=10)
        with pytest.raises(ValueError):
            run_ensemble(cfg, 1)

    def test_distinct_streams_give_distinct_trajectories(self):
        cfg = SimConfig(n=16, rule=YS(0.5), max_sweeps=50, record_every=10, seed=5)
        summary = run_ensemble(cfg, 2)
        assert summary.gini_std.max() > 0.0

    def test_shapes_and_time_axis(self):
        cfg = SimConfig(n=16, rule=YS(0.5), max_sweeps=40, record_every=10, seed=5)
        summary = run_ensemble(cfg, 3)
        assert summary.t.tolist() == [10.0, 20.0, 30.0, 40.0]
        assert summary.gini_mean.shape == (4,)
        assert summary.replicas == 3

    def test_worker_count_does_not_change_results(self, monkeypatch):
        cfg = SimConfig(n=16, rule=YS(0.5), max_sweeps=30, record_every=10, seed=8)
        serial = run_ensemble(cfg, 4)
        monkeypatch.setenv("KINEX_THREADS", "2")
        parallel = run_ensemble(cfg, 4)
        assert np.array_equal(serial.gini_mean, parallel.gini_mean)
        assert np.array_equal(serial.liquidity_mean, parallel.liquidity_mean)

    def test_stop_thresholds_ignored_for_rectangular_axes(self):
        cfg = SimConfig(
            n=2,
            rule=YS(1.0),
            max_sweeps=5,
            record_every=1,
            stop_gini_gap=1e-6,
            seed=3,
        )
        summary = run_ensemble(cfg, 2)
        assert summary.t.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_kinex_threads_env_caps_workers(self, monkeypatch):
        from kinex.engine import worker_count

        monkeypatch.setenv("KINEX_THREADS", "3")
        assert worker_count() == 3
        monkeypatch.delenv("KINEX_THREADS")
        assert worker_count() >= 1
