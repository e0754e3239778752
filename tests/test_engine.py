import contextlib
import dataclasses
import functools
import hashlib
import io
import itertools
import logging
import math
import types

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
import kinex.engine as engine
from kinex.cli import main
from kinex.core import RngStream
from kinex.engine import (
    _ROUNDS_MIN_N,
    Initial,
    _decode,
    _draw_block,
    _draw_exchanges,
    _sweep,
    _sweep_rounds,
    _sweep_scalar,
    parse_initial,
)
from kinex.rules import harmonic_transfer

from conftest import CRITERION_12_COMMANDS, one_exchange

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
        # i=0, j=1 and the coin 0 (eta=-1): delta=-1
        w, moved = one_exchange(YS(1.0), [1.0, 3.0], 0, 0)
        assert w == [0.0, 4.0]
        assert moved == 1.0

    @pytest.mark.parametrize("rule", UNBIASED)
    def test_zero_agent_untouched(self, rule):
        coins = (0.0, 0.5, 0.99) if rule.kind is RuleKind.UNBIASED_LOSER else (0, 1)
        for i, coin in itertools.product((0, 1), coins):
            w, moved = one_exchange(rule, [0.0, 5.0], i, coin)
            assert w == [0.0, 5.0]
            assert moved == 0.0

    def test_repeated_steps_reproducible(self):
        def states(seed):
            w = [1.0, 2.0, 3.0]
            gen = np.random.Generator(np.random.PCG64(seed))
            out = []
            for _ in range(64):
                _sweep(w, YS(0.3), _draw_exchanges(3, YS(0.3), gen))
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
        # the draws pick the atom; the outcome must be it, bitwise. Both
        # agents are tagged in turn; random() lambdas lie in [0, 1)
        lams = (0.0, 0.3, 0.5, 1.0 - 2.0**-53) if rule.random_lambda else (None,)
        for i, lam in itertools.product((0, 1), lams):
            j = 1 - i
            d_plus, p_plus, d_minus = two_point_law(rule, wealth[i], wealth[j], lam)
            p_plus = float(p_plus)
            if rule.kind is RuleKind.UNBIASED_LOSER:
                # uniforms on both sides of p_plus; one equal to it loses
                near = {np.nextafter(p_plus, 0.0), p_plus, np.nextafter(p_plus, 1.0)}
                coins = sorted(c for c in {0.0, *near, 1.0 - 2.0**-53} if c < 1.0)
            else:
                coins = [0, 1]
            for coin in coins:
                win = coin < p_plus if rule.kind is RuleKind.UNBIASED_LOSER else coin
                delta = float(d_plus if win else d_minus)
                w, moved = one_exchange(rule, wealth, i, coin, lam)
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
        gen = np.random.Generator(np.random.PCG64(17))
        for _ in range(6):
            draws = _draw_exchanges(n, rule, gen)
            lists = tuple(None if a is None else a.tolist() for a in draws)
            moved_s = _sweep_scalar(scalar, rule, lists)
            moved_r = _sweep_rounds(rounds, rule, draws)
            assert _bits(moved_s) == _bits(moved_r)
        np.testing.assert_array_equal(_bits(scalar), _bits(rounds))
        assert not np.array_equal(_bits(w0), _bits(rounds))

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


class TestDrawLayout:
    """``_draw_exchanges`` makes the layout's ``Generator`` calls in order:
    the i block, the j block (stepped past i), the lambda block, then the
    coin block."""

    @pytest.mark.parametrize("rule", ALL_RULES, ids=format_rule)
    @pytest.mark.parametrize("n", [2, 5])
    def test_generator_calls_in_order(self, rule, n):
        gen, twin = (np.random.Generator(np.random.PCG64(n)) for _ in "ab")
        s = n // 2
        for _ in range(20):
            ii, jj, lams, coins = _draw_exchanges(n, rule, gen)
            want_i = twin.integers(0, n, size=s)
            want_j = twin.integers(0, n - 1, size=s)
            want_j[want_j >= want_i] += 1
            np.testing.assert_array_equal(ii, want_i)
            np.testing.assert_array_equal(jj, want_j)
            if rule.random_lambda:
                np.testing.assert_array_equal(lams, twin.random(size=s))
            else:
                assert lams is None
            if rule.kind is RuleKind.UNBIASED_LOSER:
                np.testing.assert_array_equal(coins, twin.random(size=s))
            else:
                np.testing.assert_array_equal(coins, twin.integers(0, 2, size=s))
        assert gen.bit_generator.state == twin.bit_generator.state


def _position(gen) -> tuple:
    """Where ``gen``'s stream stands: its PCG64 state and its pending half,
    if any (numpy keeps a stale half where none is pending)."""
    state = gen.bit_generator.state
    return state["state"], state["uinteger"] if state["has_uint32"] else None


class TestDrawBlock:
    """``_draw_block(n, rule, gen, K)`` gives K ``_draw_exchanges`` calls'
    draws bitwise, from the same stream, and leaves the same state."""

    @staticmethod
    def check(gen, twin, n, rule, sweeps, blocks):
        for _ in range(blocks):
            got = _draw_block(n, rule, gen, sweeps)
            want = zip(*(_draw_exchanges(n, rule, twin) for _ in range(sweeps)))
            for block, calls in zip(got, want):
                if block is None:
                    assert set(calls) == {None}
                else:
                    np.testing.assert_array_equal(block, np.stack(calls))
            assert _position(gen) == _position(twin)

    @staticmethod
    def served(monkeypatch):
        # blocks that ``_decode`` and ``_draw_defined`` each gave
        counts = {"decoded": 0, "defined": 0}
        decode, defined = engine._decode, engine._draw_defined

        def decode_counted(*args):
            blocks = decode(*args)
            counts["decoded"] += blocks is not None
            return blocks

        def defined_counted(*args):
            counts["defined"] += 1
            return defined(*args)

        monkeypatch.setattr(engine, "_decode", decode_counted)
        monkeypatch.setattr(engine, "_draw_defined", defined_counted)
        return counts

    @pytest.mark.parametrize("rule", ALL_RULES, ids=format_rule)
    @pytest.mark.parametrize("n", [2, 3, 5, 6, 127, 128, 130, 1000, 1022, 3931, 4095])
    @pytest.mark.parametrize("pending", [False, True])
    def test_same_draws_and_state_as_generator(self, rule, n, pending):
        # three blocks of an odd number of sweeps: where N/2 is odd a half
        # stays pending across sweeps and blocks
        gen, twin = (np.random.Generator(np.random.PCG64(n)) for _ in "ab")
        if pending:
            for g in (gen, twin):
                g.integers(0, 5)
            assert gen.bit_generator.state["has_uint32"]
        self.check(gen, twin, n, rule, 7, 3)

    @pytest.mark.parametrize(
        "seed, n, pending, sweeps, blocks",
        [
            # the j range 127 rejects a word with p = 16 / 2**32; this
            # stream rejects one at sweep 135 of a 128-agent yard-sale run,
            # in the third block of 64 sweeps
            (3761, 128, False, 64, 3),
            # ranges 3931 and 3930 reject with p = 7784 / 2**32 per
            # exchange; this stream, entered with a half pending, rejects
            # one in its sixth block of 2 sweeps, and N/2 is odd
            (0, 3931, True, 2, 6),
        ],
    )
    def test_block_with_a_rejected_word(
        self, monkeypatch, seed, n, pending, sweeps, blocks
    ):
        counts = self.served(monkeypatch)
        gen, twin = (RngStream(seed).gen for _ in "ab")
        if pending:
            for g in (gen, twin):
                g.integers(0, 5)
        self.check(gen, twin, n, YS(0.1), sweeps, blocks)
        # one block drawn by definition, from the state before it
        assert counts == {"decoded": blocks - 1, "defined": 1}

    @pytest.mark.parametrize(
        "rule, n, decoded",
        [
            (YS(0.1), 128, True),
            (RuleSpec(kind=RuleKind.UNBIASED_LOSER, lam=0.5), 128, True),
            # the j range at N=2 has one value and takes no word
            (YS(0.5), 2, False),
            # 325 words a sweep: the next sweep's uniforms would start on
            # a pending half
            (YS(UNIFORM_LAMBDA), 130, False),
        ],
        ids=["yardsale-128", "unbiased-loser-128", "n-2", "uniform-lambda-130"],
    )
    def test_which_path_serves_a_run(self, monkeypatch, rule, n, decoded):
        counts = self.served(monkeypatch)
        _draw_block(n, rule, RngStream(5).gen, 8)
        assert counts == {"decoded": int(decoded), "defined": int(not decoded)}

    @pytest.mark.parametrize("n", [3 * 2**30, 2**31 + 1])
    def test_lemire_draws_where_rejection_is_common(self, n):
        # a word is rejected with p = 1/4 at 3 * 2**30, about 1/2 at
        # 2**31 + 1; numpy draws its values from the accepted words in turn
        for seed in range(20):
            gen = np.random.Generator(np.random.PCG64(seed))
            decoded = [_decode((n,), 1, gen, 1) for _ in range(200)]
            accepted = [int(d[0][0, 0]) for d in decoded if d is not None]
            assert 0 < len(accepted) < 200
            twin = np.random.Generator(np.random.PCG64(seed))
            assert accepted == twin.integers(0, n, size=len(accepted)).tolist()

    def test_lemire_threshold_is_exclusive(self):
        # n = 3: a word is rejected when (3 x) mod 2**32 < 2**32 mod 3 = 1,
        # that is for x = 0 alone; x = 0xAAAAAAAB leaves exactly 1, as
        # 3 x = 2 * 2**32 + 1
        def word(x):
            return types.SimpleNamespace(
                integers=lambda low, high, size, dtype: np.full(size, x, dtype)
            )

        assert _decode((3,), 1, word(0), 1) is None
        assert _decode((3,), 1, word(0xAAAAAAAB), 1)[0].tolist() == [[2]]

    def test_self_check_passes_on_installed_numpy(self):
        # drawing by definition would keep outputs but lose the decoding's
        # speed
        assert engine._decoding_matches_numpy()

    def test_mismatch_falls_back_to_generator_draws(
        self, monkeypatch, caplog, tmp_path
    ):
        # a decoding off by one in every bounded integer fails the
        # self-check; the run draws every block by definition and writes
        # the same bytes
        def simulate(name):
            (tmp_path / name).mkdir()
            out = tmp_path / name / "run.csv"
            argv = [*CRITERION_12_COMMANDS["simulate"], "--out", str(out)]
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0
            return out.read_bytes(), out.with_suffix(".csv.meta.json").read_bytes()

        want = simulate("decoded")
        inner = engine._decode

        def off_by_one(layout, s, gen, sweeps):
            blocks = inner(layout, s, gen, sweeps)
            return blocks and [
                b if bound is None else (b + 1) % bound
                for bound, b in zip(layout, blocks)
            ]

        monkeypatch.setattr(engine, "_decode", off_by_one)
        monkeypatch.setattr(
            engine,
            "_decoding_matches_numpy",
            functools.cache(engine._decoding_matches_numpy.__wrapped__),
        )
        counts = self.served(monkeypatch)
        with caplog.at_level(logging.WARNING, logger="kinex.engine"):
            got = simulate("fallback")
        assert "decoded draws differ" in caplog.text
        # the self-check's block alone was decoded
        assert counts["decoded"] == 1 and counts["defined"] > 1
        assert got == want

    def test_condensed_run_stops_mid_block(self, monkeypatch):
        # 128 sweeps per block at N=64: this run stops at sweep 203; the
        # hash of its records and final wealth was taken with the per-sweep
        # Generator draws
        drawn = []
        inner = engine._draw_block

        def recorded(n, rule, gen, sweeps):
            block = inner(n, rule, gen, sweeps)
            drawn.append((gen, gen.bit_generator.state))
            return block

        monkeypatch.setattr(engine, "_draw_block", recorded)
        cfg = SimConfig(
            n=64, rule=YS(0.5), max_sweeps=5000, record_every=7, seed=0,
            stop_gini_gap=0.05,
        )
        traj = run(cfg)
        assert traj.stop_reason is StopReason.CONDENSED
        assert traj.records[-1].t == 203.0
        digest = hashlib.sha256(
            repr([dataclasses.astuple(r) for r in traj.records]).encode()
            + traj.final_population.wealth.tobytes()
        ).hexdigest()
        assert digest == (
            "f8ca20a94af36980c863e0b4f013bb579b93397e008484b9f6ff2616b75ced60"
        )
        # two blocks, the second left part-used; nothing drawn after it
        assert len(drawn) == 2
        gen, state = drawn[-1]
        assert gen.bit_generator.state == state


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
        draws = ([0], [1], None, [1])
        moved = _sweep([x, x], RuleSpec(kind=RuleKind.IGLESIAS_ALMEIDA), draws)
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

    def test_pool_has_a_worker_per_chunk_of_replicas_at_most(self, monkeypatch):
        # the pool forks every worker at its first submit, and hands out
        # replicas in chunks of 4; a stand-in runs them in this process
        pools = []

        class InProcess:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize):
                assert chunksize == 4
                return map(fn, jobs)

        monkeypatch.setattr(engine, "ProcessPoolExecutor", InProcess)
        cfg = SimConfig(n=4, rule=YS(0.5), max_sweeps=2, seed=1)
        monkeypatch.setenv("KINEX_THREADS", "64")
        for replicas in (9, 3):
            run_ensemble(cfg, replicas)
        monkeypatch.setenv("KINEX_THREADS", "2")
        run_ensemble(cfg, 8)
        assert pools == [3, 2]

    def test_kinex_threads_env_caps_workers(self, monkeypatch):
        from kinex.engine import worker_count

        monkeypatch.setenv("KINEX_THREADS", "3")
        assert worker_count() == 3
        monkeypatch.delenv("KINEX_THREADS")
        assert worker_count() >= 1
