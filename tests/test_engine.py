import concurrent.futures
import contextlib
import ctypes
import dataclasses
import functools
import hashlib
import io
import itertools
import logging
import math
import os
import stat
import subprocess
import sys
import tempfile
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
    Initial,
    _draw_exchanges,
    _draw_source,
    _sweep,
    _sweep_scalar,
    parse_initial,
)
from kinex.rules import harmonic_transfer

from conftest import CRITERION_12_COMMANDS, compiled_sweep, one_exchange

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
            w = np.array([1.0, 2.0, 3.0])
            gen = np.random.Generator(np.random.PCG64(seed))
            out = []
            for _ in range(64):
                _sweep(w, YS(0.3), _draw_exchanges(3, YS(0.3), gen))
                out.append(w.tolist())
            return out

        assert states(42) == states(42)


class TestSweepFollowsLaw:
    """Both sweep loops restate ``two_point_law`` per exchange; pin them."""

    @pytest.mark.usefixtures("sweep_path")
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


class TestSweepRejectsMalformedExchanges:
    """Both sweep loops refuse, before they write, draws of unequal lengths
    and an exchange that pairs an agent with itself or names one outside
    the population."""

    @staticmethod
    def draws(rule, i, j):
        # the first exchange is valid, so a write before the check shows
        unbiased = rule.kind is RuleKind.UNBIASED_LOSER
        return [
            np.array([0, i]),
            np.array([1, j]),
            np.array([0.5, 0.5]) if rule.random_lambda else None,
            np.array([0.25, 0.25]) if unbiased else np.array([1, 1]),
        ]

    @pytest.mark.usefixtures("sweep_path")
    @pytest.mark.parametrize("rule", ALL_RULES, ids=format_rule)
    @pytest.mark.parametrize(
        "i, j", [(1, 1), (-1, 0), (0, 3)], ids=["same", "negative", "past-n"]
    )
    def test_raises_and_leaves_wealth(self, rule, i, j):
        w = np.array([1.0, 2.0, 3.0])
        message = f"exchange 1 pairs agents {i} and {j} of 3"
        with pytest.raises(ValueError, match=f"^{message}$"):
            _sweep(w, rule, self.draws(rule, i, j))
        assert w.tolist() == [1.0, 2.0, 3.0]

    @pytest.mark.usefixtures("sweep_path")
    @pytest.mark.parametrize(
        "rule, block",
        [(r, 3) for r in ALL_RULES] + [(r, 2) for r in ALL_RULES if r.random_lambda],
        ids=lambda v: format_rule(v) if isinstance(v, RuleSpec) else ("lams", "coins")[v - 2],
    )
    def test_unequal_lengths_raise_and_leave_wealth(self, rule, block):
        # the lambda (2) or coin (3) block one shorter than ii and jj
        w = np.array([1.0, 2.0, 3.0])
        draws = self.draws(rule, 0, 2)
        draws[block] = draws[block][:-1]
        message = "ii, jj, lams and coins must have equal lengths"
        with pytest.raises(ValueError, match=f"^{message}$"):
            _sweep(w, rule, tuple(draws))
        assert w.tolist() == [1.0, 2.0, 3.0]


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).view(np.int64)


class TestSweepPathsAgree:
    """The compiled loop and ``_sweep_scalar`` give bitwise one sweep."""

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

    @pytest.mark.parametrize("rule", ALL_RULES, ids=format_rule)
    @pytest.mark.parametrize("n", [2, 3, 128, 4097, 65536])
    @pytest.mark.parametrize("source", ["compiled", "calls"])
    def test_same_wealth_and_sums(self, rule, n, source):
        module = compiled_sweep()  # so that _sweep runs the compiled loop
        w0 = self.adversarial_wealth(n)
        compiled, scalar = w0.copy(), w0.copy()
        gen = np.random.Generator(np.random.PCG64(17))
        draw = _draw_source(n, rule, gen, module if source == "compiled" else None)
        for _ in range(2 if n == 65536 else 6):
            draws = draw()
            moved_c = _sweep(compiled, rule, draws)
            moved_s = _sweep_scalar(scalar, rule, draws)
            assert _bits(moved_c) == _bits(moved_s)
        np.testing.assert_array_equal(_bits(compiled), _bits(scalar))
        assert not np.array_equal(_bits(w0), _bits(compiled))

    def test_run_clears_negative_zero(self):
        # no -0.0 of the initial wealth reaches the run's population
        wealth = self.adversarial_wealth(64)
        cfg = SimConfig(n=wealth.size, rule=YS(0.5), max_sweeps=3, seed=2)
        finals = []
        for zero in (0.0, -0.0):
            init = np.where(wealth == 0.0, zero, wealth)
            traj = run(cfg, initial_population=Population(init))
            finals.append(_bits(traj.final_population.wealth))
        np.testing.assert_array_equal(*finals)


class TestCompiledSweepChecksItsArguments:
    """Bad draws raise before the compiled loop writes anything."""

    @staticmethod
    def call(w=None, ii=None, jj=None, lams=None, coins=None, kind=0):
        w = np.ones(4) if w is None else w
        ii = np.array([0, 1]) if ii is None else ii
        jj = np.array([2, 3]) if jj is None else jj
        coins = np.array([0, 1]) if coins is None else coins
        before = w.copy()
        with pytest.raises((TypeError, ValueError)) as err:
            compiled_sweep().sweep(kind, w, 0.5, ii, jj, lams, coins)
        np.testing.assert_array_equal(w, before)
        return str(err.value)

    def test_index_out_of_range(self):
        assert "agents" in self.call(jj=np.array([2, 4]))
        assert "agents" in self.call(ii=np.array([0, -1]))
        assert "agents" in self.call(jj=np.array([2, 1]))

    def test_mismatched_lengths(self):
        assert "equal lengths" in self.call(jj=np.array([2, 3, 1]))
        assert "equal lengths" in self.call(coins=np.array([1]))
        assert "equal lengths" in self.call(lams=np.array([0.5]))

    def test_wrong_item_types(self):
        assert "int64" in self.call(ii=np.array([0, 1], dtype=np.int32))
        assert "int64" in self.call(jj=np.array([2.0, 3.0]))
        assert "float64" in self.call(w=np.ones(4, dtype=np.float32))
        assert "float64" in self.call(lams=np.array([1, 1]))
        # the unbiased loser rule's coins are uniforms
        assert "float64" in self.call(kind=engine._KIND_CODES[RuleKind.UNBIASED_LOSER])
        assert "int64" in self.call(coins=np.array([0.0, 1.0]))

    def test_non_contiguous_row_or_read_only_wealth(self):
        self.call(ii=np.array([0, 9, 1, 9])[::2])
        self.call(w=np.ones(8)[::2])
        frozen = np.ones(4)
        frozen.flags.writeable = False
        self.call(w=frozen)

    def test_bad_kind_and_arity(self):
        assert "kind" in self.call(kind=4)
        with pytest.raises(TypeError):
            compiled_sweep().sweep(0, np.ones(2))


def run_fresh(code, cwd):
    """Run ``code`` in a fresh interpreter that imports this checkout's
    kinex, and assert that it exits 0."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr


class TestCompiledSweepCache:
    """``_load`` builds the module into the user's cache once; later
    processes load that file."""

    @pytest.fixture
    def fresh(self, monkeypatch, tmp_path):
        compiled_sweep()  # skips where nothing can be built
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        builds = []
        inner = engine._build

        def counted(*args):
            builds.append(inner(*args))
            return builds[-1]

        monkeypatch.setattr(engine, "_build", counted)
        return lambda: engine._load.__wrapped__(), builds, tmp_path

    def test_cold_cache_builds_once(self, fresh):
        load, builds, tmp_path = fresh
        assert load() is not None
        assert len(builds) == 1
        assert os.path.dirname(builds[0]) == str(tmp_path / "kinex")
        assert stat.S_IMODE(os.stat(tmp_path / "kinex").st_mode) & 0o077 == 0
        mtime = os.stat(builds[0]).st_mtime_ns
        assert load() is not None
        assert len(builds) == 1
        assert os.listdir(tmp_path / "kinex") == [os.path.basename(builds[0])]
        assert os.stat(builds[0]).st_mtime_ns == mtime

    def test_shared_cache_is_not_read(self, fresh, monkeypatch):
        # a cache others may write to is passed over: the loop is built in a
        # private directory, loaded, and the directory removed
        load, builds, tmp_path = fresh
        shared = tmp_path / "kinex"
        shared.mkdir()
        os.chmod(shared, 0o777)
        private = tmp_path / "private"
        private.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(private))
        for _ in range(2):
            assert load() is not None
        assert [os.path.dirname(os.path.dirname(b)) for b in builds] == [str(private)] * 2
        assert os.listdir(shared) == [] and os.listdir(private) == []

    def test_no_compiler_falls_back_with_one_warning(self, fresh, monkeypatch, caplog):
        load, builds, _ = fresh
        monkeypatch.setenv("PATH", "")
        with caplog.at_level(logging.WARNING, logger="kinex.engine"):
            assert load() is None
        assert "no C compiler" in caplog.text
        assert builds == []

    def test_loads_without_cpythons_own_sha256(self, tmp_path):
        # a CPython built without its sha2 module hashes the source with
        # hashlib's sha256; in a fresh interpreter, where neither imports
        compiled_sweep()
        code = (
            "import sys\n"
            "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
            "import kinex.engine as engine\n"
            "assert engine._load() is not None\n"
        )
        run_fresh(code, tmp_path)


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


def word_capsule(words, name=b"BitGenerator"):
    """A capsule named ``name`` of a bit generator whose ``next_uint32``
    gives ``words`` in turn, and what must stay alive while it is used."""
    u32 = ctypes.CFUNCTYPE(ctypes.c_uint32, ctypes.c_void_p)
    u64 = ctypes.CFUNCTYPE(ctypes.c_uint64, ctypes.c_void_p)
    f64 = ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_void_p)

    class Bitgen(ctypes.Structure):  # numpy/random/bitgen.h
        _fields_ = [("state", ctypes.c_void_p), ("next_uint64", u64),
                    ("next_uint32", u32), ("next_double", f64), ("next_raw", u64)]

    taken = iter(words)
    unused = u64(lambda state: 0)
    bitgen = Bitgen(None, unused, u32(lambda state: next(taken)), f64(lambda state: 0.0), unused)
    new = ctypes.pythonapi.PyCapsule_New
    new.restype = ctypes.py_object
    new.argtypes = [ctypes.c_void_p, ctypes.c_char_p, ctypes.c_void_p]
    return new(ctypes.addressof(bitgen), name, None), bitgen


class TestCompiledDraw:
    """The compiled ``draw`` gives ``_draw_exchanges``' draws bitwise, from
    the same stream, and leaves the generator in the same state."""

    @staticmethod
    def check(gen, twin, n, rule, sweeps):
        draw = _draw_source(n, rule, gen, compiled_sweep())
        for _ in range(sweeps):
            for block, call in zip(draw(), _draw_exchanges(n, rule, twin)):
                if call is None:
                    assert block is None
                else:
                    np.testing.assert_array_equal(block, call)
                    assert block.dtype == call.dtype
        assert gen.bit_generator.state == twin.bit_generator.state

    def test_source_keeps_its_generator_alive(self, tmp_path):
        # the partial holds the bit generator's capsule, which does not keep
        # the generator alive; once it was freed, draw() read freed memory
        # and crashed or drew other numbers. In a fresh interpreter, so that
        # a crash fails this test alone
        compiled_sweep()
        code = (
            "import gc\n"
            "import numpy as np\n"
            "import kinex.engine as engine\n"
            "from kinex import RuleKind, RuleSpec\n"
            "rule = RuleSpec(kind=RuleKind.YARD_SALE, lam=0.5)\n"
            "draw = engine._draw_source(128, rule, np.random.default_rng(1), engine._load())\n"
            "gc.collect()\n"
            "others = [np.random.default_rng(k) for k in range(64)]\n"
            "want = engine._draw_exchanges(128, rule, np.random.default_rng(1))\n"
            "assert all(map(np.array_equal, draw(), want))\n"
        )
        run_fresh(code, tmp_path)

    @pytest.mark.parametrize("rule", ALL_RULES, ids=format_rule)
    @pytest.mark.parametrize(
        "n", [2, 3, 5, 6, 127, 128, 130, 1000, 1022, 3931, 4095, 4096, 65536]
    )
    @pytest.mark.parametrize("pending", [False, True])
    def test_same_draws_and_state_as_generator(self, rule, n, pending):
        # an odd number of sweeps: where N/2 is odd a half stays pending
        # from one sweep to the next
        gen, twin = (np.random.Generator(np.random.PCG64(n)) for _ in "ab")
        if pending:
            for g in (gen, twin):
                g.integers(0, 5)
            assert gen.bit_generator.state["has_uint32"]
        self.check(gen, twin, n, rule, 3 if n == 65536 else 7)

    @pytest.mark.parametrize(
        "seed, n, pending, sweeps",
        [
            # the j range 127 rejects a word with p = 16 / 2**32; this
            # stream rejects one at sweep 135 of a 128-agent yard-sale run
            (3761, 128, False, 192),
            # ranges 3931 and 3930 reject with p = 7784 / 2**32 per
            # exchange; this stream, entered with a half pending, rejects
            # one in its first 12 sweeps, and N/2 is odd
            (0, 3931, True, 12),
        ],
    )
    def test_stream_with_a_rejected_word(self, seed, n, pending, sweeps):
        gen, twin, words = (RngStream(seed).gen for _ in "abc")
        if pending:
            for g in (gen, twin, words):
                g.integers(0, 5)
        self.check(gen, twin, n, YS(0.1), sweeps)
        # one word more than the sweeps' 3 N/2 was drawn, and rejected
        words.integers(0, 2**32, size=3 * (n // 2) * sweeps + 1, dtype=np.uint64)
        assert gen.bit_generator.state == words.bit_generator.state

    @pytest.mark.parametrize("n", [3 * 2**30, 2**31 + 1])
    def test_lemire_draws_where_rejection_is_common(self, n):
        # a word is rejected with p = 1/4 at 3 * 2**30, about 1/2 at
        # 2**31 + 1; numpy draws its values from the accepted words in turn.
        # One exchange a call: the buffers' length, not n, sets the count.
        draw = compiled_sweep().draw
        ii, jj, coins = (np.empty(1, np.int64) for _ in "ijc")
        for seed in range(20):
            gen, twin, words = (np.random.Generator(np.random.PCG64(seed)) for _ in "abc")
            for _ in range(50):
                draw(gen.bit_generator.capsule, n, ii, jj, None, coins)
                i, j = twin.integers(0, n), twin.integers(0, n - 1)
                assert (ii[0], jj[0], coins[0]) == (i, j + (j >= i), twin.integers(0, 2))
            assert gen.bit_generator.state == twin.bit_generator.state
            words.integers(0, 2**32, size=3 * 50, dtype=np.uint64)
            assert gen.bit_generator.state != words.bit_generator.state

    def test_lemire_threshold_is_exclusive(self):
        # n = 3: a word is rejected when (3 x) mod 2**32 < 2**32 mod 3 = 1,
        # that is for x = 0 alone; x = 0xAAAAAAAB leaves exactly 1, as
        # 3 x = 2 * 2**32 + 1. j's range 2 and the coin take a word each.
        words = [0, 0xAAAAAAAB, 0, 0xFFFFFFFF]
        capsule, keep = word_capsule(words)
        ii, jj, coins = (np.full(1, -1, np.int64) for _ in "ijc")
        compiled_sweep().draw(capsule, 3, ii, jj, None, coins)
        assert (ii.tolist(), jj.tolist(), coins.tolist()) == ([2], [0], [1])

    def test_self_check_passes_on_installed_numpy(self):
        # a failed check would keep outputs but lose the compiled speed
        assert engine._draw_matches_numpy(compiled_sweep())

    def test_mismatch_falls_back_to_the_python_path(
        self, monkeypatch, caplog, tmp_path
    ):
        # a draw off by one in every i fails the self-check; the Python
        # path then serves the process and writes the same bytes
        def simulate(name):
            (tmp_path / name).mkdir()
            out = tmp_path / name / "run.csv"
            argv = [*CRITERION_12_COMMANDS["simulate"], "--out", str(out)]
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0
            return out.read_bytes(), out.with_suffix(".csv.meta.json").read_bytes()

        want = simulate("compiled")
        real = compiled_sweep()

        def off_by_one(bitgen, n, ii, jj, lams, coins):
            draws = real.draw(bitgen, n, ii, jj, lams, coins)
            ii += 1
            ii %= n
            return draws

        check = engine._draw_matches_numpy
        fake = types.SimpleNamespace(draw=off_by_one)
        monkeypatch.setattr(engine, "_draw_matches_numpy", lambda module: check(fake))
        monkeypatch.setattr(
            engine, "_compiled_sweep", functools.cache(engine._compiled_sweep.__wrapped__)
        )
        with caplog.at_level(logging.WARNING, logger="kinex.engine"):
            got = simulate("fallback")
        assert caplog.text.count("compiled draws differ") == 1
        assert engine._compiled_sweep() is None
        assert got == want


class TestCompiledDrawChecksItsArguments:
    """A bad call of the compiled ``draw`` raises before it draws anything."""

    @staticmethod
    def call(*args, n=8, ii=None, jj=None, lams=None, coins=None, bitgen=None):
        gen = np.random.Generator(np.random.PCG64(1))
        gen.integers(0, 5)  # a half pending
        before = gen.bit_generator.state
        ii = np.zeros(4, np.int64) if ii is None else ii
        jj = np.zeros(4, np.int64) if jj is None else jj
        coins = np.zeros(4, np.int64) if coins is None else coins
        bitgen = gen.bit_generator.capsule if bitgen is None else bitgen
        with pytest.raises((TypeError, ValueError)) as err:
            compiled_sweep().draw(*(args or (bitgen, n, ii, jj, lams, coins)))
        assert gen.bit_generator.state == before
        return str(err.value)

    def test_bad_bit_generator(self):
        self.call(bitgen=np.random.PCG64(1))
        capsule, keep = word_capsule([], b"Other")
        self.call(bitgen=capsule)

    @pytest.mark.parametrize("n", [-5, 0, 1, 2**32, 2**70])
    def test_n_out_of_range(self, n):
        assert "2**32" in self.call(n=n)

    def test_wrong_item_types(self):
        assert "int64" in self.call(ii=np.zeros(4, np.int32))
        assert "int64" in self.call(jj=np.zeros(4))
        assert "float64" in self.call(lams=np.zeros(4, np.int64))
        assert "float64 or int64" in self.call(coins=np.zeros(4, np.float32))
        assert "float64 or int64" in self.call(coins=np.zeros(4, np.int32))

    def test_mismatched_lengths(self):
        assert "equal lengths" in self.call(jj=np.zeros(3, np.int64))
        assert "equal lengths" in self.call(lams=np.zeros(5))
        assert "equal lengths" in self.call(coins=np.zeros(2))

    def test_non_contiguous_or_read_only_buffers(self):
        self.call(ii=np.zeros(8, np.int64)[::2])
        frozen = np.zeros(4)
        frozen.flags.writeable = False
        self.call(coins=frozen)
        self.call(lams=np.zeros((2, 2)))

    def test_arity(self):
        self.call(np.ones(2))


@pytest.mark.parametrize("name, count", [("draw", 6), ("sweep", 7), ("pair_rhs", 10),
                                         ("gini_sums", 3)])
def test_compiled_functions_count_their_arguments_first(name, count):
    function = getattr(compiled_sweep(), name)
    for given in (0, count - 1, count + 1):
        with pytest.raises(TypeError, match=rf"^{name} takes {count} arguments \({given} given\)$"):
            function(*[None] * given)


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

    def test_condensed_run_draws_nothing_past_its_stop(self, monkeypatch):
        # this run stops at sweep 203; the hash of its records and final
        # wealth was taken with the per-sweep Generator draws. The module's
        # draw self-check runs first, so that its sources are not counted
        engine._compiled_sweep()
        gens = []
        inner = engine._draw_source

        def recorded(n, rule, gen, module):
            gens.append(gen)
            return inner(n, rule, gen, module)

        monkeypatch.setattr(engine, "_draw_source", recorded)
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
            "1918a60e6ca848182df7afb2af613e61c7d407d3e3686d32c06e50df91e0a1cf"
        )
        twin = RngStream(0).gen
        for _ in range(203):
            _draw_exchanges(64, YS(0.5), twin)
        assert [g.bit_generator.state for g in gens] == [twin.bit_generator.state]

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(n=2, rule=YS(0.5), max_sweeps=0)
        with pytest.raises(ValueError):
            SimConfig(n=1, rule=YS(0.5), max_sweeps=5)
        with pytest.raises(ValueError, match=r"n must be < 2\*\*32"):
            SimConfig(n=2**32, rule=YS(0.5), max_sweeps=5)
        SimConfig(n=2**32 - 1, rule=YS(0.5), max_sweeps=5)
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

    @pytest.mark.parametrize("n", [16, 4096])
    def test_run_keeps_one_population(self, n, monkeypatch):
        # records read the run's population and run returns it; none is
        # built per record or for the final state
        built = []

        class Counted(Population):
            __slots__ = ()

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(engine, "Population", Counted)
        cfg = SimConfig(n=n, rule=YS(0.5), max_sweeps=6, record_every=2, seed=4)
        traj = run(cfg)
        assert len(traj.records) == 3
        assert len(built) == 1
        assert traj.final_population is built[0]

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

    @pytest.mark.usefixtures("sweep_path")
    def test_iglesias_almeida_subnormal_product_matches_law(self):
        # x*x is subnormal here; dividing it by 2x loses 7e-8 relative, so
        # the sweep must divide factor by factor like the exact law does
        x = 3.663685537297814e-159
        _, moved = one_exchange(RuleSpec(kind=RuleKind.IGLESIAS_ALMEIDA), [x, x], 0, 1)
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

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcess)
        cfg = SimConfig(n=4, rule=YS(0.5), max_sweeps=2, seed=1)
        monkeypatch.setenv("KINEX_THREADS", "64")
        for replicas in (9, 3):
            run_ensemble(cfg, replicas)
        monkeypatch.setenv("KINEX_THREADS", "2")
        run_ensemble(cfg, 8)
        assert pools == [3, 2]

    def test_loop_is_loaded_before_the_pool_forks(self, monkeypatch):
        # a cold cache is built once, in this process, not in every worker
        loads = []
        monkeypatch.setattr(engine, "_load", lambda: loads.append(1))

        class Pool:
            def __init__(self, max_workers):
                assert loads

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        monkeypatch.setenv("KINEX_THREADS", "2")
        run_ensemble(SimConfig(n=4, rule=YS(0.5), max_sweeps=2, seed=1), 8)
        assert loads

    def test_kinex_threads_env_caps_workers(self, monkeypatch):
        from kinex.engine import worker_count

        monkeypatch.setenv("KINEX_THREADS", "3")
        assert worker_count() == 3
        monkeypatch.setenv("KINEX_THREADS", "abc")
        with pytest.raises(ValueError) as exc:
            worker_count()
        assert str(exc.value) == "KINEX_THREADS must be an integer, got 'abc'"
        monkeypatch.delenv("KINEX_THREADS")
        assert worker_count() >= 1
