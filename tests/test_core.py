import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinex import (
    Population,
    RngStream,
    RuleKind,
    RuleSpec,
    SimConfig,
    read_snapshot,
    run,
    write_snapshot,
)
from kinex.engine import _draw_exchanges, _sweep

ALL_RULES = [
    RuleSpec(kind=RuleKind.YARD_SALE, lam=0.7),
    RuleSpec(kind=RuleKind.CLASSIC_LOSER, lam=0.7),
    RuleSpec(kind=RuleKind.UNBIASED_LOSER, lam=0.7),
    RuleSpec(kind=RuleKind.IGLESIAS_ALMEIDA),
]


class TestPopulation:
    def test_constructor_rejects_negative(self):
        with pytest.raises(ValueError):
            Population([1.0, -0.5])

    def test_requires_two_agents(self):
        with pytest.raises(ValueError):
            Population([1.0])


@given(
    st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=2, max_size=32),
    st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=60, deadline=None)
def test_conservation_under_random_exchanges(wealths, seed):
    if math.fsum(wealths) <= 0:
        wealths = [w + 1.0 for w in wealths]
    n = len(wealths)
    total0 = math.fsum(wealths)
    sweeps = 400 // n + 1  # at least 200 exchanges
    for rule in ALL_RULES:
        cfg = SimConfig(
            n=n, rule=rule, max_sweeps=sweeps, record_every=sweeps, seed=seed
        )
        pop = run(cfg, initial_population=Population(wealths)).final_population
        assert math.fsum(pop.wealth) == pytest.approx(total0, rel=1e-12)
        assert np.all(pop.wealth >= 0.0)


class TestRngStream:
    def test_identical_seed_and_stream_replays_bitwise(self):
        a = RngStream(1234, 7).gen
        b = RngStream(1234, 7).gen
        assert np.array_equal(a.random(100), b.random(100))
        assert np.array_equal(a.integers(0, 10, size=100), b.integers(0, 10, size=100))

    def test_distinct_streams_differ(self):
        a = RngStream(1234, 0).gen
        b = RngStream(1234, 1).gen
        assert not np.array_equal(a.random(16), b.random(16))

    def test_replay_reproduces_populations_at_every_step(self):
        rule = RuleSpec(kind=RuleKind.UNBIASED_LOSER, lam=0.3)

        def trace(seed, stream):
            w = [1.0, 2.0, 3.0, 4.0]
            gen = RngStream(seed, stream).gen
            states = []
            for _ in range(50):
                _sweep(w, rule, _draw_exchanges(4, rule, gen))
                states.append(list(w))
            return states

        assert trace(99, 3) == trace(99, 3)
        assert trace(99, 3) != trace(99, 4)


class TestSnapshotIO:
    def test_round_trip(self, tmp_path):
        pop = Population([0.0, 1.5, 2.25, 0.125])
        path = tmp_path / "pop.txt"
        write_snapshot(path, pop, t=12)
        back = read_snapshot(path)
        assert back.size == 4
        assert np.array_equal(back.wealth, pop.wealth)
        header = path.read_text().splitlines()[0]
        assert header == "# kinex population N=4 t=12"

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("1.0\n2.0\n")
        with pytest.raises(ValueError):
            read_snapshot(path)

    @pytest.mark.parametrize(
        "body", ["1.0\n2.0\n3.0\n", "1.0\n2.0\n3.0\n4.0\n5.0\n"],
        ids=["truncated", "extra-line"],
    )
    def test_rejects_count_unlike_header(self, tmp_path, body):
        path = tmp_path / "pop.txt"
        path.write_text("# kinex population N=4 t=0\n" + body)
        with pytest.raises(ValueError, match="N=4"):
            read_snapshot(path)

    def test_rejects_header_without_count(self, tmp_path):
        path = tmp_path / "pop.txt"
        path.write_text("# kinex population t=0\n1.0\n2.0\n")
        with pytest.raises(ValueError, match="header"):
            read_snapshot(path)
