import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kinex import (
    RuleKind,
    RuleSpec,
    UNIFORM_LAMBDA,
    delta_distribution,
    expected_abs_delta,
    expected_delta,
    format_rule,
    parse_rule,
    two_point_law,
)
import kinex.engine as engine
from kinex.engine import _draw_exchanges, _draw_source, _sweep

from conftest import one_exchange

YS = RuleSpec(kind=RuleKind.YARD_SALE, lam=0.5)
CL = RuleSpec(kind=RuleKind.CLASSIC_LOSER, lam=0.5)
UL = RuleSpec(kind=RuleKind.UNBIASED_LOSER, lam=0.25)
IA = RuleSpec(kind=RuleKind.IGLESIAS_ALMEIDA)

UNBIASED = [
    RuleSpec(kind=RuleKind.YARD_SALE, lam=0.5),
    RuleSpec(kind=RuleKind.UNBIASED_LOSER, lam=0.5),
    IA,
]
ALL_RULES = UNBIASED + [CL]

wealth_st = st.floats(min_value=0.0, max_value=1e9)
lam_st = st.floats(min_value=0.0, max_value=1.0)


class TestRuleSpec:
    def test_lambda_range_enforced(self):
        with pytest.raises(ValueError):
            RuleSpec(kind=RuleKind.YARD_SALE, lam=1.5)
        with pytest.raises(ValueError):
            RuleSpec(kind=RuleKind.YARD_SALE, lam=-0.1)

    def test_iglesias_almeida_rejects_lambda(self):
        with pytest.raises(ValueError):
            RuleSpec(kind=RuleKind.IGLESIAS_ALMEIDA, lam=0.5)

    def test_lambda_required_otherwise(self):
        with pytest.raises(ValueError):
            RuleSpec(kind=RuleKind.YARD_SALE)


class TestDeltaDistribution:
    def test_yard_sale(self):
        dist = delta_distribution(YS, 1.0, 3.0)
        assert set(dist.atoms) == {(0.5, 0.5), (-0.5, 0.5)}

    def test_unbiased_loser(self):
        dist = delta_distribution(UL, 2.0, 4.0)
        atoms = dict(dist.atoms)
        assert atoms[1.0] == pytest.approx(2.0 / 6.0, rel=1e-15)
        assert atoms[-0.5] == pytest.approx(4.0 / 6.0, rel=1e-15)
        # probabilities normalize exactly, not just approximately
        assert sum(atoms.values()) == 1.0

    def test_iglesias_almeida(self):
        dist = delta_distribution(IA, 2.0, 2.0)
        assert set(dist.atoms) == {(1.0, 0.5), (-1.0, 0.5)}

    def test_degenerate_zero_wealth(self):
        dist = delta_distribution(RuleSpec(kind=RuleKind.YARD_SALE, lam=1.0), 0.0, 7.0)
        assert dist.atoms == ((0.0, 1.0),)

    def test_classic_loser(self):
        dist = delta_distribution(CL, 2.0, 4.0)
        assert set(dist.atoms) == {(2.0, 0.5), (-1.0, 0.5)}

    def test_rejects_negative_wealth(self):
        with pytest.raises(ValueError):
            delta_distribution(YS, -1.0, 2.0)

    def test_rejects_bad_lambda(self):
        with pytest.raises(ValueError):
            delta_distribution(YS, 1.0, 2.0, lam=1.5)

    @pytest.mark.parametrize("rule", ALL_RULES, ids=format_rule)
    def test_lambda_array_acts_per_exchange(self, rule):
        # the vectorised sweep passes one lambda per exchange
        x_i, x_j = np.array([2.0, 0.0, 7.0]), np.array([5.0, 3.0, 1e-3])
        lam = np.array([0.0, 0.3, 1.0])
        law = two_point_law(rule, x_i, x_j, lam)
        for k in range(3):
            one = two_point_law(rule, x_i[k], x_j[k], lam[k])
            assert [float(v[k]) for v in law] == [float(v) for v in one]

    @pytest.mark.parametrize("bad", [[0.5, 1.5], [-0.1, 0.5], [0.5, np.nan]])
    def test_rejects_bad_lambda_array(self, bad):
        with pytest.raises(ValueError):
            two_point_law(YS, np.ones(2), np.ones(2), np.array(bad))

    def test_both_agents_broke_unbiased_loser(self):
        # 0/0 win probability resolved as "nothing to exchange"
        dist = delta_distribution(RuleSpec(kind=RuleKind.UNBIASED_LOSER, lam=0.5), 0.0, 0.0)
        assert dist.atoms == ((0.0, 1.0),)


@given(x_i=wealth_st, x_j=wealth_st, lam=lam_st)
@settings(max_examples=200, deadline=None)
def test_atoms_within_support(x_i, x_j, lam):
    for rule in ALL_RULES:
        dist = delta_distribution(rule, x_i, x_j, lam=lam)
        total = 0.0
        for delta, prob in dist.atoms:
            assert prob >= 0.0
            assert -x_i <= delta <= x_j
            total += prob
        assert total == pytest.approx(1.0, abs=1e-15)


@given(x_i=wealth_st, x_j=wealth_st, lam=lam_st)
@settings(max_examples=200, deadline=None)
def test_unbiased_rules_have_zero_mean(x_i, x_j, lam):
    for rule in UNBIASED:
        dist = delta_distribution(rule, x_i, x_j, lam=lam)
        assert abs(dist.mean()) <= 1e-14 * (x_i + x_j + 1e-300)


def closed_form_moments(rule, x_i, x_j, lam):
    """(E[delta], E[|delta|]) written out per rule, independent of the law."""
    s = x_i + x_j
    harm = x_i * (x_j / s) if s > 0.0 else 0.0  # no subnormal product
    if rule.kind is RuleKind.CLASSIC_LOSER:
        return lam * (x_j - x_i) / 2.0, lam * (x_i + x_j) / 2.0
    if rule.kind is RuleKind.YARD_SALE:
        return 0.0, lam * min(x_i, x_j)
    if rule.kind is RuleKind.UNBIASED_LOSER:
        return 0.0, 2.0 * lam * harm
    return 0.0, harm


@given(x_i=wealth_st, x_j=wealth_st, lam=lam_st)
@example(x_i=3.663685537297814e-159, x_j=3.663685537297814e-159, lam=1.0)
@settings(max_examples=200, deadline=None)
def test_moments_match_atom_summation(x_i, x_j, lam):
    for rule in ALL_RULES:
        dist = delta_distribution(rule, x_i, x_j, lam=lam)
        scale = max(x_i + x_j, 1e-300)
        tol = 1e-14 * scale
        mean, mean_abs = closed_form_moments(rule, x_i, x_j, lam)
        assert abs(expected_delta(rule, x_i, x_j, lam=lam) - mean) <= tol
        assert abs(dist.mean() - mean) <= tol
        assert abs(expected_abs_delta(rule, x_i, x_j, lam=lam) - mean_abs) <= tol
        assert abs(dist.mean_abs() - mean_abs) <= tol


class TestExpectedDelta:
    def test_classic_loser_bias(self):
        assert expected_delta(CL, 2.0, 4.0, lam=0.5) == 0.5

    def test_unbiased_loser_zero(self):
        assert expected_delta(UL, 2.0, 4.0, lam=0.9) == 0.0

    def test_yard_sale_zero(self):
        assert expected_delta(YS, 5.0, 1.0, lam=0.9) == 0.0


class TestExpectedAbsDelta:
    def test_yard_sale(self):
        assert expected_abs_delta(YS, 1.0, 3.0, lam=0.5) == 0.5

    def test_unbiased_loser(self):
        # oracle: |delta|-weighted sum over the two atoms, 1/3 + 1/3
        assert expected_abs_delta(UL, 2.0, 4.0, lam=0.25) == pytest.approx(
            2.0 / 3.0, rel=1e-15
        )

    @pytest.mark.parametrize("rule", UNBIASED)
    def test_zero_wealth_exchanges_nothing(self, rule):
        assert expected_abs_delta(rule, 0.0, 123.0, lam=0.8) == 0.0

    def test_broadcasts(self):
        x = np.array([1.0, 2.0, 3.0])
        got = expected_abs_delta(YS, x[:, None], x[None, :], lam=0.5)
        assert got.shape == (3, 3)
        assert got[0, 2] == 0.5


DRAWS = 10**5


@functools.lru_cache(maxsize=None)
def sweep_gains(rule, x_0, x_1):
    """Agent 0's gain in DRAWS independent exchanges from (x_0, x_1), each a
    2-agent ``engine._sweep`` on one stream, drawn as ``engine.run`` draws
    it. Agent 0 is the tagged agent i or the partner j; the rules are
    exchangeable, so its gain follows ``two_point_law(rule, x_0, x_1)``
    either way."""
    gen = np.random.Generator(np.random.PCG64(7))
    draw = _draw_source(2, rule, gen, engine._compiled_sweep())
    gains = np.empty(DRAWS)
    for k in range(DRAWS):
        w = np.array([x_0, x_1])
        _sweep(w, rule, draw())
        gains[k] = w[0] - x_0
    return gains


class TestSampleDelta:
    """delta as the engine samples it: with two agents a sweep is exactly
    one exchange."""

    def test_yard_sale_forced_positive(self):
        # agent 0 is tagged and draws eta = +1
        w, moved = one_exchange(YS, [1.0, 3.0], 0, 1)
        assert (w, moved) == ([1.5, 2.5], 0.5)

    def test_classic_loser_forced_epsilon_zero(self):
        # agent 0 is tagged and draws epsilon = 0: lose 0.25 * x_i
        rule = RuleSpec(kind=RuleKind.CLASSIC_LOSER, lam=0.25)
        w, moved = one_exchange(rule, [2.0, 4.0], 0, 0)
        assert (w, moved) == ([1.5, 4.5], 0.5)

    def test_unbiased_loser_positive_frequency(self):
        # oracle: exact atom probability x_i/(x_i+x_j) = 1/4
        rule = RuleSpec(kind=RuleKind.UNBIASED_LOSER, lam=0.5)
        wins = np.count_nonzero(sweep_gains(rule, 1.0, 3.0) > 0)
        assert wins / DRAWS == pytest.approx(0.25, abs=0.005)

    @pytest.mark.parametrize("rule", ALL_RULES)
    def test_gains_take_only_the_law_atoms(self, rule):
        gains = sweep_gains(rule, 2.0, 5.0)
        d_plus, _, d_minus = two_point_law(rule, 2.0, 5.0)
        win = gains > 0
        assert np.allclose(gains[win], d_plus, rtol=1e-12, atol=0)
        assert np.allclose(gains[~win], d_minus, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("rule", ALL_RULES)
    def test_win_frequency_within_four_standard_errors(self, rule):
        _, p_plus, _ = two_point_law(rule, 2.0, 5.0)
        freq = np.count_nonzero(sweep_gains(rule, 2.0, 5.0) > 0) / DRAWS
        se = math.sqrt(p_plus * (1.0 - p_plus) / DRAWS)
        assert abs(freq - p_plus) <= 4 * se

    @pytest.mark.parametrize("rule", ALL_RULES)
    def test_monte_carlo_mean_within_four_standard_errors(self, rule):
        draws = sweep_gains(rule, 2.0, 5.0)
        se = draws.std(ddof=1) / math.sqrt(DRAWS)
        assert abs(draws.mean() - expected_delta(rule, 2.0, 5.0)) <= 4 * se

    def test_random_lambda_recorded(self):
        # from equal wealth 1 the sweep moves |delta| = lambda, and reports it
        rule = RuleSpec(kind=RuleKind.YARD_SALE, lam=UNIFORM_LAMBDA)
        gen = np.random.Generator(np.random.PCG64(3))
        lams = {
            _sweep(np.ones(2), rule, _draw_exchanges(2, rule, gen)) for _ in range(50)
        }
        assert len(lams) == 50
        assert all(0.0 <= l < 1.0 for l in lams)


def test_harmonic_transfer_never_exceeds_support_at_extreme_ratios():
    from kinex.rules import harmonic_transfer

    gen = np.random.Generator(np.random.PCG64(31))
    wi = gen.uniform(0.5, 2.0, size=20_000) * 1e-16
    wj = gen.uniform(0.5, 2.0, size=20_000) * 1e2
    d = harmonic_transfer(wi, wj)
    assert np.all(d <= np.minimum(wi, wj))
    assert np.all(d >= 0.0)


class TestAbsorbingState:
    @pytest.mark.parametrize("rule", UNBIASED)
    def test_zero_wealth_is_absorbing_exactly(self, rule):
        for x_j in [0.1, 1.0, 17.5, 1e6]:
            assert delta_distribution(rule, 0.0, x_j, lam=0.7).atoms == ((0.0, 1.0),)

    def test_classic_loser_violates_absorbing_state(self):
        dist = delta_distribution(CL, 0.0, 4.0, lam=0.5)
        gains = [(d, p) for d, p in dist.atoms if d > 0]
        assert gains == [(2.0, 0.5)]


class TestRuleStrings:
    @pytest.mark.parametrize(
        "text,kind,lam",
        [
            ("yardsale:lambda=0.5", RuleKind.YARD_SALE, 0.5),
            ("iglesias-almeida", RuleKind.IGLESIAS_ALMEIDA, None),
            ("loser:lambda=0.25", RuleKind.CLASSIC_LOSER, 0.25),
            ("unbiased-loser:lambda=uniform", RuleKind.UNBIASED_LOSER, UNIFORM_LAMBDA),
        ],
    )
    def test_parse(self, text, kind, lam):
        rule = parse_rule(text)
        assert rule.kind is kind
        assert rule.lam == lam

    def test_rejects_out_of_range_lambda(self):
        with pytest.raises(ValueError):
            parse_rule("yardsale:lambda=1.5")

    def test_unknown_rule_lists_valid_names(self):
        with pytest.raises(ValueError, match="yardsale"):
            parse_rule("barter:lambda=0.5")

    def test_round_trip_is_canonical(self):
        for text in [
            "yardsale:lambda=0.5",
            "loser:lambda=uniform",
            "unbiased-loser:lambda=0.125",
            "iglesias-almeida",
        ]:
            rule = parse_rule(text)
            assert format_rule(rule) == text
            assert parse_rule(format_rule(rule)) == rule
