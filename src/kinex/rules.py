"""The four binary exchange rules as exact two-point distributions in delta.

For fixed wealths (x_i, x_j) and fixed lambda every rule is a two-point (or
degenerate one-point) law for agent i's gain:

    classic loser      +lam*x_j w.p. 1/2,              -lam*x_i w.p. 1/2
    yard sale          +lam*min w.p. 1/2,              -lam*min w.p. 1/2
    unbiased loser     +lam*x_j w.p. x_i/(x_i+x_j),    -lam*x_i w.p. x_j/(x_i+x_j)
    iglesias-almeida   +x_i*x_j/(x_i+x_j) w.p. 1/2,    -x_i*x_j/(x_i+x_j) w.p. 1/2

Exposing the exact laws (not just samplers) lets kernel builders and metrics
use closed forms, and makes unbiasedness checkable to rounding error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import UNIFORM_LAMBDA, ExchangeOutcome, RngStream, RuleKind, RuleSpec


@dataclass(frozen=True)
class DeltaDistribution:
    """Atoms of the conditional law of delta: (value, probability) pairs.

    Probabilities are non-negative and sum to 1; every atom lies in
    [-x_i, x_j]. Zero-probability atoms are dropped and equal-delta atoms
    merged, so the degenerate no-exchange case is exactly ((0.0, 1.0),).
    """

    atoms: tuple[tuple[float, float], ...]

    def mean(self) -> float:
        return sum(d * p for d, p in self.atoms)

    def mean_abs(self) -> float:
        return sum(abs(d) * p for d, p in self.atoms)


_DEGENERATE = DeltaDistribution(atoms=((0.0, 1.0),))


def harmonic_transfer(x_i, x_j):
    """x_i * x_j / (x_i + x_j) for scalars or arrays, 0 when both are 0.

    Evaluated so that a product below the normal range (zero or subnormal,
    where it keeps too few significant bits) is never divided, and the
    result never exceeds min(x_i, x_j), keeping every delta atom inside the
    admissible support.
    """
    xi = np.asarray(x_i, dtype=np.float64)
    xj = np.asarray(x_j, dtype=np.float64)
    s = xi + xj
    safe = np.where(s > 0.0, s, 1.0)
    prod = xi * xj
    with np.errstate(under="ignore"):
        d = np.where(
            (prod < np.finfo(np.float64).tiny) & (xi > 0.0) & (xj > 0.0),
            xi * (xj / safe),
            prod / safe,
        )
    d = np.minimum(d, np.minimum(xi, xj))
    return np.where(s > 0.0, d, 0.0)[()]


def _resolve_lambda(rule: RuleSpec, lam: float | None) -> float:
    if rule.kind is RuleKind.IGLESIAS_ALMEIDA:
        return 1.0
    if lam is None:
        if rule.random_lambda:
            raise ValueError(
                "rule has per-exchange random lambda; pass an explicit value"
            )
        return float(rule.lam)
    lam = float(lam)
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must be in [0, 1], got {lam}")
    return lam


def _check_wealths(x_i: float, x_j: float) -> None:
    if x_i < 0.0 or x_j < 0.0:
        raise ValueError(f"wealths must be non-negative, got ({x_i}, {x_j})")


def _two_point(d_plus: float, p_plus: float, d_minus: float) -> DeltaDistribution:
    # Canonicalize: drop zero-probability atoms, merge equal deltas.
    d_plus += 0.0
    d_minus += 0.0
    if d_plus == d_minus:
        return DeltaDistribution(atoms=((d_plus, 1.0),))
    if p_plus == 0.0:
        return DeltaDistribution(atoms=((d_minus, 1.0),))
    if p_plus == 1.0:
        return DeltaDistribution(atoms=((d_plus, 1.0),))
    return DeltaDistribution(atoms=((d_plus, p_plus), (d_minus, 1.0 - p_plus)))


def delta_distribution(
    rule: RuleSpec, x_i: float, x_j: float, lam: float | None = None
) -> DeltaDistribution:
    """Exact conditional law of agent i's gain for one exchange.

    ``lam`` overrides the rule's fixed lambda and is required when the rule
    carries the random-lambda marker. Two zero-wealth agents (0/0 win
    probability in the unbiased loser rule) exchange nothing by definition.
    """
    _check_wealths(x_i, x_j)
    lam = _resolve_lambda(rule, lam)
    kind = rule.kind
    if kind is RuleKind.YARD_SALE:
        d = lam * min(x_i, x_j)
        return _two_point(d, 0.5, -d)
    if kind is RuleKind.CLASSIC_LOSER:
        return _two_point(lam * x_j, 0.5, -(lam * x_i))
    if kind is RuleKind.UNBIASED_LOSER:
        s = x_i + x_j
        if s == 0.0:
            return _DEGENERATE
        return _two_point(lam * x_j, x_i / s, -(lam * x_i))
    # Iglesias-Almeida
    d = float(harmonic_transfer(x_i, x_j))
    return _two_point(d, 0.5, -d)


def sample_delta(
    rule: RuleSpec, x_i: float, x_j: float, rng: RngStream
) -> tuple[float, int, float]:
    """Draw one exchange: returns (delta, coin, lambda_used).

    Draw order on the stream is fixed: lambda first (only when the rule is
    random-lambda), then the coin. The coin is the epsilon in {0,1} for the
    loser rules and the eta in {-1,+1} for the coin-flip rules.
    """
    _check_wealths(x_i, x_j)
    if rule.random_lambda:
        lam = rng.uniform()
    else:
        lam = _resolve_lambda(rule, None)
    kind = rule.kind
    if kind is RuleKind.YARD_SALE:
        eta = 1 if rng.integer(2) else -1
        return eta * lam * min(x_i, x_j) + 0.0, eta, lam
    if kind is RuleKind.CLASSIC_LOSER:
        eps = rng.integer(2)
        delta = lam * x_j if eps else -(lam * x_i)
        return delta + 0.0, eps, lam
    if kind is RuleKind.UNBIASED_LOSER:
        s = x_i + x_j
        p_win = x_i / s if s > 0.0 else 0.0
        eps = 1 if rng.uniform() < p_win else 0
        delta = lam * x_j if eps else -(lam * x_i)
        return delta + 0.0, eps, lam
    d = float(harmonic_transfer(x_i, x_j))
    eta = 1 if rng.integer(2) else -1
    return eta * d + 0.0, eta, 1.0


def exchange_outcome(
    rule: RuleSpec, pop_wealth, i: int, j: int, rng: RngStream
) -> ExchangeOutcome:
    """Sample a full ExchangeOutcome for agents (i, j) of a wealth vector."""
    delta, coin, lam = sample_delta(rule, float(pop_wealth[i]), float(pop_wealth[j]), rng)
    return ExchangeOutcome(i=i, j=j, delta=delta, coin=coin, lambda_used=lam)


def expected_delta(rule: RuleSpec, x_i, x_j, lam: float | None = None):
    """E[delta]: lam*(x_j - x_i)/2 for the classic loser rule, 0 otherwise.

    Accepts scalars or numpy arrays (broadcast).
    """
    if rule.kind is RuleKind.CLASSIC_LOSER:
        lam = _resolve_lambda(rule, lam)
        return lam * (np.asarray(x_j) - np.asarray(x_i)) / 2.0
    _resolve_lambda(rule, lam)
    return np.zeros(np.broadcast(np.asarray(x_i), np.asarray(x_j)).shape)[()]


def expected_abs_delta(rule: RuleSpec, x_i, x_j, lam: float | None = None):
    """E[|delta|] in closed form; accepts scalars or numpy arrays (broadcast).

    classic loser: lam*(x_i+x_j)/2; yard sale: lam*min; unbiased loser:
    2*lam*x_i*x_j/(x_i+x_j); iglesias-almeida: x_i*x_j/(x_i+x_j).
    """
    xi = np.asarray(x_i, dtype=np.float64)
    xj = np.asarray(x_j, dtype=np.float64)
    lam = _resolve_lambda(rule, lam)
    kind = rule.kind
    if kind is RuleKind.CLASSIC_LOSER:
        return (lam * (xi + xj) / 2.0)[()]
    if kind is RuleKind.YARD_SALE:
        return (lam * np.minimum(xi, xj))[()]
    harm = harmonic_transfer(xi, xj)
    if kind is RuleKind.UNBIASED_LOSER:
        return (2.0 * lam * harm)[()]
    return harm[()]


def metrics_lambda(rule: RuleSpec) -> float | None:
    """Lambda value for closed-form grid metrics.

    The mobility and liquidity integrands are linear in lambda, so a rule
    with per-exchange Uniform[0,1] lambda averages exactly to lambda = 1/2.
    """
    if rule.kind is RuleKind.IGLESIAS_ALMEIDA:
        return None
    if rule.random_lambda:
        return 0.5
    return float(rule.lam)


# CLI rule-string grammar: "yardsale:lambda=0.5", "loser:lambda=uniform",
# "unbiased-loser:lambda=0.25", "iglesias-almeida".

_KIND_BY_NAME = {k.value: k for k in RuleKind}


def parse_rule(text: str) -> RuleSpec:
    """Parse a rule specification string; raises ValueError with position."""
    text = text.strip()
    name, sep, rest = text.partition(":")
    kind = _KIND_BY_NAME.get(name)
    if kind is None:
        valid = ", ".join(sorted(_KIND_BY_NAME))
        raise ValueError(f"unknown rule {name!r} (valid: {valid})")
    if kind is RuleKind.IGLESIAS_ALMEIDA:
        if sep:
            raise ValueError(
                f"iglesias-almeida takes no parameters (at position {len(name)})"
            )
        return RuleSpec(kind=kind)
    if not sep or not rest.startswith("lambda="):
        raise ValueError(
            f"{name} requires ':lambda=<value|uniform>' (at position {len(name)})"
        )
    value = rest[len("lambda="):]
    if value == UNIFORM_LAMBDA:
        return RuleSpec(kind=kind, lam=UNIFORM_LAMBDA)
    try:
        lam = float(value)
    except ValueError:
        pos = len(name) + 1 + len("lambda=")
        raise ValueError(f"bad lambda {value!r} (at position {pos})") from None
    return RuleSpec(kind=kind, lam=lam)


def format_rule(rule: RuleSpec) -> str:
    """Canonical rule string; round-trips through ``parse_rule``."""
    if rule.kind is RuleKind.IGLESIAS_ALMEIDA:
        return rule.kind.value
    if rule.random_lambda:
        return f"{rule.kind.value}:lambda={UNIFORM_LAMBDA}"
    return f"{rule.kind.value}:lambda={format(float(rule.lam), '.12g')}"
