"""The four binary exchange rules as exact two-point distributions in delta.

For fixed wealths (x_i, x_j) and fixed lambda every rule is a two-point (or
degenerate one-point) law for agent i's gain:

    classic loser      +lam*x_j w.p. 1/2,              -lam*x_i w.p. 1/2
    yard sale          +lam*min w.p. 1/2,              -lam*min w.p. 1/2
    unbiased loser     +lam*x_j w.p. x_i/(x_i+x_j),    -lam*x_i w.p. x_j/(x_i+x_j)
    iglesias-almeida   +x_i*x_j/(x_i+x_j) w.p. 1/2,    -x_i*x_j/(x_i+x_j) w.p. 1/2

``two_point_law`` is the one encoding of this table. The exact distribution
(``delta_distribution``), the closed-form moments and the master equation's
kernel atoms are derived from it. The Monte Carlo sweep loops
(``engine._sweep_scalar`` and its compiled twin ``_sweep.c``) take its shape
per exchange for speed: each rule sets agent i's gain on a win and its loss
on a loss, and one loop applies them; tests pin them together.

Exposing the exact laws lets kernel builders and metrics use closed forms,
and makes unbiasedness checkable to rounding error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import UNIFORM_LAMBDA, RuleKind, RuleSpec, format_float


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


def _resolve_lambda(rule: RuleSpec, lam):
    if rule.kind is RuleKind.IGLESIAS_ALMEIDA:
        return 1.0
    if lam is None:
        if rule.random_lambda:
            raise ValueError(
                "rule has per-exchange random lambda; pass an explicit value"
            )
        return float(rule.lam)
    if np.ndim(lam):
        lam = np.asarray(lam, dtype=np.float64)
        if not np.all((lam >= 0.0) & (lam <= 1.0)):
            raise ValueError("every lambda must be in [0, 1]")
        return lam
    lam = float(lam)
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must be in [0, 1], got {lam}")
    return lam


def two_point_law(rule: RuleSpec, x_i, x_j, lam=None):
    """Agent i's gain for one exchange as (d_plus, p_plus, d_minus) arrays.

    Agent i gains d_plus = up >= 0 with probability p_plus and d_minus =
    -down <= 0 otherwise (the table in the module docstring). Accepts
    scalars or numpy arrays and broadcasts them. ``lam`` (a value or an
    array of values in [0, 1]) overrides the rule's fixed lambda and is
    required when the rule carries the random-lambda marker. Two
    zero-wealth agents (0/0 win probability in the unbiased loser rule)
    exchange nothing: both atoms are 0.
    """
    xi = np.asarray(x_i, dtype=np.float64)
    xj = np.asarray(x_j, dtype=np.float64)
    lam = _resolve_lambda(rule, lam)
    kind = rule.kind
    p_plus = 0.5
    if kind is RuleKind.YARD_SALE:
        up = down = lam * np.minimum(xi, xj)
    elif kind is RuleKind.IGLESIAS_ALMEIDA:
        up = down = harmonic_transfer(xi, xj)
    else:  # the loser rules
        up, down = lam * xj, lam * xi
        if kind is RuleKind.UNBIASED_LOSER:
            s = xi + xj
            p_plus = np.where(s > 0.0, xi / np.where(s > 0.0, s, 1.0), 0.0)
    return tuple(np.broadcast_arrays(up, p_plus, -down + 0.0))


def _check_wealths(x_i: float, x_j: float) -> None:
    if x_i < 0.0 or x_j < 0.0:
        raise ValueError(f"wealths must be non-negative, got ({x_i}, {x_j})")


def delta_distribution(
    rule: RuleSpec, x_i: float, x_j: float, lam: float | None = None
) -> DeltaDistribution:
    """Exact conditional law of agent i's gain for one exchange.

    The atoms of ``two_point_law``, canonicalized: zero-probability atoms
    are dropped and equal deltas merged.
    """
    _check_wealths(x_i, x_j)
    law = two_point_law(rule, x_i, x_j, lam)
    d_plus, p_plus, d_minus = (float(v) + 0.0 for v in law)
    if d_plus == d_minus or p_plus == 1.0:
        return DeltaDistribution(atoms=((d_plus, 1.0),))
    if p_plus == 0.0:
        return DeltaDistribution(atoms=((d_minus, 1.0),))
    return DeltaDistribution(atoms=((d_plus, p_plus), (d_minus, 1.0 - p_plus)))


def expected_delta(rule: RuleSpec, x_i, x_j, lam: float | None = None):
    """E[delta] of ``two_point_law``: lam*(x_j - x_i)/2 for the classic loser
    rule, exactly 0 for the unbiased rules; accepts scalars or numpy arrays.
    """
    d_plus, p_plus, d_minus = two_point_law(rule, x_i, x_j, lam)
    if rule.unbiased:
        return np.zeros(p_plus.shape)[()]
    return (p_plus * d_plus + (1.0 - p_plus) * d_minus)[()]


def expected_abs_delta(rule: RuleSpec, x_i, x_j, lam: float | None = None):
    """E[|delta|] of ``two_point_law``; accepts scalars or numpy arrays.

    classic loser: lam*(x_i+x_j)/2; yard sale: lam*min; unbiased loser:
    2*lam*x_i*x_j/(x_i+x_j); iglesias-almeida: x_i*x_j/(x_i+x_j).
    """
    d_plus, p_plus, d_minus = two_point_law(rule, x_i, x_j, lam)
    if rule.unbiased:
        # Both atoms carry the same |delta| mass; the winner's term alone
        # avoids the cancellation in 1 - p_plus at extreme wealth ratios.
        return (2.0 * p_plus * d_plus)[()]
    return (p_plus * d_plus - (1.0 - p_plus) * d_minus)[()]


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
    return f"{rule.kind.value}:lambda={format_float(rule.lam)}"
