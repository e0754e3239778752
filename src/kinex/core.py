"""Shared domain types for the finite-N engine and the density integrator.

Wealth is a conserved, non-negative scalar. A population is a finite vector
of agent wealths with a cached total; a wealth grid is a discretized density
on a wealth axis. Both flavors of state share the same three constraints:
non-negativity, fixed normalization, and a conserved first moment.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass

import numpy as np

# Marker for a per-exchange resampled lambda (Uniform[0,1]).
UNIFORM_LAMBDA = "uniform"


class ContractViolation(RuntimeError):
    """An operation received values that a correct caller can never produce.

    It signals a bug, never a bad configuration, and the CLI exits 3 on it.
    """


class RuleKind(enum.Enum):
    CLASSIC_LOSER = "loser"
    YARD_SALE = "yardsale"
    UNBIASED_LOSER = "unbiased-loser"
    IGLESIAS_ALMEIDA = "iglesias-almeida"


@dataclass(frozen=True)
class RuleSpec:
    """An exchange rule plus its single parameter.

    ``lam`` is either a fixed fraction in [0, 1] or the marker
    ``UNIFORM_LAMBDA`` ("uniform"), meaning lambda is resampled per exchange
    from Uniform[0,1]. The Iglesias-Almeida rule has no lambda and rejects
    one.
    """

    kind: RuleKind
    lam: float | str | None = None

    def __post_init__(self):
        if self.kind is RuleKind.IGLESIAS_ALMEIDA:
            if self.lam is not None:
                raise ValueError("iglesias-almeida takes no lambda")
            return
        if self.lam is None:
            raise ValueError(f"{self.kind.value} requires lambda")
        if isinstance(self.lam, str):
            if self.lam != UNIFORM_LAMBDA:
                raise ValueError(f"unknown lambda marker {self.lam!r}")
            return
        lam = float(self.lam)
        if not 0.0 <= lam <= 1.0:
            raise ValueError(f"lambda must be in [0, 1], got {lam}")
        object.__setattr__(self, "lam", lam)

    @property
    def random_lambda(self) -> bool:
        return self.lam == UNIFORM_LAMBDA

    @property
    def unbiased(self) -> bool:
        """True for the three rules with zero expected gain for both agents."""
        return self.kind is not RuleKind.CLASSIC_LOSER


class Population:
    """Agent wealth vector with a cached conserved total.

    The cached total is set at construction and never recomputed during a
    run; exchanges move a single delta between two entries, so the sum is
    preserved to within accumulated rounding, which the engine audits at
    every record.
    """

    __slots__ = ("wealth", "total")

    def __init__(self, wealth, total: float | None = None):
        w = np.asarray(wealth, dtype=np.float64).copy()
        if w.ndim != 1 or w.size < 2:
            raise ValueError("population needs at least 2 agents")
        if np.any(w < 0.0) or not np.all(np.isfinite(w)):
            raise ValueError("negative or non-finite wealth is not allowed")
        self.wealth = w
        self.total = math.fsum(w) if total is None else float(total)

    @property
    def size(self) -> int:
        return self.wealth.size

    @property
    def mean(self) -> float:
        return self.total / self.wealth.size

    def __repr__(self):
        return f"Population(N={self.size}, total={self.total!r})"


class RngStream:
    """Deterministic random stream: PCG64 keyed by (seed, stream id).

    Samples are drawn from the numpy Generator ``gen``. Identical
    (seed, stream) pairs reproduce bitwise-identical sample sequences;
    distinct stream ids are statistically independent (numpy SeedSequence
    spawn keys). The generator family is fixed repo-wide so that every
    stochastic path in the artifact shares one reproducibility contract.
    """

    __slots__ = ("seed", "stream", "gen")

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed)
        self.stream = int(stream)
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream,))
        self.gen = np.random.Generator(np.random.PCG64(ss))

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream={self.stream})"


class WealthGrid:
    """Discretized wealth density: cell edges, per-cell masses, quadrature points.

    Edges start at 0 and increase strictly; the representative points, one
    per cell, increase strictly (``master_eq._grid_axes`` puts the first at
    exactly 0, so every grid resolves the absorbing state). Total mass must
    be 1 within 1e-10 and all masses non-negative.
    """

    __slots__ = ("edges", "masses", "centers")

    MASS_TOL = 1e-10

    def __init__(self, edges, masses, centers):
        e = np.asarray(edges, dtype=np.float64)
        m = np.asarray(masses, dtype=np.float64).copy()
        if e.ndim != 1 or e.size < 2 or e[0] != 0.0 or np.any(np.diff(e) <= 0):
            raise ValueError("edges must strictly increase from 0")
        if m.shape != (e.size - 1,):
            raise ValueError("masses must have one entry per cell")
        if np.any(m < 0.0):
            raise ValueError("negative cell mass is not allowed")
        c = np.asarray(centers, dtype=np.float64)
        if c.shape != m.shape or np.any(np.diff(c) <= 0) or c[0] < 0.0:
            raise ValueError("representative points must strictly increase")
        if abs(math.fsum(m) - 1.0) > self.MASS_TOL:
            raise ValueError(
                f"grid mass {math.fsum(m)!r} deviates from 1 beyond {self.MASS_TOL}"
            )
        self.edges = e
        self.masses = m
        self.centers = c

    @property
    def cells(self) -> int:
        return self.masses.size

    @property
    def mean(self) -> float:
        """First moment, <x> = sum(mass * representative point)."""
        return float(np.dot(self.masses, self.centers))

    def total_mass(self) -> float:
        return math.fsum(self.masses)

    def with_masses(self, masses) -> "WealthGrid":
        return WealthGrid(self.edges, masses, self.centers)

    def __repr__(self):
        return (
            f"WealthGrid(cells={self.cells}, x_max={self.edges[-1]!r}, "
            f"mean={self.mean!r})"
        )


SNAPSHOT_HEADER = "# kinex population N={n} t={t}"


def format_float(x: float) -> str:
    """Canonical decimal text: 12 significant digits, locale-independent."""
    x = float(x) + 0.0  # normalize -0.0
    return format(x, ".12g")


def write_snapshot(path, pop: Population, t: float = 0) -> None:
    """Write a population snapshot: header line, one wealth per line."""
    t_text = str(int(t)) if float(t) == int(t) else format_float(t)
    lines = [SNAPSHOT_HEADER.format(n=pop.size, t=t_text)]
    lines.extend(format_float(x) for x in pop.wealth)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_snapshot(path) -> Population:
    """Read a population snapshot written by ``write_snapshot``.

    The header's agent count must match the number of wealth lines, so a
    truncated or overlong file is rejected.
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    header = lines[0] if lines else ""
    match = re.fullmatch(r"# kinex population N=(\d+) t=\S+", header)
    if match is None:
        raise ValueError(f"{path}: not a kinex population snapshot (bad header)")
    values = [float(ln) for ln in lines[1:]]
    if len(values) != int(match.group(1)):
        raise ValueError(
            f"{path}: header says N={match.group(1)} but the file holds "
            f"{len(values)} wealths"
        )
    return Population(values)
