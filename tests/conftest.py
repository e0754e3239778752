import numpy as np
import pytest


class ForcedStream:
    """RngStream stand-in that replays scripted draws.

    ``integers`` entries feed ``integer`` calls in order; ``uniforms`` feed
    ``uniform`` calls. Lets tests force a specific pair selection and coin.
    """

    def __init__(self, integers=(), uniforms=()):
        self._integers = list(integers)
        self._uniforms = list(uniforms)

    def integer(self, n):
        v = self._integers.pop(0)
        assert 0 <= v < n, f"scripted draw {v} out of range({n})"
        return v

    def uniform(self):
        return self._uniforms.pop(0)


@pytest.fixture
def forced_stream():
    return ForcedStream


def make_grid(centers, masses):
    """WealthGrid with explicit representative points (edges at midpoints)."""
    from kinex import WealthGrid

    c = np.asarray(centers, dtype=float)
    mids = 0.5 * (c[:-1] + c[1:])
    edges = np.concatenate(([0.0], mids, [c[-1] + 1.0]))
    return WealthGrid(edges, masses, centers=c)


# The four CLI commands of acceptance criterion 12 (each run adds --out).
CRITERION_12_COMMANDS = {
    "simulate": [
        "simulate", "--rule", "yardsale:lambda=0.5", "--n", "64",
        "--sweeps", "200", "--seed", "42", "--record-every", "20",
    ],
    "ensemble": [
        "ensemble", "--rule", "unbiased-loser:lambda=uniform", "--n", "16",
        "--sweeps", "40", "--record-every", "10", "--replicas", "4",
        "--seed", "7",
    ],
    "integrate": [
        "integrate", "--rule", "iglesias-almeida",
        "--grid", "log:1e-3:200:96", "--init", "exp:1",
        "--dt", "5", "--t-end", "40",
    ],
    "sweep": [
        "sweep", "--param", "lambda", "--values", "0.1,0.5,1.0",
        "--rule", "yardsale:lambda=0.5", "--n", "32", "--sweeps", "100",
        "--record-every", "20", "--seed", "5",
    ],
}
