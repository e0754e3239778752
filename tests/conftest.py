import numpy as np


def one_exchange(rule, wealth, i, coin, lam=None):
    """Run one exchange, a 2-agent ``engine._sweep``, on the draws that tag
    agent ``i`` (j is the other), with coin ``coin`` and lambda ``lam``
    (None for a fixed-lambda rule); returns (wealth after, sum of |delta|
    the sweep reports)."""
    from kinex.engine import _sweep

    w = [float(x) for x in wealth]
    moved = _sweep(w, rule, ([i], [1 - i], None if lam is None else [lam], [coin]))
    return w, moved


def make_grid(centers, masses):
    """WealthGrid with explicit representative points (edges at midpoints)."""
    from kinex import WealthGrid

    c = np.asarray(centers, dtype=float)
    mids = 0.5 * (c[:-1] + c[1:])
    edges = np.concatenate(([0.0], mids, [c[-1] + 1.0]))
    return WealthGrid(edges, masses, centers=c)


def gini_dip(call, by=0.1):
    """``master_eq._weighted_gini`` that reports a value ``by`` too low on
    its ``call``-th call only; in ``integrate`` call 1 is the initial state
    and call k + 1 the check of step k."""
    import itertools

    import kinex.master_eq as master_eq

    inner = master_eq._weighted_gini
    calls = itertools.count(1)

    def dipped(m, c):
        g = inner(m, c)
        return g - by if next(calls) == call else g

    return dipped


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
