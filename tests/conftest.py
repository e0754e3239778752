import numpy as np


def sweep_draws(rule, seed):
    """Replay the draws of one 2-agent ``engine._sweep`` on a generator
    seeded ``seed``, in the engine's layout (i block, j block, lambda block,
    coin block): returns (i, lambda or None, coin). j is the other agent;
    the coin is 0/1, or a uniform for the unbiased loser rule.
    """
    from kinex import RuleKind

    gen = np.random.Generator(np.random.PCG64(seed))
    i = int(gen.integers(0, 2, size=1)[0])
    gen.integers(0, 1, size=1)
    lam = float(gen.random(size=1)[0]) if rule.random_lambda else None
    if rule.kind is RuleKind.UNBIASED_LOSER:
        return i, lam, float(gen.random(size=1)[0])
    return i, lam, int(gen.integers(0, 2, size=1)[0])


def one_exchange(rule, wealth, seed):
    """Run one exchange, a 2-agent ``engine._sweep``, on a generator seeded
    ``seed``; returns (wealth after, sum of |delta| the sweep reports)."""
    from kinex.engine import _sweep

    w = [float(x) for x in wealth]
    moved = _sweep(w, rule, np.random.Generator(np.random.PCG64(seed)))
    return w, moved


def seed_with(rule, i, coin):
    """First seed whose 2-agent sweep tags agent ``i`` and draws ``coin``."""
    return next(
        s for s in range(1000) if sweep_draws(rule, s)[::2] == (i, coin)
    )


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
