import shutil

import numpy as np
import pytest


def one_exchange(rule, wealth, i, coin, lam=None):
    """Run one exchange, a 2-agent ``engine._sweep``, on the draws that tag
    agent ``i`` (j is the other), with coin ``coin`` and lambda ``lam``
    (None for a fixed-lambda rule); returns (wealth after, as a list, and
    the sum of |delta| the sweep reports)."""
    from kinex.engine import _sweep

    w = np.array(wealth, dtype=float)
    draws = ([i], [1 - i], None if lam is None else [lam], [coin])
    moved = _sweep(w, rule, tuple(None if a is None else np.array(a) for a in draws))
    return w.tolist(), moved


def compiled_sweep():
    """The compiled module, with its ``draw`` and ``sweep``. The test skips
    where no C compiler is on PATH (the Python path then serves every run)
    and fails where one is but the module did not load or failed its draw
    self-check."""
    import kinex.engine as engine

    return _compiled(engine._compiled_sweep)


def compiled_product():
    """The compiled module as the master-equation products load it, through
    ``engine._load`` (no draw self-check), with its ``pair_rhs``; skips or
    fails as ``compiled_sweep``, numpy's ``bincount`` then serving every
    product."""
    import kinex.engine as engine

    return _compiled(engine._load)


def _compiled(load):
    module = load()
    if module is None:
        if any(map(shutil.which, ("cc", "gcc", "clang"))):
            pytest.fail("a C compiler is on PATH but the compiled module did not load")
        pytest.skip("no C compiler on PATH")
    return module


@pytest.fixture(params=["compiled", "python"])
def sweep_path(request, monkeypatch):
    """Run the test on the compiled module and on the Python path, forced as
    where no compiler is found."""
    import kinex.engine as engine

    if request.param == "compiled":
        compiled_sweep()
    else:
        monkeypatch.setattr(engine, "_compiled_sweep", lambda: None)
    return request.param


@pytest.fixture(params=["compiled", "numpy"])
def product_path(request, monkeypatch):
    """Run the test on the compiled product and on numpy's, forced as where
    no compiler is found."""
    import kinex.master_eq as master_eq

    if request.param == "compiled":
        compiled_product()
    else:
        monkeypatch.setattr(master_eq, "_load", lambda: None)
    return request.param


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
        g, mean = inner(m, c)
        return (g - by if next(calls) == call else g), mean

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
