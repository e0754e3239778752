import hashlib
import json
import subprocess
import sys

import pytest

import kinex
from kinex import (
    Population,
    SimConfig,
    gini_population,
    parse_rule,
    run,
    write_snapshot,
)
from kinex.cli import emit_metadata, ExperimentConfig, main
from kinex.core import format_float
from kinex.engine import _sweep

from conftest import CRITERION_12_COMMANDS, gini_dip


def run_cli(*args):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue()


class TestSimulate:
    def test_writes_csv_and_metadata(self, tmp_path):
        out = tmp_path / "run.csv"
        code, stdout, _ = run_cli(
            "simulate", "--rule", "yardsale:lambda=0.5", "--n", "16",
            "--sweeps", "40", "--seed", "3", "--record-every", "10",
            "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,gini,liquidity,mean_wealth,top_share,zero_fraction,gini_gap"
        assert len(lines) == 5
        meta = json.loads((tmp_path / "run.csv.meta.json").read_text())
        assert meta["version"] == kinex.__version__
        assert meta["time_convention"] == "sweep=N/2 exchanges"
        assert meta["rule"] == "yardsale:lambda=0.5"

    def test_byte_identical_rerun(self, tmp_path):
        args = (
            "simulate", "--rule", "unbiased-loser:lambda=0.3", "--n", "12",
            "--sweeps", "30", "--seed", "17", "--record-every", "5",
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(*args, "--out", str(a))[0] == 0
        assert run_cli(*args, "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.csv.meta.json").read_bytes() == (
            tmp_path / "b.csv.meta.json"
        ).read_bytes()

    def test_snapshot_files(self, tmp_path):
        out = tmp_path / "run.csv"
        snap_dir = tmp_path / "snaps"
        code, _, _ = run_cli(
            "simulate", "--rule", "iglesias-almeida", "--n", "8",
            "--sweeps", "20", "--out", str(out),
            "--snapshot-every", "10", "--snapshot-dir", str(snap_dir),
        )
        assert code == 0
        files = sorted(p.name for p in snap_dir.iterdir())
        assert files == ["population_t10.txt", "population_t20.txt"]
        pop = kinex.read_snapshot(snap_dir / "population_t20.txt")
        assert pop.size == 8

    def test_stop_flags(self, tmp_path):
        out = tmp_path / "run.csv"
        code, stdout, _ = run_cli(
            "simulate", "--rule", "yardsale:lambda=1", "--n", "2",
            "--sweeps", "50", "--out", str(out),
            "--stop-gini-gap", "1e-6", "--stop-liquidity", "1",
        )
        assert code == 0
        assert "stop_reason=condensed" in stdout

    def test_random_lambda_metadata(self, tmp_path):
        out = tmp_path / "run.csv"
        run_cli(
            "simulate", "--rule", "yardsale:lambda=uniform", "--n", "8",
            "--sweeps", "10", "--out", str(out),
        )
        meta = json.loads((tmp_path / "run.csv.meta.json").read_text())
        assert meta["lambda"] == "uniform[0,1]"


class TestConfigErrors:
    def test_bad_lambda_exits_2(self, tmp_path):
        code, _, err = run_cli(
            "simulate", "--rule", "yardsale:lambda=1.5", "--n", "8",
            "--sweeps", "10", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "lambda" in err

    def test_unknown_rule_exits_2(self, tmp_path):
        code, _, err = run_cli(
            "simulate", "--rule", "barter", "--n", "8",
            "--sweeps", "10", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "valid" in err

    def test_bad_snapshot_file_exits_2(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("nonsense\n")
        code, _, _ = run_cli("gini", str(bad))
        assert code == 2

    def test_snapshot_count_unlike_header_exits_2(self, tmp_path):
        short = tmp_path / "short.txt"
        short.write_text("# kinex population N=4 t=0\n0\n1\n2\n")
        code, stdout, err = run_cli("gini", str(short))
        assert (code, stdout) == (2, "")
        assert "N=4" in err

    @pytest.mark.parametrize(
        "flags",
        [
            ("--grid", "log:1e-3:inf:40", "--init", "point:1"),
            ("--grid", "log:1e-3:1e3:40", "--init", "point:1", "--dt", "nan"),
            ("--grid", "log:1e-3:1e3:40", "--init", "point:1", "--t-end", "nan"),
            ("--grid", "log:1e-3:1e3:40", "--init", "point:1e-320"),
            ("--grid", "log:1e-320:1e3:16", "--init", "point:1"),
            ("--grid", "linear:1.7e308:16", "--init", "point:1"),
            ("--grid", "log:1e-4:1e5:40", "--init", "exp:1e-320"),
        ],
        ids=["grid-inf", "dt-nan", "t-end-nan", "point-rounds-to-zero",
             "point-on-top-point", "top-point-overflows", "exp-below-grid"],
    )
    def test_integrate_non_finite_value_exits_2(self, flags, tmp_path):
        out = tmp_path / "x.csv"
        code, _, err = run_cli(
            "integrate", "--rule", "yardsale:lambda=0.5", "--dt", "1",
            "--t-end", "3", *flags, "--out", str(out),
        )
        assert code == 2
        assert err.startswith("kinex: config error:") and err.count("\n") == 1
        assert not out.exists()


class TestConfigFile:
    def test_file_supplies_flags_and_cli_overrides(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "rule=yardsale:lambda=0.5\nn=16\nsweeps=20\nrecord-every=5\nseed=1\n"
        )
        out = tmp_path / "a.csv"
        code, _, _ = run_cli(
            "simulate", "--config", str(cfg), "--out", str(out), "--seed", "9"
        )
        assert code == 0
        meta = json.loads((tmp_path / "a.csv.meta.json").read_text())
        assert meta["parameters"]["seed"] == 9
        assert meta["parameters"]["n"] == 16

    def test_underscore_keys_accepted(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("record_every=10\n")
        out = tmp_path / "a.csv"
        code, _, _ = run_cli(
            "simulate", "--config", str(cfg), "--rule", "iglesias-almeida",
            "--n", "8", "--sweeps", "20", "--out", str(out),
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 3


    @pytest.mark.parametrize(
        "spelling", ["--config", "--config=", "--conf", "--conf=", "--c", "--c="]
    )
    def test_every_spelling_reads_the_file(self, tmp_path, spelling):
        # argparse accepts each of these for --config; none may skip the file
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rule=yardsale:lambda=0.5\nn=16\nsweeps=20\nseed=3\n")
        out = tmp_path / "a.csv"
        if spelling.endswith("="):
            flag = [spelling + str(cfg)]
        else:
            flag = [spelling, str(cfg)]
        code, _, err = run_cli("simulate", *flag, "--out", str(out))
        assert code == 0, err
        meta = json.loads((tmp_path / "a.csv.meta.json").read_text())
        assert meta["parameters"]["seed"] == 3
        assert meta["parameters"]["n"] == 16

    @pytest.mark.parametrize(
        "flags, file_text",
        [
            (["--config", "{cfg}", "--conf={cfg}"], "seed=3\n"),
            (["--config"], "seed=3\n"),
            (["--config", "{cfg}"], "config=other.cfg\n"),
        ],
        ids=["given-twice", "no-path", "nested"],
    )
    def test_config_that_cannot_be_read_exits_2(self, tmp_path, flags, file_text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(file_text)
        code, _, err = run_cli(
            "simulate", "--rule", "iglesias-almeida", "--n", "8", "--sweeps", "5",
            "--out", str(tmp_path / "a.csv"),
            *[f.format(cfg=cfg) for f in flags],
        )
        assert code == 2
        assert "config" in err


class TestEnsembleCommand:
    def test_csv_columns(self, tmp_path):
        out = tmp_path / "ens.csv"
        code, _, _ = run_cli(
            "ensemble", "--rule", "yardsale:lambda=0.5", "--n", "8",
            "--sweeps", "20", "--record-every", "10", "--replicas", "3",
            "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,gini_mean,gini_std,liquidity_mean,liquidity_std"
        assert len(lines) == 3

    def test_byte_identical_rerun(self, tmp_path):
        args = (
            "ensemble", "--rule", "yardsale:lambda=0.2", "--n", "8",
            "--sweeps", "10", "--record-every", "5", "--replicas", "2",
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(*args, "--out", str(a))
        run_cli(*args, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestIntegrateCommand:
    def test_report_and_snapshots(self, tmp_path):
        out = tmp_path / "int.csv"
        snaps = tmp_path / "snaps.csv"
        code, stdout, _ = run_cli(
            "integrate", "--rule", "yardsale:lambda=0.5",
            "--grid", "log:1e-3:100:64", "--init", "point:1",
            "--dt", "1", "--t-end", "5", "--out", str(out),
            "--snapshots", str(snaps), "--snapshot-every", "2",
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,dt,gini,gini_rate,liquidity,bound_ratio,mass_drift,mean_drift"
        assert len(lines) > 1
        snap_lines = snaps.read_text().splitlines()
        assert snap_lines[0] == "t,cell_center,mass"

    def test_byte_identical_rerun(self, tmp_path):
        args = (
            "integrate", "--rule", "iglesias-almeida",
            "--grid", "log:1e-3:100:64", "--init", "exp:1",
            "--dt", "1", "--t-end", "3",
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(*args, "--out", str(a))
        run_cli(*args, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_bad_grid_exits_2(self, tmp_path):
        code, _, _ = run_cli(
            "integrate", "--rule", "iglesias-almeida", "--grid", "linear:10",
            "--init", "point:1", "--dt", "1", "--t-end", "2",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2

    def test_gini_decrease_exits_3(self, tmp_path, monkeypatch):
        monkeypatch.setattr("kinex.master_eq._weighted_gini", gini_dip(call=4))
        code, _, err = run_cli(
            "integrate", "--rule", "yardsale:lambda=0.5",
            "--grid", "log:1e-3:1e3:64", "--init", "exp:1",
            "--dt", "1", "--t-end", "10", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 3
        assert "Gini decrease" in err

    def test_random_lambda_kernel(self, tmp_path):
        out = tmp_path / "rand.csv"
        code, _, _ = run_cli(
            "integrate", "--rule", "yardsale:lambda=uniform",
            "--grid", "log:1e-3:100:64", "--init", "exp:1",
            "--dt", "2", "--t-end", "10", "--out", str(out),
        )
        assert code == 0
        rows = out.read_text().splitlines()[1:]
        ginis = [float(r.split(",")[2]) for r in rows]
        assert ginis == sorted(ginis)


class TestKernelCheckCommand:
    def test_passes_for_unbiased_rule(self):
        code, stdout, _ = run_cli(
            "kernel-check", "--rule", "yardsale:lambda=0.5",
            "--grid", "linear:10:64",
        )
        assert code == 0
        assert "max normalization error" in stdout
        assert "passed" in stdout

    def test_classic_loser_reports_bias_but_passes(self):
        code, stdout, _ = run_cli(
            "kernel-check", "--rule", "loser:lambda=0.5", "--grid", "linear:10:64"
        )
        assert code == 0
        max_bias = float(stdout.splitlines()[1].split(": ")[1])
        assert max_bias > 0.1

    def test_audits_a_grid_no_density_fits(self):
        # no initial density fits this grid (its top point is about 500, the
        # next 3e-18), yet its axis is audited: neighbouring points lie 1e20
        # apart, too far for the split to place a gain exactly, so it fails
        code, stdout, _ = run_cli(
            "kernel-check", "--rule", "yardsale:lambda=0.5",
            "--grid", "log:1e-320:1e3:16",
        )
        assert code == 3
        assert stdout.splitlines() == [
            "max normalization error: 0",
            "max bias: 125",
            "max relative bias: 0.125",
            "FAILED",
        ]


class TestSweepCommand:
    def test_lambda_sweep_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            "sweep", "--param", "lambda", "--values", "0.2,0.5,1.0",
            "--rule", "yardsale:lambda=0.5", "--n", "16", "--sweeps", "30",
            "--record-every", "10", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("parameter,value,final_gini")
        assert len(lines) == 4

    def test_lambda_sweep_to_uniform(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            "sweep", "--param", "lambda", "--values", "0.5,uniform",
            "--rule", "yardsale:lambda=0.5", "--n", "16", "--sweeps", "30",
            "--record-every", "10", "--seed", "3", "--out", str(out),
        )
        assert code == 0
        row = out.read_text().splitlines()[2].split(",")
        assert row[:2] == ["lambda", "uniform"]
        assert row[-1] == ""
        traj = run(SimConfig(
            n=16, rule=parse_rule("yardsale:lambda=uniform"), max_sweeps=30,
            record_every=10, seed=3,
        ))
        assert row[2] == format_float(traj.records[-1].gini)

    def test_n_sweep_reports_finite_max_gini(self, tmp_path):
        out = tmp_path / "sweep.csv"
        run_cli(
            "sweep", "--param", "N", "--values", "64,128,256",
            "--rule", "yardsale:lambda=0.5", "--n", "16", "--sweeps", "10",
            "--record-every", "5", "--out", str(out),
        )
        rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
        for row, n in zip(rows, [64, 128, 256]):
            assert float(row[4]) == (n - 1) / n

    def test_per_row_error_recorded_and_sweep_continues(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            "sweep", "--param", "rule",
            "--values", "yardsale:lambda=0.5,iglesias-almeida",
            "--rule", "yardsale:lambda=0.5", "--n", "16", "--sweeps", "10",
            "--init", "file:/nonexistent/pop.txt", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        for ln in lines[1:]:
            assert "No such file" in ln or "nonexistent" in ln

    def test_engine_bug_propagates(self, tmp_path, monkeypatch):
        def broken_run(cfg):
            raise RuntimeError("engine bug")

        monkeypatch.setattr("kinex.cli.run", broken_run)
        out = tmp_path / "sweep.csv"
        with pytest.raises(RuntimeError, match="engine bug"):
            run_cli(
                "sweep", "--param", "lambda", "--values", "0.2,0.5",
                "--rule", "yardsale:lambda=0.5", "--n", "16", "--sweeps", "10",
                "--out", str(out),
            )
        assert not out.exists()

    def test_empty_values_rejected(self, tmp_path):
        code, _, _ = run_cli(
            "sweep", "--param", "lambda", "--values", "",
            "--rule", "yardsale:lambda=0.5", "--n", "8", "--sweeps", "5",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2


def _leaking_sweep(w, rule, gen):
    """A sweep that creates wealth: the sum drifts from the total."""
    moved = _sweep(w, rule, gen)
    w[0] += 1.0
    return moved


def _negative_sweep(w, rule, gen):
    """A sweep that keeps the sum but leaves agent 0 with negative wealth."""
    moved = _sweep(w, rule, gen)
    w[1] += w[0] + 0.5
    w[0] = -0.5
    return moved


class TestRecordAudit:
    """Each record is audited; a breach is an invariant breach (exit 3)."""

    FAULTS = {"leak": _leaking_sweep, "negative": _negative_sweep}

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate", "--n", "16"),
            ("simulate", "--n", "8192"),
            ("ensemble", "--n", "16", "--replicas", "2"),
        ],
        ids=["simulate", "simulate-large", "ensemble"],
    )
    def test_breach_exits_3(self, fault, argv, tmp_path, monkeypatch):
        monkeypatch.setenv("KINEX_THREADS", "1")  # replicas in this process
        monkeypatch.setattr("kinex.engine._sweep", self.FAULTS[fault])
        code, _, err = run_cli(
            *argv, "--rule", "yardsale:lambda=0.5", "--sweeps", "4",
            "--record-every", "2", "--out", str(tmp_path / "run.csv"),
        )
        assert code == 3
        assert "invariant breach" in err

    def test_sweep_reports_breach_in_its_row(self, tmp_path, monkeypatch):
        monkeypatch.setattr("kinex.engine._sweep", _negative_sweep)
        out = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            "sweep", "--param", "lambda", "--values", "0.2,0.5",
            "--rule", "yardsale:lambda=0.5", "--n", "16", "--sweeps", "4",
            "--out", str(out),
        )
        assert code == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 2
        assert all("negative wealth -0.5" in row for row in rows)


class TestGiniCommand:
    def test_matches_library(self, tmp_path):
        pop = Population([0.0, 1.0, 2.0, 5.0])
        path = tmp_path / "pop.txt"
        write_snapshot(path, pop)
        code, stdout, _ = run_cli("gini", str(path))
        assert code == 0
        assert float(stdout.strip()) == pytest.approx(gini_population(pop), rel=1e-12)


# sha256 of (CSV, .meta.json) for each criterion-12 command and each
# integrate and large-N command below. A change that moves one of these
# changes output bytes and must say so in CHANGES.md.
GOLDEN_SHA256 = {
    "simulate": (
        "ccb29a0cf61524695bf7f22098d7280ef8ff98cb7fcd6b4d3033d52d6093dff9",
        "828e7506522f94a0edf1476a9ea61698bb1cfdafa16c50c6940d44fe62799480",
    ),
    "ensemble": (
        "a462615b397aedc29b4819b890bd1b7cddb74288dc12de2f0a22b61a8f2a4cb0",
        "4531e2517b7b302844ab24a9968a1dfd79046693b258658cfc18a5b775636c33",
    ),
    "integrate": (
        "4de8e69e8cea6eeb1e3e4051e65ee7f99e2838acf312655ea0c909eb0a47fe51",
        "eb018562ed6b325c3d888a472e7d8b4db2186f17ea3c1e4f1ee38b859e99dd1e",
    ),
    "sweep": (
        "5f8c788aa33cc874bb797ee677c209c0eefa529816c95c8a3745bee52c48ea84",
        "bdd8df570a2f6490cc6beb8b44779a48a187ef5625d6417936d2c9d0f0b6412d",
    ),
}


# Commands at N=8192, on the sweep path for large populations: every rule
# variant, two of them from a uniform initial wealth, and one ensemble.
LARGE_N_COMMANDS = {
    f"simulate-n8192-{rule.replace(':lambda=', '-')}": [
        "simulate", "--rule", rule, "--n", "8192", "--sweeps", "3",
        "--record-every", "1", "--seed", "11", *init,
    ]
    for rule, init in [
        ("yardsale:lambda=0.5", ()),
        ("yardsale:lambda=uniform", ()),
        ("loser:lambda=0.5", ()),
        ("loser:lambda=uniform", ()),
        ("unbiased-loser:lambda=0.5", ("--init", "uniform")),
        ("unbiased-loser:lambda=uniform", ()),
        ("iglesias-almeida", ("--init", "uniform")),
    ]
}
LARGE_N_COMMANDS["ensemble-n8192"] = [
    "ensemble", "--rule", "yardsale:lambda=uniform", "--n", "8192",
    "--sweeps", "3", "--record-every", "1", "--replicas", "2", "--seed", "13",
]

# integrate runs that reach both step controls: a yardsale run that halves
# its step 309 times for positivity in 286 steps and stops early, and a
# classic-loser run whose Gini falls on 10 of its 54 steps (the rule is
# exempt from the Gini audit).
INTEGRATE_COMMANDS = {
    "integrate-yardsale-0.5-condense": [
        "integrate", "--rule", "yardsale:lambda=0.5",
        "--grid", "log:1e-4:1e5:200", "--init", "point:1",
        "--dt", "50", "--t-end", "1e5",
        "--stop-gini", "0.995", "--stop-liquidity", "0.005",
    ],
    "integrate-loser-0.5": [
        "integrate", "--rule", "loser:lambda=0.5",
        "--grid", "log:1e-3:1e3:64", "--init", "exp:1",
        "--dt", "5", "--t-end", "100",
    ],
}

GOLDEN_SHA256.update({
    "integrate-yardsale-0.5-condense": (
        "eccbeae8c5f449b5910042d2db081e27afd5eb7f54a19f852ec8e100124aba28",
        "329d2d2919cdd576ecfb7356352d5d633a396d4e56c3f924af2f159c054b0718",
    ),
    "integrate-loser-0.5": (
        "b249773713430d96f00044a244a32e03396636cc8fa779a5da2d4805babf7a6e",
        "fd9aa38a5335cca299de5f29ce10f4f0c9578ed38636a7d24a5be027da1f3c6c",
    ),
    "simulate-n8192-yardsale-0.5": (
        "47caa1195c37621805e74c3f1590e9529830f3209951a14dd5de50c756d85443",
        "a5166887dcbbc99855b643e159e135408caf85cc53e6132ce77fb646298c91aa",
    ),
    "simulate-n8192-yardsale-uniform": (
        "55df6f5a5b7b798dddc848b3cc9bbb9b105710168827ccd1263c610bf31bad4e",
        "c3c2bbbade1ebbaa2de03c7512880f3add70bccb92d706f3760ad70be98197f0",
    ),
    "simulate-n8192-loser-0.5": (
        "a469a317245111d7c5e57ff010a909fd380198df3fb6497bf3ebf86491de3b51",
        "6014c4965ced1e92363e5190414a8406225e09827209b3d85678412679769761",
    ),
    "simulate-n8192-loser-uniform": (
        "7cb1a32ecf0c4f28adcc03997714cc3c87154fbfceefed63b24b1f3857e02ebd",
        "046c4a5447445f9defa0d8b4332ab120db1987a940e096854e2d020cb7a83d40",
    ),
    "simulate-n8192-unbiased-loser-0.5": (
        "7db76507aaa76de82d51917ae58d5abe2d82eaf394809279120f48459bada898",
        "37ed25375a0b922a3442227a568e9787235f1ca6b33448ae050e61df5018d6bb",
    ),
    "simulate-n8192-unbiased-loser-uniform": (
        "dc0bdf97f0dfa282cb280bd483fdec39501a92efb4af07faebe247e2b1079171",
        "1567c555a90d7d28efa7bbac2f47e29d0d9dd44f0751c67f0913a9bb0243beb2",
    ),
    "simulate-n8192-iglesias-almeida": (
        "63206d83c27186eda403e86c301000e7773d1a569c8410ddd57216e457527532",
        "8700c173d6448e387dedc70e309ddeb94fb8d0abd8bce94e69ed85dcdeb6ce7d",
    ),
    "ensemble-n8192": (
        "3aa0ff3548c80c6cc0844771abbc4476cf5cc4c63977d7a512e2b8d11bbb8bf3",
        "7c8d0f2ebc2b68304cb91ff0cc7670925cc190e902d8a742badbe36bce9a2325",
    ),
})


@pytest.mark.parametrize("command", sorted(GOLDEN_SHA256))
def test_golden_output_hashes(command, tmp_path):
    argv = {**CRITERION_12_COMMANDS, **INTEGRATE_COMMANDS, **LARGE_N_COMMANDS}[command]
    out = tmp_path / f"{command}.csv"
    assert run_cli(*argv, "--out", str(out))[0] == 0
    meta = tmp_path / f"{command}.csv.meta.json"
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (out, meta))
    assert digests == GOLDEN_SHA256[command]


class TestEntryPoint:
    def test_console_script_runs(self, tmp_path):
        out = tmp_path / "run.csv"
        proc = subprocess.run(
            [
                sys.executable, "-m", "kinex.cli", "simulate",
                "--rule", "yardsale:lambda=0.5", "--n", "8", "--sweeps", "10",
                "--out", str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert out.exists()


def test_emit_metadata_deterministic():
    cfg = ExperimentConfig("simulate", {"rule": "yardsale:lambda=0.5", "n": 8})
    a = json.dumps(emit_metadata(cfg), sort_keys=True)
    b = json.dumps(emit_metadata(cfg), sort_keys=True)
    assert a == b
    assert json.loads(a)["version"] == kinex.__version__
