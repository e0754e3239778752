import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

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
from kinex.cli import _build_parser, emit_metadata, ExperimentConfig, main
from kinex.core import format_float
from kinex.engine import _sweep

from conftest import CRITERION_12_COMMANDS, compiled_product, gini_dip


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

    def test_lambda_minus_zero_writes_the_bytes_of_zero(self, tmp_path):
        # the rule string formats lambda as every other float is formatted
        written = []
        for lam in ("0", "-0"):
            out = tmp_path / f"lam{lam}.csv"
            code, _, _ = run_cli(
                "simulate", "--rule", f"yardsale:lambda={lam}", "--n", "8",
                "--sweeps", "5", "--out", str(out),
            )
            assert code == 0
            meta = tmp_path / f"lam{lam}.csv.meta.json"
            written.append((out.read_bytes(), meta.read_bytes()))
        assert written[0] == written[1]

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
            ("--grid", "log:1e-77:1e3:16", "--init", "point:1"),
            ("--grid", "linear:1.7e308:16", "--init", "point:1"),
            ("--grid", "log:1e-4:1e5:40", "--init", "exp:1e-320"),
            # points 1.5e20 apart: the split of a gain errs beyond the
            # integrator's mean audit, which used to abort it (exit 3)
            ("--grid", "log:1e-320:1e3:16", "--init", "point:1e-18"),
            ("--grid", "log:1e-3:1e3:40", "--init", "point:1", "--stop-gini", "nan"),
            ("--grid", "log:1e-3:1e3:40", "--init", "point:1",
             "--stop-liquidity", "-0.1"),
            ("--grid", "log:1e-3:1e3:40", "--init", "point:1",
             "--snapshot-every", "-1", "--snapshots", "s.csv"),
        ],
        ids=["grid-inf", "dt-nan", "t-end-nan", "point-rounds-to-zero",
             "point-on-top-point", "top-point-overflows", "exp-below-grid",
             "points-too-far-apart", "stop-gini-nan", "stop-liquidity-negative",
             "snapshot-every-negative"],
    )
    def test_integrate_non_finite_value_exits_2(self, flags, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "x.csv"
        code, _, err = run_cli(
            "integrate", "--rule", "yardsale:lambda=0.5", "--dt", "1",
            "--t-end", "3", *flags, "--out", str(out),
        )
        assert code == 2
        assert err.startswith("kinex: config error:") and err.count("\n") == 1
        assert not out.exists() and not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ("--stop-gini-gap", "nan"),
            ("--stop-liquidity", "inf"),
            ("--eps-zero", "nan"),
            ("--snapshot-every", "-2", "--snapshot-dir", "d"),
        ],
        ids=["stop-gini-gap-nan", "stop-liquidity-inf", "eps-zero-nan",
             "snapshot-every-negative"],
    )
    def test_simulate_invalid_setting_exits_2(self, flags, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "x.csv"
        code, _, err = run_cli(
            "simulate", "--rule", "yardsale:lambda=0.5", "--n", "8",
            "--sweeps", "4", *flags, "--out", str(out),
        )
        assert code == 2
        assert err.startswith("kinex: config error:") and err.count("\n") == 1
        assert not out.exists() and not (tmp_path / "d").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("simulate", "--n", "8", "--sweeps", "4"),
             "--snapshot-every requires --snapshot-dir"),
            (("integrate", "--grid", "log:1e-3:1e3:40", "--init", "point:1",
              "--dt", "1", "--t-end", "3"),
             "--snapshot-every requires --snapshots"),
        ],
        ids=["simulate", "integrate"],
    )
    def test_snapshot_every_needs_a_destination(self, argv, message, tmp_path):
        out = tmp_path / "x.csv"
        code, _, err = run_cli(
            *argv, "--rule", "yardsale:lambda=0.5", "--snapshot-every", "2",
            "--out", str(out),
        )
        assert (code, err) == (2, f"kinex: config error: {message}\n")
        assert not out.exists()

    def test_snapshot_dir_needs_an_interval(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "x.csv"
        code, _, err = run_cli(
            "simulate", "--rule", "yardsale:lambda=0.5", "--n", "8",
            "--sweeps", "4", "--snapshot-dir", "d", "--out", str(out),
        )
        message = "--snapshot-dir requires --snapshot-every"
        assert (code, err) == (2, f"kinex: config error: {message}\n")
        assert not out.exists() and not (tmp_path / "d").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate", "--n", "8", "--sweeps", "4", "--snapshot-every", "1",
             "--snapshot-dir", "{blocker}"),
            ("integrate", "--grid", "log:1e-3:1e3:40", "--init", "point:1",
             "--dt", "1", "--t-end", "3", "--snapshots", "{blocker}/s.csv"),
        ],
        ids=["simulate", "integrate"],
    )
    def test_unusable_snapshot_destination_writes_nothing(self, argv, tmp_path):
        # a file where a directory must be: the destination fails before the
        # run, and the output and its sidecar are not written
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = tmp_path / "x.csv"
        code, _, err = run_cli(
            *[a.format(blocker=blocker) for a in argv],
            "--rule", "yardsale:lambda=0.5", "--out", str(out),
        )
        assert code == 2 and err.startswith("kinex: config error:")
        assert not out.exists() and not (tmp_path / "x.csv.meta.json").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate", "--rule", "yardsale:lambda=0.5", "--n", "8", "--sweeps", "4",
             "--snapshot-every", "2", "--snapshot-dir", "snaps"),
            ("integrate", "--rule", "yardsale:lambda=0.5", "--grid", "log:1e-3:1e3:40",
             "--init", "point:1", "--dt", "1", "--t-end", "3",
             "--snapshots", "snap.csv", "--snapshot-every", "1"),
            ("ensemble", "--rule", "yardsale:lambda=0.5", "--n", "8", "--sweeps", "4",
             "--replicas", "2"),
            ("sweep", "--param", "N", "--values", "8", "--rule", "yardsale:lambda=0.5",
             "--sweeps", "4"),
        ],
        ids=["simulate", "integrate", "ensemble", "sweep"],
    )
    @pytest.mark.parametrize("out", ["no/such/x.csv", "."], ids=["missing-dir", "a-dir"])
    def test_unusable_out_fails_before_the_run(self, argv, out, tmp_path, monkeypatch):
        # every destination is checked before the run: no snapshot is left
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("kinex.cli.run", None)
        monkeypatch.setattr("kinex.cli.run_ensemble", None)
        monkeypatch.setattr("kinex.cli.build_kernel", None)
        code, _, err = run_cli(*argv, "--out", out)
        assert code == 2 and err.startswith(f"kinex: config error: cannot write {out}")
        assert list(tmp_path.iterdir()) == []

    def test_snapshot_dir_may_be_made_below_a_missing_one(self, tmp_path):
        snaps = tmp_path / "a" / "b"
        code, _, _ = run_cli(
            "simulate", "--rule", "yardsale:lambda=0.5", "--n", "8", "--sweeps", "2",
            "--snapshot-every", "1", "--snapshot-dir", str(snaps),
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 0
        assert sorted(p.name for p in snaps.iterdir()) == ["population_t1.txt",
                                                          "population_t2.txt"]

    @pytest.mark.parametrize(
        "argv",
        [
            ("ensemble",),
            ("sweep", "--param", "lambda", "--values", "0.3,0.4"),
        ],
        ids=["ensemble", "sweep"],
    )
    def test_bad_kinex_threads_exits_2(self, argv, tmp_path, monkeypatch):
        # not swallowed into the sweep's rows
        monkeypatch.setenv("KINEX_THREADS", "abc")
        out = tmp_path / "x.csv"
        code, _, err = run_cli(
            *argv, "--rule", "yardsale:lambda=0.5", "--n", "8", "--sweeps", "3",
            "--replicas", "2", "--out", str(out),
        )
        message = "KINEX_THREADS must be an integer, got 'abc'"
        assert (code, err) == (2, f"kinex: config error: {message}\n")
        assert not out.exists()

    def test_n_of_2_to_the_32_exits_2(self, tmp_path):
        out = tmp_path / "x.csv"
        code, _, err = run_cli(
            "simulate", "--rule", "yardsale:lambda=0.5", "--n", "4294967296",
            "--sweeps", "2", "--out", str(out),
        )
        assert (code, err) == (2, "kinex: config error: n must be < 2**32\n")
        assert not out.exists()

    @pytest.mark.parametrize("n", [3, 5])
    def test_initial_size_is_checked_once_for_every_source(self, n, tmp_path):
        # a snapshot file and an injected population meet the same check
        path = tmp_path / "pop.txt"
        write_snapshot(path, Population([1.0] * n))
        code, _, err = run_cli(
            "simulate", "--rule", "yardsale:lambda=0.5", "--n", "4",
            "--sweeps", "2", "--init", f"file:{path}",
            "--out", str(tmp_path / "x.csv"),
        )
        message = f"initial wealth has N={n}, config expects N=4"
        assert (code, err) == (2, f"kinex: config error: {message}\n")
        cfg = SimConfig(n=4, rule=parse_rule("yardsale:lambda=0.5"), max_sweeps=2)
        with pytest.raises(ValueError) as exc:
            run(cfg, initial_population=Population([1.0] * n))
        assert str(exc.value) == message


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


MC_FLAGS = {"--rule", "--n", "--sweeps", "--seed", "--record-every", "--init",
            "--out", "--config"}
STOP_FLAGS = {"--stop-gini-gap", "--stop-liquidity"}
COMMAND_FLAGS = {
    "simulate": MC_FLAGS | STOP_FLAGS | {"--snapshot-every", "--snapshot-dir", "--eps-zero"},
    "ensemble": MC_FLAGS | {"--replicas"},
    "sweep": MC_FLAGS | STOP_FLAGS | {"--param", "--values", "--replicas"},
}
COMMAND_ARGV = {
    "simulate": ["simulate"],
    "ensemble": ["ensemble", "--replicas", "2"],
    "sweep": ["sweep", "--param", "lambda", "--values", "0.3"],
}
# flags of simulate that ensemble and sweep would not read
REMOVED_FLAGS = [
    (command, flag, value)
    for command, flags in [
        ("ensemble", [("--snapshot-every", "1"), ("--snapshot-dir", "d"),
                      ("--stop-gini-gap", "0.5"), ("--stop-liquidity", "0.5"),
                      ("--eps-zero", "1e-9")]),
        ("sweep", [("--snapshot-every", "1"), ("--snapshot-dir", "d"),
                   ("--eps-zero", "1e-9")]),
    ]
    for flag, value in flags
]


def _command_flags(command):
    sub = next(
        a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    actions = sub.choices[command]._actions
    return {o for a in actions for o in a.option_strings} - {"-h", "--help"}


class TestFlagSets:
    @pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
    def test_each_command_takes_the_flags_it_reads(self, command):
        assert _command_flags(command) == COMMAND_FLAGS[command]

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize(
        "command, flag, value", REMOVED_FLAGS,
        ids=[f"{c}{f}" for c, f, _ in REMOVED_FLAGS],
    )
    def test_flag_the_command_lacks_exits_2(self, command, flag, value, via,
                                            tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        if via == "flag":
            extra = [flag, value]
        else:
            (tmp_path / "run.cfg").write_text(f"{flag[2:]}={value}\n")
            extra = ["--config", "run.cfg"]
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            main([*COMMAND_ARGV[command], "--rule", "yardsale:lambda=0.5",
                  "--n", "8", "--sweeps", "4", *extra, "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: kinex {command} ")
        assert f"unrecognized arguments: {flag} {value}" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == (
            [] if via == "flag" else ["run.cfg"]
        )

    @pytest.mark.parametrize("flag", sorted(STOP_FLAGS))
    def test_sweep_ensemble_rows_take_no_stop_threshold(self, flag, tmp_path):
        # run_ensemble runs every replica to --sweeps
        out = tmp_path / "x.csv"
        code, _, err = run_cli(
            "sweep", "--param", "lambda", "--values", "0.3", "--replicas", "2",
            "--rule", "yardsale:lambda=0.5", "--n", "8", "--sweeps", "4",
            flag, "0.5", "--out", str(out),
        )
        message = "stop thresholds need --replicas 0: an ensemble runs to --sweeps"
        assert (code, err) == (2, f"kinex: config error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, keys",
        [
            (["simulate"], {"eps_zero"}),
            (["simulate", "--stop-gini-gap", "0.1", "--eps-zero", "0"],
             {"eps_zero", "stop_gini_gap"}),
            (["simulate", "--stop-liquidity", "0.1"], {"eps_zero", "stop_liquidity"}),
            (COMMAND_ARGV["ensemble"], {"replicas"}),
            (COMMAND_ARGV["sweep"], {"param", "values"}),
            (COMMAND_ARGV["sweep"] + ["--stop-gini-gap", "0.1"],
             {"param", "values", "stop_gini_gap"}),
            (COMMAND_ARGV["sweep"] + ["--replicas", "2"], {"param", "values", "replicas"}),
        ],
        ids=["simulate", "simulate-gap", "simulate-liquidity", "ensemble", "sweep",
             "sweep-gap", "sweep-replicas"],
    )
    def test_metadata_records_the_settings_that_shaped_the_output(
        self, argv, keys, tmp_path
    ):
        out = tmp_path / "x.csv"
        code, _, _ = run_cli(
            *argv, "--rule", "yardsale:lambda=0.5", "--n", "8", "--sweeps", "4",
            "--out", str(out),
        )
        assert code == 0
        params = json.loads((tmp_path / "x.csv.meta.json").read_text())["parameters"]
        common = {"rule", "n", "sweeps", "seed", "record_every", "init"}
        assert set(params) == common | keys

    @pytest.mark.parametrize("rule", ["yardsale:lambda=0.5", "loser:lambda=uniform"])
    def test_lambda_sweep_records_the_rule_kind_alone(self, rule, tmp_path):
        # each row runs its own lambda, so the sidecar names none
        out = tmp_path / "x.csv"
        code, _, _ = run_cli(
            "sweep", "--param", "lambda", "--values", "0.1,1.0", "--rule", rule,
            "--n", "16", "--sweeps", "3", "--out", str(out),
        )
        assert code == 0
        meta = json.loads((tmp_path / "x.csv.meta.json").read_text())
        kind = rule.split(":")[0]
        assert set(meta) == {"tool", "version", "command", "time_convention",
                             "parameters", "rule"}
        assert meta["rule"] == meta["parameters"]["rule"] == kind
        assert (meta["parameters"]["param"], meta["parameters"]["values"]) == (
            "lambda", "0.1,1.0")

    @pytest.mark.parametrize("rule", ["yardsale:lambda=0.5", "loser:lambda=uniform"])
    def test_lambda_sweep_sidecar_replays(self, rule, tmp_path):
        # the recorded parameters, given back as a config file, run the same
        # sweep: its rule kind alone is a valid --rule
        out = tmp_path / "x.csv"
        meta = tmp_path / "x.csv.meta.json"
        argv = ("sweep", "--param", "lambda", "--values", "0.1,1.0", "--rule", rule,
                "--n", "16", "--sweeps", "3", "--out", str(out))
        assert run_cli(*argv)[0] == 0
        first = out.read_bytes(), meta.read_bytes()
        cfg = tmp_path / "replay.cfg"
        cfg.write_text("".join(f"{key}={value}\n" for key, value
                               in json.loads(first[1])["parameters"].items()))
        out.unlink()
        meta.unlink()
        assert run_cli("sweep", "--config", str(cfg), "--out", str(out))[0] == 0
        assert (out.read_bytes(), meta.read_bytes()) == first

    def test_lambda_sweep_takes_a_bare_rule_kind(self, tmp_path):
        outputs = []
        for rule in ("yardsale", "yardsale:lambda=0.5"):
            out = tmp_path / f"{len(outputs)}.csv"
            code, _, _ = run_cli(
                "sweep", "--param", "lambda", "--values", "0.1,1.0", "--rule", rule,
                "--n", "16", "--sweeps", "3", "--out", str(out))
            assert code == 0
            outputs.append((out.read_bytes(), Path(f"{out}.meta.json").read_bytes()))
        assert outputs[0] == outputs[1]
        # a rule without lambda has none to sweep, and writes nothing
        out = tmp_path / "ia.csv"
        code, _, err = run_cli(
            "sweep", "--param", "lambda", "--values", "0.1", "--rule", "iglesias-almeida",
            "--n", "16", "--sweeps", "3", "--out", str(out))
        assert (code, err) == (
            2, "kinex: config error: iglesias-almeida has no lambda to sweep\n")
        assert not out.exists()


def _readme_commands():
    """Each ``kinex ...`` command of the README's CLI block, as argv."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```")[1]
    joined = re.sub(r"\\\n\s*", " ", block)
    return [
        line.replace("[", "").replace("]", "").split()[1:]
        for line in joined.splitlines()
        if line.startswith("kinex ")
    ]


@pytest.mark.parametrize("argv", _readme_commands(), ids=lambda argv: argv[0])
def test_readme_cli_examples_parse(argv):
    args = _build_parser().parse_args(argv)
    assert args.command == argv[0]


def test_readme_shows_every_command():
    assert {argv[0] for argv in _readme_commands()} == {
        "simulate", "ensemble", "integrate", "kernel-check", "sweep", "gini"
    }


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

    def test_one_replica_exits_2(self, tmp_path):
        out = tmp_path / "ens.csv"
        code, _, err = run_cli(
            "ensemble", "--rule", "yardsale:lambda=0.5", "--n", "8",
            "--sweeps", "4", "--replicas", "1", "--out", str(out),
        )
        assert (code, err) == (2, "kinex: config error: replicas must be >= 2\n")
        assert not out.exists()

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
    @pytest.mark.parametrize(
        "rule",
        ["yardsale:lambda=0.5", "yardsale:lambda=uniform", "loser:lambda=0.5",
         "loser:lambda=uniform", "unbiased-loser:lambda=0.5",
         "unbiased-loser:lambda=uniform", "iglesias-almeida"],
    )
    def test_grid_at_the_largest_point_ratio_integrates(self, rule, tmp_path):
        # neighbouring points 1e5 apart (give or take rounding), the most
        # build_grid accepts
        code, _, err = run_cli(
            "integrate", "--rule", rule, "--grid", "log:1e-77:1e3:16",
            "--init", "point:1e-18", "--dt", "1", "--t-end", "1",
            "--out", str(tmp_path / "int.csv"),
        )
        assert (code, err) == (0, "")

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

    def test_abort_message_prints_plain_floats(self, tmp_path, monkeypatch):
        # a rate that moves mass from the fullest cell to the next keeps the
        # mass but not the mean; the classic loser rule has no Gini audit
        import kinex.master_eq as master_eq

        inner = master_eq._rhs_masses

        def shifted(kernel, m):
            r, l = inner(kernel, m)
            k = int(m.argmax())
            r[k] -= 1e-6
            r[k + 1] += 1e-6
            return r, l

        monkeypatch.setattr(master_eq, "_rhs_masses", shifted)
        code, _, err = run_cli(
            "integrate", "--rule", "loser:lambda=0.5",
            "--grid", "log:1e-3:1e3:64", "--init", "exp:1",
            "--dt", "1", "--t-end", "1", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 3
        head = "kinex: integration aborted: unexplained mean drift "
        assert err.startswith(head) and err.endswith("\n")
        drift, at, t = err[len(head):-1].split(" ")
        assert at == "at" and t.startswith("t=")
        # plain floats, which np.float64(...) is not
        assert float(drift) != 0.0 and float(t[2:]) > 0.0

    def test_mass_drift_exits_3(self, tmp_path, monkeypatch):
        # a rate that leaks mass into the zero cell keeps the mean
        import kinex.master_eq as master_eq

        inner = master_eq._rhs_masses

        def leaking(kernel, m):
            r, l = inner(kernel, m)
            r[0] += 1e-6
            return r, l

        monkeypatch.setattr(master_eq, "_rhs_masses", leaking)
        code, _, err = run_cli(
            "integrate", "--rule", "yardsale:lambda=0.5",
            "--grid", "log:1e-3:1e3:64", "--init", "exp:1",
            "--dt", "1", "--t-end", "10", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 3
        assert err.startswith("kinex: integration aborted: mass drift ")

    def test_nan_rate_exits_3_and_writes_no_row(self, tmp_path, monkeypatch):
        # a NaN in the rate of step 3 fails the step's audits; the run
        # writes no file with a NaN row in it
        import itertools

        import kinex.master_eq as master_eq

        inner = master_eq._rhs_masses
        calls = itertools.count(1)

        def poisoned(kernel, m):
            r, l = inner(kernel, m)
            if next(calls) == 3:
                r[5] = float("nan")
            return r, l

        monkeypatch.setattr(master_eq, "_rhs_masses", poisoned)
        out = tmp_path / "x.csv"
        code, _, err = run_cli(
            "integrate", "--rule", "yardsale:lambda=0.5",
            "--grid", "log:1e-3:1e3:64", "--init", "exp:1",
            "--dt", "1", "--t-end", "10", "--out", str(out),
        )
        assert code == 3
        assert err.startswith("kinex: integration aborted: ") and "nan" in err
        assert not out.exists()

    def test_gini_decrease_exits_3(self, tmp_path, monkeypatch):
        monkeypatch.setattr("kinex.master_eq._weighted_gini", gini_dip(call=4))
        code, _, err = run_cli(
            "integrate", "--rule", "yardsale:lambda=0.5",
            "--grid", "log:1e-3:1e3:64", "--init", "exp:1",
            "--dt", "1", "--t-end", "10", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 3
        assert err == (
            "kinex: integration aborted: Gini decrease -0.0769858234576336 "
            "at t=1.6611810063743375 with dt=1.0\n"
        )

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

    @pytest.mark.parametrize("rule, norm_error", [
        ("yardsale:lambda=uniform", "2.74086309204e-16"),
        ("unbiased-loser:lambda=uniform", "3.78820239066e-16"),
    ])
    def test_truncated_pairs_leave_the_gate(self, rule, norm_error):
        # the top cell's pairs lose wealth past it and are biased by 1/8 of
        # their scale; the gate skips the pairs the truncation rows name
        code, stdout, _ = run_cli("kernel-check", "--rule", rule, "--grid", "log:1e-3:200:96")
        assert code == 0
        assert stdout.splitlines() == [
            f"max normalization error: {norm_error}",
            "max bias: 47.0151143815",
            "max relative bias: 0.125",
            "passed",
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
            "--rule", "yardsale:lambda=0.5", "--sweeps", "10",
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
            "--n", "16", "--sweeps", "10",
            "--init", "file:/nonexistent/pop.txt", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        for ln in lines[1:]:
            assert "No such file" in ln or "nonexistent" in ln

    @pytest.mark.parametrize(
        "param, values, flags, swept, meta",
        [
            ("N", "8,16", ("--rule", "yardsale:lambda=0.5"), "n", {"rule", "lambda"}),
            ("rule", "yardsale:lambda=0.5,iglesias-almeida", ("--n", "8"), "rule", set()),
        ],
        ids=["N", "rule"],
    )
    def test_swept_setting_is_recorded_as_its_values(
        self, param, values, flags, swept, meta, tmp_path
    ):
        out = tmp_path / "sweep.csv"
        argv = ("sweep", "--param", param, "--values", values, *flags, "--sweeps", "4",
                "--out", str(out))
        assert run_cli(*argv)[0] == 0
        written = json.loads((tmp_path / "sweep.csv.meta.json").read_text())
        assert set(written["parameters"]) == (
            {"rule", "n", "sweeps", "seed", "record_every", "init", "param", "values"}
            - {swept}
        )
        assert (written["parameters"]["param"], written["parameters"]["values"]) == (param, values)
        assert {"rule", "lambda"} & set(written) == meta
        # the swept flag given anyway is a setting the command would not read
        out.unlink()
        given = {"n": ("--n", "8"), "rule": ("--rule", "iglesias-almeida")}[swept]
        code, _, err = run_cli(*argv, *given)
        message = f"--param {param} takes no --{swept}: each row sets it"
        assert (code, err) == (2, f"kinex: config error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("param, missing", [
        ("lambda", "--rule, --n"), ("N", "--rule"), ("rule", "--n"),
    ])
    def test_other_settings_stay_required(self, param, missing, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--param", param, "--values", "8", "--sweeps", "4",
                  "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: kinex sweep ")
        assert err.endswith(f"the following arguments are required: {missing}\n")
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize("replicas", ["-3", "1"])
    def test_replicas_other_than_0_or_at_least_2_exit_2(self, replicas, tmp_path):
        out = tmp_path / "sweep.csv"
        code, _, err = run_cli(
            "sweep", "--param", "lambda", "--values", "0.2",
            "--rule", "yardsale:lambda=0.5", "--n", "8", "--sweeps", "5",
            "--replicas", replicas, "--out", str(out),
        )
        assert (code, err) == (2, "kinex: config error: --replicas must be 0 or >= 2\n")
        assert not out.exists()

    @pytest.mark.parametrize("replicas", ["0", "2"])
    def test_record_every_above_sweeps_exits_2(self, replicas, tmp_path):
        # each row reads its run's last record; simulate and ensemble
        # write a header-only CSV instead
        out = tmp_path / "sweep.csv"
        code, _, err = run_cli(
            "sweep", "--param", "lambda", "--values", "0.1,0.5",
            "--rule", "yardsale:lambda=0.5", "--n", "16", "--sweeps", "5",
            "--record-every", "10", "--replicas", replicas, "--out", str(out),
        )
        assert (code, err) == (2, "kinex: config error: --record-every must not exceed --sweeps\n")
        assert not out.exists()
        code, _, _ = run_cli(
            "simulate", "--rule", "yardsale:lambda=0.5", "--n", "16", "--sweeps", "5",
            "--record-every", "10", "--out", str(out),
        )
        assert code == 0 and len(out.read_text().splitlines()) == 1

    @pytest.mark.parametrize("replicas", [None, "0", "2"])
    def test_ensemble_mode_records_its_replicas(self, replicas, tmp_path):
        out = tmp_path / "sweep.csv"
        flags = () if replicas is None else ("--replicas", replicas)
        code, _, _ = run_cli(
            "sweep", "--param", "lambda", "--values", "0.2",
            "--rule", "yardsale:lambda=0.5", "--n", "8", "--sweeps", "5",
            *flags, "--out", str(out),
        )
        assert code == 0
        params = json.loads(out.with_suffix(".csv.meta.json").read_text())["parameters"]
        assert params.get("replicas") == (2 if replicas == "2" else None)

    def test_empty_values_rejected(self, tmp_path):
        code, _, _ = run_cli(
            "sweep", "--param", "lambda", "--values", "",
            "--rule", "yardsale:lambda=0.5", "--n", "8", "--sweeps", "5",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2


def _leaking_sweep(w, rule, draws):
    """A sweep that creates wealth: the sum drifts from the total."""
    moved = _sweep(w, rule, draws)
    w[0] += 1.0
    return moved


def _negative_sweep(w, rule, draws):
    """A sweep that keeps the sum but leaves agent 0 with negative wealth."""
    moved = _sweep(w, rule, draws)
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
        "be82429f7b778ed646c6886cb8c7c63aee4479cecea3b9c4426beb2682c1f592",
    ),
    "integrate": (
        "0af8e95cb30b7d02887eb5f49fd44533808f4bbbcb562b443ad202dd88f87f83",
        "eb018562ed6b325c3d888a472e7d8b4db2186f17ea3c1e4f1ee38b859e99dd1e",
    ),
    "sweep": (
        "5f8c788aa33cc874bb797ee677c209c0eefa529816c95c8a3745bee52c48ea84",
        "9bc47f7fcbbfa594ba0640d997445c99b579b6e97002923e004177d7a5c1356d",
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
    # lambda-mixture kernels, both truncating at the top cell
    **{
        f"integrate-{rule.replace(':lambda=', '-')}": [
            "integrate", "--rule", rule, "--grid", "log:1e-3:200:96",
            "--init", "exp:1", "--dt", "5", "--t-end", "40",
        ]
        for rule in ["unbiased-loser:lambda=uniform", "yardsale:lambda=uniform"]
    },
    # a uniform initial density, whose mean is corrected on the grid
    "integrate-yardsale-0.5-init-uniform": [
        "integrate", "--rule", "yardsale:lambda=0.5", "--grid", "log:1e-3:200:96",
        "--init", "uniform:0:2", "--dt", "5", "--t-end", "40",
    ],
}

GOLDEN_SHA256.update({
    "integrate-yardsale-0.5-condense": (
        "6b4b22ca86bea00ce4dd3c14f0fead9f137e13a09a388f7fac089bbaf3ed9bd4",
        "329d2d2919cdd576ecfb7356352d5d633a396d4e56c3f924af2f159c054b0718",
    ),
    "integrate-loser-0.5": (
        "d16be6422eaea1af269661c4dcbe67c53a6e058ddb1ecdf6208d724b92c296c6",
        "fd9aa38a5335cca299de5f29ce10f4f0c9578ed38636a7d24a5be027da1f3c6c",
    ),
    "integrate-unbiased-loser-uniform": (
        "28619df37ad7ea62543d8d53297b744d30a7dd49184e2dddfce99c673cbce219",
        "ab58b6bd25a20b0761676e8a3c631c9bf638fe8283cd50d27c1d08b27474ae86",
    ),
    "integrate-yardsale-uniform": (
        "85634c4ff07c08c8d0c7155e61efea69e209e4c30d6bcb607743b5f05762b807",
        "9bbf72137dd1605f0676bab874160a97cace2491dc93d4af7204828e70e1182c",
    ),
    "integrate-yardsale-0.5-init-uniform": (
        "02b0e49ce4344e1f27964f33b394d5f4d30c3279649f6892d5989ad7dadd5ed6",
        "3b4074793c9096eb6ed5f3902f01103240e3473fedc3281be70c1d6de25c1856",
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
        "f11ff07f27f51814ffeda4b5f601b77480bcdfdf845c650276396d7c7aaaa1bc",
    ),
})


# Commands below N=4096, whose draws are decoded from raw blocks: a run
# whose j draw rejects a word at sweep 135 (about 1 in 2**28 draws at this
# N), and every rule variant at N=127, where N/2 is odd.
SMALL_N_COMMANDS = {
    "simulate-n128-j-rejection": [
        "simulate", "--rule", "yardsale:lambda=0.1", "--n", "128",
        "--sweeps", "200", "--record-every", "1", "--seed", "3761",
    ],
}
SMALL_N_COMMANDS.update({
    f"simulate-n127-{rule.replace(':lambda=', '-')}": [
        "simulate", "--rule", rule, "--n", "127", "--sweeps", "200",
        "--record-every", "10", "--seed", "19", *init,
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
})

# recorded with the per-sweep Generator draws
GOLDEN_SHA256.update({
    "simulate-n128-j-rejection": (
        "c585e5a7bc0d9e81e7a82c9a515b2355e1647f3e97b4ea154812731c6b4506eb",
        "b7bd1fb21c4a394bb4f89a41a17ed2432532ea7d06c798cc7d1f617f094e6d68",
    ),
    "simulate-n127-yardsale-0.5": (
        "64d80e556bdd4e0e9dc877404cd353d308837889e40861bace62678bfb813424",
        "4c20a04743795953f3d48bb11b548c75ad940ec997b133d8a4bc7bd0ed9987da",
    ),
    "simulate-n127-yardsale-uniform": (
        "66bb5593d6839c2fef8b70f8fc1c479815081774827ae5753f360ebee8843f54",
        "7ffbe9eaab75f2846f098bf7ee3cc347c7d88e083cffb77c9d6a37ca8fbb2fc2",
    ),
    "simulate-n127-loser-0.5": (
        "47e308e9587378dc28df9bfe3e4b7241dd1196a49b07d1f47f9f4b33c915d6d3",
        "1e75c49396da9254c595ebc0c8acf05ca4394b7a395cff884f3b1c6f0d7e1f5f",
    ),
    "simulate-n127-loser-uniform": (
        "34443665cedf4347b596185e017492734fb50ffa1567879f3a5a3a5d8e2db432",
        "a594b99e2edf6a282e05c7bc2c3f55a3395eaf13d5e92d66a66c1881e75af13e",
    ),
    "simulate-n127-unbiased-loser-0.5": (
        "354cdae7cdb664f67bbc112e4fd54800bbd4137b042565d1fd2cae7507a9044c",
        "de6663197652ca5669bb4402e306f6e2b0c5cfd2f389ca011c799a0934dbd8f6",
    ),
    "simulate-n127-unbiased-loser-uniform": (
        "224c6070adb2f434d7710c0b4edc546cafb935f669daa717e27b02d11614a143",
        "e0250a59bd50a50806f5ca642e8444714a15ca60a956b5520688c19d61363607",
    ),
    "simulate-n127-iglesias-almeida": (
        "6078f32f9e27cc1025fa503ada6cc513acc9a1d2db2632a55f0243ebe6f86842",
        "16c83470b8c6c172301eca207f65a2063b45cdbb97a35a96037d8d4882af0bd3",
    ),
})


def _output_digests(command, tmp_path):
    argv = {**CRITERION_12_COMMANDS, **INTEGRATE_COMMANDS, **LARGE_N_COMMANDS,
            **SMALL_N_COMMANDS}[command]
    out = tmp_path / f"{command}.csv"
    assert run_cli(*argv, "--out", str(out))[0] == 0
    meta = tmp_path / f"{command}.csv.meta.json"
    return tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (out, meta))


@pytest.mark.parametrize("command", sorted(GOLDEN_SHA256))
def test_golden_output_hashes(command, tmp_path):
    assert _output_digests(command, tmp_path) == GOLDEN_SHA256[command]


@pytest.mark.parametrize("command", sorted(CRITERION_12_COMMANDS))
def test_python_loop_gives_the_golden_hashes(command, tmp_path, monkeypatch):
    # where no compiled loop can be built, the Python loop sweeps instead
    monkeypatch.setattr("kinex.engine._compiled_sweep", lambda: None)
    assert _output_digests(command, tmp_path) == GOLDEN_SHA256[command]


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


SRC = Path(__file__).resolve().parent.parent / "src"


def run_python(code, cwd, **env):
    """Run ``code`` in a fresh interpreter with the package source on its path."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path, **env},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


class TestStartup:
    def test_commands_never_load_scipy(self, tmp_path):
        # one worker: the ensemble runs in this process and starts no pool;
        # the master-equation commands multiply with the compiled module or,
        # where it does not load, with numpy
        run_python(
            "import sys\n"
            "import kinex, kinex.cli\n"
            "def scipy_loaded():\n"
            "    return [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
            "flags = ['--rule', 'yardsale:lambda=0.5', '--n', '16', '--sweeps', '3']\n"
            "assert kinex.cli.main(['simulate', *flags, '--out', 'sim.csv']) == 0\n"
            "assert kinex.cli.main(['ensemble', *flags, '--replicas', '2',\n"
            "                       '--out', 'ens.csv']) == 0\n"
            "assert kinex.cli.main(['sweep', *flags, '--param', 'lambda',\n"
            "                       '--values', '0.3,0.7', '--out', 'sw.csv']) == 0\n"
            "kinex.write_snapshot('pop.txt', kinex.Population([1.0, 3.0]))\n"
            "assert kinex.cli.main(['gini', 'pop.txt']) == 0\n"
            "assert not scipy_loaded(), scipy_loaded()\n"
            "assert kinex.cli.main(['integrate', '--rule', 'iglesias-almeida',\n"
            "                       '--grid', 'log:1e-3:200:96', '--init', 'exp:1',\n"
            "                       '--dt', '5', '--t-end', '40', '--out', 'i.csv']) == 0\n"
            "assert kinex.cli.main(['kernel-check', '--rule', 'yardsale:lambda=0.5',\n"
            "                       '--grid', 'log:1e-3:200:96']) == 0\n"
            "assert not scipy_loaded(), scipy_loaded()\n",
            tmp_path,
            KINEX_THREADS="1",
        )

    def test_fallback_products_load_no_scipy_and_give_the_same_bits(self, tmp_path):
        # the master-equation products and commands with the module lookup
        # made to find nothing, as where no compiler is found, against the
        # compiled ones
        compiled_product()
        run_python(
            "import sys\n"
            "import numpy as np\n"
            "import kinex.cli, kinex.master_eq as me\n"
            "from kinex import RuleKind, RuleSpec, build_grid, build_kernel, gini_rate, rhs\n"
            "grid = build_grid(me.LogScheme(1e-3, 200.0, 96), me.Exponential(1.0))\n"
            "kernel = build_kernel(RuleSpec(kind=RuleKind.YARD_SALE, lam=0.5), grid)\n"
            "assert kernel.trunc_coef.nnz\n"
            "flags = ['--rule', 'yardsale:lambda=0.5', '--grid', 'log:1e-3:200:96']\n"
            "def products(out):\n"
            "    assert kinex.cli.main(['integrate', *flags, '--init', 'exp:1', '--dt', '5',\n"
            "                           '--t-end', '40', '--out', out]) == 0\n"
            "    assert kinex.cli.main(['kernel-check', *flags]) == 0\n"
            "    rates = [me._trunc_rate(kernel, grid.masses), gini_rate(grid, kernel)]\n"
            "    return (rhs(grid, kernel).view(np.int64).tolist(),\n"
            "            np.array(rates).view(np.int64).tolist(), open(out, 'rb').read())\n"
            "compiled = products('compiled.csv')\n"
            "assert me._load() is not None\n"
            "lookups = []\n"
            "me._load = lambda: lookups.append(None)\n"
            "assert products('numpy.csv') == compiled and lookups\n"
            "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
            "assert not loaded, loaded\n",
            tmp_path,
        )

    def test_commands_without_an_ensemble_pool_never_load_multiprocessing(
        self, tmp_path
    ):
        # one worker: the ensemble runs in this process and starts no pool
        run_python(
            "import sys\n"
            "import kinex, kinex.cli\n"
            "flags = ['--rule', 'yardsale:lambda=0.5', '--n', '16', '--sweeps', '3']\n"
            "assert kinex.cli.main(['simulate', *flags, '--out', 'sim.csv']) == 0\n"
            "assert kinex.cli.main(['ensemble', *flags, '--replicas', '2',\n"
            "                       '--out', 'ens.csv']) == 0\n"
            "assert kinex.cli.main(['integrate', '--rule', 'yardsale:lambda=0.5',\n"
            "                       '--grid', 'log:1e-3:1e3:40', '--init', 'point:1',\n"
            "                       '--dt', '1', '--t-end', '2', '--out', 'i.csv']) == 0\n"
            "assert kinex.cli.main(['kernel-check', '--rule', 'yardsale:lambda=0.5',\n"
            "                       '--grid', 'log:1e-3:1e3:40']) == 0\n"
            "kinex.write_snapshot('pop.txt', kinex.Population([1.0, 3.0]))\n"
            "assert kinex.cli.main(['gini', 'pop.txt']) == 0\n"
            "loaded = [m for m in ('multiprocessing', 'concurrent.futures.process')\n"
            "          if m in sys.modules]\n"
            "assert not loaded, loaded\n",
            tmp_path,
            KINEX_THREADS="1",
        )

    def test_import_loads_neither_the_compiled_loop_nor_subprocess(self, tmp_path):
        # the loop is loaded, or built, by the first sweep alone
        run_python(
            "import sys\n"
            "import kinex.cli\n"
            "loaded = [m for m in ('kinex._sweep', 'subprocess') if m in sys.modules]\n"
            "assert not loaded, loaded\n",
            tmp_path,
        )

    def test_kernel_builds_through_the_python_api_alone(self, tmp_path):
        run_python(
            "import sys\n"
            "from kinex import RuleKind, RuleSpec, build_grid, build_kernel\n"
            "from kinex.master_eq import LinearScheme, PointMass\n"
            "grid = build_grid(LinearScheme(10.0, 16), PointMass(1.0))\n"
            "kernel = build_kernel(RuleSpec(kind=RuleKind.YARD_SALE, lam=0.5), grid)\n"
            "assert 'kinex.cli' not in sys.modules\n"
            "assert kernel.gain.nnz > 0\n",
            tmp_path,
        )


def test_emit_metadata_deterministic():
    cfg = ExperimentConfig("simulate", {"rule": "yardsale:lambda=0.5", "n": 8})
    a = json.dumps(emit_metadata(cfg), sort_keys=True)
    b = json.dumps(emit_metadata(cfg), sort_keys=True)
    assert a == b
    assert json.loads(a)["version"] == kinex.__version__
