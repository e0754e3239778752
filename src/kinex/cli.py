"""Command-line interface: simulate, ensemble, integrate, kernel-check, sweep, gini.

Configuration is flag-first with an optional flat key=value config file
mirroring the long flag names (dashes or underscores); flags given on the
command line override file entries. Every floating-point value in any
output uses 12 significant digits with a '.' decimal separator, and output
files carry no timestamps, so identical configurations produce byte-
identical outputs.

Exit codes: 0 success, 2 configuration error, 3 runtime invariant breach.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from . import __version__
from .core import (
    ContractViolation,
    Population,
    RuleKind,
    WealthGrid,
    format_float,
    read_snapshot,
    write_snapshot,
)
from .engine import (
    EnsembleSummary,
    SimConfig,
    StopReason,
    parse_initial,
    run,
    run_ensemble,
    worker_count,
)
from .master_eq import (
    IntegrationAbort,
    IntegrationReport,
    _grid_axes,
    build_grid,
    build_kernel,
    check_kernel,
    integrate,
    parse_density,
    parse_grid_scheme,
)
from .metrics import DEFAULT_EPS_ZERO, MetricsRecord, gini_population
from .rules import format_rule, parse_rule

TIME_CONVENTION = "sweep=N/2 exchanges"

# CSV columns of each command, from the result type it writes
SIM_COLUMNS = tuple(f.name for f in fields(MetricsRecord)) + ("gini_gap",)
ENSEMBLE_COLUMNS = tuple(
    f.name for f in fields(EnsembleSummary) if f.name != "replicas"
)
SWEEP_COLUMNS = (
    "parameter", "value", "final_gini", "final_liquidity", "gini_max",
    "sweeps_to_condensation", "error",
)


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    """One CLI invocation: command, effective parameters, output path."""

    command: str
    params: dict = field(default_factory=dict)
    out: str | None = None


def emit_metadata(config: ExperimentConfig) -> dict:
    """Provenance block written next to every output file.

    Identical configurations yield identical metadata bytes: keys are
    sorted on serialization and no volatile fields (timestamps, hosts) are
    included.
    """
    meta = {
        "tool": "kinex",
        "version": __version__,
        "command": config.command,
        "time_convention": TIME_CONVENTION,
        "parameters": dict(sorted(config.params.items())),
    }
    rule_text = config.params.get("rule")
    if config.params.get("param") == "lambda":  # each row sets lambda
        meta["rule"] = rule_text
    elif rule_text:
        rule = parse_rule(rule_text)
        meta["rule"] = format_rule(rule)
        meta["lambda"] = "uniform[0,1]" if rule.random_lambda else (
            "none" if rule.lam is None else format_float(float(rule.lam))
        )
    return meta


def _write_metadata(config: ExperimentConfig) -> None:
    if not config.out:
        return
    payload = json.dumps(emit_metadata(config), sort_keys=True, indent=2) + "\n"
    with open(config.out + ".meta.json", "w", encoding="ascii", newline="\n") as fh:
        fh.write(payload)


def _write_csv(path: str, header: str, rows) -> None:
    lines = [header]
    for row in rows:
        lines.append(",".join(_cell(x) for x in row))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_result(args, params: dict, columns, rows) -> None:
    """Write the command's CSV to ``args.out`` and its metadata sidecar."""
    _write_csv(args.out, ",".join(columns), rows)
    _write_metadata(ExperimentConfig(args.command, params, args.out))


def _cell(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format_float(float(x))


def _is_config_flag(token: str) -> bool:
    """True for every spelling argparse reads as --config: the flag or an
    abbreviation of it (no other option starts with --c), alone or as
    ``--flag=PATH``."""
    name = token.partition("=")[0]
    return len(name) > 2 and "--config".startswith(name)


def _load_config_file(path: str) -> list[str]:
    """Flat key=value file -> synthetic flag list (prepended, so real flags win)."""
    flags: list[str] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, sep, value = line.partition("=")
                if not sep:
                    raise ConfigError(f"{path}:{line_no}: expected key=value")
                flag = "--" + key.strip().replace("_", "-")
                if _is_config_flag(flag):
                    raise ConfigError(f"{path}:{line_no}: cannot name a config file")
                flags.extend([flag, value.strip()])
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return flags


def _mc_parser(sub, name: str, help_text: str, required=True) -> argparse.ArgumentParser:
    p = sub.add_parser(name, help=help_text)
    p.add_argument("--rule", required=required, help="rule spec, e.g. yardsale:lambda=0.5")
    p.add_argument("--n", type=int, required=required, help="number of agents")
    p.add_argument("--sweeps", type=int, required=True, help="maximum sweeps")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--record-every", type=int, default=1, metavar="K")
    p.add_argument("--init", default="equal", help="equal | uniform | file:<path>")
    p.add_argument("--out", required=True, help="metrics CSV path")
    p.add_argument("--config", default=None, help="flat key=value config file")
    return p


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kinex",
        description="Kinetic wealth-exchange simulation and analysis toolkit.",
    )
    parser.add_argument("--version", action="version", version=f"kinex {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    pm = _mc_parser(sub, "simulate", "run one finite-N trajectory")
    pm.add_argument("--snapshot-every", type=int, default=0, metavar="K")
    pm.add_argument("--snapshot-dir", default=None)
    pm.add_argument("--stop-gini-gap", type=float, default=None)
    pm.add_argument("--stop-liquidity", type=float, default=None)
    pm.add_argument("--eps-zero", type=float, default=DEFAULT_EPS_ZERO)

    pe = _mc_parser(sub, "ensemble", "run independent replicas and aggregate")
    pe.add_argument("--replicas", type=int, required=True)

    pi = sub.add_parser("integrate", help="integrate the master equation")
    pi.add_argument("--rule", required=True)
    pi.add_argument("--grid", required=True, help="linear:<xmax>:<cells> | log:<xmin>:<xmax>:<cells>")
    pi.add_argument("--init", required=True, help="point:<x> | uniform:<a>:<b> | exp:<mean>")
    pi.add_argument("--dt", type=float, required=True, help="maximum time step")
    pi.add_argument("--t-end", type=float, required=True)
    pi.add_argument("--out", required=True, help="per-step report CSV path")
    pi.add_argument("--snapshots", default=None, help="grid trajectory CSV path")
    pi.add_argument("--snapshot-every", type=int, default=0, metavar="K")
    pi.add_argument("--stop-gini", type=float, default=None)
    pi.add_argument("--stop-liquidity", type=float, default=None)
    pi.add_argument("--config", default=None)

    pk = sub.add_parser("kernel-check", help="audit kernel normalization and bias")
    pk.add_argument("--rule", required=True)
    pk.add_argument("--grid", required=True)
    pk.add_argument("--config", default=None)

    # --rule and --n are required unless --param sets them per row
    ps = _mc_parser(sub, "sweep", "run one configuration per parameter value", False)
    ps.add_argument("--param", required=True, choices=["lambda", "N", "rule"])
    ps.add_argument("--values", required=True, help="comma-separated value list")
    ps.add_argument("--replicas", type=int, default=0)
    ps.add_argument("--stop-gini-gap", type=float, default=None)
    ps.add_argument("--stop-liquidity", type=float, default=None)

    pg = sub.add_parser("gini", help="Gini index of a population snapshot file")
    pg.add_argument("snapshot", help="population snapshot path")

    for p in sub.choices.values():  # to report input errors in its own usage
        p.set_defaults(command_parser=p)
    return parser


# SimConfig's optional float settings; each command has those it reads
_SIM_FLOATS = ("stop_gini_gap", "stop_liquidity", "eps_zero")


def _set_floats(args, names, convert=float) -> dict:
    """The float settings among ``names`` that the command has and are set."""
    return {k: convert(getattr(args, k)) for k in names if getattr(args, k, None) is not None}


def _sim_config(args) -> SimConfig:
    return SimConfig(
        n=args.n,
        rule=parse_rule(args.rule),
        max_sweeps=args.sweeps,
        seed=args.seed,
        initial=parse_initial(args.init),
        record_every=args.record_every,
        **_set_floats(args, _SIM_FLOATS),
    )


def _sim_params(args, extra: dict | None = None) -> dict:
    """The settings of a Monte Carlo command; the one ``sweep --param`` sets
    per row is not given, and its ``values`` stand for it."""
    params = {
        "rule": None if args.rule is None else format_rule(parse_rule(args.rule)),
        "n": args.n,
        "sweeps": args.sweeps,
        "seed": args.seed,
        "record_every": args.record_every,
        "init": args.init,
        **_set_floats(args, _SIM_FLOATS, format_float),
        **(extra or {}),
    }
    return {k: v for k, v in params.items() if v is not None}


def _check_destinations(files, tree=None) -> None:
    """Before a run, so that a bad destination writes nothing: each output
    file's directory exists and the file is not a directory, and ``tree``
    is a directory or its nearest existing ancestor is one."""
    for path in filter(None, files):
        if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or os.curdir):
            raise ConfigError(f"cannot write {path}: not a file in an existing directory")
    if tree:
        ancestor = os.path.abspath(tree)
        while not os.path.exists(ancestor):
            ancestor = os.path.dirname(ancestor)
        if not os.path.isdir(ancestor):
            raise ConfigError(f"cannot make directory {tree}: {ancestor} is not a directory")


def _cmd_simulate(args) -> int:
    config = _sim_config(args)
    if args.snapshot_every and not args.snapshot_dir:
        raise ConfigError("--snapshot-every requires --snapshot-dir")
    if args.snapshot_dir and not args.snapshot_every:
        raise ConfigError("--snapshot-dir requires --snapshot-every")
    _check_destinations([args.out], args.snapshot_dir)
    traj = run(config, snapshot_every=args.snapshot_every)
    if args.snapshot_dir:  # before the CSV, so a bad destination writes nothing
        os.makedirs(args.snapshot_dir, exist_ok=True)
        for t, wealth in traj.snapshots:
            path = os.path.join(args.snapshot_dir, f"population_t{t}.txt")
            write_snapshot(path, Population(wealth), t=t)
    gap_max = (config.n - 1) / config.n
    rows = [(*astuple(r), gap_max - r.gini) for r in traj.records]
    _write_result(args, _sim_params(args), SIM_COLUMNS, rows)
    print(f"stop_reason={traj.stop_reason.value} records={len(traj.records)}")
    return 0


def _cmd_ensemble(args) -> int:
    config = _sim_config(args)
    _check_destinations([args.out])
    summary = run_ensemble(config, args.replicas)
    params = _sim_params(args, {"replicas": args.replicas})
    rows = zip(*(getattr(summary, c) for c in ENSEMBLE_COLUMNS))
    _write_result(args, params, ENSEMBLE_COLUMNS, rows)
    print(f"replicas={summary.replicas} records={summary.t.size}")
    return 0


def _cmd_integrate(args) -> int:
    if args.snapshot_every and not args.snapshots:
        raise ConfigError("--snapshot-every requires --snapshots")
    rule = parse_rule(args.rule)
    grid = build_grid(parse_grid_scheme(args.grid), parse_density(args.init))
    _check_destinations([args.out, args.snapshots])
    kernel = build_kernel(rule, grid)
    snapshots, report = integrate(
        grid,
        kernel,
        dt=args.dt,
        t_end=args.t_end,
        stop_gini=args.stop_gini,
        stop_liquidity=args.stop_liquidity,
        snapshot_every=args.snapshot_every,
    )
    if args.snapshots:  # before the report, so a bad destination writes nothing
        snap_rows = []
        for t, g in snapshots:
            for center, mass in zip(g.centers, g.masses):
                snap_rows.append((t, center, mass))
        _write_csv(args.snapshots, "t,cell_center,mass", snap_rows)
    params = {
        "rule": format_rule(rule),
        "grid": args.grid,
        "init": args.init,
        "interaction_rate": "1 per unit time",
        **_set_floats(args, ("dt", "t_end", "stop_gini", "stop_liquidity"), format_float),
    }
    columns = IntegrationReport.COLUMNS
    _write_result(args, params, columns, zip(*(getattr(report, c) for c in columns)))
    if report.non_conservative:
        print(
            f"warning: truncated wealth {format_float(report.truncated_wealth)} "
            "exceeds tolerance; run is non-conservative",
            file=sys.stderr,
        )
        return 3
    print(
        f"steps={report.steps} t_final={format_float(report.t[-1] if report.steps else 0.0)} "
        f"gini_final={format_float(report.gini[-1] if report.steps else 0.0)} "
        f"stopped_early={report.stopped_early}"
    )
    return 0


def _cmd_kernel_check(args) -> int:
    rule = parse_rule(args.rule)
    # the kernel depends on the grid axis alone, so all mass sits at zero
    edges, centers = _grid_axes(parse_grid_scheme(args.grid))
    masses = np.zeros(centers.size)
    masses[0] = 1.0
    kernel = build_kernel(rule, WealthGrid(edges, masses, centers))
    report = check_kernel(kernel)
    print(f"max normalization error: {format_float(report.max_norm_error)}")
    print(f"max bias: {format_float(report.max_bias)}")
    print(f"max relative bias: {format_float(report.max_bias_rel)}")
    print("passed" if report.passed else "FAILED")
    return 0 if report.passed else 3


def _lambda_sweep_kind(text: str) -> str:
    """The rule kind of a lambda sweep's ``--rule``: a bare kind, as the
    metadata records it, or a rule string whose lambda each row replaces."""
    kind = next((k for k in RuleKind if k.value == text.strip()), None) or parse_rule(text).kind
    if kind is RuleKind.IGLESIAS_ALMEIDA:
        raise ConfigError("iglesias-almeida has no lambda to sweep")
    return kind.value


def _cmd_sweep(args) -> int:
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise ConfigError("--values must list at least one value")
    if args.replicas == 1 or args.replicas < 0:
        raise ConfigError("--replicas must be 0 or >= 2")
    if args.replicas and (args.stop_gini_gap, args.stop_liquidity) != (None, None):
        raise ConfigError("stop thresholds need --replicas 0: an ensemble runs to --sweeps")
    if args.replicas:
        worker_count()  # a bad KINEX_THREADS fails the command, not each row
    swept = {"N": "n", "rule": "rule"}.get(args.param)
    if swept and getattr(args, swept) is not None:
        raise ConfigError(f"--param {args.param} takes no --{swept}: each row sets it")
    missing = [f"--{k}" for k in ("rule", "n") if k != swept and getattr(args, k) is None]
    if missing:
        args.command_parser.error(f"the following arguments are required: {', '.join(missing)}")
    kind = None
    if args.param == "lambda":  # each row sets lambda; the rule kind stays
        kind, args.rule = _lambda_sweep_kind(args.rule), None
    parsed: list[tuple[str, SimConfig]] = []
    for v in values:
        if kind:
            setting = {"rule": f"{kind}:lambda={v}"}
        elif args.param == "N":
            setting = {"n": int(v)}
        else:
            setting = {"rule": v}
        parsed.append((v, _sim_config(argparse.Namespace(**{**vars(args), **setting}))))
    if args.record_every > args.sweeps:  # every row reads its last record
        raise ConfigError("--record-every must not exceed --sweeps")
    _check_destinations([args.out])

    rows = []
    for value, cfg in parsed:
        gini_max = (cfg.n - 1) / cfg.n
        try:
            if args.replicas >= 2:
                summary = run_ensemble(cfg, args.replicas)
                gini, liquidity = summary.gini_mean[-1], summary.liquidity_mean[-1]
                t_cond = -1
            else:
                traj = run(cfg)
                last = traj.records[-1]
                gini, liquidity = last.gini, last.liquidity
                condensed = traj.stop_reason is StopReason.CONDENSED
                t_cond = int(last.t) if condensed else -1
            error = ""
        # A bad configuration or an invariant breach in one row must not kill
        # the sweep; any other exception is a bug and propagates.
        except (ValueError, OSError, ContractViolation) as exc:
            gini, liquidity, t_cond, error = "", "", -1, str(exc)
        rows.append((args.param, value, gini, liquidity, gini_max, t_cond, error))
    params = _sim_params(args, {"param": args.param, "values": args.values})
    if kind:
        params["rule"] = kind
    if args.replicas:
        params["replicas"] = args.replicas
    _write_result(args, params, SWEEP_COLUMNS, rows)
    print(f"rows={len(rows)}")
    return 0


def _cmd_gini(args) -> int:
    pop = read_snapshot(args.snapshot)
    print(format_float(gini_population(pop)))
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "ensemble": _cmd_ensemble,
    "integrate": _cmd_integrate,
    "kernel-check": _cmd_kernel_check,
    "sweep": _cmd_sweep,
    "gini": _cmd_gini,
}


def _apply_config_file(argv: list[str]) -> list[str]:
    """Splice config-file flags after the subcommand so CLI flags override."""
    if not argv or argv[0].startswith("-"):
        return argv
    rest = argv[1:]
    found = [k for k, token in enumerate(rest) if _is_config_flag(token)]
    if not found:
        return argv
    if len(found) > 1:
        raise ConfigError("--config given more than once")
    idx = found[0]
    _, sep, path = rest[idx].partition("=")
    end = idx + 1
    if not sep:
        if end >= len(rest):
            raise ConfigError("--config requires a path")
        path = rest[end]
        end += 1
    return [argv[0]] + _load_config_file(path) + rest[:idx] + rest[end:]


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    try:
        argv = _apply_config_file(list(argv))
        args, extra = parser.parse_known_args(argv)
        if extra:  # in the command's usage, as a missing flag is reported
            args.command_parser.error(f"unrecognized arguments: {' '.join(extra)}")
        handler = _COMMANDS[args.command]
        return handler(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"kinex: config error: {exc}", file=sys.stderr)
        return 2
    except IntegrationAbort as exc:
        print(f"kinex: integration aborted: {exc}", file=sys.stderr)
        return 3
    except ContractViolation as exc:
        print(f"kinex: invariant breach: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
