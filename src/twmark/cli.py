"""Command-line entry point.

Subcommands: calibrate, train, attack, verify, scalability, fidelity,
robustness, report. A config file holds key = value pairs (one per line,
Python literals of the field's type); any key can be overridden with
--set key=value (on attack and robustness, which run as the run they read,
only its RUN_COMMAND_FIELDS).

verify exit codes: 0 accept, 1 reject, 2 error (including coalitions
below the threshold).
"""

import argparse
import os
import sys

from .errors import ConfigurationError
from .experiments import (
    RUN_COMMAND_FIELDS,
    CalibrationTable,
    ExperimentConfig,
    _attack_config,
    _check_sweep,
    _fidelity_points,
    cmd_attack,
    cmd_calibrate,
    cmd_fidelity,
    cmd_report,
    cmd_robustness,
    cmd_scalability,
    cmd_train,
    cmd_verify,
    command_config,
    config_values,
    read_run,
)
from .verify import Z_STAR_DEFAULT


# the `attack` options that set AttackConfig fields
_ATTACK_PARAMS = ("data_fraction", "alpha", "prune_ratio", "quant_scheme")


def _add_common(p):
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config key (repeatable)")
    p.add_argument("--out", default=None, help="output directory")


def _nameable(path):
    """``path``, refused unless the filesystem encoding can name it: under
    an ASCII locale a non-ASCII path would fail only at its first use."""
    try:
        os.fsencode(path)
    except UnicodeEncodeError:
        raise ConfigurationError(f"{path}: the filesystem encoding "
                                 f"{sys.getfilesystemencoding()} cannot name this path") from None
    return path


def _calib(cfg, args, out):
    path = args.calibration or os.path.join(out, "calibration.txt")
    if os.path.exists(path):
        return CalibrationTable.load(path)
    table = cmd_calibrate(cfg)
    table.save(path)
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="twmark",
        description="threshold watermarking for federated learning, desk scale",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="train null models and fit the z-test")
    _add_common(p)

    p = sub.add_parser("train", help="watermarked FL runs for every seed")
    _add_common(p)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("attack", help="one attack against a persisted run")
    _add_common(p)
    p.add_argument("--run", required=True, help="run directory from `train`")
    p.add_argument("--kind", required=True)
    p.add_argument("--calibration", default=None)
    p.add_argument("--data-fraction", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--prune-ratio", type=float, default=None)
    p.add_argument("--quant-scheme", default=None)

    p = sub.add_parser("verify", help="coalition z-test on a model file")
    p.add_argument("--model", required=True)
    p.add_argument("--calibration", required=True)
    p.add_argument("--z-star", type=float, default=Z_STAR_DEFAULT)
    p.add_argument("shares", nargs="+", help=">= t share files")

    p = sub.add_parser("scalability", help="K sweep, threshold vs baseline")
    _add_common(p)
    p.add_argument("--calibration", default=None)

    p = sub.add_parser("fidelity", help="watermark-strength sweep")
    _add_common(p)
    p.add_argument("--calibration", default=None)
    p.add_argument("--sweep-budget", action="store_true",
                   help="use the reduced sweep round/sample budget")

    p = sub.add_parser("robustness", help="attack grid on a persisted run")
    _add_common(p)
    p.add_argument("--run", required=True)
    p.add_argument("--calibration", default=None)

    p = sub.add_parser("report", help="summarize CSVs in an output directory")
    p.add_argument("--out", required=True)

    args = parser.parse_args(argv)

    try:
        # every path a command reads or writes, before any of its work
        for path in [getattr(args, name, None) for name in
                     ("out", "config", "run", "calibration", "model")] + getattr(args, "shares", []):
            if path is not None:
                _nameable(path)

        if args.command == "report":
            report_path, exports = cmd_report(args.out)
            print(f"wrote {report_path}")
            for e in exports:
                print(f"wrote {e}")
            return 0

        if args.command == "verify":
            report, code = cmd_verify(args.model, args.shares, args.calibration,
                                      z_star=args.z_star)
            decision = "accept" if report.accepted else "reject"
            print(f"cosine = {report.cosine:.6g}")
            print(f"z = {report.z:.6g} (threshold z* = {report.z_star})")
            print(f"coalition size = {report.coalition_size}")
            print(f"decision: {decision}")
            return code

        values = config_values(args.config, args.set or [])
        # a command on a run checks its own fields here, and the rest against the run
        on_run = args.command in ("attack", "robustness")
        cfg = ExperimentConfig.with_overrides({k: v for k, v in values.items()
                                               if not on_run or k in RUN_COMMAND_FIELDS},
                                              path=args.config)
        out = _nameable(args.out or cfg.output_dir)

        if args.command == "calibrate":
            table = cmd_calibrate(cfg, outdir=out)
            print(f"mu = {table.mu:.6g}, sigma = {table.sigma:.6g}, "
                  f"skew = {table.skewness:.3f}, "
                  f"excess kurtosis = {table.excess_kurtosis:.3f}")
            if table.normality_warning:
                print("warning: null distribution has heavy tails")
            return 0

        if args.command == "train":
            cmd_train(cfg, out, seed=args.seed)
            print(f"runs written under {out}")
            return 0

        # each command checks its inputs before _calib may train the null models
        if args.command == "attack":
            params = {name: getattr(args, name) for name in _ATTACK_PARAMS
                      if getattr(args, name) is not None}
            _attack_config(cfg, args.kind, params)
            run_cfg, *run = read_run(args.run)
            cfg = command_config(run_cfg, args.run, values, (args.kind, params))
            out = _nameable(args.out or cfg.output_dir)
            records = cmd_attack(cfg, *run, _calib(cfg, args, out), args.kind, outdir=out,
                                 run_id=run_cfg.config_hash(), **params)
            final = records[-1]
            print(f"{args.kind}: final accuracy {final['accuracy']:.4f}, "
                  f"z {final['z']:.4g}")
            return 0

        if args.command == "scalability":
            _check_sweep(cfg)
            calib = _calib(cfg, args, out)
            result = cmd_scalability(cfg, calib, outdir=out)
            slope = result["baseline_decay_exponent"]
            print("baseline decay exponent: "
                  + ("n/a" if slope is None else f"{slope:.3f}"))
            return 0

        if args.command == "fidelity":
            _fidelity_points(cfg, args.sweep_budget)
            calib = _calib(cfg, args, out)
            result = cmd_fidelity(cfg, calib, outdir=out,
                                  sweep_budget=args.sweep_budget)
            for c, s in result["summary"].items():
                print(f"c={c}: z {s['z_mean']:.4g}, "
                      f"accuracy {s['acc_mean']:.4f}")
            return 0

        if args.command == "robustness":
            run_cfg, *run = read_run(args.run)
            cfg = command_config(run_cfg, args.run, values)
            out = _nameable(args.out or cfg.output_dir)
            cmd_robustness(cfg, *run, _calib(cfg, args, out), outdir=out,
                           run_id=run_cfg.config_hash())
            print(f"robustness grid written under {out}")
            return 0

        raise ConfigurationError(f"unhandled command {args.command}")
    except Exception as exc:  # CLI boundary: map failures to exit 2
        # an error without text, such as MemoryError(), is named by its type
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
