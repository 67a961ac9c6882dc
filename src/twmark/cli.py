"""Command-line entry point.

Subcommands: calibrate, train, attack, verify, scalability, fidelity,
robustness, report. A config file holds key = value pairs (one per line,
Python literals of the field's type); any key can be overridden with
--set key=value.

verify exit codes: 0 accept, 1 reject, 2 error (including coalitions
below the threshold).
"""

import argparse
import os
import sys

from .errors import ConfigurationError
from .experiments import (
    CalibrationTable,
    ExperimentConfig,
    cmd_attack,
    cmd_calibrate,
    cmd_fidelity,
    cmd_report,
    cmd_robustness,
    cmd_scalability,
    cmd_train,
    cmd_verify,
    read_run,
)
from .verify import Z_STAR_DEFAULT


# the `attack` options that set AttackConfig fields
_ATTACK_PARAMS = ("data_fraction", "alpha", "prune_ratio", "quant_scheme")


def _load_config(args) -> ExperimentConfig:
    overrides = args.set or []
    if args.config:
        return ExperimentConfig.from_file(args.config, overrides)
    return ExperimentConfig.with_overrides({}, overrides)


def _add_common(p):
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config key (repeatable)")
    p.add_argument("--out", default=None, help="output directory")


def _outdir(cfg, args):
    out = args.out or cfg.output_dir
    os.makedirs(out, exist_ok=True)
    return out


def _calib(cfg, args, out):
    path = args.calibration or os.path.join(out, "calibration.txt")
    if os.path.exists(path):
        return CalibrationTable.load(path)
    return cmd_calibrate(cfg, outdir=os.path.dirname(path) or ".")


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

        cfg = _load_config(args)
        out = _outdir(cfg, args)

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

        if args.command == "attack":
            calib = _calib(cfg, args, out)
            params = {name: getattr(args, name) for name in _ATTACK_PARAMS
                      if getattr(args, name) is not None}
            records = cmd_attack(cfg, args.run, calib, args.kind,
                                 outdir=out, **params)
            final = records[-1]
            print(f"{args.kind}: final accuracy {final['accuracy']:.4f}, "
                  f"z {final['z']:.4g}")
            return 0

        if args.command == "scalability":
            calib = _calib(cfg, args, out)
            result = cmd_scalability(cfg, calib, outdir=out)
            print(f"baseline decay exponent: "
                  f"{result['baseline_decay_exponent']:.3f}")
            return 0

        if args.command == "fidelity":
            calib = _calib(cfg, args, out)
            result = cmd_fidelity(cfg, calib, outdir=out,
                                  sweep_budget=args.sweep_budget)
            for c, s in result["summary"].items():
                print(f"c={c}: z {s['z_mean']:.4g}, "
                      f"accuracy {s['acc_mean']:.4f}")
            return 0

        if args.command == "robustness":
            calib = _calib(cfg, args, out)
            run_cfg, setup, dataset, trajectory = read_run(args.run)
            cmd_robustness(cfg, setup, dataset, trajectory, calib, outdir=out,
                           run_id=run_cfg.config_hash())
            print(f"robustness grid written under {out}")
            return 0

        raise ConfigurationError(f"unhandled command {args.command}")
    except Exception as exc:  # CLI boundary: map failures to exit 2
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
