"""The twmark benchmark workloads, each run in a fresh process by run.py.

    PYTHONPATH=src python3 perfbench/workloads.py --workload train_k32 \
        --seed 0 --seconds 15 --trace 0 --scale full --result out.json \
        --workdir .bench_out/work

A run builds its untimed inputs, sets up three times (setup_s is the
median), then repeats the workload's job until --seconds have passed.
Each job is followed by its correctness gate, outside the timed window.
With --trace 1, jobs alternate traced and untraced (at least two traced,
one untraced) so the result carries per-layer self times, exact counters
and the tracing overhead. The raw samples go to --result as JSON; run.py
turns them into metrics.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import sys
import time
import traceback
import warnings

import numpy as np
import scipy

from twmark import attacks, experiments, protocol
from twmark.errors import ThresholdError
from twmark.experiments import ExperimentConfig
from twmark.field import FieldVector
from twmark.secagg import SecAggSession
from twmark.verify import verify_direct

from gauge import SpeedGauge
from tracing import Patches, Tracer

SETUP_REPS = 3
# sweep_k128 verifies each of its few checkpoints this many times, so that
# verify_ms has a median over 16 samples, and checks the repeats agree
SWEEP_VERIFY_REPS = 3
# A reduced `twmark calibrate` budget: the null moments depend on d, not on
# how long the null models trained, and 1000 null cosines pin sigma to ~2%.
# Fewer keys also keep the calibration's key matrix from setting peak RSS.
_CALIB = dict(calib_models=2, calib_rounds=3, calib_keys=500)
_TOY_CALIB = dict(calib_models=2, calib_rounds=1, calib_keys=200)

SIZES = {
    "full": {
        "train_k32": dict(setup_mode="dkg", rounds=20, **_CALIB),
        "sweep_k128": dict(k_sweep=(128,), sweep_rounds=4, **_CALIB),
        "attack_grid": dict(rounds=30, attack_epochs=30, **_CALIB),
    },
    # Self-test sizes: every code path, a few seconds per workload. The
    # strong watermark lets the gates' accept decisions hold after 4 rounds.
    "toy": {
        "train_k32": dict(setup_mode="dkg", n_clients=4, threshold=2, hidden=16,
                          n_samples=400, n_test=200, rounds=4, strength_c=20.0,
                          ema_beta=0.5, **_TOY_CALIB),
        "sweep_k128": dict(k_sweep=(8,), hidden=16, n_test=200, sweep_rounds=2,
                           **_TOY_CALIB),
        "attack_grid": dict(n_clients=4, threshold=2, hidden=16, n_samples=400,
                            n_test=200, rounds=4, strength_c=20.0, ema_beta=0.5,
                            attack_epochs=2, **_TOY_CALIB),
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _theta_bytes(theta) -> bytes:
    return np.asarray(theta, dtype="<f8").tobytes()


def _file_sha(path) -> str:
    with open(path, "rb") as fh:
        return _sha(fh.read())


def _tree_bytes(path) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


class Probes:
    """Wrappers that stay on in untraced runs: round and verification
    intervals, the results the correctness gates inspect, and gauge ticks
    at call boundaries frequent enough to follow the machine's speed."""

    def __init__(self, patches: Patches, gauge: SpeedGauge):
        self.gauge = gauge
        self.reset()
        patches.wrap(protocol, "embed_round", self._timed("round_s"))
        patches.wrap(experiments, "make_coalition_verifier", self._verifier)
        patches.wrap(experiments, "run_protocol", self._keep("trajectories"))
        patches.wrap(experiments, "run_baseline", self._keep("baselines"))
        patches.wrap(experiments, "run_attack_job", self._attack)
        # the inner loops of training, pairwise masking and Shamir sharing;
        # a loop the program no longer has only makes readings sparser
        for owner, attr in ((protocol, "local_train"), (experiments, "local_train"),
                            (attacks, "forward_backward"), (SecAggSession, "pair_mask"),
                            (FieldVector, "scalar_mul")):
            if hasattr(owner, attr):
                patches.wrap(owner, attr, self._ticking)

    def reset(self):
        self.round_s, self.verify_s = [], []
        self.trajectories, self.baselines = [], []
        self.attack_jobs = 0
        self.attack_theta = hashlib.sha256()

    def _timed(self, field, short=False):
        def make(orig):
            def timed(*args, **kwargs):
                self.gauge.tick(force=short)
                t0 = time.perf_counter()
                out = orig(*args, **kwargs)
                getattr(self, field).append((t0, time.perf_counter()))
                self.gauge.tick()
                return out
            return timed
        return make

    def _ticking(self, orig):
        def ticking(*args, **kwargs):
            out = orig(*args, **kwargs)
            self.gauge.tick()
            return out
        return ticking

    def _verifier(self, orig):
        def make_coalition_verifier(*args, **kwargs):
            return self._timed("verify_s", short=True)(orig(*args, **kwargs))
        return make_coalition_verifier

    def _keep(self, field):
        def make(orig):
            def keep(*args, **kwargs):
                out = orig(*args, **kwargs)
                getattr(self, field).append(out)
                return out
            return keep
        return make

    def _attack(self, orig):
        def run_attack_job(*args, **kwargs):
            checkpoints = orig(*args, **kwargs)
            self.attack_theta.update(_theta_bytes(checkpoints[-1][1]))
            self.attack_jobs += 1
            self.gauge.tick()
            return checkpoints
        return run_attack_job


class Prepared:
    """Setup results handed to the timed job.

    While installed, ``experiments.run_setup`` and ``ExperimentConfig.dataset``
    return the object built during setup when called with the same
    arguments, so the job does not repeat the work setup_s measured. A
    call with other arguments goes through to the program.
    """

    def __init__(self, cfg):
        self.cfg = cfg
        self.setups, self.datasets = {}, {}
        self.extra = {}

    def setup(self, seed, n_clients=None, threshold=None, keep_key=False):
        cfg = self.cfg
        s = experiments.run_setup(cfg, seed, n_clients=n_clients,
                                  threshold=threshold, keep_key=keep_key)
        self.setups[(seed, s.cfg.n_clients, s.cfg.threshold)] = s
        return s

    def dataset(self, seed, n=None, n_clients=None):
        ds = self.cfg.dataset(seed, n=n, n_clients=n_clients)
        self.datasets[(seed, ds.n, ds.n_clients)] = ds
        return ds

    def install(self, patches: Patches):
        setups, datasets, cfg = self.setups, self.datasets, self.cfg

        def run_setup_wrapper(orig):
            # keep_key only retains the key beside the same shares
            def run_setup(c, seed, n_clients=None, threshold=None, keep_key=False):
                K = n_clients or c.n_clients
                key = (seed, K, threshold or min(c.threshold, K))
                if c == cfg and key in setups:
                    return setups[key]
                return orig(c, seed, n_clients, threshold, keep_key)
            return run_setup

        def dataset_wrapper(orig):
            def dataset(c, seed, n=None, n_clients=None):
                key = (seed, n or c.n_samples, n_clients or c.n_clients)
                if c == cfg and key in datasets:
                    return datasets[key]
                return orig(c, seed, n, n_clients)
            return dataset

        patches.wrap(experiments, "run_setup", run_setup_wrapper)
        patches.wrap(ExperimentConfig, "dataset", dataset_wrapper)


class Workload:
    """inputs() is untimed; setup() is timed as setup_s; job() is timed as
    wall_s; gate() checks the job's output after the timed window."""

    name = None

    def __init__(self, seed: int, scale: str, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.cfg = ExperimentConfig(seeds=(seed,), **SIZES[scale][self.name])
        self.input_round_s = None

    def inputs(self, probes: Probes):
        self.calib_dir = os.path.join(self.workdir, "inputs")
        self.calib = experiments.cmd_calibrate(self.cfg, outdir=self.calib_dir)


class TrainK32(Workload):
    """`twmark train` for one seed with DKG setup, then `twmark verify` on
    every checkpoint it wrote and the t-1 refusal."""

    name = "train_k32"

    def setup(self, rep_dir) -> Prepared:
        prep = Prepared(self.cfg)
        prep.setup(self.seed)
        prep.dataset(self.seed)
        return prep

    def expected_ops(self) -> int:
        # rounds + one verification per checkpoint and model_final + refusal
        return self.cfg.rounds + (self.cfg.rounds + 2) + 1

    def job(self, prep, outdir, probes) -> dict:
        cfg, t = self.cfg, self.cfg.threshold
        experiments.cmd_train(cfg, outdir, seed=self.seed)
        rundir = os.path.join(outdir, f"run_seed{self.seed}")
        shares = [os.path.join(rundir, "shares", f"client_{k}.share")
                  for k in range(1, cfg.n_clients + 1)]
        models = sorted(glob.glob(os.path.join(rundir, "trajectory", "round_*.bin")))
        models.append(os.path.join(rundir, "model_final.bin"))
        calib_path = os.path.join(self.calib_dir, "calibration.txt")
        decisions = {}
        for path in models:
            probes.gauge.tick(force=True)
            t0 = time.perf_counter()
            _, code = experiments.cmd_verify(path, shares[:t], calib_path,
                                             z_star=cfg.z_star)
            probes.verify_s.append((t0, time.perf_counter()))
            probes.gauge.tick()
            decisions[os.path.basename(path)] = code
        try:
            experiments.cmd_verify(models[-1], shares[:t - 1], calib_path,
                                   z_star=cfg.z_star)
            refused = False
        except ThresholdError:
            refused = True
        return {"rundir": rundir, "decisions": decisions, "refused": refused}

    def gate(self, out, probes) -> tuple:
        rounds = len(probes.round_s)
        decisions = out["decisions"]
        # known answers: the initial model rejects, the final one accepts
        wrong = [name for name, want in (("round_00000.bin", 1), ("model_final.bin", 0))
                 if decisions.get(name) != want]
        if not out["refused"]:
            wrong.append("t-1 shares not refused")
        done = rounds + len(decisions) + (1 if out["refused"] else 0)
        theta = probes.trajectories[-1][-1].theta
        digests = {"theta": _sha(_theta_bytes(theta)),
                   "csv": _file_sha(os.path.join(out["rundir"], "metrics.csv"))}
        return done, wrong, digests


class SweepK128(Workload):
    """The K=128, t=64 point of `twmark scalability`: threshold run,
    per-client baseline, verification; then every threshold checkpoint is
    verified through the coalition path, SWEEP_VERIFY_REPS times, and
    checked against the oracle."""

    name = "sweep_k128"

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        (self.K,) = self.cfg.k_sweep
        self.t = max(2, self.K // 2)

    def setup(self, rep_dir) -> Prepared:
        prep = Prepared(self.cfg)
        prep.setup(self.seed, n_clients=self.K, threshold=self.t, keep_key=True)
        prep.dataset(self.seed, n=self.cfg.sweep_samples_per_client * self.K,
                     n_clients=self.K)
        return prep

    def expected_ops(self) -> int:
        R = self.cfg.sweep_rounds
        # threshold and baseline rounds, cmd verification, checkpoint verifications
        return 2 * R + 1 + SWEEP_VERIFY_REPS * (R + 1)

    def job(self, prep, outdir, probes) -> dict:
        cfg = self.cfg
        with warnings.catch_warnings():
            # one sweep point: the decay exponent is fitted to a single K
            warnings.simplefilter("ignore", np.exceptions.RankWarning)
            result = experiments.cmd_scalability(cfg, self.calib, outdir=outdir,
                                                 seeds=[self.seed])
        (setup,) = prep.setups.values()
        trajectory = probes.trajectories[-1]
        verifier = experiments.make_coalition_verifier(cfg, setup, self.calib)
        reports = [[verifier(gm.theta) for _ in range(SWEEP_VERIFY_REPS)]
                   for gm in trajectory]
        return {"outdir": outdir, "setup": setup, "trajectory": trajectory,
                "reports": reports, "record": result["records"][-1]}

    def gate(self, out, probes) -> tuple:
        cfg = self.cfg
        wrong = []
        for gm, reps in zip(out["trajectory"], out["reports"]):
            oracle = verify_direct(gm.theta, out["setup"].debug_key, self.calib,
                                   cfg.codecs())
            for rep in reps:
                if rep.cosine != oracle.cosine:
                    wrong.append(f"round {gm.round_index}: coalition cosine "
                                 f"{rep.cosine!r} != oracle {oracle.cosine!r}")
        if out["record"]["z_threshold"] != out["reports"][-1][0].z:
            wrong.append("scalability z differs from the final checkpoint's z")
        R = cfg.sweep_rounds
        done = (len(probes.round_s) + (R if probes.baselines else 0)
                + len(probes.verify_s))
        base_theta = probes.baselines[-1][0][-1].theta
        digests = {
            "theta": _sha(_theta_bytes(out["trajectory"][-1].theta)
                          + _theta_bytes(base_theta)),
            "csv": _file_sha(os.path.join(out["outdir"], "scalability.csv")),
        }
        return done, wrong, digests


class AttackGrid(Workload):
    """`twmark robustness` at the shipped grid against a persisted K=32
    victim run. Setup is `twmark calibrate` plus load_run."""

    name = "attack_grid"

    def inputs(self, probes):
        self.victim_dir = os.path.join(self.workdir, "victim")
        probes.reset()
        experiments.cmd_train(self.cfg, self.victim_dir, seed=self.seed)
        # no round runs in the timed job; round_ms comes from the victim build
        self.input_round_s = probes.round_s
        self.victim_dir = os.path.join(self.victim_dir, f"run_seed{self.seed}")

    def setup(self, rep_dir):
        calib = experiments.cmd_calibrate(self.cfg, outdir=rep_dir)
        setup, dataset, trajectory = experiments.load_run(self.cfg, self.victim_dir)
        prep = Prepared(self.cfg)
        prep.extra = {"calib": calib, "run": (setup, dataset, trajectory)}
        return prep

    def grid_rows(self) -> tuple:
        """(attack jobs, verified checkpoints) of the grid, counted from the
        config: training attacks keep every 10th epoch and the last one."""
        cfg = self.cfg
        E = cfg.attack_epochs
        per_trained = len(range(0, E + 1, 10)) + (1 if E % 10 else 0)
        trained = len(cfg.attack_fractions) * (2 + len(cfg.attack_alphas))
        one_shot = 2 * len(cfg.prune_ratios) + len(cfg.quant_schemes)
        return trained + one_shot, trained * per_trained + one_shot

    def expected_ops(self) -> int:
        return sum(self.grid_rows())

    def job(self, prep, outdir, probes) -> dict:
        setup, dataset, trajectory = prep.extra["run"]
        experiments.cmd_robustness(self.cfg, setup, dataset, trajectory,
                                   prep.extra["calib"], outdir=outdir)
        return {"outdir": outdir}

    def gate(self, out, probes) -> tuple:
        csv_path = os.path.join(out["outdir"], "robustness.csv")
        with open(csv_path) as fh:
            rows = [line.rstrip("\n").split(",") for line in fh][1:]
        wrong = []
        n_rows = self.grid_rows()[1]
        if len(rows) != n_rows:
            wrong.append(f"{len(rows)} rows, grid has {n_rows}")
        # step 0 of a fine-tune is the unattacked victim; of distillation, a
        # fresh student that never saw the key
        for run_id, kind, params, step, acc, z, decision in rows:
            want = {"finetune": "accept", "adaptive_finetune": "accept",
                    "distill": "reject"}.get(kind)
            if step == "0" and want and decision != want:
                wrong.append(f"{kind} {params} step 0: {decision}")
        done = probes.attack_jobs + len(probes.verify_s)
        digests = {"theta": probes.attack_theta.hexdigest(),
                   "csv": _file_sha(csv_path)}
        return done, wrong, digests


WORKLOADS = {w.name: w for w in (TrainK32, SweepK128, AttackGrid)}


def _versions() -> dict:
    blas = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:   # numpy builds without the dict form of show_config
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas}


def _gauge_summary(gauge) -> dict:
    bests = sorted(1000.0 * best for _, _, best in gauge.readings)
    if not bests:
        return {"readings": 0}
    pick = lambda q: bests[min(int(q * len(bests)), len(bests) - 1)]
    return {"readings": len(bests), "p10": pick(0.1), "p50": pick(0.5), "p90": pick(0.9)}


def _run_job(wl, prep, probes, tracer, phase, workdir) -> dict:
    outdir = os.path.join(workdir, phase)
    probes.reset()
    if tracer is not None:
        tracer.install(phase)
    probes.gauge.tick()
    t0 = time.perf_counter()
    error, out = None, None
    try:
        out = wl.job(prep, outdir, probes)
    except Exception:
        error = traceback.format_exc()
    t1 = time.perf_counter()
    probes.gauge.tick()
    if tracer is not None:
        tracer.uninstall()
        tracer.counters[phase]["experiments.bytes_written"] = _tree_bytes(outdir)
    record = {"phase": phase, "traced": tracer is not None, "wall": (t0, t1),
              "round": probes.round_s, "verify": probes.verify_s,
              "attempted": wl.expected_ops(), "done": 0, "wrong": [],
              "digests": {}, "error": error}
    if error is None:
        try:
            record["done"], record["wrong"], record["digests"] = wl.gate(out, probes)
        except Exception:
            record["error"] = traceback.format_exc()
    if record["error"]:
        print(record["error"], file=sys.stderr)
    shutil.rmtree(outdir, ignore_errors=True)
    return record


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str,
        workdir: str) -> dict:
    wl = WORKLOADS[workload](seed, scale, workdir)
    patches = Patches()
    gauge = SpeedGauge()
    # traced runs report raw per-layer times; the gauge would add to them
    gauge.enabled = not trace
    probes = Probes(patches, gauge)
    tracer = Tracer() if trace else None
    try:
        gauge.tick()
        wl.inputs(probes)
        setups = []
        for rep in range(SETUP_REPS):
            phase = f"setup{rep}"
            if tracer is not None:
                tracer.install(phase)
            rep_dir = os.path.join(workdir, phase)
            gauge.tick()
            t0 = time.perf_counter()
            prep = wl.setup(rep_dir)
            setups.append((t0, time.perf_counter()))
            gauge.tick()
            if tracer is not None:
                tracer.uninstall()
                tracer.counters[phase]["experiments.bytes_written"] = (
                    _tree_bytes(rep_dir) if os.path.isdir(rep_dir) else 0)
        prep.install(patches)
        jobs = []
        start = time.perf_counter()
        while True:
            # traced runs alternate traced and untraced jobs, traced first
            traced = trace and len(jobs) % 2 == 0
            jobs.append(_run_job(wl, prep, probes, tracer if traced else None,
                                 f"job{len(jobs)}", workdir))
            enough = not trace or len(jobs) >= 3
            if enough and time.perf_counter() - start >= seconds:
                break
    finally:
        patches.undo()
    gauge.read()

    def durations(intervals):
        raw = [b - a for a, b in intervals]
        if trace:
            return {"raw": raw}
        return {"raw": raw, "rescaled": [gauge.rescale(a, b) for a, b in intervals]}

    untraced = [j for j in jobs if not j["traced"]]
    rounds = wl.input_round_s
    if rounds is None:
        rounds = [iv for j in untraced for iv in j["round"]]
    verifies = [iv for j in untraced for iv in j["verify"]]
    for j in jobs:
        j["wall"] = durations([j["wall"]])
        del j["round"], j["verify"]
    result = {
        "workload": workload, "seed": seed, "trace": int(trace), "scale": scale,
        "config_hash": wl.cfg.config_hash(), "setup": durations(setups),
        "jobs": jobs, "round": durations(rounds), "verify": durations(verifies),
        "gauge_ms": _gauge_summary(gauge), "versions": _versions(),
    }
    if tracer is not None:
        result["self_s"] = tracer.self_times()
        result["counters"] = tracer.counters
        result["spans"] = tracer.spans
        result["missing_targets"] = tracer.missing
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=sorted(SIZES), default="full")
    p.add_argument("--result", required=True)
    p.add_argument("--workdir", required=True)
    args = p.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 args.scale, args.workdir)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
