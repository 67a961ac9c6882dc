"""Experiment orchestration: configuration, runs, sweeps, files, reports.

One measurement per CSV row, manifests tie every row to a config hash,
and all randomness flows through seeded streams so re-running a command
with the same config yields byte-identical CSV bodies.
"""

import ast
import hashlib
import os
import struct
from dataclasses import dataclass, fields as dc_fields

import numpy as np

from . import attacks
from .errors import ConfigurationError, FingerprintMismatchError
from .field import FieldParams, ProtocolCodecs, check_aggregate_bound
from .flsim import AdamWParams, MlpShape, evaluate, gen_dataset, init_model, local_train
from .keysetup import load_share, save_share, setup_dkg, setup_trusted_dealer
from .protocol import ProtocolParams, run_baseline, run_protocol
from .rngutil import rng_from_key
from .sharing import ShamirConfig
from .verify import (
    CalibrationTable,
    VerificationReport,
    calibrate,
    coalition_statistic,
    cosine_against_keys,
    model_fingerprint,
    partial_inner,
)

WORKERS_ENV = "TWMARK_WORKERS"


@dataclass(frozen=True)
class ExperimentConfig:
    # protocol
    n_clients: int = 32
    threshold: int = 16
    rounds: int = 100
    strength_c: float = 0.025
    baseline_c: float = 0.4
    ema_beta: float = 0.9
    f_share: int = 20
    g_scale: int = 16
    modulus: int = (1 << 61) - 1
    scale_max: float = 100.0
    theta_max: float = 10.0
    setup_mode: str = "dealer"           # dealer | dkg
    participation: float = 1.0
    z_star: float = 4.0
    # data / model
    n_samples: int = 20480
    input_dim: int = 32
    n_classes: int = 10
    hidden: int = 128
    noise: float = 1.0
    n_test: int = 2000
    # optimizer
    lr: float = 1e-3
    weight_decay: float = 1e-4
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    batch_size: int = 64
    local_epochs: int = 1
    # calibration
    calib_models: int = 5
    calib_keys: int = 2000
    calib_rounds: int = 30
    # sweeps
    k_sweep: tuple = (4, 8, 16, 32, 64, 128)
    c_sweep: tuple = (0.0, 0.025, 0.05, 0.075, 0.1)
    sweep_rounds: int = 30
    sweep_samples: int = 5120
    sweep_samples_per_client: int = 160   # K sweep: shard size held fixed
    sweep_batch: int = 32
    # attacks
    attack_kinds: tuple = ("finetune", "adaptive_finetune", "prune_magnitude",
                           "prune_structured", "quantize", "distill")
    attack_fractions: tuple = (0.01, 0.05, 0.10, 0.20)
    attack_epochs: int = 100
    attack_alphas: tuple = (0.1, 0.3, 0.5, 0.7)
    prune_ratios: tuple = (0.3, 0.5, 0.7, 0.9)
    quant_schemes: tuple = ("static8", "static4", "dynamic8")
    attack_batch: int = 128
    # bookkeeping
    seeds: tuple = (0, 1, 2)
    output_dir: str = "out"

    def __post_init__(self):
        if self.threshold > self.n_clients:
            raise ConfigurationError("threshold t must not exceed K")
        if self.setup_mode not in ("dealer", "dkg"):
            raise ConfigurationError("setup_mode must be 'dealer' or 'dkg'")
        check_aggregate_bound(
            self.shape().dim, self.n_clients, self.theta_max, self.scale_max,
            self.codecs(),
        ).raise_if_failed()

    # -- derived objects --

    def shape(self) -> MlpShape:
        return MlpShape(self.input_dim, self.hidden, self.n_classes)

    def codecs(self) -> ProtocolCodecs:
        return ProtocolCodecs(
            params=FieldParams(self.modulus),
            f_share=self.f_share, g_scale=self.g_scale,
            f_model=self.f_share + self.g_scale,
        )

    def shamir_cfg(self, n_clients=None, threshold=None) -> ShamirConfig:
        return ShamirConfig(
            n_clients=n_clients or self.n_clients,
            threshold=threshold or self.threshold,
            params=FieldParams(self.modulus),
        )

    def optimizer(self) -> AdamWParams:
        return AdamWParams(lr=self.lr, weight_decay=self.weight_decay,
                           beta1=self.adam_beta1, beta2=self.adam_beta2)

    def protocol_params(self, c=None) -> ProtocolParams:
        return ProtocolParams(
            strength_c=self.strength_c if c is None else c,
            ema_beta=self.ema_beta,
            scale_max=self.scale_max,
            theta_max=self.theta_max,
            local_epochs=self.local_epochs,
            batch_size=self.batch_size,
            optimizer=self.optimizer(),
            participation=self.participation,
        )

    def dataset(self, seed: int, n=None, n_clients=None):
        return gen_dataset(
            seed=seed,
            n=n or self.n_samples,
            input_dim=self.input_dim,
            n_classes=self.n_classes,
            n_clients=n_clients or self.n_clients,
            noise=self.noise,
            n_test=self.n_test,
        )

    # -- serialization --

    def canonical_text(self) -> str:
        lines = []
        for f in dc_fields(self):
            lines.append(f"{f.name} = {getattr(self, f.name)!r}")
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()[:16]

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(self.canonical_text())

    @classmethod
    def from_file(cls, path, overrides=()) -> "ExperimentConfig":
        values = {}
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, sep, raw = line.partition("=")
                if not sep:
                    raise ConfigurationError(f"{path}:{lineno}: expected key = value")
                values[key.strip()] = ast.literal_eval(raw.strip())
        return cls.with_overrides(values, overrides)

    @classmethod
    def with_overrides(cls, values: dict, overrides=()) -> "ExperimentConfig":
        known = {f.name for f in dc_fields(cls)}
        for item in overrides:
            key, sep, raw = item.partition("=")
            if not sep:
                raise ConfigurationError(f"override {item!r} is not key=value")
            values[key.strip()] = ast.literal_eval(raw.strip())
        unknown = set(values) - known
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        return cls(**values)


def worker_count() -> int:
    """Requested parallelism; execution order (and output) never depends on it."""
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        n = int(raw)
    except ValueError:
        raise ConfigurationError(f"{WORKERS_ENV}={raw!r} is not an integer")
    if n < 1:
        raise ConfigurationError(f"{WORKERS_ENV} must be >= 1")
    return n


# -- model / trajectory files --

_MODEL_MAGIC = b"TWMODEL1"


def save_model(theta: np.ndarray, shape: MlpShape, round_index: int, path):
    with open(path, "wb") as fh:
        fh.write(_MODEL_MAGIC)
        fh.write(struct.pack("<IIIQ", shape.input_dim, shape.hidden,
                             shape.n_classes, round_index))
        fh.write(np.asarray(theta, dtype="<f8").tobytes())


def load_model(path):
    """Returns (theta, MlpShape, round_index)."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:8] != _MODEL_MAGIC:
        raise ConfigurationError(f"{path}: not a model file")
    m, h, G, r = struct.unpack("<IIIQ", data[8:28])
    theta = np.frombuffer(data[28:], dtype="<f8").copy()
    shape = MlpShape(m, h, G)
    if theta.size != shape.dim:
        raise ConfigurationError(f"{path}: payload does not match header dims")
    return theta, shape, int(r)


def save_trajectory(trajectory, shape: MlpShape, dirpath):
    os.makedirs(dirpath, exist_ok=True)
    for gm in trajectory:
        save_model(gm.theta, shape, gm.round_index,
                   os.path.join(dirpath, f"round_{gm.round_index:05d}.bin"))


def load_trajectory(dirpath):
    from .protocol import GlobalModel

    names = sorted(n for n in os.listdir(dirpath) if n.startswith("round_"))
    out = []
    for n in names:
        theta, _, r = load_model(os.path.join(dirpath, n))
        out.append(GlobalModel(theta=theta, round_index=r))
    return out


def write_manifest(cfg: ExperimentConfig, seed: int, setup, path):
    with open(path, "w") as fh:
        fh.write(f"config_hash = {cfg.config_hash()!r}\n")
        fh.write(f"seed = {seed}\n")
        fh.write(f"setup_mode = {cfg.setup_mode!r}\n")
        fh.write(f"public_norm = {setup.public_norm!r}\n")
        if setup.commitment is not None:
            fh.write(f"commitment_nonce = {setup.commitment.nonce.hex()!r}\n")
            fh.write(f"commitment_digest = {setup.commitment.digest.hex()!r}\n")


def write_csv(path, header: str, rows):
    rows = sorted(rows)
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(row + "\n")


# -- core runs --

def run_setup(cfg: ExperimentConfig, seed: int, n_clients=None, threshold=None,
              keep_key=False):
    scfg = cfg.shamir_cfg(n_clients, threshold)
    codecs = cfg.codecs()
    d = cfg.shape().dim
    if cfg.setup_mode == "dealer":
        return setup_trusted_dealer(scfg, d, rng_from_key(seed, "setup"),
                                    codecs=codecs, keep_key=keep_key)
    return setup_dkg(scfg, d, master_rng=rng_from_key(seed, "setup"),
                     codecs=codecs, keep_contributions=keep_key)


def run_watermarked(cfg: ExperimentConfig, seed: int, c=None, n_clients=None,
                    threshold=None, rounds=None, n_samples=None,
                    batch_size=None, keep_key=False):
    """One full watermarked FL run; returns (setup, dataset, trajectory)."""
    K = n_clients or cfg.n_clients
    t = threshold or min(cfg.threshold, K)
    setup = run_setup(cfg, seed, n_clients=K, threshold=t, keep_key=keep_key)
    dataset = cfg.dataset(seed, n=n_samples, n_clients=K)
    params = cfg.protocol_params(c=c)
    if batch_size is not None:
        params.batch_size = batch_size
    trajectory = run_protocol(
        setup, dataset, cfg.shape(), params,
        rounds=rounds or cfg.rounds, master_seed=seed,
    )
    return setup, dataset, trajectory


def run_plain_fedavg(cfg: ExperimentConfig, seed: int, rounds: int = None,
                     n_samples=None, n_clients=None, batch_size=None):
    """Watermark-free FedAvg in the real domain (used for calibration models)."""
    K = n_clients or cfg.n_clients
    dataset = cfg.dataset(seed, n=n_samples, n_clients=K)
    shape = cfg.shape()
    theta = init_model(shape, rng_from_key(seed, "init"))
    bs = batch_size or cfg.batch_size
    for r in range(1, (rounds or cfg.rounds) + 1):
        locals_ = []
        for k in range(1, K + 1):
            X, y = dataset.shard(k - 1)
            rng = rng_from_key(seed, "local_train", k, r)
            locals_.append(local_train(theta, X, y, shape, rng,
                                       epochs=cfg.local_epochs, batch_size=bs,
                                       opt=cfg.optimizer()))
        theta = np.mean(locals_, axis=0)
    return dataset, theta


def make_coalition_verifier(cfg: ExperimentConfig, setup, calib: CalibrationTable):
    """Verification closure through the coalition path with the first t shares."""
    codecs = cfg.codecs()
    coalition = setup.shares[:setup.cfg.threshold]

    def verifier(theta: np.ndarray) -> VerificationReport:
        enc = codecs.share.encode(theta)
        partials = [partial_inner(s, enc, codecs.share) for s in coalition]
        return coalition_statistic(
            partials, theta, setup.public_norm, calib, setup.cfg, codecs,
            z_star=cfg.z_star,
        )

    return verifier


# -- commands --

def cmd_calibrate(cfg: ExperimentConfig, outdir=None) -> CalibrationTable:
    """Train unwatermarked models, pool cosine null samples, persist table."""
    if cfg.calib_models < 2:
        raise ConfigurationError("calibration needs at least 2 models")
    models = []
    for i in range(cfg.calib_models):
        _, theta = run_plain_fedavg(cfg, seed=10_000 + i, rounds=cfg.calib_rounds)
        models.append(theta)
    table = calibrate(models, cfg.calib_keys, rng_from_key("calibration-keys"),
                      fingerprint=model_fingerprint(cfg.shape()))
    if outdir:
        os.makedirs(outdir, exist_ok=True)
        table.save(os.path.join(outdir, "calibration.txt"))
    return table


def cmd_train(cfg: ExperimentConfig, outdir, seed: int = None):
    """Watermarked runs for each seed; persists trajectory, shares, manifest,
    metrics CSV. Returns per-seed (setup, dataset, trajectory)."""
    seeds = [seed] if seed is not None else list(cfg.seeds)
    shape = cfg.shape()
    results = {}
    for s in seeds:
        setup, dataset, trajectory = run_watermarked(cfg, s)
        rundir = os.path.join(outdir, f"run_seed{s}")
        os.makedirs(os.path.join(rundir, "shares"), exist_ok=True)
        save_trajectory(trajectory, shape, os.path.join(rundir, "trajectory"))
        save_model(trajectory[-1].theta, shape, trajectory[-1].round_index,
                   os.path.join(rundir, "model_final.bin"))
        for share in setup.shares:
            save_share(share, setup,
                       os.path.join(rundir, "shares", f"client_{share.point}.share"))
        write_manifest(cfg, s, setup, os.path.join(rundir, "manifest.txt"))
        rows = [
            f"{cfg.config_hash()},{s},{gm.round_index},"
            f"{evaluate(gm.theta, dataset.X_test, dataset.y_test, shape):.6f}"
            for gm in trajectory
        ]
        write_csv(os.path.join(rundir, "metrics.csv"),
                  "config_hash,seed,round,test_accuracy", rows)
        results[s] = (setup, dataset, trajectory)
    return results


def cmd_verify(model_path, share_paths, calib_path,
               z_star: float = None) -> tuple:
    """Returns (report, exit_code 0 accept / 1 reject); raises on error
    conditions (< t shares, fingerprint mismatch), which the CLI maps to
    exit code 2."""
    theta, shape, _ = load_model(model_path)
    calib = CalibrationTable.load(calib_path)
    if calib.fingerprint and calib.fingerprint != model_fingerprint(shape):
        raise FingerprintMismatchError(
            f"calibration fingerprint {calib.fingerprint!r} does not match "
            f"model {model_fingerprint(shape)!r}"
        )
    shares, headers = [], []
    for p in share_paths:
        share, hdr = load_share(p)
        shares.append(share)
        headers.append(hdr)
    if len({tuple(sorted(h.items())) for h in headers}) != 1:
        raise ConfigurationError("share files disagree on protocol parameters")
    hdr = headers[0]
    codecs = ProtocolCodecs(
        params=FieldParams(hdr["modulus"]),
        f_share=hdr["f_share"],
        g_scale=hdr["f_share"],  # only the share codec matters here
        f_model=2 * hdr["f_share"],
    )
    scfg = ShamirConfig(n_clients=hdr["n_clients"], threshold=hdr["threshold"],
                        params=FieldParams(hdr["modulus"]))
    enc = codecs.share.encode(theta)
    partials = [partial_inner(s, enc, codecs.share) for s in shares]
    report = coalition_statistic(
        partials, theta, hdr["public_norm"], calib, scfg, codecs,
        z_star=z_star if z_star is not None else 4.0,
    )
    return report, (0 if report.accepted else 1)


def cmd_scalability(cfg: ExperimentConfig, calib: CalibrationTable, outdir=None,
                    seeds=None):
    """Threshold vs per-client baseline across the K sweep.

    Sweep runs use the reduced sweep_* budget with the per-client shard
    size held fixed, so the data volume grows with K as it would in a
    real federation. Returns a dict with per-K records and the fitted
    baseline decay exponent of z vs K.
    """
    seeds = list(seeds if seeds is not None else cfg.seeds)
    shape = cfg.shape()
    rows, records = [], []
    for K in cfg.k_sweep:
        # threshold = K//2 for the sweep, mirroring the K=32/t=16 ratio
        t = max(2, K // 2)
        n_samples = cfg.sweep_samples_per_client * K
        for s in seeds:
            setup, dataset, trajectory = run_watermarked(
                cfg, s, n_clients=K, threshold=t, rounds=cfg.sweep_rounds,
                n_samples=n_samples, batch_size=cfg.sweep_batch,
            )
            verifier = make_coalition_verifier(cfg, setup, calib)
            rep = verifier(trajectory[-1].theta)
            acc = evaluate(trajectory[-1].theta, dataset.X_test, dataset.y_test, shape)

            base_params = cfg.protocol_params(c=cfg.baseline_c)
            base_params.batch_size = cfg.sweep_batch
            base_traj, base_keys = run_baseline(
                dataset, shape, base_params, K,
                rounds=cfg.sweep_rounds, master_seed=s, codecs=cfg.codecs(),
            )
            theta_b = base_traj[-1].theta
            cos = cosine_against_keys(theta_b, np.stack(base_keys))
            z_best = float(((cos - calib.mu) / calib.sigma).max())
            acc_b = evaluate(theta_b, dataset.X_test, dataset.y_test, shape)

            records.append({"K": K, "seed": s, "z_threshold": rep.z,
                            "acc_threshold": acc, "z_baseline": z_best,
                            "acc_baseline": acc_b})
            rows.append(f"{cfg.config_hash()},{K},{s},threshold,{rep.z:.6g},{acc:.6f}")
            rows.append(f"{cfg.config_hash()},{K},{s},baseline,{z_best:.6g},{acc_b:.6f}")
    ks = np.array([r["K"] for r in records], dtype=float)
    zb = np.array([max(r["z_baseline"], 1e-9) for r in records])
    slope = float(np.polyfit(np.log(ks), np.log(zb), 1)[0])
    if outdir:
        os.makedirs(outdir, exist_ok=True)
        write_csv(os.path.join(outdir, "scalability.csv"),
                  "config_hash,K,seed,method,z,test_accuracy", rows)
        with open(os.path.join(outdir, "scalability_summary.txt"), "w") as fh:
            fh.write(f"baseline_decay_exponent = {slope!r}\n")
            fh.write(f"z_star = {cfg.z_star!r}\n")
    return {"records": records, "baseline_decay_exponent": slope}


def cmd_fidelity(cfg: ExperimentConfig, calib: CalibrationTable, outdir=None,
                 seeds=None, sweep_budget: bool = False):
    """Accuracy and z across the watermark-strength sweep."""
    seeds = list(seeds if seeds is not None else cfg.seeds)
    shape = cfg.shape()
    rows, records = [], []
    run_kwargs = {}
    if sweep_budget:
        run_kwargs = dict(rounds=cfg.sweep_rounds, n_samples=cfg.sweep_samples,
                          batch_size=cfg.sweep_batch)
    for c in cfg.c_sweep:
        for s in seeds:
            setup, dataset, trajectory = run_watermarked(cfg, s, c=c, **run_kwargs)
            verifier = make_coalition_verifier(cfg, setup, calib)
            rep = verifier(trajectory[-1].theta)
            acc = evaluate(trajectory[-1].theta, dataset.X_test, dataset.y_test, shape)
            records.append({"c": c, "seed": s, "z": rep.z, "accuracy": acc})
            rows.append(f"{cfg.config_hash()},{c},{s},{rep.z:.6g},{acc:.6f}")
    summary = {}
    for c in cfg.c_sweep:
        zs = [r["z"] for r in records if r["c"] == c]
        accs = [r["accuracy"] for r in records if r["c"] == c]
        summary[c] = {"z_mean": float(np.mean(zs)), "z_std": float(np.std(zs)),
                      "acc_mean": float(np.mean(accs)), "acc_std": float(np.std(accs))}
    if outdir:
        os.makedirs(outdir, exist_ok=True)
        write_csv(os.path.join(outdir, "fidelity.csv"),
                  "config_hash,c,seed,z,test_accuracy", rows)
        with open(os.path.join(outdir, "fidelity_summary.txt"), "w") as fh:
            for c, s in summary.items():
                fh.write(f"c={c}: z = {s['z_mean']:.4g} +- {s['z_std']:.4g}, "
                         f"accuracy = {s['acc_mean']:.4f} +- {s['acc_std']:.4f}\n")
    return {"records": records, "summary": summary}


def _attack_jobs(cfg: ExperimentConfig):
    """The attack grid as (kind, params dict) jobs, deterministic order."""
    jobs = []
    for kind in cfg.attack_kinds:
        if kind == "finetune":
            for p in cfg.attack_fractions:
                jobs.append((kind, {"data_fraction": p}))
        elif kind == "adaptive_finetune":
            for p in cfg.attack_fractions:
                for a in cfg.attack_alphas:
                    jobs.append((kind, {"data_fraction": p, "alpha": a}))
        elif kind in ("prune_magnitude", "prune_structured"):
            for ratio in cfg.prune_ratios:
                jobs.append((kind, {"prune_ratio": ratio}))
        elif kind == "quantize":
            for scheme in cfg.quant_schemes:
                jobs.append((kind, {"quant_scheme": scheme}))
        elif kind == "distill":
            for p in cfg.attack_fractions:
                jobs.append((kind, {"data_fraction": p}))
        else:
            raise ConfigurationError(f"unknown attack kind {kind!r}")
    return jobs


def run_attack_job(kind: str, acfg: attacks.AttackConfig, theta, trajectory,
                   dataset, shape: MlpShape):
    """Returns a list of (step, theta) checkpoints for the attacked model."""
    if kind == "finetune":
        return attacks.attack_finetune(theta, dataset, shape, acfg)
    if kind == "adaptive_finetune":
        key = attacks.estimate_key(trajectory)
        return attacks.attack_adaptive_finetune(theta, dataset, shape, key, acfg)
    if kind == "prune_magnitude":
        return [(0, attacks.attack_prune(theta, shape, acfg.prune_ratio, "magnitude"))]
    if kind == "prune_structured":
        return [(0, attacks.attack_prune(theta, shape, acfg.prune_ratio, "structured"))]
    if kind == "quantize":
        return [(0, attacks.attack_quantize(theta, shape, acfg.quant_scheme))]
    if kind == "distill":
        return attacks.attack_distill(theta, dataset, shape, acfg)
    raise ConfigurationError(f"unknown attack kind {kind!r}")


def cmd_robustness(cfg: ExperimentConfig, setup, dataset, trajectory,
                   calib: CalibrationTable, outdir=None, epoch_stride: int = 10):
    """Run the attack grid on a completed watermarked run.

    Every checkpoint is measured through the coalition verification path
    (never the debug path). Returns records plus per-budget Pareto fronts.
    """
    shape = cfg.shape()
    theta = trajectory[-1].theta
    verifier = make_coalition_verifier(cfg, setup, calib)
    rows, records = [], []
    run_id = cfg.config_hash()
    for kind, params in _attack_jobs(cfg):
        acfg = attacks.AttackConfig(
            kind=kind, epochs=cfg.attack_epochs, batch_size=cfg.attack_batch,
            optimizer=cfg.optimizer(), **params,
        )
        checkpoints = run_attack_job(kind, acfg, theta, trajectory, dataset, shape)
        keep = [cp for i, cp in enumerate(checkpoints)
                if i % epoch_stride == 0 or i == len(checkpoints) - 1]
        param_str = ";".join(f"{k}={v}" for k, v in sorted(params.items()))
        for step, th in keep:
            rep = verifier(th)
            acc = evaluate(th, dataset.X_test, dataset.y_test, shape)
            decision = "accept" if rep.accepted else "reject"
            records.append({"kind": kind, **params, "step": step,
                            "accuracy": acc, "z": rep.z})
            rows.append(f"{run_id},{kind},{param_str},{step},"
                        f"{acc:.6f},{rep.z:.6g},{decision}")
    fronts = {}
    for p in cfg.attack_fractions:
        pts = [(r["accuracy"], r["z"]) for r in records
               if r.get("data_fraction") == p]
        if pts:
            fronts[p] = attacks.pareto_frontier(pts)
    if outdir:
        os.makedirs(outdir, exist_ok=True)
        write_csv(os.path.join(outdir, "robustness.csv"),
                  "run_id,attack,params,step,test_accuracy,z,decision", rows)
        with open(os.path.join(outdir, "robustness_summary.txt"), "w") as fh:
            fh.write(f"z_threshold_line = {cfg.z_star!r}\n")
            for p, front in sorted(fronts.items()):
                fh.write(f"pareto_frontier_p={p}: {front!r}\n")
    return {"records": records, "pareto": fronts}


def load_run(cfg: ExperimentConfig, rundir):
    """Reload a persisted training run: (setup-like object, dataset, trajectory)."""
    import glob as _glob
    from types import SimpleNamespace

    share_paths = sorted(_glob.glob(os.path.join(rundir, "shares", "*.share")))
    shares, hdr = [], None
    for p in share_paths:
        share, hdr = load_share(p)
        shares.append(share)
    scfg = ShamirConfig(n_clients=hdr["n_clients"], threshold=hdr["threshold"],
                        params=FieldParams(hdr["modulus"]))
    setup = SimpleNamespace(cfg=scfg, shares=shares,
                            public_norm=hdr["public_norm"], codecs=cfg.codecs())
    seed = None
    with open(os.path.join(rundir, "manifest.txt")) as fh:
        for line in fh:
            if line.startswith("seed"):
                seed = int(line.split("=")[1])
    dataset = cfg.dataset(seed)
    trajectory = load_trajectory(os.path.join(rundir, "trajectory"))
    return setup, dataset, trajectory


def cmd_attack(cfg: ExperimentConfig, rundir, calib: CalibrationTable,
               kind: str, outdir=None, epoch_stride: int = 10, **params):
    """One attack job against a persisted run, verified via the coalition path."""
    setup, dataset, trajectory = load_run(cfg, rundir)
    shape = cfg.shape()
    acfg = attacks.AttackConfig(
        kind=kind, epochs=cfg.attack_epochs, batch_size=cfg.attack_batch,
        optimizer=cfg.optimizer(), **params,
    )
    checkpoints = run_attack_job(kind, acfg, trajectory[-1].theta, trajectory,
                                 dataset, shape)
    verifier = make_coalition_verifier(cfg, setup, calib)
    rows, records = [], []
    param_str = ";".join(f"{k}={v}" for k, v in sorted(params.items()))
    keep = [cp for i, cp in enumerate(checkpoints)
            if i % epoch_stride == 0 or i == len(checkpoints) - 1]
    for step, th in keep:
        rep = verifier(th)
        acc = evaluate(th, dataset.X_test, dataset.y_test, shape)
        decision = "accept" if rep.accepted else "reject"
        records.append({"kind": kind, **params, "step": step,
                        "accuracy": acc, "z": rep.z})
        rows.append(f"{cfg.config_hash()},{kind},{param_str},{step},"
                    f"{acc:.6f},{rep.z:.6g},{decision}")
    if outdir:
        os.makedirs(outdir, exist_ok=True)
        write_csv(os.path.join(outdir, f"attack_{kind}.csv"),
                  "run_id,attack,params,step,test_accuracy,z,decision", rows)
    return records


def cmd_report(outdir):
    """Digest the CSVs in outdir into a text summary plus plain coordinate
    exports (plotting itself is left to external tooling)."""
    lines = ["# experiment report"]
    exports = []
    for name in sorted(os.listdir(outdir)):
        if not name.endswith(".csv"):
            continue
        path = os.path.join(outdir, name)
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            rows = [line.strip().split(",") for line in fh if line.strip()]
        lines.append(f"{name}: {len(rows)} rows, columns {header}")
        # export any (x, y) numeric pair ending in z vs accuracy coordinates
        if "z" in header and "test_accuracy" in header:
            zi, ai = header.index("z"), header.index("test_accuracy")
            coords = [(float(r[ai]), float(r[zi])) for r in rows]
            export = os.path.join(outdir, name.replace(".csv", "_points.txt"))
            with open(export, "w") as fh:
                fh.write("accuracy z\n")
                for a, z in sorted(coords):
                    fh.write(f"{a:.6f} {z:.6g}\n")
            exports.append(export)
    report_path = os.path.join(outdir, "report.txt")
    with open(report_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return report_path, exports
