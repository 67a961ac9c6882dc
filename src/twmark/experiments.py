"""Experiment orchestration: configuration, runs, sweeps, files, reports.

A watermarked run is a function of (ExperimentConfig, seed); sweep points
run derived configs (dataclasses.replace) and a run directory keeps the
config it ran (config.txt). CSV rows carry the command's config hash and all
randomness is seeded, so a re-run yields byte-identical CSV bodies.
"""

import glob
import hashlib
import itertools
import os
from dataclasses import dataclass, fields as dc_fields, replace

import numpy as np

from . import attacks
from .binfile import Format
from .errors import ConfigurationError, DegenerateModelError, FingerprintMismatchError
from .field import FieldParams, FixedPointCodec, ProtocolCodecs, check_aggregate_bound
from .flsim import AdamWParams, MlpShape, evaluate, gen_dataset, init_model
from .keysetup import (
    SetupResult,
    load_shares,
    save_share,
    setup_dkg,
    setup_trusted_dealer,
)
from .literals import file_lines, literal_text, read_literals
from .protocol import (
    ClientState,
    GlobalModel,
    ProtocolParams,
    default_train_fn,
    run_baseline,
    run_protocol,
)
from .rngutil import rng_from_key
from .sharing import ShamirConfig
from .verify import (
    Z_STAR_DEFAULT,
    CalibrationTable,
    Coalition,
    VerificationReport,
    calibrate,
    coalition_statistic,
    cosine_against_keys,
    model_fingerprint,
    partial_inner,
)

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
    z_star: float = Z_STAR_DEFAULT
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
    k_sweep: tuple[int, ...] = (4, 8, 16, 32, 64, 128)
    c_sweep: tuple[float, ...] = (0.0, 0.025, 0.05, 0.075, 0.1)
    sweep_rounds: int = 30
    sweep_samples: int = 5120
    sweep_samples_per_client: int = 160   # K sweep: shard size held fixed
    sweep_batch: int = 32
    # attacks
    attack_kinds: tuple[str, ...] = ("finetune", "adaptive_finetune", "prune_magnitude",
                                     "prune_structured", "quantize", "distill")
    attack_fractions: tuple[float, ...] = (0.01, 0.05, 0.10, 0.20)
    attack_epochs: int = 100
    attack_alphas: tuple[float, ...] = (0.1, 0.3, 0.5, 0.7)
    prune_ratios: tuple[float, ...] = (0.3, 0.5, 0.7, 0.9)
    quant_schemes: tuple[str, ...] = ("static8", "static4", "dynamic8")
    attack_batch: int = 128
    # bookkeeping
    seeds: tuple[int, ...] = (0, 1, 2)
    output_dir: str = "out"

    def __post_init__(self):
        if self.threshold > self.n_clients:
            raise ConfigurationError("threshold t must not exceed K")
        if self.setup_mode not in ("dealer", "dkg"):
            raise ConfigurationError("setup_mode must be 'dealer' or 'dkg'")
        for kind in self.attack_kinds:
            _attack(kind)
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
        )

    def optimizer(self) -> AdamWParams:
        return AdamWParams(lr=self.lr, weight_decay=self.weight_decay,
                           beta1=self.adam_beta1, beta2=self.adam_beta2)

    def protocol_params(self) -> ProtocolParams:
        return ProtocolParams(
            strength_c=self.strength_c,
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
        return literal_text((f.name, getattr(self, f.name)) for f in dc_fields(self))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()[:16]

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(self.canonical_text())

    @classmethod
    def from_file(cls, path, overrides=()) -> "ExperimentConfig":
        values = {**read_literals(file_lines(path), _CONFIG_TYPES), **_set_items(overrides)}
        try:
            return cls(**values)
        except ConfigurationError as exc:
            raise ConfigurationError(f"{path}: {exc}") from None

    @classmethod
    def with_overrides(cls, values: dict, overrides=()) -> "ExperimentConfig":
        return cls(**{**values, **_set_items(overrides)})


_CONFIG_TYPES = {f.name: f.type for f in dc_fields(ExperimentConfig)}


def _set_items(overrides) -> dict:
    """Config values from `--set key=value` items."""
    return read_literals(((f"--set {item!r}", item) for item in overrides), _CONFIG_TYPES)


# -- model / trajectory files --

# input_dim, hidden, n_classes, round index; then the dim float64 words of theta
_MODEL_FILE = Format("TWMODEL2", "<IIIQ", lambda hdr: MlpShape(*hdr[:3]).dim)


def save_model(theta: np.ndarray, shape: MlpShape, round_index: int, path):
    _MODEL_FILE.write(path, (shape.input_dim, shape.hidden, shape.n_classes, round_index),
                      np.asarray(theta, dtype="<f8").tobytes())


def load_model(path):
    (m, h, G, r), words = _MODEL_FILE.read(path)
    return np.frombuffer(words, dtype="<f8").copy(), MlpShape(m, h, G), r


def save_trajectory(trajectory, shape: MlpShape, dirpath):
    os.makedirs(dirpath, exist_ok=True)
    for gm in trajectory:
        save_model(gm.theta, shape, gm.round_index,
                   os.path.join(dirpath, f"round_{gm.round_index:05d}.bin"))


def load_trajectory(dirpath):
    names = sorted(n for n in os.listdir(dirpath) if n.startswith("round_"))
    models = (load_model(os.path.join(dirpath, n)) for n in names)
    return [GlobalModel(theta=theta, round_index=r) for theta, _, r in models]


# the keys of a run manifest (its config is config.txt), in file order, with types
_MANIFEST_TYPES = {"seed": int, "commitment_nonce": str, "commitment_digest": str}


def write_manifest(seed: int, setup, path):
    pairs = [("seed", seed)]
    if setup.commitment is not None:
        pairs += [("commitment_nonce", setup.commitment.nonce.hex()),
                  ("commitment_digest", setup.commitment.digest.hex())]
    with open(path, "w") as fh:
        fh.write(literal_text(pairs))


def write_csv(path, header: str, rows):
    rows = sorted(rows)
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(row + "\n")


# -- core runs --

def run_setup(cfg: ExperimentConfig, seed: int, n_clients=None, threshold=None,
              keep_key=False):
    scfg = ShamirConfig(n_clients or cfg.n_clients, threshold or cfg.threshold,
                        FieldParams(cfg.modulus))
    setup = setup_trusted_dealer if cfg.setup_mode == "dealer" else setup_dkg
    return setup(scfg, cfg.shape().dim, rng_from_key(seed, "setup"),
                 codecs=cfg.codecs(), keep_key=keep_key)


def run_watermarked(cfg: ExperimentConfig, seed: int):
    """One full watermarked FL run of ``cfg``; returns (setup, dataset, trajectory)."""
    setup = run_setup(cfg, seed)
    dataset = cfg.dataset(seed)
    trajectory = run_protocol(setup, dataset, cfg.shape(), cfg.protocol_params(),
                              rounds=cfg.rounds, master_seed=seed)
    return setup, dataset, trajectory


def run_plain_fedavg(cfg: ExperimentConfig, seed: int, rounds: int):
    """Watermark-free FedAvg in the real domain (used for calibration models);
    clients train as in run_protocol, their models are averaged with np.mean."""
    dataset = cfg.dataset(seed)
    train = default_train_fn(dataset, cfg.shape(), cfg.protocol_params(), seed)
    clients = [ClientState(client_id=k) for k in range(1, cfg.n_clients + 1)]
    theta = init_model(cfg.shape(), rng_from_key(seed, "init"))
    for r in range(1, rounds + 1):
        theta = np.mean([train(st, theta, r) for st in clients], axis=0)
    return dataset, theta


def _coalition_verifier(shares, scfg: ShamirConfig, codec: FixedPointCodec,
                        calib: CalibrationTable, z_star: float):
    """The one coalition verification path: stack the shares once, then per
    model encode it once at the share codec, take the coalition's partial
    inner products in one call and combine them. The shares must have the
    f_share and d the calibration table was made for."""
    if (codec.frac_bits, len(shares[0])) != (calib.f_share, calib.dim):
        raise ConfigurationError(f"shares have f_share {codec.frac_bits}, d {len(shares[0])}; "
                                 f"the calibration table {calib.f_share}, {calib.dim}")
    coalition = Coalition.of(shares)

    def verifier(theta: np.ndarray) -> VerificationReport:
        partials = partial_inner(coalition, theta, codec)
        return coalition_statistic(partials, theta, calib, scfg, codec.frac_bits,
                                   z_star=z_star)

    return verifier


def make_coalition_verifier(cfg: ExperimentConfig, setup, calib: CalibrationTable):
    """Verification closure through the coalition path with the first t shares,
    at the shares' own codec; ``cfg`` supplies z*."""
    return _coalition_verifier(setup.shares[:setup.cfg.threshold], setup.cfg,
                               setup.codecs.share, calib, cfg.z_star)


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
                      fingerprint=model_fingerprint(cfg.shape()), f_share=cfg.f_share)
    if outdir:
        os.makedirs(outdir, exist_ok=True)
        table.save(os.path.join(outdir, "calibration.txt"))
    return table


def cmd_train(cfg: ExperimentConfig, outdir, seed: int = None):
    """Watermarked runs for each seed; persists trajectory, shares, config,
    manifest, metrics CSV. Returns per-seed (setup, dataset, trajectory)."""
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
        cfg.save(os.path.join(rundir, "config.txt"))
        write_manifest(s, setup, os.path.join(rundir, "manifest.txt"))
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
               z_star: float = Z_STAR_DEFAULT) -> tuple:
    """Returns (report, exit_code 0 accept / 1 reject); raises on error
    conditions (< t shares, fingerprint mismatch, a malformed file), which
    the CLI maps to exit code 2. The key norm is sqrt(d), never read from files."""
    theta, shape, _ = load_model(model_path)
    calib = CalibrationTable.load(calib_path)
    if calib.fingerprint != model_fingerprint(shape):
        raise FingerprintMismatchError(f"{calib_path}: fingerprint {calib.fingerprint!r} is "
                                       f"not the {model_fingerprint(shape)!r} of {model_path}")
    shares, hdr, scfg = load_shares(share_paths)
    try:
        codec = FixedPointCodec(hdr["f_share"], scfg.params)
        verifier = _coalition_verifier(shares, scfg, codec, calib, z_star)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{share_paths[0]}: {exc}") from None
    try:
        report = verifier(theta)
    except (ConfigurationError, DegenerateModelError) as exc:
        raise ConfigurationError(f"{model_path}: {exc}") from None
    return report, (0 if report.accepted else 1)


def cmd_scalability(cfg: ExperimentConfig, calib: CalibrationTable, outdir=None,
                    seeds=None):
    """Threshold vs per-client baseline across the K sweep.

    Sweep runs use the reduced sweep_* budget with the per-client shard
    size held fixed, so the data volume grows with K as it would in a
    real federation. The overflow bound is checked at every K before any
    run starts. Returns a dict with per-K records and the fitted baseline
    decay exponent of z vs K; rows carry ``cfg``'s config hash.
    """
    seeds = list(seeds if seeds is not None else cfg.seeds)
    shape = cfg.shape()
    for K in cfg.k_sweep:
        # the baseline adds K keys at up to scale_max each, a stricter bound
        # than the threshold run's one scale_max term
        try:
            check_aggregate_bound(shape.dim, K, cfg.theta_max, K * cfg.scale_max,
                                  cfg.codecs()).raise_if_failed()
        except ConfigurationError as exc:
            raise ConfigurationError(f"k_sweep K={K}: {exc}") from None
    sweep = replace(cfg, batch_size=cfg.sweep_batch)
    params = sweep.protocol_params()
    base_params = replace(sweep, strength_c=cfg.baseline_c).protocol_params()
    rows, records = [], []
    for K in cfg.k_sweep:
        # threshold = K//2 for the sweep, mirroring the K=32/t=16 ratio
        t = max(2, K // 2)
        for s in seeds:
            setup = run_setup(cfg, s, n_clients=K, threshold=t)
            dataset = cfg.dataset(s, n=cfg.sweep_samples_per_client * K, n_clients=K)
            trajectory = run_protocol(setup, dataset, shape, params,
                                      rounds=cfg.sweep_rounds, master_seed=s)
            verifier = make_coalition_verifier(cfg, setup, calib)
            rep = verifier(trajectory[-1].theta)
            acc = evaluate(trajectory[-1].theta, dataset.X_test, dataset.y_test, shape)

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
            fh.write(literal_text([("baseline_decay_exponent", slope),
                                   ("z_star", cfg.z_star)]))
    return {"records": records, "baseline_decay_exponent": slope}


def cmd_fidelity(cfg: ExperimentConfig, calib: CalibrationTable, outdir=None,
                 sweep_budget: bool = False):
    """Accuracy and z across the watermark-strength sweep: ``cfg`` at each c (with
    sweep_budget, at the sweep_* rounds, samples and batch); rows carry its hash."""
    shape = cfg.shape()
    rows, records = [], []
    budget = dict(rounds=cfg.sweep_rounds, n_samples=cfg.sweep_samples,
                  batch_size=cfg.sweep_batch) if sweep_budget else {}
    for c in cfg.c_sweep:
        point = replace(cfg, strength_c=c, **budget)
        for s in cfg.seeds:
            setup, dataset, trajectory = run_watermarked(point, s)
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


_FRACTIONS = {"data_fraction": "attack_fractions"}
_RATIOS = {"prune_ratio": "prune_ratios"}

# attack kind -> (its grid: each AttackConfig field it varies and the
# ExperimentConfig tuple of its values, the first varied slowest; its run:
# (acfg, theta, trajectory, dataset, shape) -> [(step, theta)] checkpoints)
_ATTACKS = {
    "finetune": (_FRACTIONS, lambda a, th, tr, ds, sh:
                 attacks.attack_finetune(th, ds, sh, a)),
    "adaptive_finetune": ({**_FRACTIONS, "alpha": "attack_alphas"},
                          lambda a, th, tr, ds, sh: attacks.attack_adaptive_finetune(
                              th, ds, sh, attacks.estimate_key(tr), a)),
    "prune_magnitude": (_RATIOS, lambda a, th, tr, ds, sh:
                        [(0, attacks.attack_prune(th, sh, a.prune_ratio, "magnitude"))]),
    "prune_structured": (_RATIOS, lambda a, th, tr, ds, sh:
                         [(0, attacks.attack_prune(th, sh, a.prune_ratio, "structured"))]),
    "quantize": ({"quant_scheme": "quant_schemes"}, lambda a, th, tr, ds, sh:
                 [(0, attacks.attack_quantize(th, sh, a.quant_scheme))]),
    "distill": (_FRACTIONS, lambda a, th, tr, ds, sh:
                attacks.attack_distill(th, ds, sh, a)),
}

# training attacks verify every _EPOCH_STRIDE-th checkpoint and the last
_EPOCH_STRIDE = 10


def _attack(kind: str):
    """The _ATTACKS entry of ``kind``; an unknown kind is a ConfigurationError."""
    if kind not in _ATTACKS:
        raise ConfigurationError(f"unknown attack kind {kind!r}")
    return _ATTACKS[kind]


def _attack_jobs(cfg: ExperimentConfig):
    """The attack grid as (kind, params dict) jobs, deterministic order."""
    jobs = []
    for kind in cfg.attack_kinds:
        grid = _attack(kind)[0]
        for values in itertools.product(*(getattr(cfg, field) for field in grid.values())):
            jobs.append((kind, dict(zip(grid, values))))
    return jobs


def run_attack_job(kind: str, acfg: attacks.AttackConfig, theta, trajectory,
                   dataset, shape: MlpShape):
    """Returns a list of (step, theta) checkpoints for the attacked model."""
    return _attack(kind)[1](acfg, theta, trajectory, dataset, shape)


def _attack_and_verify(cfg: ExperimentConfig, verifier, kind: str, params: dict,
                       trajectory, dataset, run_id: str):
    """One attack job on the final model of ``trajectory``; every
    _EPOCH_STRIDE-th checkpoint and the last go through ``verifier``.
    Returns (records, CSV rows), the rows tagged ``run_id``, the hash of
    the run's config."""
    shape = cfg.shape()
    acfg = attacks.AttackConfig(
        epochs=cfg.attack_epochs, batch_size=cfg.attack_batch,
        optimizer=cfg.optimizer(), **params,
    )
    checkpoints = run_attack_job(kind, acfg, trajectory[-1].theta, trajectory,
                                 dataset, shape)
    keep = [cp for i, cp in enumerate(checkpoints)
            if i % _EPOCH_STRIDE == 0 or i == len(checkpoints) - 1]
    param_str = ";".join(f"{k}={v}" for k, v in sorted(params.items()))
    records, rows = [], []
    for step, th in keep:
        rep = verifier(th)
        acc = evaluate(th, dataset.X_test, dataset.y_test, shape)
        decision = "accept" if rep.accepted else "reject"
        records.append({"kind": kind, **params, "step": step,
                        "accuracy": acc, "z": rep.z})
        rows.append(f"{run_id},{kind},{param_str},{step},"
                    f"{acc:.6f},{rep.z:.6g},{decision}")
    return records, rows


def cmd_robustness(cfg: ExperimentConfig, setup, dataset, trajectory,
                   calib: CalibrationTable, outdir=None, run_id=None):
    """Run the attack grid on a completed watermarked run.

    Every checkpoint is measured through the coalition verification path
    (never the debug path). Rows carry ``run_id``, the hash of the run's
    config, which defaults to ``cfg``'s. Returns records plus per-budget
    Pareto fronts.
    """
    if run_id is None:
        run_id = cfg.config_hash()
    verifier = make_coalition_verifier(cfg, setup, calib)
    rows, records = [], []
    for kind, params in _attack_jobs(cfg):
        job_records, job_rows = _attack_and_verify(
            cfg, verifier, kind, params, trajectory, dataset, run_id)
        records += job_records
        rows += job_rows
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
            fh.write(literal_text([("z_threshold_line", cfg.z_star)]))
            for p, front in sorted(fronts.items()):
                fh.write(f"pareto_frontier_p={p}: {front!r}\n")
    return {"records": records, "pareto": fronts}


def read_run(rundir):
    """Reload a persisted training run: (the ExperimentConfig it was
    trained with, SetupResult, dataset, trajectory).

    The run's config.txt, checked against the share headers, rebuilds the
    dataset and the codecs. The commitment and the DKG overhead record are
    not persisted."""
    shares, hdr, scfg = load_shares(
        sorted(glob.glob(os.path.join(rundir, "shares", "*.share"))))
    config = os.path.join(rundir, "config.txt")
    run_cfg = ExperimentConfig.from_file(config)
    for key in ("modulus", "f_share", "n_clients", "threshold"):
        if getattr(run_cfg, key) != hdr[key]:
            raise ConfigurationError(f"{config}: {key} {getattr(run_cfg, key)}, "
                                     f"the share files {hdr[key]}")
    setup = SetupResult(cfg=scfg, codecs=run_cfg.codecs(), shares=shares,
                        setup_id=bytes.fromhex(hdr["setup_id"]))
    manifest = os.path.join(rundir, "manifest.txt")
    seed = read_literals(file_lines(manifest), _MANIFEST_TYPES).get("seed")
    if seed is None:
        raise ConfigurationError(f"{manifest}: no integer seed line")
    dataset = run_cfg.dataset(seed)
    trajectory = load_trajectory(os.path.join(rundir, "trajectory"))
    return run_cfg, setup, dataset, trajectory


def load_run(cfg: ExperimentConfig, rundir):
    """(SetupResult, dataset, trajectory) of read_run; ``cfg`` is not read."""
    return read_run(rundir)[1:]


def cmd_attack(cfg: ExperimentConfig, rundir, calib: CalibrationTable,
               kind: str, outdir=None, **params):
    """One attack job against a persisted run, verified via the coalition
    path; rows carry the hash of the run's own config."""
    _attack(kind)
    run_cfg, setup, dataset, trajectory = read_run(rundir)
    verifier = make_coalition_verifier(cfg, setup, calib)
    records, rows = _attack_and_verify(cfg, verifier, kind, params, trajectory, dataset,
                                       run_cfg.config_hash())
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
