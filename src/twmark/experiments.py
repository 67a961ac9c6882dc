"""Experiment orchestration: configuration, runs, sweeps, files, reports.

A watermarked run is a function of (ExperimentConfig, seed); sweep points
run derived configs (dataclasses.replace) and a run directory keeps the
config it ran (config.txt), as which a command on the run runs. CSV rows carry
a config hash and all randomness is seeded, so a re-run yields byte-identical
CSV bodies.
"""

import glob
import hashlib
import itertools
import os
from dataclasses import dataclass, fields as dc_fields, replace

import numpy as np

from . import attacks
from .binfile import Format
from .errors import (ConfigurationError, DegenerateModelError, FingerprintMismatchError,
                     ThresholdError)
from .field import FieldParams, FixedPointCodec, ProtocolCodecs, check_aggregate_bound
from .flsim import AdamWParams, MlpShape, evaluate, gen_dataset, init_model
from .keysetup import (
    SetupResult,
    load_shares,
    save_share,
    setup_dkg,
    setup_trusted_dealer,
)
from .literals import file_lines, literal_text, read_literals, write_text
from .protocol import (
    ClientTrainer,
    GlobalModel,
    ProtocolParams,
    _cpus,
    _ForkPool,
    clients_drawn,
    run_baseline,
    run_protocol,
)
from .rngutil import rng_from_key
from .sharing import ShamirConfig
from .verify import (
    _MIN_KEYS,
    _MIN_MODELS,
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
        for f in dc_fields(self):
            value = getattr(self, f.name)
            # an empty sweep, grid or seed list would run nothing and write empty files
            if value == ():
                raise ConfigurationError(f"{f.name} must not be empty")
            if f.type in (float, tuple[float, ...]) and not np.isfinite(value).all():
                raise ConfigurationError(f"{f.name} must be finite, got {value}")
            # and a repeated entry would run the same thing twice
            if isinstance(value, tuple) and len(set(value)) < len(value):
                again = next(v for v in value if value.count(v) > 1)
                raise ConfigurationError(f"{f.name} repeats {again!r}")
        if self.threshold > self.n_clients:
            raise ConfigurationError("threshold t must not exceed K")
        # participation is a fraction: at or below 0 each round trains one
        # client, below any t >= 2; S clamps a negative strength to 0. Either
        # way no round would embed the watermark
        if not 0 < self.participation <= 1:
            raise ConfigurationError(f"participation must lie in (0, 1], got {self.participation}")
        if not 0 <= self.ema_beta < 1:
            raise ConfigurationError(f"ema_beta must lie in [0, 1), got {self.ema_beta}")
        for name, floor in (("n_clients", 1), ("threshold", 1), ("n_samples", 1),
                            ("n_test", 1), ("sweep_samples", 1),
                            ("sweep_samples_per_client", 1),
                            ("rounds", 1), ("sweep_rounds", 1), ("calib_rounds", 1),
                            ("batch_size", 1), ("sweep_batch", 1), ("attack_batch", 1),
                            ("local_epochs", 1), ("attack_epochs", 1),
                            ("calib_models", _MIN_MODELS), ("calib_keys", _MIN_KEYS)):
            if getattr(self, name) < floor:
                raise ConfigurationError(f"{name} must be >= {floor}, got {getattr(self, name)}")
        for name in ("strength_c", "baseline_c", "c_sweep"):
            if (np.asarray(getattr(self, name)) < 0).any():
                raise ConfigurationError(f"{name} must be non-negative, got {getattr(self, name)}")
        if self.setup_mode not in ("dealer", "dkg"):
            raise ConfigurationError("setup_mode must be 'dealer' or 'dkg'")
        for kind, params in _attack_jobs(self):
            _attack_config(self, kind, params)
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
        write_text(path, self.canonical_text())

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        return cls.with_overrides(config_values(path), path=path)

    @classmethod
    def with_overrides(cls, values: dict, overrides=(), path=None) -> "ExperimentConfig":
        """``values``, then the --set items ``overrides``, over the defaults; an
        error names ``path``, the config file of ``values``, if there is one."""
        try:
            return cls(**{**values, **config_values(None, overrides)})
        except ConfigurationError as exc:
            raise ConfigurationError(f"{path}: {exc}") if path else exc from None


_CONFIG_TYPES = {f.name: f.type for f in dc_fields(ExperimentConfig)}

# the fields that attack and robustness set themselves; the run they read gives the rest
RUN_COMMAND_FIELDS = ("attack_kinds", "attack_fractions", "attack_epochs", "attack_alphas",
                      "prune_ratios", "quant_schemes", "attack_batch", "calib_models",
                      "calib_keys", "calib_rounds", "z_star", "output_dir")


def config_values(path, overrides=()) -> dict:
    """The values of the config file at ``path``, if any, then of the --set items."""
    return read_literals([*(file_lines(path) if path else []),
                          *((f"--set {item!r}", item) for item in overrides)], _CONFIG_TYPES)


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
    for gm in trajectory:
        save_model(gm.theta, shape, gm.round_index,
                   os.path.join(dirpath, f"round_{gm.round_index:05d}.bin"))


def load_trajectory(dirpath, shape: MlpShape, rounds: int):
    """The models of rounds 0..``rounds``, each of ``shape``, in ``dirpath``."""
    trajectory = []
    for r in range(rounds + 1):
        path = os.path.join(dirpath, f"round_{r:05d}.bin")
        theta, got, index = load_model(path)
        if (got, index) != (shape, r):
            raise ConfigurationError(f"{path}: holds round {index} of {got}, "
                                     f"expected round {r} of {shape}")
        trajectory.append(GlobalModel(theta=theta, round_index=r))
    return trajectory


# the keys of a run manifest (its config is config.txt), in file order, with types
_MANIFEST_TYPES = {"seed": int, "commitment_nonce": str, "commitment_digest": str}


def write_manifest(seed: int, setup, path):
    pairs = [("seed", seed)]
    if setup.commitment is not None:
        pairs += [("commitment_nonce", setup.commitment.nonce.hex()),
                  ("commitment_digest", setup.commitment.digest.hex())]
    write_text(path, literal_text(pairs))


def write_csv(path, header: str, rows):
    write_text(path, "".join(line + "\n" for line in [header, *sorted(rows)]))


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
    clients = tuple(range(1, cfg.n_clients + 1))
    theta = init_model(cfg.shape(), rng_from_key(seed, "init"))
    with ClientTrainer(dataset, cfg.shape(), cfg.protocol_params(), seed,
                       cfg.n_clients) as train:
        for r in range(1, rounds + 1):
            theta = np.mean(train(theta, clients, r), axis=0)
    return dataset, theta


def _coalition_verifier(shares, scfg: ShamirConfig, codec: FixedPointCodec,
                        calib: CalibrationTable, z_star: float):
    """The one coalition verification path: stack the shares once, then per
    model encode it once at the share codec, take the coalition's partial
    inner products in one call and combine them. The shares must have the
    f_share and d the calibration table was made for. A coalition below t
    is refused before any product."""
    if len(shares) < scfg.threshold:
        raise ThresholdError(f"coalition of {len(shares)} is below threshold {scfg.threshold}")
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


def _run_units(unit, units: list, *args) -> list:
    """unit(cfg, seed, *args) for each (ExperimentConfig, seed) of ``units``,
    a command's independent runs; returns the results in unit order.

    Units run in waves of one per CPU this process may run on, through a
    _ForkPool whose workers inherit ``unit`` and ``args``: each process,
    this one first, pins itself to its own CPU for its unit, so the unit's
    ClientTrainer forks no worker. A last lone unit runs here on every CPU,
    as does every unit on one CPU or of a command with one unit. A wave
    raises the first failing unit's error, once every unit of it has ended.
    """
    cpus = _cpus()
    width = min(len(cpus), len(units))
    if width < 2:
        return [unit(*u, *args) for u in units]
    # a last lone unit runs here on every CPU, with its trainer's workers
    pinned = len(units) - 1 if len(units) % width == 1 else len(units)

    def run(i):
        os.sched_setaffinity(0, {cpus[i % width]})
        return unit(*units[i], *args), None

    results, mask = [], os.sched_getaffinity(0)
    try:
        with _ForkPool((run,), width - 1) as pool:
            for lo in range(0, pinned, width):
                wave = range(lo, min(lo + width, pinned))
                results += pool.step([(0, (i,), None) for i in wave])
    finally:
        os.sched_setaffinity(0, mask)
    return results + [unit(*u, *args) for u in units[pinned:]]


# -- commands --

def _check_embeds(participation: float, K: int, t: int):
    """Refuses a run whose rounds draw fewer than t of its K clients: none could embed."""
    if (drawn := clients_drawn(participation, K)) < t:
        raise ConfigurationError(f"participation {participation} draws {drawn} of {K} "
                                 f"clients a round, below t = {t}: no round would embed")


def _check_dataset(cfg: ExperimentConfig, field: str, n: int, K: int):
    """Refuses a dataset of n samples over K clients that gen_dataset would
    refuse, naming ``field``, the config field n is made from, and K."""
    for name, value, by, divisor in ((field, n, "K", K),
                                     (field, n, "n_classes", cfg.n_classes),
                                     ("n_test", cfg.n_test, "n_classes", cfg.n_classes)):
        if value % divisor:
            raise ConfigurationError(f"{name} gives {value} samples at K = {K}, "
                                     f"not divisible by {by} = {divisor}")


def _check_sweep(cfg: ExperimentConfig):
    """Refuses a K sweep if, at any K, the baseline's overflow bound fails,
    a round draws fewer than t = max(2, K // 2) clients or gen_dataset
    would refuse the sweep_samples_per_client * K samples."""
    for K in cfg.k_sweep:
        # the baseline adds K keys at up to scale_max each, a stricter bound
        # than the threshold run's one scale_max term
        try:
            check_aggregate_bound(cfg.shape().dim, K, cfg.theta_max, K * cfg.scale_max,
                                  cfg.codecs()).raise_if_failed()
            _check_embeds(cfg.participation, K, max(2, K // 2))
            _check_dataset(cfg, "sweep_samples_per_client", cfg.sweep_samples_per_client * K, K)
        except ConfigurationError as exc:
            raise ConfigurationError(f"k_sweep K={K}: {exc}") from None


def _fidelity_points(cfg: ExperimentConfig, sweep_budget: bool) -> list:
    """The (config, seed) units of cmd_fidelity, in row order, once every
    point is checked: ``cfg`` at each c, with sweep_budget at the sweep_*
    rounds, samples and batch."""
    _check_embeds(cfg.participation, cfg.n_clients, cfg.threshold)
    field = "sweep_samples" if sweep_budget else "n_samples"
    _check_dataset(cfg, field, getattr(cfg, field), cfg.n_clients)
    budget = dict(rounds=cfg.sweep_rounds, n_samples=cfg.sweep_samples,
                  batch_size=cfg.sweep_batch) if sweep_budget else {}
    return [(replace(cfg, strength_c=c, **budget), s) for c in cfg.c_sweep for s in cfg.seeds]


def _null_model(cfg: ExperimentConfig, seed: int) -> np.ndarray:
    """One unit of cmd_calibrate: the theta of an unwatermarked FedAvg run."""
    return run_plain_fedavg(cfg, seed, rounds=cfg.calib_rounds)[1]


def cmd_calibrate(cfg: ExperimentConfig, outdir=None) -> CalibrationTable:
    """Train unwatermarked models, pool cosine null samples, persist table."""
    _check_dataset(cfg, "n_samples", cfg.n_samples, cfg.n_clients)
    models = _run_units(_null_model, [(cfg, 10_000 + i) for i in range(cfg.calib_models)])
    table = calibrate(models, cfg.calib_keys, rng_from_key("calibration-keys"),
                      fingerprint=model_fingerprint(cfg.shape()), f_share=cfg.f_share)
    if outdir:
        table.save(os.path.join(outdir, "calibration.txt"))
    return table


def _write_run(cfg: ExperimentConfig, seed: int, outdir):
    """One unit of cmd_train: the watermarked run of ``seed`` and its
    run_seed<seed> directory under ``outdir``, which it returns."""
    shape = cfg.shape()
    setup, dataset, trajectory = run_watermarked(cfg, seed)
    rundir = os.path.join(outdir, f"run_seed{seed}")
    save_trajectory(trajectory, shape, os.path.join(rundir, "trajectory"))
    save_model(trajectory[-1].theta, shape, trajectory[-1].round_index,
               os.path.join(rundir, "model_final.bin"))
    for share in setup.shares:
        save_share(share, setup,
                   os.path.join(rundir, "shares", f"client_{share.point}.share"))
    cfg.save(os.path.join(rundir, "config.txt"))
    write_manifest(seed, setup, os.path.join(rundir, "manifest.txt"))
    rows = [
        f"{cfg.config_hash()},{seed},{gm.round_index},"
        f"{evaluate(gm.theta, dataset.X_test, dataset.y_test, shape):.6f}"
        for gm in trajectory
    ]
    write_csv(os.path.join(rundir, "metrics.csv"),
              "config_hash,seed,round,test_accuracy", rows)
    return rundir


def cmd_train(cfg: ExperimentConfig, outdir, seed: int = None):
    """Watermarked runs for each seed; persists trajectory, shares, config,
    manifest, metrics CSV. Returns {seed: run directory} (see read_run)."""
    _check_dataset(cfg, "n_samples", cfg.n_samples, cfg.n_clients)
    _check_embeds(cfg.participation, cfg.n_clients, cfg.threshold)
    seeds = [seed] if seed is not None else list(cfg.seeds)
    return dict(zip(seeds, _run_units(_write_run, [(cfg, s) for s in seeds], outdir)))


def cmd_verify(model_path, share_paths, calib_path,
               z_star: float = Z_STAR_DEFAULT) -> tuple:
    """Returns (report, exit_code 0 accept / 1 reject); raises on error
    conditions (< t shares, fingerprint mismatch, a malformed file), which
    the CLI maps to exit code 2. The key norm is sqrt(d), never read from files."""
    if not np.isfinite(z_star):
        raise ConfigurationError(f"z* must be finite, got {z_star}")
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
    real federation. The overflow bound, and that a round draws at least
    t = max(2, K // 2) clients, are checked at every K before any run
    starts. Returns a dict with per-K records and the fitted baseline
    decay exponent of z vs K (None, and left out of the summary, when the
    sweep has one K); rows carry ``cfg``'s config hash.
    """
    seeds = list(seeds if seeds is not None else cfg.seeds)
    shape = cfg.shape()
    _check_sweep(cfg)
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
    # a line through a single K has no meaningful slope
    slope = (float(np.polyfit(np.log(ks), np.log(zb), 1)[0])
             if len(cfg.k_sweep) > 1 else None)
    if outdir:
        write_csv(os.path.join(outdir, "scalability.csv"),
                  "config_hash,K,seed,method,z,test_accuracy", rows)
        summary = [("baseline_decay_exponent", slope)] if slope is not None else []
        write_text(os.path.join(outdir, "scalability_summary.txt"),
                   literal_text(summary + [("z_star", cfg.z_star)]))
    return {"records": records, "baseline_decay_exponent": slope}


def _fidelity_point(point: ExperimentConfig, seed: int, calib: CalibrationTable) -> tuple:
    """One unit of cmd_fidelity: (z, test accuracy) of the final model of
    the watermarked run of ``point``."""
    setup, dataset, trajectory = run_watermarked(point, seed)
    rep = make_coalition_verifier(point, setup, calib)(trajectory[-1].theta)
    return rep.z, evaluate(trajectory[-1].theta, dataset.X_test, dataset.y_test, point.shape())


def cmd_fidelity(cfg: ExperimentConfig, calib: CalibrationTable, outdir=None,
                 sweep_budget: bool = False):
    """Accuracy and z across the watermark-strength sweep: ``cfg`` at each c (with
    sweep_budget, at the sweep_* rounds, samples and batch); rows carry its hash."""
    units = _fidelity_points(cfg, sweep_budget)
    rows, records = [], []
    for (point, s), (z, acc) in zip(units, _run_units(_fidelity_point, units, calib)):
        c = point.strength_c
        records.append({"c": c, "seed": s, "z": z, "accuracy": acc})
        rows.append(f"{cfg.config_hash()},{c},{s},{z:.6g},{acc:.6f}")
    summary = {}
    for c in cfg.c_sweep:
        zs = [r["z"] for r in records if r["c"] == c]
        accs = [r["accuracy"] for r in records if r["c"] == c]
        summary[c] = {"z_mean": float(np.mean(zs)), "z_std": float(np.std(zs)),
                      "acc_mean": float(np.mean(accs)), "acc_std": float(np.std(accs))}
    if outdir:
        write_csv(os.path.join(outdir, "fidelity.csv"),
                  "config_hash,c,seed,z,test_accuracy", rows)
        write_text(os.path.join(outdir, "fidelity_summary.txt"), "".join(
            f"c={c}: z = {s['z_mean']:.4g} +- {s['z_std']:.4g}, "
            f"accuracy = {s['acc_mean']:.4f} +- {s['acc_std']:.4f}\n" for c, s in summary.items()))
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


def _reads(kind: str) -> tuple:
    """The AttackConfig fields an attack of ``kind`` reads: those of its
    grid, and distill's mix weight alpha."""
    return (*_attack(kind)[0], *(("alpha",) if kind == "distill" else ()))


def _attack_config(cfg: ExperimentConfig, kind: str, params: dict) -> attacks.AttackConfig:
    """The AttackConfig of a job of ``kind`` that sets ``params``; refuses a
    field the kind does not read, and every value AttackConfig refuses."""
    if unread := sorted(set(params) - set(_reads(kind))):
        raise ConfigurationError(f"attack kind {kind!r} does not read {', '.join(unread)}")
    return attacks.AttackConfig(epochs=cfg.attack_epochs, batch_size=cfg.attack_batch,
                                optimizer=cfg.optimizer(), **params)


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
    checkpoints = run_attack_job(kind, _attack_config(cfg, kind, params),
                                 trajectory[-1].theta, trajectory, dataset, shape)
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
    run_id = run_id or cfg.config_hash()
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
        write_csv(os.path.join(outdir, "robustness.csv"),
                  "run_id,attack,params,step,test_accuracy,z,decision", rows)
        write_text(os.path.join(outdir, "robustness_summary.txt"),
                   literal_text([("z_threshold_line", cfg.z_star)])
                   + "".join(f"pareto_frontier_p={p}: {front!r}\n"
                             for p, front in sorted(fronts.items())))
    return {"records": records, "pareto": fronts}


def read_run(rundir):
    """Reload a persisted training run: (the ExperimentConfig it was
    trained with, SetupResult, dataset, trajectory).

    The run's config.txt, checked against the share headers, rebuilds the
    dataset and the codecs, and gives the rounds and the model shape every
    trajectory file must have. The commitment and the DKG overhead record
    are not persisted."""
    paths = sorted(glob.glob(os.path.join(rundir, "shares", "*.share")))
    if not paths:
        raise ConfigurationError(f"{rundir}: no share files")
    shares, hdr, scfg = load_shares(paths)
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
    trajectory = load_trajectory(os.path.join(rundir, "trajectory"), run_cfg.shape(),
                                 run_cfg.rounds)
    return run_cfg, setup, dataset, trajectory


def command_config(run_cfg: ExperimentConfig, rundir, values: dict,
                   job=None) -> ExperimentConfig:
    """``run_cfg``, the config of the run in ``rundir``, with the RUN_COMMAND_FIELDS
    of ``values``; refuses, naming config.txt, another value that is not the run's
    and a data fraction of ``job`` (or of the grid) that takes none of its samples."""
    try:
        cfg = replace(run_cfg, **{k: v for k, v in values.items() if k in RUN_COMMAND_FIELDS})
        for key, value in values.items():
            if value != getattr(cfg, key):
                raise ConfigurationError(f"the run has {key} = {getattr(cfg, key)!r}, the command "
                                         f"{value!r}; a command on a run sets only "
                                         f"{', '.join(RUN_COMMAND_FIELDS)}")
        for kind, params in [job] if job else _attack_jobs(cfg):
            if "data_fraction" in _reads(kind):
                attacks.subset_size(_attack_config(cfg, kind, params).data_fraction,
                                    cfg.n_samples)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{os.path.join(rundir, 'config.txt')}: {exc}") from None
    return cfg


def load_run(cfg: ExperimentConfig, rundir):
    """(SetupResult, dataset, trajectory) of read_run; ``cfg`` is not read."""
    return read_run(rundir)[1:]


def cmd_attack(cfg: ExperimentConfig, setup, dataset, trajectory, calib: CalibrationTable,
               kind: str, outdir=None, run_id=None, **params):
    """One attack job against a persisted run, verified via the coalition
    path; rows carry ``run_id``, the hash of the run's config, which
    defaults to ``cfg``'s, and their params every field ``kind`` reads,
    given in ``params`` or AttackConfig's default."""
    acfg = _attack_config(cfg, kind, params)
    params = {name: getattr(acfg, name) for name in _reads(kind)}
    records, rows = _attack_and_verify(cfg, make_coalition_verifier(cfg, setup, calib), kind,
                                       params, trajectory, dataset, run_id or cfg.config_hash())
    if outdir:
        write_csv(os.path.join(outdir, f"attack_{kind}.csv"),
                  "run_id,attack,params,step,test_accuracy,z,decision", rows)
    return records


def cmd_report(outdir):
    """Digest the CSVs in outdir into a text summary plus plain coordinate
    exports (plotting itself is left to external tooling)."""
    lines = ["# experiment report"]
    exports = []
    try:
        names = sorted(os.listdir(outdir))
    except OSError as exc:
        raise ConfigurationError(f"{outdir}: cannot read: {exc.strerror}") from None
    for name in names:
        if not name.endswith(".csv"):
            continue
        path = os.path.join(outdir, name)
        text = [line.strip() for _, line in file_lines(path)] or [""]
        header = text[0].split(",")
        rows = [(n, line.split(",")) for n, line in enumerate(text[1:], start=2) if line]
        lines.append(f"{name}: {len(rows)} rows, columns {header}")
        # export any (x, y) numeric pair ending in z vs accuracy coordinates
        if "z" in header and "test_accuracy" in header:
            zi, ai = header.index("z"), header.index("test_accuracy")
            coords = []
            for n, r in rows:
                if len(r) != len(header):
                    raise ConfigurationError(f"{path} line {n}: {len(r)} fields, "
                                             f"the header has {len(header)}")
                try:
                    coords.append((float(r[ai]), float(r[zi])))
                except ValueError as exc:
                    raise ConfigurationError(f"{path} line {n}: {exc}") from None
            export = os.path.join(outdir, name.replace(".csv", "_points.txt"))
            write_text(export, "accuracy z\n" + "".join(f"{a:.6f} {z:.6g}\n"
                                                         for a, z in sorted(coords)))
            exports.append(export)
    report_path = os.path.join(outdir, "report.txt")
    write_text(report_path, "\n".join(lines) + "\n")
    return report_path, exports
