"""Reconstruction-free coalition verification and null calibration.

The coalition statistic never materializes the key: each member computes
the exact field inner product of the encoded suspect model with its own
share; the Lagrange-weighted scalars are combined under (scalar) secure
aggregation, and the single decoded value equals <enc(theta_s), enc(tau)>
by the interpolation identity. Dividing by ||theta_s||_2 and the public
norm surrogate sqrt(d) yields the cosine, which is standardized against
an empirically calibrated null into a one-sided z-test (accept iff
z >= z*, default 4, a ~3.2e-5 false-positive tail).

theta_s is encoded at f_share bits (not f_model) so the inner product
stays within q/2 at larger d; the bound check is a hard precondition.
"""

import ast
import math
from dataclasses import dataclass

import numpy as np
from scipy import stats

from .errors import (
    ConfigurationError,
    DegenerateModelError,
    FingerprintMismatchError,
    ThresholdError,
)
from .field import FieldVector, FixedPointCodec, ProtocolCodecs, check_aggregate_bound
from .secagg import SecAggSession, secagg_scalar
from .sharing import ShamirConfig, ShamirShare, lagrange_at_zero

Z_STAR_DEFAULT = 4.0

SKEW_WARN = 0.3
KURTOSIS_WARN = 0.5


# the fields of a saved calibration table, in file order, with their types
_CALIB_TYPES = {"mu": float, "sigma": float, "n_models": int, "n_keys_per_model": int,
                "skewness": float, "excess_kurtosis": float, "dim": int,
                "fingerprint": str}


@dataclass(frozen=True)
class CalibrationTable:
    """Null moments of the cosine statistic plus normality diagnostics."""

    mu: float
    sigma: float
    n_models: int
    n_keys_per_model: int
    skewness: float
    excess_kurtosis: float
    dim: int
    fingerprint: str

    def __post_init__(self):
        if self.sigma <= 0:
            raise ConfigurationError("sigma must be positive")

    @property
    def normality_warning(self) -> bool:
        return abs(self.skewness) > SKEW_WARN or abs(self.excess_kurtosis) > KURTOSIS_WARN

    def save(self, path):
        with open(path, "w") as fh:
            for k in _CALIB_TYPES:
                fh.write(f"{k} = {getattr(self, k)!r}\n")

    @classmethod
    def load(cls, path) -> "CalibrationTable":
        """Parse a saved table; values are literals, never evaluated code."""
        try:
            with open(path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except UnicodeDecodeError:
            raise ConfigurationError(f"{path}: calibration table is not text") from None
        fields = {}
        for lineno, line in enumerate(lines, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, raw = line.partition("=")
            key = key.strip()
            if not sep or key not in _CALIB_TYPES:
                raise ConfigurationError(f"{path}:{lineno}: expected a calibration "
                                         f"field = value, got {line[:60]!r}")
            try:
                value = ast.literal_eval(raw.strip())
            except (ValueError, TypeError, SyntaxError, MemoryError, RecursionError):
                raise ConfigurationError(
                    f"{path}:{lineno}: {key} is not a literal") from None
            want = _CALIB_TYPES[key]
            if type(value) is int and want is float:
                value = float(value)
            if type(value) is not want or (want is float and not math.isfinite(value)):
                raise ConfigurationError(
                    f"{path}:{lineno}: {key} = {raw.strip()[:40]} is not a "
                    f"{'finite float' if want is float else want.__name__}")
            fields[key] = value
        missing = sorted(set(_CALIB_TYPES) - set(fields))
        if missing:
            raise ConfigurationError(f"{path}: calibration table lacks {missing}")
        return cls(**fields)


@dataclass(frozen=True)
class VerificationReport:
    cosine: float
    z: float
    z_star: float
    accepted: bool
    coalition_size: int

    def csv_row(self, model_id="", attack_id="") -> str:
        decision = "accept" if self.accepted else "reject"
        return (
            f"{model_id},{attack_id},{self.coalition_size},"
            f"{self.cosine:.10g},{self.z:.10g},{decision}"
        )

    CSV_HEADER = "model_id,attack_id,coalition_size,cosine,z,decision"


@dataclass(frozen=True)
class PartialVerification:
    """One client's scalar <enc(theta_s), s_i> mod q."""

    point: int
    value: int


def model_fingerprint(shape) -> str:
    return f"mlp-{shape.input_dim}x{shape.hidden}x{shape.n_classes}-d{shape.dim}"


def partial_inner(share: ShamirShare, theta_s, codec: FixedPointCodec) -> PartialVerification:
    """Exact field inner product of the encoded suspect with one share.

    ``theta_s`` is the real model, or its ``codec`` encoding when one model
    is scored against several shares and should be encoded once.
    """
    if len(theta_s) != len(share.values):
        raise ConfigurationError(
            f"length mismatch: model {len(theta_s)}, share {len(share.values)}"
        )
    enc = theta_s if isinstance(theta_s, FieldVector) else codec.encode(theta_s)
    return PartialVerification(point=share.point, value=enc.inner(share.values))


def _statistic_from_inner(inner_enc: int, theta_s: np.ndarray, public_norm: float,
                          calib: CalibrationTable, codecs: ProtocolCodecs,
                          z_star: float, coalition_size: int) -> VerificationReport:
    # the inner product carries 2*f_share fractional bits
    double_codec = FixedPointCodec(2 * codecs.f_share, codecs.params)
    inner = double_codec.decode_scalar(inner_enc)
    norm = float(np.linalg.norm(theta_s))
    if norm == 0.0:
        raise DegenerateModelError("zero-norm suspect model")
    cosine = inner / (norm * public_norm)
    z = (cosine - calib.mu) / calib.sigma
    return VerificationReport(
        cosine=cosine, z=z, z_star=z_star, accepted=z >= z_star,
        coalition_size=coalition_size,
    )


def coalition_statistic(partials, theta_s: np.ndarray, public_norm: float,
                        calib: CalibrationTable, cfg: ShamirConfig,
                        codecs: ProtocolCodecs, z_star: float = Z_STAR_DEFAULT,
                        session_seed: int = 0) -> VerificationReport:
    """Combine >= t partial scalars into the decision report.

    The Lagrange-weighted scalars flow through a simulated scalar secure
    aggregation, so the only value revealed across the coalition boundary
    is the combined statistic.
    """
    partials = list(partials)
    if len(partials) < cfg.threshold:
        raise ThresholdError(
            f"coalition of {len(partials)} is below threshold {cfg.threshold}"
        )
    if calib.dim != len(theta_s):
        raise FingerprintMismatchError(
            f"calibration dim {calib.dim} != model dim {len(theta_s)}"
        )
    check_aggregate_bound(
        len(theta_s), 1, float(np.abs(theta_s).max()), 0.0, codecs
    ).raise_if_failed()
    points = [p.point for p in partials]
    lam = lagrange_at_zero(points, cfg.params)
    session = SecAggSession(
        round_id=0, participants=tuple(points), d=1,
        params=cfg.params, session_seed=session_seed,
    )
    weighted = {p.point: cfg.params.mul(lam[p.point], p.value) for p in partials}
    inner_enc = secagg_scalar(weighted, session)
    return _statistic_from_inner(
        inner_enc, theta_s, public_norm, calib, codecs, z_star, len(partials)
    )


def verify_direct(theta_s: np.ndarray, tau_debug: np.ndarray, calib: CalibrationTable,
                  codecs: ProtocolCodecs, public_norm: float = None,
                  z_star: float = Z_STAR_DEFAULT) -> VerificationReport:
    """Oracle path for tests: same field-level inner product, computed from
    a retained key instead of shares. Identical z to the coalition path."""
    if public_norm is None:
        public_norm = float(np.sqrt(len(theta_s)))
    if calib.dim != len(theta_s):
        raise FingerprintMismatchError(
            f"calibration dim {calib.dim} != model dim {len(theta_s)}"
        )
    enc_theta = codecs.share.encode(theta_s)
    enc_tau = codecs.share.encode(tau_debug)
    inner_enc = enc_theta.inner(enc_tau)
    return _statistic_from_inner(
        inner_enc, theta_s, public_norm, calib, codecs, z_star, coalition_size=0
    )


def cosine_against_keys(theta: np.ndarray, keys: np.ndarray,
                        public_norm: float = None) -> np.ndarray:
    """Cosines of one model against many keys, with the sqrt(d) surrogate
    denominator used everywhere (calibration and verification alike)."""
    if public_norm is None:
        public_norm = float(np.sqrt(theta.size))
    norm = float(np.linalg.norm(theta))
    if norm == 0.0:
        raise DegenerateModelError("zero-norm model")
    return keys @ theta / (norm * public_norm)


def calibrate(models, n_keys: int, rng: np.random.Generator,
              fingerprint: str = "") -> CalibrationTable:
    """Pool cosine samples of unwatermarked models against fresh Gaussian
    keys; records moments plus skew/kurtosis diagnostics."""
    models = [np.asarray(m, dtype=np.float64) for m in models]
    if len(models) < 2:
        raise ConfigurationError("need at least two unwatermarked models")
    if n_keys < 100:
        raise ConfigurationError("need at least 100 keys per model")
    d = models[0].size
    usable = []
    for m in models:
        if np.linalg.norm(m) == 0.0:
            continue  # zero-norm models are excluded with a warning
        usable.append(m)
    if len(usable) < 2:
        raise ConfigurationError("fewer than two usable (nonzero) models")
    samples = []
    for m in usable:
        keys = rng.standard_normal((n_keys, d))
        samples.append(cosine_against_keys(m, keys))
    pooled = np.concatenate(samples)
    return CalibrationTable(
        mu=float(pooled.mean()),
        sigma=float(pooled.std(ddof=1)),
        n_models=len(usable),
        n_keys_per_model=n_keys,
        skewness=float(stats.skew(pooled)),
        excess_kurtosis=float(stats.kurtosis(pooled)),
        dim=d,
        fingerprint=fingerprint,
    )
