"""Reconstruction-free coalition verification and null calibration.

The coalition statistic never materializes the key: each member computes
the exact field inner product of the encoded suspect model with its own
share; the Lagrange-weighted scalars are combined under (scalar) secure
aggregation, and the single decoded value equals <enc(theta_s), enc(tau)>
by the interpolation identity. Dividing by ||theta_s||_2 and the public
norm surrogate sharing.public_norm(d) = sqrt(d), computed from the model's
length and never taken from a file, yields the cosine, which is standardized
against an empirically calibrated null into a one-sided z-test (accept iff
z >= z*, default 4, a ~3.2e-5 false-positive tail).

theta_s is encoded at f_share bits (not f_model) so the inner product
stays within q/2 at larger d; the bound check is a hard precondition.

A partial <enc(theta_s), s_i> mod q is computed from the suspect's small
centered integers c, not from its 61-bit field words: c is split once per
model into signed float64 limbs of at most 24 bits (EncodedSuspect), each
share word is read as four 16-bit limbs, and sum_l 2^(16l) (c @ limb_l(s))
is one float64 product per share for every model within the verification
bound at the default f_share (d < 2^22). Longer or wider inputs take more
passes over d, chosen so that every partial sum is an integer of magnitude
at most 2^53: the result is exact for any q < 2^63, BLAS build and thread
count. FieldVector.inner stays the oracle behind verify_direct.
"""

import re
from dataclasses import dataclass

import numpy as np
from scipy import stats

from .errors import (
    ConfigurationError,
    DegenerateModelError,
    FingerprintMismatchError,
    ThresholdError,
)
from .field import (F_SHARE, FieldParams, FieldVector, FixedPointCodec, ProtocolCodecs,
                    verification_bound)
from .literals import file_lines, literal_text, read_literals
from .secagg import SecAggSession, secagg_scalar
from .sharing import ShamirConfig, ShamirShare, lagrange_at_zero, public_norm

Z_STAR_DEFAULT = 4.0

SKEW_WARN = 0.3
KURTOSIS_WARN = 0.5


# the fields of a saved calibration table, in file order, with their types
_CALIB_TYPES = {"mu": float, "sigma": float, "n_models": int, "n_keys_per_model": int,
                "skewness": float, "excess_kurtosis": float, "dim": int,
                "f_share": int, "fingerprint": str}


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
    f_share: int    # fractional bits of the shares this table verifies with
    fingerprint: str

    def __post_init__(self):
        if self.sigma <= 0:
            raise ConfigurationError("sigma must be positive")
        suffix = re.search(r"-d([0-9]+)$", self.fingerprint)
        if suffix and int(suffix[1]) != self.dim:
            raise ConfigurationError(f"fingerprint {self.fingerprint!r} is not of "
                                     f"the table's dim {self.dim}")

    @property
    def normality_warning(self) -> bool:
        return abs(self.skewness) > SKEW_WARN or abs(self.excess_kurtosis) > KURTOSIS_WARN

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(literal_text((k, getattr(self, k)) for k in _CALIB_TYPES))

    @classmethod
    def load(cls, path) -> "CalibrationTable":
        """Parse a saved table; values are literals, never evaluated code."""
        fields = read_literals(file_lines(path), _CALIB_TYPES)
        missing = sorted(set(_CALIB_TYPES) - set(fields))
        if missing:
            raise ConfigurationError(f"{path}: calibration table lacks {missing}")
        try:
            return cls(**fields)
        except ConfigurationError as exc:
            raise ConfigurationError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class VerificationReport:
    cosine: float
    z: float
    z_star: float
    accepted: bool
    coalition_size: int


@dataclass(frozen=True)
class PartialVerification:
    """One client's scalar <enc(theta_s), s_i> mod q."""

    point: int
    value: int


def model_fingerprint(shape) -> str:
    return f"mlp-{shape.input_dim}x{shape.hidden}x{shape.n_classes}-d{shape.dim}"


# float64 holds every integer of magnitude at most 2^53 exactly
_EXACT = 1 << 53
# a share word is read as four 16-bit limbs, the suspect as limbs of at most 24 bits
_SHARE_LIMB_MAX = (1 << 16) - 1
_SUSPECT_LIMB_BITS = 24


@dataclass(frozen=True)
class EncodedSuspect:
    """The encoded suspect, prepared once for all the coalition's partials.

    Its centered integers c are split in integer arithmetic into k limbs of
    ``bits`` <= 24 bits, each carrying the sign of its c, so that
    c = sum_m 2^(bits*m) * limbs[m], and held as float64. ``rows`` is the
    most coordinates one float64 product sums exactly: a term is a limb
    times a 16-bit share limb, and ``rows`` terms stay within 2^53 in
    magnitude. At the default f_share every model within the verification
    bound, d * max|c| < 2^37 + d/2, takes one pass for d < 2^22.
    """

    limbs: np.ndarray   # (k, d) float64
    bits: int
    rows: int
    params: FieldParams

    def __len__(self):
        return self.limbs.shape[1]

    @classmethod
    def of(cls, enc: FieldVector) -> "EncodedSuspect":
        c, top = enc.centered()
        k = -(-top.bit_length() // _SUSPECT_LIMB_BITS) or 1
        bits = -(-top.bit_length() // k)
        mag = np.abs(c)
        limbs = np.empty((k, len(c)))
        for m in range(k):
            limb = (mag >> (bits * m)) & ((1 << bits) - 1)
            limbs[m] = np.where(c < 0, -limb, limb)
        widest = min(top, (1 << bits) - 1)  # the largest limb magnitude
        return cls(limbs, bits, _EXACT // (max(widest, 1) * _SHARE_LIMB_MAX), enc.params)


def _inner_exact(x: EncodedSuspect, share: FieldVector) -> int:
    """<c, s> mod q = sum over suspect limbs m and share limbs l of
    2^(bits*m + 16*l) * (x.limbs[m] @ limb_l(s)), one float64 product per
    pass of x.rows coordinates. Every partial sum is an integer of at most
    2^53 in magnitude, so BLAS sums it exactly in any order."""
    d = len(share)
    s = (np.ascontiguousarray(share.values, dtype="<u8").view("<u2")
         .reshape(d, 4).astype(np.float64))
    total = 0
    for r0 in range(0, d, x.rows):
        part = x.limbs[:, r0:r0 + x.rows] @ s[r0:r0 + x.rows]
        for m, row in enumerate(part.tolist()):
            total += sum(int(v) << (x.bits * m + 16 * l) for l, v in enumerate(row))
    return total % x.params.modulus


def partial_inner(share: ShamirShare, theta_s, codec: FixedPointCodec) -> PartialVerification:
    """Exact field inner product of the encoded suspect with one share.

    ``theta_s`` is the real model, a field vector such as its ``codec``
    encoding, or that encoding as an EncodedSuspect, which a coalition
    prepares once for all its shares.
    """
    if len(theta_s) != len(share.values):
        raise ConfigurationError(
            f"length mismatch: model {len(theta_s)}, share {len(share.values)}"
        )
    if not isinstance(theta_s, EncodedSuspect):
        enc = theta_s if isinstance(theta_s, FieldVector) else codec.encode(theta_s)
        theta_s = EncodedSuspect.of(enc)
    share.values.params._check(theta_s.params)
    return PartialVerification(point=share.point, value=_inner_exact(theta_s, share.values))


def _statistic_from_inner(inner_enc: int, theta_s: np.ndarray, calib: CalibrationTable,
                          params: FieldParams, f_share: int, z_star: float,
                          coalition_size: int) -> VerificationReport:
    if calib.dim != len(theta_s):
        raise FingerprintMismatchError(
            f"calibration dim {calib.dim} != model dim {len(theta_s)}")
    # the inner product carries 2*f_share fractional bits
    inner = FixedPointCodec(2 * f_share, params).decode_scalar(inner_enc)
    norm = float(np.linalg.norm(theta_s))
    if norm == 0.0:
        raise DegenerateModelError("zero-norm suspect model")
    cosine = inner / (norm * public_norm(len(theta_s)))
    z = (cosine - calib.mu) / calib.sigma
    return VerificationReport(
        cosine=cosine, z=z, z_star=z_star, accepted=z >= z_star,
        coalition_size=coalition_size,
    )


def coalition_statistic(partials, theta_s: np.ndarray, calib: CalibrationTable,
                        cfg: ShamirConfig, f_share: int, z_star: float = Z_STAR_DEFAULT,
                        session_seed: int = 0) -> VerificationReport:
    """Combine >= t partial scalars, computed at f_share bits over cfg's
    field, into the decision report.

    The Lagrange-weighted scalars flow through a simulated scalar secure
    aggregation, so the only value revealed across the coalition boundary
    is the combined statistic.
    """
    partials = list(partials)
    if len(partials) < cfg.threshold:
        raise ThresholdError(
            f"coalition of {len(partials)} is below threshold {cfg.threshold}"
        )
    bound = verification_bound(len(theta_s), float(np.abs(theta_s).max(initial=0.0)),
                               f_share)
    if not bound < cfg.params.modulus / 2.0:
        raise ConfigurationError(f"verification bound {bound:.3e} reaches q/2; "
                                 "reduce f_share or dimension d")
    points = [p.point for p in partials]
    strangers = sorted(set(points) - set(cfg.points))
    if strangers:
        raise ConfigurationError(
            f"partial points {strangers} are not evaluation points of the setup")
    lam = lagrange_at_zero(points, cfg.params)
    session = SecAggSession(
        round_id=0, participants=tuple(points), d=1,
        params=cfg.params, session_seed=session_seed,
    )
    weighted = {p.point: cfg.params.mul(lam[p.point], p.value) for p in partials}
    inner_enc = secagg_scalar(weighted, session)
    return _statistic_from_inner(
        inner_enc, theta_s, calib, cfg.params, f_share, z_star, len(partials)
    )


def verify_direct(theta_s: np.ndarray, tau_debug: np.ndarray, calib: CalibrationTable,
                  codecs: ProtocolCodecs, z_star: float = Z_STAR_DEFAULT) -> VerificationReport:
    """Oracle path for tests: same field-level inner product, computed from
    a retained key instead of shares. Identical z to the coalition path."""
    enc_theta = codecs.share.encode(theta_s)
    enc_tau = codecs.share.encode(tau_debug)
    inner_enc = enc_theta.inner(enc_tau)
    return _statistic_from_inner(
        inner_enc, theta_s, calib, codecs.params, codecs.f_share, z_star, coalition_size=0
    )


def cosine_against_keys(theta: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Cosines of one model against many keys, with the public_norm(d)
    surrogate denominator used everywhere (calibration and verification alike)."""
    norm = float(np.linalg.norm(theta))
    if norm == 0.0:
        raise DegenerateModelError("zero-norm model")
    return keys @ theta / (norm * public_norm(theta.size))


def calibrate(models, n_keys: int, rng: np.random.Generator,
              fingerprint: str = "", f_share: int = F_SHARE) -> CalibrationTable:
    """Pool cosine samples of unwatermarked models against fresh Gaussian
    keys; records moments plus skew/kurtosis diagnostics."""
    models = [np.asarray(m, dtype=np.float64) for m in models]
    if len(models) < 2:
        raise ConfigurationError("need at least two unwatermarked models")
    if n_keys < 100:
        raise ConfigurationError("need at least 100 keys per model")
    d = models[0].size
    # zero-norm models are left out; n_models records how many were used
    usable = [m for m in models if np.linalg.norm(m) != 0.0]
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
        f_share=f_share,
        fingerprint=fingerprint,
    )
