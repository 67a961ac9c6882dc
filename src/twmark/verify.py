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

The partials <enc(theta_s), s_i> mod q of a whole coalition are computed
from the suspect's small centered integers c, not from its 61-bit field
words: c is split once per model into signed float64 limbs of at most 24
bits (EncodedSuspect), and the coalition's t shares are read once per
verifier as four 16-bit limbs per word, written share by share into one
(4t, d) float64 matrix (Coalition, 32*d*t bytes). All t partials are then
one float64 product per pass over d, and partial j is
sum_l 2^(16l) P[:, 4j+l]. Every model within the verification bound at
the default f_share (d < 2^22) takes one pass. Longer or wider inputs take
more passes, chosen so that every partial sum is an integer of magnitude
at most 2^53: the result is exact for any q < 2^63, BLAS build and thread
count. FieldVector.inner stays the oracle behind verify_direct.
"""

import hashlib
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
from .sharing import ShamirConfig, lagrange_at_zero, public_norm

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


@dataclass(frozen=True)
class Coalition:
    """A coalition's shares, prepared once for all its verifications.

    Share j's words are read as four 16-bit limbs, least significant
    first, held in rows 4j .. 4j+3 of one (4t, d) float64 matrix, so a
    verifier holds 32*d*t bytes. Each share's limbs are written straight
    into their own rows. A single share is a coalition of one.
    """

    points: tuple
    limbs: np.ndarray   # (4t, d) float64
    params: FieldParams

    def __len__(self):
        return self.limbs.shape[1]

    @classmethod
    def of(cls, shares) -> "Coalition":
        shares = list(shares)
        if not shares:
            raise ConfigurationError("a coalition needs at least one share")
        d, params = len(shares[0]), shares[0].values.params
        for s in shares:
            params._check(s.values.params)
            if len(s) != d:
                raise ConfigurationError(f"length mismatch: share {s.point} has {len(s)}, "
                                         f"share {shares[0].point} {d}")
        limbs = np.empty((len(shares), 4, d))
        for rows, s in zip(limbs, shares):
            rows.T[...] = s.values.values.astype("<u8", copy=False).view("<u2").reshape(d, 4)
        return cls(tuple(s.point for s in shares), limbs.reshape(-1, d), params)


def partial_inner(coalition: Coalition, theta_s, codec: FixedPointCodec) -> list:
    """Exact field inner products of the encoded suspect with every share
    of ``coalition``, as one PartialVerification per share in coalition
    order.

    ``theta_s`` is the real model, a field vector such as its ``codec``
    encoding, or that encoding as an EncodedSuspect. Partial j is
    sum over suspect limbs m and share limbs l of
    2^(bits*m + 16*l) * P[m, 4j+l], P = x.limbs @ coalition.limbs.T, one
    float64 product per pass of x.rows coordinates. Every partial sum is an
    integer of at most 2^53 in magnitude, so BLAS sums it exactly in any
    order.
    """
    if len(theta_s) != len(coalition):
        raise ConfigurationError(
            f"length mismatch: model {len(theta_s)}, share {len(coalition)}"
        )
    if not isinstance(theta_s, EncodedSuspect):
        enc = theta_s if isinstance(theta_s, FieldVector) else codec.encode(theta_s)
        theta_s = EncodedSuspect.of(enc)
    coalition.params._check(theta_s.params)
    x, t = theta_s, len(coalition.points)
    totals = [0] * t
    for r0 in range(0, len(x), x.rows):
        part = x.limbs[:, r0:r0 + x.rows] @ coalition.limbs[:, r0:r0 + x.rows].T
        for m, rows in enumerate(part.astype(np.int64).reshape(-1, t, 4).tolist()):
            for j, (l0, l1, l2, l3) in enumerate(rows):
                totals[j] += (l0 + (l1 << 16) + (l2 << 32) + (l3 << 48)) << (x.bits * m)
    q = x.params.modulus
    return [PartialVerification(point=p, value=v % q)
            for p, v in zip(coalition.points, totals)]


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
                        cfg: ShamirConfig, f_share: int,
                        z_star: float = Z_STAR_DEFAULT) -> VerificationReport:
    """Combine >= t partial scalars, computed at f_share bits over cfg's
    field, into the decision report.

    The Lagrange-weighted scalars flow through a simulated scalar secure
    aggregation, so the only value revealed across the coalition boundary
    is the combined statistic. Its session is keyed by SHA-256 of the
    suspect's float64 bytes and the coalition's points, so every suspect
    gets fresh masks: two sessions under one mask stream would reveal each
    member's difference of weighted partials.
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
    digest = hashlib.sha256(np.ascontiguousarray(theta_s, dtype="<f8"))
    digest.update(np.array(points, dtype="<u8"))
    session = SecAggSession(
        round_id=0, participants=tuple(points), d=1, params=cfg.params,
        session_seed=int.from_bytes(digest.digest(), "little"),
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
