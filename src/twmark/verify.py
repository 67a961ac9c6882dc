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
bits (_suspect_limbs), and the coalition's t shares are read once per
verifier as four 16-bit limbs per word, written share by share into one
(4t, d) float64 matrix (Coalition, 32*d*t bytes). All t partials are then
one float64 product per pass over d, and partial j is
sum_l 2^(16l) P[:, 4j+l]. Every model within the verification bound at
the default f_share (d < 2^22) takes one pass. Longer or wider inputs take
more passes, chosen so that every partial sum is an integer of magnitude
at most 2^53: the result is exact for any q < 2^63, BLAS build and thread
count. FieldVector.inner stays the oracle behind verify_direct.

calibrate draws each null model's keys from the caller's generator in
blocks of about _BLOCK_WORDS words, max(1, _BLOCK_WORDS // d) keys each,
and scores every block before it draws the next, so its memory does not
grow with n_keys. The generator's stream yields the same keys in the same
order as one (n_keys, d) draw. cosine_against_keys sums each key's dot
product with einsum, not BLAS, so a key's cosine has the same bits in any
block, at any offset and under any BLAS thread count. The pooled cosines
are summarised by their mean, sample standard deviation, and the biased
skewness and Fisher excess kurtosis of _moments.
"""

import hashlib
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    DegenerateModelError,
    FingerprintMismatchError,
    ThresholdError,
)
from .field import (_BLOCK_WORDS, _centered, F_SHARE, FieldParams, FieldVector,
                    FixedPointCodec, ProtocolCodecs, verification_bound)
from .literals import file_lines, literal_text, read_literals, write_text
from .secagg import SecAggSession, secagg_scalar
from .sharing import ShamirConfig, lagrange_at_zero, public_norm

Z_STAR_DEFAULT = 4.0

# calibrate warns when the skewness or excess kurtosis of its N pooled
# cosines lies more than this many of a normal sample's standard errors,
# sqrt(6/N) and sqrt(24/N), from 0
_NORMALITY_SE = 4.0

_MIN_MODELS, _MIN_KEYS = 2, 100     # calibrate's floors, which a loaded table must meet
_NULL_SE = 6.0      # standard errors a loaded table's mu and sigma may lie from the null


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
        n = self.n_models * self.n_keys_per_model
        return (abs(self.skewness) > _NORMALITY_SE * math.sqrt(6 / n)
                or abs(self.excess_kurtosis) > _NORMALITY_SE * math.sqrt(24 / n))

    def save(self, path):
        write_text(path, literal_text((k, getattr(self, k)) for k in _CALIB_TYPES))

    @classmethod
    def load(cls, path) -> "CalibrationTable":
        """Parse a saved table; values are literals, never evaluated code.

        The table is refused unless it is near the closed-form null. Pooled
        null cosines are i.i.d. N(0, 1/d) whatever the models, so over
        N = n_models * n_keys_per_model of them mu * sqrt(dN) and
        (sigma * sqrt(d) - 1) * sqrt(2(N - 1)) are about N(0, 1); either
        beyond _NULL_SE is refused, as are tables below calibrate's floors
        (an honest table fails with probability about 4e-9)."""
        fields = read_literals(file_lines(path), _CALIB_TYPES)
        missing = sorted(set(_CALIB_TYPES) - set(fields))
        if missing:
            raise ConfigurationError(f"{path}: calibration table lacks {missing}")
        try:
            table = cls(**fields)
            for name, floor in (("n_models", _MIN_MODELS), ("n_keys_per_model", _MIN_KEYS),
                                ("dim", 1)):
                if fields[name] < floor:
                    raise ConfigurationError(f"{name} = {fields[name]} is below {floor}")
            d, n = table.dim, table.n_models * table.n_keys_per_model
            for name, se in (("mu", abs(table.mu) * math.sqrt(d * n)),
                             ("sigma", abs(table.sigma * math.sqrt(d) - 1)
                              * math.sqrt(2 * n - 2))):
                if not se <= _NULL_SE:
                    raise ConfigurationError(
                        f"{name} = {fields[name]!r} lies {se:.3g} standard errors from the "
                        f"null of {n} cosines at d = {d}, more than {_NULL_SE:g}")
        except (ConfigurationError, OverflowError) as exc:   # counts past any float
            raise ConfigurationError(f"{path}: {exc}") from None
        return table


@dataclass(frozen=True)
class VerificationReport:
    cosine: float
    z: float
    z_star: float
    accepted: bool
    coalition_size: int


def model_fingerprint(shape) -> str:
    return f"mlp-{shape.input_dim}x{shape.hidden}x{shape.n_classes}-d{shape.dim}"


# float64 holds every integer of magnitude at most 2^53 exactly
_EXACT = 1 << 53
# a share word is read as four 16-bit limbs, the suspect as limbs of at most 24 bits
_SHARE_LIMB_MAX = (1 << 16) - 1
_SUSPECT_LIMB_BITS = 24


def _suspect_limbs(enc: FieldVector) -> tuple:
    """The encoded suspect as (limbs, bits, rows) for partial_inner.

    Its centered integers c are split in integer arithmetic into k limbs of
    ``bits`` <= 24 bits, each carrying the sign of its c, so that
    c = sum_m 2^(bits*m) * limbs[m], held as one (k, d) float64 array.
    ``rows`` is the most coordinates one float64 product sums exactly: a
    term is a limb times a 16-bit share limb, and ``rows`` terms stay within
    2^53 in magnitude. At the default f_share every model within the
    verification bound, d * max|c| < 2^37 + d/2, takes one pass for d < 2^22.
    """
    c = _centered(enc.values, enc.params.modulus)
    mag = np.abs(c)
    top = int(mag.max(initial=0))
    k = -(-top.bit_length() // _SUSPECT_LIMB_BITS) or 1
    bits = -(-top.bit_length() // k)
    limbs = np.empty((k, len(c)))
    for m in range(k):
        limb = (mag >> (bits * m)) & ((1 << bits) - 1)
        limbs[m] = np.where(c < 0, -limb, limb)
    widest = min(top, (1 << bits) - 1)  # the largest limb magnitude
    return limbs, bits, _EXACT // (max(widest, 1) * _SHARE_LIMB_MAX)


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


def partial_inner(coalition: Coalition, theta_s, codec: FixedPointCodec) -> dict:
    """Exact field inner products <enc(theta_s), s_i> mod q of the encoded
    suspect with every share of ``coalition``, as {point: value} in
    coalition order.

    ``theta_s`` is the real model or a field vector such as its ``codec``
    encoding. Partial j is sum over suspect limbs m and share limbs l of
    2^(bits*m + 16*l) * P[m, 4j+l], P = limbs @ coalition.limbs.T, one
    float64 product per pass of ``rows`` coordinates (_suspect_limbs).
    Every partial sum is an integer of at most 2^53 in magnitude, so BLAS
    sums it exactly in any order.
    """
    if len(theta_s) != len(coalition):
        raise ConfigurationError(
            f"length mismatch: model {len(theta_s)}, share {len(coalition)}"
        )
    enc = theta_s if isinstance(theta_s, FieldVector) else codec.encode(theta_s)
    coalition.params._check(enc.params)
    limbs, bits, rows = _suspect_limbs(enc)
    t = len(coalition.points)
    totals = [0] * t
    for r0 in range(0, len(enc), rows):
        part = limbs[:, r0:r0 + rows] @ coalition.limbs[:, r0:r0 + rows].T
        for m, sums in enumerate(part.astype(np.int64).reshape(-1, t, 4).tolist()):
            for j, (l0, l1, l2, l3) in enumerate(sums):
                totals[j] += (l0 + (l1 << 16) + (l2 << 32) + (l3 << 48)) << (bits * m)
    q = enc.params.modulus
    return {p: v % q for p, v in zip(coalition.points, totals)}


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
    """Combine >= t partial scalars, {point: value} computed at f_share bits
    over cfg's field, into the decision report.

    The Lagrange-weighted scalars flow through a simulated scalar secure
    aggregation, so the only value revealed across the coalition boundary
    is the combined statistic. Its session is keyed by SHA-256 of the
    suspect's float64 bytes and the coalition's points, so every suspect
    gets fresh masks: two sessions under one mask stream would reveal each
    member's difference of weighted partials.
    """
    if len(partials) < cfg.threshold:
        raise ThresholdError(
            f"coalition of {len(partials)} is below threshold {cfg.threshold}"
        )
    bound = verification_bound(len(theta_s), float(np.abs(theta_s).max(initial=0.0)),
                               f_share)
    if not bound < cfg.params.modulus / 2.0:
        raise ConfigurationError(f"verification bound {bound:.3e} reaches q/2; "
                                 "reduce f_share or dimension d")
    points = list(partials)
    strangers = sorted(p for p in points if not 1 <= p <= cfg.n_clients)
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
    weighted = {p: cfg.params.mul(lam[p], v) for p, v in partials.items()}
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
    return np.einsum("ij,j->i", keys, theta) / (norm * public_norm(theta.size))


def _moments(x: np.ndarray) -> tuple:
    """Biased skewness and Fisher excess kurtosis of the samples x, in the
    operation order of scipy.stats.skew and scipy.stats.kurtosis (bias=True),
    so equal to them bit for bit."""
    dev = x - x.mean(keepdims=True)
    sq = dev**2
    m2 = sq.mean()
    return float((sq * dev).mean() / m2**1.5), float((sq**2).mean() / m2**2.0 - 3)


def calibrate(models, n_keys: int, rng: np.random.Generator,
              fingerprint: str = "", f_share: int = F_SHARE) -> CalibrationTable:
    """Pool cosine samples of unwatermarked models against fresh Gaussian
    keys, drawn and scored in blocks; records moments plus skew/kurtosis
    diagnostics."""
    models = [np.asarray(m, dtype=np.float64) for m in models]
    if len(models) < _MIN_MODELS:
        raise ConfigurationError("need at least two unwatermarked models")
    if n_keys < _MIN_KEYS:
        raise ConfigurationError("need at least 100 keys per model")
    d = models[0].size
    # zero-norm models are left out; n_models records how many were used
    usable = [m for m in models if np.linalg.norm(m) != 0.0]
    if len(usable) < _MIN_MODELS:
        raise ConfigurationError("fewer than two usable (nonzero) models")
    rows = max(1, _BLOCK_WORDS // d)
    pooled = np.empty(len(usable) * n_keys)
    for m, samples in zip(usable, pooled.reshape(len(usable), n_keys)):
        for r0 in range(0, n_keys, rows):
            keys = rng.standard_normal((min(rows, n_keys - r0), d))
            samples[r0:r0 + len(keys)] = cosine_against_keys(m, keys)
    skewness, excess_kurtosis = _moments(pooled)
    return CalibrationTable(
        mu=float(pooled.mean()),
        sigma=float(pooled.std(ddof=1)),
        n_models=len(usable),
        n_keys_per_model=n_keys,
        skewness=skewness,
        excess_kurtosis=excess_kurtosis,
        dim=d,
        f_share=f_share,
        fingerprint=fingerprint,
    )
