"""Vector Shamir secret sharing, Lagrange recombination and commitments.

A length-d secret is shared coordinate-by-coordinate: d independent
uniform degree-(t-1) polynomials evaluated at the public points
x_k = k, k = 1..K. Any t shares reconstruct the secret exactly; fewer
reveal nothing. Embedding shares w_k = lambda_k * s_k sum to the secret
over any participant set of size >= t.

All K shares are evaluated at once as one matrix product over F_q,
shares (K x d) = V (K x t) . C (t x d), where V[k, j] = x_k^j and C stacks
the secret over the t-1 coefficient rows; reconstruction is the Lagrange
row (1 x t) times the stacked shares. For M61 the product runs on float64
BLAS over 21-bit limbs: each limb product is an integer below 2^42 and each
partial sum one below 2^53, which float64 holds exactly whatever order BLAS
adds in, so the shares are bit-identical to Horner's rule for every BLAS
build and thread count (see field._matmul_mod). The Lagrange coefficients
of a point set are computed once per (points, field) and returned read-only.

The commitment is SHA-256 over a fixed byte layout:
rho (32) || d (8 LE) || q (8 LE) || f_share (2 LE) || secret words || sqrt(d) double.
"""

import functools
import hashlib
import secrets
import struct
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import ConfigurationError, SkipRoundError, ThresholdError
from .field import FieldParams, FieldVector, _matmul_mod


def public_norm(d: int) -> float:
    """The published surrogate for ||tau||_2, which nobody holds: sqrt(d),
    the expected norm of a key drawn from N(0, I_d)."""
    return float(np.sqrt(d))


@dataclass(frozen=True)
class ShamirConfig:
    """(t, K) threshold configuration; client k holds the share at point k."""

    n_clients: int
    threshold: int
    params: FieldParams

    def __post_init__(self):
        if not (1 <= self.threshold <= self.n_clients):
            raise ConfigurationError(
                f"need 1 <= t <= K, got t={self.threshold}, K={self.n_clients}"
            )
        # the points 1..K are distinct and nonzero mod q iff K < q
        if self.n_clients >= self.params.modulus:
            raise ConfigurationError(
                f"need K < q, got K={self.n_clients}, q={self.params.modulus}"
            )

    @property
    def points(self) -> tuple:
        return tuple(range(1, self.n_clients + 1))


@dataclass(frozen=True)
class ShamirShare:
    """One client's share: evaluation point and per-coordinate values."""

    point: int
    values: FieldVector

    def __len__(self):
        return len(self.values)


def shamir_share(secret: FieldVector, cfg: ShamirConfig, rng: np.random.Generator,
                 coeffs=None) -> list:
    """Share a field vector; returns K shares.

    coeffs optionally forces the t-1 higher polynomial coefficients as an
    array of shape (t-1, d) for deterministic tests; by default they are
    uniform in F_q.
    """
    cfg.params._check(secret.params)
    d = len(secret)
    if d == 0:
        raise ConfigurationError("secret must be non-empty")
    t, q = cfg.threshold, cfg.params.modulus
    if coeffs is None:
        coeffs = cfg.params.uniform(rng, (t - 1, d))
    else:
        coeffs = np.asarray(coeffs, dtype=np.uint64)
        if coeffs.shape != (t - 1, d):
            raise ConfigurationError(f"coeffs must have shape {(t - 1, d)}")
        if coeffs.size and int(coeffs.max()) >= q:
            raise ConfigurationError("coeffs must lie in [0, q)")
    # P(x_k) = secret + a1*x_k + ... + a_{t-1}*x_k^{t-1} for every k at once
    vandermonde = np.array([[pow(x, j, q) for j in range(t)] for x in cfg.points],
                           dtype=np.uint64)
    evals = _matmul_mod(vandermonde, np.vstack([secret.values, coeffs]), cfg.params)
    return [ShamirShare(point=x, values=FieldVector(row, cfg.params))
            for x, row in zip(cfg.points, evals)]


def lagrange_at_zero(points, params: FieldParams) -> Mapping[int, int]:
    """Lagrange coefficients at 0: lambda_i = prod_{j != i} (0-x_j)/(x_i-x_j).

    For any polynomial P of degree < |points| through the shares,
    sum_i lambda_i P(x_i) = P(0). Computed once per (points, params); the
    mapping is read-only, so no caller can change what a later call gets.
    """
    return _lagrange_at_zero(tuple(points), params)


@functools.lru_cache(maxsize=64)
def _lagrange_at_zero(pts: tuple, params: FieldParams) -> Mapping[int, int]:
    # an exception is not cached: duplicate points raise on every call
    if len(set(p % params.modulus for p in pts)) != len(pts):
        raise ConfigurationError("duplicate evaluation points")
    q = params.modulus
    lam = {}
    for xi in pts:
        num, den = 1, 1
        for xj in pts:
            if xj == xi:
                continue
            num = num * (-xj) % q
            den = den * (xi - xj) % q
        lam[xi] = num * params.inv(den) % q
    return MappingProxyType(lam)


def shamir_reconstruct(shares, cfg: ShamirConfig) -> FieldVector:
    """Recover the secret from >= t shares, exactly."""
    shares = list(shares)
    if len(shares) < cfg.threshold:
        raise ThresholdError(
            f"{len(shares)} shares given, threshold is {cfg.threshold}"
        )
    for s in shares:
        cfg.params._check(s.values.params)
    if len({len(s) for s in shares}) != 1:
        raise ConfigurationError("shares differ in length")
    pts = [s.point for s in shares]
    lam = lagrange_at_zero(pts, cfg.params)
    row = np.array([[lam[x] for x in pts]], dtype=np.uint64)
    stacked = np.stack([s.values.values for s in shares])
    return FieldVector(_matmul_mod(row, stacked, cfg.params)[0], cfg.params)


def derive_embedding_share(share: ShamirShare, participants, cfg: ShamirConfig) -> ShamirShare:
    """w_k = lambda_k * s_k at the share's point for the given participant
    set; the w_k over the set sum to the secret.

    Raises SkipRoundError when the participant set is below threshold,
    matching the protocol's skip-the-round behavior.
    """
    participants = tuple(sorted(participants))
    if len(participants) < cfg.threshold:
        raise SkipRoundError(
            f"participant set of size {len(participants)} is below t={cfg.threshold}"
        )
    if share.point not in participants:
        raise ConfigurationError(f"share point {share.point} not in participant set")
    lam = lagrange_at_zero(participants, cfg.params)[share.point]
    return ShamirShare(point=share.point, values=share.values.scalar_mul(lam))


@dataclass(frozen=True)
class Commitment:
    """Hiding, binding digest of the encoded key and its public norm."""

    nonce: bytes  # 32 bytes, uniform
    digest: bytes  # SHA-256

    def __post_init__(self):
        if len(self.nonce) != 32 or len(self.digest) != 32:
            raise ConfigurationError("nonce and digest must be 32 bytes")


def _commitment_payload(nonce: bytes, secret_enc: FieldVector, f_share: int) -> bytes:
    return (
        nonce
        + len(secret_enc).to_bytes(8, "little")
        + secret_enc.params.modulus.to_bytes(8, "little")
        + f_share.to_bytes(2, "little")
        + secret_enc.words()
        + struct.pack("<d", public_norm(len(secret_enc)))
    )


def commit(secret_enc: FieldVector, f_share: int, nonce: bytes = None) -> Commitment:
    """Commit to the encoded key; a fresh 32-byte nonce provides hiding."""
    if nonce is None:
        nonce = secrets.token_bytes(32)
    payload = _commitment_payload(nonce, secret_enc, f_share)
    return Commitment(nonce=nonce, digest=hashlib.sha256(payload).digest())


def open_check(c: Commitment, secret_enc: FieldVector, f_share: int) -> bool:
    """True iff the recomputed digest matches; mismatch is not an error."""
    payload = _commitment_payload(c.nonce, secret_enc, f_share)
    return hashlib.sha256(payload).digest() == c.digest
