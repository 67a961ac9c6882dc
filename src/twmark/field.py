"""Prime-field arithmetic and centered fixed-point encoding.

Field elements are plain Python ints in [0, q); vectors are numpy uint64
arrays wrapped in FieldVector. The default modulus is the Mersenne prime
M61 = 2^61 - 1, for which elementwise multiplication has a vectorized
fast path (products are reduced via the 2^61 = 1 congruence). Any odd
prime 3 <= q < 2^63 works, so that the sum of two elements fits in uint64;
tiny primes (e.g. 7) enable exhaustive secrecy tests.
Matrix products mod M61 (_matmul_mod, behind Shamir sharing) run exactly
on float64 BLAS over 21-bit limbs. _centered gives elements as their
centered integers, from which verification takes its partial inner
products (see verify); FieldVector.inner is the exact uint64 oracle.

Real vectors enter the field through a centered fixed-point codec:
encode(x) = round(x * 2^f) mod q with round-half-away-from-zero, decoded
via the representative in [-q/2, q/2). Three fractional-bit roles are
used by the protocol: shares/keys (f_share), scale factors (g_scale) and
model submissions (f_model = f_share + g_scale).
"""

import functools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import (
    ConfigurationError,
    EncodingOverflowError,
    FieldMismatchError,
    NonFiniteValueError,
)

M61 = (1 << 61) - 1  # default modulus, 2^61 - 1

# Default fractional bits per role.
F_SHARE = 20
G_SCALE = 16
F_MODEL = F_SHARE + G_SCALE

_MASK31 = np.uint64((1 << 31) - 1)
_MASK30 = np.uint64((1 << 30) - 1)
_MASK32 = np.uint64(0xFFFFFFFF)
_MASK29 = np.int64((1 << 29) - 1)
_MASK21 = np.uint64((1 << 21) - 1)
_U61 = np.uint64(61)
_U31 = np.uint64(31)
_U30 = np.uint64(30)
_U1 = np.uint64(1)

# Most words a blockwise pass handles at once (512 KB): a block and its
# temporaries stay in L2 cache, and their memory is bounded whatever the
# array size.
_BLOCK_WORDS = 1 << 16
# Inner-dimension rows _matmul_mod multiplies in one pass: a limb-shift group
# adds at most 3 limb products below 2^42 per row, and 3 * 682 * 2^42 < 2^53.
_EXACT_ROWS = (1 << 53) // (3 << 42)


@functools.lru_cache(maxsize=64)
def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24; cached per n."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def reduce_once(x: np.ndarray, q: int) -> np.ndarray:
    """x mod q in place, for uint64 arrays below 2q: min(x, x - q), as x - q
    wraps above q when x < q < 2^63. Arrays only: a uint64 scalar warns."""
    return np.minimum(x, x - np.uint64(q), out=x)


def _mulmod_m61(a, b):
    """Elementwise (a*b) mod M61 on uint64 arrays, values < M61.

    Split into 31/30-bit limbs so every intermediate fits in 64 bits:
    a*b = a1*b1*2^62 + (a1*b0 + a0*b1)*2^31 + a0*b0, with 2^61 = 1 (mod M61).
    """
    a0 = a & _MASK31
    a1 = a >> _U31
    b0 = b & _MASK31
    b1 = b >> _U31
    hi = (a1 * b1) << _U1              # *2^62 = *2 mod M61, < 2^61
    mid = a1 * b0 + a0 * b1            # < 2^62
    # mid*2^31 = (mid >> 30)*2^61 + (mid & mask30)*2^31 = (mid>>30) + low<<31
    x = hi + (mid >> _U30) + ((mid & _MASK30) << _U31) + a0 * b0  # < 2^63
    m = np.uint64(M61)
    x = (x >> _U61) + (x & m)
    x = (x >> _U61) + (x & m)   # <= M61
    return reduce_once(x, M61)


def _fold(hi: np.ndarray, lo: np.ndarray, q: int) -> np.ndarray:
    """(hi * 2^32 + lo) mod q as uint64, for split sums held as wrapping
    uint64 (two's complement) arrays; ``hi`` is overwritten for M61."""
    h, l = hi.view(np.int64), lo.view(np.int64)
    if q != M61:
        return (((h.astype(object) << 32) + l) % q).astype(np.uint64)
    # h * 2^32 = (h >> 29) * 2^61 + (h & mask29) * 2^32, and 2^61 = 1 mod M61
    top = h >> 29
    h &= _MASK29
    h <<= 32
    h += top
    h += l
    np.mod(h, np.int64(q), out=h)
    return hi


def _limb_rows(x: np.ndarray) -> np.ndarray:
    """The three 21-bit limbs of uint64 values below 2^63 as float64,
    stacked limb-major: shape (3, *x.shape)."""
    out = np.empty((3,) + x.shape)
    for i in range(3):
        out[i] = (x >> np.uint64(21 * i)) & _MASK21
    return out


def _shift_operand(a: np.ndarray) -> np.ndarray:
    """A's limbs laid out so that one float64 product with B's stacked
    limbs yields the partials of limb shifts 0, 21 and 42 (mod 61).

    A*B = sum_ij A_i B_j 2^(21(i+j)); the shifts 63 and 84 reduce to 2 and
    23 since 2^61 = 1 (mod M61), so they enter the shift-0 and shift-21
    rows with an exact factor 4. For entries below 2^61 the top limbs are
    below 2^19, so every product is an integer below 2^42.
    """
    a0, a1, a2 = _limb_rows(a)
    return np.block([[a0, 4 * a2, 4 * a1],
                     [a1, a0, 4 * a2],
                     [a2, a1, a0]])


def _matmul_m61(a_shift: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(A @ B) mod M61 for one pass of at most _EXACT_ROWS inner rows.

    Each partial is a sum of at most 3 * _EXACT_ROWS integers below 2^42,
    so below 2^53: float64 BLAS sums it exactly in any order. The partial
    of shift e is folded with x * 2^e = ((x << e) & M61) | (x >> (61-e)).
    """
    n, w = b.shape
    m = a_shift.shape[0] // 3
    parts = (a_shift @ _limb_rows(b).reshape(3 * n, w)).astype(np.uint64)
    q = np.uint64(M61)
    x = parts[:m]
    for k, e in ((1, 21), (2, 42)):
        v = parts[k * m:(k + 1) * m]
        x += ((v << np.uint64(e)) & q) | (v >> np.uint64(61 - e))
    x = (x >> _U61) + (x & q)  # the 3 terms sum below 2^53 + 2^62
    return reduce_once(x, M61)


def _matmul_mod(a: np.ndarray, b: np.ndarray, params: "FieldParams") -> np.ndarray:
    """(A @ B) mod q, exactly, for uint64 matrices with entries in [0, q).

    For M61 both operands are split into 21-bit limbs and multiplied with
    float64 BLAS (_matmul_m61), in passes of at most _EXACT_ROWS inner rows;
    for any other q the product is taken over Python ints. The columns of B
    are evaluated in blocks of about _BLOCK_WORDS words.
    """
    q = params.modulus
    (m, n), p = a.shape, b.shape[1]
    out = np.empty((m, p), dtype=np.uint64)
    width = max(1, _BLOCK_WORDS // max(m, n))
    if q != M61:
        a_obj = a.astype(object)
        for c0 in range(0, p, width):
            out[:, c0:c0 + width] = (a_obj @ b[:, c0:c0 + width].astype(object)) % q
        return out
    passes = [(r0, _shift_operand(a[:, r0:r0 + _EXACT_ROWS]))
              for r0 in range(0, n, _EXACT_ROWS)]
    for c0 in range(0, p, width):
        acc = None
        for r0, a_shift in passes:
            part = _matmul_m61(a_shift, b[r0:r0 + _EXACT_ROWS, c0:c0 + width])
            if acc is None:
                acc = part
            else:
                acc += part
                reduce_once(acc, q)
        out[:, c0:c0 + width] = acc
    return out


def _centered(vals: np.ndarray, q: int) -> np.ndarray:
    """Elements of [0, q) as their representatives in [-(q-1)/2, (q-1)/2],
    int64 (q < 2^63, so every element fits)."""
    signed = vals.astype(np.int64)
    return np.where(vals > np.uint64((q - 1) // 2), signed - np.int64(q), signed)


@dataclass(frozen=True)
class FieldParams:
    """An odd prime modulus q; all element values lie in [0, q)."""

    modulus: int = M61

    def __post_init__(self):
        if not 3 <= self.modulus < 1 << 63 or not _is_prime(self.modulus):
            raise ConfigurationError(f"modulus {self.modulus} is not an odd prime in [3, 2^63)")

    # -- scalar ops (Python ints) --

    def _check(self, other: "FieldParams"):
        if self.modulus != other.modulus:
            raise FieldMismatchError(
                f"modulus mismatch: {self.modulus} vs {other.modulus}"
            )

    def mul(self, a: int, b: int) -> int:
        return a * b % self.modulus

    def inv(self, a: int) -> int:
        if a % self.modulus == 0:
            raise ZeroDivisionError("no inverse of 0 in a prime field")
        return pow(a, self.modulus - 2, self.modulus)

    def uniform(self, rng: np.random.Generator, size) -> np.ndarray:
        """Unbiased uniform field elements via rejection below the largest
        multiple of q representable in 64 bits; each accepted word is taken
        mod q, for M61 as the fold (x & q) + (x >> 61) below 2q. A draw with
        no rejected word is used whole, without a compressed copy."""
        q = self.modulus
        limit = ((1 << 64) // q) * q
        out = np.empty(size, dtype=np.uint64)
        flat = out.reshape(-1)
        n = flat.size
        filled = 0
        while filled < n:
            draw = rng.integers(0, 1 << 64, size=n - filled, dtype=np.uint64)
            ok = draw < limit
            take = draw if ok.all() else draw[ok]
            dst = flat[filled:filled + take.size]
            if q == M61:
                # x = (x >> 61) * 2^61 + (x & q) with 2^61 = 1 mod q, a sum
                # below q + 8; then reduce_once's min(x, x - q), with take
                # as its scratch so that no temporary is allocated
                np.bitwise_and(take, np.uint64(q), out=dst)
                take >>= _U61
                dst += take
                np.minimum(dst, np.subtract(dst, np.uint64(q), out=take), out=dst)
            else:
                np.remainder(take, np.uint64(q), out=dst)
            filled += take.size
        return out


class FieldVector:
    """Fixed-length vector over F_q backed by a uint64 array."""

    __slots__ = ("values", "params")

    def __init__(self, values, params: FieldParams):
        arr = np.asarray(values, dtype=np.uint64)
        if arr.ndim != 1:
            raise ConfigurationError("FieldVector must be one-dimensional")
        if arr.size and int(arr.max()) >= params.modulus:
            raise ConfigurationError("element out of range [0, q)")
        self.values = arr
        self.params = params

    @staticmethod
    def _of(values: np.ndarray, params: FieldParams) -> "FieldVector":
        """A vector of uint64 ``values`` already in [0, q), taken unchecked."""
        out = FieldVector.__new__(FieldVector)
        out.values, out.params = values, params
        return out

    def __len__(self):
        return self.values.size

    def __eq__(self, other):
        return (
            isinstance(other, FieldVector)
            and self.params.modulus == other.params.modulus
            and np.array_equal(self.values, other.values)
        )

    def __repr__(self):
        return f"FieldVector(len={len(self)}, q={self.params.modulus})"

    def _binary_check(self, other: "FieldVector"):
        self.params._check(other.params)
        if len(self) != len(other):
            raise ConfigurationError("length mismatch")

    def add(self, other: "FieldVector") -> "FieldVector":
        self._binary_check(other)
        return FieldVector._of(reduce_once(self.values + other.values, self.params.modulus),
                               self.params)

    def sub(self, other: "FieldVector") -> "FieldVector":
        self._binary_check(other)
        q = np.uint64(self.params.modulus)
        return FieldVector._of(reduce_once(self.values + (q - other.values), q), self.params)

    def scalar_mul(self, s: int) -> "FieldVector":
        """Multiply every coordinate by the public integer s (mod q)."""
        q = self.params.modulus
        s = s % q
        if q == M61:
            return FieldVector._of(_mulmod_m61(self.values, np.uint64(s)), self.params)
        return FieldVector._of(np.array([s * int(v) % q for v in self.values], dtype=np.uint64),
                               self.params)

    def inner(self, other: "FieldVector") -> int:
        """<self, other> mod q, exact; the oracle behind verify_direct."""
        self._binary_check(other)
        q = self.params.modulus
        if q != M61:
            return sum(int(a) * int(b) for a, b in zip(self.values, other.values)) % q
        prod = _mulmod_m61(self.values, other.values)
        # split-sum so the accumulation never overflows uint64
        lo = int((prod & np.uint64(0xFFFFFFFF)).sum(dtype=np.uint64))
        hi = int((prod >> np.uint64(32)).sum(dtype=np.uint64))
        return ((hi << 32) + lo) % q

    def words(self) -> bytes:
        """The elements as little-endian 8-byte words."""
        return self.values.astype("<u8").tobytes()

    @classmethod
    def zeros(cls, d: int, params: FieldParams) -> "FieldVector":
        return cls(np.zeros(d, dtype=np.uint64), params)


@dataclass(frozen=True)
class FixedPointCodec:
    """Centered fixed-point real <-> field conversion at f fractional bits.

    Encodable range is |x| < q / 2^(f+1); decode(encode(x)) is within
    2^-(f+1) of x. Rounding is half-away-from-zero for cross-platform
    determinism.
    """

    frac_bits: int
    params: FieldParams = dc_field(default_factory=FieldParams)

    def __post_init__(self):
        if self.frac_bits < 0 or 2 << self.frac_bits >= self.params.modulus:
            raise ConfigurationError(f"{self.frac_bits} fractional bits: need 0 <= f "
                                     f"and 2^f < q/2 for q = {self.params.modulus}")

    @property
    def limit(self) -> float:
        return self.params.modulus / 2.0 ** (self.frac_bits + 1)

    def encode(self, x) -> FieldVector:
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        bad = ~(np.abs(x) < self.limit)  # also true for NaN
        if bad.any():
            nonfinite = ~np.isfinite(x)
            if nonfinite.any():
                i = int(np.argmax(nonfinite))
                raise NonFiniteValueError(i, float(x[i]))
            i = int(np.argmax(bad))
            raise EncodingOverflowError(i, float(x[i]), self.limit)
        # q + round(x 2^f), wrapping, is in [0, 2q); -0.0 gives q, reduced to 0
        q = self.params.modulus
        vals = np.copysign(np.floor(np.abs(x) * 2.0 ** self.frac_bits + 0.5), x)
        vals = vals.astype(np.int64).view(np.uint64) + np.uint64(q)
        return FieldVector._of(reduce_once(vals, q), self.params)

    def decode_centered(self, v: FieldVector) -> np.ndarray:
        """Interpret each element as its centered representative and rescale."""
        self.params._check(v.params)
        return self.decode_values(v.values)

    def decode_values(self, vals: np.ndarray) -> np.ndarray:
        return _centered(vals, self.params.modulus).astype(np.float64) / 2.0 ** self.frac_bits

    def decode_scalar(self, v: int) -> float:
        return float(self.decode_values(np.array([v], dtype=np.uint64))[0])


@dataclass(frozen=True)
class ProtocolCodecs:
    """The three codec roles used by the protocol, over one common field."""

    params: FieldParams = dc_field(default_factory=FieldParams)
    f_share: int = F_SHARE
    g_scale: int = G_SCALE

    def __post_init__(self):
        for name in ("f_share", "g_scale"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative, "
                                         f"got {getattr(self, name)}")

    @property
    def f_model(self) -> int:
        return self.f_share + self.g_scale

    @property
    def share(self) -> FixedPointCodec:
        return FixedPointCodec(self.f_share, self.params)

    @property
    def scale(self) -> FixedPointCodec:
        return FixedPointCodec(self.g_scale, self.params)

    @property
    def model(self) -> FixedPointCodec:
        return FixedPointCodec(self.f_model, self.params)


@dataclass(frozen=True)
class BoundReport:
    """Worst-case centered magnitudes of protocol aggregates vs q/2."""

    model_aggregate_bound: float
    verification_bound: float
    limit: float
    ok: bool

    def raise_if_failed(self):
        if not self.ok:
            raise ConfigurationError(
                "aggregate overflow bound exceeded "
                f"(model sum {self.model_aggregate_bound:.3e}, "
                f"verification {self.verification_bound:.3e}, limit {self.limit:.3e}); "
                "reduce fractional bits, dimension d, or client count"
            )


# |tau|_inf bound used in overflow accounting; tau is i.i.d. standard normal
# so 8 standard deviations is far beyond any realistic coordinate.
TAU_INF_BOUND = 8.0


def _pow2(bits: int) -> float:
    """2^bits, or inf where a float overflows: a bound then fails, not raises."""
    return 2.0 ** bits if bits < 1024 else math.inf


def verification_bound(d: int, theta_max: float, f_share: int) -> float:
    """Worst-case centered magnitude of <enc(theta), enc(tau)> at f_share bits."""
    return d * theta_max * TAU_INF_BOUND * _pow2(2 * f_share)


def check_aggregate_bound(
    d: int,
    K: int,
    theta_max: float,
    scale_max: float,
    codecs: ProtocolCodecs,
) -> BoundReport:
    """Guard both decodes the protocol performs against wraparound.

    (i) the model-sum aggregate K*theta_max*2^f_model plus the watermark
    term scale_max*2^g_scale * TAU_INF_BOUND * 2^f_share, and (ii) the
    verification inner product d*theta_max*TAU_INF_BOUND*2^(2*f_share),
    must both stay below q/2 in centered magnitude.
    """
    if d < 1 or K < 1 or theta_max < 0 or scale_max < 0:
        raise ConfigurationError("d, K must be positive; magnitudes non-negative")
    limit = codecs.params.modulus / 2.0
    model_sum = (
        K * theta_max * _pow2(codecs.f_model)
        + scale_max * _pow2(codecs.g_scale) * TAU_INF_BOUND * _pow2(codecs.f_share)
    )
    verif = verification_bound(d, theta_max, codecs.f_share)
    ok = model_sum < limit and verif < limit
    return BoundReport(model_sum, verif, limit, ok)
