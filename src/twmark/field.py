"""Prime-field arithmetic and centered fixed-point encoding.

Field elements are plain Python ints in [0, q); vectors are numpy uint64
arrays wrapped in FieldVector. The default modulus is the Mersenne prime
M61 = 2^61 - 1, for which elementwise multiplication has a vectorized
fast path (products are reduced via the 2^61 = 1 congruence). Any odd
prime q >= 3 works; tiny primes (e.g. 7) enable exhaustive secrecy tests.

Real vectors enter the field through a centered fixed-point codec:
encode(x) = round(x * 2^f) mod q with round-half-away-from-zero, decoded
via the representative in [-q/2, q/2). Three fractional-bit roles are
used by the protocol: shares/keys (f_share), scale factors (g_scale) and
model submissions (f_model = f_share + g_scale).
"""

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
_U61 = np.uint64(61)
_U31 = np.uint64(31)
_U30 = np.uint64(30)
_U1 = np.uint64(1)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24."""
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
    x = (x >> _U61) + (x & m)
    return np.where(x >= m, x - m, x)


@dataclass(frozen=True)
class FieldParams:
    """An odd prime modulus q; all element values lie in [0, q)."""

    modulus: int = M61

    def __post_init__(self):
        if self.modulus < 3 or not _is_prime(self.modulus):
            raise ConfigurationError(f"modulus {self.modulus} is not an odd prime >= 3")

    # -- scalar ops (Python ints) --

    def _check(self, other: "FieldParams"):
        if self.modulus != other.modulus:
            raise FieldMismatchError(
                f"modulus mismatch: {self.modulus} vs {other.modulus}"
            )

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.modulus

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.modulus

    def neg(self, a: int) -> int:
        return (-a) % self.modulus

    def mul(self, a: int, b: int) -> int:
        return a * b % self.modulus

    def inv(self, a: int) -> int:
        if a % self.modulus == 0:
            raise ZeroDivisionError("no inverse of 0 in a prime field")
        return pow(a, self.modulus - 2, self.modulus)

    def uniform(self, rng: np.random.Generator, size) -> np.ndarray:
        """Unbiased uniform field elements via rejection below the largest
        multiple of q representable in 64 bits."""
        q = self.modulus
        limit = ((1 << 64) // q) * q
        out = np.empty(size, dtype=np.uint64)
        flat = out.reshape(-1)
        n = flat.size
        filled = 0
        while filled < n:
            draw = rng.integers(0, 1 << 64, size=n - filled, dtype=np.uint64)
            ok = draw < limit
            take = draw[ok] % np.uint64(q)
            flat[filled:filled + take.size] = take
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
        q = np.uint64(self.params.modulus)
        s = self.values + other.values  # both < q < 2^61, no overflow
        out = FieldVector.__new__(FieldVector)
        out.values = np.where(s >= q, s - q, s)
        out.params = self.params
        return out

    def sub(self, other: "FieldVector") -> "FieldVector":
        self._binary_check(other)
        q = np.uint64(self.params.modulus)
        s = self.values + (q - other.values)
        out = FieldVector.__new__(FieldVector)
        out.values = np.where(s >= q, s - q, s)
        out.params = self.params
        return out

    def scalar_mul(self, s: int) -> "FieldVector":
        """Multiply every coordinate by the public integer s (mod q)."""
        q = self.params.modulus
        s = s % q
        out = FieldVector.__new__(FieldVector)
        out.params = self.params
        if q == M61:
            out.values = _mulmod_m61(self.values, np.uint64(s))
        else:
            out.values = np.array(
                [s * int(v) % q for v in self.values], dtype=np.uint64
            )
        return out

    def mul_elementwise(self, other: "FieldVector") -> "FieldVector":
        self._binary_check(other)
        q = self.params.modulus
        out = FieldVector.__new__(FieldVector)
        out.params = self.params
        if q == M61:
            out.values = _mulmod_m61(self.values, other.values)
        else:
            out.values = np.array(
                [int(a) * int(b) % q for a, b in zip(self.values, other.values)],
                dtype=np.uint64,
            )
        return out

    def inner(self, other: "FieldVector") -> int:
        """<self, other> mod q, exact."""
        prod = self.mul_elementwise(other).values
        # split-sum so the accumulation never overflows uint64
        lo = int((prod & np.uint64(0xFFFFFFFF)).sum(dtype=np.uint64))
        hi = int((prod >> np.uint64(32)).sum(dtype=np.uint64))
        return ((hi << 32) + lo) % self.params.modulus

    # -- serialization: little-endian 8-byte words, length-prefixed --

    def to_bytes(self) -> bytes:
        header = len(self).to_bytes(8, "little")
        return header + self.values.astype("<u8").tobytes()

    def words(self) -> bytes:
        """Raw element words without the length prefix."""
        return self.values.astype("<u8").tobytes()

    @classmethod
    def from_bytes(cls, data: bytes, params: FieldParams) -> "FieldVector":
        n = int.from_bytes(data[:8], "little")
        arr = np.frombuffer(data[8:8 + 8 * n], dtype="<u8").astype(np.uint64)
        return cls(arr, params)

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
        if self.frac_bits < 0:
            raise ConfigurationError("frac_bits must be non-negative")

    @property
    def limit(self) -> float:
        return self.params.modulus / 2.0 ** (self.frac_bits + 1)

    def encode(self, x) -> FieldVector:
        x = np.asarray(x, dtype=np.float64)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        bad = ~(np.abs(x) < self.limit)  # also true for NaN
        if bad.any():
            nonfinite = ~np.isfinite(x)
            if nonfinite.any():
                i = int(np.argmax(nonfinite))
                raise NonFiniteValueError(i, float(x[i]))
            i = int(np.argmax(bad))
            raise EncodingOverflowError(i, float(x[i]), self.limit)
        mag = np.floor(np.abs(x) * 2.0 ** self.frac_bits + 0.5).astype(np.int64)
        q = self.params.modulus
        vals = np.where(x < 0, np.uint64(q) - mag.astype(np.uint64), mag.astype(np.uint64))
        vals = np.where(mag == 0, np.uint64(0), vals)  # -0.0 maps to 0
        vec = FieldVector.__new__(FieldVector)
        vec.values = vals
        vec.params = self.params
        return vec

    def encode_scalar(self, x: float) -> int:
        return int(self.encode(np.array([x])).values[0])

    def decode_centered(self, v: FieldVector) -> np.ndarray:
        """Interpret each element as its centered representative and rescale."""
        self.params._check(v.params)
        return self.decode_values(v.values)

    def decode_values(self, vals: np.ndarray) -> np.ndarray:
        q = self.params.modulus
        half = (q - 1) // 2
        signed = vals.astype(np.int64)
        centered = np.where(vals > np.uint64(half), signed - np.int64(q), signed)
        return centered.astype(np.float64) / 2.0 ** self.frac_bits

    def decode_scalar(self, v: int) -> float:
        return float(self.decode_values(np.array([v], dtype=np.uint64))[0])


@dataclass(frozen=True)
class ProtocolCodecs:
    """The three codec roles used by the protocol, over one common field."""

    params: FieldParams = dc_field(default_factory=FieldParams)
    f_share: int = F_SHARE
    g_scale: int = G_SCALE
    f_model: int = F_MODEL

    def __post_init__(self):
        if self.f_model != self.f_share + self.g_scale:
            raise ConfigurationError("f_model must equal f_share + g_scale")

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


def check_aggregate_bound(
    d: int,
    K: int,
    theta_max: float,
    scale_max: float,
    codecs: ProtocolCodecs,
    tau_inf_bound: float = TAU_INF_BOUND,
) -> BoundReport:
    """Guard both decodes the protocol performs against wraparound.

    (i) the model-sum aggregate K*theta_max*2^f_model plus the watermark
    term scale_max*2^g_scale * tau_bound * 2^f_share, and (ii) the
    verification inner product d*theta_max*tau_bound*2^(2*f_share),
    must both stay below q/2 in centered magnitude.
    """
    if d < 1 or K < 1 or theta_max < 0 or scale_max < 0:
        raise ConfigurationError("d, K must be positive; magnitudes non-negative")
    limit = codecs.params.modulus / 2.0
    model_sum = (
        K * theta_max * 2.0 ** codecs.f_model
        + scale_max * 2.0 ** codecs.g_scale * tau_inf_bound * 2.0 ** codecs.f_share
    )
    verif = d * theta_max * tau_inf_bound * 2.0 ** (2 * codecs.f_share)
    ok = model_sum < limit and verif < limit
    return BoundReport(model_sum, verif, limit, ok)
