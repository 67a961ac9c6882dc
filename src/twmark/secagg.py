"""Simulated secure aggregation via pairwise additive masking.

The server-side view is modeled explicitly: a session records only the
masked client submissions and the final sum. For every unordered pair of
participant positions (a, b) with a < b a mask vector is drawn; the
lower-positioned client adds it and the higher one subtracts it, so masks
cancel and the sum of masked submissions equals the field sum of the raw
inputs, bit-exactly.

All of a session's pair masks come from one PCG64 stream keyed by
(session_seed, round_id); it stands in for the per-pair PRG seeds that a
key agreement would give each pair of clients. The stream is laid out
pair-major: pair (a, b) owns the d raw words starting at offset
pair_index(a, b, n) * d, so the (n-1-a, d) rows of one sender a are
contiguous and are drawn together (in blocks of at most _BLOCK_WORDS
words), and a single pair's row can be read with ``PCG64.advance``. Raw words map to field elements exactly: for M61
by the top 61 bits, rejecting the one value equal to q; for any other q
by ``% q`` below the largest multiple of q under 2^64. A rejected word is
replaced by a draw from a fallback stream keyed by the session and the
pair, which leaves every other pair's offset in place. Net masks are
formed with numpy: each block's 32-bit halves are column-summed into the
sender's row and subtracted from the rows of the later peers, and the
split sums are reduced mod q once at the end.

The participant set is frozen before submissions; dropout recovery is
deliberately not modeled.
"""

import hashlib
import json
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import ConfigurationError, ProtocolAbortError
from .field import M61, FieldParams, FieldVector

# Most raw words drawn at once (512 KB): a block, its top half and the rows
# it updates stay in L2 cache, and block memory is bounded whatever n*d is.
_BLOCK_WORDS = 1 << 16
_MASK32 = np.uint64(0xFFFFFFFF)
_MASK29 = np.int64((1 << 29) - 1)


def pair_index(a: int, b: int, n: int) -> int:
    """Position of the pair (a, b), a < b, in the pair-major order of n."""
    return a * (2 * n - a - 1) // 2 + b - a - 1


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


@dataclass
class SecAggSession:
    """One aggregation round: fixed participants, logged observations."""

    round_id: int
    participants: tuple
    d: int
    params: FieldParams
    session_seed: int
    observations: list = dc_field(default_factory=list)  # (client, masked uint64 array)
    output: FieldVector = None

    def __post_init__(self):
        self.participants = tuple(sorted(self.participants))
        if len(set(self.participants)) != len(self.participants):
            raise ConfigurationError("duplicate participants")

    def _stream(self) -> np.random.PCG64:
        return np.random.PCG64(np.random.SeedSequence((self.session_seed, self.round_id)))

    def _rows(self, raw: np.ndarray, a: int, b0: int) -> np.ndarray:
        """Field elements, in place, from the raw words of pairs (a, b0), (a, b0+1), ..."""
        q = self.params.modulus
        if q == M61:
            raw >>= np.uint64(3)     # 61 uniform bits; only the value q is rejected
            limit = q
        else:
            limit = ((1 << 64) // q) * q
        if int(raw.max()) >= limit:
            bad = raw >= np.uint64(limit)
            for r in np.flatnonzero(bad.any(axis=1)):
                seq = np.random.SeedSequence((self.session_seed, self.round_id,
                                              self.participants[a],
                                              self.participants[b0 + r]))
                rng = np.random.Generator(np.random.PCG64(seq))
                raw[r, bad[r]] = self.params.uniform(rng, int(bad[r].sum()))
        if q != M61:
            raw %= np.uint64(q)
        return raw

    def _net_masks(self) -> np.ndarray:
        """(n, d) net masks, row a for the participant at position a."""
        n, d, q = len(self.participants), self.d, self.params.modulus
        # split sums of the signed mask terms; uint64 wraps as two's complement
        hi = np.zeros((n, d), dtype=np.uint64)
        lo = np.zeros((n, d), dtype=np.uint64)
        stream = self._stream()
        step = max(1, _BLOCK_WORDS // d)
        for a in range(n - 1):
            for b0 in range(a + 1, n, step):
                b1 = min(b0 + step, n)
                block = self._rows(stream.random_raw((b1 - b0) * d).reshape(-1, d), a, b0)
                top = block >> 32
                block &= _MASK32
                hi[a] += top.sum(axis=0)
                lo[a] += block.sum(axis=0)
                hi[b0:b1] -= top
                lo[b0:b1] -= block
        return _fold(hi, lo, q)

    def _position(self, k: int) -> int:
        try:
            return self.participants.index(k)
        except ValueError:
            raise ConfigurationError(f"{k} is not a participant") from None

    def pair_mask(self, i: int, j: int) -> FieldVector:
        """Mask of the unordered pair of participants (i, j), i < j."""
        if i >= j:
            raise ConfigurationError("pair masks are keyed by i < j")
        a, b = self._position(i), self._position(j)
        stream = self._stream()
        stream.advance(pair_index(a, b, len(self.participants)) * self.d)
        row = self._rows(stream.random_raw(self.d).reshape(1, -1), a, b)
        return FieldVector(row[0], self.params)

    def client_mask(self, k: int) -> FieldVector:
        """Net mask client k applies: + for higher-positioned peers, - for lower."""
        return FieldVector(self._net_masks()[self._position(k)], self.params)


def secagg_sum(inputs: dict, session: SecAggSession) -> FieldVector:
    """Field sum of the client inputs; the log sees only masked vectors.

    The output is computed by summing the masked submissions, so mask
    cancellation is structural rather than assumed.
    """
    if set(inputs) != set(session.participants):
        raise ProtocolAbortError(
            f"round {session.round_id}: submissions {sorted(inputs)} do not match "
            f"participants {list(session.participants)}"
        )
    for k in session.participants:
        vec = inputs[k]
        session.params._check(vec.params)
        if len(vec) != session.d:
            raise ProtocolAbortError(
                f"round {session.round_id}: client {k} submitted length {len(vec)}, "
                f"expected {session.d}"
            )
    q = np.uint64(session.params.modulus)
    masked = session._net_masks()  # becomes the matrix of masked submissions
    for row, k in zip(masked, session.participants):
        row += inputs[k].values   # both < q < 2^63, no overflow
        np.subtract(row, q, out=row, where=row >= q)
        session.observations.append((k, row))
    acc = FieldVector.__new__(FieldVector)
    acc.values = _fold((masked >> 32).sum(axis=0), (masked & _MASK32).sum(axis=0),
                       session.params.modulus)
    acc.params = session.params
    session.output = acc
    return acc


def secagg_scalar(inputs: dict, session: SecAggSession) -> int:
    """Scalar (d = 1) secure sum."""
    if session.d != 1:
        raise ConfigurationError("secagg_scalar requires a d=1 session")
    vec_inputs = {
        k: FieldVector(np.array([v], dtype=np.uint64), session.params)
        for k, v in inputs.items()
    }
    return int(secagg_sum(vec_inputs, session).values[0])


def write_observation_log(session: SecAggSession, path):
    """Newline-delimited audit records: round, client, masked-vector digest."""
    with open(path, "a") as fh:
        for client, masked in session.observations:
            digest = hashlib.sha256(masked.astype("<u8").tobytes()).hexdigest()
            fh.write(json.dumps(
                {"round": session.round_id, "client": client, "digest": digest}
            ) + "\n")
