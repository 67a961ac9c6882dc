"""Simulated secure aggregation via pairwise additive masks on a sparse graph.

The server-side view is modeled explicitly: a session records only the
masked client submissions and the final sum. Pair masks are drawn only for
the edges of a Harary graph H(k, n) over the n participants, with
k = mask_degree(n) = 2 * ceil(log2 n) (SecAgg+, Bell et al., CCS 2020).
For each edge one client adds the mask and the other subtracts it, so
masks cancel and the sum of masked submissions equals the field sum of the
raw inputs, bit-exactly (Bonawitz et al., CCS 2017).

Graph. Participants sit in circulant slots 0..n-1, and slot a is joined
to slots a +- 1, ..., a +- k/2 mod n, so every client has exactly k
neighbours and the graph stays connected after removing any k-1 clients.
The slot of each participant comes from a permutation drawn from its own
stream keyed by (session_seed, round_id). When k >= n - 1 (n <= 7 or
n = 9) the graph is complete, k is n - 1, and the slots are the sorted
participant positions, which is the all-pairs protocol.

Collusion bound. The server together with at most k - 1 clients cannot
isolate an honest client's input: the honest clients stay connected, so
their masks only cancel in the sum over all of them. The all-pairs
protocol held against the server plus n - 2 clients. At n = 32 the bound
is 9 clients, at n = 128 it is 13. The slots follow from the session seed,
so the bound holds against a coalition chosen knowing the graph.

Stream layout. All of a session's pair masks come from one PCG64 stream
keyed by (session_seed, round_id); it stands in for the per-pair PRG seeds
that a key agreement would give each pair of clients. The stream is laid
out offset-major: with r = k - k // 2, the edge from slot a to slot
(a + j) mod n, j = 1..r, owns row (j - 1) * n + a, the d raw words from
that row times d. Slot a adds the row's mask and slot (a + j) mod n
subtracts it. When n is even and the graph complete, offset n/2 joins each
pair twice, so it has only the rows a < n/2; a session has n * k / 2 rows.
A single edge's row can be read with ``PCG64.advance``; the tests'
reference module (tests/reference.py) finds it with ``_edge``. Raw
words map to field elements exactly: for M61 by the top 61 bits, rejecting
the one value equal to q; for any other q by ``% q`` below the largest
multiple of q under 2^64. A rejected word is replaced by a draw from a
fallback stream keyed by the session and the pair's participant ids, which
leaves every other edge's row in place.

Net masks are formed with numpy over rows in slot order, for any range
of slots a0..a1-1 (``net_masks``; the whole session is 0..n-1). A range
reads only the rows its slots send or receive: at offset j those that
slots a0..a1-1 send and those that slots a0-j..a1-j-1 mod n send to them,
merged into spans of consecutive rows (``_spans``), reached with
``PCG64.advance`` and read in blocks of at most _BLOCK_WORDS words. Row
(j - 1) * n + a is sent by slot a to slot (a + j) mod n, so within a
block each offset's rows are added in three clipped numpy calls whatever
d is, by sender and by receiver (those past slot n - 1 wrapped back to
slot 0), to a plain uint64 sum of the rows each slot sends and one of
those it receives. A slot sends and receives at most one row per
offset, so the sums are reduced only when one more offset could pass
2^64 (M61: before the ninth, n > 256; q near 2^63: before each from the
third), and (sent - received) mod q is formed once, for M61 by the fold
(x & q) + (x >> 61). A slot's mask is the same residue in any range, so
ranges give the whole session's rows bit for bit. The processes that
train a round's clients each ``mask`` the submissions of a range of the
model session's slots (protocol.ClientTrainer), and the server step
``reveal`` only sums them. Every session takes this path.

The participant set is frozen before submissions; dropout recovery is
deliberately not modeled.
"""

import functools
import operator
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import ConfigurationError, ProtocolAbortError
from .field import _BLOCK_WORDS, _MASK32, M61, FieldParams, FieldVector, _fold, reduce_once

def mask_degree(n: int) -> int:
    """Neighbours k of each client in a session of n: 2 * ceil(log2 n),
    or n - 1 when that many or more would make the graph complete."""
    return max(0, min(n - 1, 2 * (n - 1).bit_length()))


def _reach(n: int) -> int:
    """Largest offset r of an edge in a session of n: slot a sends to
    slots a + 1 .. a + r mod n."""
    k = mask_degree(n)
    return k - k // 2


@functools.lru_cache(maxsize=64)
def _spans(a0: int, a1: int, n: int) -> tuple:
    """The stream rows that slots a0 .. a1 - 1 of a session of n send or
    receive, as ascending spans [r0, r1), those that meet merged. At
    offset j these are the rows sent by slots a0 .. a1 - 1 and by slots
    a0 - j .. a1 - j - 1 mod n, each once."""
    rows, spans = n * mask_degree(n) // 2, []
    for j in range(1, _reach(n) + 1):
        end = min(n, rows - (j - 1) * n)   # offset j's senders are slots below end
        # one range of senders unless the range is narrower than j
        senders = ((a0 - j, a1 - j), (a0, a1)) if a1 - j < a0 else ((max(a0 - j, a1 - n), a1),)
        # the slots from 0 on, then those below 0 wrapped past slot n - 1
        for s0, s1 in [(max(v0, 0), v1) for v0, v1 in senders] + [
                (v0 + n, min(v1, 0) + n) for v0, v1 in senders]:
            r0, r1 = (j - 1) * n + s0, (j - 1) * n + min(s1, end)
            if spans and spans[-1][1] == r0 < r1:
                spans[-1][1] = r1
            elif r0 < r1:
                spans.append([r0, r1])
    return tuple(map(tuple, spans))


def _mod(x: np.ndarray, q: int, spare: np.ndarray):
    """x mod q in place; for M61 only down to at most q + 7, as the fold
    (x & q) + (x >> 61), since 2^61 = 1 mod q. ``spare``: scratch of x's shape."""
    if q != M61:
        np.remainder(x, np.uint64(q), out=x)
        return
    np.bitwise_and(x, np.uint64(q), out=spare)
    x >>= np.uint64(61)
    x += spare


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
    _slot: np.ndarray = dc_field(init=False, repr=False, compare=False)  # slot of position p

    def __post_init__(self):
        self.participants = tuple(sorted(self.participants))
        if len(set(self.participants)) != len(self.participants):
            raise ConfigurationError("duplicate participants")
        n = len(self.participants)
        if mask_degree(n) >= n - 1:
            self._slot = np.arange(n)
        else:
            seq = np.random.SeedSequence((self.session_seed, self.round_id), spawn_key=(0,))
            self._slot = np.random.Generator(np.random.PCG64(seq)).permutation(n)

    def _stream(self) -> np.random.PCG64:
        return np.random.PCG64(np.random.SeedSequence((self.session_seed, self.round_id)))

    def _rows(self, raw: np.ndarray, row0: int) -> np.ndarray:
        """Field elements, in place, from the raw words of the stream rows
        row0, row0 + 1, ..., one per row of ``raw``."""
        q = self.params.modulus
        if q == M61:
            raw >>= np.uint64(3)     # 61 uniform bits; only the value q is rejected
            limit = q
        else:
            limit = ((1 << 64) // q) * q
        if int(raw.max(initial=0)) >= limit:
            bad = raw >= np.uint64(limit)
            n = len(self.participants)
            at = np.argsort(self._slot)   # position at each slot
            for i in np.flatnonzero(bad.any(axis=1)):
                j, a = divmod(row0 + int(i), n)
                ids = sorted(self.participants[at[s]] for s in (a, (a + j + 1) % n))
                seq = np.random.SeedSequence((self.session_seed, self.round_id, *ids))
                rng = np.random.Generator(np.random.PCG64(seq))
                raw[i, bad[i]] = self.params.uniform(rng, int(bad[i].sum()))
        if q != M61:
            raw %= np.uint64(q)
        return raw

    def net_masks(self, a0: int = 0, a1: int = None) -> np.ndarray:
        """(a1 - a0, d) net masks of slots a0 .. a1 - 1, in slot order: row
        _slot[p] - a0 for the participant at position p. The whole session
        by default; reads only the stream rows these slots send or receive."""
        n, d, q = len(self.participants), self.d, self.params.modulus
        a1 = n if a1 is None else a1
        m = a1 - a0
        sent, (got, spare) = np.zeros((m, d), np.uint64), np.zeros((2, m, d), np.uint64)
        # a slot sends and receives at most one row below q per offset, and
        # `room` such rows sum below 2^64; a reduced sum counts as one row
        # (for M61 one row plus 8: 8q < 2^64 still)
        room, held, offset = (2**64 - 1) // (q - 1), 0, 0
        stream, at = self._stream(), 0
        step = max(1, _BLOCK_WORDS // d)
        for s0, s1 in _spans(a0, a1, n):
            for b0 in range(s0, s1, step):
                b1 = min(b0 + step, s1)
                stream.advance((b0 - at) * d)
                at = b1
                block = self._rows(stream.random_raw((b1 - b0) * d).reshape(-1, d), b0)
                for j in range(b0 // n + 1, (b1 - 1) // n + 2):   # the offsets of rows b0 .. b1 - 1
                    if j > offset:
                        if held == room:
                            _mod(sent, q, spare)
                            _mod(got, q, spare)
                            held = 1
                        held, offset = held + 1, j
                    c0, c1 = max(b0, (j - 1) * n), min(b1, j * n)
                    x = c0 - (j - 1) * n - a0     # the sender of row c0, counted from a0
                    rows = block[c0 - b0:c1 - b0]
                    # senders from a0 on, and their receivers j slots on,
                    # those past slot n - 1 wrapped back to slot 0
                    for acc, y in ((sent, x), (got, x + j), (got, x + j - n)):
                        lo, hi = max(y, 0), min(y + c1 - c0, m)
                        if lo < hi:
                            acc[lo:hi] += rows[lo - y:hi - y]
        _mod(sent, q, spare)        # below q, for M61 at most q + 7
        _mod(got, q, spare)
        sent += np.uint64(2 * q if q == M61 else q)
        sent -= got
        if q == M61:
            _mod(sent, q, spare)    # from at most 3q + 7 to q + 3
        # reduce_once, with spare as its scratch
        return np.minimum(sent, np.subtract(sent, np.uint64(q), out=spare), out=sent)

    def mask(self, rows: np.ndarray, a0: int = 0) -> np.ndarray:
        """``rows``, the field elements of slots a0, a0 + 1, ..., plus their
        net masks mod q, in place: the submissions those clients send."""
        rows += self.net_masks(a0, a0 + len(rows))   # both < q < 2^63
        return reduce_once(rows, self.params.modulus)


def _check_participants(inputs: dict, session: SecAggSession):
    if set(inputs) != set(session.participants):
        raise ProtocolAbortError(
            f"round {session.round_id}: submissions {sorted(inputs)} do not match "
            f"participants {list(session.participants)}"
        )


def reveal(masked: np.ndarray, session: SecAggSession) -> FieldVector:
    """The server's step: the field sum of the rows of ``masked``, the (n, d)
    masked submissions in slot order, each in [0, q). Logs every
    participant's row, a view, as its observation and sets the output."""
    session.observations.extend(
        (k, masked[slot]) for k, slot in zip(session.participants, session._slot))
    session.output = FieldVector._of(_fold((masked >> 32).sum(axis=0),
                                           (masked & _MASK32).sum(axis=0),
                                           session.params.modulus), session.params)
    return session.output


def secagg_scalar(inputs: dict, session: SecAggSession) -> int:
    """Scalar (d = 1) secure sum of integer inputs in [0, q)."""
    if session.d != 1:
        raise ConfigurationError("secagg_scalar requires a d=1 session")
    _check_participants(inputs, session)
    q = session.params.modulus
    values = []
    for k in session.participants:
        try:
            v = operator.index(inputs[k])
        except TypeError:
            v = None
        if v is None or not 0 <= v < q:
            raise ConfigurationError(f"round {session.round_id}: client {k} submitted "
                                     f"{inputs[k]!r}, not an integer in [0, q)")
        values.append(v)
    rows = np.empty((len(values), 1), dtype=np.uint64)
    rows[session._slot, 0] = values
    return int(reveal(session.mask(rows), session).values[0])
