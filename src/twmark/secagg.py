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
A single edge's row (``_edge``) can be read with ``PCG64.advance``. Raw
words map to field elements exactly: for M61 by the top 61 bits, rejecting
the one value equal to q; for any other q by ``% q`` below the largest
multiple of q under 2^64. A rejected word is replaced by a draw from a
fallback stream keyed by the session and the pair's participant ids, which
leaves every other edge's row in place.

Net masks are formed with numpy over rows in slot order, as split sums of
the 32-bit halves of the mask words, reduced mod q once at the end, for
any range of slots a0..a1-1 (``net_masks``; the whole session is 0..n-1).
A range reads only the rows its slots send or receive: at offset j those
that slots a0..a1-1 send and those that slots a0-j..a1-j-1 mod n send to
them, reached with ``PCG64.advance`` and read in blocks of at most
_BLOCK_WORDS words. Within a block the rows of one offset are a run of
senders and of receivers j slots on, so each run costs four numpy calls
whatever d is: its halves are added to the sender rows and subtracted
from the receiver rows. Receivers past slot a1 - 1 land in r extra rows,
and those past slot n - 1 are folded back once. A slot's mask sums the
same exact integers in whichever range it is formed, so ranges give the
rows of the whole session bit for bit. The processes that train a
round's clients form the model session's ranges and their submissions
ahead of ``secagg_sum`` (protocol.ClientTrainer), which adds the two and
reveals with one branch-free reduction. Every session takes this path.

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
def _runs(a0: int, a1: int, n: int) -> tuple:
    """The stream rows that slots a0 .. a1 - 1 of a session of n send or
    receive, as ascending runs (r0, r1, j, x): rows r0 .. r1 - 1 are the
    edges at offset j sent by the slots at x, x + 1, ... counted from a0,
    so their receivers are at x + j, .... At offset j these are the slots
    a0 - j .. a1 - j - 1 and a0 .. a1 - 1 mod n, each once; x < 0 for
    those below a0. Also the spans [r0, r1) of runs that follow each other
    in the stream, merged."""
    rows, runs = n * mask_degree(n) // 2, []
    for j in range(1, _reach(n) + 1):
        end = min(n, rows - (j - 1) * n)   # offset j's senders are slots below end
        # one range of senders unless the range is narrower than j
        senders = ((a0 - j, a1 - j), (a0, a1)) if a1 - j < a0 else ((max(a0 - j, a1 - n), a1),)
        for v0, v1 in senders:
            for w0, w1, wrap in ((v0, min(v1, 0), n), (max(v0, 0), v1, 0)):
                s0, s1 = w0 + wrap, min(w1 + wrap, end)   # slots, below 0 wrapped
                if s0 < s1:
                    runs.append(((j - 1) * n + s0, (j - 1) * n + s1, j, w0 - a0))
    runs.sort()
    spans = []
    for r0, r1, _, _ in runs:
        if spans and spans[-1][1] == r0:
            spans[-1][1] = r1
        else:
            spans.append([r0, r1])
    return tuple(runs), tuple(map(tuple, spans))


def _edge(a: int, b: int, n: int) -> tuple:
    """(row, sign) of the edge between slots a and b of a session of n: its
    row in the stream, and +1 if slot a adds the row's mask, -1 if it
    subtracts it."""
    reach, rows = _reach(n), n * mask_degree(n) // 2
    for sender, receiver, sign in ((a, b, 1), (b, a, -1)):
        j = (receiver - sender) % n
        row = (j - 1) * n + sender
        if 1 <= j <= reach and row < rows:
            return row, sign
    raise ConfigurationError(f"slots {a} and {b} of {n} share no mask edge")


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
    masks: np.ndarray = None      # (n, d) net masks in slot order formed ahead, used once
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
        n, d = len(self.participants), self.d
        a1 = n if a1 is None else a1
        m, reach, (runs, spans) = a1 - a0, _reach(n), _runs(a0, a1, n)
        # rows m .. m + reach - 1 take the receivers past slot a1 - 1; those
        # from row n on are slots a0, a0 + 1, ... again, folded back once
        hi = np.zeros((m + reach, d), dtype=np.uint64)
        lo = np.zeros((m + reach, d), dtype=np.uint64)
        stream, at, i = self._stream(), 0, 0
        step = max(1, _BLOCK_WORDS // d)
        for s0, s1 in spans:
            for b0 in range(s0, s1, step):
                b1 = min(b0 + step, s1)
                stream.advance((b0 - at) * d)
                at = b1
                block = self._rows(stream.random_raw((b1 - b0) * d).reshape(-1, d), b0)
                top = block >> 32
                block &= _MASK32
                while i < len(runs) and runs[i][0] < b1:
                    r0, r1, j, x = runs[i]
                    c0, c1 = max(r0, b0), min(r1, b1)
                    x += c0 - r0                  # the sender of row c0
                    skip = max(-x, 0)             # senders below a0 are not in the range
                    if skip < c1 - c0:
                        hi[x + skip:x + c1 - c0] += top[c0 - b0 + skip:c1 - b0]
                        lo[x + skip:x + c1 - c0] += block[c0 - b0 + skip:c1 - b0]
                    hi[x + j:x + j + c1 - c0] -= top[c0 - b0:c1 - b0]
                    lo[x + j:x + j + c1 - c0] -= block[c0 - b0:c1 - b0]
                    if r1 > b1:
                        break                     # the run goes on in the next block
                    i += 1
        wrap = max(m + reach - n, 0)
        hi[:wrap] += hi[n:]
        lo[:wrap] += lo[n:]
        return _fold(hi[:m], lo[:m], self.params.modulus)

    def _position(self, k: int) -> int:
        try:
            return self.participants.index(k)
        except ValueError:
            raise ConfigurationError(f"{k} is not a participant") from None

    def neighbours(self, k: int) -> tuple:
        """The participants client k shares a pair mask with, ascending."""
        n = len(self.participants)
        dist = (self._slot - self._slot[self._position(k)]) % n
        dist = np.minimum(dist, n - dist)
        joined = (dist > 0) & (dist <= _reach(n))
        return tuple(p for p, j in zip(self.participants, joined) if j)

    def pair_mask(self, i: int, j: int) -> FieldVector:
        """Mask client i adds for its edge to client j, i < j; j subtracts it."""
        if i >= j:
            raise ConfigurationError("pair masks are keyed by i < j")
        si, sj = (int(self._slot[self._position(k)]) for k in (i, j))
        try:
            row, sign = _edge(si, sj, len(self.participants))
        except ConfigurationError:
            raise ConfigurationError(f"clients {i} and {j} share no mask edge in "
                                     f"round {self.round_id}") from None
        stream = self._stream()
        stream.advance(row * self.d)
        raw = stream.random_raw(self.d).reshape(1, -1)
        mask = FieldVector(self._rows(raw, row)[0], self.params)
        return mask if sign > 0 else FieldVector.zeros(self.d, self.params).sub(mask)

    def client_mask(self, k: int) -> FieldVector:
        """Net mask client k applies: + for the rows its slot sends, - for
        the rows it receives."""
        slot = int(self._slot[self._position(k)])
        return FieldVector(self.net_masks(slot, slot + 1)[0], self.params)


def _check_participants(inputs: dict, session: SecAggSession):
    if set(inputs) != set(session.participants):
        raise ProtocolAbortError(
            f"round {session.round_id}: submissions {sorted(inputs)} do not match "
            f"participants {list(session.participants)}"
        )


def _reveal(masked: np.ndarray, session: SecAggSession) -> FieldVector:
    """Field sum of the rows of ``masked``, the (n, d) masked submissions in
    slot order, each below 2q; logs every participant's row as its
    observation and sets the session output."""
    session.observations.extend(
        (k, masked[slot]) for k, slot in zip(session.participants, session._slot))
    # one reduction for every row; the observations are views of the rows
    reduce_once(masked, session.params.modulus)
    acc = FieldVector.__new__(FieldVector)
    acc.values = _fold((masked >> 32).sum(axis=0), (masked & _MASK32).sum(axis=0),
                       session.params.modulus)
    acc.params = session.params
    session.output = acc
    return acc


def secagg_sum(inputs: dict, session: SecAggSession) -> FieldVector:
    """Field sum of the client inputs; the log sees only masked vectors.

    The output is computed by summing the masked submissions, so mask
    cancellation is structural rather than assumed.
    """
    _check_participants(inputs, session)
    for k in session.participants:
        vec = inputs[k]
        session.params._check(vec.params)
        if len(vec) != session.d:
            raise ProtocolAbortError(
                f"round {session.round_id}: client {k} submitted length {len(vec)}, "
                f"expected {session.d}"
            )
    # the net masks, formed ahead or here, become the matrix of masked submissions
    masked = session.net_masks() if session.masks is None else session.masks
    session.masks = None
    for k, slot in zip(session.participants, session._slot):
        masked[slot] += inputs[k].values   # both < q < 2^63, no overflow
    return _reveal(masked, session)


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
    masked = session.net_masks()
    masked[session._slot, 0] += np.array(values, dtype=np.uint64)   # both < q < 2^63
    return int(_reveal(masked, session).values[0])
