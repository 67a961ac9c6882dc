"""Simulated secure aggregation via pairwise additive masks on a sparse graph.

The server-side view is modeled explicitly: a session records only the
masked client submissions and the final sum. Pair masks are drawn only for
the edges of a Harary graph H(k, n) over the n participants, with
k = mask_degree(n) = 2 * ceil(log2 n) (SecAgg+, Bell et al., CCS 2020).
For each edge the client in the lower slot adds the mask and the other
subtracts it, so masks cancel and the sum of masked submissions equals the
field sum of the raw inputs, bit-exactly (Bonawitz et al., CCS 2017).

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
out edge-major in sender (slot) order: edge (a, b), a < b, owns the d raw
words starting at edge_offset(a, b, n) * d. The later neighbours of one
sender a form at most two contiguous slot slices, so the stream is read
in blocks of at most _BLOCK_WORDS words made of pieces, each the edges
from one sender to one run of contiguous slots; a block may span many
senders when d is small. A single edge's row can be read with
``PCG64.advance``. Raw words map to field elements
exactly: for M61 by the top 61 bits, rejecting the one value equal to q;
for any other q by ``% q`` below the largest multiple of q under 2^64. A
rejected word is replaced by a draw from a fallback stream keyed by the
session and the pair's participant ids, which leaves every other edge's
offset in place.

Net masks are formed with numpy over rows in slot order: the 32-bit
halves of each piece are column-summed into its sender's row and
subtracted from the rows of its receivers, and the split sums are reduced
mod q once at the end. All of a session's masks are drawn on the calling
thread, in one pass over the stream.

The participant set is frozen before submissions; dropout recovery is
deliberately not modeled.
"""

from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, ProtocolAbortError
from .field import _BLOCK_WORDS, _MASK32, M61, FieldParams, FieldVector, _fold

def mask_degree(n: int) -> int:
    """Neighbours k of each client in a session of n: 2 * ceil(log2 n),
    or n - 1 when that many or more would make the graph complete."""
    return max(0, min(n - 1, 2 * (n - 1).bit_length()))


class _Graph(NamedTuple):
    """H(mask_degree(n), n) in slot order."""

    reach: int      # largest circular slot distance of an edge
    later: tuple    # later[a]: slot slices [b0, b1) of a's neighbours b > a, in edge order
    starts: tuple   # starts[a]: edges of the senders before a; starts[n]: all edges


@lru_cache(maxsize=256)
def _graph(n: int) -> _Graph:
    """The mask graph of a session of n, built once per n."""
    k = mask_degree(n)
    reach = k - k // 2
    later, starts = [], [0]
    for a in range(n):
        near = min(a + reach, n - 1) + 1   # slots a+1 .. near-1: a + j
        wrap = max(n - reach + a, near)    # slots wrap .. n-1: a - j mod n
        slices = ((a + 1, n),) if wrap == near else ((a + 1, near), (wrap, n))
        slices = tuple((b0, b1) for b0, b1 in slices if b0 < b1)
        later.append(slices)
        starts.append(starts[-1] + sum(b1 - b0 for b0, b1 in slices))
    return _Graph(reach, tuple(later), tuple(starts))


def edge_offset(a: int, b: int, n: int) -> int:
    """Position of the edge between slots a < b in the edge-major order of a
    session of n; for a complete graph that is the pair index of (a, b)."""
    graph = _graph(n)
    off = graph.starts[a]
    for b0, b1 in graph.later[a]:
        if b0 <= b < b1:
            return off + b - b0
        off += b1 - b0
    raise ConfigurationError(f"slots {a} and {b} of {n} share no mask edge")


def _blocks(later, step: int):
    """All edges in stream order, as blocks of at most ``step`` rows; a
    block is a list of pieces (a, b0, b1), the edges from slot a to the
    contiguous slots b0 .. b1-1."""
    block, rows = [], 0
    for a, slices in enumerate(later):
        for s0, s1 in slices:
            for b0 in range(s0, s1, step):
                b1 = min(b0 + step, s1)
                if rows + b1 - b0 > step:
                    yield block
                    block, rows = [], 0
                block.append((a, b0, b1))
                rows += b1 - b0
    if block:
        yield block


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

    def _rows(self, raw: np.ndarray, pieces) -> np.ndarray:
        """Field elements, in place, from the raw words of the edges of
        ``pieces``, each (a, b0, b1): slot a to slots b0 .. b1-1, in order."""
        q = self.params.modulus
        if q == M61:
            raw >>= np.uint64(3)     # 61 uniform bits; only the value q is rejected
            limit = q
        else:
            limit = ((1 << 64) // q) * q
        if int(raw.max()) >= limit:
            bad = raw >= np.uint64(limit)
            at = np.argsort(self._slot)   # position at each slot
            edges = [(a, b) for a, b0, b1 in pieces for b in range(b0, b1)]
            for r in np.flatnonzero(bad.any(axis=1)):
                ids = sorted(self.participants[at[s]] for s in edges[r])
                seq = np.random.SeedSequence((self.session_seed, self.round_id, *ids))
                rng = np.random.Generator(np.random.PCG64(seq))
                raw[r, bad[r]] = self.params.uniform(rng, int(bad[r].sum()))
        if q != M61:
            raw %= np.uint64(q)
        return raw

    def _net_masks(self) -> np.ndarray:
        """(n, d) net masks in slot order: row _slot[p] for the participant
        at position p."""
        n, d = len(self.participants), self.d
        hi = np.zeros((n, d), dtype=np.uint64)
        lo = np.zeros((n, d), dtype=np.uint64)
        stream = self._stream()
        step = max(1, _BLOCK_WORDS // d)
        for pieces in _blocks(_graph(n).later, step):
            rows = sum(b1 - b0 for _, b0, b1 in pieces)
            block = self._rows(stream.random_raw(rows * d).reshape(-1, d), pieces)
            top = block >> 32
            block &= _MASK32
            r = 0
            for a, b0, b1 in pieces:
                r1 = r + b1 - b0
                hi[a] += top[r:r1].sum(axis=0)
                lo[a] += block[r:r1].sum(axis=0)
                hi[b0:b1] -= top[r:r1]
                lo[b0:b1] -= block[r:r1]
                r = r1
        return _fold(hi, lo, self.params.modulus)

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
        joined = (dist > 0) & (dist <= _graph(n).reach)
        return tuple(p for p, j in zip(self.participants, joined) if j)

    def pair_mask(self, i: int, j: int) -> FieldVector:
        """Mask client i adds for its edge to client j, i < j; j subtracts it."""
        if i >= j:
            raise ConfigurationError("pair masks are keyed by i < j")
        si, sj = (int(self._slot[self._position(k)]) for k in (i, j))
        a, b = min(si, sj), max(si, sj)
        try:
            offset = edge_offset(a, b, len(self.participants))
        except ConfigurationError:
            raise ConfigurationError(f"clients {i} and {j} share no mask edge in "
                                     f"round {self.round_id}") from None
        stream = self._stream()
        stream.advance(offset * self.d)
        raw = stream.random_raw(self.d).reshape(1, -1)
        row = FieldVector(self._rows(raw, [(a, b, b + 1)])[0], self.params)
        return row if si < sj else FieldVector.zeros(self.d, self.params).sub(row)

    def client_mask(self, k: int) -> FieldVector:
        """Net mask client k applies: + for its edges to later slots, - for earlier."""
        return FieldVector(self._net_masks()[self._slot[self._position(k)]], self.params)


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
    for k, slot in zip(session.participants, session._slot):
        masked[slot] += inputs[k].values   # both < q < 2^63, no overflow
        session.observations.append((k, masked[slot]))
    # one reduction for every row; the observations are views of the rows
    np.subtract(masked, q, out=masked, where=masked >= q)
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
