import hashlib
import itertools

import numpy as np
import pytest
from reference import _edge, neighbours, secagg_sum

from twmark import secagg
from twmark.errors import ConfigurationError, ProtocolAbortError
from twmark.field import FieldVector
from twmark.secagg import (
    SecAggSession,
    secagg_scalar,
)


def _session(params, d=8, participants=(1, 2, 3, 4), seed=7, round_id=1):
    return SecAggSession(round_id=round_id, participants=participants, d=d,
                         params=params, session_seed=seed)


def _inputs(params, session, rng):
    return {
        k: FieldVector(params.uniform(rng, session.d), params)
        for k in session.participants
    }


class TestSecAggSum:
    @pytest.mark.parametrize("field", ["f7", "fM61", "fQ63"])
    def test_output_equals_plain_sum(self, field, rng, request):
        params = request.getfixturevalue(field)
        session = _session(params)
        inputs = _inputs(params, session, rng)
        out = secagg_sum(inputs, session)
        want = FieldVector.zeros(session.d, params)
        for v in inputs.values():
            want = want.add(v)
        assert out == want
        assert session.output == want

    def test_masks_cancel_structurally(self, fM61):
        session = _session(fM61, participants=(1, 2, 3, 5, 9))
        total = FieldVector.zeros(session.d, fM61)
        for k in session.participants:
            total = total.add(_client_mask(session, k))
        assert total == FieldVector.zeros(session.d, fM61)

    def test_observations_are_masked(self, fM61, rng):
        session = _session(fM61)
        inputs = _inputs(fM61, session, rng)
        secagg_sum(inputs, session)
        for k, masked in session.observations:
            assert not np.array_equal(masked, inputs[k].values)

    def test_single_participant_is_unmasked(self, fM61, rng):
        session = _session(fM61, participants=(3,))
        inputs = _inputs(fM61, session, rng)
        out = secagg_sum(inputs, session)
        assert out == inputs[3]
        assert np.array_equal(session.observations[0][1], inputs[3].values)

    def test_deterministic_per_session(self, fM61, rng):
        s1, s2 = _session(fM61), _session(fM61)
        inputs = _inputs(fM61, s1, rng)
        assert secagg_sum(inputs, s1) == secagg_sum(dict(inputs), s2)
        assert [tuple(m) for _, m in s1.observations] == [
            tuple(m) for _, m in s2.observations
        ]

    def test_wrong_participant_set_aborts(self, fM61, rng):
        session = _session(fM61)
        inputs = _inputs(fM61, session, rng)
        del inputs[2]
        with pytest.raises(ProtocolAbortError):
            secagg_sum(inputs, session)

    def test_wrong_length_aborts(self, fM61, rng):
        session = _session(fM61)
        inputs = _inputs(fM61, session, rng)
        inputs[1] = FieldVector.zeros(session.d + 1, fM61)
        with pytest.raises(ProtocolAbortError):
            secagg_sum(inputs, session)

    def test_duplicate_participants_rejected(self, fM61):
        with pytest.raises(ConfigurationError):
            _session(fM61, participants=(1, 1, 2))


def _applied_masks(session, inputs):
    """observation_k - input_k for every client k of a finished session."""
    return {k: FieldVector(masked, session.params).sub(inputs[k])
            for k, masked in session.observations}


def _edge_count(n):
    return n * secagg.mask_degree(n) // 2


def _sender_rows(n, a):
    """Stream rows of the edges that slot a sends, ascending."""
    return list(range(a, _edge_count(n), n))


def _joined(a, b, n):
    try:
        _edge(a, b, n)
    except ConfigurationError:
        return False
    return True


def _block_offsets(n, rows):
    """Rows at which the blocks of at most ``rows`` rows start, and the edge
    count of the session after the last."""
    return list(range(0, _edge_count(n), rows)) + [_edge_count(n)]


def _run_words(n, d, rows):
    """The first and the last word of every offset run and of every block of
    at most ``rows`` rows: runs split blocks at the multiples of n."""
    edges = _edge_count(n)
    cuts = sorted(set(range(0, edges, rows)) | set(range(0, edges, n)) | {edges})
    return [w for r0, r1 in zip(cuts, cuts[1:]) for w in (r0 * d, r1 * d - 1)]


def _client_mask(session, k):
    """Net mask client k applies: the one-slot range of its slot."""
    slot = int(session._slot[session.participants.index(k)])
    return FieldVector(session.net_masks(slot, slot + 1)[0], session.params)


def _pair_mask(session, i, j):
    """The per-edge reference: the mask client i adds for its edge to client
    j, i < j, which j subtracts; the edge's one stream row, reached with
    PCG64.advance."""
    assert i < j
    si, sj = (int(session._slot[session.participants.index(k)]) for k in (i, j))
    row, sign = _edge(si, sj, len(session.participants))
    stream = session._stream()
    stream.advance(row * session.d)
    raw = stream.random_raw(session.d).reshape(1, -1)
    mask = FieldVector(session._rows(raw, row)[0], session.params)
    return mask if sign > 0 else FieldVector.zeros(session.d, session.params).sub(mask)


def _sum_of_pair_masks(session, k):
    """Reference net mask of client k, built edge by edge from _pair_mask."""
    mask = FieldVector.zeros(session.d, session.params)
    for other in neighbours(session, k):
        if k < other:
            mask = mask.add(_pair_mask(session, k, other))
        elif other < k:
            mask = mask.sub(_pair_mask(session, other, k))
    return mask


class _ForcedWord:
    """A session stream whose raw words at the offsets ``at`` read 2^64 - 1,
    the top word, which both the M61 and the generic mapping reject."""

    def __init__(self, stream, *at):
        self.stream, self.at, self.pos = stream, at, 0

    def advance(self, delta):
        self.stream.advance(delta)
        self.pos += delta

    def random_raw(self, size):
        out = self.stream.random_raw(size)
        for at in self.at:
            if self.pos <= at < self.pos + size:
                out[at - self.pos] = np.uint64(2**64 - 1)
        self.pos += size
        return out


def _force_words(monkeypatch, *at):
    stream = SecAggSession._stream
    monkeypatch.setattr(SecAggSession, "_stream",
                        lambda self: _ForcedWord(stream(self), *at))


class TestMaskLayout:
    @pytest.mark.parametrize("field", ["f7", "fM61"])
    def test_observation_minus_input_is_client_mask(self, field, rng, request):
        params = request.getfixturevalue(field)
        session = _session(params, participants=(1, 2, 3, 5, 9))
        inputs = _inputs(params, session, rng)
        secagg_sum(inputs, session)
        applied = _applied_masks(session, inputs)
        for k in session.participants:
            assert applied[k] == _client_mask(session, k)

    @pytest.mark.parametrize("field", ["f7", "fM61"])
    def test_pair_masks_are_the_applied_rows(self, field, rng, request):
        params = request.getfixturevalue(field)
        session = _session(params, d=16, participants=(1, 2, 3, 5, 9))
        inputs = _inputs(params, session, rng)
        secagg_sum(inputs, session)
        applied = _applied_masks(session, inputs)
        for k in session.participants:
            assert applied[k] == _sum_of_pair_masks(session, k)

    @pytest.mark.parametrize("block_rows", [1, 3])
    def test_block_size_does_not_change_masks(self, fM61, monkeypatch, block_rows):
        d = 16
        want_session = _session(fM61, d=d, participants=tuple(range(1, 12)))
        want = [_client_mask(want_session, k) for k in want_session.participants]
        monkeypatch.setattr(secagg, "_BLOCK_WORDS", block_rows * d)
        session = _session(fM61, d=d, participants=tuple(range(1, 12)))
        assert [_client_mask(session, k) for k in session.participants] == want

    @pytest.mark.parametrize("field", ["f7", "fM61", "fQ63"])
    def test_rejected_word_is_replaced(self, field, rng, request, monkeypatch):
        params = request.getfixturevalue(field)
        participants, d = (1, 2, 3, 5, 9), 8
        plain = _session(params, d=d, participants=participants)
        before = _pair_mask(plain, 2, 5)
        # pair (2, 5) sits at slots (1, 3), which slot 1 sends: coordinate 4
        row, sign = _edge(1, 3, len(participants))
        assert sign == 1
        at = row * d + 4
        _force_words(monkeypatch, at)
        session = _session(params, d=d, participants=participants)
        inputs = _inputs(params, session, rng)
        out = secagg_sum(inputs, session)
        want = FieldVector.zeros(d, params)
        for v in inputs.values():
            want = want.add(v)
        assert out == want
        for _, masked in session.observations:
            assert int(masked.max()) < params.modulus
        applied = _applied_masks(session, inputs)
        for k in participants:
            assert applied[k] == _sum_of_pair_masks(session, k)
        # only the rejected word changes, to the pair's first fallback draw
        fallback = np.random.Generator(np.random.PCG64(np.random.SeedSequence((7, 1, 2, 5))))
        after = _pair_mask(session, 2, 5)
        assert int(after.values[4]) == int(params.uniform(fallback, 1)[0])
        assert np.array_equal(np.delete(after.values, 4), np.delete(before.values, 4))
        assert _pair_mask(session, 1, 2) == _pair_mask(plain, 1, 2)
        assert _pair_mask(session, 5, 9) == _pair_mask(plain, 5, 9)

    def test_masks_cancel_at_k128_d1(self, fM61, rng):
        session = _session(fM61, d=1, participants=tuple(range(1, 129)))
        inputs = {k: int(fM61.uniform(rng, 1)[0]) for k in session.participants}
        assert secagg_scalar(inputs, session) == sum(inputs.values()) % fM61.modulus
        total = sum(int(m[0]) for _, m in session.observations) % fM61.modulus
        assert total == sum(inputs.values()) % fM61.modulus
        assert all(int(m[0]) != inputs[k] for k, m in session.observations)


def _connected(nodes, adjacent):
    """Whether ``nodes`` form one connected component under ``adjacent``."""
    nodes = set(nodes)
    seen, todo = set(), [next(iter(nodes))]
    while todo:
        node = todo.pop()
        if node not in seen:
            seen.add(node)
            todo.extend(adjacent[node] & nodes)
    return seen == nodes


class TestGraph:
    """The Harary mask graph H(k, n), k = 2 * ceil(log2 n), and its layout."""

    @pytest.mark.parametrize("n,k", [(1, 0), (2, 1), (5, 4), (7, 6), (8, 6), (9, 8),
                                     (10, 8), (16, 8), (17, 10), (32, 10), (128, 14)])
    def test_mask_degree(self, n, k):
        assert secagg.mask_degree(n) == k
        joined = [(a, b) for a, b in itertools.combinations(range(n), 2)
                  if _joined(a, b, n)]
        assert len(joined) == n * k // 2

    @pytest.mark.parametrize("n", list(range(1, 42)) + [64, 127, 128])
    def test_every_client_has_k_neighbours(self, fM61, n):
        session = _session(fM61, participants=tuple(range(3, 3 + 2 * n, 2)))
        k = secagg.mask_degree(n)
        nb = {p: neighbours(session, p) for p in session.participants}
        for p, peers in nb.items():
            assert len(peers) == k and p not in peers
            assert all(p in nb[q] for q in peers)

    @pytest.mark.parametrize("n", [10, 12, 16])
    def test_connected_after_removing_any_k_minus_1(self, fM61, n):
        session = _session(fM61, participants=tuple(range(1, n + 1)))
        k = secagg.mask_degree(n)
        assert k < n - 1   # a sparse graph
        adjacent = {p: set(neighbours(session, p)) for p in session.participants}
        for removed in itertools.combinations(session.participants, k - 1):
            assert _connected(set(session.participants) - set(removed), adjacent)
        # k is tight: removing one client's neighbours isolates it
        assert not _connected(set(session.participants) - adjacent[1], adjacent)

    def test_slots_follow_the_session(self, fM61):
        nb = [neighbours(_session(fM61, participants=tuple(range(1, 17)), seed=seed,
                                  round_id=r), 1) for seed, r in ((7, 1), (7, 2), (8, 1))]
        assert len(set(nb)) == 3
        assert neighbours(_session(fM61, participants=tuple(range(1, 17))), 1) == nb[0]

    @pytest.mark.parametrize("n", list(range(1, 42)) + [64, 127, 128])
    def test_edge_offsets_enumerate_the_edges(self, n):
        # every edge owns exactly one of rows 0 .. E-1, and a non-edge none;
        # complete graphs (n <= 7, n = 9) join every pair
        k = secagg.mask_degree(n)
        reach = k - k // 2
        offsets = []
        for a, b in itertools.combinations(range(n), 2):
            if min(b - a, n - b + a) <= reach:
                row, sign = _edge(a, b, n)
                assert _edge(b, a, n) == (row, -sign)
                # row (j - 1) * n + s: slot s sends to slot s + j mod n
                s, t = (a, b) if sign == 1 else (b, a)
                assert row == ((t - s) % n - 1) * n + s
                offsets.append(row)
            else:
                assert k < n - 1
                for x, y in ((a, b), (b, a)):
                    with pytest.raises(ConfigurationError):
                        _edge(x, y, n)
        assert sorted(offsets) == list(range(n * k // 2))
        for a in range(n):
            with pytest.raises(ConfigurationError):
                _edge(a, a, n)

    @pytest.mark.parametrize("field,n,digest", [
        ("f7", 2, "0b749fe5f256baaf"), ("f7", 5, "8a04913bf284dea5"),
        ("f7", 7, "eddd1a8ee202676b"), ("f7", 9, "07e3864f309a3386"),
        ("fM61", 2, "bad6731e25fd35f5"), ("fM61", 5, "ce7672fba32db6b3"),
        ("fM61", 7, "df2d873aa359adcd"), ("fM61", 9, "4f6f6866743f9fea"),
    ])
    def test_complete_graph_masks_are_pinned(self, field, n, digest, request):
        # digests of the offset-major layout of the all-pairs protocol, checked
        # first against the pair masks
        params = request.getfixturevalue(field)
        session = _session(params, d=16, participants=tuple(range(1, 2 * n, 2)))
        masks = [_client_mask(session, k) for k in session.participants]
        assert masks == [_sum_of_pair_masks(session, k) for k in session.participants]
        masks = np.stack([m.values for m in masks])
        assert hashlib.sha256(masks.tobytes()).hexdigest()[:16] == digest

    @pytest.mark.parametrize("field,n,digest", [
        ("f7", 11, "05037abefa81f23b"), ("f7", 40, "3229c61d8f7fb5cc"),
        ("f7", 128, "2f69d7b66ff8ca36"),
        ("fM61", 11, "7690daa3bc137878"), ("fM61", 40, "86dc99d087dcc7fc"),
        ("fM61", 128, "6a62b56ae5f4c864"),
    ])
    def test_sparse_graph_masks_are_pinned(self, field, n, digest, request):
        # digests of the Harary-graph masks in the offset-major layout,
        # checked first against the pair masks
        params = request.getfixturevalue(field)
        session = _session(params, participants=tuple(range(1, 2 * n, 2)))
        masks = session.net_masks()[session._slot]
        for k, mask in zip(session.participants, masks):
            assert FieldVector(mask, params) == _sum_of_pair_masks(session, k)
        assert hashlib.sha256(masks.tobytes()).hexdigest()[:16] == digest

    @pytest.mark.parametrize("field", ["f7", "fM61"])
    @pytest.mark.parametrize("n", [11, 40])
    def test_observation_minus_input_is_client_mask(self, field, n, rng, request):
        params = request.getfixturevalue(field)
        session = _session(params, participants=tuple(range(1, n + 1)))
        inputs = _inputs(params, session, rng)
        assert secagg_sum(inputs, session) == _field_sum(inputs, session.d, params)
        applied = _applied_masks(session, inputs)
        for k in session.participants:
            assert applied[k] == _client_mask(session, k)
            assert applied[k] == _sum_of_pair_masks(session, k)

    def test_edge_of_a_non_neighbour_raises(self, fM61):
        session = _session(fM61, participants=tuple(range(1, 12)))
        strangers = [p for p in session.participants
                     if p != 1 and p not in neighbours(session, 1)]
        assert len(strangers) == 10 - secagg.mask_degree(11)
        slot = dict(zip(session.participants, map(int, session._slot)))
        for p in strangers:
            for a, b in ((1, p), (p, 1)):
                with pytest.raises(ConfigurationError, match="no mask edge"):
                    _edge(slot[a], slot[b], 11)

    @pytest.mark.parametrize("field", ["f7", "fM61", "fQ63"])
    def test_rejected_word_in_a_sparse_edge(self, field, rng, request, monkeypatch):
        params = request.getfixturevalue(field)
        participants, d = tuple(range(1, 12)), 8
        plain = _session(params, d=d, participants=participants)
        slot = {p: int(s) for p, s in zip(participants, plain._slot)}
        # the edge between slots n-1 and 0 wraps around the circle
        i, j = sorted(p for p in participants if slot[p] in (0, 10))
        assert j in neighbours(plain, i)
        before = _pair_mask(plain, i, j)
        row, sign = _edge(0, 10, 11)
        at = row * d + 5
        _force_words(monkeypatch, at)
        session = _session(params, d=d, participants=participants)
        inputs = _inputs(params, session, rng)
        assert secagg_sum(inputs, session) == _field_sum(inputs, d, params)
        for _, masked in session.observations:
            assert int(masked.max()) < params.modulus
        applied = _applied_masks(session, inputs)
        for k in participants:
            assert applied[k] == _sum_of_pair_masks(session, k)
        # only the rejected word changes, to the pair's first fallback draw
        fallback = np.random.Generator(np.random.PCG64(np.random.SeedSequence((7, 1, i, j))))
        raw = int(params.uniform(fallback, 1)[0])
        after = _pair_mask(session, i, j)
        sends = (slot[i] == 0) == (sign == 1)
        want = raw if sends else (params.modulus - raw) % params.modulus
        assert int(after.values[5]) == want
        assert np.array_equal(np.delete(after.values, 5), np.delete(before.values, 5))

    @pytest.mark.parametrize("field", ["f7", "fM61"])
    @pytest.mark.parametrize("rows", [2, 3, 4])
    def test_rejected_word_in_every_sparse_range(self, field, rows, request,
                                                 monkeypatch):
        params = request.getfixturevalue(field)
        participants, d = tuple(range(1, 41)), 8
        offsets = _block_offsets(len(participants), rows)
        assert max(np.diff(offsets)) <= rows < offsets[-1]
        # the first word of each block and a middle word of its last edge,
        # and the first and the last word of every offset run
        at = _run_words(len(participants), d, rows)
        for r0, r1 in zip(offsets, offsets[1:]):
            at.append(r0 * d)
            at.append((r1 - 1) * d + d // 2)
        _force_words(monkeypatch, *at)
        session, inputs, out = _split_run(params, participants, d, rows,
                                          monkeypatch)
        assert out == _field_sum(inputs, d, params)
        applied = _applied_masks(session, inputs)
        for k in participants:
            assert applied[k] == _sum_of_pair_masks(session, k)


def _field_sum(inputs, d, params):
    total = FieldVector.zeros(d, params)
    for v in inputs.values():
        total = total.add(v)
    return total


def _run(params, participants, d):
    """(session, inputs, output) of one secagg_sum with fixed inputs."""
    session = _session(params, d=d, participants=participants)
    inputs = _inputs(params, session, np.random.default_rng(3))
    return session, inputs, secagg_sum(inputs, session)


class TestSerialMasks:
    """Masks over whole sessions, with rejected words at the first and the
    last row of several senders and at the ends of every offset run."""

    @pytest.mark.parametrize("field", ["f7", "fM61", "fQ63"])
    @pytest.mark.parametrize("n", [9, 40])
    def test_rejected_words_at_sender_boundaries(self, field, n, request,
                                                 monkeypatch):
        params = request.getfixturevalue(field)
        participants, d = tuple(range(1, n + 1)), 8
        senders = [0, 1, n // 3, n // 2, n - 3, n - 2]
        # the first word of each sender and a middle word of its last edge
        at = _run_words(n, d, n * d)
        for a in senders:
            rows = _sender_rows(n, a)
            at.append(rows[0] * d)
            at.append(rows[-1] * d + d // 2)
        _force_words(monkeypatch, *at)
        session, inputs, out = _run(params, participants, d)
        assert out == _field_sum(inputs, d, params)
        for _, masked in session.observations:
            assert int(masked.max()) < params.modulus
        applied = _applied_masks(session, inputs)
        for k in participants:
            assert applied[k] == _sum_of_pair_masks(session, k)


def _split_run(params, participants, d, rows, monkeypatch):
    """(session, inputs, output) of a session read in blocks of at most
    ``rows`` rows, after checking its net masks, observations and output
    against the same session read in one block."""
    monkeypatch.setattr(secagg, "_BLOCK_WORDS", 1 << 40)
    whole, inputs, want = _run(params, participants, d)
    whole_masks = whole.net_masks()
    monkeypatch.setattr(secagg, "_BLOCK_WORDS", rows * d)
    session, _, out = _run(params, participants, d)
    assert out == want
    assert np.array_equal(session.net_masks(), whole_masks)
    assert [k for k, _ in session.observations] == list(session.participants)
    for (_, got), (_, ref) in zip(session.observations, whole.observations):
        assert np.array_equal(got, ref)
    return session, inputs, out


class TestSplit:
    """Sessions split into blocks of rows give the one-block masks bit for bit."""

    @pytest.mark.parametrize("field", ["f7", "fM61"])
    @pytest.mark.parametrize("participants", [(4, 9), (1, 2, 3, 5, 9),
                                              (1, 2, 3, 4), tuple(range(1, 12)),
                                              tuple(range(1, 41))])
    @pytest.mark.parametrize("rows", [1, 2, 3, 4])
    def test_split_equals_serial(self, field, participants, rows, request,
                                 monkeypatch):
        params = request.getfixturevalue(field)
        session, inputs, out = _split_run(params, participants, 8, rows,
                                          monkeypatch)
        assert out == _field_sum(inputs, 8, params)
        applied = _applied_masks(session, inputs)
        for k in participants:
            assert applied[k] == _client_mask(session, k)
            assert applied[k] == _sum_of_pair_masks(session, k)

    @pytest.mark.parametrize("field", ["f7", "fM61"])
    @pytest.mark.parametrize("rows", [2, 3, 4])
    def test_rejected_word_in_every_range(self, field, rows, request,
                                          monkeypatch):
        params = request.getfixturevalue(field)
        participants, d = tuple(range(1, 10)), 8
        offsets = _block_offsets(len(participants), rows)
        assert max(np.diff(offsets)) <= rows < offsets[-1]
        # the last word of each block's first edge and a middle word of its
        # last, and the first and the last word of every offset run
        at = _run_words(len(participants), d, rows)
        for r0, r1 in zip(offsets, offsets[1:]):
            at.append(r0 * d + d - 1)
            at.append((r1 - 1) * d + d // 2)
        _force_words(monkeypatch, *at)
        session, inputs, out = _split_run(params, participants, d, rows,
                                          monkeypatch)
        assert out == _field_sum(inputs, d, params)
        for _, masked in session.observations:
            assert int(masked.max()) < params.modulus
        applied = _applied_masks(session, inputs)
        for k in participants:
            assert applied[k] == _sum_of_pair_masks(session, k)

    def test_shipped_split_size_matches_serial(self, fM61, monkeypatch):
        # the 896 edges of K=128 at the default hidden width: 4.9 M raw words,
        # read in blocks of _BLOCK_WORDS or all at once
        participants, d = tuple(range(1, 129)), 5514
        assert _edge_count(128) == 896
        split = _session(fM61, d=d, participants=participants).net_masks()
        monkeypatch.setattr(secagg, "_BLOCK_WORDS", 1 << 40)
        serial = _session(fM61, d=d, participants=participants).net_masks()
        assert np.array_equal(split, serial)
        assert not np.any(serial.sum(axis=0, dtype=object) % fM61.modulus)

    @pytest.mark.parametrize("above", [False, True])
    def test_sessions_on_both_sides_of_split_size(self, fM61, monkeypatch, above):
        participants, d = tuple(range(1, 10)), 8      # 36 edges, 288 words
        words = 36 * d
        monkeypatch.setattr(secagg, "_BLOCK_WORDS",
                            words // 2 if above else words)
        step = secagg._BLOCK_WORDS // d
        assert (len(_block_offsets(9, step)) > 2) == above
        session, inputs, out = _run(fM61, participants, d)
        assert out == _field_sum(inputs, d, fM61)
        applied = _applied_masks(session, inputs)
        for k in participants:
            assert applied[k] == _sum_of_pair_masks(session, k)


class TestRanges:
    """Net masks of a range of slots are the matching rows of the whole
    session's, for every cut into two ranges; n = 4 and 6 are even complete
    graphs, n = 9 the odd complete one above 7."""

    @pytest.mark.parametrize("field", ["f7", "fM61", "fQ63"])
    @pytest.mark.parametrize("n", list(range(1, 42)) + [64, 127, 128])
    def test_every_cut_gives_the_whole_rows(self, field, n, request, monkeypatch):
        params = request.getfixturevalue(field)
        participants, d = tuple(range(1, n + 1)), 2
        plain = _session(params, d=d, participants=participants).net_masks()
        for cut in range(n + 1):
            # rejected words in the first word of every edge the slots on
            # both sides of the cut send, and the last word of every edge
            # slot n - 1 sends, which wraps around to slots 0 .. r - 1
            at = [row * d for a in {cut - 1, cut} & set(range(n))
                  for row in _sender_rows(n, a)]
            at += [row * d + d - 1 for row in _sender_rows(n, n - 1)]
            with monkeypatch.context() as mp:
                _force_words(mp, *at)
                session = _session(params, d=d, participants=participants)
                whole = session.net_masks()
                head, tail = session.net_masks(0, cut), session.net_masks(cut, n)
            assert head.shape == (cut, d) and tail.shape == (n - cut, d)
            assert np.array_equal(np.concatenate([head, tail]), whole)
            assert int(whole.max(initial=0)) < params.modulus
            if at and n > 1:
                assert not np.array_equal(whole, plain)
        assert not np.any(plain.sum(axis=0, dtype=object) % params.modulus)

    @pytest.mark.parametrize("n", [1, 2, 4, 6, 9, 11, 16, 40, 128])
    def test_runs_hold_exactly_the_edges_of_the_range(self, fM61, monkeypatch, n):
        # the stream rows net_masks draws for a range are its edges, each once,
        # in whole blocks or in blocks of three rows
        d, reads = 2, []
        stream = SecAggSession._stream
        monkeypatch.setattr(SecAggSession, "_stream",
                            lambda self: reads.append(_Reads(stream(self), d)) or reads[-1])
        session = _session(fM61, d=d, participants=tuple(range(1, n + 1)))
        whole = session.net_masks()
        for block_words in (secagg._BLOCK_WORDS, 3 * d):
            monkeypatch.setattr(secagg, "_BLOCK_WORDS", block_words)
            # (n // 2, n // 2 + 1) is narrower than the reach once n > 2, away from the wrap
            for a0, a1 in [(0, n), (0, 1), (n - 1, n), (n // 3, 2 * n // 3), (1, n),
                           (n // 2, n // 2 + 1)]:
                want = {_edge(a, b, n)[0] for a in range(a0, a1) for b in range(n)
                        if _joined(a, b, n)}
                reads.clear()
                assert np.array_equal(session.net_masks(a0, a1), whole[a0:a1])
                (read,) = reads
                assert sorted(read.rows) == sorted(want)


class _Reads:
    """A session stream that records the rows of d words each draw reads."""

    def __init__(self, stream, d):
        self.stream, self.d, self.pos, self.rows = stream, d, 0, []

    def advance(self, delta):
        self.stream.advance(delta)
        self.pos += delta

    def random_raw(self, size):
        assert self.pos % self.d == size % self.d == 0   # whole rows only
        self.rows += range(self.pos // self.d, (self.pos + size) // self.d)
        self.pos += size
        return self.stream.random_raw(size)


class _HighWords:
    """A session stream whose raw words have their top four bits set in the
    rows that even slots send: an even slot's sent rows are all near q
    (M61) or near 2^63 (q near 2^63), its received rows only in part, so a
    left-out reduction wraps the two sums a different number of times."""

    def __init__(self, stream, n, d):
        self.stream, self.n, self.d, self.pos = stream, n, d, 0

    def advance(self, delta):
        self.stream.advance(delta)
        self.pos += delta

    def random_raw(self, size):
        out = self.stream.random_raw(size)
        senders = np.arange(self.pos, self.pos + size) // self.d % self.n
        out[senders % 2 == 0] |= np.uint64(0xF << 60)
        self.pos += size
        return out


class TestFoldCadence:
    """The plain sums of the rows a slot sends and receives are reduced
    only when one more offset could pass 2^64: at q = 2^63 - 25 before
    every offset from the third, for M61 before the ninth, which sessions
    of n > 256 reach (r = 9). With high words an even slot's sum of sent
    rows passes 2^64 where a reduction is left out."""

    @pytest.mark.parametrize("field,n", [("fQ63", 2), ("fQ63", 9), ("fQ63", 11),
                                         ("fQ63", 40), ("fQ63", 128), ("fM61", 128),
                                         ("fM61", 257), ("fM61", 300)])
    @pytest.mark.parametrize("high", [False, True])
    def test_ranges_cancel_and_match_the_edges(self, field, n, high, request,
                                               monkeypatch):
        params = request.getfixturevalue(field)
        if high:
            stream = SecAggSession._stream
            monkeypatch.setattr(SecAggSession, "_stream", lambda self: _HighWords(
                stream(self), len(self.participants), self.d))
        participants = tuple(range(1, n + 1))
        session = _session(params, d=2, participants=participants)
        whole = session.net_masks()
        assert int(whole.max()) < params.modulus
        for a0, a1 in {(0, 1), (0, n // 3), (n // 3, n - 1), (n - 1, n), (1, n)}:
            assert np.array_equal(session.net_masks(a0, a1), whole[a0:a1])
        assert not np.any(whole.sum(axis=0, dtype=object) % params.modulus)
        for k, mask in zip(participants, whole[session._slot]):
            assert FieldVector(mask, params) == _sum_of_pair_masks(session, k)


def _scalar_run(params, participants):
    """(session, inputs, output) of one secagg_scalar with fixed inputs."""
    session = _session(params, d=1, participants=participants)
    values = params.uniform(np.random.default_rng(3), len(participants))
    inputs = {k: int(v) for k, v in zip(participants, values)}
    return session, inputs, secagg_scalar(inputs, session)


def _width_run(params, participants, d):
    """(session, inputs as field vectors, output as a field vector) of one
    session of width d: secagg_scalar for d = 1, secagg_sum otherwise."""
    if d > 1:
        return _run(params, participants, d)
    session, inputs, out = _scalar_run(params, participants)
    vectors = {k: FieldVector(np.array([v], dtype=np.uint64), params)
               for k, v in inputs.items()}
    out = FieldVector(np.array([out], dtype=np.uint64), params)
    return session, vectors, out


class TestSecAggScalar:
    def test_matches_scalar_sum(self, fM61, rng):
        session = _session(fM61, d=1)
        inputs = {k: int(fM61.uniform(rng, 1)[0]) for k in session.participants}
        out = secagg_scalar(inputs, session)
        assert out == sum(inputs.values()) % fM61.modulus

    @pytest.mark.parametrize("bad", [2.5, -1, "q", 2**64, np.float64(3.0)],
                             ids=["float", "negative", "q", "2^64", "np.float64"])
    def test_rejects_inputs_that_are_not_field_elements(self, fM61, bad):
        session = _session(fM61, d=1, participants=(1, 2, 3))
        x = fM61.modulus if bad == "q" else bad
        with pytest.raises(ConfigurationError, match="client 3 submitted"):
            secagg_scalar({1: 5, 2: 6, 3: x}, session)
        assert session.observations == []

    @pytest.mark.parametrize("kind", [int, np.int64, np.uint64])
    def test_integer_types_sum_exactly(self, fM61, kind):
        q = fM61.modulus
        session = _session(fM61, d=1, participants=(1, 2, 3))
        out = secagg_scalar({1: kind(q - 1), 2: kind(q - 2), 3: kind(5)}, session)
        assert out == 2

    @pytest.mark.parametrize("field", ["f7", "fM61"])
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 10, 16, 33, 64, 100, 128])
    @pytest.mark.parametrize("rejected", [False, True])
    def test_edge_wise_masks_are_the_pair_masks(self, field, n, rejected, request,
                                                monkeypatch):
        # every session, d = 1 through secagg_scalar and wider ones through
        # secagg_sum, applies the sums of the masks that _pair_mask reads edge
        # by edge through PCG64.advance
        params = request.getfixturevalue(field)
        q = params.modulus
        participants = tuple(range(1, n + 1))
        for d in (1, 2, 8, 17, 65):
            plain = _width_run(params, participants, d)[0]
            with monkeypatch.context() as mp:
                if rejected:
                    # the first and the last word of every offset run and
                    # block, and of the first and last row of several senders
                    at = _run_words(n, d, max(1, secagg._BLOCK_WORDS // d))
                    for a in {0, 1, n // 3, n // 2, n - 3, n - 2} & set(range(n)):
                        rows = _sender_rows(n, a)
                        if rows:
                            at += [rows[0] * d, rows[-1] * d + d - 1]
                    _force_words(mp, *at)
                session, inputs, out = _width_run(params, participants, d)
                assert out == _field_sum(inputs, d, params)
                assert [k for k, _ in session.observations] == list(participants)
                for k, masked in session.observations:
                    assert masked.shape == (d,) and int(masked.max()) < q
                    applied = FieldVector(masked, params).sub(inputs[k])
                    assert applied == _sum_of_pair_masks(session, k)
            if rejected and n > 1:   # a session of one has no edge
                assert ([m.tolist() for _, m in session.observations]
                        != [m.tolist() for _, m in plain.observations])

    @pytest.mark.parametrize("field", ["f7", "fM61"])
    def test_client_mask_is_the_sum_of_pair_masks(self, field, request):
        params = request.getfixturevalue(field)
        session = _session(params, d=1, participants=tuple(range(1, 41)))
        for k in session.participants:
            assert _client_mask(session, k) == _sum_of_pair_masks(session, k)

    def test_requires_d1_session(self, fM61):
        session = _session(fM61, d=2)
        with pytest.raises(ConfigurationError):
            secagg_scalar({k: 0 for k in session.participants}, session)

