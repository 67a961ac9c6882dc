import hashlib
import itertools

import numpy as np
import pytest

from twmark import secagg
from twmark.errors import ConfigurationError, ProtocolAbortError
from twmark.field import FieldVector
from twmark.secagg import (
    SecAggSession,
    secagg_scalar,
    secagg_sum,
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
    @pytest.mark.parametrize("field", ["f7", "fM61"])
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
            total = total.add(session.client_mask(k))
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

    def test_pair_mask_requires_ordered_pair(self, fM61):
        session = _session(fM61)
        with pytest.raises(ConfigurationError):
            session.pair_mask(2, 2)


def _applied_masks(session, inputs):
    """observation_k - input_k for every client k of a finished session."""
    return {k: FieldVector(masked, session.params).sub(inputs[k])
            for k, masked in session.observations}


def _pair_index(a, b, n):
    """Pair index of positions a < b in the all-pairs (complete graph) order."""
    return a * (2 * n - a - 1) // 2 + b - a - 1


def _sum_of_pair_masks(session, k):
    """Reference net mask of client k, built edge by edge from pair_mask."""
    mask = FieldVector.zeros(session.d, session.params)
    for other in session.neighbours(k):
        if k < other:
            mask = mask.add(session.pair_mask(k, other))
        elif other < k:
            mask = mask.sub(session.pair_mask(other, k))
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
            assert applied[k] == session.client_mask(k)

    @pytest.mark.parametrize("field", ["f7", "fM61"])
    def test_pair_masks_are_the_applied_rows(self, field, rng, request):
        params = request.getfixturevalue(field)
        session = _session(params, d=16, participants=(1, 2, 3, 5, 9))
        inputs = _inputs(params, session, rng)
        secagg_sum(inputs, session)
        applied = _applied_masks(session, inputs)
        for k in session.participants:
            assert applied[k] == _sum_of_pair_masks(session, k)

    def test_pair_mask_requires_participants(self, fM61):
        session = _session(fM61, participants=(1, 2, 3, 5, 9))
        with pytest.raises(ConfigurationError):
            session.pair_mask(3, 4)

    @pytest.mark.parametrize("block_rows", [1, 3])
    def test_block_size_does_not_change_masks(self, fM61, monkeypatch, block_rows):
        d = 16
        want_session = _session(fM61, d=d, participants=tuple(range(1, 12)))
        want = [want_session.client_mask(k) for k in want_session.participants]
        monkeypatch.setattr(secagg, "_BLOCK_WORDS", block_rows * d)
        session = _session(fM61, d=d, participants=tuple(range(1, 12)))
        assert [session.client_mask(k) for k in session.participants] == want

    @pytest.mark.parametrize("field", ["f7", "fM61"])
    def test_rejected_word_is_replaced(self, field, rng, request, monkeypatch):
        params = request.getfixturevalue(field)
        participants, d = (1, 2, 3, 5, 9), 8
        plain = _session(params, d=d, participants=participants)
        before = plain.pair_mask(2, 5)
        # pair (2, 5) sits at positions (1, 3): pair index 5, coordinate 4
        at = _pair_index(1, 3, len(participants)) * d + 4
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
        after = session.pair_mask(2, 5)
        assert int(after.values[4]) == int(params.uniform(fallback, 1)[0])
        assert np.array_equal(np.delete(after.values, 4), np.delete(before.values, 4))
        assert session.pair_mask(1, 2) == plain.pair_mask(1, 2)
        assert session.pair_mask(5, 9) == plain.pair_mask(5, 9)

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
        assert secagg._graph(n).starts[n] == n * k // 2

    @pytest.mark.parametrize("n", list(range(1, 42)) + [64, 127, 128])
    def test_every_client_has_k_neighbours(self, fM61, n):
        session = _session(fM61, participants=tuple(range(3, 3 + 2 * n, 2)))
        k = secagg.mask_degree(n)
        nb = {p: session.neighbours(p) for p in session.participants}
        for p, peers in nb.items():
            assert len(peers) == k and p not in peers
            assert all(p in nb[q] for q in peers)

    @pytest.mark.parametrize("n", [10, 12, 16])
    def test_connected_after_removing_any_k_minus_1(self, fM61, n):
        session = _session(fM61, participants=tuple(range(1, n + 1)))
        k = secagg.mask_degree(n)
        assert k < n - 1   # a sparse graph
        adjacent = {p: set(session.neighbours(p)) for p in session.participants}
        for removed in itertools.combinations(session.participants, k - 1):
            assert _connected(set(session.participants) - set(removed), adjacent)
        # k is tight: removing one client's neighbours isolates it
        assert not _connected(set(session.participants) - adjacent[1], adjacent)

    def test_slots_follow_the_session(self, fM61):
        nb = [_session(fM61, participants=tuple(range(1, 17)), seed=seed,
                       round_id=r).neighbours(1) for seed, r in ((7, 1), (7, 2), (8, 1))]
        assert len(set(nb)) == 3
        assert _session(fM61, participants=tuple(range(1, 17))).neighbours(1) == nb[0]

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 9])
    def test_complete_graph_is_the_pair_order(self, n):
        assert secagg.mask_degree(n) == n - 1
        for a, b in itertools.combinations(range(n), 2):
            assert secagg.edge_offset(a, b, n) == _pair_index(a, b, n)

    @pytest.mark.parametrize("n", [8, 11, 40])
    def test_edge_offsets_enumerate_the_edges(self, n):
        k = secagg.mask_degree(n)
        offsets = []
        for a, b in itertools.combinations(range(n), 2):
            if min(b - a, n - b + a) <= k // 2:
                offsets.append(secagg.edge_offset(a, b, n))
            else:
                with pytest.raises(ConfigurationError):
                    secagg.edge_offset(a, b, n)
        assert offsets == list(range(n * k // 2))

    @pytest.mark.parametrize("field,n,digest", [
        ("f7", 2, "0b749fe5f256baaf"), ("f7", 5, "638589521ca67944"),
        ("f7", 7, "4adc589d152cd758"), ("f7", 9, "638c280d11e88750"),
        ("fM61", 2, "bad6731e25fd35f5"), ("fM61", 5, "c141be2348bed3bc"),
        ("fM61", 7, "2fc30e778b0a4d11"), ("fM61", 9, "0ea1ad543bb15e5e"),
    ])
    def test_complete_graph_masks_are_pinned(self, field, n, digest, request):
        # digests of the all-pairs protocol before the sparse graph existed
        params = request.getfixturevalue(field)
        session = _session(params, d=16, participants=tuple(range(1, 2 * n, 2)))
        masks = np.stack([session.client_mask(k).values for k in session.participants])
        assert hashlib.sha256(masks.tobytes()).hexdigest()[:16] == digest

    @pytest.mark.parametrize("field,n,digest", [
        ("f7", 11, "63b8818a8fd7db7d"), ("f7", 40, "c64c65fb31691ac3"),
        ("f7", 128, "75f9a4b3b9ba71d7"),
        ("fM61", 11, "13a0140d127ecf47"), ("fM61", 40, "d5f7756740692f14"),
        ("fM61", 128, "100d4a73730d85d9"),
    ])
    def test_sparse_graph_masks_are_pinned(self, field, n, digest, request):
        # digests of the Harary-graph masks as first shipped
        params = request.getfixturevalue(field)
        session = _session(params, participants=tuple(range(1, 2 * n, 2)))
        masks = session._net_masks()[session._slot]
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
            assert applied[k] == session.client_mask(k)
            assert applied[k] == _sum_of_pair_masks(session, k)

    def test_pair_mask_of_a_non_edge_raises(self, fM61):
        session = _session(fM61, participants=tuple(range(1, 12)))
        strangers = [p for p in session.participants
                     if p != 1 and p not in session.neighbours(1)]
        assert len(strangers) == 10 - secagg.mask_degree(11)
        for p in strangers:
            with pytest.raises(ConfigurationError, match="no mask edge"):
                session.pair_mask(1, p)

    @pytest.mark.parametrize("field", ["f7", "fM61"])
    def test_rejected_word_in_a_sparse_edge(self, field, rng, request, monkeypatch):
        params = request.getfixturevalue(field)
        participants, d = tuple(range(1, 12)), 8
        plain = _session(params, d=d, participants=participants)
        slot = {p: int(s) for p, s in zip(participants, plain._slot)}
        # the edge from slot 0 to slot n-1 is in slot 0's wrapped slice
        i, j = sorted(p for p in participants if slot[p] in (0, 10))
        assert j in plain.neighbours(i)
        before = plain.pair_mask(i, j)
        at = secagg.edge_offset(0, 10, 11) * d + 5
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
        after = session.pair_mask(i, j)
        want = raw if slot[i] == 0 else (params.modulus - raw) % params.modulus
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
        # the first word of each block and a middle word of its last edge
        at = []
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
    """Masks over whole sessions, with rejected words at sender boundaries."""

    @pytest.mark.parametrize("field", ["f7", "fM61"])
    @pytest.mark.parametrize("n", [9, 40])
    def test_rejected_words_at_sender_boundaries(self, field, n, request,
                                                 monkeypatch):
        params = request.getfixturevalue(field)
        participants, d = tuple(range(1, n + 1)), 8
        starts = secagg._graph(n).starts
        senders = [0, 1, n // 3, n // 2, n - 3, n - 2]
        # the first word of each sender and a middle word of its last edge
        at = []
        for a in senders:
            at.append(starts[a] * d)
            at.append((starts[a + 1] - 1) * d + d // 2)
        _force_words(monkeypatch, *at)
        session, inputs, out = _run(params, participants, d)
        assert out == _field_sum(inputs, d, params)
        for _, masked in session.observations:
            assert int(masked.max()) < params.modulus
        applied = _applied_masks(session, inputs)
        for k in participants:
            assert applied[k] == _sum_of_pair_masks(session, k)


def _block_offsets(n, rows):
    """Edge offsets at which the blocks of at most ``rows`` rows start, and
    the edge count of the session after the last."""
    offsets = [0]
    for pieces in secagg._blocks(secagg._graph(n).later, rows):
        offsets.append(offsets[-1] + sum(b1 - b0 for _, b0, b1 in pieces))
    return offsets


def _split_run(params, participants, d, rows, monkeypatch):
    """(session, inputs, output) of a session read in blocks of at most
    ``rows`` rows, after checking its net masks, observations and output
    against the same session read in one block."""
    monkeypatch.setattr(secagg, "_BLOCK_WORDS", 1 << 40)
    whole, inputs, want = _run(params, participants, d)
    whole_masks = whole._net_masks()
    monkeypatch.setattr(secagg, "_BLOCK_WORDS", rows * d)
    session, _, out = _run(params, participants, d)
    assert out == want
    assert np.array_equal(session._net_masks(), whole_masks)
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
            assert applied[k] == session.client_mask(k)
            assert applied[k] == _sum_of_pair_masks(session, k)

    @pytest.mark.parametrize("field", ["f7", "fM61"])
    @pytest.mark.parametrize("rows", [2, 3, 4])
    def test_rejected_word_in_every_range(self, field, rows, request,
                                          monkeypatch):
        params = request.getfixturevalue(field)
        participants, d = tuple(range(1, 10)), 8
        offsets = _block_offsets(len(participants), rows)
        assert max(np.diff(offsets)) <= rows < offsets[-1]
        # the last word of each block's first edge and a middle word of its last
        at = []
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
        assert secagg._graph(128).starts[128] == 896
        split = _session(fM61, d=d, participants=participants)._net_masks()
        monkeypatch.setattr(secagg, "_BLOCK_WORDS", 1 << 40)
        serial = _session(fM61, d=d, participants=participants)._net_masks()
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


def _scalar_run(params, participants):
    """(session, inputs, output) of one secagg_scalar with fixed inputs."""
    session = _session(params, d=1, participants=participants)
    values = params.uniform(np.random.default_rng(3), len(participants))
    inputs = {k: int(v) for k, v in zip(participants, values)}
    return session, inputs, secagg_scalar(inputs, session)


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
        # a d = 1 session sums its masks edge by edge; pair_mask reads each
        # edge alone through PCG64.advance
        params = request.getfixturevalue(field)
        participants = tuple(range(1, n + 1))
        plain, _, _ = _scalar_run(params, participants)
        if rejected:
            # the first and the last edge (= word) of several senders
            starts = secagg._graph(n).starts
            senders = sorted({0, 1, n // 3, n // 2, n - 3, n - 2} & set(range(n - 1)))
            _force_words(monkeypatch, *{w for a in senders
                                        for w in (starts[a], starts[a + 1] - 1)})
        session, inputs, out = _scalar_run(params, participants)
        q = params.modulus
        assert out == sum(inputs.values()) % q
        assert [k for k, _ in session.observations] == list(participants)
        for k, masked in session.observations:
            assert masked.shape == (1,) and int(masked[0]) < q
            applied = (int(masked[0]) - inputs[k]) % q
            assert applied == int(_sum_of_pair_masks(session, k).values[0])
        if rejected and n > 1:   # a session of one has no edge
            assert ([m.tolist() for _, m in session.observations]
                    != [m.tolist() for _, m in plain.observations])

    @pytest.mark.parametrize("field", ["f7", "fM61"])
    def test_client_mask_is_the_sum_of_pair_masks(self, field, request):
        params = request.getfixturevalue(field)
        session = _session(params, d=1, participants=tuple(range(1, 41)))
        for k in session.participants:
            assert session.client_mask(k) == _sum_of_pair_masks(session, k)

    def test_requires_d1_session(self, fM61):
        session = _session(fM61, d=2)
        with pytest.raises(ConfigurationError):
            secagg_scalar({k: 0 for k in session.participants}, session)

