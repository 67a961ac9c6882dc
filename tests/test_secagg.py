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


def _sum_of_pair_masks(session, k):
    """Reference net mask of client k, built pair by pair from pair_mask."""
    mask = FieldVector.zeros(session.d, session.params)
    for other in session.participants:
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
        at = secagg.pair_index(1, 3, len(participants)) * d + 4
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


class TestSplit:
    """Sessions split into sender ranges give the serial masks bit for bit."""

    @pytest.mark.parametrize("n,workers,want", [
        (2, 1, [(0, 1)]), (2, 4, [(0, 1)]),
        (4, 3, [(0, 1), (1, 2), (2, 3)]),
        (5, 4, [(0, 1), (1, 2), (2, 3), (3, 4)]),
        (7, 2, [(0, 2), (2, 6)]),
        (128, 2, [(0, 38), (38, 127)]),
        (1, 2, [(0, 0)]),
    ])
    def test_sender_ranges(self, n, workers, want):
        assert secagg._sender_ranges(n, workers) == want

    @pytest.mark.parametrize("n", [2, 3, 6, 11, 40])
    @pytest.mark.parametrize("workers", [2, 3, 4, 7])
    def test_sender_ranges_are_balanced(self, n, workers):
        ranges = secagg._sender_ranges(n, workers)
        assert ranges[0][0] == 0 and ranges[-1][1] == n - 1
        assert all(a1 == b0 for (_, a1), (b0, _) in zip(ranges, ranges[1:]))
        assert len(ranges) == min(workers, n - 1)
        pairs = [secagg.pair_index(a1, a1 + 1, n) - secagg.pair_index(a0, a0 + 1, n)
                 for a0, a1 in ranges]
        # no range holds more than its share plus one sender's row of pairs
        assert max(pairs) <= n * (n - 1) / 2 / len(ranges) + n - 1

    @pytest.mark.parametrize("field", ["f7", "fM61"])
    @pytest.mark.parametrize("participants", [(4, 9), (1, 2, 3, 5, 9),
                                              (1, 2, 3, 4), tuple(range(1, 12))])
    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_split_equals_serial(self, field, participants, workers, request,
                                 monkeypatch):
        params = request.getfixturevalue(field)
        d = 8
        monkeypatch.setattr(secagg, "_worker_count", lambda words: 1)
        serial, inputs, want = _run(params, participants, d)
        serial_masks = serial._net_masks()
        monkeypatch.setattr(secagg, "_worker_count", lambda words: workers)
        session, _, out = _run(params, participants, d)
        assert out == want
        assert np.array_equal(session._net_masks(), serial_masks)
        assert [k for k, _ in session.observations] == list(participants)
        for (_, got), (_, ref) in zip(session.observations, serial.observations):
            assert np.array_equal(got, ref)
        applied = _applied_masks(session, inputs)
        for k in participants:
            assert applied[k] == session.client_mask(k)
            assert applied[k] == _sum_of_pair_masks(session, k)

    @pytest.mark.parametrize("field", ["f7", "fM61"])
    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_rejected_word_in_every_range(self, field, workers, request,
                                          monkeypatch):
        params = request.getfixturevalue(field)
        participants, d = tuple(range(1, 10)), 8
        n = len(participants)
        ranges = secagg._sender_ranges(n, workers)
        assert len(ranges) == workers
        # the last word of each range's first pair and a middle word of its last
        at = []
        for a0, a1 in ranges:
            at.append(secagg.pair_index(a0, a0 + 1, n) * d + d - 1)
            at.append(secagg.pair_index(a1 - 1, n - 1, n) * d + d // 2)
        _force_words(monkeypatch, *at)
        monkeypatch.setattr(secagg, "_worker_count", lambda words: 1)
        serial, inputs, want = _run(params, participants, d)
        monkeypatch.setattr(secagg, "_worker_count", lambda words: workers)
        session, _, out = _run(params, participants, d)
        assert out == want
        assert out == _field_sum(inputs, d, params)
        for (_, got), (_, ref) in zip(session.observations, serial.observations):
            assert np.array_equal(got, ref)
            assert int(got.max()) < params.modulus
        applied = _applied_masks(session, inputs)
        for k in participants:
            assert applied[k] == _sum_of_pair_masks(session, k)

    def test_worker_count_follows_split_size_and_cpus(self, monkeypatch):
        monkeypatch.setattr(secagg.os, "sched_getaffinity",
                            lambda pid: {0, 1, 2}, raising=False)
        split = secagg._SPLIT_WORDS
        assert secagg._worker_count(0) == 1
        assert secagg._worker_count(split - 1) == 1
        assert secagg._worker_count(2 * split) == 2
        assert secagg._worker_count(100 * split) == 3
        # K=32 sessions at the shipped d stay serial; K=128 ones split
        assert secagg._worker_count(32 * 31 // 2 * 5514) == 1
        assert secagg._worker_count(128 * 127 // 2 * 5514) == 3
        monkeypatch.setattr(secagg.os, "sched_getaffinity",
                            lambda pid: {0}, raising=False)
        assert secagg._worker_count(128 * 127 // 2 * 5514) == 1

    def test_shipped_split_size_matches_serial(self, fM61, monkeypatch):
        # K=128 at d=2100 is just over two split sizes of raw words, so the
        # session splits on any machine with two usable CPUs
        participants, d = tuple(range(1, 129)), 2100
        assert secagg._worker_count(128 * 127 // 2 * d) == min(
            2, len(secagg.os.sched_getaffinity(0)))
        split = _session(fM61, d=d, participants=participants)._net_masks()
        monkeypatch.setattr(secagg, "_worker_count", lambda words: 1)
        serial = _session(fM61, d=d, participants=participants)._net_masks()
        assert np.array_equal(split, serial)
        assert not np.any(serial.sum(axis=0, dtype=object) % fM61.modulus)

    @pytest.mark.parametrize("above", [False, True])
    def test_sessions_on_both_sides_of_split_size(self, fM61, monkeypatch, above):
        participants, d = tuple(range(1, 10)), 8      # 36 pairs, 288 words
        words = 36 * d
        monkeypatch.setattr(secagg.os, "sched_getaffinity",
                            lambda pid: {0, 1, 2, 3}, raising=False)
        monkeypatch.setattr(secagg, "_SPLIT_WORDS",
                            words // 2 if above else words + 1)
        assert secagg._worker_count(words) == (2 if above else 1)
        session, inputs, out = _run(fM61, participants, d)
        assert out == _field_sum(inputs, d, fM61)
        applied = _applied_masks(session, inputs)
        for k in participants:
            assert applied[k] == _sum_of_pair_masks(session, k)


class TestSecAggScalar:
    def test_matches_scalar_sum(self, fM61, rng):
        session = _session(fM61, d=1)
        inputs = {k: int(fM61.uniform(rng, 1)[0]) for k in session.participants}
        out = secagg_scalar(inputs, session)
        assert out == sum(inputs.values()) % fM61.modulus

    def test_requires_d1_session(self, fM61):
        session = _session(fM61, d=2)
        with pytest.raises(ConfigurationError):
            secagg_scalar({k: 0 for k in session.participants}, session)

