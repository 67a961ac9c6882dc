import json

import numpy as np
import pytest

from twmark import secagg
from twmark.errors import ConfigurationError, ProtocolAbortError
from twmark.field import FieldVector
from twmark.secagg import (
    SecAggSession,
    secagg_scalar,
    secagg_sum,
    write_observation_log,
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
    """A session stream whose raw word at offset ``at`` reads 2^64 - 1,
    the top word, which both the M61 and the generic mapping reject."""

    def __init__(self, stream, at):
        self.stream, self.at, self.pos = stream, at, 0

    def advance(self, delta):
        self.stream.advance(delta)
        self.pos += delta

    def random_raw(self, size):
        out = self.stream.random_raw(size)
        if self.pos <= self.at < self.pos + size:
            out[self.at - self.pos] = np.uint64(2**64 - 1)
        self.pos += size
        return out


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
        stream = SecAggSession._stream
        monkeypatch.setattr(SecAggSession, "_stream",
                            lambda self: _ForcedWord(stream(self), at))
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


class TestObservationLog:
    def test_ndjson_records(self, fM61, rng, tmp_path):
        session = _session(fM61)
        secagg_sum(_inputs(fM61, session, rng), session)
        path = tmp_path / "log.ndjson"
        write_observation_log(session, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == len(session.participants)
        for line, k in zip(lines, session.participants):
            rec = json.loads(line)
            assert rec["round"] == 1
            assert rec["client"] == k
            assert len(rec["digest"]) == 64
