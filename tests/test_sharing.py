import hashlib
import importlib
import itertools
import pkgutil
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from reference import derive_embedding_share, dkg_exchange, open_check, shamir_reconstruct

import twmark
from twmark.errors import ConfigurationError, SkipRoundError, ThresholdError
from twmark.field import M61, FieldParams, FieldVector, FixedPointCodec, ProtocolCodecs
from twmark.keysetup import setup_dkg, setup_trusted_dealer
from twmark.secagg import SecAggSession
from twmark.sharing import (
    Commitment,
    _vandermonde,
    ShamirConfig,
    commit,
    lagrange_at_zero,
    shamir_share,
)


def _vec(vals, params):
    return FieldVector(np.array(vals, dtype=np.uint64), params)


def _horner(secret, coeffs, points, q):
    """Reference evaluations P(x) = secret + a1*x + ... + a_{t-1}*x^{t-1} at
    every point, by Horner's rule over Python ints."""
    evals = []
    for x in points:
        acc = [0] * len(secret)
        for row in coeffs[::-1]:
            acc = [(a + int(c)) * x % q for a, c in zip(acc, row)]
        evals.append([(a + int(s)) % q for a, s in zip(acc, secret)])
    return evals


class TestSharesMatchHorner:
    """Dealer and DKG shares equal Horner evaluations of the coefficients the
    setup draws, so both the arithmetic and the RNG consumption are pinned;
    keep_key retains the drawn key and changes no share."""

    @pytest.mark.parametrize("q", [M61, (1 << 31) - 1])
    @pytest.mark.parametrize("K,t,keep_key", [(32, 16, False), (12, 4, False), (9, 9, False),
                                               (3, 1, False), (7, 5, True)])
    def test_dealer(self, q, K, t, keep_key):
        params, d, seed = FieldParams(q), 40, 17
        cfg = ShamirConfig(n_clients=K, threshold=t, params=params)
        codecs = ProtocolCodecs(params=params)
        setup = setup_trusted_dealer(cfg, d, np.random.default_rng(seed), codecs=codecs,
                                     keep_key=keep_key)
        replay = np.random.default_rng(seed)  # the dealer's draws, in order
        tau = replay.standard_normal(d)
        enc = codecs.share.encode(tau)
        replay.bytes(32)
        coeffs = params.uniform(replay, (t - 1, d))
        assert [s.point for s in setup.shares] == list(range(1, K + 1))
        assert [s.values.values.tolist() for s in setup.shares] == \
            _horner(enc.values, coeffs, cfg.points, q)
        assert setup.setup_id == replay.bytes(16)
        if keep_key:
            assert np.array_equal(setup.debug_key, tau)
        else:
            assert setup.debug_key is None

    @pytest.mark.parametrize("K,t,keep_key", [(32, 16, False), (12, 4, False), (6, 3, True)])
    def test_dkg(self, K, t, keep_key):
        params, d, seed, q = FieldParams(), 24, 23, M61
        cfg = ShamirConfig(n_clients=K, threshold=t, params=params)
        setup = setup_dkg(cfg, d, np.random.default_rng(seed), keep_key=keep_key)
        replay = np.random.default_rng(seed)
        seeds = replay.integers(0, 2**63, size=K)
        rngs = [np.random.Generator(np.random.PCG64(int(s))) for s in seeds]
        contributions = [r.standard_normal(d) / np.sqrt(K) for r in rngs]
        enc = [ProtocolCodecs().share.encode(w) for w in contributions]
        coeffs = [params.uniform(r, (t - 1, d)) for r in rngs]
        outgoing = [_horner(e.values, c, cfg.points, q) for e, c in zip(enc, coeffs)]
        want = [[sum(col) % q for col in zip(*(out[i] for out in outgoing))]
                for i in range(K)]
        assert [s.values.values.tolist() for s in setup.shares] == want
        assert setup.setup_id == replay.bytes(16)
        if keep_key:
            assert np.array_equal(setup.debug_key, sum(contributions))
        else:
            assert setup.debug_key is None
        shares, sent = dkg_exchange(enc, cfg, [None] * K, coeffs_per_client=coeffs)
        assert [s.values.values.tolist() for s in shares] == want
        assert [[s.values.values.tolist() for s in row] for row in sent] == outgoing


class TestVandermonde:
    @pytest.mark.parametrize("q, K, t", [(7, 6, 1), (7, 6, 6), ((1 << 31) - 1, 12, 9),
                                         (M61, 32, 16), (M61, 128, 64), ((1 << 62) - 57, 5, 5)])
    def test_running_products_equal_pow(self, q, K, t):
        points = range(1, K + 1)
        got = _vandermonde(points, t, q)
        assert got.dtype == np.uint64 and got.shape == (K, t)
        assert got.tolist() == [[pow(x, j, q) for j in range(t)] for x in points]


class TestShamirConfig:
    def test_default_points(self, fM61):
        cfg = ShamirConfig(n_clients=5, threshold=3, params=fM61)
        assert cfg.points == (1, 2, 3, 4, 5)

    def test_threshold_bounds(self, fM61):
        with pytest.raises(ConfigurationError):
            ShamirConfig(n_clients=3, threshold=4, params=fM61)
        with pytest.raises(ConfigurationError):
            ShamirConfig(n_clients=3, threshold=0, params=fM61)

    def test_rejects_zero_or_duplicate_points(self):
        # the points are 1..K: K = q puts a point at 0 mod q, K = q + 1 also
        # repeats point 1; K = q - 1 is the largest setup
        params = FieldParams(7)
        assert ShamirConfig(n_clients=6, threshold=3, params=params).points[-1] == 6
        for K in (7, 8):
            with pytest.raises(ConfigurationError, match="K < q"):
                ShamirConfig(n_clients=K, threshold=3, params=params)


class TestShamirShare:
    def test_worked_example_linear_polynomial(self):
        # P(x) = 5 + 3x over q = 31: P(1)=8, P(2)=11, P(3)=14
        params = FieldParams(31)
        cfg = ShamirConfig(n_clients=3, threshold=2, params=params)
        shares = shamir_share(_vec([5], params), cfg,
                              np.random.default_rng(0),
                              coeffs=np.array([[3]], dtype=np.uint64))
        assert [(s.point, int(s.values.values[0])) for s in shares] == [
            (1, 8), (2, 11), (3, 14)
        ]

    def test_roundtrip_all_tk_up_to_8(self, fM61, rng):
        secret = FieldVector(fM61.uniform(rng, 6), fM61)
        for K in range(1, 9):
            for t in range(1, K + 1):
                cfg = ShamirConfig(n_clients=K, threshold=t, params=fM61)
                shares = shamir_share(secret, cfg, rng)
                assert shamir_reconstruct(shares[:t], cfg) == secret
                assert shamir_reconstruct(shares, cfg) == secret

    def test_below_threshold_raises(self, fM61, rng):
        cfg = ShamirConfig(n_clients=5, threshold=3, params=fM61)
        shares = shamir_share(FieldVector(fM61.uniform(rng, 4), fM61), cfg, rng)
        with pytest.raises(ThresholdError):
            shamir_reconstruct(shares[:2], cfg)

    def test_empty_secret_rejected(self, fM61, rng):
        cfg = ShamirConfig(n_clients=3, threshold=2, params=fM61)
        with pytest.raises(ConfigurationError):
            shamir_share(FieldVector.zeros(0, fM61), cfg, rng)

    def test_coeffs_shape_validation(self, fM61, rng):
        cfg = ShamirConfig(n_clients=3, threshold=3, params=fM61)
        with pytest.raises(ConfigurationError):
            shamir_share(FieldVector.zeros(4, fM61), cfg, rng,
                         coeffs=np.zeros((1, 4), dtype=np.uint64))


class TestLagrange:
    def test_worked_examples(self, fM61):
        q = fM61.modulus
        assert lagrange_at_zero([1, 2], fM61) == {1: 2, 2: q - 1}
        assert lagrange_at_zero([1, 2, 3], fM61) == {1: 3, 2: q - 3, 3: 1}

    def test_interpolation_identity(self, fM61, rng):
        # sum_i lambda_i P(x_i) = P(0) for random cubics
        q = fM61.modulus
        for _ in range(20):
            coeffs = [int(v) for v in fM61.uniform(rng, 4)]
            pts = sorted(rng.choice(np.arange(1, 50), size=4, replace=False))
            lam = lagrange_at_zero([int(p) for p in pts], fM61)
            acc = 0
            for x in pts:
                px = sum(c * pow(int(x), i, q) for i, c in enumerate(coeffs)) % q
                acc = (acc + lam[int(x)] * px) % q
            assert acc == coeffs[0]

    def test_duplicate_points_rejected(self, fM61):
        with pytest.raises(ConfigurationError):
            lagrange_at_zero([1, 2, 1], fM61)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_equals_the_product_formula(self, data):
        q = data.draw(st.sampled_from([7, 1_000_003, M61]))
        params = FieldParams(q)
        # distinct nonzero residues; a point may be any integer of its class
        residues = data.draw(st.lists(st.integers(1, min(q - 1, 10**6)), min_size=1,
                                      max_size=min(q - 1, 40), unique=True))
        pts = [r + q * data.draw(st.integers(-2, 2)) for r in residues]
        want = {}
        for xi in pts:
            num, den = 1, 1
            for xj in pts:
                if xj != xi:
                    num, den = num * -xj % q, den * (xi - xj) % q
            want[xi] = num * pow(den, q - 2, q) % q
        for _ in range(2):  # computed, then read from the cache
            assert dict(lagrange_at_zero(pts, params)) == want

    def test_returned_mapping_cannot_change_a_later_result(self, fM61):
        pts = [3, 5, 9, 11]
        lam = lagrange_at_zero(pts, fM61)
        want = dict(lam)
        with pytest.raises(TypeError):
            lam[3] = 0
        with pytest.raises(AttributeError):
            lam.clear()
        pts.append(13)  # the caller's list is not the cache key
        assert lagrange_at_zero([3, 5, 9, 11], fM61) == want

    def test_duplicate_points_raise_on_every_call(self, f7):
        for pts in ([1, 2, 1], [1, 8], [1, 8]):  # 8 = 1 (mod 7)
            with pytest.raises(ConfigurationError, match="duplicate"):
                lagrange_at_zero(pts, f7)
            assert lagrange_at_zero(pts[:1], f7) == {1: 1}


class TestEmbeddingShares:
    def test_congruence_over_random_subsets(self, fM61, rng):
        # sum over the participant set of lambda_k * s_k == encoded secret
        cfg = ShamirConfig(n_clients=10, threshold=4, params=fM61)
        secret = FieldVector(fM61.uniform(rng, 8), fM61)
        shares = {s.point: s for s in shamir_share(secret, cfg, rng)}
        for _ in range(50):
            size = int(rng.integers(4, 11))
            subset = tuple(sorted(
                int(p) + 1 for p in rng.choice(10, size, replace=False)
            ))
            acc = FieldVector.zeros(8, fM61)
            for k in subset:
                w = derive_embedding_share(shares[k], subset, cfg)
                acc = acc.add(w.values)
            assert acc == secret

    def test_below_threshold_skips(self, fM61, rng):
        cfg = ShamirConfig(n_clients=5, threshold=3, params=fM61)
        shares = shamir_share(FieldVector(fM61.uniform(rng, 2), fM61), cfg, rng)
        with pytest.raises(SkipRoundError):
            derive_embedding_share(shares[0], (1, 2), cfg)

    def test_point_must_participate(self, fM61, rng):
        cfg = ShamirConfig(n_clients=5, threshold=2, params=fM61)
        shares = shamir_share(FieldVector(fM61.uniform(rng, 2), fM61), cfg, rng)
        with pytest.raises(ConfigurationError):
            derive_embedding_share(shares[0], (2, 3, 4), cfg)


class TestCommitment:
    def _setup(self, fM61, rng):
        codec = FixedPointCodec(20, fM61)
        tau = rng.standard_normal(16)
        return codec.encode(tau)

    def test_deterministic_given_nonce(self, fM61, rng):
        enc = self._setup(fM61, rng)
        nonce = bytes(range(32))
        c1 = commit(enc, 20, nonce=nonce)
        c2 = commit(enc, 20, nonce=nonce)
        assert c1 == c2
        assert open_check(c1, enc, 20)

    def test_payload_layout(self, fM61, rng):
        # the norm slot holds public_norm(d) = sqrt(16) = 4.0
        enc = self._setup(fM61, rng)
        nonce = bytes(range(32))
        payload = (nonce + (16).to_bytes(8, "little") + fM61.modulus.to_bytes(8, "little")
                   + (20).to_bytes(2, "little") + enc.words() + struct.pack("<d", 4.0))
        assert commit(enc, 20, nonce=nonce).digest == hashlib.sha256(payload).digest()

    def test_fresh_nonces_hide(self, fM61, rng):
        enc = self._setup(fM61, rng)
        assert commit(enc, 20).digest != commit(enc, 20).digest

    def test_binding_rejects_tampering(self, fM61, rng):
        enc = self._setup(fM61, rng)
        c = commit(enc, 20)
        other = enc.add(FieldVector(np.ones(16, dtype=np.uint64), fM61))
        assert not open_check(c, other, 20)
        assert not open_check(c, enc, 21)

    def test_bad_lengths_rejected(self):
        with pytest.raises(ConfigurationError):
            Commitment(nonce=b"short", digest=b"\x00" * 32)


def test_no_twmark_module_holds_a_reference_path():
    # the reference paths live in tests/reference.py: no function in the
    # package reconstructs the key, and each job has one shipped path
    names = ("shamir_reconstruct", "derive_embedding_share", "dkg_exchange", "secagg_sum",
             "_edge", "neighbours", "open_check", "estimate_key_insider")
    modules = [importlib.import_module(f"twmark.{m.name}")
               for m in pkgutil.iter_modules(twmark.__path__) if m.name != "__main__"]
    assert {"twmark.keysetup", "twmark.secagg", "twmark.sharing"} <= {m.__name__ for m in modules}
    for module in [twmark, *modules]:
        for name in names:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    assert not set(names) & set(twmark.__all__)
    assert not hasattr(SecAggSession, "neighbours")
