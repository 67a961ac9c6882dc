import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twmark import field
from twmark.errors import (
    ConfigurationError,
    EncodingOverflowError,
    NonFiniteValueError,
    FieldMismatchError,
)
from twmark.field import (
    F_MODEL,
    F_SHARE,
    G_SCALE,
    M61,
    FieldParams,
    FieldVector,
    FixedPointCodec,
    ProtocolCodecs,
    _BLOCK_WORDS,
    _EXACT_ROWS,
    _matmul_mod,
    _mulmod_m61,
    check_aggregate_bound,
)


class TestFieldParams:
    def test_m61_is_prime(self):
        FieldParams(M61)  # must not raise

    # 2^64 - 59 is prime, but the sum of two of its elements overflows uint64
    @pytest.mark.parametrize("bad", [0, 1, 2, 4, 9, 15, M61 - 1, 2**64 - 59])
    def test_rejects_non_odd_primes(self, bad):
        with pytest.raises(ConfigurationError, match=f"modulus {bad} "):
            FieldParams(bad)

    def test_primality_cache_keeps_rejecting_composites(self):
        FieldParams(M61)
        assert field._is_prime.cache_info().currsize >= 1
        for bad in (M61 - 2, 2**31 - 1 + 2, (2**31 - 1) * (2**29 - 3)):
            for _ in range(2):  # the second time from the cache
                with pytest.raises(ConfigurationError, match=f"modulus {bad} "):
                    FieldParams(bad)
        FieldParams(2**31 - 1)

    def test_largest_moduli_below_2_63_add_exactly(self):
        q = 2**63 - 25
        top = FieldVector(np.array([q - 1, q - 2], dtype=np.uint64), FieldParams(q))
        assert top.add(top).values.tolist() == [(2 * (q - 1)) % q, (2 * (q - 2)) % q]

    def test_scalar_ops_q7(self, f7):
        assert f7.mul(3, 5) == 1
        assert f7.inv(3) == 5
        for a in range(1, 7):
            assert f7.mul(a, f7.inv(a)) == 1

    def test_inv_of_zero(self, f7):
        with pytest.raises(ZeroDivisionError):
            f7.inv(0)

    def test_modulus_mismatch(self, f7, fM61):
        with pytest.raises(FieldMismatchError):
            f7._check(fM61)

    def test_uniform_in_range_and_covers_small_field(self, f7, rng):
        draws = f7.uniform(rng, 2000)
        assert draws.dtype == np.uint64
        assert int(draws.max()) < 7
        assert set(int(v) for v in draws) == set(range(7))

    def test_uniform_m61_in_range(self, fM61, rng):
        draws = fM61.uniform(rng, 1000)
        assert int(draws.max()) < M61


class TestMulmodM61:
    def test_against_python_ints(self, rng):
        a = rng.integers(0, M61, size=10_000, dtype=np.uint64)
        b = rng.integers(0, M61, size=10_000, dtype=np.uint64)
        got = _mulmod_m61(a, b)
        want = [(int(x) * int(y)) % M61 for x, y in zip(a, b)]
        assert [int(v) for v in got] == want

    def test_extremes(self):
        ext = np.array([0, 1, 2, M61 - 1, M61 - 2, 1 << 60], dtype=np.uint64)
        for x in ext:
            got = _mulmod_m61(ext, np.full_like(ext, x))
            want = [(int(v) * int(x)) % M61 for v in ext]
            assert [int(v) for v in got] == want


class TestMatmulMod:
    @staticmethod
    def _reference(a, b, q):
        # Python ints throughout: an object-dtype product never wraps or rounds
        return ((a.astype(object) @ b.astype(object)) % q).tolist()

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_against_python_ints(self, data):
        q = data.draw(st.sampled_from([7, (1 << 31) - 1, M61]), label="q")
        m = data.draw(st.integers(1, 4), label="m")
        # above _EXACT_ROWS inner rows the M61 product runs in several passes
        n = data.draw(st.sampled_from([1, 2, 7, _EXACT_ROWS, _EXACT_ROWS + 1,
                                       2 * _EXACT_ROWS + 5]), label="n")
        width = _BLOCK_WORDS // max(m, n)  # columns of B per block
        p = data.draw(st.sampled_from([1, 5, width - 1, width + 1, 2 * width + 3]),
                      label="p")
        fill = data.draw(st.sampled_from(["uniform", "max", "mixed"]), label="fill")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        params = FieldParams(q)
        a, b = params.uniform(rng, (m, n)), params.uniform(rng, (n, p))
        if fill == "max":  # every limb full
            a[:], b[:] = q - 1, q - 1
        elif fill == "mixed":
            a[rng.random(a.shape) < 0.5] = q - 1
            b[rng.random(b.shape) < 0.5] = q - 1
        got = _matmul_mod(a, b, params)
        assert got.dtype == np.uint64 and got.shape == (m, p)
        assert got.tolist() == self._reference(a, b, q)


class TestFieldVector:
    def test_add_sub_neg_roundtrip(self, fM61, rng):
        a = FieldVector(fM61.uniform(rng, 64), fM61)
        b = FieldVector(fM61.uniform(rng, 64), fM61)
        assert a.add(b).sub(b) == a
        assert a.sub(a) == FieldVector.zeros(64, fM61)

    def test_scalar_mul_matches_python(self, fM61, rng):
        vals = fM61.uniform(rng, 32)
        v = FieldVector(vals, fM61)
        s = int(fM61.uniform(rng, 1)[0])
        got = v.scalar_mul(s)
        want = [(s * int(x)) % M61 for x in vals]
        assert [int(x) for x in got.values] == want

    def test_scalar_mul_small_field_fallback(self, f7):
        v = FieldVector(np.arange(7, dtype=np.uint64), f7)
        got = v.scalar_mul(3)
        assert [int(x) for x in got.values] == [(3 * i) % 7 for i in range(7)]

    def test_inner_exact_near_modulus(self, fM61):
        # worst case: every product is (q-1)^2 mod q = 1
        v = FieldVector(np.full(1000, M61 - 1, dtype=np.uint64), fM61)
        assert v.inner(v) == 1000 % M61

    def test_inner_matches_python(self, fM61, rng):
        a_vals = fM61.uniform(rng, 200)
        b_vals = fM61.uniform(rng, 200)
        a = FieldVector(a_vals, fM61)
        b = FieldVector(b_vals, fM61)
        want = sum(int(x) * int(y) for x, y in zip(a_vals, b_vals)) % M61
        assert a.inner(b) == want

    def test_rejects_out_of_range(self, f7):
        with pytest.raises(ConfigurationError):
            FieldVector(np.array([7], dtype=np.uint64), f7)

    def test_rejects_2d(self, f7):
        with pytest.raises(ConfigurationError):
            FieldVector(np.zeros((2, 2), dtype=np.uint64), f7)

    def test_length_mismatch(self, f7):
        a = FieldVector.zeros(3, f7)
        b = FieldVector.zeros(4, f7)
        with pytest.raises(ConfigurationError):
            a.add(b)

    def test_bytes_roundtrip(self, fM61, rng):
        v = FieldVector(fM61.uniform(rng, 17), fM61)
        data = v.words()
        assert len(data) == 17 * 8
        assert FieldVector(np.frombuffer(data, dtype="<u8"), fM61) == v


class TestFixedPointCodec:
    def test_worked_examples(self, fM61):
        codec = FixedPointCodec(20, fM61)
        assert codec.encode_scalar(0.5) == 524288
        assert codec.encode_scalar(-1.0) == M61 - (1 << 20)
        assert codec.encode_scalar(0.0) == 0
        assert codec.decode_scalar(524288) == 0.5
        assert codec.decode_scalar(M61 - (1 << 20)) == -1.0

    def test_half_away_from_zero_rounding(self, fM61):
        codec = FixedPointCodec(1, fM61)
        assert codec.encode_scalar(0.25) == 1      # 0.5 rounds up
        assert codec.encode_scalar(-0.25) == M61 - 1  # -0.5 rounds away

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=-1e6, max_value=1e6,
                     allow_nan=False, allow_infinity=False))
    def test_roundtrip_error_bound(self, x):
        codec = FixedPointCodec(F_SHARE)
        back = codec.decode_scalar(codec.encode_scalar(x))
        assert abs(back - x) <= 2.0 ** -(F_SHARE + 1)

    def test_overflow_names_coordinate(self, fM61):
        codec = FixedPointCodec(20, fM61)
        x = np.zeros(5)
        x[3] = codec.limit * 2
        with pytest.raises(EncodingOverflowError) as exc:
            codec.encode(x)
        assert exc.value.index == 3

    @pytest.mark.parametrize("bad", [np.nan, -np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, fM61, bad):
        codec = FixedPointCodec(20, fM61)
        x = np.zeros(5)
        x[2] = bad
        with pytest.raises(NonFiniteValueError) as exc:
            codec.encode(x)
        assert exc.value.index == 2
        with pytest.raises(ConfigurationError):
            codec.encode_scalar(bad)

    def test_negative_frac_bits(self, fM61):
        with pytest.raises(ConfigurationError):
            FixedPointCodec(-1, fM61)

    @pytest.mark.parametrize("q, most", [(M61, 59), (7, 1), (2**31 - 1, 29)])
    def test_frac_bits_leave_room_below_q_half(self, q, most):
        # 2^f < q/2, so that 1.0 encodes; 1100 bits once overflowed a float
        assert FixedPointCodec(most, FieldParams(q)).encode_scalar(1.0) == 1 << most
        for bits in (most + 1, 1100):
            with pytest.raises(ConfigurationError, match=f"^{bits} fractional bits: .* {q}$"):
                FixedPointCodec(bits, FieldParams(q))

    def test_vector_roundtrip(self, fM61, rng):
        codec = FixedPointCodec(F_SHARE, fM61)
        x = rng.standard_normal(500)
        back = codec.decode_centered(codec.encode(x))
        assert np.abs(back - x).max() <= 2.0 ** -(F_SHARE + 1)


class TestProtocolCodecs:
    def test_defaults(self, codecs):
        assert codecs.f_share == F_SHARE == 20
        assert codecs.g_scale == G_SCALE == 16
        assert codecs.f_model == F_MODEL == 36

    def test_role_sum_invariant(self, fM61):
        # f_model is derived from the other two roles, so it cannot disagree
        codecs = ProtocolCodecs(params=fM61, f_share=20, g_scale=10)
        assert codecs.f_model == codecs.model.frac_bits == 30
        with pytest.raises(TypeError):
            ProtocolCodecs(params=fM61, f_share=20, g_scale=16, f_model=30)
        with pytest.raises(AttributeError):
            codecs.f_model = 36


class TestAggregateBound:
    def test_desk_configuration_passes(self, codecs):
        rep = check_aggregate_bound(5514, 32, 10.0, 100.0, codecs)
        assert rep.ok
        rep.raise_if_failed()

    def test_constructed_overflow_fails(self, codecs):
        # verification term d * theta_max * 8 * 2^40 exceeds q/2
        rep = check_aggregate_bound(5514, 32, 1e6, 100.0, codecs)
        assert not rep.ok
        with pytest.raises(ConfigurationError):
            rep.raise_if_failed()

    def test_invalid_arguments(self, codecs):
        with pytest.raises(ConfigurationError):
            check_aggregate_bound(0, 32, 10.0, 100.0, codecs)
