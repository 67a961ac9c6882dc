import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twmark.errors import (
    ConfigurationError,
    DegenerateModelError,
    FieldMismatchError,
    FingerprintMismatchError,
    ThresholdError,
)
from twmark.field import (F_SHARE, M61, TAU_INF_BOUND, FieldParams, FieldVector,
                          FixedPointCodec, ProtocolCodecs, verification_bound)
from twmark.flsim import MlpShape
from twmark import verify
from twmark.keysetup import setup_trusted_dealer
from twmark.secagg import secagg_scalar
from twmark.sharing import ShamirConfig, ShamirShare
from twmark.verify import (
    CalibrationTable,
    Coalition,
    EncodedSuspect,
    VerificationReport,
    calibrate,
    coalition_statistic,
    cosine_against_keys,
    PartialVerification,
    model_fingerprint,
    partial_inner,
    verify_direct,
)


def _table(mu=0.0, sigma=0.01, dim=64, fingerprint=""):
    return CalibrationTable(mu=mu, sigma=sigma, n_models=2,
                            n_keys_per_model=100, skewness=0.0,
                            excess_kurtosis=0.0, dim=dim,
                            fingerprint=fingerprint, f_share=20)


def _setup(rng, K=5, t=3, d=64):
    cfg = ShamirConfig(n_clients=K, threshold=t, params=FieldParams())
    return setup_trusted_dealer(cfg, d, rng, keep_key=True)


class TestCalibrationTable:
    def test_save_load_roundtrip(self, tmp_path):
        t = _table(mu=1e-4, sigma=0.013, dim=5514, fingerprint="mlp-32x128x10-d5514")
        path = tmp_path / "calibration.txt"
        t.save(path)
        assert CalibrationTable.load(path) == t

    def test_load_does_not_evaluate_code(self, tmp_path):
        path = tmp_path / "calibration.txt"
        _table().save(path)
        text = path.read_text().replace(
            "mu = 0.0", "mu = ().__class__.__base__.__subclasses__()")
        path.write_text(text)
        with pytest.raises(ConfigurationError):
            CalibrationTable.load(path)

    def test_load_rejects_truncated_file(self, tmp_path):
        path = tmp_path / "calibration.txt"
        _table(dim=5514, fingerprint="mlp-32x128x10-d5514").save(path)
        data = path.read_bytes()
        # every prefix short of the final newline lacks a field or a value
        for cut in range(len(data) - 1):
            path.write_bytes(data[:cut])
            with pytest.raises(ConfigurationError):
                CalibrationTable.load(path)

    @pytest.mark.parametrize("line", ["dim = 64.5", "sigma = 'x'", "mu = 1e999",
                                      "colour = 1", "mu 0.0", "mu = [1]"])
    def test_load_checks_fields(self, tmp_path, line):
        path = tmp_path / "calibration.txt"
        _table().save(path)
        path.write_text(path.read_text() + line + "\n")
        with pytest.raises(ConfigurationError):
            CalibrationTable.load(path)

    def test_sigma_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            _table(sigma=0.0)

    def test_normality_warning_thresholds(self):
        ok = _table()
        assert not ok.normality_warning
        skewed = CalibrationTable(mu=0, sigma=1, n_models=2,
                                  n_keys_per_model=100, skewness=0.4,
                                  excess_kurtosis=0.0, dim=4, fingerprint="",
                                  f_share=20)
        assert skewed.normality_warning


class TestPartialInner:
    def test_matches_python_reference(self, rng, codecs):
        setup = _setup(rng, d=16)
        theta = rng.standard_normal(16)
        enc = codecs.share.encode(theta)
        share = setup.shares[0]
        [got] = partial_inner(Coalition.of([share]), theta, codecs.share)
        want = sum(
            int(a) * int(b) for a, b in zip(enc.values, share.values.values)
        ) % codecs.params.modulus
        assert got.point == 1 and got.value == want

    def test_accepts_encoded_model(self, rng, codecs):
        setup = _setup(rng, d=16)
        theta = rng.standard_normal(16)
        enc = codecs.share.encode(theta)
        coalition = Coalition.of(setup.shares)
        assert (partial_inner(coalition, enc, codecs.share)
                == partial_inner(coalition, theta, codecs.share))

    def test_length_mismatch(self, rng, codecs):
        setup = _setup(rng, d=16)
        with pytest.raises(ConfigurationError):
            partial_inner(Coalition.of(setup.shares[:1]), np.zeros(8), codecs.share)


# 7, a mid-size prime, M61 and the largest prime below 2^63
_PRIMES = (7, 1_000_003, M61, (1 << 63) - 25)


def _elements(rng, q, d, edges=0.25):
    """d elements of [0, q), the share ``edges`` of them 0, 1, (q-1)/2,
    (q+1)/2 or q-1."""
    vals = FieldParams(q).uniform(rng, d)
    edge = np.array([0, 1, (q - 1) // 2, (q + 1) // 2, q - 1], dtype=np.uint64)
    pick = rng.random(d) < edges
    vals[pick] = rng.choice(edge, int(pick.sum()))
    return vals


def _suspect(data, rng, codec, d):
    """A model at +-codec.limit, a model inside it, any field vector, or one
    whose centered values reach 2^24 - 1 or 2^48 - 1, the widest limbs.
    Signs all alike make the partial sums as large as they get."""
    q = codec.params.modulus
    kind = data.draw(st.sampled_from(["limit", "inside", "field", "wide"]))
    sign = data.draw(st.sampled_from([1, -1, 0]))
    signs = np.where(rng.random(d) < 0.5, -1, 1) if sign == 0 else np.full(d, sign)
    top = np.nextafter(codec.limit, 0.0)
    if kind == "limit":
        return signs * top
    if kind == "inside":
        return signs * top * rng.random(d) * 2.0 ** -data.draw(st.integers(0, 60))
    if kind == "field":
        return FieldVector(_elements(rng, q, d), codec.params)
    bound = min((1 << data.draw(st.sampled_from([24, 48]))) - 1, (q - 1) // 2)
    low = data.draw(st.sampled_from([0, bound]))
    c = [int(s) * int(v) for s, v in zip(signs, rng.integers(low, bound, d, endpoint=True))]
    c[int(rng.integers(d))] = bound
    return FieldVector([v % q for v in c], codec.params)


class TestPartialInnerKernel:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_equals_the_python_int_sum(self, data):
        q = data.draw(st.sampled_from(_PRIMES))
        params = FieldParams(q)
        codec = FixedPointCodec(data.draw(st.integers(0, (q - 1).bit_length() - 2)), params)
        # lengths past 16384 take at least three passes of the widest limbs
        d = data.draw(st.integers(1, 40) | st.integers(16385, 20000))
        t = data.draw(st.sampled_from([1, 2, 5, 64]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        theta = _suspect(data, rng, codec, d)
        edges = data.draw(st.sampled_from([0.25, 1.0]))
        shares = [ShamirShare(point=j, values=FieldVector(_elements(rng, q, d, edges), params))
                  for j in range(1, t + 1)]
        enc = theta if isinstance(theta, FieldVector) else codec.encode(theta)
        first = sum(int(a) * int(b) for a, b in zip(enc.values, shares[0].values.values)) % q
        want = [PartialVerification(point=s.point, value=enc.inner(s.values)) for s in shares]
        assert want[0].value == first
        assert partial_inner(Coalition.of(shares), theta, codec) == want
        assert partial_inner(Coalition.of(shares), EncodedSuspect.of(enc), codec) == want

    def test_default_codec_takes_one_product_per_share(self, codecs):
        # the largest model the verification bound lets through at d = 5514
        d = 5514
        top = 2.0 ** 60 / (d * TAU_INF_BOUND * 2.0 ** (2 * F_SHARE)) * (1 - 2.0 ** -40)
        assert verification_bound(d, top, F_SHARE) < codecs.params.modulus / 2.0
        theta = np.where(np.arange(d) % 2, top, -top)
        assert EncodedSuspect.of(codecs.share.encode(theta)).rows >= d

    def test_widest_limbs_take_several_passes(self, rng):
        codec = FixedPointCodec(20, FieldParams())
        theta = rng.uniform(-15.9, 15.9, 20000)
        x = EncodedSuspect.of(codec.encode(theta))
        assert x.limbs.shape == (1, 20000) and x.bits == 24 and x.rows < 20000 // 2
        share = ShamirShare(point=1, values=FieldVector(_elements(rng, M61, 20000),
                                                        codec.params))
        want = codec.encode(theta).inner(share.values)
        assert partial_inner(Coalition.of([share]), x, codec)[0].value == want

    @pytest.mark.parametrize("bits", [24, 48])
    def test_worst_case_sums_stay_exact(self, bits):
        # every term the largest a pass allows, a full limb of c times q - 1
        # (16-bit limbs 0xffe6, 0xffff, 0xffff, 0x7fff), and an odd sum
        q = _PRIMES[-1]
        params = FieldParams(q)
        c = (1 << bits) - 1
        enc = FieldVector(np.full(20001, c, dtype=np.uint64), params)
        share = ShamirShare(point=1, values=FieldVector(np.full(20001, q - 1), params))
        want = 20001 * c * (q - 1) % q
        for sign in (1, -1):
            [got] = partial_inner(Coalition.of([share]), enc if sign == 1 else FieldVector(
                np.full(20001, q - c, dtype=np.uint64), params), None)
            assert got.value == sign * want % q

    def test_mismatches_raise_before_any_product(self, rng, codecs):
        class NoProducts(np.ndarray):
            def __array_ufunc__(self, *args, **kwargs):
                raise AssertionError("a product was taken")

        shares = _setup(rng, d=16).shares[:3]
        limbs = Coalition.of(shares).limbs.view(NoProducts)
        coalition = Coalition(points=(1, 2, 3), limbs=limbs, params=codecs.params)
        with pytest.raises(AssertionError):
            partial_inner(coalition, np.zeros(16), codecs.share)
        for theta in (np.zeros(15), np.zeros(17),
                      FieldVector(np.zeros(16, dtype=np.uint64), FieldParams(7))):
            with pytest.raises(ConfigurationError):
                partial_inner(coalition, theta, codecs.share)
        short = ShamirShare(point=4, values=FieldVector(shares[0].values.values[:15],
                                                        codecs.params))
        for members in ([], [*shares, short]):
            with pytest.raises(ConfigurationError):
                Coalition.of(members)

    def test_rejects_a_share_of_another_field(self, codecs):
        share = ShamirShare(point=1, values=FieldVector(np.ones(4, dtype=np.uint64),
                                                        FieldParams(7)))
        with pytest.raises(FieldMismatchError):
            partial_inner(Coalition.of([share]), np.ones(4), codecs.share)


class TestCoalitionStatistic:
    def test_equals_direct_oracle(self, rng, codecs):
        setup = _setup(rng)
        calib = _table()
        theta = 0.1 * rng.standard_normal(64) + 0.02 * setup.debug_key
        partials = partial_inner(Coalition.of(setup.shares[:3]), theta, codecs.share)
        rep = coalition_statistic(partials, theta, calib, setup.cfg, codecs.f_share)
        direct = verify_direct(theta, setup.debug_key, calib, codecs)
        assert rep.z == direct.z
        assert rep.cosine == direct.cosine

    def test_below_threshold(self, rng, codecs):
        setup = _setup(rng)
        theta = rng.standard_normal(64)
        partials = partial_inner(Coalition.of(setup.shares[:2]), theta, codecs.share)
        with pytest.raises(ThresholdError):
            coalition_statistic(partials, theta, _table(), setup.cfg, codecs.f_share)

    def test_dimension_mismatch(self, rng, codecs):
        setup = _setup(rng)
        theta = rng.standard_normal(64)
        partials = partial_inner(Coalition.of(setup.shares[:3]), theta, codecs.share)
        with pytest.raises(FingerprintMismatchError):
            coalition_statistic(partials, theta, _table(dim=63), setup.cfg,
                                codecs.f_share)

    def test_zero_model_degenerate(self, rng, codecs):
        setup = _setup(rng)
        theta = np.zeros(64)
        partials = partial_inner(Coalition.of(setup.shares[:3]), theta, codecs.share)
        with pytest.raises(DegenerateModelError):
            coalition_statistic(partials, theta, _table(), setup.cfg, codecs.f_share)

    def test_accept_boundary(self, rng, codecs):
        # watermark-aligned model accepts; pure-noise model rejects
        setup = _setup(rng)
        calib = _table()
        aligned = 0.5 * setup.debug_key
        partials = partial_inner(Coalition.of(setup.shares[:3]), aligned, codecs.share)
        rep = coalition_statistic(partials, aligned, calib, setup.cfg, codecs.f_share)
        assert rep.accepted and rep.z >= 4.0

        noise = rng.standard_normal(64)
        partials = partial_inner(Coalition.of(setup.shares[:3]), noise, codecs.share)
        rep = coalition_statistic(partials, noise, calib, setup.cfg, codecs.f_share)
        assert isinstance(rep, VerificationReport)

    def test_every_suspect_gets_fresh_masks(self, rng, codecs, monkeypatch):
        # one mask stream for two suspects would hand the server each
        # member's difference of weighted partials
        sessions = []

        def spy(inputs, session):
            sessions.append(session)
            return secagg_scalar(inputs, session)

        monkeypatch.setattr(verify, "secagg_scalar", spy)
        setup = _setup(rng)
        coalition = Coalition.of(setup.shares[:3])
        a, b = rng.standard_normal(64), rng.standard_normal(64)
        for theta in (a, b, a.copy()):
            coalition_statistic(partial_inner(coalition, theta, codecs.share), theta,
                                _table(), setup.cfg, codecs.f_share)
        first, other, again = sessions
        for k in coalition.points:
            assert first.client_mask(k) != other.client_mask(k)
        assert [(k, v.tolist()) for k, v in first.observations] == \
            [(k, v.tolist()) for k, v in again.observations]

    @pytest.mark.parametrize("point", [7, 0])
    def test_rejects_points_outside_setup(self, rng, codecs, point):
        setup = _setup(rng)
        theta = rng.standard_normal(64)
        partials = partial_inner(Coalition.of(setup.shares[:3]), theta, codecs.share)
        partials[2] = PartialVerification(point=point, value=partials[2].value)
        with pytest.raises(ConfigurationError):
            coalition_statistic(partials, theta, _table(), setup.cfg, codecs.f_share)


class TestCosine:
    def test_matches_numpy(self, rng):
        theta = rng.standard_normal(32)
        keys = rng.standard_normal((5, 32))
        got = cosine_against_keys(theta, keys)
        want = keys @ theta / (np.linalg.norm(theta) * np.sqrt(32))
        assert np.allclose(got, want)

    def test_zero_model(self, rng):
        with pytest.raises(DegenerateModelError):
            cosine_against_keys(np.zeros(8), rng.standard_normal((3, 8)))


class TestCalibrate:
    def test_moments_on_gaussian_models(self, rng):
        models = [rng.standard_normal(256) for _ in range(3)]
        table = calibrate(models, 500, rng, fingerprint="x")
        assert table.n_models == 3
        assert abs(table.mu) < 5 * table.sigma / np.sqrt(1500)
        assert table.fingerprint == "x"

    def test_validations(self, rng):
        with pytest.raises(ConfigurationError):
            calibrate([rng.standard_normal(8)], 200, rng)
        with pytest.raises(ConfigurationError):
            calibrate([rng.standard_normal(8)] * 2, 50, rng)

    def test_zero_models_excluded(self, rng):
        models = [np.zeros(32), rng.standard_normal(32), rng.standard_normal(32)]
        table = calibrate(models, 200, rng)
        assert table.n_models == 2


def test_model_fingerprint():
    assert model_fingerprint(MlpShape()) == "mlp-32x128x10-d5514"
