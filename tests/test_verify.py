import numpy as np
import pytest

from twmark.errors import (
    ConfigurationError,
    DegenerateModelError,
    FingerprintMismatchError,
    ThresholdError,
)
from twmark.field import FieldParams, ProtocolCodecs
from twmark.flsim import MlpShape
from twmark.keysetup import setup_trusted_dealer
from twmark.sharing import ShamirConfig
from twmark.verify import (
    CalibrationTable,
    VerificationReport,
    calibrate,
    coalition_statistic,
    cosine_against_keys,
    model_fingerprint,
    partial_inner,
    verify_direct,
)


def _table(mu=0.0, sigma=0.01, dim=64, fingerprint=""):
    return CalibrationTable(mu=mu, sigma=sigma, n_models=2,
                            n_keys_per_model=100, skewness=0.0,
                            excess_kurtosis=0.0, dim=dim,
                            fingerprint=fingerprint)


def _setup(rng, K=5, t=3, d=64):
    cfg = ShamirConfig(n_clients=K, threshold=t, params=FieldParams())
    return setup_trusted_dealer(cfg, d, rng, keep_key=True)


class TestCalibrationTable:
    def test_save_load_roundtrip(self, tmp_path):
        t = _table(mu=1e-4, sigma=0.013, fingerprint="mlp-32x128x10-d5514")
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
        _table(fingerprint="mlp-32x128x10-d5514").save(path)
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
                                  excess_kurtosis=0.0, dim=4, fingerprint="")
        assert skewed.normality_warning


class TestPartialInner:
    def test_matches_python_reference(self, rng, codecs):
        setup = _setup(rng, d=16)
        theta = rng.standard_normal(16)
        enc = codecs.share.encode(theta)
        share = setup.shares[0]
        got = partial_inner(share, theta, codecs.share)
        want = sum(
            int(a) * int(b) for a, b in zip(enc.values, share.values.values)
        ) % codecs.params.modulus
        assert got.point == 1 and got.value == want

    def test_accepts_encoded_model(self, rng, codecs):
        setup = _setup(rng, d=16)
        theta = rng.standard_normal(16)
        enc = codecs.share.encode(theta)
        for share in setup.shares:
            assert (partial_inner(share, enc, codecs.share)
                    == partial_inner(share, theta, codecs.share))

    def test_length_mismatch(self, rng, codecs):
        setup = _setup(rng, d=16)
        with pytest.raises(ConfigurationError):
            partial_inner(setup.shares[0], np.zeros(8), codecs.share)


class TestCoalitionStatistic:
    def test_equals_direct_oracle(self, rng, codecs):
        setup = _setup(rng)
        calib = _table()
        theta = 0.1 * rng.standard_normal(64) + 0.02 * setup.debug_key
        partials = [partial_inner(s, theta, codecs.share)
                    for s in setup.shares[:3]]
        rep = coalition_statistic(partials, theta, setup.public_norm, calib,
                                  setup.cfg, codecs)
        direct = verify_direct(theta, setup.debug_key, calib, codecs,
                               public_norm=setup.public_norm)
        assert rep.z == direct.z
        assert rep.cosine == direct.cosine

    def test_below_threshold(self, rng, codecs):
        setup = _setup(rng)
        theta = rng.standard_normal(64)
        partials = [partial_inner(s, theta, codecs.share)
                    for s in setup.shares[:2]]
        with pytest.raises(ThresholdError):
            coalition_statistic(partials, theta, setup.public_norm, _table(),
                                setup.cfg, codecs)

    def test_dimension_mismatch(self, rng, codecs):
        setup = _setup(rng)
        theta = rng.standard_normal(64)
        partials = [partial_inner(s, theta, codecs.share)
                    for s in setup.shares[:3]]
        with pytest.raises(FingerprintMismatchError):
            coalition_statistic(partials, theta, setup.public_norm,
                                _table(dim=63), setup.cfg, codecs)

    def test_zero_model_degenerate(self, rng, codecs):
        setup = _setup(rng)
        theta = np.zeros(64)
        partials = [partial_inner(s, theta, codecs.share)
                    for s in setup.shares[:3]]
        with pytest.raises(DegenerateModelError):
            coalition_statistic(partials, theta, setup.public_norm, _table(),
                                setup.cfg, codecs)

    def test_accept_boundary(self, rng, codecs):
        # watermark-aligned model accepts; pure-noise model rejects
        setup = _setup(rng)
        calib = _table()
        aligned = 0.5 * setup.debug_key
        partials = [partial_inner(s, aligned, codecs.share)
                    for s in setup.shares[:3]]
        rep = coalition_statistic(partials, aligned, setup.public_norm, calib,
                                  setup.cfg, codecs)
        assert rep.accepted and rep.z >= 4.0

        noise = rng.standard_normal(64)
        partials = [partial_inner(s, noise, codecs.share)
                    for s in setup.shares[:3]]
        rep = coalition_statistic(partials, noise, setup.public_norm, calib,
                                  setup.cfg, codecs)
        assert isinstance(rep, VerificationReport)


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

    def test_report_csv_row(self):
        rep = VerificationReport(cosine=0.1, z=5.0, z_star=4.0, accepted=True,
                                 coalition_size=3)
        row = rep.csv_row("m1", "none")
        assert row.split(",")[0] == "m1"
        assert row.endswith("accept")
        assert len(row.split(",")) == len(rep.CSV_HEADER.split(","))


def test_model_fingerprint():
    assert model_fingerprint(MlpShape()) == "mlp-32x128x10-d5514"
