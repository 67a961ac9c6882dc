import numpy as np
import pytest

from twmark.errors import ConfigurationError
from twmark.field import FieldVector, ProtocolCodecs
from twmark.keysetup import (
    dkg_cost_model,
    dkg_exchange,
    load_share,
    load_shares,
    save_share,
    setup_dkg,
    setup_trusted_dealer,
)
from twmark.sharing import ShamirConfig, open_check, public_norm, shamir_reconstruct


def _cfg(params, K=5, t=3):
    return ShamirConfig(n_clients=K, threshold=t, params=params)


def _tamper_case(point=None, extra=0, norm=None):
    """A tamper_share case; point and length cases keep their "point-extra" ids."""
    return pytest.param(point, extra, norm,
                        id=f"{point}-{extra}" if norm is None else f"norm={norm!r}")


class TestTrustedDealer:
    def test_shares_reconstruct_encoded_key(self, fM61, rng):
        cfg = _cfg(fM61)
        setup = setup_trusted_dealer(cfg, 32, rng, keep_key=True)
        rec = shamir_reconstruct(setup.shares[:3], cfg)
        assert rec == setup.codecs.share.encode(setup.debug_key)

    def test_commitment_opens_against_key(self, fM61, rng):
        cfg = _cfg(fM61)
        setup = setup_trusted_dealer(cfg, 32, rng, keep_key=True)
        enc = setup.codecs.share.encode(setup.debug_key)
        assert open_check(setup.commitment, enc, setup.codecs.f_share)

    def test_public_norm_is_sqrt_d(self, fM61, rng):
        assert public_norm(64) == 8.0
        assert public_norm(2) == 2 ** 0.5

    def test_key_discarded_by_default(self, fM61, rng):
        setup = setup_trusted_dealer(_cfg(fM61), 16, rng)
        assert setup.debug_key is None

    def test_d_validation(self, fM61, rng):
        with pytest.raises(ConfigurationError):
            setup_trusted_dealer(_cfg(fM61), 0, rng)


class TestDkg:
    def test_shares_reconstruct_summed_contributions(self, fM61, rng):
        cfg = _cfg(fM61, K=4, t=2)
        setup = setup_dkg(cfg, 16, master_rng=rng, keep_contributions=True)
        rec = shamir_reconstruct(setup.shares[:2], cfg)
        want = FieldVector.zeros(16, fM61)
        for w in setup.debug_contributions:
            want = want.add(setup.codecs.share.encode(w))
        assert rec == want

    def test_decoded_key_close_to_contribution_sum(self, fM61, rng):
        cfg = _cfg(fM61, K=4, t=2)
        setup = setup_dkg(cfg, 16, master_rng=rng, keep_contributions=True)
        rec = shamir_reconstruct(setup.shares, cfg)
        decoded = setup.codecs.share.decode_centered(rec)
        # per-coordinate rounding error is at most K * 2^-(f+1)
        assert np.abs(decoded - setup.debug_key).max() <= 4 * 2.0 ** -21

    def test_overhead_closed_forms(self, fM61, rng):
        for K in (4, 8):
            cfg = _cfg(fM61, K=K, t=K // 2)
            setup = setup_dkg(cfg, 10, master_rng=rng)
            ov = setup.overhead
            assert ov.messages == K * (K - 1)
            assert ov.payload_bytes == K * (K - 1) * 10 * 8
            assert ov.per_client_mults == K * (K // 2) * 10

    def test_needs_master_rng_or_streams(self, fM61):
        with pytest.raises(ConfigurationError):
            setup_dkg(_cfg(fM61), 8)

    def test_exchange_validates_contribution_count(self, fM61, rng):
        cfg = _cfg(fM61, K=3, t=2)
        with pytest.raises(ConfigurationError):
            dkg_exchange([FieldVector.zeros(4, fM61)], cfg, [rng] * 3)


class TestCostModel:
    def test_fields(self):
        rec = dkg_cost_model(8, 4, 100, bandwidth_bps=1e9, field_mul_ns=10.0)
        assert rec.messages == 56
        assert rec.payload_bytes == 56 * 100 * 8
        assert rec.per_client_mults == 8 * 4 * 100
        assert rec.compute_ns == pytest.approx(8 * 4 * 100 * 10.0)
        assert rec.comm_ns == pytest.approx(7 * 100 * 64 / 1e9 * 1e9)

    def test_invalid_arguments(self):
        with pytest.raises(ConfigurationError):
            dkg_cost_model(0, 1, 1)
        with pytest.raises(ConfigurationError):
            dkg_cost_model(4, 2, 10, bandwidth_bps=0)

    def test_csv_row_shape(self):
        rec = dkg_cost_model(4, 2, 10)
        assert len(rec.csv_row().split(",")) == len(rec.CSV_HEADER.split(","))


class TestShareFiles:
    def test_roundtrip(self, fM61, rng, tmp_path):
        cfg = _cfg(fM61)
        setup = setup_trusted_dealer(cfg, 24, rng)
        path = tmp_path / "client_2.share"
        save_share(setup.shares[1], setup, path)
        share, hdr = load_share(path)
        assert share.point == 2
        assert share.values == setup.shares[1].values
        assert hdr == {
            "modulus": fM61.modulus,
            "f_share": setup.codecs.f_share,
            "n_clients": 5,
            "threshold": 3,
        }

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.share"
        path.write_bytes(b"NOTASHAREFILE")
        with pytest.raises(ConfigurationError):
            load_share(path)

    @pytest.mark.parametrize("point,extra,norm", [
        _tamper_case(7, 0), _tamper_case(0, 0), _tamper_case(None, 1),
        _tamper_case(None, -1), _tamper_case(None, -8 * 24), _tamper_case(None, -220),
        # header norms other than exactly sqrt(d), d = 24
        *(_tamper_case(norm=n) for n in (1e-300, -5.0, float("nan"), float("inf"),
                                         float(np.sqrt(24)) * (1 + 2**-52))),
    ])
    def test_rejects_bad_point_or_length(self, fM61, rng, tmp_path, tamper_share,
                                         point, extra, norm):
        setup = setup_trusted_dealer(_cfg(fM61), 24, rng)
        path = tmp_path / "client_2.share"
        save_share(setup.shares[1], setup, path)
        load_share(path)
        tamper_share(path, path, point, extra, norm)
        with pytest.raises(ConfigurationError, match="client_2.share"):
            load_share(path)

    def test_load_shares_sorts_by_point(self, fM61, rng, tmp_path):
        setup = setup_trusted_dealer(_cfg(fM61, K=12, t=4), 8, rng)
        paths = []
        for share in setup.shares:
            paths.append(str(tmp_path / f"client_{share.point}.share"))
            save_share(share, setup, paths[-1])
        shares, hdr, cfg = load_shares(sorted(paths))  # client_1, client_10, ...
        assert [s.point for s in shares] == list(range(1, 13))
        assert all(a.values == b.values for a, b in zip(shares, setup.shares))
        assert hdr["n_clients"] == 12 and hdr["threshold"] == 4
        assert (cfg.n_clients, cfg.threshold, cfg.params) == (12, 4, fM61)

    def test_load_shares_rejects_empty_and_mixed(self, fM61, rng, tmp_path):
        with pytest.raises(ConfigurationError):
            load_shares([])
        paths = []
        for K, t in ((5, 3), (6, 3)):
            setup = setup_trusted_dealer(_cfg(fM61, K=K, t=t), 8, rng)
            paths.append(str(tmp_path / f"K{K}.share"))
            save_share(setup.shares[0], setup, paths[-1])
        with pytest.raises(ConfigurationError, match="disagree"):
            load_shares(paths)
