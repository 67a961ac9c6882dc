import numpy as np
import pytest

from twmark import field, keysetup
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
from twmark.sharing import (ShamirConfig, open_check, public_norm, shamir_reconstruct,
                            shamir_share)


def _cfg(params, K=5, t=3):
    return ShamirConfig(n_clients=K, threshold=t, params=params)


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
    def test_shares_reconstruct_summed_contributions(self, fM61):
        cfg = _cfg(fM61, K=4, t=2)
        setup = setup_dkg(cfg, 16, np.random.default_rng(5))
        rec = shamir_reconstruct(setup.shares[:2], cfg)
        # replay each client's contribution from its stream of the setup rng
        seeds = np.random.default_rng(5).integers(0, 2**63, size=4)
        want = FieldVector.zeros(16, fM61)
        for s in seeds:
            w = np.random.Generator(np.random.PCG64(int(s))).standard_normal(16) / np.sqrt(4)
            want = want.add(setup.codecs.share.encode(w))
        assert rec == want

    def test_decoded_key_close_to_contribution_sum(self, fM61, rng):
        cfg = _cfg(fM61, K=4, t=2)
        setup = setup_dkg(cfg, 16, rng, keep_key=True)
        rec = shamir_reconstruct(setup.shares, cfg)
        decoded = setup.codecs.share.decode_centered(rec)
        # per-coordinate rounding error is at most K * 2^-(f+1)
        assert np.abs(decoded - setup.debug_key).max() <= 4 * 2.0 ** -21

    def test_overhead_closed_forms(self, fM61, rng):
        for K in (4, 8):
            cfg = _cfg(fM61, K=K, t=K // 2)
            setup = setup_dkg(cfg, 10, rng)
            ov = setup.overhead
            assert ov.messages == K * (K - 1)
            assert ov.payload_bytes == K * (K - 1) * 10 * 8
            assert ov.per_client_mults == K * (K // 2) * 10

    def test_exchange_validates_contribution_count(self, fM61, rng):
        cfg = _cfg(fM61, K=3, t=2)
        with pytest.raises(ConfigurationError):
            dkg_exchange([FieldVector.zeros(4, fM61)], cfg, [rng] * 3)


class TestCostModel:
    def test_fields(self):
        assert (keysetup.BANDWIDTH_BPS, keysetup.FIELD_MUL_NS) == (1e9, 10.0)
        rec = dkg_cost_model(8, 4, 100)
        assert rec.messages == 56
        assert rec.payload_bytes == 56 * 100 * 8
        assert rec.per_client_mults == 8 * 4 * 100
        assert rec.compute_ns == pytest.approx(8 * 4 * 100 * 10.0)
        assert rec.comm_ns == pytest.approx(7 * 100 * 64 / 1e9 * 1e9)

    def test_invalid_arguments(self):
        with pytest.raises(ConfigurationError):
            dkg_cost_model(0, 1, 1)
        with pytest.raises(ConfigurationError):
            dkg_cost_model(4, 2, 0)

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
            "setup_id": setup.setup_id.hex(),
        }

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.share"
        path.write_bytes(b"NOTASHAREFILE")
        with pytest.raises(ConfigurationError):
            load_share(path)

    @pytest.mark.parametrize("point,extra", [
        (7, 0), (0, 0), (None, 1), (None, -1), (None, -8 * 24), (None, -220),
    ])
    def test_rejects_bad_point_or_length(self, fM61, rng, tmp_path, tamper_share,
                                         point, extra):
        setup = setup_trusted_dealer(_cfg(fM61), 24, rng)
        path = tmp_path / "client_2.share"
        save_share(setup.shares[1], setup, path)
        load_share(path)
        tamper_share(path, path, point, extra)
        with pytest.raises(ConfigurationError, match="client_2.share"):
            load_share(path)

    def test_rejects_k_from_q(self, tmp_path):
        # points 1..K must stay distinct and nonzero mod q
        path = tmp_path / "client_1.share"
        keysetup._SHARE_FILE.write(path, (7, 1, 7, 3, 1, bytes(16), 2), bytes(16))
        with pytest.raises(ConfigurationError,
                           match=f"^{path}: need 1 <= point, t <= K < q, got point 1, t 3, K 7, q 7$"):
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

    def _saved(self, setup, tmp_path, name):
        paths = [str(tmp_path / f"{name}_{s.point}.share") for s in setup.shares]
        for share, path in zip(setup.shares, paths):
            save_share(share, setup, path)
        return paths

    def test_load_shares_rejects_mixed_setups(self, fM61, tmp_path):
        # same (q, f_share, K, t), different setup RNGs: only the id differs
        a = setup_trusted_dealer(_cfg(fM61), 8, np.random.default_rng(0))
        b = setup_trusted_dealer(_cfg(fM61), 8, np.random.default_rng(1))
        assert a.setup_id != b.setup_id and len(a.setup_id) == 16
        pa, pb = self._saved(a, tmp_path, "a"), self._saved(b, tmp_path, "b")
        with pytest.raises(ConfigurationError,
                           match=f"^{pb[1]}: share files disagree on setup_id: .* in {pa[0]}$"):
            load_shares([pa[0], pb[1], pa[2]])

    def test_load_shares_rejects_one_point_twice(self, fM61, rng, tmp_path):
        paths = self._saved(setup_trusted_dealer(_cfg(fM61), 8, rng), tmp_path, "c")
        copy = str(tmp_path / "copy.share")
        with open(paths[1], "rb") as src, open(copy, "wb") as dst:
            dst.write(src.read())
        with pytest.raises(ConfigurationError,
                           match=f"^{copy}: point 2 is also the point of {paths[1]}$"):
            load_shares([paths[0], paths[1], copy])

    def test_load_shares_tests_primality_once_per_modulus(self, fM61, rng, tmp_path):
        setup = setup_trusted_dealer(_cfg(fM61, K=16, t=8), 8, rng)
        paths = self._saved(setup, tmp_path, "p")
        field._is_prime.cache_clear()
        load_shares(paths)
        info = field._is_prime.cache_info()
        assert (info.misses, info.hits) == (1, 16)


class TestSetupId:
    def test_drawn_after_every_other_draw(self, fM61):
        # so shares, commitments and training are those of a setup without an id
        cfg = _cfg(fM61)
        dealer = setup_trusted_dealer(cfg, 8, np.random.default_rng(3))
        rng = np.random.default_rng(3)
        tau = rng.standard_normal(8)
        rng.bytes(32)
        shares = shamir_share(dealer.codecs.share.encode(tau), cfg, rng)
        assert all(a.values == b.values for a, b in zip(shares, dealer.shares))
        assert dealer.setup_id == rng.bytes(16)
        dkg = setup_dkg(cfg, 8, np.random.default_rng(3))
        rng = np.random.default_rng(3)
        rng.integers(0, 2**63, size=cfg.n_clients)
        assert dkg.setup_id == rng.bytes(16)
