import os

import numpy as np
import pytest

from twmark import cli
from twmark.errors import ConfigurationError
from twmark.experiments import (
    ExperimentConfig,
    load_model,
    load_trajectory,
    save_model,
    save_trajectory,
    worker_count,
    write_csv,
)
from twmark.field import FixedPointCodec
from twmark.flsim import MlpShape, init_model
from twmark.protocol import GlobalModel
from twmark.rngutil import rng_from_key

# small but real end-to-end configuration for CLI tests
SMALL_CFG = dict(
    n_clients=6, threshold=3, rounds=10, n_samples=1920, strength_c=0.1,
    calib_models=2, calib_rounds=3, calib_keys=200, seeds=(0,),
)


class TestRngUtil:
    def test_deterministic(self):
        a = rng_from_key(7, "setup").standard_normal(4)
        b = rng_from_key(7, "setup").standard_normal(4)
        assert np.array_equal(a, b)

    def test_distinct_keys_distinct_streams(self):
        a = rng_from_key(7, "setup").standard_normal(4)
        b = rng_from_key(7, "init").standard_normal(4)
        c = rng_from_key(8, "setup").standard_normal(4)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestConfig:
    def test_roundtrip_through_file(self, tmp_path):
        cfg = ExperimentConfig(**SMALL_CFG)
        path = tmp_path / "config.txt"
        cfg.save(path)
        assert ExperimentConfig.from_file(path) == cfg

    def test_hash_changes_with_values(self):
        a = ExperimentConfig(**SMALL_CFG)
        b = ExperimentConfig(**{**SMALL_CFG, "strength_c": 0.05})
        assert a.config_hash() != b.config_hash()
        assert a.config_hash() == ExperimentConfig(**SMALL_CFG).config_hash()

    def test_overrides(self):
        cfg = ExperimentConfig.with_overrides({}, ["n_clients=8", "threshold=4"])
        assert cfg.n_clients == 8 and cfg.threshold == 4

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig.with_overrides({}, ["banana=1"])

    def test_malformed_override(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig.with_overrides({}, ["justakey"])

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(n_clients=4, threshold=8)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(setup_mode="oracle")
        with pytest.raises(ConfigurationError):
            ExperimentConfig(theta_max=1e9)  # verification bound overflows


class TestWorkerCount:
    def test_default_one(self, monkeypatch):
        monkeypatch.delenv("TWMARK_WORKERS", raising=False)
        assert worker_count() == 1

    def test_env_value(self, monkeypatch):
        monkeypatch.setenv("TWMARK_WORKERS", "4")
        assert worker_count() == 4

    def test_invalid(self, monkeypatch):
        monkeypatch.setenv("TWMARK_WORKERS", "many")
        with pytest.raises(ConfigurationError):
            worker_count()
        monkeypatch.setenv("TWMARK_WORKERS", "0")
        with pytest.raises(ConfigurationError):
            worker_count()


class TestModelFiles:
    def test_model_roundtrip(self, tmp_path, rng):
        shape = MlpShape(6, 8, 4)
        theta = init_model(shape, rng)
        path = tmp_path / "m.bin"
        save_model(theta, shape, 7, path)
        back, back_shape, r = load_model(path)
        assert np.array_equal(back, theta)
        assert back_shape == shape and r == 7

    def test_trajectory_roundtrip(self, tmp_path, rng):
        shape = MlpShape(6, 8, 4)
        traj = [GlobalModel(init_model(shape, rng), i) for i in range(3)]
        save_trajectory(traj, shape, tmp_path / "traj")
        back = load_trajectory(tmp_path / "traj")
        assert [g.round_index for g in back] == [0, 1, 2]
        for a, b in zip(traj, back):
            assert np.array_equal(a.theta, b.theta)

    def test_magic_check(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTAMODELFILE---")
        with pytest.raises(ConfigurationError):
            load_model(path)

    def test_write_csv_sorts_rows(self, tmp_path):
        path = tmp_path / "x.csv"
        write_csv(path, "a,b", ["2,x", "1,y"])
        assert path.read_text().splitlines() == ["a,b", "1,y", "2,x"]


@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory):
    """calibrate + train once; reused by all CLI assertions."""
    root = tmp_path_factory.mktemp("cli")
    cfg = ExperimentConfig(**SMALL_CFG)
    cfg_path = root / "config.txt"
    cfg.save(cfg_path)
    out = root / "out"
    assert cli.main(["calibrate", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
    assert cli.main(["train", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
    return cfg, cfg_path, out


class TestCli:
    def test_train_artifacts(self, cli_workspace):
        cfg, _, out = cli_workspace
        rundir = out / "run_seed0"
        assert (rundir / "model_final.bin").exists()
        assert (rundir / "manifest.txt").exists()
        traj_files = sorted(os.listdir(rundir / "trajectory"))
        assert len(traj_files) == cfg.rounds + 1
        shares = sorted(os.listdir(rundir / "shares"))
        assert len(shares) == cfg.n_clients
        metrics = (rundir / "metrics.csv").read_text().splitlines()
        assert metrics[0] == "config_hash,seed,round,test_accuracy"
        assert len(metrics) == cfg.rounds + 2
        manifest = (rundir / "manifest.txt").read_text()
        assert f"config_hash = {cfg.config_hash()!r}" in manifest

    def test_verify_accepts_watermarked_model(self, cli_workspace):
        cfg, _, out = cli_workspace
        rundir = out / "run_seed0"
        shares = [str(rundir / "shares" / f"client_{k}.share")
                  for k in (1, 2, 3)]
        code = cli.main(["verify", "--model", str(rundir / "model_final.bin"),
                         "--calibration", str(out / "calibration.txt")] + shares)
        assert code == 0

    def test_verify_rejects_unwatermarked_model(self, cli_workspace, tmp_path):
        cfg, _, out = cli_workspace
        from twmark.experiments import run_plain_fedavg

        _, theta = run_plain_fedavg(cfg, seed=77, rounds=3)
        path = tmp_path / "plain.bin"
        save_model(theta, cfg.shape(), 3, path)
        rundir = out / "run_seed0"
        shares = [str(rundir / "shares" / f"client_{k}.share")
                  for k in (1, 2, 3)]
        code = cli.main(["verify", "--model", str(path),
                         "--calibration", str(out / "calibration.txt")] + shares)
        assert code == 1

    def test_verify_below_threshold_is_an_error(self, cli_workspace):
        cfg, _, out = cli_workspace
        rundir = out / "run_seed0"
        shares = [str(rundir / "shares" / f"client_{k}.share") for k in (1, 2)]
        code = cli.main(["verify", "--model", str(rundir / "model_final.bin"),
                         "--calibration", str(out / "calibration.txt")] + shares)
        assert code == 2

    def test_verify_strict_z_star_rejects(self, cli_workspace):
        cfg, _, out = cli_workspace
        rundir = out / "run_seed0"
        shares = [str(rundir / "shares" / f"client_{k}.share")
                  for k in (1, 2, 3)]
        code = cli.main(["verify", "--model", str(rundir / "model_final.bin"),
                         "--calibration", str(out / "calibration.txt"),
                         "--z-star", "1e9"] + shares)
        assert code == 1

    def test_verify_rejects_code_in_calibration(self, cli_workspace, tmp_path):
        cfg, _, out = cli_workspace
        rundir = out / "run_seed0"
        calib = tmp_path / "calibration.txt"
        lines = (out / "calibration.txt").read_text().splitlines()
        calib.write_text("\n".join(
            "mu = ().__class__.__base__.__subclasses__()" if ln.startswith("mu ")
            else ln for ln in lines) + "\n")
        shares = [str(rundir / "shares" / f"client_{k}.share")
                  for k in (1, 2, 3)]
        code = cli.main(["verify", "--model", str(rundir / "model_final.bin"),
                         "--calibration", str(calib)] + shares)
        assert code == 2

    def test_verify_encodes_model_once(self, cli_workspace, monkeypatch):
        cfg, _, out = cli_workspace
        rundir = out / "run_seed0"
        calls = []
        encode = FixedPointCodec.encode
        monkeypatch.setattr(FixedPointCodec, "encode",
                            lambda self, x: calls.append(1) or encode(self, x))
        shares = [str(rundir / "shares" / f"client_{k}.share")
                  for k in (1, 2, 3)]
        code = cli.main(["verify", "--model", str(rundir / "model_final.bin"),
                         "--calibration", str(out / "calibration.txt")] + shares)
        assert code == 0
        assert len(calls) == 1

    def test_attack_command(self, cli_workspace):
        cfg, cfg_path, out = cli_workspace
        code = cli.main(["attack", "--config", str(cfg_path),
                         "--out", str(out),
                         "--run", str(out / "run_seed0"),
                         "--calibration", str(out / "calibration.txt"),
                         "--kind", "prune_magnitude", "--prune-ratio", "0.5"])
        assert code == 0
        assert (out / "attack_prune_magnitude.csv").exists()

    def test_report_command(self, cli_workspace):
        cfg, _, out = cli_workspace
        assert cli.main(["report", "--out", str(out)]) == 0
        assert (out / "report.txt").exists()

    def test_bad_config_key_is_exit_2(self, cli_workspace, capsys):
        _, cfg_path, out = cli_workspace
        code = cli.main(["train", "--config", str(cfg_path),
                         "--set", "banana=1", "--out", str(out)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_worker_env_is_exit_2(self, cli_workspace, monkeypatch):
        _, cfg_path, out = cli_workspace
        monkeypatch.setenv("TWMARK_WORKERS", "lots")
        code = cli.main(["calibrate", "--config", str(cfg_path),
                         "--out", str(out)])
        assert code == 2
