import contextlib
import dataclasses
import io
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twmark import cli, experiments, protocol, verify
from twmark.errors import ConfigurationError, ProtocolAbortError
from twmark.experiments import (
    CalibrationTable,
    ExperimentConfig,
    cmd_train,
    load_model,
    load_run,
    load_trajectory,
    save_model,
    save_trajectory,
    write_csv,
)
from twmark.field import FieldParams, FixedPointCodec
from twmark.keysetup import SetupResult, save_share, setup_trusted_dealer
from twmark.flsim import MlpShape, init_model
from twmark.protocol import GlobalModel, make_plans
from twmark.rngutil import rng_from_key
from twmark.sharing import ShamirConfig

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

    def test_int_for_float_field_is_stored_as_float(self):
        cfg = ExperimentConfig.with_overrides({}, ["strength_c=1"])
        assert type(cfg.strength_c) is float
        assert cfg.config_hash() == ExperimentConfig(strength_c=1.0).config_hash()
        cfg = ExperimentConfig.with_overrides({}, ["c_sweep=(0, 0.025)"])
        assert cfg.c_sweep == (0.0, 0.025) and type(cfg.c_sweep[0]) is float
        assert cfg.config_hash() == ExperimentConfig(c_sweep=(0.0, 0.025)).config_hash()

    @pytest.mark.parametrize("line, message", [
        ("rounds = 1.5", "rounds = 1.5 is not of type int"),
        ("seeds = 0", "seeds = 0 is not of type tuple"),
        ("seeds = (0.5,)", "seeds = (0.5,) is not of type tuple[int, ...]"),
        ("c_sweep = (0.1, 1e999)", "c_sweep = (0.1, 1e999) is not of type "
                                   "tuple[float, ...]"),
        ("quant_schemes = ('static8', 8)", "quant_schemes = ('static8', 8) is not of "
                                           "type tuple[str, ...]"),
        ("noise = 1e999", "noise = 1e999 is not a finite float"),
        ("rounds = os.sep", "rounds is not a literal"),
        ("rounds 5", "expected a known key = value"),
    ])
    def test_file_errors_name_the_line_and_key(self, tmp_path, line, message):
        path = tmp_path / "config.txt"
        path.write_text("# comment\n\n" + line + "\n")
        want = "^" + re.escape(f"{path}:3: {message}")
        with pytest.raises(ConfigurationError, match=want):
            ExperimentConfig.from_file(path)

    def test_file_values_are_checked_together(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text("n_clients = 4\n")  # below the default threshold
        with pytest.raises(ConfigurationError, match="^" + re.escape(f"{path}: threshold")):
            ExperimentConfig.from_file(path)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(n_clients=4, threshold=8)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(setup_mode="oracle")
        with pytest.raises(ConfigurationError):
            ExperimentConfig(theta_max=1e9)  # verification bound overflows
        with pytest.raises(ConfigurationError, match="unknown attack kind 'banana'"):
            ExperimentConfig(attack_kinds=("finetune", "banana"))

    @pytest.mark.parametrize("name", [
        f.name for f in dataclasses.fields(ExperimentConfig)
        if f.type in (float, tuple[float, ...])])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_float_is_refused(self, name, bad):
        # a non-finite z* would decide every verification one way
        value = (bad,) if isinstance(getattr(ExperimentConfig(), name), tuple) else bad
        with pytest.raises(ConfigurationError, match=f"^{name} must be finite"):
            ExperimentConfig(**{name: value})


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
        back = load_trajectory(tmp_path / "traj", shape, 2)
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


@pytest.fixture(scope="module")
def toy_run(tmp_path_factory):
    """A one-round K=4 run over 400 samples, of hidden width 16 (d = 698)."""
    out = tmp_path_factory.mktemp("toy")
    cmd_train(ExperimentConfig(n_clients=4, threshold=2, n_samples=400, rounds=1, hidden=16,
                               seeds=(0,)), out)
    return out / "run_seed0"


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
        assert ExperimentConfig.from_file(rundir / "config.txt") == cfg

    def test_load_run_returns_setup(self, cli_workspace):
        cfg, _, out = cli_workspace
        setup, dataset, trajectory = load_run(cfg, out / "run_seed0")
        assert isinstance(setup, SetupResult)
        assert setup.d == cfg.shape().dim
        assert setup.cfg.threshold == cfg.threshold
        assert sorted(s.point for s in setup.shares) == list(range(1, cfg.n_clients + 1))
        assert len(trajectory) == cfg.rounds + 1

    def test_load_run_verifies_with_the_first_t_points(self, cli_workspace, tmp_path,
                                                       monkeypatch):
        # share files of K >= 10 sort as text as client_1, client_10, ...
        _, _, out = cli_workspace
        cfg = ExperimentConfig(**{**SMALL_CFG, "n_clients": 12, "threshold": 4,
                                  "rounds": 1})
        calib = CalibrationTable.load(out / "calibration.txt")
        setup, _, trajectory = load_run(cfg, cmd_train(cfg, tmp_path, seed=0)[0])
        mem_setup = experiments.run_setup(cfg, 0)
        assert [s.point for s in setup.shares] == list(range(1, 13))
        calls = []
        partial_inner = experiments.partial_inner
        monkeypatch.setattr(experiments, "partial_inner",
                            lambda c, *a: calls.append(c.points) or partial_inner(c, *a))
        theta = trajectory[-1].theta
        rep = experiments.make_coalition_verifier(cfg, setup, calib)(theta)
        assert calls == [(1, 2, 3, 4)]
        assert rep == experiments.make_coalition_verifier(cfg, mem_setup, calib)(theta)

    @pytest.mark.parametrize("seed_line", [None, "seed = 0.5\n", "seed = \n"])
    def test_load_run_rejects_manifest_without_integer_seed(self, cli_workspace, tmp_path,
                                                           capsys, seed_line):
        _, cfg_path, out = cli_workspace
        cfg = ExperimentConfig(**{**SMALL_CFG, "rounds": 1})
        cmd_train(cfg, tmp_path, seed=0)
        manifest = tmp_path / "run_seed0" / "manifest.txt"
        lines = [line for line in manifest.read_text().splitlines(keepends=True)
                 if not line.startswith("seed")]
        manifest.write_text("".join(lines) + (seed_line or ""))
        with pytest.raises(ConfigurationError, match="manifest.txt"):
            load_run(cfg, tmp_path / "run_seed0")
        common = ["--config", str(cfg_path), "--out", str(tmp_path / "out"),
                  "--run", str(tmp_path / "run_seed0"),
                  "--calibration", str(out / "calibration.txt")]
        for argv in (["robustness"] + common,
                     ["attack"] + common + ["--kind", "prune_magnitude", "--prune-ratio", "0.5"]):
            assert cli.main(argv) == 2
            assert str(manifest) in capsys.readouterr().err

    @pytest.mark.parametrize("tamper", ["empty", "mixed"])
    def test_robustness_rejects_bad_share_dir(self, cli_workspace, tmp_path, capsys,
                                              tamper):
        cfg, cfg_path, out = cli_workspace
        rundir = tmp_path / "run"
        shutil.copytree(out / "run_seed0", rundir)
        if tamper == "empty":
            for name in os.listdir(rundir / "shares"):
                os.remove(rundir / "shares" / name)
        else:
            scfg = ShamirConfig(n_clients=5, threshold=3, params=FieldParams(cfg.modulus))
            other = setup_trusted_dealer(scfg, cfg.shape().dim, rng_from_key(5, "setup"),
                                         codecs=cfg.codecs())
            save_share(other.shares[0], other, rundir / "shares" / "client_1.share")
        code = cli.main(["robustness", "--config", str(cfg_path),
                         "--out", str(tmp_path / "out"), "--run", str(rundir),
                         "--calibration", str(out / "calibration.txt")])
        assert code == 2
        assert "share files" in capsys.readouterr().err

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

    def test_verify_below_threshold_computes_nothing(self, cli_workspace, monkeypatch,
                                                     capsys):
        # t - 1 shares are refused before the coalition is stacked or any
        # partial taken
        cfg, _, out = cli_workspace
        rundir = out / "run_seed0"
        calls = []
        partial_inner, of = experiments.partial_inner, verify.Coalition.of
        monkeypatch.setattr(experiments, "partial_inner",
                            lambda *a: calls.append("partial_inner") or partial_inner(*a))
        monkeypatch.setattr(verify.Coalition, "of",
                            lambda shares: calls.append("of") or of(shares))
        shares = [str(rundir / "shares" / f"client_{k}.share")
                  for k in range(1, cfg.threshold)]
        code = cli.main(["verify", "--model", str(rundir / "model_final.bin"),
                         "--calibration", str(out / "calibration.txt")] + shares)
        assert code == 2
        assert capsys.readouterr().err == (f"error: coalition of {cfg.threshold - 1} "
                                           f"is below threshold {cfg.threshold}\n")
        assert calls == []

    def test_verify_strict_z_star_rejects(self, cli_workspace):
        cfg, _, out = cli_workspace
        rundir = out / "run_seed0"
        shares = [str(rundir / "shares" / f"client_{k}.share")
                  for k in (1, 2, 3)]
        code = cli.main(["verify", "--model", str(rundir / "model_final.bin"),
                         "--calibration", str(out / "calibration.txt"),
                         "--z-star", "1e9"] + shares)
        assert code == 1

    @pytest.mark.parametrize("z_star", ["nan", "inf", "-inf"])
    def test_verify_rejects_non_finite_z_star(self, cli_workspace, capsys, z_star):
        # a NaN threshold rejects every model and -inf accepts every model
        cfg, _, out = cli_workspace
        rundir = out / "run_seed0"
        shares = [str(rundir / "shares" / f"client_{k}.share")
                  for k in (1, 2, 3)]
        code = cli.main(["verify", "--model", str(rundir / "model_final.bin"),
                         "--calibration", str(out / "calibration.txt"),
                         f"--z-star={z_star}"] + shares)
        assert code == 2
        assert capsys.readouterr().err == f"error: z* must be finite, got {float(z_star)}\n"

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

    @pytest.mark.parametrize("point,extra", [(7, 0), (0, 0), (None, 1), (None, -1)])
    def test_verify_rejects_bad_share_file(self, cli_workspace, tmp_path, capsys,
                                           tamper_share, point, extra):
        cfg, _, out = cli_workspace
        assert cfg.shape().dim == 5514
        scfg = ShamirConfig(n_clients=5, threshold=3, params=FieldParams(cfg.modulus))
        setup = setup_trusted_dealer(scfg, cfg.shape().dim, rng_from_key(5, "setup"),
                                     codecs=cfg.codecs())
        paths = [str(tmp_path / f"client_{s.point}.share") for s in setup.shares[:3]]
        for share, path in zip(setup.shares, paths):
            save_share(share, setup, path)
        argv = ["verify", "--model", str(out / "run_seed0" / "model_final.bin"),
                "--calibration", str(out / "calibration.txt")] + paths
        assert cli.main(argv) in (0, 1)
        assert "decision:" in capsys.readouterr().out
        tamper_share(paths[2], paths[2], point, extra)
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert "decision" not in captured.out
        assert f"error: {paths[2]}" in captured.err

    def test_verify_rejects_forged_f_share(self, cli_workspace, tmp_path, capsys,
                                           tamper_share):
        # share headers rewritten from f_share 20 to 12 once made an
        # unwatermarked model accept, with z far above z*
        cfg, _, out = cli_workspace
        from twmark.experiments import run_plain_fedavg

        _, theta = run_plain_fedavg(cfg, seed=77, rounds=3)
        model = tmp_path / "plain.bin"
        save_model(theta, cfg.shape(), 3, model)
        paths = [str(tmp_path / f"client_{k}.share") for k in (1, 2, 3)]
        for k, path in zip((1, 2, 3), paths):
            tamper_share(out / "run_seed0" / "shares" / f"client_{k}.share", path,
                         f_share=12)
        code = cli.main(["verify", "--model", str(model),
                         "--calibration", str(out / "calibration.txt")] + paths)
        assert code == 2
        captured = capsys.readouterr()
        assert "decision:" not in captured.out
        assert f"error: {paths[0]}" in captured.err
        assert "f_share 12" in captured.err

    def test_verify_rejects_calibration_without_f_share(self, cli_workspace, tmp_path,
                                                        capsys):
        _, _, out = cli_workspace
        rundir = out / "run_seed0"
        calib = tmp_path / "calibration.txt"
        calib.write_text("".join(
            ln for ln in (out / "calibration.txt").read_text().splitlines(keepends=True)
            if not ln.startswith("f_share")))
        shares = [str(rundir / "shares" / f"client_{k}.share") for k in (1, 2, 3)]
        code = cli.main(["verify", "--model", str(rundir / "model_final.bin"),
                         "--calibration", str(calib)] + shares)
        assert code == 2
        captured = capsys.readouterr()
        assert "decision:" not in captured.out
        assert f"error: {calib}" in captured.err and "f_share" in captured.err

    @pytest.mark.parametrize("cut", [20, -3])
    def test_verify_rejects_truncated_model_file(self, cli_workspace, tmp_path, capsys,
                                                 cut):
        # cut inside the header, or to a payload that is not whole float64 words
        _, _, out = cli_workspace
        rundir = out / "run_seed0"
        model = tmp_path / "model.bin"
        model.write_bytes((rundir / "model_final.bin").read_bytes()[:cut])
        shares = [str(rundir / "shares" / f"client_{k}.share") for k in (1, 2, 3)]
        code = cli.main(["verify", "--model", str(model),
                         "--calibration", str(out / "calibration.txt")] + shares)
        assert code == 2
        captured = capsys.readouterr()
        assert "decision" not in captured.out
        assert f"error: {model}" in captured.err

    def test_train_rejects_modulus_from_2_63(self, tmp_path, capsys):
        code = cli.main(["train", "--set", "modulus=18446744073709551557",
                         "--out", str(tmp_path)])
        assert code == 2
        assert "modulus 18446744073709551557" in capsys.readouterr().err

    @pytest.mark.parametrize("args, where, key", [
        (["--set", "rounds=1.5"], "--set 'rounds=1.5'", "rounds"),
        (["--set", "seeds=0"], "--set 'seeds=0'", "seeds"),
        (["--set", "strength_c=1e999"], "--set 'strength_c=1e999'", "strength_c"),
        (["--config", "{bad}"], "{bad}:1", "rounds"),
    ], ids=["set-float-rounds", "set-int-seeds", "set-inf-strength", "config-name"])
    def test_train_rejects_mistyped_config(self, tmp_path, capsys, args, where, key):
        bad = tmp_path / "bad.txt"
        bad.write_text("rounds = os.sep\n")
        args = [a.format(bad=bad) for a in args]
        code = cli.main(["train", *args, "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {where.format(bad=bad)}: {key}" in err
        assert not list(tmp_path.glob("**/run_seed*"))

    # a K=4 one-round run, so that a config the reader wrongly accepts fails fast
    TINY = ["--set", "n_clients=4", "--set", "threshold=2", "--set", "n_samples=400",
            "--set", "rounds=1"]

    @pytest.mark.parametrize("item, key", [
        ("seeds=(0.5,)", "seeds"),
        ("attack_fractions=(0.1, 1e999)", "attack_fractions"),
        ("attack_kinds=('finetune', 3)", "attack_kinds"),
    ])
    def test_train_rejects_mistyped_tuple_element(self, tmp_path, capsys, item, key):
        code = cli.main(["train", *self.TINY, "--set", item, "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"error: --set {item!r}: {key} = " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("item, message", [
        ("f_share=600", "aggregate overflow bound exceeded"),
        ("g_scale=2000", "aggregate overflow bound exceeded"),
        ("f_share=-1", "f_share must be non-negative"),
        ("g_scale=-1", "g_scale must be non-negative"),
    ])
    def test_train_rejects_out_of_range_fractional_bits(self, tmp_path, capsys, item,
                                                        message):
        code = cli.main(["train", *self.TINY, "--set", item, "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("item, message", [
        ("participation=0", "participation must lie in (0, 1], got 0"),
        ("participation=-3", "participation must lie in (0, 1], got -3"),
        ("participation=1.5", "participation must lie in (0, 1], got 1.5"),
        ("strength_c=-0.1", "strength_c must be non-negative, got -0.1"),
        ("baseline_c=-1", "baseline_c must be non-negative, got -1"),
        ("c_sweep=(0.1, -0.2)", "c_sweep must be non-negative, got (0.1, -0.2)"),
    ])
    def test_train_rejects_config_that_cannot_embed(self, tmp_path, capsys, item, message):
        # one client per round is below t, and S clamps a negative strength
        # to 0: such a run once exited 0 without embedding anything
        code = cli.main(["train", *self.TINY, "--set", item, "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, message", [
        (["fidelity", "--set", "ema_beta=1.0"], "ema_beta must lie in [0, 1), got 1.0"),
        (["train", "--set", "ema_beta=-0.5"], "ema_beta must lie in [0, 1), got -0.5"),
        (["calibrate", "--set", "calib_keys=50"], "calib_keys must be >= 100, got 50"),
        (["calibrate", "--set", "calib_models=1"], "calib_models must be >= 2, got 1"),
        (["calibrate", "--set", "calib_rounds=0"], "calib_rounds must be >= 1, got 0"),
        (["train", "--set", "rounds=0"], "rounds must be >= 1, got 0"),
        (["fidelity", "--sweep-budget", "--set", "sweep_rounds=0"],
         "sweep_rounds must be >= 1, got 0"),
        (["train", "--set", "batch_size=0"], "batch_size must be >= 1, got 0"),
        (["scalability", "--set", "sweep_batch=-1"], "sweep_batch must be >= 1, got -1"),
        (["robustness", "--run", "run_seed0", "--set", "attack_batch=0"],
         "attack_batch must be >= 1, got 0"),
        (["train", "--set", "local_epochs=0"], "local_epochs must be >= 1, got 0"),
        (["robustness", "--run", "run_seed0", "--set", "attack_epochs=-3"],
         "attack_epochs must be >= 1, got -3"),
        (["robustness", "--run", "run_seed0", "--set", "attack_alphas=(0.1, 2.0)"],
         "alpha must lie in [0, 1], got 2.0"),
        (["robustness", "--run", "run_seed0", "--set", "prune_ratios=(0.5, 1.5)"],
         "prune_ratio must lie in (0, 1), got 1.5"),
        (["robustness", "--run", "run_seed0", "--set", "quant_schemes=('static8', 'bogus')"],
         "unknown quantization scheme 'bogus'"),
        (["robustness", "--run", "run_seed0", "--set", "attack_fractions=(0.05, 0.0)"],
         "data_fraction must lie in (0, 1], got 0.0"),
        (["robustness", "--run", "run_seed0", "--set", "attack_fractions=(0.05, 5.0)"],
         "data_fraction must lie in (0, 1], got 5.0"),
        (["fidelity", "--set", "threshold=0"], "threshold must be >= 1, got 0"),
        (["fidelity", "--set", "threshold=-1"], "threshold must be >= 1, got -1"),
        (["train", "--set", "n_test=0"], "n_test must be >= 1, got 0"),
        (["train", "--set", "n_samples=0"], "n_samples must be >= 1, got 0"),
        (["scalability", "--set", "sweep_samples_per_client=0"],
         "sweep_samples_per_client must be >= 1, got 0"),
        (["fidelity", "--sweep-budget", "--set", "sweep_samples=0"],
         "sweep_samples must be >= 1, got 0"),
        (["train", "--set", "n_clients=0", "--set", "threshold=0"],
         "n_clients must be >= 1, got 0"),
        (["train", "--set", "seeds=()"], "seeds must not be empty"),
        (["fidelity", "--sweep-budget", "--set", "seeds=()"], "seeds must not be empty"),
        (["scalability", "--set", "seeds=()"], "seeds must not be empty"),
        (["scalability", "--set", "k_sweep=()"], "k_sweep must not be empty"),
        (["fidelity", "--set", "c_sweep=()"], "c_sweep must not be empty"),
        (["robustness", "--run", "run_seed0", "--set", "attack_kinds=()"],
         "attack_kinds must not be empty"),
        (["robustness", "--run", "run_seed0", "--set", "attack_fractions=()"],
         "attack_fractions must not be empty"),
        (["robustness", "--run", "run_seed0", "--set", "attack_alphas=()"],
         "attack_alphas must not be empty"),
        (["robustness", "--run", "run_seed0", "--set", "prune_ratios=()"],
         "prune_ratios must not be empty"),
        (["robustness", "--run", "run_seed0", "--set", "quant_schemes=()"],
         "quant_schemes must not be empty"),
        (["train", "--set", "seeds=(0, 0)"], "seeds repeats 0"),
        (["fidelity", "--sweep-budget", "--set", "seeds=(0, 1, 0)"], "seeds repeats 0"),
        (["fidelity", "--sweep-budget", "--set", "c_sweep=(0.0, 0.0)"], "c_sweep repeats 0.0"),
        (["scalability", "--set", "k_sweep=(4, 4)"], "k_sweep repeats 4"),
        (["robustness", "--run", "run_seed0", "--set", "attack_kinds=('quantize', 'quantize')"],
         "attack_kinds repeats 'quantize'"),
        (["robustness", "--run", "run_seed0", "--set", "attack_fractions=(0.05, 0.05)"],
         "attack_fractions repeats 0.05"),
        (["robustness", "--run", "run_seed0", "--set", "attack_alphas=(0.1, 0.1)"],
         "attack_alphas repeats 0.1"),
        (["robustness", "--run", "run_seed0", "--set", "prune_ratios=(0.5, 0.5)"],
         "prune_ratios repeats 0.5"),
        (["robustness", "--run", "run_seed0", "--set", "quant_schemes=('static8', 'static8')"],
         "quant_schemes repeats 'static8'"),
        (["train", "--set", "n_samples=402"],
         "n_samples gives 402 samples at K = 4, not divisible by K = 4"),
        (["calibrate", "--set", "n_samples=402"],
         "n_samples gives 402 samples at K = 4, not divisible by K = 4"),
        (["scalability", "--set", "n_samples=402"],
         "n_samples gives 402 samples at K = 4, not divisible by K = 4"),
    ], ids=["ema-beta-one", "ema-beta-negative", "calib-keys", "calib-models", "calib-rounds",
            "rounds", "sweep-rounds", "batch-size", "sweep-batch", "attack-batch",
            "local-epochs", "attack-epochs", "attack-alphas", "prune-ratios", "quant-schemes",
            "attack-fractions-zero", "attack-fractions-above-one", "threshold-zero",
            "threshold-negative", "n-test", "n-samples", "sweep-samples-per-client",
            "sweep-samples", "n-clients", "train-no-seeds", "fidelity-no-seeds",
            "scalability-no-seeds", "empty-k-sweep", "empty-c-sweep", "empty-attack-kinds",
            "empty-attack-fractions", "empty-attack-alphas", "empty-prune-ratios",
            "empty-quant-schemes", "train-repeated-seed", "fidelity-repeated-seed",
            "repeated-c", "repeated-k", "repeated-attack-kind", "repeated-attack-fraction",
            "repeated-attack-alpha", "repeated-prune-ratio", "repeated-quant-scheme",
            "train-n-samples", "calibrate-n-samples", "scalability-n-samples"])
    def test_commands_refuse_bad_counts_before_any_work(self, tmp_path, capsys, argv,
                                                        message):
        # each once failed only after work had started (fidelity wrote
        # calibration.txt and calibrate trained every null model first;
        # robustness ran the grid jobs before a bad attack value; train at
        # n_test=0 wrote a run without metrics.csv) or not at all: calibrate
        # fitted untrained models at calib_rounds=0, a negative attack_epochs
        # scored every attack as the victim, and at zero samples no client
        # took a step; train ran a repeated seed twice into one directory, and
        # calibrate refused n_samples only in a forked unit, without naming it
        code = cli.main([argv[0], *self.TINY, *argv[1:], "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_train_refuses_participation_below_t(self, tmp_path, capsys):
        # K=4, t=3: participation 0.4 draws round(1.6) = 2 clients a round,
        # so every round would skip the watermark; such a run once exited 0
        code = cli.main(["train", *self.TINY, "--set", "threshold=3",
                         "--set", "participation=0.4", "--out", str(tmp_path / "out")])
        assert code == 2
        assert ("error: participation 0.4 draws 2 of 4 clients a round, below t = 3: "
                "no round would embed") in capsys.readouterr().err
        assert not list(tmp_path.glob("**/run_seed*"))

    @pytest.mark.parametrize("argv, message", [
        (["robustness", "--run", "{missing}"], "{missing}: no share files"),
        (["attack", "--run", "{missing}", "--kind", "finetune"], "{missing}: no share files"),
        (["attack", "--run", "{missing}", "--kind", "bogus"], "unknown attack kind 'bogus'"),
        (["fidelity", "--set", "threshold=3", "--set", "participation=0.4"],
         "participation 0.4 draws 2 of 4 clients a round, below t = 3"),
        (["scalability", "--set", "participation=0.4", "--set", "k_sweep=(8,)"],
         "k_sweep K=8: participation 0.4 draws 3 of 8 clients a round, below t = 4"),
        (["scalability", "--set", "k_sweep=(4, 5)", "--set", "sweep_samples_per_client=14"],
         "k_sweep K=4: sweep_samples_per_client gives 56 samples at K = 4, "
         "not divisible by n_classes = 10"),
        (["scalability", "--set", "k_sweep=(4, 5)", "--set", "sweep_samples_per_client=5"],
         "k_sweep K=5: sweep_samples_per_client gives 25 samples at K = 5, "
         "not divisible by n_classes = 10"),
        (["scalability", "--set", "k_sweep=(4,)", "--set", "n_test=205"],
         "k_sweep K=4: n_test gives 205 samples at K = 4, not divisible by n_classes = 10"),
        (["fidelity", "--sweep-budget", "--set", "n_clients=32", "--set", "threshold=16",
          "--set", "sweep_samples=5000"],
         "sweep_samples gives 5000 samples at K = 32, not divisible by K = 32"),
        (["fidelity", "--sweep-budget", "--set", "sweep_samples=404"],
         "sweep_samples gives 404 samples at K = 4, not divisible by n_classes = 10"),
        (["fidelity", "--set", "n_samples=402"],
         "n_samples gives 402 samples at K = 4, not divisible by K = 4"),
        (["attack", "--run", "{missing}", "--kind", "adaptive_finetune", "--alpha", "2"],
         "alpha must lie in [0, 1], got 2.0"),
        (["attack", "--run", "{missing}", "--kind", "finetune", "--data-fraction", "0"],
         "data_fraction must lie in (0, 1], got 0.0"),
        (["attack", "--run", "{missing}", "--kind", "distill", "--data-fraction", "-0.5"],
         "data_fraction must lie in (0, 1], got -0.5"),
        (["attack", "--run", "{missing}", "--kind", "prune_magnitude", "--prune-ratio", "1.5"],
         "prune_ratio must lie in (0, 1), got 1.5"),
        (["attack", "--run", "{missing}", "--kind", "quantize", "--quant-scheme", "bogus"],
         "unknown quantization scheme 'bogus'"),
        (["attack", "--run", "{missing}", "--kind", "quantize", "--alpha", "0.3"],
         "attack kind 'quantize' does not read alpha"),
        (["attack", "--run", "{missing}", "--kind", "finetune", "--alpha", "0.3"],
         "attack kind 'finetune' does not read alpha"),
        (["attack", "--run", "{missing}", "--kind", "prune_structured",
          "--data-fraction", "0.1", "--quant-scheme", "static4"],
         "attack kind 'prune_structured' does not read data_fraction, quant_scheme"),
        (["attack", "--run", "{run}", "--kind", "finetune", "--data-fraction", "0.001"],
         "{run}/config.txt: data fraction 0.001 yields an empty subset of n_samples = 400"),
        (["attack", "--run", "{run}", "--set", "n_samples=4000", "--kind", "distill",
          "--data-fraction", "0.001"],
         "{run}/config.txt: the run has n_samples = 400, the command 4000; "
         "a command on a run sets only attack_kinds, "),
        (["robustness", "--run", "{run}", "--set", "attack_fractions=(0.05, 0.001)"],
         "{run}/config.txt: data fraction 0.001 yields an empty subset of n_samples = 400"),
    ], ids=["robustness-missing-run", "attack-missing-run", "attack-bogus-kind",
            "fidelity-below-t", "scalability-below-t", "scalability-classes-first-k",
            "scalability-classes-later-k", "scalability-n-test", "fidelity-budget-k",
            "fidelity-budget-classes", "fidelity-k", "attack-alpha", "attack-fraction-zero",
            "attack-fraction-negative", "attack-prune-ratio", "attack-quant-scheme",
            "attack-unread-alpha", "attack-finetune-alpha", "attack-unread-options",
            "attack-empty-subset", "attack-empty-subset-of-the-run", "robustness-empty-subset"])
    def test_commands_check_their_inputs_before_calibrating(self, tmp_path, capsys, toy_run,
                                                            argv, message):
        # without --calibration each command calibrates first when it needs
        # to; these once trained the null models and wrote calibration.txt
        # before they exited 2 (a fraction too small for the run's n_samples
        # only after the grid's earlier jobs had run, too)
        names = dict(missing=str(tmp_path / "missing"), run=str(toy_run))
        argv = [a.format(**names) for a in argv]
        code = cli.main([argv[0], *self.TINY, *argv[1:], "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"error: {message.format(**names)}" in capsys.readouterr().err
        assert not list(tmp_path.glob("**/calibration.txt"))
        assert not list(tmp_path.glob("**/*.csv"))
        assert not (tmp_path / "out").exists()

    def test_verify_rejects_calibration_with_empty_fingerprint(self, cli_workspace,
                                                               tmp_path, capsys):
        # an empty fingerprint once skipped the architecture check, so the
        # table passed for any model of the same d
        _, _, out = cli_workspace
        rundir = out / "run_seed0"
        calib = tmp_path / "calibration.txt"
        calib.write_text("".join(
            "fingerprint = ''\n" if ln.startswith("fingerprint") else ln
            for ln in (out / "calibration.txt").read_text().splitlines(keepends=True)))
        shares = [str(rundir / "shares" / f"client_{k}.share") for k in (1, 2, 3)]
        code = cli.main(["verify", "--model", str(rundir / "model_final.bin"),
                         "--calibration", str(calib)] + shares)
        assert code == 2
        captured = capsys.readouterr()
        assert "decision:" not in captured.out
        assert "fingerprint" in captured.err

    def test_attack_rejects_unknown_kind_before_loading_the_run(self, cli_workspace,
                                                                tmp_path, capsys):
        _, cfg_path, out = cli_workspace
        code = cli.main(["attack", "--config", str(cfg_path), "--out", str(tmp_path),
                         "--run", str(tmp_path / "no-such-run"),
                         "--calibration", str(out / "calibration.txt"), "--kind", "banana"])
        assert code == 2
        assert "error: unknown attack kind 'banana'" in capsys.readouterr().err

    def test_load_run_rejects_unknown_manifest_line(self, cli_workspace, tmp_path):
        cfg, _, out = cli_workspace
        shutil.copytree(out / "run_seed0", tmp_path / "run_seed0")
        manifest = tmp_path / "run_seed0" / "manifest.txt"
        manifest.write_text(manifest.read_text() + "public_norm = 74.25\n")
        want = re.escape(str(manifest)) + r":\d+: .*'public_norm"
        with pytest.raises(ConfigurationError, match=want):
            load_run(cfg, tmp_path / "run_seed0")

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

    @pytest.mark.parametrize("row, message", [
        ("abc,noise,sigma=0.1,0,0.5", "5 fields, the header has 7"),
        ("abc,noise,sigma=0.1,0,0.5,abc,reject", "could not convert string to float: 'abc'"),
    ])
    def test_report_names_the_bad_row(self, tmp_path, capsys, row, message):
        path = tmp_path / "robustness.csv"
        path.write_text("run_id,attack,params,step,test_accuracy,z,decision\n"
                        "abc,noise,sigma=0.1,0,0.5,4.2,accept\n\n" + row + "\n")
        assert cli.main(["report", "--out", str(tmp_path)]) == 2
        assert f"error: {path} line 4: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["missing", "a_file.txt"])
    def test_report_names_an_unreadable_out(self, tmp_path, capsys, name):
        # a missing --out once printed "error: [Errno 2] No such file or directory"
        (tmp_path / "a_file.txt").write_text("x\n")
        out = tmp_path / name
        assert cli.main(["report", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {out}: cannot read: ")
        assert sorted(os.listdir(tmp_path)) == ["a_file.txt"]

    def test_an_error_without_text_is_named_by_its_type(self, tmp_path, capsys, monkeypatch):
        # a MemoryError once reached the user as a bare "error: "
        def fail(outdir):
            raise MemoryError()

        monkeypatch.setattr(cli, "cmd_report", fail)
        assert cli.main(["report", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: MemoryError\n"

    def test_train_writes_utf8_under_an_ascii_locale(self, tmp_path):
        # config.txt was once written in the locale's encoding: under the C
        # locale this run exited 2 and left a 0-byte config.txt, no manifest
        config = tmp_path / "cfg.txt"
        config.write_text("n_clients = 4\nthreshold = 2\nn_samples = 400\nhidden = 16\n"
                          "rounds = 1\nseeds = (0,)\noutput_dir = 'résultats'\n",
                          encoding="utf-8")
        src = os.path.dirname(os.path.dirname(experiments.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])),
                   LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
        out = tmp_path / "out"
        done = subprocess.run([sys.executable, "-m", "twmark", "train", "--config", str(config),
                               "--out", str(out)], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        rundir = out / "run_seed0"
        assert "output_dir = 'résultats'" in (rundir / "config.txt").read_bytes().decode("utf-8")
        assert experiments.read_run(rundir)[0].output_dir == "résultats"

    @pytest.mark.parametrize("command", ["train", "calibrate"])
    def test_a_path_the_locale_cannot_name_is_refused_first(self, tmp_path, command):
        # under the C locale this run once trained, then failed at its first
        # write with an ascii codec error that named no path
        config = tmp_path / "cfg.txt"
        config.write_text("n_clients = 4\nthreshold = 2\nn_samples = 400\nhidden = 16\n"
                          "rounds = 1\nseeds = (0,)\ncalib_rounds = 1\n"
                          "output_dir = 'résultats'\n", encoding="utf-8")
        src = os.path.dirname(os.path.dirname(experiments.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])),
                   LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
        done = subprocess.run([sys.executable, "-m", "twmark", command, "--config", str(config)],
                              env=env, cwd=tmp_path, capture_output=True, text=True)
        assert done.returncode == 2
        # an ASCII stderr shows the path's é as \xe9
        assert done.stderr == ("error: r\\xe9sultats: the filesystem encoding ascii "
                               "cannot name this path\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.txt"]

    def test_bad_config_key_is_exit_2(self, cli_workspace, capsys):
        _, cfg_path, out = cli_workspace
        code = cli.main(["train", "--config", str(cfg_path),
                         "--set", "banana=1", "--out", str(out)])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestRunDirectory:
    """A run directory is reloaded from its own config.txt."""

    def test_reload_uses_the_training_config(self, cli_workspace):
        # a run trained at n_samples=1920 once reloaded at 3840 without error
        cfg, _, out = cli_workspace
        other = dataclasses.replace(cfg, n_samples=3840)
        _, dataset, _ = load_run(other, out / "run_seed0")
        trained = cfg.dataset(0)
        assert dataset.n == 1920
        assert np.array_equal(dataset.X_test, trained.X_test)
        assert np.array_equal(dataset.y_test, trained.y_test)

    @pytest.mark.parametrize("damage", ["missing", "malformed", "f_share", "threshold",
                                        "empty-trajectory", "first-round-shape",
                                        "last-round-shape"])
    def test_bad_config_is_an_error_naming_it(self, cli_workspace, tmp_path, capsys,
                                              damage):
        # a damaged trajectory once failed naming no file: an empty one with
        # "list index out of range", a round of another hidden width with a
        # broadcast or reshape error in the first attack
        cfg, cfg_path, out = cli_workspace
        rundir = tmp_path / "run_seed0"
        shutil.copytree(out / "run_seed0", rundir)
        config = named = rundir / "config.txt"
        if damage == "missing":
            config.unlink()
        elif damage == "malformed":
            config.write_text("rounds = os.sep\n")
        elif damage == "empty-trajectory":
            named = rundir / "trajectory"
            shutil.rmtree(named)
            named.mkdir()
        elif damage.endswith("round-shape"):
            r = 0 if damage == "first-round-shape" else cfg.rounds
            named = rundir / "trajectory" / f"round_{r:05d}.bin"
            shape = MlpShape(cfg.input_dim, 8, cfg.n_classes)
            save_model(init_model(shape, rng_from_key(0, "init")), shape, r, named)
        else:
            value = {"f_share": 18, "threshold": 2}[damage]
            dataclasses.replace(cfg, **{damage: value}).save(config)
        with pytest.raises(ConfigurationError, match="^" + re.escape(str(named))):
            load_run(cfg, rundir)
        assert cli.main(["robustness", "--config", str(cfg_path),
                         "--out", str(tmp_path / "out"), "--run", str(rundir),
                         "--calibration", str(out / "calibration.txt")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {named}")

    def test_no_share_files_is_an_error_naming_the_run(self, cli_workspace, tmp_path):
        # it once failed with "no share files given", naming no directory
        _, _, out = cli_workspace
        rundir = tmp_path / "run_seed0"
        shutil.copytree(out / "run_seed0", rundir)
        shutil.rmtree(rundir / "shares")
        with pytest.raises(ConfigurationError,
                           match="^" + re.escape(f"{rundir}: no share files") + "$"):
            experiments.read_run(rundir)

    def test_attack_under_another_f_share_is_refused(self, cli_workspace, tmp_path,
                                                     capsys):
        # under f_share 18 (the calibration made at 18 too) the attack path once
        # took the codec from the command's config and scored the run's model
        # with a z four times too large; later it calibrated at 18 and refused
        # the run's shares
        _, cfg_path, out = cli_workspace
        common = ["--config", str(cfg_path), "--set", "f_share=18",
                  "--out", str(tmp_path), "--run", str(out / "run_seed0")]
        for argv in (["attack"] + common + ["--kind", "prune_magnitude",
                                            "--prune-ratio", "0.5"],
                     ["robustness"] + common):
            assert cli.main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {out / 'run_seed0' / 'config.txt'}: "
                                  "the run has f_share = 20, the command 18; "), err
        assert not (tmp_path / "calibration.txt").exists()
        assert not list(tmp_path.glob("*.csv"))

    def test_attack_rows_carry_the_run_config_hash(self, cli_workspace, tmp_path):
        # a K=4 run attacked under a config of other n_samples and noise once
        # wrote rows tagged with the attacking config's hash; a command now
        # differs from the run only in the fields it sets itself
        cfg, cfg_path, out = cli_workspace
        run_cfg = dataclasses.replace(cfg, n_clients=4, threshold=2, rounds=1)
        cmd_train(run_cfg, tmp_path, seed=0)
        common = ["--set", "attack_batch=32", "--set", "z_star=3.5",
                  "--run", str(tmp_path / "run_seed0"),
                  "--calibration", str(out / "calibration.txt")]
        attack = ["attack", *common, "--out", str(tmp_path / "attack"),
                  "--kind", "prune_magnitude", "--prune-ratio", "0.5"]
        grid = ["robustness", *common, "--out", str(tmp_path / "grid"),
                "--set", "attack_kinds=('prune_magnitude',)", "--set", "prune_ratios=(0.5,)"]
        written = []
        for argv, csv in ((attack, tmp_path / "attack" / "attack_prune_magnitude.csv"),
                          (grid, tmp_path / "grid" / "robustness.csv")):
            assert cli.main(argv) == 0
            rows = csv.read_text().splitlines()[1:]
            assert rows and {row.split(",")[0] for row in rows} == {run_cfg.config_hash()}
            written.append(rows)
        assert run_cfg.config_hash() != dataclasses.replace(
            run_cfg, attack_batch=32, z_star=3.5).config_hash()
        # the one job's row is the grid's row of the same ratio
        assert written[0] == written[1] and written[0][0].split(",")[2] == "prune_ratio=0.5"

    # a calibration budget and an attack grid small enough to run in a test
    QUICK = ["--set", "calib_models=2", "--set", "calib_rounds=1", "--set", "calib_keys=100",
             "--set", "attack_epochs=1", "--set", "attack_kinds=('quantize',)"]

    @pytest.mark.parametrize("given", ["set", "config"])
    @pytest.mark.parametrize("command", ["attack", "robustness"])
    def test_a_key_the_run_gives_must_be_the_runs(self, toy_run, tmp_path, capsys, command,
                                                  given):
        # such a key once replaced the run's value in the command's config,
        # which calibrated and attacked at noise 0.5 a run trained at 1.0
        config = tmp_path / "config.txt"
        config.write_text("n_samples = 400\nnoise = 0.5\n")
        args = ["--set", "noise=0.5"] if given == "set" else ["--config", str(config)]
        argv = [command, *(["--kind", "quantize"] if command == "attack" else []), *args,
                *self.QUICK, "--run", str(toy_run), "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {toy_run / 'config.txt'}: the run has noise = 1.0, the command 0.5; "
            "a command on a run sets only attack_kinds, attack_fractions, ")
        assert not (tmp_path / "out").exists()

    def test_a_missing_table_is_fitted_on_the_run(self, toy_run, tmp_path):
        # the table was once fitted at the command's n_samples and K (20,480
        # and 32 by default), not at the run's 400 and 4
        budget = dict(calib_models=2, calib_rounds=1, calib_keys=100)
        assert cli.main(["attack", "--kind", "quantize", "--run", str(toy_run),
                         *(f"--set={k}={v}" for k, v in budget.items()),
                         "--out", str(tmp_path / "attack")]) == 0
        run_cfg = ExperimentConfig.from_file(toy_run / "config.txt")
        experiments.cmd_calibrate(dataclasses.replace(run_cfg, **budget), tmp_path / "own")
        assert ((tmp_path / "attack" / "calibration.txt").read_bytes()
                == (tmp_path / "own" / "calibration.txt").read_bytes())

    def test_attack_commands_take_the_model_shape_from_the_run(self, toy_run, tmp_path):
        # on a hidden=16 run each once failed to reshape the run's d = 698
        # model to the command's (128, 32) layer unless the training --sets
        # were repeated
        common = ["--set", "n_clients=4", "--set", "threshold=2", "--set", "n_samples=400",
                  "--set", "calib_models=2", "--set", "calib_rounds=1",
                  "--set", "calib_keys=100", "--set", "attack_epochs=2",
                  "--set", "attack_kinds=('quantize', 'finetune')",
                  "--set", "attack_fractions=(0.05,)", "--run", str(toy_run)]
        for name, sets in (("bare", []), ("matching", ["--set", "hidden=16"])):
            out = ["--out", str(tmp_path / name)]
            for command in (["attack", "--kind", "quantize"], ["attack", "--kind", "finetune"],
                            ["robustness"]):
                assert cli.main([*command, *common, *sets, *out]) == 0
        files = sorted(p.name for p in (tmp_path / "bare").iterdir())
        assert files == ["attack_finetune.csv", "attack_quantize.csv", "calibration.txt",
                         "robustness.csv", "robustness_summary.txt"]
        for name in files:
            assert ((tmp_path / "bare" / name).read_bytes()
                    == (tmp_path / "matching" / name).read_bytes()), name
        assert CalibrationTable.load(tmp_path / "bare" / "calibration.txt").dim == 698

    def test_a_missing_calibration_path_is_written_there(self, toy_run, tmp_path):
        # the table once went to calibration.txt beside the path, overwriting it
        out = tmp_path / "out"
        out.mkdir()
        (out / "calibration.txt").write_bytes(b"an older table\n")
        path = out / "tables" / "other.txt"
        assert cli.main(["attack", "--set", "n_clients=4", "--set", "threshold=2",
                         "--set", "n_samples=400", "--set", "calib_models=2",
                         "--set", "calib_rounds=1", "--set", "calib_keys=100",
                         "--run", str(toy_run), "--out", str(out),
                         "--calibration", str(path), "--kind", "prune_magnitude"]) == 0
        assert (out / "calibration.txt").read_bytes() == b"an older table\n"
        assert CalibrationTable.load(path).dim == 698
        assert sorted(p.name for p in out.iterdir()) == ["attack_prune_magnitude.csv",
                                                          "calibration.txt", "tables"]

    @pytest.mark.parametrize("kind, options, params", [
        ("prune_magnitude", [], "prune_ratio=0.5"),
        ("quantize", [], "quant_scheme=static8"),
        ("quantize", ["--quant-scheme", "dynamic8"], "quant_scheme=dynamic8"),
        ("distill", ["--data-fraction", "0.1"], "alpha=0.5;data_fraction=0.1"),
        ("adaptive_finetune", ["--alpha", "0.3"], "alpha=0.3;data_fraction=0.05"),
    ])
    def test_attack_params_record_every_field_its_kind_reads(
            self, cli_workspace, tmp_path, monkeypatch, kind, options, params):
        # a field left out once went unrecorded although its default ran
        _, cfg_path, out = cli_workspace
        jobs = []

        def run_attack_job(kind, acfg, theta, *args):
            jobs.append(acfg)
            return [(0, theta)]     # the victim: no attack training

        monkeypatch.setattr(experiments, "run_attack_job", run_attack_job)
        assert cli.main(["attack", "--config", str(cfg_path), "--out", str(tmp_path),
                         "--run", str(out / "run_seed0"),
                         "--calibration", str(out / "calibration.txt"),
                         "--kind", kind, *options]) == 0
        [row] = (tmp_path / f"attack_{kind}.csv").read_text().splitlines()[1:]
        assert row.split(",")[2] == params
        assert all(str(getattr(jobs[0], name)) == value
                   for name, value in (item.split("=") for item in params.split(";")))


class TestSweeps:
    @pytest.mark.parametrize("g_scale, K", [(24, 128), (29, 4)])
    def test_overflow_bound_is_checked_at_every_k_before_training(
            self, monkeypatch, g_scale, K):
        # at g_scale 24 the K=128 baseline overflows; the sweep once trained
        # every smaller K first
        cfg = ExperimentConfig(g_scale=g_scale, seeds=(0,))
        monkeypatch.setattr(experiments, "run_setup",
                            lambda *a, **kw: pytest.fail("run_setup was called"))
        with pytest.raises(ConfigurationError, match=f"^k_sweep K={K}: aggregate overflow"):
            experiments.cmd_scalability(cfg, calib=None)

    def test_sweeps_refuse_participation_below_t(self, monkeypatch):
        # K=32, t=16: participation 0.4 draws 13 clients a round; in the K
        # sweep t is max(2, K // 2), and K=8 draws 3 of 8, below 4
        for name in ("run_setup", "run_watermarked"):
            monkeypatch.setattr(experiments, name,
                                lambda *a, **kw: pytest.fail("a run was started"))
        cfg = ExperimentConfig(participation=0.4, seeds=(0,))
        with pytest.raises(ConfigurationError,
                           match=r"^participation 0.4 draws 13 of 32 clients a round, "
                                 r"below t = 16"):
            experiments.cmd_fidelity(cfg, calib=None)
        with pytest.raises(ConfigurationError,
                           match=r"^k_sweep K=8: participation 0.4 draws 3 of 8 clients"):
            experiments.cmd_scalability(dataclasses.replace(cfg, k_sweep=(8, 16)), calib=None)
        # the count make_plans draws
        assert len(make_plans(8, 4, 1, 0.4, master_seed=0)[0].participants) == 3

    def test_one_k_fits_no_decay_exponent(self, cli_workspace, tmp_path, capsys):
        # a line through one K would raise RankWarning, an error under the
        # test suite's filterwarnings, and record a meaningless slope
        cfg, cfg_path, out = cli_workspace
        assert cli.main(["scalability", "--config", str(cfg_path),
                         "--calibration", str(out / "calibration.txt"),
                         "--out", str(tmp_path), "--set", "k_sweep=(6,)",
                         "--set", "sweep_rounds=1"]) == 0
        assert "baseline decay exponent: n/a" in capsys.readouterr().out
        summary = (tmp_path / "scalability_summary.txt").read_text()
        assert "baseline_decay_exponent" not in summary and "z_star" in summary
        # one K repeated, which once also fitted no slope, is refused
        with pytest.raises(ConfigurationError, match="k_sweep repeats 6"):
            dataclasses.replace(cfg, k_sweep=(6, 6))
        calib = CalibrationTable.load(out / "calibration.txt")
        two = experiments.cmd_scalability(
            dataclasses.replace(cfg, k_sweep=(4, 6), sweep_rounds=1), calib)
        assert isinstance(two["baseline_decay_exponent"], float)


class TestUnitRunner:
    """A command's independent (config, seed) units run in waves of one per
    CPU, each process pinned to its own; a last lone unit, one CPU or one
    unit runs here."""

    @pytest.fixture
    def processes(self, monkeypatch):
        """Makes the runner take ``n`` CPUs, the real ones in turn."""
        cpus = sorted(os.sched_getaffinity(0))

        def force(n):
            forced = [cpus[i % len(cpus)] for i in range(n)]
            monkeypatch.setattr(experiments, "_cpus", lambda: forced)
            return forced
        return force

    @staticmethod
    def _where(_, seed):
        return (seed, os.getpid(), os.sched_getaffinity(0),
                multiprocessing.current_process().daemon)

    @pytest.mark.parametrize("n, count", [(2, 7), (3, 7), (3, 5), (3, 2), (2, 6)])
    def test_units_run_one_per_cpu_and_return_in_order(self, processes, n, count):
        cpus, mask = processes(n), os.sched_getaffinity(0)
        got = experiments._run_units(self._where, [(None, i) for i in range(count)])
        assert [seed for seed, *_ in got] == list(range(count))
        width = min(n, count)
        pinned = count - 1 if count % width == 1 else count
        for i, (_, pid, affinity, daemon) in enumerate(got):
            if i < pinned:
                assert affinity == {cpus[i % width]}
                assert (pid == os.getpid()) is (i % width == 0) is (not daemon)
            else:   # the last lone unit, here on every CPU
                assert (pid, affinity, daemon) == (os.getpid(), mask, False)
        assert len({pid for _, pid, *_ in got}) == width
        assert os.sched_getaffinity(0) == mask

    @pytest.mark.parametrize("n, count", [(1, 3), (3, 1), (3, 0)])
    def test_one_cpu_or_one_unit_runs_here(self, processes, monkeypatch, n, count):
        processes(n)
        monkeypatch.setattr(experiments, "_ForkPool",
                            lambda *a, **kw: pytest.fail("a pool was opened"))
        got = experiments._run_units(self._where, [(None, i) for i in range(count)])
        assert got == [(i, os.getpid(), os.sched_getaffinity(0), False)
                       for i in range(count)]

    @pytest.mark.parametrize("n, count, failing, first", [
        (2, 4, {0, 1}, 0), (2, 3, {1, 2}, 1), (2, 3, {2}, 2), (3, 5, {2, 4}, 2),
        (3, 5, {4}, 4), (3, 7, {5, 6}, 5)])
    def test_the_first_failing_unit_error_is_raised(self, processes, n, count, failing,
                                                    first):
        processes(n)
        mask = os.sched_getaffinity(0)

        def unit(_, seed):
            if seed in failing:
                raise ValueError(f"unit {seed}")
            return seed

        with pytest.raises(ValueError, match=f"^unit {first}$"):
            experiments._run_units(unit, [(None, i) for i in range(count)])
        assert os.sched_getaffinity(0) == mask

    @pytest.mark.parametrize("n", (2, 3))
    def test_a_dead_unit_worker_is_named(self, processes, n):
        processes(n)

        def unit(_, seed):
            if seed == 1:
                os._exit(3)
            return seed

        with pytest.raises(ProtocolAbortError,
                           match=r"^worker process \d+ ended with exit code 3$"):
            experiments._run_units(unit, [(None, i) for i in range(4)])

    def test_a_trainer_in_a_unit_worker_forks_no_worker(self, processes, monkeypatch):
        # a daemonic process may not fork, even where the worker count is forced
        processes(3)
        monkeypatch.setattr(protocol, "_worker_count", lambda n_clients: 2)
        cfg = ExperimentConfig(n_clients=4, threshold=2, n_samples=400, hidden=8)

        def unit(cfg, seed):
            with protocol.ClientTrainer(cfg.dataset(seed), cfg.shape(), cfg.protocol_params(),
                                        seed, cfg.n_clients) as train:
                return multiprocessing.current_process().daemon, len(train._workers)

        got = experiments._run_units(unit, [(cfg, s) for s in range(4)])
        assert got == [(False, 2), (True, 0), (True, 0), (False, 2)]

    TOY = ["--set", "n_clients=4", "--set", "threshold=2", "--set", "n_samples=400",
           "--set", "hidden=16", "--set", "n_test=200", "--set", "rounds=3",
           "--set", "calib_models=4", "--set", "calib_rounds=1", "--set", "calib_keys=100",
           "--set", "seeds=(0, 1, 2)", "--set", "c_sweep=(0.0, 0.1)",
           "--set", "sweep_rounds=2", "--set", "sweep_samples=400"]

    def _outputs(self, out) -> dict:
        for argv in (["calibrate"], ["train"], ["fidelity", "--sweep-budget"]):
            assert cli.main([*argv, *self.TOY, "--out", str(out)]) == 0
        return {path.relative_to(out): path.read_bytes()
                for path in sorted(out.rglob("*")) if path.is_file()}

    @pytest.fixture(scope="class")
    def pinned_outputs(self, tmp_path_factory):
        """The files of one CPU, this process pinned as `taskset -c 0` would."""
        mask = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(mask)})
        try:
            return self._outputs(tmp_path_factory.mktemp("one_cpu"))
        finally:
            os.sched_setaffinity(0, mask)

    @pytest.mark.parametrize("mode", ["default", "three", "three_forced_trainer"])
    def test_outputs_do_not_depend_on_the_processes(self, pinned_outputs, processes,
                                                    monkeypatch, tmp_path, mode):
        # calibrate's 4 models, train's 3 seeds and fidelity's 6 points, one
        # pinned CPU against every CPU (2: waves of 2, then a lone unit) and
        # 3 processes (a wave and a lone unit; 2 waves), with and without
        # forked trainer workers
        if mode != "default":
            processes(3)
        if mode == "three_forced_trainer":
            monkeypatch.setattr(protocol, "_worker_count", lambda n_clients: 2)
        got = self._outputs(tmp_path)
        assert {"calibration.txt", "fidelity.csv", "fidelity_summary.txt",
                "run_seed2/metrics.csv"} <= set(map(str, got))
        assert got == pinned_outputs


@pytest.fixture(scope="module")
def literal_files(cli_workspace, tmp_path_factory):
    """Copies of a saved config, a calibration table and a run's manifest,
    each as (path, original bytes, loader of a file at another path)."""
    cfg, cfg_path, out = cli_workspace
    root = tmp_path_factory.mktemp("literal-files")
    shutil.copy(cfg_path, root / "config.txt")
    shutil.copy(out / "calibration.txt", root / "calibration.txt")
    shutil.copytree(out / "run_seed0", root / "run_seed0")
    files = {
        "config": (root / "config.txt", ExperimentConfig.from_file),
        "calibration": (root / "calibration.txt", CalibrationTable.load),
        "manifest": (root / "run_seed0" / "manifest.txt",
                     lambda path: load_run(cfg, path.parent)),
    }
    return {kind: (path, path.read_bytes(), load) for kind, (path, load) in files.items()}


def _fresh_copy(path, data: bytes, tmp_path_factory):
    """``data`` written under ``path``'s name in a new directory, beside
    symlinks to every other entry of ``path``'s directory; rewriting one
    file in place costs milliseconds on some filesystems, creating one does
    not."""
    root = tmp_path_factory.mktemp("damaged")
    for entry in path.parent.iterdir():
        if entry.name != path.name:
            (root / entry.name).symlink_to(entry)
    fresh = root / path.name
    fresh.write_bytes(data)
    return fresh


def _damage(data: bytes, draw) -> bytes:
    """``data`` cut anywhere, with one arbitrary line appended, or with one byte flipped."""
    how = draw(st.sampled_from(["cut", "append", "flip"]))
    if how == "cut":
        return data[:draw(st.integers(0, len(data)))]
    if how == "append":
        line = draw(st.one_of(st.text().map(str.encode), st.binary()))
        return data + line + b"\n"
    return _flip(data, draw)


def _flip(data: bytes, draw) -> bytes:
    pos = draw(st.integers(0, len(data) - 1))
    flipped = data[pos] ^ draw(st.integers(1, 255))
    return data[:pos] + bytes([flipped]) + data[pos + 1:]


def _corrupt(data: bytes, draw) -> bytes:
    """``data`` cut short anywhere, extended by arbitrary bytes, or with one byte flipped."""
    how = draw(st.sampled_from(["cut", "append", "flip"]))
    if how == "cut":
        return data[:draw(st.integers(0, len(data) - 1))]
    if how == "append":
        return data + draw(st.binary(min_size=1))
    return _flip(data, draw)


class TestLiteralFiles:
    @pytest.mark.parametrize("kind", ["config", "calibration", "manifest"])
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_damaged_file_loads_or_names_itself(self, literal_files, tmp_path_factory,
                                                kind, data):
        original, data_bytes, load = literal_files[kind]
        path = _fresh_copy(original, _damage(data_bytes, data.draw), tmp_path_factory)
        try:
            load(path)
        except ConfigurationError as exc:
            assert str(exc).startswith(str(path)), exc

    def test_saved_files_load(self, literal_files):
        for path, _, load in literal_files.values():
            load(path)

    def test_invalid_escape_in_a_config_file_names_the_line(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text("# comment\nsetup_mode = '\\d'\n")
        want = "^" + re.escape(f"{path}:2: setup_mode is not a literal: "
                               "invalid escape sequence '\\d'")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match=want):
                ExperimentConfig.from_file(path)

    def test_invalid_escape_in_a_set_item_names_the_item(self):
        item = "setup_mode='\\d'"
        want = "^" + re.escape(f"--set {item!r}: setup_mode is not a literal: "
                               "invalid escape sequence '\\d'")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match=want):
                ExperimentConfig.with_overrides({}, [item])

    def test_escapes_in_a_calibration_table(self, literal_files, tmp_path):
        # '\d' warned naming no file; '\\d' is a valid escape and reads
        path, original, _ = literal_files["calibration"]
        text = original.decode()
        dim = CalibrationTable.load(path).dim
        bad, good = tmp_path / "bad.txt", tmp_path / "good.txt"
        for dst, value in ((bad, f"'mlp\\d-d{dim}'"), (good, f"'mlp\\\\d-d{dim}'")):
            dst.write_text("".join(
                f"fingerprint = {value}\n" if ln.startswith("fingerprint") else ln
                for ln in text.splitlines(keepends=True)))
        line = 1 + text.splitlines().index(
            next(ln for ln in text.splitlines() if ln.startswith("fingerprint")))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError,
                               match="^" + re.escape(f"{bad}:{line}: fingerprint is not a "
                                                     "literal: invalid escape sequence")):
                CalibrationTable.load(bad)
            assert CalibrationTable.load(good).fingerprint == f"mlp\\d-d{dim}"


@pytest.fixture(scope="module")
def verify_files(cli_workspace, tmp_path_factory):
    """Copies of a run's final model and of t of its share files, and the
    calibration table they verify against."""
    _, _, out = cli_workspace
    root = tmp_path_factory.mktemp("verify-files")
    rundir = out / "run_seed0"
    model = root / "model_final.bin"
    shutil.copy(rundir / "model_final.bin", model)
    shares = [root / f"client_{k}.share" for k in (1, 2, 3)]
    for path in shares:
        shutil.copy(rundir / "shares" / path.name, path)
    return model, shares, out / "calibration.txt"


def _verify(model, shares, calib) -> tuple:
    """(exit code, stdout, stderr) of `twmark verify`."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(["verify", "--model", str(model), "--calibration", str(calib)]
                        + [str(p) for p in shares])
    return code, stdout.getvalue(), stderr.getvalue()


class TestBinaryFiles:
    def test_saved_files_verify(self, verify_files):
        code, out, _ = _verify(*verify_files)
        assert code == 0 and "decision: accept" in out

    @pytest.mark.parametrize("kind", ["model", "share"])
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_damaged_file_is_an_error_naming_it(self, verify_files, tmp_path_factory,
                                                kind, data):
        model, shares, calib = verify_files
        original = model if kind == "model" else data.draw(st.sampled_from(shares))
        path = _fresh_copy(original, _corrupt(original.read_bytes(), data.draw),
                           tmp_path_factory)
        if kind == "model":
            model = path
        else:
            shares = [path if p == original else p for p in shares]
        code, out, err = _verify(model, shares, calib)
        assert code == 2
        assert err.startswith(f"error: {path}: "), err
        assert "decision:" not in out

    @pytest.mark.parametrize("kind", ["model", "share"])
    def test_old_format_is_named(self, verify_files, tmp_path, kind):
        model, shares, calib = verify_files
        src = model if kind == "model" else shares[0]
        old = tmp_path / src.name
        old.write_bytes(src.read_bytes()[:7] + b"1" + src.read_bytes()[8:])
        if kind == "model":
            code, out, err = _verify(old, shares, calib)
        else:
            code, out, err = _verify(model, [old] + shares[1:], calib)
        assert code == 2 and "decision:" not in out
        magic = "TWMODEL" if kind == "model" else "TWSHARE"
        assert err == f"error: {old}: starts b'{magic}1', not {magic}2\n"

    def test_shares_of_two_setups_are_an_error(self, cli_workspace, verify_files,
                                               tmp_path):
        # q, f_share, K and t agree, the setups do not: with two such K=4, t=2
        # runs, an unwatermarked model once passed at z = 21,630
        cfg, _, _ = cli_workspace
        _, shares, calib = verify_files
        _, theta = experiments.run_plain_fedavg(cfg, seed=77, rounds=3)
        model = tmp_path / "plain.bin"
        save_model(theta, cfg.shape(), 3, model)
        other = experiments.run_setup(cfg, 1)  # the shares `train` writes for seed 1
        foreign = tmp_path / "client_3.share"
        save_share(other.shares[2], other, foreign)
        code, out, err = _verify(model, shares[:2] + [foreign], calib)
        assert code == 2 and "decision:" not in out
        assert err.startswith(f"error: {foreign}: share files disagree on setup_id: ")
        assert f" in {shares[0]}\n" in err

    def test_one_share_file_twice_is_an_error(self, verify_files):
        model, shares, calib = verify_files
        code, out, err = _verify(model, shares[:2] + shares[1:2], calib)
        assert code == 2 and "decision:" not in out
        assert err == f"error: {shares[1]}: point 2 is also the point of {shares[1]}\n"

    def test_f_share_beyond_the_field_is_an_error(self, verify_files, tmp_path,
                                                  tamper_share):
        # shares and calibration edited to f_share = 1100 once ended in
        # "error: (34, 'Numerical result out of range')"
        model, shares, calib = verify_files
        forged_calib = tmp_path / "calibration.txt"
        forged_calib.write_text("".join(
            "f_share = 1100\n" if ln.startswith("f_share") else ln
            for ln in calib.read_text().splitlines(keepends=True)))
        forged = [tmp_path / p.name for p in shares]
        for src, dst in zip(shares, forged):
            tamper_share(src, dst, f_share=1100)
        code, out, err = _verify(model, forged, forged_calib)
        assert code == 2 and "decision:" not in out
        assert err.startswith(f"error: {forged[0]}: 1100 fractional bits: need ")

    def test_calibration_dim_error_names_the_calibration(self, verify_files, tmp_path):
        # a table whose dim line alone was edited was blamed on the first share file
        model, shares, calib = verify_files
        other = tmp_path / "calibration.txt"
        other.write_text("".join(
            "dim = 9999\n" if ln.startswith("dim") else ln
            for ln in calib.read_text().splitlines(keepends=True)))
        code, out, err = _verify(model, shares, other)
        assert code == 2 and "decision:" not in out
        fingerprint = CalibrationTable.load(calib).fingerprint
        assert err == (f"error: {other}: fingerprint {fingerprint!r} is not of "
                       "the table's dim 9999\n")

    def test_fingerprint_error_names_the_calibration(self, verify_files, tmp_path):
        model, shares, calib = verify_files
        other = tmp_path / "calibration.txt"
        other.write_text("".join(
            "fingerprint = 'mlp-1x2x3'\n" if ln.startswith("fingerprint") else ln
            for ln in calib.read_text().splitlines(keepends=True)))
        code, out, err = _verify(model, shares, other)
        assert code == 2 and "decision:" not in out
        assert err.startswith(f"error: {other}: fingerprint 'mlp-1x2x3' is not the ")
        assert err.endswith(f" of {model}\n")

    @pytest.mark.parametrize("edits, message", [
        ({"sigma": "1e-05"}, "sigma = 1e-05 lies "),       # once z = 805.7, accepted
        ({"mu": "-1.0"}, "mu = -1.0 lies "),               # once z = 77.7, accepted
        ({"n_models": "1", "n_keys_per_model": "1"}, "n_models = 1 is below 2"),
    ], ids=["sigma", "mu", "one-cosine"])
    def test_calibration_far_from_the_null_is_an_error(self, cli_workspace, verify_files,
                                                        tmp_path, edits, message):
        # an unwatermarked model, rejected under the honest table
        cfg, _, _ = cli_workspace
        _, shares, calib = verify_files
        _, theta = experiments.run_plain_fedavg(cfg, seed=7, rounds=cfg.rounds)
        model = tmp_path / "plain.bin"
        save_model(theta, cfg.shape(), cfg.rounds, model)
        code, out, _ = _verify(model, shares, calib)
        assert code == 1 and "decision: reject" in out
        forged = tmp_path / "calibration.txt"
        forged.write_text("".join(
            f"{ln.split(' = ')[0]} = {edits[ln.split(' = ')[0]]}\n"
            if ln.split(" = ")[0] in edits else ln
            for ln in calib.read_text().splitlines(keepends=True)))
        code, out, err = _verify(model, shares, forged)
        assert code == 2 and "decision:" not in out
        assert err.startswith(f"error: {forged}: {message}"), err

    @pytest.mark.parametrize("weight, message", [
        (np.nan, "coordinate 7 is not finite"), (0.0, "zero-norm suspect model"),
        (1e9, "verification bound"),
    ])
    def test_model_values_that_cannot_verify_name_the_model(self, cli_workspace,
                                                            verify_files, tmp_path,
                                                            weight, message):
        # a model file with a sound digest, but weights verification refuses
        cfg, _, _ = cli_workspace
        _, shares, calib = verify_files
        theta = np.zeros(cfg.shape().dim)
        theta[7] = weight
        model = tmp_path / "model.bin"
        save_model(theta, cfg.shape(), 0, model)
        code, out, err = _verify(model, shares, calib)
        assert code == 2 and "decision:" not in out
        assert err.startswith(f"error: {model}: {message}")

    @pytest.mark.parametrize("missing", ["model", "share", "calibration"])
    def test_missing_file_names_itself(self, verify_files, tmp_path, missing):
        model, shares, calib = verify_files
        gone = tmp_path / "gone"
        code, out, err = _verify(*{"model": (gone, shares, calib),
                                   "share": (model, shares[:2] + [gone], calib),
                                   "calibration": (model, shares, gone)}[missing])
        assert code == 2 and "decision:" not in out
        assert err == f"error: {gone}: cannot read: No such file or directory\n"

    def test_a_large_declared_k_costs_no_memory(self, verify_files, tmp_path, tamper_share):
        # K comes from the share header's uint32; verification once built a
        # tuple of all K points to find strange ones (391 MB at K = 2^22)
        model, shares, calib = verify_files
        wide = [tmp_path / p.name for p in shares]
        for src, dst in zip(shares, wide):
            tamper_share(src, dst, n_clients=2**32 - 1)
        assert _verify(model, wide, calib) == _verify(model, shares, calib)

    def test_shares_of_another_length_are_an_error(self, cli_workspace, verify_files,
                                                   tmp_path):
        cfg, _, _ = cli_workspace
        model, _, calib = verify_files
        scfg = ShamirConfig(n_clients=6, threshold=3, params=FieldParams(cfg.modulus))
        setup = setup_trusted_dealer(scfg, 24, rng_from_key(5, "setup"), codecs=cfg.codecs())
        paths = [tmp_path / f"client_{s.point}.share" for s in setup.shares[:3]]
        for share, path in zip(setup.shares, paths):
            save_share(share, setup, path)
        code, out, err = _verify(model, paths, calib)
        assert code == 2 and "decision:" not in out
        assert err.startswith(f"error: {paths[0]}: shares have f_share 20, d 24; ")
