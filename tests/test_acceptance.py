"""Acceptance suite: one test per release criterion, run against the shipped
default configuration wherever feasible.

These tests are slow compared to the unit suite (the whole file takes on the
order of 30-45 minutes); each test_criterion_NN_* function produces exactly
one pass/fail line under `pytest -v`.
"""

import dataclasses
import filecmp
import itertools
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

import twmark
from twmark import attacks
from twmark.errors import ConfigurationError
from twmark.experiments import (
    ExperimentConfig,
    cmd_fidelity,
    cmd_scalability,
    make_coalition_verifier,
    run_plain_fedavg,
    run_watermarked,
)
from twmark.field import FieldParams, FieldVector, FixedPointCodec, ProtocolCodecs, check_aggregate_bound
from twmark.flsim import evaluate, forward_backward, init_model
from twmark.keysetup import dkg_cost_model, dkg_exchange, setup_dkg, setup_trusted_dealer
from twmark.rngutil import rng_from_key
from twmark.secagg import SecAggSession, secagg_sum
from twmark.sharing import ShamirConfig, derive_embedding_share, shamir_reconstruct, shamir_share
from twmark.verify import (
    CalibrationTable,
    Coalition,
    calibrate,
    coalition_statistic,
    cosine_against_keys,
    model_fingerprint,
    partial_inner,
    verify_direct,
)

CFG = ExperimentConfig()


# -- shared slow artifacts, built once per session --

@pytest.fixture(scope="session")
def calib_models_and_table():
    """Unwatermarked models plus the pooled null table, at the shipped
    calibration budget (5 models x 2000 keys)."""
    models = [run_plain_fedavg(CFG, seed=10_000 + i, rounds=CFG.calib_rounds)[1]
              for i in range(CFG.calib_models)]
    table = calibrate(models, CFG.calib_keys, rng_from_key("calibration-keys"),
                      fingerprint=model_fingerprint(CFG.shape()))
    return models, table


@pytest.fixture(scope="session")
def wm_runs():
    """Full-budget watermarked runs (K=32, t=16, 100 rounds) for every seed."""
    return {s: run_watermarked(CFG, s) for s in CFG.seeds}


@pytest.fixture(scope="session")
def c0_runs():
    """The same runs with the watermark strength set to zero."""
    cfg = dataclasses.replace(CFG, strength_c=0.0)
    return {s: run_watermarked(cfg, s) for s in CFG.seeds}


# -- 1: exact algebra --

def test_criterion_01_exact_algebra(fM61):
    rng = np.random.default_rng(7)
    d = 4

    # (a) sharing round-trips exactly for every (t, K) with K <= 16
    for K in range(2, 17):
        for t in range(2, K + 1):
            cfg = ShamirConfig(K, t, fM61)
            secret = FieldVector(fM61.uniform(rng, d), fM61)
            shares = shamir_share(secret, cfg, rng)
            rec = shamir_reconstruct(shares[:t], cfg)
            assert np.array_equal(rec.values, secret.values)
    # and for sampled subsets at K = 64
    cfg64 = ShamirConfig(64, 20, fM61)
    secret = FieldVector(fM61.uniform(rng, d), fM61)
    shares64 = shamir_share(secret, cfg64, rng)
    for _ in range(10):
        size = int(rng.integers(20, 65))
        idx = rng.permutation(64)[:size]
        rec = shamir_reconstruct([shares64[i] for i in idx], cfg64)
        assert np.array_equal(rec.values, secret.values)

    # (b) embedding shares over any participant set sum to the encoded key
    cfg = ShamirConfig(12, 4, fM61)
    codecs = ProtocolCodecs(params=fM61)
    setup = setup_trusted_dealer(cfg, 64, rng_from_key("acc-1b"),
                                 codecs=codecs, keep_key=True)
    enc_key = codecs.share.encode(setup.debug_key)
    for _ in range(50):
        size = int(rng.integers(4, 13))
        participants = tuple(sorted(rng.permutation(np.arange(1, 13))[:size].tolist()))
        total = FieldVector.zeros(64, fM61)
        for share in setup.shares:
            if share.point in participants:
                w = derive_embedding_share(share, participants, cfg)
                total = total.add(w.values)
        assert np.array_equal(total.values, enc_key.values)

    # (c) masked aggregation returns exactly the unmasked sum
    points = tuple(range(1, 9))
    session = SecAggSession(round_id=3, participants=points, d=32,
                            params=fM61, session_seed=99)
    inputs = {p: FieldVector(fM61.uniform(rng, 32), fM61) for p in points}
    expected = FieldVector.zeros(32, fM61)
    for v in inputs.values():
        expected = expected.add(v)
    out = secagg_sum(inputs, session)
    assert np.array_equal(out.values, expected.values)

    # (d) the coalition statistic matches the key-in-hand statistic for
    # every coalition of size >= t
    cfg = ShamirConfig(6, 3, fM61)
    d = 40
    setup = setup_trusted_dealer(cfg, d, rng_from_key("acc-1d"),
                                 codecs=codecs, keep_key=True)
    theta = rng.uniform(-1.0, 1.0, d)
    calib = CalibrationTable(mu=0.0, sigma=1.0, n_models=2, n_keys_per_model=100,
                             skewness=0.0, excess_kurtosis=0.0, dim=d,
                             fingerprint="", f_share=codecs.f_share)
    direct = verify_direct(theta, setup.debug_key, calib, codecs)
    n_checked = 0
    for size in range(3, 7):
        for combo in itertools.combinations(setup.shares, size):
            partials = partial_inner(Coalition.of(combo), theta, codecs.share)
            rep = coalition_statistic(partials, theta, calib, cfg, codecs.f_share)
            assert rep.z == direct.z
            n_checked += 1
    assert n_checked == 42


# -- 2: exhaustive secrecy at q = 7 --

def test_criterion_02_exhaustive_secrecy(f7):
    cfg = ShamirConfig(3, 2, f7)

    def fv(v):
        return FieldVector(np.array([v % 7], dtype=np.uint64), f7)

    # dealer: the single-share (= t-1 shares) distribution at each point is
    # identical for two distinct secrets, enumerating every polynomial
    def dealer_hist(secret):
        hists = {k: Counter() for k in cfg.points}
        for a in range(7):
            shares = shamir_share(fv(secret), cfg, None,
                                  coeffs=np.array([[a]], dtype=np.uint64))
            for sh in shares:
                hists[sh.point][int(sh.values.values[0])] += 1
        return hists

    assert dealer_hist(2) == dealer_hist(5)

    # dkg: the corrupt client's full view (its own coefficient plus the two
    # evaluations it receives) has an identical histogram for two honest
    # contribution sets with different implicit keys
    def dkg_hist(contributions):
        hist = Counter()
        for a1, a2, a3 in itertools.product(range(7), repeat=3):
            coeffs = [np.array([[a]], dtype=np.uint64) for a in (a1, a2, a3)]
            _, outgoing = dkg_exchange([fv(c) for c in contributions], cfg,
                                       rngs=[None, None, None],
                                       coeffs_per_client=coeffs)
            view = (a1,
                    int(outgoing[1][0].values.values[0]),
                    int(outgoing[2][0].values.values[0]))
            hist[view] += 1
        return hist

    # corrupt client 1 contributes 1 in both worlds; the other contributions
    # (and so the implicit key) differ
    assert dkg_hist((1, 2, 3)) == dkg_hist((1, 4, 6))


# -- 3: fixed-point error bounds --

def test_criterion_03_fixed_point_error(fM61):
    f = 20
    codec = FixedPointCodec(f, fM61)
    K, trials = 8, 10_000
    rng = np.random.default_rng(3)
    X = rng.uniform(-4.0, 4.0, (trials, K))
    agg = FieldVector.zeros(trials, fM61)
    for k in range(K):
        agg = agg.add(codec.encode(X[:, k]))
    err = np.abs(codec.decode_centered(agg) - X.sum(axis=1))
    assert err.max() <= K * 2.0 ** (-f - 1)

    # a configuration that would wrap around is rejected up front
    codecs = ProtocolCodecs(params=fM61)
    report = check_aggregate_bound(5514, 32, theta_max=1e12, scale_max=100.0,
                                   codecs=codecs)
    assert not report.ok
    with pytest.raises(ConfigurationError):
        report.raise_if_failed()


# -- 4: null calibration and false-positive rate --

def test_criterion_04_null_calibration_and_fpr(calib_models_and_table):
    models, table = calib_models_and_table
    assert table.n_models == 5 and table.n_keys_per_model == 2000
    assert abs(table.skewness) <= 0.3
    assert abs(table.excess_kurtosis) <= 0.5

    # 10^4 random-key checks of an unwatermarked model at z* = 4
    rng = rng_from_key("acceptance-fpr")
    keys = rng.standard_normal((10_000, models[0].size))
    z = (cosine_against_keys(models[0], keys) - table.mu) / table.sigma
    fpr = float((z >= 4.0).mean())
    assert fpr <= 5e-4


# -- 5: end-to-end detection at the default budget --

def test_criterion_05_end_to_end_detection(calib_models_and_table, wm_runs, c0_runs):
    _, table = calib_models_and_table
    shape = CFG.shape()
    for s in CFG.seeds:
        setup, dataset, trajectory = wm_runs[s]
        theta = trajectory[-1].theta
        rep = make_coalition_verifier(CFG, setup, table)(theta)
        assert rep.accepted and rep.z >= 4.0, f"seed {s}: z = {rep.z:.3f}"

        acc = evaluate(theta, dataset.X_test, dataset.y_test, shape)
        _, dataset0, traj0 = c0_runs[s]
        acc0 = evaluate(traj0[-1].theta, dataset0.X_test, dataset0.y_test, shape)
        assert abs(acc - acc0) <= 0.02, f"seed {s}: {acc:.4f} vs c=0 {acc0:.4f}"


# -- 6: detection strength is monotone in c --

def test_criterion_06_monotonicity_in_c(calib_models_and_table):
    _, table = calib_models_and_table
    res = cmd_fidelity(CFG, table, sweep_budget=True)
    cs = [c for c in CFG.c_sweep if c > 0.0]
    means = [res["summary"][c]["z_mean"] for c in cs]
    for lo, hi in zip(means, means[1:]):
        assert hi > lo, f"z means not increasing: {list(zip(cs, means))}"


# -- 7: scalability contrast across K --

def test_criterion_07_scalability_contrast(calib_models_and_table):
    _, table = calib_models_and_table
    res = cmd_scalability(CFG, table, seeds=(0,))
    for r in res["records"]:
        assert r["z_threshold"] >= 4.0, f"K={r['K']}: z = {r['z_threshold']:.3f}"
    slope = res["baseline_decay_exponent"]
    assert -0.65 <= slope <= -0.35, f"baseline decay exponent {slope:.3f}"


# -- 8: directional robustness of the seed-0 model --

def test_criterion_08_robustness_suite(calib_models_and_table, wm_runs):
    _, table = calib_models_and_table
    setup, dataset, trajectory = wm_runs[0]
    shape = CFG.shape()
    theta = trajectory[-1].theta
    verifier = make_coalition_verifier(CFG, setup, table)
    z0 = verifier(theta).z

    # 8-bit static quantization barely moves the statistic
    z8 = verifier(attacks.attack_quantize(theta, shape, "static8")).z
    assert abs(z8 - z0) <= 0.10 * abs(z0), f"static8: {z0:.2f} -> {z8:.2f}"

    # 4-bit static quantization still detects
    z4 = verifier(attacks.attack_quantize(theta, shape, "static4")).z
    assert z4 >= 4.0, f"static4: z = {z4:.2f}"

    # magnitude pruning at ratio 0.5 still detects
    zp = verifier(attacks.attack_prune(theta, shape, 0.5, "magnitude")).z
    assert zp >= 4.0, f"prune 0.5: z = {zp:.2f}"

    # 100 epochs of fine-tuning on a 5% subset still detects
    ft_cfg = attacks.AttackConfig(data_fraction=0.05,
                                  epochs=CFG.attack_epochs,
                                  batch_size=CFG.attack_batch,
                                  optimizer=CFG.optimizer())
    ft = attacks.attack_finetune(theta, dataset, shape, ft_cfg)
    zf = verifier(ft[-1][1]).z
    assert zf >= 4.0, f"finetune p=0.05: z = {zf:.2f}"

    # the adaptive attack degenerates to plain fine-tuning at alpha = 0,
    # checkpoint for checkpoint
    ad_cfg = attacks.AttackConfig(data_fraction=0.05,
                                  epochs=CFG.attack_epochs,
                                  batch_size=CFG.attack_batch,
                                  optimizer=CFG.optimizer(), alpha=0.0)
    key = attacks.estimate_key(trajectory)
    ad = attacks.attack_adaptive_finetune(theta, dataset, shape, key, ad_cfg)
    assert len(ad) == len(ft)
    for (step_a, th_a), (step_f, th_f) in zip(ad, ft):
        assert step_a == step_f and np.array_equal(th_a, th_f)

    # distillation on a 20% subset removes the watermark
    kd_cfg = attacks.AttackConfig(data_fraction=0.20,
                                  epochs=CFG.attack_epochs,
                                  batch_size=CFG.attack_batch,
                                  optimizer=CFG.optimizer())
    student = attacks.attack_distill(theta, dataset, shape, kd_cfg)[-1][1]
    zs = verifier(student).z
    assert zs < 4.0, f"distill p=0.20: z = {zs:.2f}"


# -- 9: dealer-free setup overhead accounting --

def test_criterion_09_dkg_overhead(fM61):
    d = CFG.shape().dim
    for K in (4, 8, 16):
        cfg = ShamirConfig(K, max(2, K // 2), fM61)
        setup = setup_dkg(cfg, d, rng_from_key("acc-9", K))
        assert setup.overhead.messages == K * (K - 1)
        assert setup.overhead.payload_bytes == K * (K - 1) * d * 8

    # with t proportional to K, the compute/communication ratio of the cost
    # model grows linearly in K
    ks = np.array([16, 32, 64, 128, 256], dtype=float)
    ratios = np.array([
        dkg_cost_model(int(K), int(K) // 2, d).compute_ns
        / dkg_cost_model(int(K), int(K) // 2, d).comm_ns
        for K in ks
    ])
    slope = float(np.polyfit(np.log(ks), np.log(ratios), 1)[0])
    assert abs(slope - 1.0) <= 0.1, f"ratio growth exponent {slope:.3f}"
    assert np.all(np.diff(ratios) > 0)


# -- 10: analytic gradients vs finite differences --

def test_criterion_10_gradient_correctness():
    shape = CFG.shape()
    rng = rng_from_key("fd-probe")
    theta = init_model(shape, rng)
    X = rng.standard_normal((16, shape.input_dim))
    y = rng.integers(0, shape.n_classes, 16)
    _, grad = forward_backward(theta, X, y, shape)
    h = 1e-6
    for i in rng.permutation(shape.dim)[:20]:
        tp, tm = theta.copy(), theta.copy()
        tp[i] += h
        tm[i] -= h
        lp, _ = forward_backward(tp, X, y, shape)
        lm, _ = forward_backward(tm, X, y, shape)
        fd = (lp - lm) / (2 * h)
        rel = abs(grad[i] - fd) / max(abs(fd), 1e-12)
        assert rel <= 1e-4, f"coordinate {i}: analytic {grad[i]:.6e}, fd {fd:.6e}"


# -- 11: determinism across BLAS thread counts --

def _tree_files(root):
    out = []
    for dirpath, _, names in os.walk(root):
        for n in sorted(names):
            out.append(os.path.relpath(os.path.join(dirpath, n), root))
    return sorted(out)


def test_criterion_11_determinism(tmp_path):
    # BLAS is the only source of threads (Shamir sharing's _matmul_mod and
    # the flsim matmuls): the same run in two processes, on 1 and 2 BLAS threads
    path = os.pathsep.join(filter(None, [os.path.dirname(os.path.dirname(twmark.__file__)),
                                         os.environ.get("PYTHONPATH")]))
    dirs = []
    for threads in ("1", "2"):
        outdir = tmp_path / f"blas_{threads}"
        subprocess.run(
            [sys.executable, "-c", "import sys; from twmark.experiments import "
             "ExperimentConfig, cmd_train; cmd_train(ExperimentConfig(), sys.argv[1], seed=0)",
             str(outdir)],
            env=dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path), check=True)
        dirs.append(outdir / "run_seed0")
    a, b = dirs
    files_a, files_b = _tree_files(a), _tree_files(b)
    assert files_a == files_b and files_a
    for rel in files_a:
        assert filecmp.cmp(a / rel, b / rel, shallow=False), f"{rel} differs"
