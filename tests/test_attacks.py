import numpy as np
import pytest

from twmark.attacks import (
    AttackConfig,
    attack_adaptive_finetune,
    attack_distill,
    attack_finetune,
    attack_prune,
    attack_quantize,
    estimate_key,
    estimate_key_insider,
    pareto_frontier,
    sample_attack_subset,
    _kd_grad,
    _log_probs,
    _quantize_tensor,
)
from twmark.errors import ConfigurationError, DegenerateModelError
from twmark.flsim import (AdamWParams, AdamWState, MlpShape, forward_backward, gen_dataset,
                          init_model, local_train, logits)
from twmark.protocol import GlobalModel
from twmark.rngutil import rng_from_key

SHAPE = MlpShape(input_dim=6, hidden=8, n_classes=4)  # d = 92


@pytest.fixture
def dataset():
    return gen_dataset(0, n=400, input_dim=6, n_classes=4, n_clients=4,
                       n_test=80)


@pytest.fixture
def theta(rng):
    return init_model(SHAPE, rng)


def _traj(rng):
    t0 = init_model(SHAPE, rng)
    t1 = t0 + 0.1 * rng.standard_normal(SHAPE.dim)
    return [GlobalModel(t0, 0), GlobalModel(t1, 1)]


class TestSubsetSampling:
    def test_size_and_determinism(self, dataset):
        X1, y1 = sample_attack_subset(dataset, 0.05, seed=3)
        X2, y2 = sample_attack_subset(dataset, 0.05, seed=3)
        assert len(X1) == round(0.05 * 400)
        assert np.array_equal(X1, X2) and np.array_equal(y1, y2)
        X3, _ = sample_attack_subset(dataset, 0.05, seed=4)
        assert not np.array_equal(X1, X3)

    def test_validations(self, dataset):
        with pytest.raises(ConfigurationError):
            sample_attack_subset(dataset, 1e-9, seed=0)
        with pytest.raises(ConfigurationError):
            sample_attack_subset(dataset, 50.0, seed=0)


class TestKeyEstimation:
    def test_unit_norm_displacement(self, rng):
        traj = _traj(rng)
        key = estimate_key(traj)
        want = traj[-1].theta - traj[0].theta
        want /= np.linalg.norm(want)
        assert np.allclose(key.direction, want)

    def test_insider_subtracts_own_updates(self, rng):
        traj = _traj(rng)
        upd = 0.02 * rng.standard_normal(SHAPE.dim)
        key = estimate_key_insider(traj, [upd])
        want = traj[-1].theta - traj[0].theta - upd
        want /= np.linalg.norm(want)
        assert np.allclose(key.direction, want)

    def test_degenerate_trajectory(self, rng):
        t0 = init_model(SHAPE, rng)
        with pytest.raises(DegenerateModelError):
            estimate_key([GlobalModel(t0, 0), GlobalModel(t0.copy(), 1)])


class TestFinetune:
    def test_checkpoints_and_first_is_input(self, theta, dataset):
        cfg = AttackConfig(epochs=3, batch_size=32, data_fraction=0.1)
        cps = attack_finetune(theta, dataset, SHAPE, cfg)
        assert [step for step, _ in cps] == [0, 1, 2, 3]
        assert np.array_equal(cps[0][1], theta)
        assert not np.array_equal(cps[-1][1], theta)

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_non_positive_batch_size_is_refused(self, theta, dataset, batch_size):
        # a negative size fine-tuned on no batch, and the grid counted the
        # unchanged model as one that survived the attack
        cfg = AttackConfig(epochs=3, batch_size=batch_size, data_fraction=0.1)
        with pytest.raises(ConfigurationError, match="batch_size must be >= 1"):
            attack_finetune(theta, dataset, SHAPE, cfg)

    def test_adaptive_alpha_zero_equals_plain(self, theta, dataset, rng):
        cfg = AttackConfig(epochs=3, batch_size=32, data_fraction=0.1, alpha=0.0)
        key = estimate_key(_traj(rng))
        plain = attack_finetune(theta, dataset, SHAPE, cfg)
        adaptive = attack_adaptive_finetune(theta, dataset, SHAPE, key, cfg)
        for (sa, ta), (sb, tb) in zip(plain, adaptive):
            assert sa == sb and np.array_equal(ta, tb)

    def test_adaptive_suppresses_alignment(self, theta, dataset, rng):
        direction = rng.standard_normal(SHAPE.dim)
        direction /= np.linalg.norm(direction)
        theta = theta + 0.5 * direction
        from twmark.attacks import EstimatedKey

        cfg = AttackConfig(epochs=5, batch_size=32, data_fraction=0.1, alpha=0.7)
        cps = attack_adaptive_finetune(theta, dataset, SHAPE,
                                       EstimatedKey(direction), cfg)
        before = abs(theta @ direction)
        after = abs(cps[-1][1] @ direction)
        assert after < before

    def test_alpha_range_validated(self, theta, dataset, rng):
        key = estimate_key(_traj(rng))
        with pytest.raises(ConfigurationError):
            attack_adaptive_finetune(theta, dataset, SHAPE, key,
                                     AttackConfig(alpha=1.5))


class TestPrune:
    def test_magnitude_exact_zero_count(self, theta):
        for ratio in (0.3, 0.5, 0.7, 0.9):
            out = attack_prune(theta, SHAPE, ratio, "magnitude")
            W1, b1, W2, b2 = SHAPE.unpack(out)
            n_weights = W1.size + W2.size
            want = int(np.ceil(ratio * n_weights))
            n_zero = int((W1 == 0).sum() + (W2 == 0).sum())
            assert n_zero == want
            # biases untouched
            _, b1_in, _, b2_in = SHAPE.unpack(theta)
            assert np.array_equal(b1, b1_in) and np.array_equal(b2, b2_in)

    def test_magnitude_removes_smallest(self, theta):
        out = attack_prune(theta, SHAPE, 0.5, "magnitude")
        W1, _, W2, _ = SHAPE.unpack(out)
        W1i, _, W2i, _ = SHAPE.unpack(theta)
        kept = np.concatenate([W1.ravel(), W2.ravel()])
        orig = np.concatenate([W1i.ravel(), W2i.ravel()])
        surviving = np.abs(orig[kept != 0])
        removed = np.abs(orig[kept == 0])
        assert surviving.min() >= removed.max()

    def test_structured_zeros_whole_units(self, theta):
        out = attack_prune(theta, SHAPE, 0.5, "structured")
        W1, b1, W2, _ = SHAPE.unpack(out)
        W1i, _, _, _ = SHAPE.unpack(theta)
        dead = np.flatnonzero(np.abs(W1).sum(axis=1) == 0)
        assert len(dead) == int(np.ceil(0.5 * SHAPE.hidden))
        assert np.array_equal(np.abs(b1[dead]), np.zeros(len(dead)))
        assert np.array_equal(W2[:, dead], np.zeros((4, len(dead))))
        # the dead units are those with smallest incoming l1 norm
        l1 = np.abs(W1i).sum(axis=1)
        assert set(dead.tolist()) == set(np.argsort(l1, kind="stable")[:4].tolist())

    def test_ratio_validation(self, theta):
        for bad in (0.0, 1.0, -0.2):
            with pytest.raises(ConfigurationError):
                attack_prune(theta, SHAPE, bad)
        with pytest.raises(ConfigurationError):
            attack_prune(theta, SHAPE, 0.5, "banana")


class TestQuantize:
    def test_static_error_bound_and_grid(self, theta):
        for scheme, bits in (("static8", 8), ("static4", 4)):
            out = attack_quantize(theta, SHAPE, scheme)
            W1, b1, W2, b2 = SHAPE.unpack(out)
            W1i, b1i, W2i, b2i = SHAPE.unpack(theta)
            for W, Wi in ((W1, W1i), (W2, W2i)):
                scale = np.abs(Wi).max() / (2 ** (bits - 1) - 1)
                assert np.abs(W - Wi).max() <= scale / 2 + 1e-12
                assert np.allclose(np.round(W / scale), W / scale, atol=1e-9)
            assert np.array_equal(b1, b1i) and np.array_equal(b2, b2i)

    def test_dynamic_per_row(self, theta):
        out = attack_quantize(theta, SHAPE, "dynamic8")
        W1, _, _, _ = SHAPE.unpack(out)
        W1i, _, _, _ = SHAPE.unpack(theta)
        scales = np.abs(W1i).max(axis=1) / 127
        assert (np.abs(W1 - W1i).max(axis=1) <= scales / 2 + 1e-12).all()

    def test_zero_tensor_passthrough(self):
        Z = np.zeros((3, 3))
        assert np.array_equal(_quantize_tensor(Z, 8, False), Z)
        assert np.array_equal(_quantize_tensor(Z, 8, True), Z)

    def test_unknown_scheme(self, theta):
        with pytest.raises(ConfigurationError):
            attack_quantize(theta, SHAPE, "float16")


class TestDistill:
    def test_student_from_fresh_init(self, theta, dataset):
        cfg = AttackConfig(epochs=2, batch_size=32, data_fraction=0.2, alpha=0.5)
        cps = attack_distill(theta, dataset, SHAPE, cfg)
        assert len(cps) == 3
        assert not np.array_equal(cps[0][1], theta)

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_non_positive_batch_size_is_refused(self, theta, dataset, batch_size):
        cfg = AttackConfig(epochs=2, batch_size=batch_size, data_fraction=0.2, alpha=0.5)
        with pytest.raises(ConfigurationError, match="batch_size must be >= 1"):
            attack_distill(theta, dataset, SHAPE, cfg)

    def test_kd_gradient_matches_finite_differences(self, theta, dataset, rng):
        X, y = sample_attack_subset(dataset, 0.05, seed=0)
        teacher_out = _log_probs(logits(theta, X, SHAPE) / 3.0)
        student = init_model(SHAPE, np.random.default_rng(9))
        _, grad = _kd_grad(student, X, y, teacher_out, SHAPE, T=3.0, alpha=0.5)
        eps = 1e-6
        for i in rng.choice(SHAPE.dim, 10, replace=False):
            tp, tm = student.copy(), student.copy()
            tp[i] += eps
            tm[i] -= eps
            lp, _ = _kd_grad(tp, X, y, teacher_out, SHAPE, T=3.0, alpha=0.5)
            lm, _ = _kd_grad(tm, X, y, teacher_out, SHAPE, T=3.0, alpha=0.5)
            fd = (lp - lm) / (2 * eps)
            assert abs(grad[i] - fd) <= 1e-4 * max(1.0, abs(fd))


class TestPareto:
    def test_attacker_frontier(self):
        pts = [(0.9, 5.0), (0.8, 2.0), (0.85, 4.0), (0.9, 4.0), (0.7, 1.0)]
        # attacker wants high accuracy and low z
        assert pareto_frontier(pts) == [(0.7, 1.0), (0.8, 2.0), (0.9, 4.0)]

    def test_single_point(self):
        assert pareto_frontier([(0.5, 3.0)]) == [(0.5, 3.0)]


def _reference_training(theta, X, rng, epochs, batch_size, opt, batch_grad):
    """AdamW over shuffled mini-batches written out as one loop, with
    theta after every epoch: the reference for every training procedure."""
    state = AdamWState(params=opt)
    out = [theta.copy()]
    for _ in range(epochs):
        order = rng.permutation(len(X))
        for start in range(0, len(X), batch_size):
            idx = order[start:start + batch_size]
            theta = state.update(theta, batch_grad(theta, idx))
        out.append(theta.copy())
    return out


def _assert_checkpoints(got, want):
    assert [step for step, _ in got] == list(range(len(want)))
    for (_, a), b in zip(got, want):
        assert np.array_equal(a, b)


class TestTrainingMatchesReference:
    """Every training procedure is the reference loop, bit for bit (the
    attacks draw their subset and streams at seed 0)."""

    CFG = dict(epochs=3, batch_size=32, optimizer=AdamWParams(lr=0.01, weight_decay=0.1))

    def test_local_train(self, theta, dataset):
        X, y = dataset.shard(1)
        opt = self.CFG["optimizer"]
        got = local_train(theta, X, y, SHAPE, np.random.default_rng(5), epochs=3,
                          batch_size=32, opt=opt)
        want = _reference_training(
            theta, X, np.random.default_rng(5), 3, 32, opt,
            lambda th, idx: forward_backward(th, X[idx], y[idx], SHAPE)[1])
        assert np.array_equal(got, want[-1])

    def test_finetune(self, theta, dataset):
        cfg = AttackConfig(data_fraction=0.1, **self.CFG)
        X, y = sample_attack_subset(dataset, 0.1, seed=0)
        want = _reference_training(
            theta, X, rng_from_key(0, "finetune"), 3, 32, cfg.optimizer,
            lambda th, idx: forward_backward(th, X[idx], y[idx], SHAPE)[1])
        _assert_checkpoints(attack_finetune(theta, dataset, SHAPE, cfg), want)

    def test_adaptive_finetune(self, theta, dataset, rng):
        cfg = AttackConfig(data_fraction=0.1, alpha=0.3, **self.CFG)
        key = estimate_key(_traj(rng))
        X, y = sample_attack_subset(dataset, 0.1, seed=0)

        def grad(th, idx):
            g = forward_backward(th, X[idx], y[idx], SHAPE)[1]
            align = float(th @ key.direction)
            return 0.7 * g + 0.3 * np.sign(align) * key.direction

        want = _reference_training(theta, X, rng_from_key(0, "finetune"), 3, 32,
                                   cfg.optimizer, grad)
        _assert_checkpoints(attack_adaptive_finetune(theta, dataset, SHAPE, key, cfg),
                            want)

    def test_distill(self, theta, dataset):
        cfg = AttackConfig(data_fraction=0.2, alpha=0.5, **self.CFG)
        X, y = sample_attack_subset(dataset, 0.2, seed=0)
        teacher_out = _log_probs(logits(theta, X, SHAPE) / 3.0)
        student = init_model(SHAPE, rng_from_key(0, "student_init"))
        want = _reference_training(
            student, X, rng_from_key(0, "distill"), 3, 32, cfg.optimizer,
            lambda th, idx: _kd_grad(th, X[idx], y[idx], teacher_out[idx], SHAPE,
                                     T=3.0, alpha=0.5)[1])
        _assert_checkpoints(attack_distill(theta, dataset, SHAPE, cfg), want)
