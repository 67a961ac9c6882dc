import numpy as np
import pytest

from twmark.errors import ConfigurationError, NumericalError
from twmark.flsim import (
    AdamWParams,
    AdamWState,
    MlpShape,
    evaluate,
    forward_backward,
    gen_dataset,
    init_model,
    local_train,
    logits,
)

SMALL = MlpShape(input_dim=6, hidden=10, n_classes=4)


class TestDataset:
    def test_deterministic_per_seed(self):
        a = gen_dataset(3, n=320, n_clients=8)
        b = gen_dataset(3, n=320, n_clients=8)
        assert np.array_equal(a.X_train, b.X_train)
        assert np.array_equal(a.y_train, b.y_train)
        c = gen_dataset(4, n=320, n_clients=8)
        assert not np.array_equal(a.X_train, c.X_train)

    def test_shards_partition_evenly_and_balanced(self):
        ds = gen_dataset(0, n=640, n_clients=8)
        all_idx = np.concatenate(ds.shards)
        assert len(all_idx) == 640
        assert len(set(all_idx.tolist())) == 640
        for k in range(8):
            X, y = ds.shard(k)
            assert len(X) == 80
            counts = np.bincount(y, minlength=10)
            assert counts.max() - counts.min() <= 1

    def test_aux_pool_is_disjoint_sampling(self):
        ds = gen_dataset(0, n=320, n_clients=8)
        assert len(ds.X_aux) >= 320

    def test_divisibility_validation(self):
        with pytest.raises(ConfigurationError):
            gen_dataset(0, n=321, n_clients=8)
        with pytest.raises(ConfigurationError):
            gen_dataset(0, n=320, n_clients=7)
        with pytest.raises(ConfigurationError):
            gen_dataset(0, n=320, n_clients=8, n_test=77)


class TestShape:
    def test_default_dimension(self):
        assert MlpShape().dim == 5514

    def test_pack_unpack_roundtrip(self, rng):
        theta = rng.standard_normal(SMALL.dim)
        assert np.array_equal(SMALL.pack(*SMALL.unpack(theta)), theta)

    def test_unpack_layout(self):
        theta = np.arange(SMALL.dim, dtype=float)
        W1, b1, W2, b2 = SMALL.unpack(theta)
        assert W1.shape == (10, 6)
        assert b1.shape == (10,)
        assert W2.shape == (4, 10)
        assert b2.shape == (4,)
        assert W1[0, 0] == 0.0
        assert b2[-1] == SMALL.dim - 1


class TestGradients:
    def test_matches_central_differences(self, rng):
        theta = init_model(SMALL, rng)
        X = rng.standard_normal((12, 6))
        y = rng.integers(0, 4, size=12)
        _, grad = forward_backward(theta, X, y, SMALL)
        eps = 1e-6
        for i in rng.choice(SMALL.dim, 20, replace=False):
            tp, tm = theta.copy(), theta.copy()
            tp[i] += eps
            tm[i] -= eps
            lp, _ = forward_backward(tp, X, y, SMALL)
            lm, _ = forward_backward(tm, X, y, SMALL)
            fd = (lp - lm) / (2 * eps)
            assert abs(grad[i] - fd) <= 1e-4 * max(1.0, abs(fd))

    def test_empty_batch_rejected(self, rng):
        theta = init_model(SMALL, rng)
        with pytest.raises(ConfigurationError):
            forward_backward(theta, np.empty((0, 6)), np.empty(0, dtype=int), SMALL)


class TestAdamW:
    def test_first_step_closed_form(self, rng):
        p = AdamWParams(lr=0.01, weight_decay=0.1)
        state = AdamWState(params=p)
        theta = rng.standard_normal(8)
        grad = rng.standard_normal(8)
        out = state.update(theta, grad)
        # at step 1 bias correction makes mhat = g, vhat = g^2
        want = theta - p.lr * (grad / (np.abs(grad) + p.eps) + p.weight_decay * theta)
        assert np.allclose(out, want, atol=1e-12)

    def test_matches_reference_bit_for_bit(self, rng):
        p = AdamWParams(lr=0.01, weight_decay=0.1)
        state = AdamWState(params=p)
        theta = rng.standard_normal(64)
        m, v = np.zeros(64), np.zeros(64)
        for step in range(1, 21):
            grad = rng.standard_normal(64)
            before = theta.copy()
            out = state.update(theta, grad)
            assert np.array_equal(theta, before)   # the caller's theta is kept
            m = p.beta1 * m + (1 - p.beta1) * grad
            v = p.beta2 * v + (1 - p.beta2) * grad * grad
            mhat = m / (1 - p.beta1 ** step)
            vhat = v / (1 - p.beta2 ** step)
            want = theta - p.lr * (mhat / (np.sqrt(vhat) + p.eps) + p.weight_decay * theta)
            assert np.array_equal(out, want)
            theta = out

    def test_decay_is_decoupled(self):
        # zero gradient still shrinks the weights
        state = AdamWState(params=AdamWParams(lr=0.1, weight_decay=1.0))
        theta = np.ones(4)
        out = state.update(theta, np.zeros(4))
        assert np.allclose(out, 0.9 * np.ones(4))


class TestTraining:
    def test_local_train_learns_blobs(self, rng):
        ds = gen_dataset(1, n=400, n_clients=1, input_dim=6, n_classes=4,
                         n_test=400)
        theta = init_model(SMALL, rng)
        trained = local_train(theta, ds.X_train, ds.y_train, SMALL,
                              np.random.default_rng(0), epochs=30)
        before = evaluate(theta, ds.X_test, ds.y_test, SMALL)
        after = evaluate(trained, ds.X_test, ds.y_test, SMALL)
        assert after > before
        assert after > 0.8

    def test_optimizer_state_fresh_per_call(self, rng):
        ds = gen_dataset(1, n=80, n_clients=1, input_dim=6, n_classes=4,
                         n_test=80)
        theta = init_model(SMALL, rng)
        a = local_train(theta, ds.X_train, ds.y_train, SMALL,
                        np.random.default_rng(5))
        b = local_train(theta, ds.X_train, ds.y_train, SMALL,
                        np.random.default_rng(5))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_non_positive_batch_size_is_refused(self, rng, batch_size):
        # a negative size trained on no batch at all, and 0 failed in range()
        ds = gen_dataset(1, n=80, n_clients=1, input_dim=6, n_classes=4,
                         n_test=80)
        theta = init_model(SMALL, rng)
        with pytest.raises(ConfigurationError, match="batch_size must be >= 1"):
            local_train(theta, ds.X_train, ds.y_train, SMALL,
                        np.random.default_rng(0), batch_size=batch_size)

    def test_non_finite_model_aborts(self, rng):
        theta = np.full(SMALL.dim, np.nan)
        X = rng.standard_normal((8, 6))
        y = np.ones(8, dtype=int)
        with pytest.raises(NumericalError):
            forward_backward(theta, X, y, SMALL)

    def test_logits_shape(self, rng):
        theta = init_model(SMALL, rng)
        X = rng.standard_normal((5, 6))
        assert logits(theta, X, SMALL).shape == (5, 4)

    def test_evaluate_empty_rejected(self, rng):
        theta = init_model(SMALL, rng)
        with pytest.raises(ConfigurationError):
            evaluate(theta, np.empty((0, 6)), np.empty(0, dtype=int), SMALL)
