import hashlib
import re

import numpy as np
import pytest
from conftest import reference_training
from hypothesis import given, settings, strategies as st

from twmark import flsim
from twmark.errors import ConfigurationError, NumericalError
from twmark.experiments import ExperimentConfig, cmd_train, read_run
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
from twmark.rngutil import rng_from_key

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
            X, y = ds.X_train[ds.shards[k]], ds.y_train[ds.shards[k]]
            assert len(X) == 80
            counts = np.bincount(y, minlength=10)
            assert counts.max() - counts.min() <= 1

    def test_aux_pool_is_disjoint_sampling(self):
        ds = gen_dataset(0, n=320, n_clients=8)
        assert len(ds.X_aux) == len(ds.y_aux) == 320
        assert np.array_equal(np.bincount(ds.y_aux), np.full(10, 32))
        # fresh draws of the same distribution: no row repeats a training row
        assert not set(map(bytes, ds.X_aux)) & set(map(bytes, ds.X_train))

    # SHA-256 over means, X_train, y_train, every shard, X_test, y_test,
    # X_aux and y_aux, as gen_dataset drew them when it drew the pool eagerly
    DIGESTS = [
        (dict(seed=0, n=320, n_clients=8),
         "e51110598dcc2a6e544e9c547d17b0f2db0cc1b0bd05a2a5286a3eb0ec086032"),
        (dict(seed=7, n=20480, n_clients=32),
         "62c9e8f1fc90199e0547d07ed10d7ab9e73d60f258e8d3f1dc8350778fa35242"),
        (dict(seed=1, n=480, input_dim=6, n_classes=4, n_clients=6, n_test=40),
         "afb50387f881f6fb1decba7e9ae0139303194dd5a946e41d59290612318fa42a"),
    ]

    @pytest.mark.parametrize("kwargs, digest", DIGESTS)
    def test_every_array_is_pinned(self, kwargs, digest):
        ds = gen_dataset(**kwargs)
        h = hashlib.sha256()
        for a in (ds.means, ds.X_train, ds.y_train, *ds.shards, ds.X_test, ds.y_test,
                  ds.X_aux, ds.y_aux):
            h.update(np.ascontiguousarray(a).tobytes())
        assert h.hexdigest() == digest

    def test_aux_pool_is_drawn_once_on_first_read(self, monkeypatch):
        ds = gen_dataset(0, n=320, n_clients=8)
        sample_blobs, draws = flsim._sample_blobs, []

        def counting(rng, means, noise, per_class):
            draws.append(per_class)
            return sample_blobs(rng, means, noise, per_class)

        monkeypatch.setattr(flsim, "_sample_blobs", counting)
        X, y = ds.X_aux, ds.y_aux
        assert draws == [32]
        assert ds.X_aux is X and ds.y_aux is y and draws == [32]

    def test_training_run_never_draws_the_aux_pool(self, tmp_path, monkeypatch):
        cfg = ExperimentConfig(n_clients=4, threshold=2, rounds=2, n_samples=400,
                               hidden=8, n_test=80, seeds=(0,))
        sample_blobs, draws = flsim._sample_blobs, []

        def counting(rng, means, noise, per_class):
            draws.append(per_class)
            return sample_blobs(rng, means, noise, per_class)

        monkeypatch.setattr(flsim, "_sample_blobs", counting)
        rundir, = cmd_train(cfg, tmp_path).values()
        assert draws == [40, 8]                 # the training and test splits
        _, _, ds, _ = read_run(rundir)
        assert "_aux" not in vars(ds)
        assert len(ds.X_aux) == 400 and "_aux" in vars(ds)  # where the pool is kept

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
        (trained,) = local_train(theta, ds.X_train, ds.y_train, ds.shards[0][None], SMALL,
                                 [np.random.default_rng(0)], epochs=30)
        before = evaluate(theta, ds.X_test, ds.y_test, SMALL)
        after = evaluate(trained, ds.X_test, ds.y_test, SMALL)
        assert after > before
        assert after > 0.8

    def test_optimizer_state_fresh_per_call(self, rng):
        ds = gen_dataset(1, n=80, n_clients=1, input_dim=6, n_classes=4,
                         n_test=80)
        theta = init_model(SMALL, rng)
        a = local_train(theta, ds.X_train, ds.y_train, ds.shards[0][None], SMALL,
                        [np.random.default_rng(5)])
        b = local_train(theta, ds.X_train, ds.y_train, ds.shards[0][None], SMALL,
                        [np.random.default_rng(5)])
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_non_positive_batch_size_is_refused(self, rng, batch_size):
        # a negative size trained on no batch at all, and 0 failed in range()
        ds = gen_dataset(1, n=80, n_clients=1, input_dim=6, n_classes=4,
                         n_test=80)
        theta = init_model(SMALL, rng)
        with pytest.raises(ConfigurationError, match="batch_size must be >= 1"):
            local_train(theta, ds.X_train, ds.y_train, ds.shards[0][None], SMALL,
                        [np.random.default_rng(0)], batch_size=batch_size)

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


class TestLockstep:
    """Clients trained as one stack have, row by row, the bits of each
    client trained alone through the written-out reference loop."""

    SHAPE = MlpShape(input_dim=6, hidden=13, n_classes=4)     # h not a multiple of 8
    OPT = AdamWParams(lr=0.01, weight_decay=0.1)

    def _alone(self, theta, X, y, idx, rng, epochs, batch_size):
        return reference_training(
            theta, len(idx), rng, epochs, batch_size, self.OPT,
            lambda th, b: forward_backward(th, X[idx[b]], y[idx[b]], self.SHAPE)[1])[-1]

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 13), batch_size=st.integers(2, 9), batches=st.integers(1, 3),
           seed=st.integers(0, 2 ** 16))
    def test_rows_equal_clients_trained_alone(self, n, batch_size, batches, seed):
        size = batch_size * batches + 1         # the last batch holds one sample
        rng = np.random.default_rng(seed)
        X, y = rng.standard_normal((120, 6)), rng.integers(0, 4, 120)
        shards = np.stack([rng.choice(120, size, replace=False) for _ in range(n)])
        theta = init_model(self.SHAPE, rng)
        got = local_train(theta, X, y, shards, self.SHAPE,
                          [rng_from_key(seed, "client", i) for i in range(n)],
                          epochs=2, batch_size=batch_size, opt=self.OPT)
        assert got.shape == (n, self.SHAPE.dim)
        for i, idx in enumerate(shards):
            want = self._alone(theta, X, y, idx, rng_from_key(seed, "client", i), 2,
                               batch_size)
            assert np.array_equal(got[i], want)

    @pytest.mark.parametrize("fail, steps, loss", [
        ({0: 3, 2: 1}, 1, "3e+04"),
        ({2: 1}, 1, "3e+04"),
        ({0: 1, 1: 1}, 1, "1e+04"),
        ({1: 5, 2: 4}, 4, "3e+04"),
    ], ids=["earlier-later", "last-only", "same-step", "later-step"])
    def test_a_step_raises_the_error_of_its_first_failing_row(self, monkeypatch, fail, steps,
                                                              loss):
        # ``fail`` maps a stack row to the step at which its loss diverges.
        # The whole stack trains until the first step at which a row fails
        # (2 epochs of 3 steps), and that step raises the error of the first
        # row that failed there; ClientTrainer replays a failed stack to
        # raise the first failing client's error
        X, y = np.random.default_rng(0).standard_normal((60, 6)), np.arange(60) % 4
        theta = init_model(self.SHAPE, np.random.default_rng(1))
        real, seen = flsim.cross_entropy, []

        def cross_entropy(z2, y):
            loss, dz2 = real(z2, y)
            seen.append(len(loss))
            for i in range(len(loss)):
                if fail.get(i) == len(seen):
                    loss[i] = 1e4 * (i + 1)
            return loss, dz2

        monkeypatch.setattr(flsim, "cross_entropy", cross_entropy)
        with pytest.raises(NumericalError, match=f"^divergence: loss={re.escape(loss)}$"):
            local_train(theta, X, y, np.arange(60).reshape(3, 20), self.SHAPE,
                        [np.random.default_rng(i) for i in range(3)], epochs=2, batch_size=8)
        assert seen == [3] * steps
