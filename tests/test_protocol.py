import hashlib
import multiprocessing
import os
from dataclasses import replace

import numpy as np
import pytest

from twmark import protocol
from twmark.errors import (ConfigurationError, EncodingOverflowError, NumericalError,
                           ProtocolAbortError, SkipRoundError)
from twmark.experiments import ExperimentConfig, run_plain_fedavg, run_watermarked
from twmark.field import FieldParams, FieldVector, ProtocolCodecs, check_aggregate_bound
from twmark.flsim import MlpShape, gen_dataset, init_model
from twmark.keysetup import setup_trusted_dealer
from twmark.protocol import (
    ClientTrainer,
    GlobalModel,
    ProtocolParams,
    RoundPlan,
    client_scale,
    ema_update,
    embed_round,
    make_plans,
    quantize_scale,
    run_baseline,
    run_protocol,
)
from twmark.rngutil import rng_from_key
from twmark.sharing import ShamirConfig, derive_embedding_share

SHAPE = MlpShape(input_dim=6, hidden=8, n_classes=4)  # d = 92


def _setup(rng, K=4, t=2, d=SHAPE.dim):
    cfg = ShamirConfig(n_clients=K, threshold=t, params=FieldParams())
    return setup_trusted_dealer(cfg, d, rng, keep_key=True)


def _dataset(K=4):
    return gen_dataset(0, n=80 * K, input_dim=6, n_classes=4, n_clients=K,
                       n_test=80)


class TestScaleHelpers:
    def test_ema_update(self):
        assert ema_update(0.0, 2.0, 0.9) == pytest.approx(0.2)
        assert ema_update(1.0, 2.0, 0.9) == pytest.approx(1.1)

    def test_ema_beta_validation(self):
        with pytest.raises(ProtocolAbortError):
            ema_update(0.0, 1.0, 1.0)

    def test_client_scale(self):
        assert client_scale(2.0, 3.0, 0.025) == pytest.approx(0.15)

    def test_quantize_scale_clamps_and_rounds(self, codecs):
        assert quantize_scale(-1.0, codecs, 100.0) == 0
        assert quantize_scale(1e9, codecs, 100.0) == 100 * 2 ** 16
        assert quantize_scale(0.5, codecs, 100.0) == 2 ** 15
        # half rounds up
        assert quantize_scale((2 ** 15 + 0.5) / 2 ** 16, codecs, 100.0) == 2 ** 15 + 1


class TestRoundPlan:
    def test_embed_iff_at_threshold(self):
        assert RoundPlan(1, (1, 2, 3), threshold=3).embed
        assert not RoundPlan(1, (1, 2), threshold=3).embed

    def test_make_plans_full_participation(self):
        plans = make_plans(4, 2, 3, 1.0, master_seed=0)
        assert len(plans) == 3
        assert all(p.participants == (1, 2, 3, 4) for p in plans)

    def test_make_plans_partial_is_deterministic(self):
        a = make_plans(8, 2, 5, 0.5, master_seed=3)
        b = make_plans(8, 2, 5, 0.5, master_seed=3)
        assert [p.participants for p in a] == [p.participants for p in b]
        assert all(len(p.participants) == 4 for p in a)


def _stepping(monkeypatch, ds, step):
    """Makes local_train move client k from theta by ``step(k)``, in this
    process and in the workers of trainers opened after the call."""
    shards = {k: ds.shard(k - 1)[0] for k in range(1, ds.n_clients + 1)}

    def local_train(theta, X, y, *args, **kwargs):
        (k,) = [k for k, Xk in shards.items() if np.array_equal(X, Xk)]
        return theta + step(k)

    monkeypatch.setattr(protocol, "local_train", local_train)


class TestEmbedRound:
    """One round through a real ClientTrainer, whose local_train moves
    client k from theta by ``step(k)``."""

    def _run(self, rng, monkeypatch, step, participants=(1, 2, 3, 4), c=0.05):
        setup, ds = _setup(rng), _dataset()
        _stepping(monkeypatch, ds, step)
        ema = {s.point: 0.0 for s in setup.shares}
        params = ProtocolParams(strength_c=c)
        plan = RoundPlan(round_index=1, participants=tuple(participants),
                         threshold=setup.cfg.threshold)
        gm = GlobalModel(theta=np.zeros(SHAPE.dim), round_index=0)
        with ClientTrainer(ds, SHAPE, params, 0, 4, setup.codecs.model,
                           {s.point: s.values for s in setup.shares}) as train:
            nxt = embed_round(gm, ema, plan, setup, params, train, session_seed=99)
        return setup, ema, nxt

    def test_zero_update_round_is_identity(self, rng, monkeypatch):
        # no local movement -> scales are 0 -> pure average of theta_k
        _, _, nxt = self._run(rng, monkeypatch, lambda k: 0.0)
        assert np.abs(nxt.theta).max() <= 2.0 ** -37

    def test_watermark_drift_oracle(self, rng, monkeypatch):
        # frozen local update v: every client moves by v, so the aggregate
        # should be v + (scale_total / K) * tau up to fixed-point rounding
        v = 0.01 * rng.standard_normal(SHAPE.dim)
        c = 0.05
        setup, ema, nxt = self._run(rng, monkeypatch, lambda k: v, c=c)
        vn = float(np.linalg.norm(v))
        scale_k = c * vn * (0.1 * vn)      # ema after one round from zero init
        scale_total = 4 * scale_k
        predicted = v + (scale_total / 4) * setup.debug_key
        assert np.abs(nxt.theta - predicted).max() <= 1e-4

    @pytest.mark.parametrize("participants", [(1, 2, 3, 4), (1, 3, 4), (2,)])
    def test_equals_the_field_reference(self, rng, monkeypatch, participants):
        # bit for bit decode_model(sum_k enc_model(theta_k) + S * w_k) / n,
        # with w_k = derive_embedding_share(s_k), and no term below t
        steps = {k: 0.01 * rng.standard_normal(SHAPE.dim) for k in (1, 2, 3, 4)}
        c = 0.05
        setup, _, nxt = self._run(rng, monkeypatch, steps.get, participants=participants, c=c)
        codecs, beta = setup.codecs, ProtocolParams().ema_beta
        total = 0
        for k in participants:
            norm = float(np.linalg.norm(steps[k]))
            total += codecs.scale.encode_scalar(client_scale(norm, ema_update(0.0, norm, beta), c))
        S = quantize_scale(codecs.scale.decode_scalar(total % codecs.params.modulus),
                           codecs, ProtocolParams().scale_max)
        assert S > 0
        embed = len(participants) >= setup.cfg.threshold
        agg = FieldVector.zeros(SHAPE.dim, codecs.params)
        for share in setup.shares:
            if share.point in participants:
                agg = agg.add(codecs.model.encode(steps[share.point]))
                if embed:
                    w = derive_embedding_share(share, participants, setup.cfg)
                    agg = agg.add(w.values.scalar_mul(S))
        want = codecs.model.decode_centered(agg) / len(participants)
        assert np.array_equal(nxt.theta, want)

    def test_below_threshold_embeds_nothing(self, rng, monkeypatch):
        v = 0.01 * rng.standard_normal(SHAPE.dim)
        setup, ema, nxt = self._run(rng, monkeypatch, lambda k: v, participants=(1,))
        assert np.abs(nxt.theta - v).max() <= 2.0 ** -37

    def test_empty_round_skips(self, rng):
        setup = _setup(rng)
        ema = {s.point: 0.0 for s in setup.shares}
        plan = RoundPlan(round_index=1, participants=(), threshold=2)
        with pytest.raises(SkipRoundError):
            embed_round(GlobalModel(np.zeros(SHAPE.dim), 0), ema, plan,
                        setup, ProtocolParams(), lambda *a: None, 1)

    def test_theta_ceiling_aborts(self, rng, monkeypatch):
        with pytest.raises(ProtocolAbortError):
            self._run(rng, monkeypatch, lambda k: 50.0)


class TestRunProtocol:
    def test_deterministic(self, rng):
        setup = _setup(rng)
        ds = _dataset()
        params = ProtocolParams(batch_size=16)
        a = run_protocol(setup, ds, SHAPE, params, rounds=3, master_seed=7)
        b = run_protocol(setup, ds, SHAPE, params, rounds=3, master_seed=7)
        assert len(a) == 4
        for ga, gb in zip(a, b):
            assert np.array_equal(ga.theta, gb.theta)

    def test_zero_strength_matches_plain_fedavg(self, rng):
        setup = _setup(rng)
        ds = _dataset()
        params = ProtocolParams(strength_c=0.0, batch_size=16)
        traj = run_protocol(setup, ds, SHAPE, params, rounds=2, master_seed=7)

        # real-domain FedAvg with the same per-client streams
        from twmark.flsim import local_train

        theta = init_model(SHAPE, rng_from_key(7, "init"))
        for r in (1, 2):
            locals_ = []
            for k in range(1, 5):
                X, y = ds.shard(k - 1)
                locals_.append(local_train(
                    theta, X, y, SHAPE, rng_from_key(7, "local_train", k, r),
                    epochs=1, batch_size=16, opt=params.optimizer))
            theta = np.mean(locals_, axis=0)
        assert np.abs(traj[-1].theta - theta).max() <= 1e-8

    def test_rounds_validation(self, rng):
        setup = _setup(rng)
        with pytest.raises(ProtocolAbortError):
            run_protocol(setup, _dataset(), SHAPE, ProtocolParams(),
                         rounds=0, master_seed=0)


class TestRunBaseline:
    def test_per_client_keys_and_length(self):
        ds = _dataset()
        traj, keys = run_baseline(ds, SHAPE, ProtocolParams(batch_size=16),
                                  n_clients=4, rounds=2, master_seed=1)
        assert len(traj) == 3
        assert len(keys) == 4
        assert all(k.shape == (SHAPE.dim,) for k in keys)
        # distinct keys per client
        assert not np.array_equal(keys[0], keys[1])

    def test_deterministic(self):
        ds = _dataset()
        params = ProtocolParams(batch_size=16)
        a, ka = run_baseline(ds, SHAPE, params, 4, 2, master_seed=1)
        b, kb = run_baseline(ds, SHAPE, params, 4, 2, master_seed=1)
        assert np.array_equal(a[-1].theta, b[-1].theta)
        assert all(np.array_equal(x, y) for x, y in zip(ka, kb))

    def test_matches_unmasked_field_reference(self):
        # the plain field sum of enc_model(theta_k) + S_k * enc_share(key_k),
        # with no masks, decoded and divided by K
        from twmark.flsim import local_train

        ds = _dataset()
        params = ProtocolParams(strength_c=5.0, batch_size=16)
        codecs = ProtocolCodecs()
        traj, keys = run_baseline(ds, SHAPE, params, 4, 2, master_seed=1)
        theta = init_model(SHAPE, rng_from_key(1, "init"))
        ema = [0.0] * 4
        for r in (1, 2):
            acc = FieldVector.zeros(SHAPE.dim, codecs.params)
            for k in range(1, 5):
                X, y = ds.shard(k - 1)
                theta_k = local_train(theta, X, y, SHAPE,
                                      rng_from_key(1, "local_train", k, r),
                                      epochs=1, batch_size=16, opt=params.optimizer)
                delta = float(np.linalg.norm(theta_k - theta))
                ema[k - 1] = ema_update(ema[k - 1], delta, params.ema_beta)
                S_k = quantize_scale(client_scale(delta, ema[k - 1], params.strength_c),
                                     codecs, params.scale_max)
                assert S_k > 0
                acc = acc.add(codecs.model.encode(theta_k)).add(
                    codecs.share.encode(keys[k - 1]).scalar_mul(S_k))
            theta = codecs.model.decode_centered(acc) / 4
            assert np.array_equal(traj[r].theta, theta)

    def test_theta_ceiling_aborts(self):
        with pytest.raises(ProtocolAbortError):
            run_baseline(_dataset(), SHAPE, ProtocolParams(batch_size=16, theta_max=1e-3),
                         4, 2, master_seed=1)

    def test_bound_counts_every_clients_scale(self):
        # scale_max passes the one-key bound of a threshold round but not
        # the bound of K=4 clients each adding a key at scale_max
        codecs = ProtocolCodecs()
        limit = codecs.params.modulus / 2.0
        scale_max = 0.5 * limit / (2.0 ** (codecs.g_scale + codecs.f_share) * 8.0)
        check_aggregate_bound(SHAPE.dim, 4, 10.0, scale_max, codecs).raise_if_failed()
        with pytest.raises(ConfigurationError):
            run_baseline(_dataset(), SHAPE, ProtocolParams(scale_max=scale_max),
                         4, 1, master_seed=1)


# -- local training across worker processes --

WORKER_COUNTS = (0, 1, 3)
TOY = dict(n_clients=6, hidden=8, n_samples=480, n_test=80, rounds=3, batch_size=16)


@pytest.fixture
def workers(monkeypatch):
    """Forces the trainers opened after the call to fork ``n`` workers."""
    def force(n):
        monkeypatch.setattr(protocol, "_worker_count", lambda n_clients: n)
    yield force
    assert multiprocessing.active_children() == []


def _vectors(codec):
    """A fixed field vector for each of clients 1-4, as a share or an encoded key is."""
    return {k: codec.encode(rng_from_key(3, "vector", k).standard_normal(SHAPE.dim))
            for k in (1, 2, 3, 4)}


def _session(r, codec):
    return protocol.SecAggSession(round_id=r, participants=(1, 2, 3, 4), d=SHAPE.dim,
                                  params=codec.params, session_seed=11)


def _thetas(trajectory):
    return [gm.theta for gm in trajectory]


def _assert_same(runs):
    first, *rest = runs
    for other in rest:
        assert len(other) == len(first)
        for a, b in zip(first, other):
            assert np.array_equal(a, b)


class TestClientTrainer:
    @pytest.mark.parametrize("cfg", [
        dict(setup_mode="dealer", threshold=3),
        dict(setup_mode="dkg", threshold=3),
        dict(setup_mode="dealer", threshold=2, participation=0.5),  # 3 of 6, embeds
        dict(setup_mode="dealer", threshold=4, participation=0.5),  # 3 of 6, skips
    ], ids=["dealer", "dkg", "partial-embed", "partial-skip"])
    def test_protocol_checkpoints_do_not_depend_on_workers(self, workers, cfg):
        cfg = ExperimentConfig(**TOY, **cfg)
        runs = []
        for n in WORKER_COUNTS:
            workers(n)
            runs.append(_thetas(run_watermarked(cfg, seed=5)[2]))
            assert multiprocessing.active_children() == []
        _assert_same(runs)

    def test_baseline_checkpoints_do_not_depend_on_workers(self, workers):
        ds = _dataset(K=6)
        runs = []
        for n in WORKER_COUNTS:
            workers(n)
            traj, _ = run_baseline(ds, SHAPE, ProtocolParams(batch_size=16), 6, 3,
                                   master_seed=1)
            runs.append(_thetas(traj))
            assert multiprocessing.active_children() == []
        _assert_same(runs)

    def test_plain_fedavg_does_not_depend_on_workers(self, workers):
        cfg = ExperimentConfig(**TOY, threshold=3)
        runs = []
        for n in WORKER_COUNTS:
            workers(n)
            runs.append([run_plain_fedavg(cfg, seed=77, rounds=3)[1]])
            assert multiprocessing.active_children() == []
        _assert_same(runs)

    def test_rows_are_in_participant_order(self, workers):
        workers(3)
        ds = _dataset(K=6)
        params = ProtocolParams(batch_size=16)
        theta = init_model(SHAPE, rng_from_key(0, "init"))
        with ClientTrainer(ds, SHAPE, params, 7, 6) as train:
            got = train(theta, (2, 3, 5, 6), 4).copy()
            assert len(multiprocessing.active_children()) == 3
        from twmark.flsim import local_train
        for k, row in zip((2, 3, 5, 6), got):
            X, y = ds.shard(k - 1)
            want = local_train(theta, X, y, SHAPE, rng_from_key(7, "local_train", k, 4),
                               batch_size=16, opt=params.optimizer)
            assert np.array_equal(row, want)

    def test_worker_error_is_raised_here(self, workers, monkeypatch):
        # client 4 is in a worker's slice for 1 and 3 workers
        ds = _dataset()
        bad_X = ds.shard(3)[0]
        real = protocol.local_train

        def local_train(theta, X, y, *args, **kwargs):
            if np.array_equal(X, bad_X):
                raise NumericalError("divergence: loss=1.23e+04")
            return real(theta, X, y, *args, **kwargs)

        monkeypatch.setattr(protocol, "local_train", local_train)
        errors = []
        for n in WORKER_COUNTS:
            workers(n)
            with pytest.raises(NumericalError) as exc:
                run_protocol(_setup(np.random.default_rng(0)), ds, SHAPE,
                             ProtocolParams(batch_size=16), rounds=2, master_seed=7)
            errors.append((type(exc.value), str(exc.value)))
            assert multiprocessing.active_children() == []
        assert errors == [(NumericalError, "divergence: loss=1.23e+04")] * 3

    def test_theta_ceiling_abort_is_the_same(self, workers):
        errors = []
        for n in WORKER_COUNTS:
            workers(n)
            with pytest.raises(ProtocolAbortError) as exc:
                run_baseline(_dataset(), SHAPE,
                             ProtocolParams(batch_size=16, theta_max=1e-3), 4, 2,
                             master_seed=1)
            errors.append(str(exc.value))
            assert multiprocessing.active_children() == []
        assert len(set(errors)) == 1 and errors[0].startswith("round 1: |theta| reached")

    def test_trainer_can_be_called_after_a_client_raised(self, workers, monkeypatch):
        # every worker's reply is read before the error is raised, so the
        # next round's requests and replies stay in step
        workers(3)
        real = protocol.local_train

        def local_train(theta, *args, **kwargs):
            if theta[0] == 123.0:
                raise NumericalError("divergence")
            return real(theta, *args, **kwargs)

        monkeypatch.setattr(protocol, "local_train", local_train)
        theta = init_model(SHAPE, rng_from_key(0, "init"))
        bad = theta.copy()
        bad[0] = 123.0
        ds, params = _dataset(), ProtocolParams(batch_size=16)
        with ClientTrainer(ds, SHAPE, params, 7, 4) as train:
            with pytest.raises(NumericalError):
                train(bad, (1, 2, 3, 4), 1)
            got = train(theta, (1, 2, 3, 4), 1).copy()
        workers(0)
        with ClientTrainer(ds, SHAPE, params, 7, 4) as train:
            assert np.array_equal(train(theta, (1, 2, 3, 4), 1), got)

    def test_model_sessions_do_not_depend_on_workers(self, workers, monkeypatch):
        # every model session gets its submissions and net masks from the
        # trainer, and the server's view and the sum have the same bits
        real = protocol.secagg_sum

        def secagg_sum(inputs, session):
            formed = session.masks is not None
            out = real(inputs, session)
            seen.append((formed, [(k, m.copy()) for k, m in session.observations], out))
            return out

        monkeypatch.setattr(protocol, "secagg_sum", secagg_sum)
        cfg = ExperimentConfig(**TOY, threshold=2, participation=0.5)
        runs = []
        for n in WORKER_COUNTS:
            workers(n)
            seen = []
            run_watermarked(cfg, seed=5)
            run_baseline(_dataset(K=6), SHAPE, ProtocolParams(batch_size=16), 6, 2,
                         master_seed=1)
            assert len(seen) == 5 and all(formed for formed, _, _ in seen)
            runs.append(seen)
        for other in runs[1:]:
            for (_, obs_a, out_a), (_, obs_b, out_b) in zip(runs[0], other):
                assert out_a == out_b
                assert [k for k, _ in obs_a] == [k for k, _ in obs_b]
                assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(obs_a, obs_b))

    def test_session_rows_are_right_after_a_worker_raised(self, workers, monkeypatch):
        # client 3 fails in the second worker's slice; the other workers'
        # reports are read and each takes its abort, so the next call's
        # submissions and masks are right
        workers(3)
        ds, params, codec = _dataset(), ProtocolParams(batch_size=16), ProtocolCodecs().model
        bad_X = ds.shard(2)[0]
        real = protocol.local_train

        def local_train(theta, X, y, *args, **kwargs):
            if theta[0] == 123.0 and np.array_equal(X, bad_X):
                raise NumericalError("divergence")
            return real(theta, X, y, *args, **kwargs)

        monkeypatch.setattr(protocol, "local_train", local_train)
        theta = init_model(SHAPE, rng_from_key(0, "init"))
        bad = theta.copy()
        bad[0] = 123.0
        vectors, coefficients = _vectors(codec), lambda norms, top: [3, 5, 7, 11]
        with ClientTrainer(ds, SHAPE, params, 7, 4, codec, vectors) as train:
            failed = _session(1, codec)
            with pytest.raises(NumericalError):
                train(bad, (1, 2, 3, 4), 1, failed, coefficients)
            assert failed.masks is None
            got = _session(2, codec)
            submitted = train(theta, (1, 2, 3, 4), 2, got, coefficients).copy()
            masks = got.masks.copy()
            thetas = train(theta, (1, 2, 3, 4), 2).copy()
        workers(0)
        with ClientTrainer(ds, SHAPE, params, 7, 4, codec, vectors) as train:
            want = _session(2, codec)
            assert np.array_equal(train(theta, (1, 2, 3, 4), 2, want, coefficients), submitted)
            assert np.array_equal(want.masks, masks)
            assert np.array_equal(train(theta, (1, 2, 3, 4), 2), thetas)
        assert np.array_equal(masks, _session(2, codec).net_masks())
        assert np.array_equal(submitted, np.stack([
            codec.encode(t).add(vectors[k].scalar_mul(c)).values
            for k, t, c in zip((1, 2, 3, 4), thetas, (3, 5, 7, 11))]))

    def test_worker_exits_when_the_parent_end_closes(self, workers):
        workers(1)
        with ClientTrainer(_dataset(), SHAPE, ProtocolParams(), 7, 4) as train:
            proc, conn = train._workers[0]
            conn.close()            # no stop message
            proc.join(timeout=30)
            assert proc.exitcode == 0

    def test_worker_count_is_one_per_further_cpu(self):
        cpus = len(os.sched_getaffinity(0))
        assert protocol._worker_count(1) == 0
        assert protocol._worker_count(64) == cpus - 1


class TestTwoPhaseExchange:
    """A round with a session: every process reports its norms, takes one
    coefficient message, then returns its submissions and masks."""

    PARTICIPANTS = (1, 2, 3, 4)

    @staticmethod
    def _trainer(setup, params=ProtocolParams(batch_size=16)):
        return ClientTrainer(_dataset(), SHAPE, params, 7, 4, setup.codecs.model,
                             {s.point: s.values for s in setup.shares})

    def _round(self, train, setup, params, threshold=2):
        ema = dict.fromkeys(self.PARTICIPANTS, 0.0)
        plan = RoundPlan(1, self.PARTICIPANTS, threshold)
        gm = GlobalModel(init_model(SHAPE, rng_from_key(0, "init")), 0)
        return embed_round(gm, ema, plan, setup, params, train, session_seed=99).theta

    @pytest.mark.parametrize("n_workers", (1, 3))
    @pytest.mark.parametrize("abort", ["theta-ceiling", "aggregate-bound", "raising-callback"])
    def test_an_abort_leaves_the_trainer_usable(self, workers, rng, n_workers, abort):
        setup, params = _setup(rng), ProtocolParams(batch_size=16)
        workers(0)
        with self._trainer(setup) as train:
            want = self._round(train, setup, params)
        workers(n_workers)
        with self._trainer(setup) as train:
            if abort == "raising-callback":
                def coefficients(norms, theta_abs_max):
                    raise RuntimeError("no scale")

                theta = init_model(SHAPE, rng_from_key(0, "init"))
                with pytest.raises(RuntimeError, match="no scale"):
                    train(theta, self.PARTICIPANTS, 1, _session(1, setup.codecs.model),
                          coefficients)
            elif abort == "theta-ceiling":
                with pytest.raises(ProtocolAbortError, match="above the configured ceiling"):
                    self._round(train, setup, replace(params, theta_max=1e-3))
            else:
                with pytest.raises(ConfigurationError, match="aggregate overflow bound"):
                    self._round(train, setup, replace(params, scale_max=1e9))
            assert np.array_equal(self._round(train, setup, params), want)

    @pytest.mark.parametrize("n_workers", (1, 3))
    def test_below_threshold_adds_no_term_in_any_process(self, workers, rng, monkeypatch,
                                                         n_workers):
        # 1 worker: two clients in each process; 3 workers: one in each
        real, seen = protocol.secagg_sum, []

        def secagg_sum(inputs, session):
            seen.append(np.stack([inputs[k].values for k in session.participants]))
            return real(inputs, session)

        monkeypatch.setattr(protocol, "secagg_sum", secagg_sum)
        workers(n_workers)
        setup = _setup(rng)
        codec = setup.codecs.model
        with self._trainer(setup, ProtocolParams(batch_size=16, strength_c=5.0)) as train:
            self._round(train, setup, ProtocolParams(strength_c=5.0), threshold=5)
            thetas = train(init_model(SHAPE, rng_from_key(0, "init")), self.PARTICIPANTS, 1)
            assert np.array_equal(seen[0], np.stack([codec.encode(t).values for t in thetas]))
            self._round(train, setup, ProtocolParams(strength_c=5.0), threshold=4)
            assert not (seen[1] == seen[0]).all(axis=1).any()    # every client adds a term

    @pytest.mark.parametrize("n_workers", (1, 3))
    def test_an_encoding_error_in_a_worker_is_raised_here(self, workers, monkeypatch,
                                                          n_workers):
        # client 4, in a worker's slice, moves past the encodable range; the
        # error comes in place of that worker's report, the others take an
        # abort, and the next call is right
        ds, codec = _dataset(), ProtocolCodecs().model
        bad_X = ds.shard(3)[0]
        real = protocol.local_train

        def local_train(theta, X, y, *args, **kwargs):
            out = real(theta, X, y, *args, **kwargs)
            return out + 1e9 if theta[0] == 123.0 and np.array_equal(X, bad_X) else out

        monkeypatch.setattr(protocol, "local_train", local_train)
        theta = init_model(SHAPE, rng_from_key(0, "init"))
        bad = theta.copy()
        bad[0] = 123.0
        vectors, coefficients = _vectors(codec), lambda norms, top: [3, 5, 7, 11]
        runs = []
        for n in (0, n_workers):
            workers(n)
            with ClientTrainer(ds, SHAPE, ProtocolParams(batch_size=16), 7, 4, codec,
                               vectors) as train:
                if n:
                    with pytest.raises(EncodingOverflowError):
                        train(bad, self.PARTICIPANTS, 1, _session(1, codec), coefficients)
                session = _session(2, codec)
                runs.append((train(theta, self.PARTICIPANTS, 2, session, coefficients).copy(),
                             session.masks.copy()))
        _assert_same(runs)

    @pytest.mark.parametrize("n_workers", (1, 3))
    def test_close_joins_every_worker_after_an_abort(self, workers, rng, n_workers):
        workers(n_workers)
        setup = _setup(rng)
        with self._trainer(setup) as train:
            procs = [proc for proc, _ in train._workers]
            assert len(procs) == n_workers
            with pytest.raises(ProtocolAbortError):
                self._round(train, setup, ProtocolParams(theta_max=1e-3))
        assert all(not proc.is_alive() and proc.exitcode == 0 for proc in procs)


class TestPinnedDigests:
    """SHA-256 digests of toy runs, computed at commit e5c29c9, before the
    clients formed their own submissions: the theta of every checkpoint,
    and every SecAgg session's observations and output, model and scale
    sessions alike, in the order they are summed. Each client's local
    training is a fixed step drawn from its own training stream, so the
    digests do not depend on how a BLAS build sums; the field arithmetic
    is exact, so no bit may move whatever the worker count."""

    PINNED = {
        "embed": ("a4b41a451b1eaed2681deb88ee7469f34b33dfae56538ef276ec72f36ddc4547",
                  "bc263fe47ccf667b38779f011d9a4e1927783c00101a8340e9ff5dbf34b7ee6d"),
        "skip": ("a02e55df6a7a4a9592c6efca97de8045dc6eeaf3cd48e555ea301f84d442e68e",
                 "2d7e18a147ed8dc50ccb0d4ccde4b34d2adea9f6a64c581e949a0360a8c8ba98"),
        "baseline": ("ba889582392547f1e9d8dda5d74aa4950079fe1437e564b5321540b4272b3b38",
                     "f24dc4f27e8697f46854e0a64636d17c22ed1783cf9fe6bb6a866e2b6aa43d98"),
    }

    @staticmethod
    def _digests(monkeypatch, run):
        theta, sessions = hashlib.sha256(), hashlib.sha256()

        def logged(real):
            def secure_sum(inputs, session):
                out = real(inputs, session)
                sessions.update(f"{session.round_id} {session.d};".encode())
                for k, row in session.observations:
                    sessions.update(f"{k}:".encode() + np.asarray(row, "<u8").tobytes())
                sessions.update(session.output.values.astype("<u8").tobytes())
                return out
            return secure_sum

        def local_train(theta, X, y, shape, rng, **kwargs):
            return theta + 0.1 * rng.standard_normal(theta.size)

        for name in ("secagg_sum", "secagg_scalar"):
            monkeypatch.setattr(protocol, name, logged(getattr(protocol, name)))
        monkeypatch.setattr(protocol, "local_train", local_train)
        for gm in run():
            theta.update(np.asarray(gm.theta, "<f8").tobytes())
        return theta.hexdigest(), sessions.hexdigest()

    @pytest.mark.parametrize("n_workers", WORKER_COUNTS)
    @pytest.mark.parametrize("name", ["embed", "skip", "baseline"])
    def test_runs_keep_their_bits(self, workers, monkeypatch, name, n_workers):
        workers(n_workers)
        if name == "baseline":
            def run():
                return run_baseline(_dataset(K=6), SHAPE, ProtocolParams(strength_c=1.0),
                                    6, 3, master_seed=1)[0]
        else:
            cfg = ExperimentConfig(**TOY, setup_mode="dkg", participation=0.5, strength_c=1.0,
                                   threshold=3 if name == "embed" else 4)

            def run():
                return run_watermarked(cfg, seed=5)[2]
        assert self._digests(monkeypatch, run) == self.PINNED[name]
