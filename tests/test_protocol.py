import multiprocessing
import os

import numpy as np
import pytest

from twmark import protocol
from twmark.errors import ConfigurationError, NumericalError, ProtocolAbortError, SkipRoundError
from twmark.experiments import ExperimentConfig, run_plain_fedavg, run_watermarked
from twmark.field import FieldParams, FieldVector, ProtocolCodecs, check_aggregate_bound
from twmark.flsim import MlpShape, gen_dataset, init_model
from twmark.keysetup import setup_trusted_dealer
from twmark.protocol import (
    ClientState,
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


class TestEmbedRound:
    def _run(self, rng, train_fn, participants=(1, 2, 3, 4), c=0.05):
        setup = _setup(rng)
        clients = {s.point: ClientState(client_id=s.point, share=s)
                   for s in setup.shares}
        params = ProtocolParams(strength_c=c)
        plan = RoundPlan(round_index=1, participants=tuple(participants),
                         threshold=setup.cfg.threshold)
        gm = GlobalModel(theta=np.zeros(SHAPE.dim), round_index=0)
        nxt = embed_round(gm, clients, plan, setup, params, train_fn,
                          session_seed=99)
        return setup, clients, nxt

    def test_zero_update_round_is_identity(self, rng):
        # no local movement -> scales are 0 -> pure average of theta_k
        train_fn = lambda theta, ps, r: [theta for _ in ps]
        _, _, nxt = self._run(rng, train_fn)
        assert np.abs(nxt.theta).max() <= 2.0 ** -37

    def test_watermark_drift_oracle(self, rng):
        # frozen local update v: every client moves by v, so the aggregate
        # should be v + (scale_total / K) * tau up to fixed-point rounding
        v = 0.01 * rng.standard_normal(SHAPE.dim)
        train_fn = lambda theta, ps, r: [theta + v for _ in ps]
        c = 0.05
        setup, clients, nxt = self._run(rng, train_fn, c=c)
        vn = float(np.linalg.norm(v))
        scale_k = c * vn * (0.1 * vn)      # ema after one round from zero init
        scale_total = 4 * scale_k
        predicted = v + (scale_total / 4) * setup.debug_key
        assert np.abs(nxt.theta - predicted).max() <= 1e-4

    @pytest.mark.parametrize("participants", [(1, 2, 3, 4), (1, 3, 4), (2,)])
    def test_equals_the_field_reference(self, rng, participants):
        # bit for bit decode_model(sum_k enc_model(theta_k) + S * w_k) / n,
        # with w_k = derive_embedding_share(s_k), and no term below t
        steps = {k: 0.01 * rng.standard_normal(SHAPE.dim) for k in (1, 2, 3, 4)}
        c = 0.05
        setup, _, nxt = self._run(rng, lambda theta, ps, r: [theta + steps[k] for k in ps],
                                  participants=participants, c=c)
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

    def test_below_threshold_embeds_nothing(self, rng):
        v = 0.01 * rng.standard_normal(SHAPE.dim)
        train_fn = lambda theta, ps, r: [theta + v for _ in ps]
        setup, clients, nxt = self._run(rng, train_fn, participants=(1,))
        assert np.abs(nxt.theta - v).max() <= 2.0 ** -37

    def test_empty_round_skips(self, rng):
        setup = _setup(rng)
        clients = {s.point: ClientState(client_id=s.point, share=s)
                   for s in setup.shares}
        plan = RoundPlan(round_index=1, participants=(), threshold=2)
        with pytest.raises(SkipRoundError):
            embed_round(GlobalModel(np.zeros(SHAPE.dim), 0), clients, plan,
                        setup, ProtocolParams(), lambda *a: None, 1)

    def test_theta_ceiling_aborts(self, rng):
        train_fn = lambda theta, ps, r: [theta + 50.0 for _ in ps]
        with pytest.raises(ProtocolAbortError):
            self._run(rng, train_fn)


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
