import hashlib
import itertools
import multiprocessing
import os
import re
import signal
from dataclasses import replace

import numpy as np
import pytest
from conftest import reference_training
from hypothesis import given, settings, strategies as st
from reference import derive_embedding_share

from twmark import cli, flsim, protocol
from twmark.errors import (ConfigurationError, EncodingOverflowError, NumericalError,
                           ProtocolAbortError, SkipRoundError)
from twmark.experiments import ExperimentConfig, run_plain_fedavg, run_watermarked
from twmark.field import FieldParams, FieldVector, ProtocolCodecs, check_aggregate_bound
from twmark.flsim import AdamWParams, MlpShape, forward_backward, gen_dataset, init_model
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
from twmark.sharing import ShamirConfig

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

    @pytest.mark.parametrize("participation", [0.0, -3.0, 1.5])
    def test_make_plans_refuses_participation_outside_unit_interval(self, participation):
        with pytest.raises(ConfigurationError, match="participation must lie in"):
            make_plans(8, 2, 5, participation, master_seed=3)

    def test_make_plans_partial_is_deterministic(self):
        a = make_plans(8, 2, 5, 0.5, master_seed=3)
        b = make_plans(8, 2, 5, 0.5, master_seed=3)
        assert [p.participants for p in a] == [p.participants for p in b]
        assert all(len(p.participants) == 4 for p in a)


def _clients(ds, shards):
    """The client id of each row of a stack's shard indices."""
    return [next(k for k, idx in enumerate(ds.shards, 1) if np.array_equal(row, idx))
            for row in shards]


def _batches(ds, theta, params, ids, round_index, seed=7):
    """{(client, step): the first sample's bytes of the batch the client
    trains on at that step} in a ClientTrainer call without failures."""
    owner = {row.tobytes(): k for k, idx in enumerate(ds.shards, 1) for row in ds.X_train[idx]}
    keys, steps, real = {}, dict.fromkeys(range(1, len(ds.shards) + 1), 0), flsim.forward

    def forward(theta, X, shape):
        for Xi in X:
            k = owner[Xi[0].tobytes()]
            steps[k] += 1
            keys[k, steps[k]] = Xi[0].tobytes()
        return real(theta, X, shape)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flsim, "forward", forward)
        mp.setattr(protocol, "_worker_count", lambda n_clients: 0)
        with ClientTrainer(ds, SHAPE, params, seed, len(ds.shards)) as train:
            train(theta, ids, round_index)
    return keys


def _diverging(mp, losses):
    """Sets the loss of every batch whose first sample's bytes are a key of
    ``losses`` to its value, in this process and in the workers of trainers
    opened after the call: keyed on the batch, a failure meets a client
    trained again at the same step."""
    real_forward, real_xent = flsim.forward, flsim.cross_entropy
    batch = []

    def forward(theta, X, shape):
        batch[:] = [losses.get(Xi[0].tobytes()) for Xi in X]
        return real_forward(theta, X, shape)

    def cross_entropy(z2, y):
        loss, dz2 = real_xent(z2, y)
        for i, value in enumerate(batch):
            if value is not None:
                loss[i] = value
        return loss, dz2

    mp.setattr(flsim, "forward", forward)
    mp.setattr(flsim, "cross_entropy", cross_entropy)


def _stepping(monkeypatch, ds, step):
    """Makes local_train move client k from theta by ``step(k)``, in this
    process and in the workers of trainers opened after the call."""
    def local_train(theta, X, y, shards, *args, **kwargs):
        return np.array([theta + step(k) for k in _clients(ds, shards)])

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
            total += int(codecs.scale.encode(
                client_scale(norm, ema_update(0.0, norm, beta), c)).values[0])
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
                locals_.append(local_train(
                    theta, ds.X_train, ds.y_train, ds.shards[k - 1][None], SHAPE,
                    [rng_from_key(7, "local_train", k, r)],
                    epochs=1, batch_size=16, opt=params.optimizer)[0])
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
                (theta_k,) = local_train(theta, ds.X_train, ds.y_train, ds.shards[k - 1][None],
                                         SHAPE, [rng_from_key(1, "local_train", k, r)],
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

    def test_opens_no_secagg_session(self, monkeypatch):
        # the masks would cancel, and nothing reads a baseline server's view
        def refuse(*args, **kwargs):
            raise AssertionError("the baseline opened a SecAgg session")

        monkeypatch.setattr(protocol, "SecAggSession", refuse)
        traj, _ = run_baseline(_dataset(), SHAPE, ProtocolParams(batch_size=16), 4, 2,
                               master_seed=1)
        assert len(traj) == 3

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
    """Forces the trainers opened after the call to fork ``n`` workers (the
    autouse fixture of conftest.py checks that none is left alive)."""
    def force(n):
        monkeypatch.setattr(protocol, "_worker_count", lambda n_clients: n)
    return force


def _vectors(codec):
    """A fixed field vector for each of clients 1-4, as a share or an encoded key is."""
    return {k: codec.encode(rng_from_key(3, "vector", k).standard_normal(SHAPE.dim))
            for k in (1, 2, 3, 4)}


def _session(r, codec):
    return protocol.SecAggSession(round_id=r, participants=(1, 2, 3, 4), d=SHAPE.dim,
                                  params=codec.params, session_seed=11)


class _Recorder:
    """The parent's end of a worker's pipe, keeping every reply and row
    set the worker sends it."""

    def __init__(self, conn):
        self.conn, self.replies, self.rows = conn, [], []

    def recv(self):
        reply = self.conn.recv()
        self.replies.append(reply)
        return reply

    def recv_bytes_into(self, buf):
        self.conn.recv_bytes_into(buf)
        self.rows.extend(np.frombuffer(buf, np.uint64).reshape(-1, SHAPE.dim).copy())

    def __getattr__(self, name):
        return getattr(self.conn, name)


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
            (want,) = local_train(theta, ds.X_train, ds.y_train, ds.shards[k - 1][None], SHAPE,
                                  [rng_from_key(7, "local_train", k, 4)],
                                  batch_size=16, opt=params.optimizer)
            assert np.array_equal(row, want)

    def test_worker_error_is_raised_here(self, workers, monkeypatch):
        # client 4 is in a worker's slice for 1 and 3 workers
        ds = _dataset()
        real = protocol.local_train

        def local_train(theta, X, y, shards, *args, **kwargs):
            if 4 in _clients(ds, shards):
                raise NumericalError("divergence: loss=1.23e+04")
            return real(theta, X, y, shards, *args, **kwargs)

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
        # every model session gets its masked rows from the trainer, each
        # process forms the net masks of its own slots only, and the
        # server's view and the sum have the same bits
        real_reveal, real_masks = protocol.reveal, protocol.SecAggSession.net_masks

        def reveal(masked, session):
            out = real_reveal(masked, session)
            seen.append(([(k, m.copy()) for k, m in session.observations], out))
            return out

        def net_masks(session, a0=0, a1=None):
            if session.d > 1:
                ranges.append((len(session.participants), a0, a1))
            return real_masks(session, a0, a1)

        monkeypatch.setattr(protocol, "reveal", reveal)
        monkeypatch.setattr(protocol.SecAggSession, "net_masks", net_masks)
        cfg = ExperimentConfig(**TOY, threshold=2, participation=0.5)
        runs = []
        for n in WORKER_COUNTS:
            workers(n)
            seen, ranges = [], []
            run_watermarked(cfg, seed=5)
            assert len(seen) == 3
            # this process's calls: its own first range of each model session
            assert ranges == [(3, 0, 3 // (n + 1))] * 3
            runs.append(seen)
        for other in runs[1:]:
            for (obs_a, out_a), (obs_b, out_b) in zip(runs[0], other):
                assert out_a == out_b
                assert [k for k, _ in obs_a] == [k for k, _ in obs_b]
                assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(obs_a, obs_b))

    def test_session_rows_are_right_after_a_worker_raised(self, workers, monkeypatch):
        # client 3 fails in the second worker's slice; the other workers'
        # reports are read and each takes its abort, so the next call's
        # masked submissions are right
        workers(3)
        ds, params, codec = _dataset(), ProtocolParams(batch_size=16), ProtocolCodecs().model
        real = protocol.local_train

        def local_train(theta, X, y, shards, *args, **kwargs):
            if theta[0] == 123.0 and 3 in _clients(ds, shards):
                raise NumericalError("divergence")
            return real(theta, X, y, shards, *args, **kwargs)

        monkeypatch.setattr(protocol, "local_train", local_train)
        theta = init_model(SHAPE, rng_from_key(0, "init"))
        bad = theta.copy()
        bad[0] = 123.0
        vectors, coefficients = _vectors(codec), lambda norms, top: [3, 5, 7, 11]
        with ClientTrainer(ds, SHAPE, params, 7, 4, codec, vectors) as train:
            failed = _session(1, codec)
            with pytest.raises(NumericalError):
                train(bad, (1, 2, 3, 4), 1, failed, coefficients)
            assert failed == _session(1, codec)     # left as it was
            masked = train(theta, (1, 2, 3, 4), 2, _session(2, codec), coefficients).copy()
            thetas = train(theta, (1, 2, 3, 4), 2).copy()
        workers(0)
        with ClientTrainer(ds, SHAPE, params, 7, 4, codec, vectors) as train:
            assert np.array_equal(train(theta, (1, 2, 3, 4), 2, _session(2, codec),
                                        coefficients), masked)
            assert np.array_equal(train(theta, (1, 2, 3, 4), 2), thetas)
        session = _session(2, codec)
        masks = session.net_masks()
        assert np.array_equal(masked[session._slot], np.stack([
            codec.encode(t).add(vectors[k].scalar_mul(c)).add(
                FieldVector(masks[a], codec.params)).values
            for k, t, c, a in zip((1, 2, 3, 4), thetas, (3, 5, 7, 11), session._slot)]))

    @pytest.mark.parametrize("block", [None, 1, 2 * 146], ids=["whole-runs", "one", "two"])
    @pytest.mark.parametrize("n_workers", WORKER_COUNTS)
    def test_lockstep_groups_equal_clients_trained_alone(self, workers, monkeypatch,
                                                         n_workers, block):
        # K = 6 and n = 390 deal shards of 70 (clients 1-3) and 60 (4-6), so
        # a range holds runs of two lengths; a lockstep group is at most
        # _BLOCK_WORDS // d clients (d = 146), here all of a run, one or two
        workers(n_workers)
        if block is not None:
            monkeypatch.setattr(protocol, "_BLOCK_WORDS", block)
        shape = MlpShape(input_dim=6, hidden=8, n_classes=10)
        ds = gen_dataset(2, n=390, input_dim=6, n_classes=10, n_clients=6, n_test=40)
        assert [len(s) for s in ds.shards] == [70] * 3 + [60] * 3
        params = ProtocolParams(batch_size=16, local_epochs=2,
                                optimizer=AdamWParams(lr=0.01, weight_decay=0.1))
        theta = init_model(shape, rng_from_key(0, "init"))
        plans = make_plans(6, 2, 3, 0.7, master_seed=7)
        with ClientTrainer(ds, shape, params, 7, 6) as train:
            for plan in plans:
                got = train(theta, plan.participants, plan.round_index).copy()
                for k, row in zip(plan.participants, got):
                    X, y = ds.X_train[ds.shards[k - 1]], ds.y_train[ds.shards[k - 1]]
                    want = reference_training(
                        theta, len(y), rng_from_key(7, "local_train", k, plan.round_index),
                        2, 16, params.optimizer,
                        lambda th, b: forward_backward(th, X[b], y[b], shape)[1])
                    assert np.array_equal(row, want[-1])
        # participation 0.7 draws 4 of the 6 clients, of both lengths
        assert {len({len(ds.shards[k - 1]) for k in p.participants}) for p in plans} == {2}

    @pytest.mark.parametrize("n_workers", WORKER_COUNTS)
    def test_the_first_failing_client_in_range_order_is_raised(self, workers, monkeypatch,
                                                               n_workers):
        # clients 7 and 8 train in one lockstep group for every worker count.
        # Client 7 diverges at its third step and client 8 at its first, so
        # client 7's error is raised, as training one by one raises it
        ds, params = _dataset(K=8), ProtocolParams(batch_size=16)
        theta = init_model(SHAPE, rng_from_key(0, "init"))
        ids = tuple(range(1, 9))
        keys = _batches(ds, theta, params, ids, 1)
        _diverging(monkeypatch, {keys[7, 3]: 7e3, keys[8, 1]: 8e3})
        owner = {key: k for (k, _), key in keys.items()}
        groups, real = [], flsim.forward

        def forward(theta, X, shape):
            groups.append(tuple(owner[Xi[0].tobytes()] for Xi in X))
            return real(theta, X, shape)

        monkeypatch.setattr(flsim, "forward", forward)
        workers(n_workers)
        with ClientTrainer(ds, SHAPE, params, 7, 8) as train:
            with pytest.raises(NumericalError, match=r"^divergence: loss=7e\+03$"):
                train(theta, ids, 1)
        if n_workers == 0:
            # the group fails at its first step, then trains again client by
            # client (5 steps each) until client 7 fails alone at its third
            assert groups == [ids] + [(k,) for k in range(1, 7) for _ in range(5)] + [(7,)] * 3

    @pytest.mark.parametrize("fail, loss", [
        ({1: 3, 3: 1}, "1e+04"),
        ({3: 1}, "3e+04"),
        ({1: 1, 2: 1}, "1e+04"),
    ], ids=["earlier-later", "last-only", "same-step"])
    def test_the_first_client_that_fails_alone_is_raised(self, monkeypatch, fail, loss):
        # ``fail`` maps a client of one lockstep group of three to the step
        # at which its loss diverges, to 1e4 * k; an earlier client's later
        # failure is the one raised
        ds, params = _dataset(K=3), ProtocolParams(batch_size=16, local_epochs=2)
        theta = init_model(SHAPE, rng_from_key(0, "init"))
        keys = _batches(ds, theta, params, (1, 2, 3), 1)
        _diverging(monkeypatch, {keys[k, step]: 1e4 * k for k, step in fail.items()})
        monkeypatch.setattr(protocol, "_worker_count", lambda n_clients: 0)
        with ClientTrainer(ds, SHAPE, params, 7, 3) as train:
            with pytest.raises(NumericalError, match=f"^divergence: loss={re.escape(loss)}$"):
                train(theta, (1, 2, 3), 1)

    @settings(max_examples=25, deadline=None)
    @given(fail=st.dictionaries(st.integers(1, 6), st.integers(1, 5), min_size=1),
           width=st.integers(1, 6), n_workers=st.sampled_from(WORKER_COUNTS))
    def test_a_round_raises_the_lowest_failing_clients_error(self, fail, width, n_workers):
        # ``fail`` maps a client to the step (of 5) at which its loss
        # diverges, to 1e3 * (k + 1); lockstep groups hold ``width`` clients
        ds, params = _dataset(K=6), ProtocolParams(batch_size=16)
        theta = init_model(SHAPE, rng_from_key(0, "init"))
        ids = tuple(range(1, 7))
        keys = _batches(ds, theta, params, ids, 1)
        with pytest.MonkeyPatch.context() as mp:
            _diverging(mp, {keys[k, step]: 1e3 * (k + 1) for k, step in fail.items()})
            mp.setattr(protocol, "_BLOCK_WORDS", width * SHAPE.dim)
            mp.setattr(protocol, "_worker_count", lambda n_clients: n_workers)
            with ClientTrainer(ds, SHAPE, params, 7, 6) as train:
                with pytest.raises(NumericalError) as exc:
                    train(theta, ids, 1)
        assert str(exc.value) == f"divergence: loss={1e3 * (min(fail) + 1):.3g}"

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
    """A round with a session takes two steps: every process reports its
    norms, then returns its masked submissions."""

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
        # 1 worker: two clients in each process; 3 workers: one in each. The
        # server's rows less the net masks are the submissions
        real, seen = protocol.reveal, []

        def reveal(masked, session):
            q = np.uint64(session.params.modulus)
            seen.append(((masked + q - session.net_masks()) % q)[session._slot])
            return real(masked, session)

        monkeypatch.setattr(protocol, "reveal", reveal)
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
        real = protocol.local_train

        def local_train(theta, X, y, shards, *args, **kwargs):
            out = real(theta, X, y, shards, *args, **kwargs)
            if theta[0] == 123.0:
                out[np.equal(_clients(ds, shards), 4)] += 1e9
            return out

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
                runs.append([train(theta, self.PARTICIPANTS, 2, _session(2, codec),
                                   coefficients).copy()])
        _assert_same(runs)

    @pytest.mark.parametrize("n_workers", (0, 1, 3))
    def test_workers_send_only_masked_rows(self, workers, n_workers):
        # a sparse graph (K = 10), so that slots are not in participant
        # order: every row a worker sends is its client's observation, and
        # none is the client's encoding or its encoding plus its term
        K, d = 10, SHAPE.dim
        workers(n_workers)
        ds, codec = _dataset(K=K), ProtocolCodecs().model
        vectors = {k: codec.encode(rng_from_key(3, "vector", k).standard_normal(d))
                   for k in range(1, K + 1)}
        terms = [3 + 2 * k for k in range(1, K + 1)]
        theta = init_model(SHAPE, rng_from_key(0, "init"))
        session = protocol.SecAggSession(round_id=2, participants=tuple(range(1, K + 1)),
                                         d=d, params=codec.params, session_seed=11)
        assert not np.array_equal(session._slot, np.arange(K))
        reports = []
        with ClientTrainer(ds, SHAPE, ProtocolParams(batch_size=16), 7, K, codec,
                           vectors) as train:
            train._workers = [(proc, _Recorder(conn)) for proc, conn in train._workers]
            masked = train(theta, session.participants, 2, session,
                           lambda norms, top: reports.append(norms) or terms).copy()
            sent = [(conn.replies[:], conn.rows[:]) for _, conn in train._workers]
            thetas = train(theta, session.participants, 2).copy()
        # the norms reach the callback, and the terms the clients, in
        # participant order
        assert reports == [[float(np.linalg.norm(t - theta)) for t in thetas]]
        want = FieldVector.zeros(d, codec.params)
        for k, t, c in zip(session.participants, thetas, terms):
            want = want.add(codec.encode(t).add(vectors[k].scalar_mul(c)))
        assert protocol.reveal(masked, session) == want
        observed = dict(session.observations)
        at = np.argsort(session._slot)      # the position at each slot
        m = K // (n_workers + 1)
        assert sum(len(rows) for _, rows in sent) == K - m
        for (replies, rows), a0 in zip(sent, itertools.accumulate(
                [m] + [len(rows) for _, rows in sent])):
            # one reply a step: the first step's report holds only update
            # norms and the largest |theta_k|; the second's is None, then rows
            report, second = replies
            assert second is None
            assert [type(x) for x in (*report[0], report[1])] == [float] * (len(rows) + 1)
            for a, row in enumerate(rows, a0):
                p = at[a]
                k = session.participants[p]
                assert np.array_equal(row, observed[k])
                enc = codec.encode(thetas[p])
                assert not np.array_equal(row, enc.values)
                assert not np.array_equal(row, enc.add(vectors[k].scalar_mul(terms[p])).values)

    @pytest.mark.parametrize("n_workers", (1, 3))
    @pytest.mark.parametrize("failure", ["client-here", "client-in-a-worker",
                                         "encoding-in-a-worker", "raising-callback",
                                         "theta-ceiling"])
    def test_a_failed_step_leaves_no_reply_unread(self, workers, rng, monkeypatch,
                                                   n_workers, failure):
        # client 1 trains in this process and client 4 in a worker, for 1
        # and 3 workers; a marked theta makes one of them fail in the first
        # step, or the callback or the theta ceiling ends the round between
        # the steps. Either way no worker has a reply left to read, and the
        # next round is a fresh trainer's
        ds, real = _dataset(), protocol.local_train

        def local_train(theta, X, y, shards, *args, **kwargs):
            out = real(theta, X, y, shards, *args, **kwargs)
            clients = _clients(ds, shards)
            if theta[0] == 123.0 and failure == "client-here" and 1 in clients:
                raise NumericalError("divergence: client 1")
            if theta[0] == 123.0 and failure == "client-in-a-worker" and 4 in clients:
                raise NumericalError("divergence: client 4")
            if theta[0] == 123.0 and failure == "encoding-in-a-worker":
                out[np.equal(clients, 4)] += 1e9
            return out

        monkeypatch.setattr(protocol, "local_train", local_train)
        setup, params = _setup(rng), ProtocolParams(batch_size=16)
        workers(0)
        with self._trainer(setup) as train:
            want = self._round(train, setup, params)
        workers(n_workers)
        with self._trainer(setup) as train:
            if failure == "theta-ceiling":
                with pytest.raises(ProtocolAbortError, match="above the configured ceiling"):
                    self._round(train, setup, replace(params, theta_max=1e-3))
            else:
                def coefficients(norms, theta_abs_max):
                    if failure == "raising-callback":
                        raise RuntimeError("no scale")
                    return [3, 5, 7, 11]

                error, message = {
                    "client-here": (NumericalError, "client 1"),
                    "client-in-a-worker": (NumericalError, "client 4"),
                    "encoding-in-a-worker": (EncodingOverflowError, "exceeds encodable range"),
                    "raising-callback": (RuntimeError, "no scale")}[failure]
                bad = init_model(SHAPE, rng_from_key(0, "init"))
                bad[0] = 123.0
                with pytest.raises(error, match=message):
                    train(bad, self.PARTICIPANTS, 1, _session(1, setup.codecs.model),
                          coefficients)
            assert len(train._workers) == n_workers
            assert not any(conn.poll() for _, conn in train._workers)
            assert np.array_equal(self._round(train, setup, params), want)

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


class TestDeadWorker:
    """A worker that dies is named: a call raises ProtocolAbortError with its
    pid and exit code, and closing still joins every worker."""

    @staticmethod
    def _killing(monkeypatch, ds, parent=os.getpid()):
        """Makes a worker that trains client 4 kill itself there."""
        real = protocol.local_train

        def local_train(theta, X, y, shards, *args, **kwargs):
            if os.getpid() != parent and 4 in _clients(ds, shards):
                os.kill(os.getpid(), signal.SIGKILL)
            return real(theta, X, y, shards, *args, **kwargs)

        monkeypatch.setattr(protocol, "local_train", local_train)

    @pytest.mark.parametrize("n_workers", (1, 3))
    def test_a_worker_killed_before_a_call(self, workers, rng, n_workers):
        workers(n_workers)
        setup = _setup(rng)
        theta = init_model(SHAPE, rng_from_key(0, "init"))
        with TestTwoPhaseExchange._trainer(setup) as train:
            procs = [proc for proc, _ in train._workers]
            os.kill(procs[-1].pid, signal.SIGKILL)
            procs[-1].join()
            for session in (None, _session(1, setup.codecs.model)):
                with pytest.raises(ProtocolAbortError, match=(
                        f"^worker process {procs[-1].pid} ended with exit code -9$")):
                    train(theta, (1, 2, 3, 4), 1, session, lambda norms, top: None)
        assert all(not proc.is_alive() for proc in procs)
        assert [proc.exitcode for proc in procs] == [0] * (n_workers - 1) + [-9]

    @pytest.mark.parametrize("n_workers", (1, 3))
    @pytest.mark.parametrize("with_session", [False, True], ids=["plain", "session"])
    def test_a_worker_that_dies_during_a_call(self, workers, rng, monkeypatch, n_workers,
                                              with_session):
        # client 4 trains in the last worker, for 1 and 3 workers
        workers(n_workers)
        setup = _setup(rng)
        self._killing(monkeypatch, _dataset())
        session = _session(1, setup.codecs.model) if with_session else None
        with TestTwoPhaseExchange._trainer(setup) as train:
            procs = [proc for proc, _ in train._workers]
            with pytest.raises(ProtocolAbortError, match=(
                    f"^worker process {procs[-1].pid} ended with exit code -9$")):
                train(init_model(SHAPE, rng_from_key(0, "init")), (1, 2, 3, 4), 1, session,
                      lambda norms, top: None)
            # the others replied: none has a message left to read
            assert not any(conn.poll() for _, conn in train._workers[:-1])
        assert all(not proc.is_alive() for proc in procs)
        assert [proc.exitcode for proc in procs] == [0] * (n_workers - 1) + [-9]

    def test_the_cli_names_the_dead_worker(self, workers, monkeypatch, tmp_path, capsys):
        # once `twmark train` printed "error: " with nothing after it
        items = ["n_clients=4", "threshold=2", "n_samples=400", "rounds=1", "seeds=(0,)"]
        workers(1)
        self._killing(monkeypatch, ExperimentConfig.with_overrides({}, items).dataset(0))
        code = cli.main(["train", *(a for item in items for a in ("--set", item)),
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert re.fullmatch(r"error: worker process \d+ ended with exit code -9\n",
                            capsys.readouterr().err)


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
        # the baseline sums its submissions unmasked: theta as pinned at
        # e5c29c9, and no session, the digest of an empty log
        "baseline": ("ba889582392547f1e9d8dda5d74aa4950079fe1437e564b5321540b4272b3b38",
                     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        # K = 10: a sparse mask graph, whose slots are not in participant
        # order; computed at commit fdfb00f, before the processes took
        # ranges of slots
        "sparse": ("9c3a87fa9748ed8ce5258a3e820df06a01a98cb8ce2f206255122c403b4c04b9",
                   "14d01ba45ea9fe5e6c2a0450e9b3daa107c0b66523683917a2e6d2b4831a00e2"),
    }

    @staticmethod
    def _digests(monkeypatch, run):
        theta, sessions = hashlib.sha256(), hashlib.sha256()

        def logged(real):
            def secure_sum(values, session):
                out = real(values, session)
                sessions.update(f"{session.round_id} {session.d};".encode())
                for k, row in session.observations:
                    sessions.update(f"{k}:".encode() + np.asarray(row, "<u8").tobytes())
                sessions.update(session.output.values.astype("<u8").tobytes())
                return out
            return secure_sum

        def local_train(theta, X, y, shards, shape, rngs, **kwargs):
            return np.array([theta + 0.1 * rng.standard_normal(theta.size) for rng in rngs])

        for name in ("reveal", "secagg_scalar"):
            monkeypatch.setattr(protocol, name, logged(getattr(protocol, name)))
        monkeypatch.setattr(protocol, "local_train", local_train)
        for gm in run():
            theta.update(np.asarray(gm.theta, "<f8").tobytes())
        return theta.hexdigest(), sessions.hexdigest()

    @pytest.mark.parametrize("n_workers", WORKER_COUNTS)
    @pytest.mark.parametrize("name", ["embed", "skip", "baseline", "sparse"])
    def test_runs_keep_their_bits(self, workers, monkeypatch, name, n_workers):
        workers(n_workers)
        if name == "baseline":
            def run():
                return run_baseline(_dataset(K=6), SHAPE, ProtocolParams(strength_c=1.0),
                                    6, 3, master_seed=1)[0]
        elif name == "sparse":
            cfg = ExperimentConfig(n_clients=10, threshold=5, hidden=8, n_samples=800,
                                   n_test=80, rounds=3, batch_size=16, strength_c=1.0)

            def run():
                return run_watermarked(cfg, seed=5)[2]
        else:
            cfg = ExperimentConfig(**TOY, setup_mode="dkg", participation=0.5, strength_c=1.0,
                                   threshold=3 if name == "embed" else 4)

            def run():
                return run_watermarked(cfg, seed=5)[2]
        assert self._digests(monkeypatch, run) == self.PINNED[name]
