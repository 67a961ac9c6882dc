"""Per-round watermark embedding and the full training loop.

Round structure: broadcast the global model; participating clients train
locally, update their EMA of update norms and compute an adaptive scale;
a scalar secure aggregation publishes scale_total; every party quantizes
it to the same public integer S; each client submits
enc_model(theta_k) + S * w_k under secure aggregation and the server
averages the decoded sum. The field sum therefore carries
enc_model(sum theta_k) + S * enc_share(tau), so the realized per-round
watermark drift is (scale_total / |S_r|) * tau up to fixed-point rounding.
Rounds with participation below t skip the watermark term entirely.

Clients run on every CPU the process may use: a run's ClientTrainer forks
one worker per further CPU and cuts each round's participants into
contiguous slices, one per process, which forms its clients' whole
submissions, as in SecAgg. It trains and encodes them and sends only their
update norms and largest |theta_k|. From these this process forms the
EMAs, scales, theta ceiling, scalar SecAgg and each c_k = S * lambda_k
while every process forms its slots' net masks; each then adds c_k * w_k
(w_k: the client's share) and returns submissions and masks. Training
reads only theta, the client's shard and its stream keyed by (master_seed,
client id, round), the masks cancel and the field arithmetic is exact, so
no bit depends on the CPU count.

The per-client baseline (run_baseline) shares this round pipeline, with
c_k = S_k and w_k = enc_share(tau_k), each client's own key.
"""

import multiprocessing
import os
import signal
import warnings
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import ProtocolAbortError, SkipRoundError
from .field import (FieldVector, FixedPointCodec, ProtocolCodecs, check_aggregate_bound,
                    reduce_once)
from .flsim import AdamWParams, MlpShape, init_model, local_train
from .keysetup import SetupResult
from .rngutil import rng_from_key
from .secagg import SecAggSession, secagg_scalar, secagg_sum
from .sharing import lagrange_at_zero


@dataclass(frozen=True)
class ProtocolParams:
    """Knobs of the embedding protocol (training knobs live in flsim)."""

    strength_c: float = 0.025
    ema_beta: float = 0.9
    scale_max: float = 100.0      # per-round ceiling before quantization
    theta_max: float = 10.0       # bound-check ceiling on |theta| coordinates
    local_epochs: int = 1
    batch_size: int = 64
    optimizer: AdamWParams = dc_field(default_factory=AdamWParams)
    participation: float = 1.0    # fraction of clients drawn per round


@dataclass(frozen=True)
class RoundPlan:
    round_index: int
    participants: tuple           # client ids, sorted
    threshold: int

    @property
    def embed(self) -> bool:
        return len(self.participants) >= self.threshold


@dataclass
class GlobalModel:
    theta: np.ndarray
    round_index: int


def ema_update(ema: float, delta_norm: float, beta: float) -> float:
    """beta * ema + (1 - beta) * |delta|."""
    if not 0.0 <= beta < 1.0:
        raise ProtocolAbortError(f"beta must be in [0, 1), got {beta}")
    return beta * ema + (1.0 - beta) * delta_norm


def client_scale(delta_norm: float, ema: float, c: float) -> float:
    """Adaptive watermark strength c * |delta| * ema."""
    return c * delta_norm * ema


def quantize_scale(scale_total: float, codecs: ProtocolCodecs,
                   scale_max: float) -> int:
    """Clamp and re-quantize the broadcast scale to the public integer S.

    Every party computes S identically; multiplying field shares by the
    public integer preserves the additive-share congruence exactly.
    """
    clamped = min(max(scale_total, 0.0), scale_max)
    return int(np.floor(clamped * 2.0 ** codecs.g_scale + 0.5))


def _client_scales(ema: dict, participants: tuple, norms: list,
                   theta_abs_max: float, params: ProtocolParams, round_index: int) -> list:
    """Steps (1)-(2) past training: each participant's EMA of update norms
    (``ema``, by id) and adaptive scale, under the theta_max ceiling."""
    scales = []
    for k, delta_norm in zip(participants, norms):
        ema[k] = ema_update(ema[k], delta_norm, params.ema_beta)
        scales.append(client_scale(delta_norm, ema[k], params.strength_c))
    if theta_abs_max > params.theta_max:
        raise ProtocolAbortError(
            f"round {round_index}: |theta| reached {theta_abs_max:.3g}, "
            f"above the configured ceiling {params.theta_max:.3g}"
        )
    return scales


def _secure_average(submitted: np.ndarray, codecs: ProtocolCodecs,
                    session: SecAggSession) -> GlobalModel:
    """Steps (4)-(5): the rows of ``submitted``, enc_model(theta_k) plus the
    term of each participant in order, are summed under the SecAgg
    ``session``; the decoded field sum is divided by the participant count."""
    agg = secagg_sum({k: FieldVector(u, codecs.params)
                      for k, u in zip(session.participants, submitted)}, session)
    theta_next = codecs.model.decode_centered(agg) / len(session.participants)
    return GlobalModel(theta=theta_next, round_index=session.round_id)


def embed_round(global_model: GlobalModel, ema: dict, plan: RoundPlan,
                setup: SetupResult, params: ProtocolParams,
                train, session_seed: int) -> GlobalModel:
    """One protocol round. ``ema`` maps client ids to EMAs of update norms (0.0
    at first), updated here; ``train``, the run's ClientTrainer holding the
    shares, forms the submissions given the S * lambda_k formed here."""
    if not plan.participants:
        raise SkipRoundError(f"round {plan.round_index}: empty participant set")
    codecs = setup.codecs
    r, d = plan.round_index, len(global_model.theta)
    session = SecAggSession(round_id=r, participants=plan.participants, d=d,
                            params=codecs.params, session_seed=session_seed * 2)

    def coefficients(norms, theta_abs_max):
        scales = _client_scales(ema, plan.participants, norms, theta_abs_max, params, r)
        check_aggregate_bound(d, len(plan.participants), params.theta_max,
                              params.scale_max, codecs).raise_if_failed()
        if not plan.embed:
            return None
        # (3) scalar SecAgg over the encoded scales, then public re-quantization
        scale_session = SecAggSession(round_id=r, participants=plan.participants, d=1,
                                      params=codecs.params, session_seed=session_seed * 2 + 1)
        total_enc = secagg_scalar({k: codecs.scale.encode_scalar(s)
                                   for k, s in zip(plan.participants, scales)}, scale_session)
        S = quantize_scale(codecs.scale.decode_scalar(total_enc), codecs, params.scale_max)
        # share-embedded terms (Lagrange map cached per participant set)
        lam = lagrange_at_zero(plan.participants, codecs.params)
        return [S * lam[k] for k in plan.participants]

    submitted = train(global_model.theta, plan.participants, r, session, coefficients)
    return _secure_average(submitted, codecs, session)


def make_plans(n_clients: int, threshold: int, rounds: int,
               participation: float, master_seed: int) -> list:
    """Participant schedule; full participation unless participation < 1."""
    plans = []
    all_clients = tuple(range(1, n_clients + 1))
    for r in range(1, rounds + 1):
        if participation >= 1.0:
            chosen = all_clients
        else:
            n_pick = max(1, int(round(participation * n_clients)))
            rng = rng_from_key(master_seed, "participation", r)
            picked = rng.choice(n_clients, n_pick, replace=False) + 1
            chosen = tuple(sorted(map(int, picked)))
        plans.append(RoundPlan(round_index=r, participants=chosen,
                               threshold=threshold))
    return plans


def _worker_count(n_clients: int) -> int:
    """Workers a ClientTrainer forks beside this process: one for each
    further CPU it may run on, at most one per further client; none where
    fork or CPU affinity is unavailable."""
    if (not hasattr(os, "sched_getaffinity")
            or "fork" not in multiprocessing.get_all_start_methods()):
        return 0
    return max(min(len(os.sched_getaffinity(0)), n_clients) - 1, 0)


_ABORT = "abort"    # the coefficient message of a round that ends before any term


def _serve(conn, work, d: int, rows: int, inherited: list):
    """A training worker's loop over requests (client ids, round, model
    session or None, first slot), then theta as raw bytes. It replies None
    and the thetas, or for a session its report and, after a coefficient
    message other than _ABORT, the submissions and masks (rows: raw bytes);
    a client's exception replaces the reply. None or EOF ends it (code 0)."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)   # the parent stops it
    for c in inherited:
        c.close()   # the parent's ends: EOF must come when the parent is gone
    train, add_terms = work
    theta, out, enc = np.empty(d), np.empty((rows, d)), np.empty((rows, d), np.uint64)
    try:
        while (request := conn.recv()) is not None:
            ids, round_index, session, a0 = request
            conn.recv_bytes_into(theta)
            n = len(ids)
            try:
                conn.send(train(theta, ids, round_index, session, out[:n], enc[:n]))
            except Exception as exc:
                conn.send(exc)
                continue
            if session is None:
                conn.send_bytes(out[:n])
                continue
            masks = session.net_masks(a0, a0 + n)
            if (coefficients := conn.recv()) != _ABORT:
                add_terms(ids, coefficients, enc[:n])
                conn.send_bytes(enc[:n])
                conn.send_bytes(masks)
    except (EOFError, OSError):
        pass


class ClientTrainer:
    """The client trainer of every run: local_train on the client's shard
    with the stream keyed by (master_seed, client id, round), on every CPU.

    A call's participants are cut into contiguous slices: this process
    trains the first, and each of the ``_worker_count`` workers, forked when
    the trainer opens, one of the others. ``trainer(theta, participants,
    round_index)`` returns their thetas. With the model SecAgg ``session``,
    each process also encodes its thetas with ``codec`` and reports their
    update norms and largest |theta_k|; ``coefficients(norms, theta_abs_max)``
    maps the reports to each c_k (None: no term) while the processes form
    their slots' net masks, then each adds c_k * w_k, w_k the client's entry
    of ``vectors``. The call sets ``session.masks`` and returns the
    submissions: rows, in participant order, that the next call overwrites.
    Every process that reported takes one coefficient message, even if
    ``coefficients`` raises, so the trainer stays in step after any error;
    a client's exception is raised here, the first in participant order.
    Use it as a context manager: closing joins every worker.
    """

    def __init__(self, dataset, shape: MlpShape, params: ProtocolParams,
                 master_seed: int, n_clients: int, codec: FixedPointCodec = None,
                 vectors: dict = None):
        def train(theta, ids, round_index, session, out, enc):
            for i, k in enumerate(ids):
                X, y = dataset.shard(k - 1)
                rng = rng_from_key(master_seed, "local_train", k, round_index)
                out[i] = local_train(theta, X, y, shape, rng, epochs=params.local_epochs,
                                     batch_size=params.batch_size, opt=params.optimizer)
            if session is not None:     # the encodings, and the report
                for i, row in enumerate(out):
                    enc[i] = codec.encode(row).values
                return ([float(np.linalg.norm(row - theta)) for row in out],
                        float(np.abs(out).max(initial=0.0)))

        def add_terms(ids, coefficients, enc):
            for u, k, c in zip(enc, ids, coefficients or ()):
                u += vectors[k].scalar_mul(c).values   # both < q < 2^63
                reduce_once(u, codec.params.modulus)

        self._work = (train, add_terms)
        self._out = np.empty((n_clients, shape.dim))
        self._enc = np.empty((n_clients, shape.dim), np.uint64)
        self._masks = np.empty((n_clients, shape.dim), np.uint64)
        self._workers = []      # (process, this end of its pipe)
        n_workers = _worker_count(n_clients)
        rows = -(-n_clients // (n_workers + 1))
        ctx = multiprocessing.get_context("fork") if n_workers else None
        try:
            for _ in range(n_workers):
                mine, theirs = ctx.Pipe()
                inherited = [c for _, c in self._workers] + [mine]
                proc = ctx.Process(target=_serve, daemon=True,
                                   args=(theirs, self._work, shape.dim, rows, inherited))
                with warnings.catch_warnings():
                    # Python >= 3.12 warns on fork while BLAS threads exist.
                    # No lock the worker needs is held across the fork, and
                    # OpenBLAS stops its pool before a fork and restarts it.
                    warnings.filterwarnings(
                        "ignore", r"This process \(pid=\d+\) is multi-threaded",
                        DeprecationWarning)
                    proc.start()
                theirs.close()
                self._workers.append((proc, mine))
        except BaseException:
            self.close()
            raise

    def __call__(self, theta: np.ndarray, participants: tuple, round_index: int,
                 session: SecAggSession = None, coefficients=None):
        n, out, enc, masks = len(participants), self._out, self._enc, self._masks
        cuts = [n * i // (len(self._workers) + 1) for i in range(len(self._workers) + 2)]
        busy, errors, reports, reporters = [], [], [], []
        for (_, conn), lo, hi in zip(self._workers, cuts[1:], cuts[2:]):
            if lo < hi:
                conn.send((participants[lo:hi], round_index, session, lo))
                conn.send_bytes(theta)
                busy.append((conn, lo, hi))
        (train, add_terms), m = self._work, cuts[1]
        try:
            reports.append(train(theta, participants[:m], round_index, session, out[:m],
                                 enc[:m]))
        except Exception as exc:
            errors.append(exc)
        for conn, lo, hi in busy:
            reply = conn.recv()
            if isinstance(reply, Exception):
                errors.append(reply)
            elif session is None:
                conn.recv_bytes_into(out[lo:hi].reshape(-1))
            else:
                reports.append(reply)
                reporters.append((conn, lo, hi))
        c = _ABORT
        try:
            if errors:
                raise errors[0]
            if session is None:
                return out[:n]
            c = coefficients([x for norms, _ in reports for x in norms],
                             max(top for _, top in reports))
        finally:    # every process that reported takes one coefficient message
            for conn, lo, hi in reporters:
                conn.send(c if c is None or c is _ABORT else c[lo:hi])
        masks[:m] = session.net_masks(0, m)
        add_terms(participants[:m], c, enc[:m])
        for conn, lo, hi in reporters:
            conn.recv_bytes_into(enc[lo:hi].reshape(-1))
            conn.recv_bytes_into(masks[lo:hi].reshape(-1))
        session.masks = masks[:n]
        return enc[:n]

    def close(self):
        while self._workers:
            proc, conn = self._workers.pop()
            try:
                conn.send(None)
            except OSError:
                pass    # the worker has exited
            conn.close()
            proc.join()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def run_protocol(setup: SetupResult, dataset, shape: MlpShape,
                 params: ProtocolParams, rounds: int, master_seed: int) -> list:
    """Full loop; returns checkpoints theta_0..theta_T (the adversary's view)."""
    if rounds < 1:
        raise ProtocolAbortError("rounds must be >= 1")
    K, t = setup.cfg.n_clients, setup.cfg.threshold
    ema = {s.point: 0.0 for s in setup.shares}
    trajectory = [GlobalModel(init_model(shape, rng_from_key(master_seed, "init")), 0)]
    with ClientTrainer(dataset, shape, params, master_seed, K, setup.codecs.model,
                       {s.point: s.values for s in setup.shares}) as train:
        for plan in make_plans(K, t, rounds, params.participation, master_seed):
            trajectory.append(embed_round(
                trajectory[-1], ema, plan, setup, params, train,
                session_seed=master_seed * 10_000 + plan.round_index))
    return trajectory


def run_baseline(dataset, shape: MlpShape, params: ProtocolParams,
                 n_clients: int, rounds: int, master_seed: int,
                 codecs: ProtocolCodecs = None):
    """Naive per-client watermark baseline through the same round pipeline.

    Each client embeds its own independent key tau_k with its own scale;
    the averaged watermark direction becomes (1/K) sum_k scale_k tau_k,
    whose expected norm shrinks as 1/sqrt(K). Every client adds a scaled
    key, so the overflow bound is checked with K * scale_max.

    Returns (trajectory, per-client keys).
    """
    if codecs is None:
        codecs = ProtocolCodecs()
    check_aggregate_bound(
        shape.dim, n_clients, params.theta_max, n_clients * params.scale_max, codecs
    ).raise_if_failed()
    participants = tuple(range(1, n_clients + 1))
    keys = [rng_from_key(master_seed, "baseline_key", k).standard_normal(shape.dim)
            for k in participants]
    enc_keys = {k: codecs.share.encode(keys[k - 1]) for k in participants}
    ema = dict.fromkeys(participants, 0.0)
    trajectory = [GlobalModel(init_model(shape, rng_from_key(master_seed, "init")), 0)]
    with ClientTrainer(dataset, shape, params, master_seed, n_clients, codecs.model,
                       enc_keys) as train:
        for r in range(1, rounds + 1):
            def coefficients(norms, theta_abs_max):     # S_k of each client
                scales = _client_scales(ema, participants, norms, theta_abs_max, params, r)
                return [quantize_scale(s, codecs, params.scale_max) for s in scales]

            session = SecAggSession(round_id=r, participants=participants, d=shape.dim,
                                    params=codecs.params, session_seed=master_seed * 10_000 + r)
            submitted = train(trajectory[-1].theta, participants, r, session, coefficients)
            trajectory.append(_secure_average(submitted, codecs, session))
    return trajectory, keys
