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

Local training runs on every CPU the process may use: a run's
ClientTrainer forks one worker per further CPU, each round's participants
are cut into contiguous slices, this process trains the first and each
worker one of the others. A client's training reads only the broadcast
theta, its shard and its stream keyed by (master_seed, client id, round),
so theta_k, and every checkpoint after it, has the same bits whatever the
CPU count. The model SecAgg session of a round is built before training,
and each of these processes also encodes its own theta_k and forms the
net masks of the session's slots numbered like its slice, since neither
depends on any client's data (in SecAgg each client forms its own masks).
EMA, scales, the theta ceiling, the watermark terms, the sum of the
masked submissions and the decoding stay in this process, in participant
order; the masks cancel exactly, so none of this changes a bit.

The per-client baseline (run_baseline) shares this round pipeline: the
same training, EMA, theta ceiling, model SecAgg and average, with each
client's own S_k * enc_share(tau_k) in place of the share term.
"""

import multiprocessing
import os
import signal
import warnings
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import ProtocolAbortError, SkipRoundError
from .field import FieldVector, FixedPointCodec, ProtocolCodecs, check_aggregate_bound
from .flsim import AdamWParams, MlpShape, init_model, local_train
from .keysetup import SetupResult
from .rngutil import rng_from_key
from .secagg import SecAggSession, secagg_scalar, secagg_sum
from .sharing import ShamirShare, lagrange_at_zero


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


@dataclass
class ClientState:
    client_id: int                # 1-based; equals the Shamir point
    share: ShamirShare = None
    ema: float = 0.0              # EMA of local update norms, zero-init


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


def _train_participants(theta: np.ndarray, clients: dict, participants: tuple,
                        round_index: int, params: ProtocolParams, train_fn,
                        session: SecAggSession):
    """Steps (1)-(2): local training, EMA and adaptive scale of every
    participant, under the theta_max ceiling. Returns (thetas, scales)."""
    local_thetas, scales = {}, {}
    for k, theta_k in zip(participants, train_fn(theta, participants, round_index, session)):
        st = clients[k]
        delta_norm = float(np.linalg.norm(theta_k - theta))
        st.ema = ema_update(st.ema, delta_norm, params.ema_beta)
        local_thetas[k] = theta_k
        scales[k] = client_scale(delta_norm, st.ema, params.strength_c)
    theta_abs_max = max(float(np.abs(t).max()) for t in local_thetas.values())
    if theta_abs_max > params.theta_max:
        raise ProtocolAbortError(
            f"round {round_index}: |theta| reached {theta_abs_max:.3g}, "
            f"above the configured ceiling {params.theta_max:.3g}"
        )
    return local_thetas, scales


def _secure_average(local_thetas: dict, term, codecs: ProtocolCodecs,
                    session: SecAggSession) -> GlobalModel:
    """Steps (4)-(5): every client k submits enc_model(theta_k) plus its field
    watermark term ``term(k)`` (none if ``term`` is None) under the
    pairwise-mask SecAgg ``session``; the decoded field sum is divided by the
    participant count. The encodings come from the trainer, formed ahead
    as ``session.encoded``, or are made here if it formed none; they take
    their terms in place, made one client at a time, so no more than one
    term is held at once."""
    encoded = session.encoded
    if encoded is None:
        encoded = [codecs.model.encode(local_thetas[k]).values for k in session.participants]
    q = np.uint64(codecs.params.modulus)
    submissions = {}
    for k, u in zip(session.participants, encoded):
        if term is not None:
            u += term(k).values     # both < q < 2^63, no overflow
            np.subtract(u, q, out=u, where=u >= q)
        submissions[k] = FieldVector(u, codecs.params)
    agg = secagg_sum(submissions, session)
    theta_next = codecs.model.decode_centered(agg) / len(submissions)
    return GlobalModel(theta=theta_next, round_index=session.round_id)


def embed_round(global_model: GlobalModel, clients: dict, plan: RoundPlan,
                setup: SetupResult, params: ProtocolParams,
                train_fn, session_seed: int) -> GlobalModel:
    """One protocol round; train_fn(theta, participants, round_index, session)
    gives each participant's locally trained theta, in participant order, and
    may form the rows of the model SecAgg session ahead (see ClientTrainer)."""
    if not plan.participants:
        raise SkipRoundError(f"round {plan.round_index}: empty participant set")
    codecs = setup.codecs
    r = plan.round_index
    session = SecAggSession(round_id=r, participants=plan.participants,
                            d=len(global_model.theta), params=codecs.params,
                            session_seed=session_seed * 2)
    local_thetas, scales = _train_participants(
        global_model.theta, clients, plan.participants, r, params, train_fn, session)
    check_aggregate_bound(len(global_model.theta), len(plan.participants),
                          params.theta_max, params.scale_max, codecs).raise_if_failed()

    term = None
    if plan.embed:
        # (3) scalar SecAgg over the encoded scales, then public re-quantization
        scale_session = SecAggSession(
            round_id=r, participants=plan.participants, d=1,
            params=codecs.params, session_seed=session_seed * 2 + 1,
        )
        total_enc = secagg_scalar(
            {k: codecs.scale.encode_scalar(scales[k]) for k in plan.participants},
            scale_session,
        )
        S = quantize_scale(codecs.scale.decode_scalar(total_enc), codecs,
                           params.scale_max)
        # share-embedded terms (Lagrange map cached per participant set)
        lam = lagrange_at_zero(plan.participants, codecs.params)

        def term(k):
            return clients[k].share.values.scalar_mul(S * lam[k])
    return _secure_average(local_thetas, term, codecs, session)


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


def _serve(conn, train_slice, d: int, rows: int, inherited: list):
    """A training worker's loop. Each request is ((client ids, round, model
    session or None, first slot), then theta as raw bytes); the reply is
    None and the clients' thetas as raw bytes, then for a session their
    encodings and the net masks of as many slots from the first, or the
    exception a client raised and nothing more. The worker exits (code 0)
    on a None request, or when the parent's end of the pipe is gone."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)   # the parent stops it
    for c in inherited:
        c.close()   # the parent's ends: EOF must come when the parent is gone
    theta, out, enc = np.empty(d), np.empty((rows, d)), np.empty((rows, d), np.uint64)
    try:
        while (request := conn.recv()) is not None:
            ids, round_index, session, a0 = request
            conn.recv_bytes_into(theta)
            n = len(ids)
            try:
                masks = train_slice(theta, ids, round_index, session, a0, out[:n], enc[:n])
            except Exception as exc:
                conn.send(exc)
            else:
                conn.send(None)
                conn.send_bytes(out[:n])
                if session is not None:
                    conn.send_bytes(enc[:n])
                    conn.send_bytes(masks)
    except (EOFError, OSError):
        pass


class ClientTrainer:
    """The client trainer of every run: local_train on the client's shard
    with the stream keyed by (master_seed, client id, round), on every CPU.

    ``trainer(theta, participants, round_index, session=None)`` returns the
    participants' thetas, in order, as the rows of an array that the next
    call overwrites. The participants are cut into contiguous slices: this
    process trains the first, and each of the ``_worker_count`` workers,
    forked when the trainer opens, one of the others. Given the round's
    model SecAgg session, each process also encodes its thetas with
    ``codec`` and forms the net masks of the slots numbered like its slice
    (SecAggSession.net_masks); they become the session's ``encoded`` and
    ``masks``, rows the next call overwrites too. A worker inherits the
    dataset and returns its rows as raw bytes; an exception a client raises
    is raised here, the first in participant order. Use it as a context
    manager: closing joins every worker.
    """

    def __init__(self, dataset, shape: MlpShape, params: ProtocolParams,
                 master_seed: int, n_clients: int, codec: FixedPointCodec = None):
        def train_slice(theta, ids, round_index, session, a0, out, enc):
            for i, k in enumerate(ids):
                X, y = dataset.shard(k - 1)
                rng = rng_from_key(master_seed, "local_train", k, round_index)
                out[i] = local_train(theta, X, y, shape, rng, epochs=params.local_epochs,
                                     batch_size=params.batch_size, opt=params.optimizer)
            if session is None:
                return None
            for i in range(len(ids)):
                enc[i] = codec.encode(out[i]).values
            return session.net_masks(a0, a0 + len(ids))

        self._train_slice = train_slice
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
                                   args=(theirs, train_slice, shape.dim, rows, inherited))
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
                 session: SecAggSession = None):
        n, out, enc, masks = len(participants), self._out, self._enc, self._masks
        cuts = [n * i // (len(self._workers) + 1) for i in range(len(self._workers) + 2)]
        busy = []
        for (_, conn), lo, hi in zip(self._workers, cuts[1:], cuts[2:]):
            if lo < hi:
                conn.send((participants[lo:hi], round_index, session, lo))
                conn.send_bytes(theta)
                busy.append((conn, lo, hi))
        errors = []
        try:
            mine = self._train_slice(theta, participants[:cuts[1]], round_index, session, 0,
                                     out[:cuts[1]], enc[:cuts[1]])
            if session is not None:
                masks[:cuts[1]] = mine
        except Exception as exc:
            errors.append(exc)
        for conn, lo, hi in busy:
            error = conn.recv()
            if error is not None:
                errors.append(error)
                continue
            for rows in (out, enc, masks) if session is not None else (out,):
                conn.recv_bytes_into(rows[lo:hi].reshape(-1))
        if errors:
            raise errors[0]
        if session is not None:
            session.encoded, session.masks = enc[:n], masks[:n]
        return out[:n]

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
    clients = {s.point: ClientState(client_id=s.point, share=s) for s in setup.shares}
    trajectory = [GlobalModel(init_model(shape, rng_from_key(master_seed, "init")), 0)]
    with ClientTrainer(dataset, shape, params, master_seed, K, setup.codecs.model) as train:
        for plan in make_plans(K, t, rounds, params.participation, master_seed):
            trajectory.append(embed_round(
                trajectory[-1], clients, plan, setup, params, train,
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
    clients = {k: ClientState(client_id=k) for k in participants}
    trajectory = [GlobalModel(init_model(shape, rng_from_key(master_seed, "init")), 0)]
    with ClientTrainer(dataset, shape, params, master_seed, n_clients, codecs.model) as train:
        for r in range(1, rounds + 1):
            session = SecAggSession(round_id=r, participants=participants, d=shape.dim,
                                    params=codecs.params,
                                    session_seed=master_seed * 10_000 + r)
            local_thetas, scales = _train_participants(
                trajectory[-1].theta, clients, participants, r, params, train, session)
            S = {k: quantize_scale(scales[k], codecs, params.scale_max) for k in participants}
            trajectory.append(_secure_average(
                local_thetas, lambda k: enc_keys[k].scalar_mul(S[k]), codecs, session))
    return trajectory, keys
