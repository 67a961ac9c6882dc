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
one worker per further CPU and cuts each round's slots of the SecAgg
session into contiguous ranges, one per process, which forms its clients'
whole masked submissions, as in SecAgg, in two request/reply steps. In
the first it trains and encodes them, adds its slots' net masks and sends
only their update norms and largest |theta_k|. From these this process
forms the EMAs, scales, theta ceiling, scalar SecAgg and each
c_k = S * lambda_k. In the second each process adds c_k * w_k (w_k: the
client's share) and returns one masked row per slot, whose sum the server
reveals. Training reads only theta, the client's shard and its stream
keyed by (master_seed, client id, round), the masks cancel and the field
arithmetic is exact, so no bit depends on the CPU count.

Each process trains its range in lockstep groups: runs of consecutive
clients with equal shard lengths, cut into groups of at most
max(1, _BLOCK_WORDS // d) clients (11 at d = 5514), each one local_train
call that takes one forward, backward and AdamW step for the whole
group. A group's temporaries, about _BLOCK_WORDS words each, stay in
cache; those of a stack of all K would not, which gives back close to
half of the gain. Every step is one BLAS call per client, elementwise or a
per-client reduction, so a client has the same bits in any group, and a
group that fails trains again one client at a time, so that the first
client that fails alone raises.

The per-client baseline (run_baseline) trains through the same trainer
but sums its submissions enc_model(theta_k) + S_k * enc_share(tau_k) here,
with no SecAgg: the masks would cancel and nothing reads its server's view.
"""

import itertools
import multiprocessing
import os
import signal
import warnings
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import ConfigurationError, NumericalError, ProtocolAbortError, SkipRoundError
from .field import (_BLOCK_WORDS, FixedPointCodec, ProtocolCodecs, check_aggregate_bound,
                    reduce_once)
from .flsim import AdamWParams, MlpShape, init_model, local_train
from .keysetup import SetupResult
from .rngutil import rng_from_key
from .secagg import SecAggSession, reveal, secagg_scalar
from .sharing import lagrange_at_zero


@dataclass(frozen=True)
class ProtocolParams:
    """Knobs of one protocol run: the embedding's strength, EMA and
    bounds, and how clients train each round (local epochs, batch size,
    AdamW settings and the fraction of clients drawn)."""

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
        encoded = map(int, codecs.scale.encode(scales).values)
        total_enc = secagg_scalar(dict(zip(plan.participants, encoded)), scale_session)
        S = quantize_scale(codecs.scale.decode_scalar(total_enc), codecs, params.scale_max)
        # share-embedded terms (Lagrange map cached per participant set)
        lam = lagrange_at_zero(plan.participants, codecs.params)
        return [S * lam[k] for k in plan.participants]

    masked = train(global_model.theta, plan.participants, r, session, coefficients)
    # (4)-(5) the server reveals the field sum; its decoded mean is the next model
    return GlobalModel(codecs.model.decode_centered(reveal(masked, session)) / len(masked), r)


def clients_drawn(participation: float, n_clients: int) -> int:
    """How many of n_clients a round draws at ``participation``."""
    return max(1, int(round(participation * n_clients)))


def make_plans(n_clients: int, threshold: int, rounds: int,
               participation: float, master_seed: int) -> list:
    """Participant schedule; full participation unless participation < 1."""
    if not 0 < participation <= 1:
        raise ConfigurationError(f"participation must lie in (0, 1], got {participation}")
    plans = []
    for r in range(1, rounds + 1):
        if participation >= 1.0:
            chosen = tuple(range(1, n_clients + 1))
        else:
            n_pick = clients_drawn(participation, n_clients)
            rng = rng_from_key(master_seed, "participation", r)
            picked = rng.choice(n_clients, n_pick, replace=False) + 1
            chosen = tuple(sorted(map(int, picked)))
        plans.append(RoundPlan(round_index=r, participants=chosen,
                               threshold=threshold))
    return plans


def _cpus() -> list:
    """The CPUs this process may run on, in order; none where fork or CPU
    affinity is unavailable."""
    if (not hasattr(os, "sched_getaffinity")
            or "fork" not in multiprocessing.get_all_start_methods()):
        return []
    return sorted(os.sched_getaffinity(0))


def _worker_count(n_clients: int) -> int:
    """Workers a ClientTrainer forks beside this process: one for each
    further CPU it may run on, at most one per further client."""
    return max(min(len(_cpus()), n_clients) - 1, 0)


def _serve(conn, work: tuple, inherited: list):
    """A worker's loop over requests (i, args): it runs work[i](*args), which
    returns a result and rows (an array, or None), and replies with the
    result, then the rows as raw bytes, or with the exception it raised.
    None or EOF ends it (code 0)."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)   # the parent stops it
    for c in inherited:
        c.close()   # the parent's ends: EOF must come when the parent is gone
    try:
        while (request := conn.recv()) is not None:
            i, args = request
            try:
                result, rows = work[i](*args)
            except Exception as exc:
                conn.send(exc)
                continue
            conn.send(result)
            if rows is not None:
                conn.send_bytes(rows)
    except (EOFError, OSError):
        pass


class _ForkPool:
    """Forked workers that inherit ``work``, functions fn(*args) -> (result,
    rows), and all they reach. ``step`` sends each worker one request, runs
    this process's call meanwhile and reads every reply before it raises
    the first exception in process order; a worker whose pipe fails, as when
    it dies, raises ProtocolAbortError naming its pid and exit code. Use it
    as a context manager: closing joins every worker. A pool opened in a
    daemonic process, which may not fork, as in another pool's worker, runs
    every call in that process."""

    def __init__(self, work: tuple, n_workers: int):
        self._work, self._workers = work, []    # (process, this end of its pipe)
        if multiprocessing.current_process().daemon:
            n_workers = 0
        ctx = multiprocessing.get_context("fork") if n_workers else None
        try:
            for _ in range(n_workers):
                mine, theirs = ctx.Pipe()
                inherited = [c for _, c in self._workers] + [mine]
                proc = ctx.Process(target=_serve, daemon=True, args=(theirs, work, inherited))
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

    def step(self, calls: list) -> list:
        """Runs ``calls``, one (i, args, rows) per process, this one first:
        work[i](*args), whose rows, returned in a worker exactly when
        ``rows`` is given, are received into ``rows``. Returns the results in
        process order."""
        for (_, conn), (i, args, _) in zip(self._workers, calls[1:]):
            try:
                conn.send((i, args))
            except OSError:
                pass    # the worker has ended: reading its reply fails below
        i, args, _ = calls[0]
        try:
            results = [self._work[i](*args)[0]]
        except Exception as exc:
            results = [exc]
        for (proc, conn), (_, _, rows) in zip(self._workers, calls[1:]):
            try:
                reply = conn.recv()
                if rows is not None and not isinstance(reply, Exception):
                    conn.recv_bytes_into(rows.reshape(-1))
            except (EOFError, OSError):
                proc.join()
                reply = ProtocolAbortError(f"worker process {proc.pid} ended with exit "
                                           f"code {proc.exitcode}")
            results.append(reply)
        for result in results:
            if isinstance(result, Exception):
                raise result
        return results

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


class ClientTrainer(_ForkPool):
    """The client trainer of every run: local_train on the client's shard
    with the stream keyed by (master_seed, client id, round), on every CPU.

    A call is cut into contiguous ranges: this process trains the first,
    each of the ``_worker_count`` workers, forked when the trainer opens,
    one of the others. Each process cuts its range into lockstep groups:
    each run of consecutive clients with equal shard lengths into the
    fewest groups of at most max(1, _BLOCK_WORDS // d) clients, their
    sizes as equal as can be (a group of one trains slower), and trains
    each group with one local_train call, whose batches are gathered from
    the dataset through the shard indices.
    ``trainer(theta, participants, round_index)`` is one step returning the
    thetas in participant order. With the model SecAgg ``session`` of these
    participants the ranges are of its slots and a call is two steps: each
    process trains, encodes with ``codec``, adds its slots' net masks and
    reports update norms and the largest |theta_k| to ``coefficients(norms,
    theta_abs_max)`` (norms in participant order), which gives each c_k
    (None: no term); then each adds c_k * w_k, w_k the client's entry of
    ``vectors``, and the call returns the masked submissions in slot order,
    rows the next call overwrites. Nothing is pending between steps. A step
    raises the first client's exception in range order: a group whose
    local_train raises NumericalError trains its clients again one at a
    time, in order, in the same process, and the first that fails alone
    raises. Each row has the bits of its client trained alone, so that is
    the error training one by one raises.
    """

    def __init__(self, dataset, shape: MlpShape, params: ProtocolParams,
                 master_seed: int, n_clients: int, codec: FixedPointCodec = None,
                 vectors: dict = None):
        width = max(1, _BLOCK_WORDS // shape.dim)   # clients in a lockstep group
        out = self._out = np.empty((n_clients, shape.dim))
        enc = self._enc = np.empty((n_clients, shape.dim), np.uint64)

        def fit(theta, group, round_index):
            return local_train(
                theta, dataset.X_train, dataset.y_train,
                np.stack([dataset.shards[k - 1] for k in group]), shape,
                [rng_from_key(master_seed, "local_train", k, round_index) for k in group],
                epochs=params.local_epochs, batch_size=params.batch_size,
                opt=params.optimizer)

        def train(theta, ids, round_index, lo, session):
            hi = lo
            for _, run in itertools.groupby(ids, lambda k: len(dataset.shards[k - 1])):
                run = list(run)
                n = -(-len(run) // width)   # groups of as equal sizes as can be
                for g in range(n):
                    group = run[len(run) * g // n:len(run) * (g + 1) // n]
                    try:
                        out[hi:hi + len(group)] = fit(theta, group, round_index)
                    except NumericalError:
                        for k in group:     # the first client that fails alone raises
                            fit(theta, (k,), round_index)
                        raise
                    hi += len(group)
            if session is None:
                return None, out[lo:hi]
            for i in range(lo, hi):
                enc[i] = codec.encode(out[i]).values
            session.mask(enc[lo:hi], lo)
            return ([float(np.linalg.norm(row - theta)) for row in out[lo:hi]],
                    float(np.abs(out[lo:hi]).max(initial=0.0))), None

        def add_terms(ids, coefficients, lo):
            for u, k, c in zip(enc[lo:], ids, coefficients):
                u += vectors[k].scalar_mul(c).values   # both < q < 2^63
                reduce_once(u, codec.params.modulus)
            return None, enc[lo:lo + len(ids)]

        super().__init__((train, add_terms), _worker_count(n_clients))

    def __call__(self, theta: np.ndarray, participants: tuple, round_index: int,
                 session: SecAggSession = None, coefficients=None):
        n, k = len(participants), len(self._workers) + 1
        ranges = [(n * i // k, n * (i + 1) // k) for i in range(k)]
        order = range(n) if session is None else np.argsort(session._slot)
        ids = tuple(participants[p] for p in order)     # the client of each row
        reports = self.step([(0, (theta, ids[lo:hi], round_index, lo, session),
                              self._out[lo:hi] if session is None else None)
                             for lo, hi in ranges])
        if session is None:
            return self._out[:n]
        norms = [x for report, _ in reports for x in report]    # in slot order
        terms = coefficients([norms[a] for a in session._slot],
                             max(top for _, top in reports))
        c = [] if terms is None else [terms[p] for p in order]
        self.step([(1, (ids[lo:hi], c[lo:hi], lo), self._enc[lo:hi]) for lo, hi in ranges])
        return self._enc[:n]


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
    """Naive per-client watermark baseline, summed without SecAgg.

    Each client embeds its own independent key tau_k with its own scale
    S_k; the averaged watermark direction becomes (1/K) sum_k scale_k tau_k,
    whose expected norm shrinks as 1/sqrt(K). Every client adds a scaled
    key, so the overflow bound is checked with K * scale_max. The field sum
    of the submissions enc_model(theta_k) + S_k * enc_share(tau_k) is formed
    here: SecAgg's pairwise masks would cancel exactly, and nothing reads a
    baseline server's view, so the sum has the same bits.

    Returns (trajectory, per-client keys).
    """
    if codecs is None:
        codecs = ProtocolCodecs()
    check_aggregate_bound(
        shape.dim, n_clients, params.theta_max, n_clients * params.scale_max, codecs
    ).raise_if_failed()
    q = codecs.params.modulus
    participants = tuple(range(1, n_clients + 1))
    keys = [rng_from_key(master_seed, "baseline_key", k).standard_normal(shape.dim)
            for k in participants]
    enc_keys = [codecs.share.encode(key) for key in keys]
    ema = dict.fromkeys(participants, 0.0)
    trajectory = [GlobalModel(init_model(shape, rng_from_key(master_seed, "init")), 0)]
    with ClientTrainer(dataset, shape, params, master_seed, n_clients) as train:
        for r in range(1, rounds + 1):
            theta = trajectory[-1].theta
            thetas = train(theta, participants, r)
            total = np.zeros(shape.dim, np.uint64)
            for row in thetas:  # every row is encoded before the theta ceiling is checked
                total += codecs.model.encode(row).values    # both < q < 2^63
                reduce_once(total, q)
            scales = _client_scales(ema, participants,
                                    [float(np.linalg.norm(row - theta)) for row in thetas],
                                    float(np.abs(thetas).max(initial=0.0)), params, r)
            for key, s in zip(enc_keys, scales):
                total += key.scalar_mul(quantize_scale(s, codecs, params.scale_max)).values
                reduce_once(total, q)
            trajectory.append(GlobalModel(codecs.model.decode_values(total) / n_clients, r))
    return trajectory, keys
