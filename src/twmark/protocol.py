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

The per-client baseline (run_baseline) shares this round pipeline: the
same training, EMA, theta ceiling, model SecAgg and average, with each
client's own S_k * enc_share(tau_k) in place of the share term.
"""

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import ProtocolAbortError, SkipRoundError
from .field import ProtocolCodecs, check_aggregate_bound
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
                        round_index: int, params: ProtocolParams, train_fn):
    """Steps (1)-(2): local training, EMA and adaptive scale of every
    participant, under the theta_max ceiling. Returns (thetas, scales)."""
    local_thetas, scales = {}, {}
    for k in participants:
        st = clients[k]
        theta_k = train_fn(st, theta, round_index)
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


def _secure_average(local_thetas: dict, term, round_index: int,
                    codecs: ProtocolCodecs, session_seed: int) -> GlobalModel:
    """Steps (4)-(5): every client k submits enc_model(theta_k) plus its field
    watermark term ``term(k)`` (none if ``term`` is None) under pairwise-mask
    SecAgg; the decoded field sum is divided by the participant count. Terms
    are made one client at a time, so no more than one is held at once."""
    participants = tuple(local_thetas)
    submissions = {}
    for k in participants:
        u = codecs.model.encode(local_thetas[k])
        submissions[k] = u if term is None else u.add(term(k))
    session = SecAggSession(round_id=round_index, participants=participants,
                            d=len(submissions[participants[0]]),
                            params=codecs.params, session_seed=session_seed)
    agg = secagg_sum(submissions, session)
    theta_next = codecs.model.decode_centered(agg) / len(participants)
    return GlobalModel(theta=theta_next, round_index=round_index)


def embed_round(global_model: GlobalModel, clients: dict, plan: RoundPlan,
                setup: SetupResult, params: ProtocolParams,
                train_fn, session_seed: int) -> GlobalModel:
    """One protocol round; train_fn(client, theta, round_index) -> new theta."""
    if not plan.participants:
        raise SkipRoundError(f"round {plan.round_index}: empty participant set")
    codecs = setup.codecs
    r = plan.round_index
    local_thetas, scales = _train_participants(
        global_model.theta, clients, plan.participants, r, params, train_fn)
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
    return _secure_average(local_thetas, term, r, codecs, session_seed * 2)


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
            chosen = tuple(sorted(rng.choice(n_clients, n_pick, replace=False) + 1))
        plans.append(RoundPlan(round_index=r, participants=chosen,
                               threshold=threshold))
    return plans


def default_train_fn(dataset, shape, params: ProtocolParams, master_seed: int):
    """The client trainer of every run: local_train on the client's shard
    with the stream keyed by (master_seed, client id, round)."""
    def train(st: ClientState, theta: np.ndarray, round_index: int) -> np.ndarray:
        X, y = dataset.shard(st.client_id - 1)
        rng = rng_from_key(master_seed, "local_train", st.client_id, round_index)
        return local_train(theta, X, y, shape, rng,
                           epochs=params.local_epochs,
                           batch_size=params.batch_size,
                           opt=params.optimizer)
    return train


def run_protocol(setup: SetupResult, dataset, shape: MlpShape,
                 params: ProtocolParams, rounds: int, master_seed: int) -> list:
    """Full loop; returns checkpoints theta_0..theta_T (the adversary's view)."""
    if rounds < 1:
        raise ProtocolAbortError("rounds must be >= 1")
    K, t = setup.cfg.n_clients, setup.cfg.threshold
    clients = {s.point: ClientState(client_id=s.point, share=s) for s in setup.shares}
    train_fn = default_train_fn(dataset, shape, params, master_seed)
    trajectory = [GlobalModel(init_model(shape, rng_from_key(master_seed, "init")), 0)]
    for plan in make_plans(K, t, rounds, params.participation, master_seed):
        nxt = embed_round(trajectory[-1], clients, plan, setup, params,
                          train_fn, session_seed=master_seed * 10_000 + plan.round_index)
        trajectory.append(nxt)
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
    train_fn = default_train_fn(dataset, shape, params, master_seed)
    trajectory = [GlobalModel(init_model(shape, rng_from_key(master_seed, "init")), 0)]
    for r in range(1, rounds + 1):
        local_thetas, scales = _train_participants(
            trajectory[-1].theta, clients, participants, r, params, train_fn)
        S = {k: quantize_scale(scales[k], codecs, params.scale_max) for k in participants}
        trajectory.append(_secure_average(
            local_thetas, lambda k: enc_keys[k].scalar_mul(S[k]), r, codecs,
            master_seed * 10_000 + r))
    return trajectory, keys
