"""Post-training watermark-removal attacks.

Every attack is a deterministic function of (model or trajectory, config):
the attacker's subset and streams are drawn at ATTACK_SEED. Training
attacks run flsim.adamw_epochs and return per-epoch checkpoints so callers
can log (accuracy, z) trajectories; pruning and quantization are one-shot
transforms evaluated without retraining.

The adaptive fine-tuning objective is (1 - alpha) * task loss +
alpha * |<theta, tau_hat>|: an alignment-suppression penalty against a
key estimated from the released training trajectory. With alpha = 0 it
reduces exactly to plain fine-tuning.
"""

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import ConfigurationError, DegenerateModelError
from .flsim import (AdamWParams, MlpShape, _softmax, adamw_epochs, backward, cross_entropy,
                    forward, forward_backward, init_model, logits)
from .rngutil import rng_from_key

ATTACK_SEED = 0               # the attacker's subset, student init and batch order
DISTILL_TEMPERATURE = 3.0     # distillation softening


@dataclass
class AttackConfig:
    data_fraction: float = 0.05
    epochs: int = 100
    batch_size: int = 128
    optimizer: AdamWParams = dc_field(default_factory=AdamWParams)
    alpha: float = 0.5          # adaptive penalty weight or distill mix
    prune_ratio: float = 0.5
    quant_scheme: str = "static8"


@dataclass(frozen=True)
class EstimatedKey:
    """Unit-norm direction estimated from the released trajectory."""

    direction: np.ndarray


def sample_attack_subset(dataset, fraction: float, seed: int):
    """Uniform subset of the attacker's auxiliary pool; the fraction is
    measured against the FL training-set size, with fixed seeds."""
    n_take = int(round(fraction * dataset.n))
    if n_take < 1:
        raise ConfigurationError(f"data fraction {fraction} yields an empty subset")
    if n_take > len(dataset.X_aux):
        raise ConfigurationError("auxiliary pool smaller than the requested subset")
    rng = rng_from_key(seed, "attack_subset")
    idx = rng.choice(len(dataset.X_aux), n_take, replace=False)
    return dataset.X_aux[idx], dataset.y_aux[idx]


def estimate_key(trajectory) -> EstimatedKey:
    """Default estimator: the normalized net displacement theta_T - theta_0."""
    return estimate_key_insider(trajectory, ())


def estimate_key_insider(trajectory, own_updates) -> EstimatedKey:
    """Insider variant: subtract the attacker client's own cumulative local
    updates from the net displacement before normalizing."""
    if len(trajectory) < 2:
        raise ConfigurationError("need at least two checkpoints")
    delta = trajectory[-1].theta - trajectory[0].theta
    for upd in own_updates:
        delta = delta - upd
    norm = np.linalg.norm(delta)
    if norm == 0.0:
        raise DegenerateModelError("zero residual displacement in trajectory")
    return EstimatedKey(direction=delta / norm)


def _train_checkpoints(theta0, data, batch_grad, stream: str, cfg: AttackConfig):
    """[(0, theta0), (1, theta after epoch 1), ...] of adamw_epochs on
    ``data``, with the batch order drawn from the attacker's ``stream``."""
    return [(0, theta0.copy())] + list(enumerate(adamw_epochs(
        theta0, data, batch_grad, rng_from_key(ATTACK_SEED, stream), cfg.epochs,
        cfg.batch_size, cfg.optimizer), 1))


def _finetune(theta0, dataset, shape, cfg: AttackConfig, penalty_dir=None,
              alpha: float = 0.0):
    """Fine-tuning on the attacker's subset; with alpha > 0 adds the alignment
    penalty alpha * |<theta, dir>| (subgradient alpha * sign(<theta, dir>) * dir)."""
    def batch_grad(theta, X, y):
        _, grad = forward_backward(theta, X, y, shape)
        if alpha > 0.0:
            align = float(theta @ penalty_dir)
            grad = (1.0 - alpha) * grad + alpha * np.sign(align) * penalty_dir
        return grad

    data = sample_attack_subset(dataset, cfg.data_fraction, ATTACK_SEED)
    return _train_checkpoints(theta0, data, batch_grad, "finetune", cfg)


def attack_finetune(theta: np.ndarray, dataset, shape: MlpShape,
                    cfg: AttackConfig):
    """Plain fine-tuning on a p-fraction subset; per-epoch checkpoints."""
    return _finetune(theta, dataset, shape, cfg)


def attack_adaptive_finetune(theta: np.ndarray, dataset, shape: MlpShape,
                             key: EstimatedKey, cfg: AttackConfig):
    """Fine-tuning with the alignment-suppression penalty at weight alpha."""
    if not 0.0 <= cfg.alpha <= 1.0:
        raise ConfigurationError("alpha must be in [0, 1]")
    return _finetune(theta, dataset, shape, cfg, penalty_dir=key.direction,
                     alpha=cfg.alpha)


def attack_prune(theta: np.ndarray, shape: MlpShape, ratio: float,
                 mode: str = "magnitude") -> np.ndarray:
    """Magnitude: zero the globally smallest-|w| fraction of weight-matrix
    entries (biases exempt). Structured: zero whole hidden units by
    smallest l1 norm of their incoming weight rows; dimensions stay fixed."""
    if not 0.0 < ratio < 1.0:
        raise ConfigurationError(f"ratio must be in (0, 1), got {ratio}")
    W1, b1, W2, b2 = (a.copy() for a in shape.unpack(theta))
    if mode == "magnitude":
        flat = np.concatenate([W1.ravel(), W2.ravel()])
        n_zero = int(np.ceil(ratio * flat.size))
        victims = np.argsort(np.abs(flat), kind="stable")[:n_zero]
        flat[victims] = 0.0
        W1 = flat[:W1.size].reshape(W1.shape)
        W2 = flat[W1.size:].reshape(W2.shape)
    elif mode == "structured":
        row_l1 = np.abs(W1).sum(axis=1)
        n_zero = int(np.ceil(ratio * shape.hidden))
        victims = np.argsort(row_l1, kind="stable")[:n_zero]
        W1[victims] = 0.0
        b1[victims] = 0.0
        W2[:, victims] = 0.0
    else:
        raise ConfigurationError(f"unknown pruning mode {mode!r}")
    return shape.pack(W1, b1, W2, b2)


def _quantize_tensor(W: np.ndarray, bits: int, per_channel: bool) -> np.ndarray:
    """Symmetric quantize/dequantize; scale = maxabs / (2^(bits-1) - 1).

    All-zero tensors (scale 0) pass through unchanged."""
    levels = 2 ** (bits - 1) - 1
    if per_channel:
        maxabs = np.abs(W).max(axis=1, keepdims=True)
        scale = np.where(maxabs > 0, maxabs / levels, 1.0)
        out = np.round(W / scale) * scale
        return np.where(maxabs > 0, out, W)
    maxabs = float(np.abs(W).max())
    if maxabs == 0.0:
        return W.copy()
    scale = maxabs / levels
    return np.round(W / scale) * scale


def attack_quantize(theta: np.ndarray, shape: MlpShape,
                    scheme: str = "static8") -> np.ndarray:
    """Weight-only quantization of the weight matrices; biases untouched.

    static8/static4: per-tensor symmetric; dynamic8: per-output-channel
    (per-row) symmetric 8-bit."""
    W1, b1, W2, b2 = shape.unpack(theta)
    if scheme == "static8":
        bits, per_channel = 8, False
    elif scheme == "static4":
        bits, per_channel = 4, False
    elif scheme == "dynamic8":
        bits, per_channel = 8, True
    else:
        raise ConfigurationError(f"unknown quantization scheme {scheme!r}")
    return shape.pack(
        _quantize_tensor(W1, bits, per_channel), b1.copy(),
        _quantize_tensor(W2, bits, per_channel), b2.copy(),
    )


def _log_probs(z):
    return np.log(_softmax(z) + 1e-300)


def _kd_grad(theta, X, y, teacher_log_probs, shape, T, alpha):
    """Gradient of alpha * KL(softmax(zs/T) || softmax(zt/T)) + (1-alpha) * CE,
    from one forward pass and one backward pass of the mixed logit gradient.
    ``teacher_log_probs`` is _log_probs(zt / T) of the batch's teacher logits."""
    a, zs = forward(theta, X, shape)
    ce_loss, dz2 = cross_entropy(zs, y)
    B = len(X)
    s = _softmax(zs / T)
    log_ratio = np.log(s + 1e-300) - teacher_log_probs
    # d/dzs of mean_i KL(s_i || t_i): g = log(s/t) + 1; grad = s*(g - <s,g>)/T
    g = log_ratio + 1.0
    inner = (s * g).sum(axis=1, keepdims=True)
    dzs = s * (g - inner) / (T * B)
    kl = float((s * log_ratio).sum(axis=1).mean())
    loss = alpha * kl + (1 - alpha) * ce_loss
    return loss, backward(theta, X, a, alpha * dzs + (1 - alpha) * dz2, shape)


def attack_distill(teacher_theta: np.ndarray, dataset, shape: MlpShape,
                   cfg: AttackConfig):
    """Train a fresh same-architecture student against teacher outputs
    softened at DISTILL_TEMPERATURE, mixed with ground-truth labels;
    per-epoch checkpoints."""
    X, y = sample_attack_subset(dataset, cfg.data_fraction, ATTACK_SEED)
    student = init_model(shape, rng_from_key(ATTACK_SEED, "student_init"))

    def batch_grad(theta, Xb, yb, teacher_b):
        return _kd_grad(theta, Xb, yb, teacher_b, shape, DISTILL_TEMPERATURE, cfg.alpha)[1]

    # the teacher's softened log-probabilities, once for the whole subset
    teacher = _log_probs(logits(teacher_theta, X, shape) / DISTILL_TEMPERATURE)
    return _train_checkpoints(student, (X, y, teacher), batch_grad, "distill", cfg)


def pareto_frontier(points):
    """Attacker-optimal subset of (accuracy, z) pairs, sorted by accuracy.

    The attacker prefers high accuracy and low z; a point stays iff no
    other point is >= in accuracy and <= in z with at least one strict
    improvement."""
    pts = list(points)
    kept = []
    for p in pts:
        dominated = any(
            q[0] >= p[0] and q[1] <= p[1] and (q[0] > p[0] or q[1] < p[1])
            for q in pts
        )
        if not dominated and p not in kept:
            kept.append(p)
    return sorted(kept)
