"""Desk-scale federated learning substrate.

Synthetic Gaussian-blob classification data (its attacker pool drawn only
when first read), a one-hidden-layer tanh MLP with exact manual gradients,
AdamW training, and top-1 accuracy evaluation. Models train only as a
stack, theta (n, d), in lockstep through adamw_epochs: clients as a stack
of many, each attack as a stack of one. A model's parameters live in one
flat vector; the flattening order is W1 (h x m, row-major), b1 (h),
W2 (G x h, row-major), b2 (G), so d = h*m + h + G*h + G = (m+1)h + (h+1)G.

Each "output channel" of a weight matrix is one row: hidden unit j owns
row j of W1 and column j of W2.
"""

import functools
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import ConfigurationError, NumericalError
from .rngutil import rng_from_key


@dataclass
class SyntheticDataset:
    """Gaussian-blob classification data with an IID equal-shard partition.

    shards[k] indexes into (X_train, y_train); X_aux/y_aux is a disjoint
    pool from the same distribution reserved for post-training attackers,
    drawn from aux_rng on its first read, so a run that never attacks never
    draws it. Nothing else draws from aux_rng, so the pool is the same
    whenever it is read.
    """

    seed: int
    n: int
    input_dim: int
    n_classes: int
    n_clients: int
    noise: float
    means: np.ndarray
    X_train: np.ndarray
    y_train: np.ndarray
    shards: list
    X_test: np.ndarray
    y_test: np.ndarray
    aux_rng: np.random.Generator = dc_field(repr=False)

    @functools.cached_property
    def _aux(self):
        return _sample_blobs(self.aux_rng, self.means, self.noise,
                             max(self.n // self.n_classes, 1))

    @property
    def X_aux(self) -> np.ndarray:
        return self._aux[0]

    @property
    def y_aux(self) -> np.ndarray:
        return self._aux[1]


def _sample_blobs(rng, means, noise, per_class):
    G, m = means.shape
    X = np.empty((per_class * G, m))
    y = np.empty(per_class * G, dtype=np.int64)
    for g in range(G):
        X[g * per_class:(g + 1) * per_class] = (
            means[g] + noise * rng.standard_normal((per_class, m))
        )
        y[g * per_class:(g + 1) * per_class] = g
    perm = rng.permutation(len(y))
    return X[perm], y[perm]


def gen_dataset(seed: int, n: int = 20480, input_dim: int = 32, n_classes: int = 10,
                n_clients: int = 32, noise: float = 1.0,
                n_test: int = 2000) -> SyntheticDataset:
    """Deterministic per seed. n must divide evenly into K shards; labels
    are dealt per class round-robin so every shard is balanced. The
    attacker pool (n samples) continues the same stream after the test
    split, drawn on its first read."""
    if n % n_clients != 0:
        raise ConfigurationError(f"n={n} not divisible by K={n_clients}")
    if n_classes < 2:
        raise ConfigurationError("need at least two classes")
    if n % n_classes != 0 or n_test % n_classes != 0:
        raise ConfigurationError("n and n_test must be divisible by the class count")
    rng = rng_from_key("dataset", seed)
    means = 3.0 * rng.standard_normal((n_classes, input_dim))
    X_train, y_train = _sample_blobs(rng, means, noise, n // n_classes)
    X_test, y_test = _sample_blobs(rng, means, noise, n_test // n_classes)

    # per-class round-robin deal keeps every shard balanced within 5%
    owner = np.empty(n, dtype=np.int64)
    for g in range(n_classes):
        idx = np.flatnonzero(y_train == g)
        owner[idx] = np.arange(len(idx)) % n_clients
    shards = [np.flatnonzero(owner == k) for k in range(n_clients)]
    return SyntheticDataset(
        seed=seed, n=n, input_dim=input_dim, n_classes=n_classes,
        n_clients=n_clients, noise=noise, means=means,
        X_train=X_train, y_train=y_train, shards=shards,
        X_test=X_test, y_test=y_test, aux_rng=rng,
    )


@dataclass(frozen=True)
class MlpShape:
    input_dim: int = 32
    hidden: int = 128
    n_classes: int = 10

    @property
    def dim(self) -> int:
        m, h, G = self.input_dim, self.hidden, self.n_classes
        return h * m + h + G * h + G

    def unpack(self, theta: np.ndarray):
        """W1 (h, m), b1 (h), W2 (G, h) and b2 (G) as views of theta, each
        behind theta's leading stack axes."""
        m, h, G = self.input_dim, self.hidden, self.n_classes
        lead = theta.shape[:-1]
        o = 0
        W1 = theta[..., o:o + h * m].reshape(*lead, h, m); o += h * m
        b1 = theta[..., o:o + h]; o += h
        W2 = theta[..., o:o + G * h].reshape(*lead, G, h); o += G * h
        b2 = theta[..., o:o + G]
        return W1, b1, W2, b2

    def pack(self, W1, b1, W2, b2) -> np.ndarray:
        lead = b1.shape[:-1]
        return np.concatenate([W1.reshape(*lead, -1), b1, W2.reshape(*lead, -1), b2], axis=-1)


def init_model(shape: MlpShape, rng: np.random.Generator) -> np.ndarray:
    """He-style init for W1, small-normal W2, zero biases."""
    m, h, G = shape.input_dim, shape.hidden, shape.n_classes
    W1 = rng.standard_normal((h, m)) * np.sqrt(2.0 / m)
    b1 = np.zeros(h)
    W2 = rng.standard_normal((G, h)) * np.sqrt(1.0 / h)
    b2 = np.zeros(G)
    return shape.pack(W1, b1, W2, b2)


def forward(theta: np.ndarray, X: np.ndarray, shape: MlpShape):
    """Hidden activations a = tanh(X W1^T + b1) (..., B, h) and logits
    (..., B, G). A stack of n models, theta (n, d), takes a batch per model,
    X (n, B, m): each matrix product is one BLAS call per model."""
    W1, b1, W2, b2 = shape.unpack(theta)
    a = X @ W1.swapaxes(-1, -2)
    a += b1[..., None, :]
    np.tanh(a, out=a)
    z2 = a @ W2.swapaxes(-1, -2)
    z2 += b2[..., None, :]
    return a, z2


def logits(theta: np.ndarray, X: np.ndarray, shape: MlpShape) -> np.ndarray:
    return forward(theta, X, shape)[1]


def _softmax(z):
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy(z2: np.ndarray, y: np.ndarray):
    """Mean softmax cross-entropy of logits z2 (..., B, G) against labels y
    (..., B), one per stack row, and its gradient w.r.t. z2. The loss is not
    checked: see _check_loss."""
    B, G = z2.shape[-2:]
    dz2 = _softmax(z2)
    flat = dz2.reshape(-1, G)           # a view, one row per sample
    pick = (np.arange(len(flat)), y.reshape(-1))
    loss = -np.log(flat[pick] + 1e-300).reshape(y.shape).mean(axis=-1)
    flat[pick] -= 1.0
    dz2 /= B
    return loss, dz2


def _check_loss(loss, z2: np.ndarray, limit: float = np.inf):
    """Raises the error of the first model of a stack (or the one model)
    whose loss on a batch with logits z2 is not finite or above ``limit``."""
    if not (ok := np.isfinite(loss) & (loss <= limit)).all():
        i = int(np.ravel(ok).argmin())
        loss, z2 = np.ravel(loss)[i], z2.reshape(-1, *z2.shape[-2:])[i]
        if not np.isfinite(loss):
            raise NumericalError(f"non-finite loss {loss}; |logits|_max={np.abs(z2).max()}")
        raise NumericalError(f"divergence: loss={loss:.3g}")


def backward(theta: np.ndarray, X: np.ndarray, a: np.ndarray, dz2: np.ndarray,
             shape: MlpShape) -> np.ndarray:
    """Gradient w.r.t. theta of a loss whose gradient w.r.t. the logits is
    dz2, given the hidden activations a of forward(theta, X), for a model
    or a stack of them (sums over the batch axis, -2)."""
    W2 = shape.unpack(theta)[2]
    dW2 = dz2.swapaxes(-1, -2) @ a
    db2 = dz2.sum(axis=-2)
    da = dz2 @ W2
    dz1 = da * (1.0 - a * a)
    dW1 = dz1.swapaxes(-1, -2) @ X
    db1 = dz1.sum(axis=-2)
    return shape.pack(dW1, db1, dW2, db2)


def forward_backward(theta: np.ndarray, X: np.ndarray, y: np.ndarray,
                     shape: MlpShape, limit: float = np.inf):
    """Mean softmax cross-entropy loss and its exact gradient w.r.t. theta of
    a model or a stack; a loss that is not finite or above ``limit`` raises
    NumericalError (_check_loss)."""
    if X.shape[-2] == 0:
        raise ConfigurationError("empty batch")
    a, z2 = forward(theta, X, shape)
    loss, dz2 = cross_entropy(z2, y)
    _check_loss(loss, z2, limit)
    return loss, backward(theta, X, a, dz2, shape)


@dataclass
class AdamWParams:
    lr: float = 1e-3
    weight_decay: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


@dataclass
class AdamWState:
    """Per-parameter moments for decoupled-weight-decay Adam."""

    params: AdamWParams
    m: np.ndarray = None
    v: np.ndarray = None
    step: int = 0

    def update(self, theta: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """theta after one step, as a new array. The moments are updated in
        place and the step runs in two buffers, in the operation order of
        theta - lr * (mhat / (sqrt(vhat) + eps) + weight_decay * theta).
        A stack of models (theta (n, d)) steps in lockstep."""
        if self.m is None:
            self.m = np.zeros(theta.shape)
            self.v = np.zeros(theta.shape)
        p = self.params
        self.step += 1
        a = np.multiply(grad, 1 - p.beta1)
        self.m *= p.beta1
        self.m += a
        np.multiply(grad, 1 - p.beta2, out=a)
        a *= grad
        self.v *= p.beta2
        self.v += a
        b = np.divide(self.v, 1 - p.beta2 ** self.step)               # vhat
        np.sqrt(b, out=b)
        b += p.eps
        np.divide(self.m, 1 - p.beta1 ** self.step, out=a)           # mhat
        a /= b
        a += np.multiply(theta, p.weight_decay, out=b)
        a *= p.lr
        return np.subtract(theta, a, out=a)


def adamw_epochs(theta: np.ndarray, data: tuple, batch_grad, rngs, epochs: int,
                 batch_size: int, opt: AdamWParams):
    """The one training loop: AdamW from fresh optimizer state over a stack
    of n models, theta (n, d), in lockstep; yields theta after each epoch.
    Each array of ``data`` holds one row of samples per model, and rngs[i]
    draws a fresh permutation of row i per epoch, whose mini-batches model i
    takes in turn. batch_grad(theta, *batch) is the gradient on one batch of
    those arrays."""
    if batch_size < 1:
        raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
    state = AdamWState(params=opt)
    size = data[0].shape[1]
    rows = np.arange(len(theta))[:, None]
    for _ in range(epochs):
        order = np.stack([r.permutation(size) for r in rngs])
        for start in range(0, size, batch_size):
            idx = rows, order[:, start:start + batch_size]
            theta = state.update(theta, batch_grad(theta, *(a[idx] for a in data)))
        yield theta


def local_train(theta: np.ndarray, X: np.ndarray, y: np.ndarray, shards: np.ndarray,
                shape: MlpShape, rngs, epochs: int = 1, batch_size: int = 64,
                opt: AdamWParams = None) -> np.ndarray:
    """Local training of a stack of clients in lockstep from the broadcast
    theta: adamw_epochs with optimizer state fresh per call (stateless
    clients across rounds). Row i of ``shards``, an (n, S) index array,
    holds client i's samples of (X, y), and rngs[i] is its stream; returns
    the (n, d) thetas. Each operation is one BLAS call per client,
    elementwise or a per-client reduction, so row i has the bits of client
    i trained alone, as a stack of one. A batch loss that is not finite or
    above 1e3 raises the error of the first client of the stack with such a
    loss, at that step."""
    if epochs < 1:
        raise ConfigurationError("epochs must be >= 1")
    *_, theta = adamw_epochs(np.broadcast_to(theta, (len(shards), len(theta))), (shards,),
                             lambda th, idx: forward_backward(th, X[idx], y[idx], shape, 1e3)[1],
                             rngs, epochs, batch_size, opt or AdamWParams())
    return theta


def evaluate(theta: np.ndarray, X: np.ndarray, y: np.ndarray,
             shape: MlpShape) -> float:
    """Top-1 accuracy."""
    if len(X) == 0:
        raise ConfigurationError("empty test set")
    pred = logits(theta, X, shape).argmax(axis=1)
    return float((pred == y).mean())
