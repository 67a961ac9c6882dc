"""Desk-scale federated learning substrate.

Synthetic Gaussian-blob classification data, a one-hidden-layer tanh MLP
with exact manual gradients, AdamW local training, and top-1 accuracy
evaluation. The model's parameters live in one flat vector theta; the
flattening order is W1 (h x m, row-major), b1 (h), W2 (G x h, row-major),
b2 (G), so d = h*m + h + G*h + G = (m+1)h + (h+1)G.

Each "output channel" of a weight matrix is one row: hidden unit j owns
row j of W1 and column j of W2.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericalError
from .rngutil import rng_from_key


@dataclass
class SyntheticDataset:
    """Gaussian-blob classification data with an IID equal-shard partition.

    shards[k] indexes into (X_train, y_train); X_aux/y_aux is a disjoint
    pool from the same distribution reserved for post-training attackers.
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
    X_aux: np.ndarray
    y_aux: np.ndarray

    def shard(self, k: int):
        idx = self.shards[k]
        return self.X_train[idx], self.y_train[idx]


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
    are dealt per class round-robin so every shard is balanced."""
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
    X_aux, y_aux = _sample_blobs(rng, means, noise, max(n // n_classes, 1))

    # per-class round-robin deal keeps every shard balanced within 5%
    shards = [[] for _ in range(n_clients)]
    for g in range(n_classes):
        idx = np.flatnonzero(y_train == g)
        for pos, i in enumerate(idx):
            shards[pos % n_clients].append(i)
    shards = [np.array(sorted(s)) for s in shards]
    return SyntheticDataset(
        seed=seed, n=n, input_dim=input_dim, n_classes=n_classes,
        n_clients=n_clients, noise=noise, means=means,
        X_train=X_train, y_train=y_train, shards=shards,
        X_test=X_test, y_test=y_test, X_aux=X_aux, y_aux=y_aux,
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
        m, h, G = self.input_dim, self.hidden, self.n_classes
        o = 0
        W1 = theta[o:o + h * m].reshape(h, m); o += h * m
        b1 = theta[o:o + h]; o += h
        W2 = theta[o:o + G * h].reshape(G, h); o += G * h
        b2 = theta[o:o + G]
        return W1, b1, W2, b2

    def pack(self, W1, b1, W2, b2) -> np.ndarray:
        return np.concatenate([W1.ravel(), b1, W2.ravel(), b2])


def init_model(shape: MlpShape, rng: np.random.Generator) -> np.ndarray:
    """He-style init for W1, small-normal W2, zero biases."""
    m, h, G = shape.input_dim, shape.hidden, shape.n_classes
    W1 = rng.standard_normal((h, m)) * np.sqrt(2.0 / m)
    b1 = np.zeros(h)
    W2 = rng.standard_normal((G, h)) * np.sqrt(1.0 / h)
    b2 = np.zeros(G)
    return shape.pack(W1, b1, W2, b2)


def forward(theta: np.ndarray, X: np.ndarray, shape: MlpShape):
    """Hidden activations a = tanh(X W1^T + b1) (B, h) and logits (B, G)."""
    W1, b1, W2, b2 = shape.unpack(theta)
    a = np.tanh(X @ W1.T + b1)
    return a, a @ W2.T + b2


def logits(theta: np.ndarray, X: np.ndarray, shape: MlpShape) -> np.ndarray:
    return forward(theta, X, shape)[1]


def _softmax(z):
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy(z2: np.ndarray, y: np.ndarray):
    """Mean softmax cross-entropy of logits z2 (B, G) against labels y, and
    its gradient w.r.t. z2."""
    B = len(y)
    dz2 = _softmax(z2)
    loss = float(-np.log(dz2[np.arange(B), y] + 1e-300).mean())
    if not np.isfinite(loss):
        raise NumericalError(f"non-finite loss {loss}; |logits|_max={np.abs(z2).max()}")
    dz2[np.arange(B), y] -= 1.0
    dz2 /= B
    return loss, dz2


def backward(theta: np.ndarray, X: np.ndarray, a: np.ndarray, dz2: np.ndarray,
             shape: MlpShape) -> np.ndarray:
    """Gradient w.r.t. theta of a loss whose gradient w.r.t. the logits is
    dz2, given the hidden activations a of forward(theta, X)."""
    W2 = shape.unpack(theta)[2]
    dW2 = dz2.T @ a
    db2 = dz2.sum(axis=0)
    da = dz2 @ W2
    dz1 = da * (1.0 - a * a)
    dW1 = dz1.T @ X
    db1 = dz1.sum(axis=0)
    return shape.pack(dW1, db1, dW2, db2)


def forward_backward(theta: np.ndarray, X: np.ndarray, y: np.ndarray,
                     shape: MlpShape):
    """Mean softmax cross-entropy loss and its exact gradient w.r.t. theta."""
    if len(X) == 0:
        raise ConfigurationError("empty batch")
    a, z2 = forward(theta, X, shape)
    loss, dz2 = cross_entropy(z2, y)
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
        theta - lr * (mhat / (sqrt(vhat) + eps) + weight_decay * theta)."""
        if self.m is None:
            self.m = np.zeros_like(theta)
            self.v = np.zeros_like(theta)
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


def adamw_epochs(theta: np.ndarray, data: tuple, batch_grad, rng: np.random.Generator,
                 epochs: int, batch_size: int, opt: AdamWParams):
    """The one training loop: AdamW from fresh optimizer state over
    mini-batches of a fresh permutation of the samples of ``data``, a tuple
    of equal-length arrays, per epoch; yields theta after each epoch.
    batch_grad(theta, *batch) is the gradient on one batch of those arrays."""
    state = AdamWState(params=opt)
    for _ in range(epochs):
        order = rng.permutation(len(data[0]))
        for start in range(0, len(order), batch_size):
            idx = order[start:start + batch_size]
            theta = state.update(theta, batch_grad(theta, *(a[idx] for a in data)))
        yield theta


def local_train(theta: np.ndarray, X: np.ndarray, y: np.ndarray,
                shape: MlpShape, rng: np.random.Generator,
                epochs: int = 1, batch_size: int = 64,
                opt: AdamWParams = None) -> np.ndarray:
    """A client's local step: adamw_epochs on its data, so the optimizer
    state is fresh per call (stateless clients across rounds)."""
    if epochs < 1:
        raise ConfigurationError("epochs must be >= 1")

    def batch_grad(th, Xb, yb):
        loss, grad = forward_backward(th, Xb, yb, shape)
        if loss > 1e3:
            raise NumericalError(f"divergence: loss={loss:.3g}")
        return grad

    *_, theta = adamw_epochs(theta, (X, y), batch_grad, rng, epochs, batch_size,
                             opt or AdamWParams())
    return theta


def evaluate(theta: np.ndarray, X: np.ndarray, y: np.ndarray,
             shape: MlpShape) -> float:
    """Top-1 accuracy."""
    if len(X) == 0:
        raise ConfigurationError("empty test set")
    pred = logits(theta, X, shape).argmax(axis=1)
    return float((pred == y).mean())
