import multiprocessing

import numpy as np
import pytest

from twmark import keysetup
from twmark.field import FieldParams, ProtocolCodecs
from twmark.flsim import AdamWState


def reference_training(theta, size, rng, epochs, batch_size, opt, batch_grad):
    """AdamW over shuffled mini-batches of ``size`` samples written out as
    one loop for one model, with theta after every epoch: the reference for
    every training procedure. batch_grad(theta, idx) is the gradient on the
    samples ``idx``."""
    state = AdamWState(params=opt)
    out = [theta.copy()]
    for _ in range(epochs):
        order = rng.permutation(size)
        for start in range(0, size, batch_size):
            idx = order[start:start + batch_size]
            theta = state.update(theta, batch_grad(theta, idx))
        out.append(theta.copy())
    return out


@pytest.fixture(autouse=True)
def no_worker_left():
    """Fails any test after which a child process is still alive: workers
    are joined on every path, error paths included."""
    yield
    assert multiprocessing.active_children() == []


@pytest.fixture
def f7():
    return FieldParams(7)


@pytest.fixture
def fM61():
    return FieldParams()


@pytest.fixture
def fQ63():
    """The largest prime below 2^63: two field elements fill a uint64."""
    return FieldParams(2**63 - 25)


@pytest.fixture
def codecs():
    return ProtocolCodecs()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def tamper_share():
    """Rewrites a share file with another point, f_share or K through the
    container, so its digest holds, then appends ``extra`` zero bytes (> 0)
    or cuts them from its end (< 0)."""

    def tamper(src, dst, point=None, extra=0, f_share=None, n_clients=None):
        hdr, words = keysetup._SHARE_FILE.read(src)
        hdr = list(hdr)
        if f_share is not None:
            hdr[1] = f_share
        if n_clients is not None:
            hdr[2] = n_clients
        if point is not None:
            hdr[4] = point
        keysetup._SHARE_FILE.write(dst, hdr, words)
        with open(dst, "rb") as fh:
            data = fh.read()
        data = data + b"\0" * extra if extra >= 0 else data[:extra]
        with open(dst, "wb") as fh:
            fh.write(data)

    return tamper
