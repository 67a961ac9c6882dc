import numpy as np
import pytest

from twmark import keysetup
from twmark.field import FieldParams, ProtocolCodecs


@pytest.fixture
def f7():
    return FieldParams(7)


@pytest.fixture
def fM61():
    return FieldParams()


@pytest.fixture
def codecs():
    return ProtocolCodecs()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def tamper_share():
    """Rewrites a share file with another point or f_share through the
    container, so its digest holds, then appends ``extra`` zero bytes (> 0)
    or cuts them from its end (< 0)."""

    def tamper(src, dst, point=None, extra=0, f_share=None):
        hdr, words = keysetup._SHARE_FILE.read(src)
        hdr = list(hdr)
        if f_share is not None:
            hdr[1] = f_share
        if point is not None:
            hdr[4] = point
        keysetup._SHARE_FILE.write(dst, hdr, words)
        data = open(dst, "rb").read()
        data = data + b"\0" * extra if extra >= 0 else data[:extra]
        with open(dst, "wb") as fh:
            fh.write(data)

    return tamper
