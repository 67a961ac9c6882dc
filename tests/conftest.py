import struct

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
    """Rewrites a share file with another point, another header norm or
    f_share, or with ``extra`` bytes appended (> 0) or cut from its end (< 0)."""

    def tamper(src, dst, point=None, extra=0, norm=None, f_share=None):
        data = bytearray(open(src, "rb").read())
        hdr = list(struct.unpack_from(keysetup._SHARE_HDR, data, 8))
        if f_share is not None:
            hdr[1] = f_share
        if point is not None:
            hdr[4] = point
        if norm is not None:
            hdr[5] = norm
        struct.pack_into(keysetup._SHARE_HDR, data, 8, *hdr)
        data = data + b"\0" * extra if extra >= 0 else data[:extra]
        with open(dst, "wb") as fh:
            fh.write(data)

    return tamper
