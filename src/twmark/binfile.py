"""The one binary container of model and share files: an 8-byte magic, a
fixed little-endian struct header, payload words whose count the header
implies, and the SHA-256 of all bytes before it. The digest is unkeyed: it
catches damage, not forgery, so readers still check what a header means.
A writer makes the file's directory, as literals.write_text does.
"""

import hashlib
import os
import struct
from dataclasses import dataclass
from typing import Callable

from .errors import ConfigurationError


@dataclass(frozen=True)
class Format:
    magic: str                     # 8 ASCII characters, the last one the version
    header: str                    # struct format of the header
    words: Callable[[tuple], int]  # header tuple -> count of 8-byte payload words

    def write(self, path, header: tuple, payload: bytes):
        body = self.magic.encode() + struct.pack(self.header, *header) + payload
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(body + hashlib.sha256(body).digest())

    def read(self, path) -> tuple:
        """(header tuple, payload bytes); every error starts with the path."""
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise ConfigurationError(f"{path}: cannot read: {exc.strerror}") from None
        if data[:8] != self.magic.encode():
            raise ConfigurationError(f"{path}: starts {data[:8]!r}, not {self.magic}")
        start = 8 + struct.calcsize(self.header)
        if len(data) < start:
            raise ConfigurationError(f"{path}: {len(data)} bytes, cut inside the header")
        header = struct.unpack(self.header, data[8:start])
        end = start + 8 * self.words(header)
        if len(data) != end + 32:
            raise ConfigurationError(f"{path}: {len(data)} bytes, its header says {end + 32}")
        if hashlib.sha256(data[:end]).digest() != data[end:]:
            raise ConfigurationError(f"{path}: SHA-256 digest does not match the contents")
        return header, data[start:end]
