"""The `key = literal` lines of config files, `--set` items, calibration
tables and run manifests; values are parsed, never evaluated."""

import ast
import math
import warnings
from typing import get_args, get_origin

from .errors import ConfigurationError


def literal_text(pairs) -> str:
    """One `key = repr(value)` line per (key, value) pair."""
    return "".join(f"{key} = {value!r}\n" for key, value in pairs)


def file_lines(path):
    """The lines of a UTF-8 text file as (path:line, text) pairs."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError:
        raise ConfigurationError(f"{path}: not UTF-8 text") from None
    except OSError as exc:
        raise ConfigurationError(f"{path}: cannot read: {exc.strerror}") from None
    return [(f"{path}:{n}", line) for n, line in enumerate(lines, 1)]


def _typed(value, want):
    """``value`` as a value of type ``want``: exactly that type, except that
    an int is taken as a float; floats must be finite; a ``tuple[T, ...]``
    holds only values of type T, each under the same rules. Raises TypeError."""
    if get_origin(want) is tuple and type(value) is tuple:
        return tuple(_typed(v, get_args(want)[0]) for v in value)
    if type(value) is int and want is float:
        value = float(value)
    if type(value) is not want or (want is float and not math.isfinite(value)):
        raise TypeError
    return value


def read_literals(lines, types: dict) -> dict:
    """The values of (where, text) lines. Blank and `#` lines are skipped;
    every other line is `key = literal`, with a key of ``types`` and a value
    of its type under the rules of _typed. Errors name ``where`` and the key."""
    values = {}
    for where, line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if not sep or key not in types:
            raise ConfigurationError(f"{where}: expected a known key = value, "
                                     f"got {line[:60]!r}")
        try:
            with warnings.catch_warnings():
                # e.g. an invalid escape such as '\d', which would warn naming no file
                warnings.simplefilter("error")
                value = ast.literal_eval(raw)
        except (ValueError, TypeError, SyntaxError, MemoryError, RecursionError,
                Warning) as exc:
            reason = f": {exc.msg}" if isinstance(exc, SyntaxError) and exc.msg else ""
            raise ConfigurationError(f"{where}: {key} is not a literal{reason}") from None
        want = types[key]
        try:
            values[key] = _typed(value, want)
        except TypeError:
            name = want if get_origin(want) else want.__name__
            raise ConfigurationError(
                f"{where}: {key} = {raw[:40]} is not "
                f"{'a finite float' if want is float else f'of type {name}'}") from None
    return values
