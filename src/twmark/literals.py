"""The `key = literal` lines of config files, `--set` items, calibration
tables and run manifests; values are parsed, never evaluated."""

import ast
import math

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
    return [(f"{path}:{n}", line) for n, line in enumerate(lines, 1)]


def read_literals(lines, types: dict) -> dict:
    """The values of (where, text) lines. Blank and `#` lines are skipped;
    every other line is `key = literal`, with a key of ``types`` and a value
    of exactly its type (an int is taken as a float for a float key), and
    floats must be finite. Errors name ``where`` and the key."""
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
            value = ast.literal_eval(raw)
        except (ValueError, TypeError, SyntaxError, MemoryError, RecursionError):
            raise ConfigurationError(f"{where}: {key} is not a literal") from None
        want = types[key]
        if type(value) is int and want is float:
            value = float(value)
        if type(value) is not want or (want is float and not math.isfinite(value)):
            raise ConfigurationError(
                f"{where}: {key} = {raw[:40]} is not "
                f"{'a finite float' if want is float else 'of type ' + want.__name__}")
        values[key] = value
    return values
