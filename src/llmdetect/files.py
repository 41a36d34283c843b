"""Reading and writing the files a command names.

Every way a path can fail (missing, a directory, no permission, bytes that
are not UTF-8) is raised as the caller's error class, so the CLI reports it
in its single error line.  A numeric array inside a JSON file is one
string: the base64 of its little-endian bytes (``pack``, ``unpack``).
"""

from __future__ import annotations

import base64
import json
from pathlib import Path

import numpy as np


def read_bytes(path, what: str, error) -> bytes:
    """The bytes of the ``what`` (say, "config file") at path."""
    try:
        return Path(path).read_bytes()
    except FileNotFoundError:
        raise error(f"no such {what}: {path}")
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc.strerror or exc}")


def read_text(path, what: str, error) -> str:
    """The UTF-8 text of the ``what`` at path."""
    data = read_bytes(path, what, error)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"undecodable bytes in {path}: {exc}")


def write_bytes(path, data: bytes, error) -> None:
    try:
        Path(path).write_bytes(data)
    except OSError as exc:
        raise error(f"cannot write {path}: {exc.strerror or exc}")


def canonical_json(value) -> bytes:
    """Sorted, compact JSON and a newline, so equal values give equal bytes."""
    return (json.dumps(value, sort_keys=True, separators=(",", ":"))
            + "\n").encode("utf-8")


def pack(array, dtype: str) -> str:
    """The base64 of the array's values as bytes of the little-endian
    8-byte ``dtype`` ("<i8" or "<f8"), row-major, so the string does not
    depend on the host's byte order."""
    little = np.asarray(array).astype(dtype, casting="same_kind", copy=False)
    return base64.b64encode(little.tobytes()).decode("ascii")


def unpack(value, dtype: str, what: str, error) -> np.ndarray:
    """The flat, native, writeable array that ``pack`` wrote as value, read
    as the little-endian 8-byte ``dtype`` ("<i8" or "<f8").  A non-string,
    invalid base64 or a byte count that is no whole number of items is
    raised as the caller's error class."""
    if not isinstance(value, str):
        raise error(f"{what}: expected a base64 string, got "
                    f"{type(value).__name__}")
    try:
        data = base64.b64decode(value, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise error(f"{what}: invalid base64: {exc}")
    if len(data) % 8:
        raise error(f"{what}: {len(data)} bytes is not a whole number of "
                    f"8-byte values")
    native = np.dtype(dtype).newbyteorder("=")
    return np.frombuffer(data, dtype=dtype).astype(native)
