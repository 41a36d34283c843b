"""Reading and writing the files a command names.

Every way a path can fail (missing, a directory, no permission, bytes that
are not UTF-8) is raised as the caller's error class, so the CLI reports it
in its single error line.  A numeric array inside a JSON file is one
string: the base64 of its little-endian bytes (``pack``, ``unpack``).
"""

from __future__ import annotations

import base64
import contextlib
import errno
import json
import os
import secrets
import stat
from collections.abc import Iterable
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
    except ValueError as exc:  # a NUL in a path that a spec file gave
        raise error(f"cannot read {what} {str(path)!r}: {exc}")


def parse_json(data: bytes, what: str, error):
    """The JSON document that the UTF-8 bytes data hold, the ``what``."""
    try:
        return json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise error(f"{what} is not valid JSON: {exc}")


def read_text(path, what: str, error) -> str:
    """The UTF-8 text of the ``what`` at path."""
    data = read_bytes(path, what, error)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"undecodable bytes in {path}: {exc}")


def write_bytes(path, data: bytes | Iterable[bytes], error) -> None:
    """Write data, bytes or an iterable of bytes chunks, to the file at
    path, whole or not at all.

    A new or regular file is written as a temporary file beside the file
    that path resolves to, then renamed over it with that file's permission
    bits, so a write that fails leaves the old file and no temporary one.
    Anything else that exists, such as /dev/null or a FIFO, is written in
    place, and a regular file that cannot be written is refused as before.
    """
    chunks = [data] if isinstance(data, bytes) else data
    try:
        target = os.path.realpath(path)
        try:
            mode = os.stat(target).st_mode
        except FileNotFoundError:
            mode = None
        if mode is not None:
            if not stat.S_ISREG(mode):
                with open(target, "wb") as out:
                    out.writelines(chunks)
                return
            if not os.access(target, os.W_OK):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
        _replace(target, chunks, mode)
    except OSError as exc:
        raise error(f"cannot write {path}: {exc.strerror or exc}")


def _replace(target: str, chunks: Iterable[bytes], mode: int | None) -> None:
    """Replace the file at target by the chunks through a temporary file
    beside it that gets ``mode``'s permission bits, or the umask's for a new
    file."""
    head, name = os.path.split(target)
    temp = os.path.join(head, f".{name}.{secrets.token_hex(8)}.tmp")
    fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as out:
            if mode is not None:
                os.fchmod(fd, stat.S_IMODE(mode))
            out.writelines(chunks)
        os.replace(temp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(temp)
        raise


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
