"""Reading and writing the files a command names.

Every way a path can fail (missing, a directory, no permission, bytes that
are not UTF-8) is raised as the caller's error class, so the CLI reports it
in its single error line.
"""

from __future__ import annotations

import json
from pathlib import Path


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
