"""Seed derivation for named randomness sub-streams.

Every random choice in the pipeline flows from one top-level seed through
a named sub-stream ("split", "sgd_shuffle", "synth", ...).  Derivation is
SHA-256 over ``"<seed>:<name>"``, so identical (seed, name) pairs yield the
same stream on any machine or Python build.

A stream is a ``random.Random``, CPython's 32-bit Mersenne Twister
(MT19937) seeded from that sub-seed.  The "synth" stream's corpus rests
only on those words and on CPython's definitions of ``random()`` (53 bits
from two words) and ``getrandbits`` (the top bits of one word):
``corpus.synth_corpus`` reads the words with numpy's ``MT19937`` and
replays ``randint`` and ``choices`` on them, not through
``random.choices``' own implementation, and the pinned corpus hashes in
the tests guard the result.
"""

from __future__ import annotations

import hashlib
import random


def derive_seed(seed: int, stream: str) -> int:
    """Return a 64-bit sub-seed for the given master seed and stream name."""
    digest = hashlib.sha256(f"{seed}:{stream}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def stream_rng(seed: int, stream: str) -> random.Random:
    """A ``random.Random`` seeded from the named sub-stream of ``seed``."""
    return random.Random(derive_seed(seed, stream))
