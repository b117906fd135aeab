"""Deterministic random bit streams.

Streams are derived from a 64-bit run seed plus a label path, e.g.
(seed, "point", 3, "coord", 1, "block", 2).  Bytes come from keyed BLAKE2b in
counter mode, so the same (seed, labels) always yields the same bits on every
platform and Python version.
"""

from __future__ import annotations

import hashlib

from .errors import is_int

__all__ = ["BitStream", "label_path"]


def label_path(*labels) -> bytes:
    """The bytes a label path hashes: "/" + str(label) per label.

    1 and "1" encode alike by design; telling them apart would change every
    stream.  A label holding "/" would read as two labels, so it is refused.
    """
    path = ("/%s" * len(labels) % labels).encode()
    if path.count(b"/") != len(labels):
        raise ValueError(f"a stream label may not contain '/': {labels!r}")
    return path


_COUNTER_0 = bytes(8)


def _keyed(key: bytes):
    """The BLAKE2b state of the stream keyed by key, before any block."""
    return hashlib.blake2b(key=key, digest_size=64)


def _block(keyed, counter: int) -> bytes:
    """Block counter of a keyed stream: 512 bits, big-endian.  Copying the
    keyed state skips constructing and keying one per block."""
    h = keyed.copy()
    h.update(counter.to_bytes(8, "big"))
    return h.digest()


class BitStream:
    """Counter-mode deterministic bit source for one labelled stream.

    The key is the BLAKE2b digest of the seed and the label path, taken at
    the first refill, and the stream keeps one state keyed by it.  A stream
    keeps its hashed path, so draw() extends it without rehashing it.
    """

    __slots__ = ("_path", "_key", "_counter", "_buf", "_nbits")

    def __init__(self, seed: int, *labels):
        if not is_int(seed) or not 0 <= seed < 1 << 64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        self._path = hashlib.blake2b(
            seed.to_bytes(8, "big") + label_path(*labels), digest_size=32)
        self._key = None
        self._counter = self._buf = self._nbits = 0

    def draw(self, n: int, path: bytes) -> int:
        """First n bits of the child stream at path, a label_path(*labels):
        BitStream(seed, *this stream's labels, *labels).take_bits(n),
        whatever this stream has drawn so far."""
        if n < 0:
            raise ValueError("bit count must be >= 0")
        child = self._path.copy()
        child.update(path)
        key = child.digest()
        if n <= 512:  # one block: a one-shot hash beats keying and copying
            block = hashlib.blake2b(_COUNTER_0, key=key, digest_size=64)
            return int.from_bytes(block.digest(), "big") >> (512 - n)
        count = (n + 511) >> 9
        keyed = _keyed(key)
        blocks = b"".join([_block(keyed, c) for c in range(count)])
        return int.from_bytes(blocks, "big") >> (512 * count - n)

    def _refill(self) -> None:
        if self._key is None:
            self._key = _keyed(self._path.digest())
        block = _block(self._key, self._counter)
        self._counter += 1
        self._buf = (self._buf << 512) | int.from_bytes(block, "big")
        self._nbits += 512

    def take_bits(self, n: int) -> int:
        """Next n bits as an integer in [0, 2**n)."""
        if n < 0:
            raise ValueError("bit count must be >= 0")
        while self._nbits < n:
            self._refill()
        self._nbits -= n
        out = self._buf >> self._nbits
        self._buf &= (1 << self._nbits) - 1
        return out

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection sampling."""
        if n <= 0:
            raise ValueError("range must be positive")
        k = (n - 1).bit_length()
        while True:
            v = self.take_bits(k)
            if v < n:
                return v
