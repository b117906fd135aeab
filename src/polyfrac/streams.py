"""Deterministic random bit streams.

Streams are derived from a 64-bit run seed plus a label path, e.g.
(seed, "point", 3, "coord", 1, "block", 2).  Bytes come from keyed BLAKE2b in
counter mode, so the same (seed, labels) always yields the same bits on every
platform and Python version.
"""

from __future__ import annotations

import hashlib

__all__ = ["BitStream"]


class BitStream:
    """Counter-mode deterministic bit source for one labelled stream.

    The key is the BLAKE2b digest of the seed and the label path.  A stream
    keeps its hashed path, so child() extends it without rehashing it.
    """

    __slots__ = ("_path", "_key", "_counter", "_buf", "_nbits")

    def __init__(self, seed: int, *labels):
        if not isinstance(seed, int) or not 0 <= seed < 1 << 64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        self._open(hashlib.blake2b(seed.to_bytes(8, "big"), digest_size=32),
                   labels)

    def _open(self, path, labels: tuple) -> None:
        # "/" + str(label) per label; one update hashes the same bytes
        path.update(("/%s" * len(labels) % labels).encode())
        self._path = path
        self._key = path.digest()
        self._counter = self._buf = self._nbits = 0

    def child(self, *labels) -> "BitStream":
        """BitStream(seed, *this stream's labels, *labels), whatever this
        stream has drawn so far."""
        out = BitStream.__new__(BitStream)
        out._open(self._path.copy(), labels)
        return out

    def _refill(self) -> None:
        block = hashlib.blake2b(self._counter.to_bytes(8, "big"),
                                key=self._key, digest_size=64).digest()
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

    def take_bit(self) -> int:
        return self.take_bits(1)

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection sampling."""
        if n <= 0:
            raise ValueError("range must be positive")
        k = (n - 1).bit_length()
        while True:
            v = self.take_bits(k)
            if v < n:
                return v
