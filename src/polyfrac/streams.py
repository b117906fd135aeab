"""Deterministic random bit streams.

Streams are derived from a 64-bit run seed plus a label path, e.g.
(seed, "point", 3, "coord", 1, "block", 2).  Bytes come from keyed BLAKE2b in
counter mode, so the same (seed, labels) always yields the same bits on every
platform and Python version.
"""

from __future__ import annotations

import hashlib

from .errors import is_int

__all__ = ["BitStream", "child_bits", "index_states", "label_path",
           "path_state"]


def label_path(*labels) -> bytes:
    """The bytes a label path hashes: "/" + str(label) per label.

    1 and "1" encode alike by design; telling them apart would change every
    stream.  A label holding "/" would read as two labels, so it is refused.
    """
    path = ("/%s" * len(labels) % labels).encode()
    if path.count(b"/") != len(labels):
        raise ValueError(f"a stream label may not contain '/': {labels!r}")
    return path


def path_state(seed: int, *labels):
    """The BLAKE2b state of the path (seed, *labels): its digest keys
    BitStream(seed, *labels), and child_bits extends copies of it."""
    if not is_int(seed) or not 0 <= seed < 1 << 64:
        raise ValueError("seed must be an unsigned 64-bit integer")
    return hashlib.blake2b(seed.to_bytes(8, "big") + label_path(*labels),
                           digest_size=32)


_COUNTER_0 = bytes(8)


def _keyed(key: bytes):
    """The BLAKE2b state of the stream keyed by key, before any block."""
    return hashlib.blake2b(key=key, digest_size=64)


def _block(keyed, counter: bytes) -> bytes:
    """The block at counter (8 big-endian bytes) of a keyed stream: 512
    bits.  Copying the keyed state skips constructing and keying one per
    block."""
    h = keyed.copy()
    h.update(counter)
    return h.digest()


def _extend(state, path: bytes):
    """A copy of a path state, fed path."""
    child = state.copy()
    child.update(path)
    return child


def index_states(state, indices, tail: bytes) -> list:
    """For state = path_state(seed, *labels) and tail = label_path(*more),
    path_state(seed, *labels, i, *more) for each int i in indices.  An int
    label encodes as "/%d", so one bytes format serves every index."""
    return [_extend(state, b"/%d%s" % (i, tail)) for i in indices]


def child_bits(states, path: bytes, n: int) -> list[int]:
    """First n bits of the child stream at path, a label_path(*more), of
    each path state: for states[j] = path_state(seed, *labels), item j is
    BitStream(seed, *labels, *more).take_bits(n).  A state is only copied,
    so a list of them serves every draw of a chunk of points."""
    if n < 0:
        raise ValueError("bit count must be >= 0")
    new, from_bytes = hashlib.blake2b, int.from_bytes
    if n <= 512:  # one block: a one-shot hash beats keying and copying
        cut = 512 - n
        return [from_bytes(new(_COUNTER_0,
                               key=_extend(s, path).digest()).digest(),
                           "big") >> cut for s in states]
    count = (n + 511) >> 9
    cut = 512 * count - n
    counters = [c.to_bytes(8, "big") for c in range(count)]
    out = []
    for s in states:
        keyed = _keyed(_extend(s, path).digest())
        blocks = b"".join([_block(keyed, c) for c in counters])
        out.append(from_bytes(blocks, "big") >> cut)
    return out


class BitStream:
    """Counter-mode deterministic bit source for one labelled stream.

    The key is the digest of the stream's path state, taken at the first
    refill, and the stream keeps one BLAKE2b state keyed by it.
    """

    __slots__ = ("_path", "_key", "_counter", "_buf", "_nbits")

    def __init__(self, seed: int, *labels):
        self._path = path_state(seed, *labels)
        self._key = None
        self._counter = self._buf = self._nbits = 0

    def _refill(self) -> None:
        if self._key is None:
            self._key = _keyed(self._path.digest())
        block = _block(self._key, self._counter.to_bytes(8, "big"))
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
