"""Dense NCHW tensors and bit-packed sign tensors.

Dense tensors are plain numpy arrays of shape (batch, channels, height,
width), row-major with width fastest. A BitTensor stores one bit per
element -- bit 1 encodes +1, bit 0 encodes -1 -- packed little-endian into
64-bit words along each channel's flattened spatial axis (width fastest,
then height), with every channel row padded up to a whole word. Pad bits
are kept at zero and every reduction masks them out, so flipping a pad bit
never changes a result.

Also provides the "BDT1" on-disk container: the 4-byte magic, four 32-bit
little-endian unsigned shape fields, then the payload (32-bit little-endian
IEEE-754 floats for dense tensors, packed little-endian words for bit
tensors). Whether an entry is dense or bit-packed is known from context
(e.g. the checkpoint manifest); the container itself carries no tag.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

WORD_BITS = 64
MAGIC = b"BDT1"

if sys.byteorder != "little":  # pragma: no cover
    raise ImportError("bitconv requires a little-endian host (word packing relies on it)")


def as_nchw(x) -> np.ndarray:
    """Validate x as a rank-4 (N, C, H, W) array and return it."""
    a = np.asarray(x)
    if a.ndim != 4:
        raise ValueError(f"expected rank-4 (N,C,H,W) tensor, got shape {a.shape}")
    if min(a.shape) < 1:
        raise ValueError(f"all dimensions must be >= 1, got shape {a.shape}")
    return a


def words_per_row(n_elems: int) -> int:
    """Number of 64-bit words needed to hold n_elems bits."""
    return (n_elems + WORD_BITS - 1) // WORD_BITS


def payload_mask(n_words: int, n_elems: int) -> np.ndarray:
    """Word mask with the first n_elems bits set and all pad bits clear."""
    if words_per_row(n_elems) != n_words:
        raise ValueError(f"{n_elems} elements do not fill {n_words} words")
    mask = np.full(n_words, np.uint64(0xFFFFFFFFFFFFFFFF), dtype=np.uint64)
    rem = n_elems % WORD_BITS
    if rem:
        mask[-1] = np.uint64((1 << rem) - 1)
    return mask


@dataclass(frozen=True)
class BitTensor:
    """Bit-packed sign tensor (+1 -> bit 1, -1 -> bit 0).

    words has shape (batch, channels, words_per_row(H*W)); bit k of a
    channel row is element k of that channel's row-major spatial data.
    """

    shape: tuple[int, int, int, int]
    words: np.ndarray
    pad_bits: int

    def __post_init__(self):
        n, c, h, w = self.shape
        if min(self.shape) < 1:
            raise ValueError(f"all dimensions must be >= 1, got shape {self.shape}")
        nw = words_per_row(h * w)
        if self.words.dtype != np.uint64 or self.words.shape != (n, c, nw):
            raise ValueError(
                f"words must be uint64 of shape {(n, c, nw)}, got {self.words.dtype} {self.words.shape}"
            )
        if self.pad_bits != nw * WORD_BITS - h * w:
            raise ValueError(f"pad_bits must be {nw * WORD_BITS - h * w}, got {self.pad_bits}")

    @property
    def elems_per_channel(self) -> int:
        return self.shape[2] * self.shape[3]

    @property
    def words_per_channel(self) -> int:
        return self.words.shape[2]

    def pads_are_zero(self) -> bool:
        """True iff every pad bit is 0 (the construction invariant)."""
        if self.pad_bits == 0:
            return True
        mask = payload_mask(self.words_per_channel, self.elems_per_channel)
        return not np.any(self.words[:, :, -1] & ~mask[-1])

    def copy(self) -> "BitTensor":
        return BitTensor(self.shape, self.words.copy(), self.pad_bits)


def _pack_rows(bits: np.ndarray) -> np.ndarray:
    """Pack a (..., L) bool array into (..., words_per_row(L)) uint64, LSB first."""
    nbytes = words_per_row(bits.shape[-1]) * 8
    by = np.packbits(bits, axis=-1, bitorder="little")
    if by.shape[-1] < nbytes:
        pad = np.zeros(by.shape[:-1] + (nbytes - by.shape[-1],), dtype=np.uint8)
        by = np.concatenate([by, pad], axis=-1)
    return np.ascontiguousarray(by).view(np.uint64)


def _unpack_rows(words: np.ndarray, n_elems: int) -> np.ndarray:
    """Inverse of _pack_rows: (..., W) uint64 -> (..., n_elems) uint8 in {0,1}."""
    by = np.ascontiguousarray(words).view(np.uint8)
    return np.unpackbits(by, axis=-1, bitorder="little", count=n_elems)


def sign_bits(t, threshold=0.0) -> np.ndarray:
    """The bool (N, C, H, W) array t[n,c,y,x] >= threshold[c] (ties map to +1).

    A (K, C) threshold stacks the K patterns on the channel axis, giving
    (N, K*C, H, W) with pattern k at channels k*C .. (k+1)*C - 1.
    """
    x = as_nchw(t)
    if not np.all(np.isfinite(x)):
        raise ValueError("a sign pattern requires finite input")
    n, c, h, w = x.shape
    thr = np.atleast_2d(np.asarray(threshold, dtype=np.float64))
    thr = np.broadcast_to(thr, (thr.shape[0], c))
    return (x[:, None] >= thr[None, :, :, None, None]).reshape(n, -1, h, w)


def pack(t, threshold=0.0) -> BitTensor:
    """Pack the sign pattern of a dense tensor against a per-channel threshold.

    Bit is 1 where t[n,c,y,x] >= threshold[c] (ties map to +1), else 0.
    """
    bits = sign_bits(t, threshold)
    n, c, h, w = bits.shape
    words = _pack_rows(bits.reshape(n, c, h * w))
    return BitTensor((n, c, h, w), words, words.shape[-1] * WORD_BITS - h * w)


def unpack(b: BitTensor) -> np.ndarray:
    """Decode a BitTensor to a dense float64 tensor with values in {-1, +1}."""
    n, c, h, w = b.shape
    bits = _unpack_rows(b.words, h * w)
    return bits.reshape(n, c, h, w).astype(np.float64) * 2.0 - 1.0


def unpack_bits(b: BitTensor) -> np.ndarray:
    """Decode to the raw 0/1 bit array of shape (N, C, H, W), pads excluded."""
    n, c, h, w = b.shape
    return _unpack_rows(b.words, h * w).reshape(n, c, h, w)


def xnor_popcount_dot(a: np.ndarray, b: np.ndarray, n: int) -> int:
    """Dot product of two n-element +/-1 vectors given as packed word rows.

    Computes 2*popcount(NOT(a XOR b) & payload) - n, which equals the dot
    of the decoded vectors. Pad bits are masked, so their content is
    irrelevant.
    """
    a = np.ascontiguousarray(a, dtype=np.uint64).ravel()
    b = np.ascontiguousarray(b, dtype=np.uint64).ravel()
    if a.shape != b.shape:
        raise ValueError(f"word rows differ in length: {a.shape} vs {b.shape}")
    if n < 1 or words_per_row(n) != a.size:
        raise ValueError(f"element count {n} does not match capacity of {a.size} words")
    agree = ~(a ^ b) & payload_mask(a.size, n)
    return 2 * int(np.bitwise_count(agree).sum(dtype=np.int64)) - n


# ---------------------------------------------------------------------------
# "BDT1" container
# ---------------------------------------------------------------------------


class ContainerError(ValueError):
    """Raised for malformed BDT1 container data."""


_READ_CHUNK = 1 << 24


def _read_exact(fh, n: int) -> bytes:
    """Read n bytes in bounded chunks, so a header that declares more data
    than the stream holds (or than fits an index) fails as truncated."""
    data = bytearray()
    while len(data) < n:
        chunk = fh.read(min(n - len(data), _READ_CHUNK))
        if not chunk:
            raise ContainerError(f"truncated container: wanted {n} bytes, got {len(data)}")
        data += chunk
    return bytes(data)


def _write_header(fh, shape) -> None:
    fh.write(MAGIC)
    fh.write(np.asarray(shape, dtype="<u4").tobytes())


def _read_header(fh) -> tuple[int, int, int, int]:
    magic = _read_exact(fh, 4)
    if magic != MAGIC:
        raise ContainerError(f"bad magic {magic!r}, expected {MAGIC!r}")
    shape = np.frombuffer(_read_exact(fh, 16), dtype="<u4")
    if min(shape) < 1:
        raise ContainerError(f"bad shape {tuple(shape)}")
    return tuple(int(s) for s in shape)


def write_dense(fh, t) -> None:
    """Write a dense tensor as a BDT1 entry (float32 little-endian payload)."""
    x = as_nchw(t)
    _write_header(fh, x.shape)
    fh.write(np.ascontiguousarray(x, dtype="<f4").tobytes())


def read_dense(fh) -> np.ndarray:
    """Read one dense BDT1 entry; returns a float32 (N,C,H,W) array."""
    shape = _read_header(fh)
    count = math.prod(shape)  # a Python int: a 4 x u32 header can exceed int64
    data = np.frombuffer(_read_exact(fh, 4 * count), dtype="<f4")
    return data.reshape(shape).copy()


def write_bits(fh, b: BitTensor) -> None:
    """Write a BitTensor as a BDT1 entry (packed little-endian words)."""
    _write_header(fh, b.shape)
    fh.write(np.ascontiguousarray(b.words, dtype="<u8").tobytes())


def read_bits(fh) -> BitTensor:
    """Read one bit-packed BDT1 entry."""
    shape = _read_header(fh)
    n, c, h, w = shape
    nw = words_per_row(h * w)
    data = np.frombuffer(_read_exact(fh, 8 * n * c * nw), dtype="<u8")
    words = data.reshape(n, c, nw).astype(np.uint64)
    return BitTensor(shape, words, nw * WORD_BITS - h * w)
