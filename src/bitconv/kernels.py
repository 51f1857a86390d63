"""Convolution kernels.

Two families share one geometry descriptor (ConvSpec):

* float reference kernels -- cross-correlation with zero padding. These
  double as the correctness oracle for the binary kernels, as the
  full-precision layers of built networks and as the training surrogate of
  the binary ones. A point-wise conv (1x1, stride 1, no padding, one
  group) is a matrix product over channels, so it and its two gradients
  run as BLAS matrix products (np.matmul). On +/-1 operands the partial
  sums are small integers, exact in any order, so the result still equals
  the binary kernel's bit for bit. Every other conv is direct, accumulated
  tap by tap (no FFT/Winograd, no im2col): the regular one contracts
  channels per tap with einsum, a depth-wise one works per tap over blocks
  of (sample, channel) planes laid out planes-last, so each tap is one op
  along the plane axis and no loop runs per channel. Those blocks are
  small enough to stay cache-resident (whole-tensor temporaries at batch
  96 cost more in page faults than they save in calls) and wide enough
  along the planes for long inner loops. The k>1 regular convs stay
  direct: lowered to im2col + BLAS they made neither a training step nor
  a curvature probe faster than the point-wise path alone does, and the
  direct 3x3 conv is the float baseline the bench times the bit-packed
  kernel against.

* bit-packed binary kernels -- the multiply-accumulate work runs as
  XNOR + popcount on packed words into an integer accumulator, and
  conv_binary returns those exact int32 counts, which equal the float
  kernel on decoded +/-1 operands.

The input's sign pattern is the bool array x >= threshold of
tensor.sign_bits, which the kernels read as is, so an activation needs no
pack and unpack round trip (FINN-style thresholding, Umuroglu et al. 2017).
A multi-branch binary conv (conv_multi_dw, the packed forward of every
binary layer) runs all its branches as one kernel call over their stacked
bit arrays, against one bank of stacked filters, and scales the counts by
the per-output-channel magnitudes once, straight into its one output, as
inference engines keep the integer accumulator and scale it once (daBNN,
Zhang et al. 2019), so it matches the float path bit for bit.

Padding semantics: pads are zeros, i.e. padded positions contribute 0 to
the accumulator (not -1). The depth-wise kernel masks pad positions out of
the popcount and counts only live elements per window; the regular kernel
lets dead taps into its reduction and subtracts what they added.

Depth-wise kernels pack each window's k*k bits into one word per output
position (the reduction never leaves the channel, so the whole channel row
stays cache-resident), held in the narrowest unsigned type that fits k*k
bits: uint16 for 3x3, up to uint64 for 64 taps. Regular kernels repack the
channel axis into 64-bit words because their reduction runs across
channels, gather every tap once into a packed im2col matrix of shape
(N*Ho*Wo, kh*kw*Wc) words, and reduce it against the (O, kh*kw*Wc) filter
matrix by XOR + popcount in row blocks -- the binary "GEMM" layout of
XNOR-Net (Rastegari et al., 2016) and daBNN (Zhang et al., 2019).

The filter side of each layout -- the depth-wise window words, or the
regular kernel's filter word matrix and tap popcounts -- depends only on the
weight bits, so a BinaryConvWeights builds it the first time a kernel uses
it and keeps it for every later call, as daBNN packs its weights once ahead
of inference. The packed bits of a BinaryConvWeights must therefore not
change after its first use; new weights need a new BinaryConvWeights.
The tables that depend on the geometry alone (live-tap words, dead-tap
corrections) are likewise built once per input size and ConvSpec.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .tensor import BitTensor, _pack_rows, as_nchw, pack, sign_bits, unpack_bits


@dataclass(frozen=True)
class ConvSpec:
    """Geometry of a convolution layer."""

    in_channels: int
    out_channels: int
    kernel: tuple[int, int] = (3, 3)
    stride: int = 1
    padding: int = 0
    groups: int = 1

    def __post_init__(self):
        kh, kw = self.kernel
        if min(self.in_channels, self.out_channels, kh, kw, self.stride, self.groups) < 1:
            raise ValueError(f"invalid conv spec {self}")
        if self.padding < 0:
            raise ValueError("padding must be >= 0")
        if self.in_channels % self.groups or self.out_channels % self.groups:
            raise ValueError(f"groups={self.groups} must divide both channel counts")

    @property
    def is_depthwise(self) -> bool:
        return self.groups == self.in_channels == self.out_channels

    @property
    def is_pointwise(self) -> bool:
        """1x1, stride 1, no padding, one group: the conv is a matrix product."""
        return self.kernel == (1, 1) and self.stride == 1 and self.padding == 0 and self.groups == 1

    @property
    def group_in(self) -> int:
        return self.in_channels // self.groups

    @property
    def group_out(self) -> int:
        return self.out_channels // self.groups

    def out_hw(self, h: int, w: int) -> tuple[int, int]:
        kh, kw = self.kernel
        ho = (h + 2 * self.padding - kh) // self.stride + 1
        wo = (w + 2 * self.padding - kw) // self.stride + 1
        if ho < 1 or wo < 1:
            raise ValueError(f"kernel {self.kernel} does not fit input {h}x{w} with pad {self.padding}")
        return ho, wo

    def weight_shape(self) -> tuple[int, int, int, int]:
        return (self.out_channels, self.group_in, *self.kernel)

    @functools.lru_cache(maxsize=None)
    def stacked(self, n: int) -> ConvSpec:
        """The one conv of n = 1..4 parallel branches of this one: itself for
        n = 1, else (depth-wise specs only) depth-wise over n*C channels."""
        if not 1 <= n <= 4:
            raise ValueError(f"branch count must be in [1, 4], got {n}")
        if n > 1 and not self.is_depthwise:
            raise ValueError("multiple branches are a depth-wise feature")
        c = n * self.in_channels
        return self if n == 1 else ConvSpec(c, c, self.kernel, self.stride, self.padding, c)

    def macs(self, h: int, w: int) -> int:
        """Multiply-accumulate count for one sample at input resolution h x w."""
        ho, wo = self.out_hw(h, w)
        return ho * wo * self.out_channels * self.group_in * self.kernel[0] * self.kernel[1]


@dataclass
class BinaryConvWeights:
    """Sign-packed filters.

    The kernel operand built from the filter bits (one per kernel kind:
    depth-wise window words, or the regular filter matrix and tap
    popcounts) is built on first use and kept, so ``packed`` must not
    change after that.
    """

    packed: BitTensor
    _operands: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def operand(self, depthwise: bool):
        """The filter side of the depth-wise or regular kernel, built once."""
        if depthwise not in self._operands:
            wbits = unpack_bits(self.packed)
            self._operands[depthwise] = _dw_operand(wbits) if depthwise else _regular_operand(wbits)
        return self._operands[depthwise]


def binarize_weights(w) -> BinaryConvWeights:
    """Pack the sign pattern of a real filter bank (threshold 0)."""
    return BinaryConvWeights(pack(as_nchw(w), 0.0))


def _check_weight_shape(w: np.ndarray, spec: ConvSpec) -> None:
    if tuple(w.shape) != spec.weight_shape():
        raise ValueError(f"weights {w.shape} do not match spec {spec.weight_shape()}")


def _pad_input(x: np.ndarray, padding: int, value=0):
    if padding == 0:
        return x
    n, c, h, w = x.shape
    xp = np.full((n, c, h + 2 * padding, w + 2 * padding), value, dtype=x.dtype)
    xp[:, :, padding : padding + h, padding : padding + w] = x
    return xp


# ---------------------------------------------------------------------------
# Float reference kernels
# ---------------------------------------------------------------------------


def _taps(spec: ConvSpec, ho: int, wo: int) -> list[tuple[slice, slice]]:
    """Row and column slices of a padded plane that each tap reads, row-major."""
    kh, kw = spec.kernel
    s = spec.stride
    return [(slice(di, di + (ho - 1) * s + 1, s), slice(dj, dj + (wo - 1) * s + 1, s))
            for di in range(kh) for dj in range(kw)]


_FLOAT_BLOCK_ELEMS = 1 << 14  # positions x planes per block of the depth-wise float kernels
_FLOAT_BLOCK_PLANES = 32  # planes per block at least


def _dw_blocks(planes: int, plane_elems: int, *arrays):
    """Yield (slice of planes, blocks) over blocks of (sample, channel) planes
    of each ((planes, H, W) array, padding) pair, copied planes-last, as
    (H + 2p, W + 2p, b), into a buffer allocated once whose pad stays zero."""
    block = min(planes, max(_FLOAT_BLOCK_PLANES, _FLOAT_BLOCK_ELEMS // plane_elems))
    bufs = [np.zeros((a.shape[1] + 2 * p, a.shape[2] + 2 * p, block), a.dtype) for a, p in arrays]
    for r in range(0, planes, block):
        sl = slice(r, min(r + block, planes))
        views = [buf[:, :, : sl.stop - r] for buf in bufs]
        for view, (a, p) in zip(views, arrays):
            view[p : view.shape[0] - p, p : view.shape[1] - p] = a[sl].transpose(1, 2, 0)
        yield sl, views


def conv_float(x, w, spec: ConvSpec) -> np.ndarray:
    """Cross-correlation with zero padding.

    Output spatial dims are floor((H + 2p - kh)/s) + 1. A point-wise spec
    is one BLAS matrix product per sample, (O, C) @ (C, H*W), summed in
    BLAS's order. Any other spec is a direct conv: a regular one contracts
    channels per tap (einsum, no BLAS dispatch), a depth-wise one scales
    each block of planes by its channels' weights per tap, and each output
    element sums its taps in row-major order, starting from zero. (Why
    k>1 stays direct: see the module docstring.)
    """
    x = as_nchw(x)
    w = np.asarray(w)
    _check_weight_shape(w, spec)
    n, c, h, win = x.shape
    if c != spec.in_channels:
        raise ValueError(f"input has {c} channels, spec wants {spec.in_channels}")
    ho, wo = spec.out_hw(h, win)
    if spec.is_pointwise:  # (O, C) @ (C, H*W) for each sample
        out = np.matmul(w.reshape(spec.out_channels, c), x.reshape(n, c, h * win))
        return out.reshape(n, spec.out_channels, ho, wo)
    taps = _taps(spec, ho, wo)
    dtype = np.result_type(x.dtype, w.dtype)
    if spec.is_depthwise:
        wt = np.tile(w.reshape(c, -1), (n, 1)).T.copy()  # (taps, planes)
        out = np.empty((n * c, ho, wo), dtype=dtype)
        for sl, (xb,) in _dw_blocks(n * c, ho * wo, (x.reshape(n * c, h, win), spec.padding)):
            acc = np.zeros((ho, wo, xb.shape[2]), dtype=dtype)
            prod = np.empty_like(acc)
            for t, tap in enumerate(taps):
                acc += np.multiply(xb[tap], wt[t, sl], out=prod)
            out[sl] = acc.transpose(2, 0, 1)
        return out.reshape(n, c, ho, wo)
    xp = _pad_input(x, spec.padding)
    out = np.zeros((n, spec.out_channels, ho, wo), dtype=dtype)
    for g in range(spec.groups):
        ci = slice(g * spec.group_in, (g + 1) * spec.group_in)
        co = slice(g * spec.group_out, (g + 1) * spec.group_out)
        wg = w[co].reshape(spec.group_out, spec.group_in, -1)
        for t, (rows, cols) in enumerate(taps):
            out[:, co] += np.einsum("nchw,oc->nohw", xp[:, ci, rows, cols], wg[:, :, t])
    return out


def conv_float_grad_input(gy, w, spec: ConvSpec, in_hw: tuple[int, int]) -> np.ndarray:
    """Gradient of conv_float w.r.t. its input (scatter of gy through w);
    a depth-wise conv scatters each block of planes into a padded buffer."""
    gy = as_nchw(gy)
    w = np.asarray(w)
    _check_weight_shape(w, spec)
    n, c = gy.shape[:2]
    h, win = in_hw
    p = spec.padding
    ho, wo = spec.out_hw(h, win)
    if spec.is_pointwise:  # (C, O) @ (O, H*W) for each sample
        gx = np.matmul(w.reshape(c, spec.in_channels).T, gy.reshape(n, c, ho * wo))
        return gx.astype(gy.dtype, copy=False).reshape(n, spec.in_channels, h, win)
    taps = _taps(spec, ho, wo)
    if spec.is_depthwise:
        wt = np.tile(w.reshape(c, -1), (n, 1)).T.copy()  # (taps, planes)
        gx = np.empty((n * c, h, win), dtype=gy.dtype)
        for sl, (gb,) in _dw_blocks(n * c, h * win, (gy.reshape(n * c, ho, wo), 0)):
            acc = np.zeros((h + 2 * p, win + 2 * p, gb.shape[2]), dtype=gy.dtype)
            prod = np.empty(gb.shape, dtype=np.result_type(gy.dtype, w.dtype))
            for t, tap in enumerate(taps):
                view = acc[tap]
                view += np.multiply(gb, wt[t, sl], out=prod)
            gx[sl] = acc[p : p + h, p : p + win].transpose(2, 0, 1)
        return gx.reshape(n, c, h, win)
    gxp = np.zeros((n, spec.in_channels, h + 2 * p, win + 2 * p), dtype=gy.dtype)
    for g in range(spec.groups):
        ci = slice(g * spec.group_in, (g + 1) * spec.group_in)
        co = slice(g * spec.group_out, (g + 1) * spec.group_out)
        wg = w[co].reshape(spec.group_out, spec.group_in, -1)
        for t, (rows, cols) in enumerate(taps):
            gxp[:, ci, rows, cols] += np.einsum("nohw,oc->nchw", gy[:, co], wg[:, :, t])
    return gxp[:, :, p : p + h, p : p + win]


def conv_float_grad_weight(x, gy, spec: ConvSpec) -> np.ndarray:
    """Gradient of conv_float w.r.t. its weights; a depth-wise conv takes
    each plane's dot with its output gradient per tap, then sums samples."""
    x = as_nchw(x)
    gy = as_nchw(gy)
    n, c, h, win = x.shape
    ho, wo = spec.out_hw(h, win)
    if spec.is_pointwise:  # (O, H*W) @ (H*W, C) for each sample, then the sum over samples
        gw = np.matmul(gy.reshape(n, -1, ho * wo), x.reshape(n, c, h * win).transpose(0, 2, 1))
        return gw.sum(axis=0).reshape(spec.weight_shape())
    taps = _taps(spec, ho, wo)
    dtype = np.result_type(x.dtype, gy.dtype)
    if spec.is_depthwise:
        dots = np.empty((len(taps), n * c), dtype=dtype)  # per tap and (sample, channel) plane
        blocks = _dw_blocks(n * c, ho * wo, (x.reshape(n * c, h, win), spec.padding),
                            (gy.reshape(n * c, ho, wo), 0))
        for sl, (xb, gb) in blocks:
            for t, tap in enumerate(taps):
                np.einsum("hwp,hwp->p", xb[tap], gb, out=dots[t, sl])
        return dots.reshape(len(taps), n, c).sum(axis=1).T.reshape(spec.weight_shape())
    xp = _pad_input(x, spec.padding)
    gw = np.zeros((spec.out_channels, spec.group_in, len(taps)), dtype=dtype)
    for g in range(spec.groups):
        ci = slice(g * spec.group_in, (g + 1) * spec.group_in)
        co = slice(g * spec.group_out, (g + 1) * spec.group_out)
        for t, (rows, cols) in enumerate(taps):
            gw[co, :, t] = np.einsum("nchw,nohw->oc", xp[:, ci, rows, cols], gy[:, co])
    return gw.reshape(spec.weight_shape())


# ---------------------------------------------------------------------------
# Bit-packed binary kernels
# ---------------------------------------------------------------------------


def _tap_validity(h: int, w: int, spec: ConvSpec) -> np.ndarray:
    """Bool (kh, kw, Ho, Wo): whether tap (di,dj) lands in-bounds at each output."""
    kh, kw = spec.kernel
    s, p = spec.stride, spec.padding
    ho, wo = spec.out_hw(h, w)
    oy = np.arange(ho) * s - p
    ox = np.arange(wo) * s - p
    di = np.arange(kh)
    dj = np.arange(kw)
    iy = oy[None, :] + di[:, None]  # (kh, Ho)
    ix = ox[None, :] + dj[:, None]  # (kw, Wo)
    vy = (iy >= 0) & (iy < h)
    vx = (ix >= 0) & (ix < w)
    return vy[:, None, :, None] & vx[None, :, None, :]


def _window_dtype(taps: int) -> np.dtype:
    """Narrowest unsigned word holding one bit per tap (uint8 .. uint64)."""
    if taps > 64:
        raise ValueError("window does not fit a 64-bit word")
    return np.dtype(f"uint{max(8, 1 << (taps - 1).bit_length())}")


_BLOCK_ELEMS = 1 << 16  # output elements (rows x filters, or planes x positions) per block


@functools.lru_cache(maxsize=256)
def _dw_live(h: int, w: int, spec: ConvSpec) -> tuple[np.ndarray, np.ndarray]:
    """Window word of the in-bounds taps at each output position (Ho, Wo),
    and its popcount as int32. Geometry only, so built once per (h, w, spec)."""
    kh, kw = spec.kernel
    dt = _window_dtype(kh * kw)
    valid = _tap_validity(h, w, spec).reshape(kh * kw, *spec.out_hw(h, w)).astype(dt)
    live = np.bitwise_or.reduce(valid << np.arange(kh * kw, dtype=dt)[:, None, None], axis=0)
    count = np.bitwise_count(live).astype(np.int32)
    live.flags.writeable = count.flags.writeable = False
    return live, count


def _dw_operand(wbits: np.ndarray) -> np.ndarray:
    """Window word of each channel's filter: bit t is tap t (row-major)."""
    c, _, kh, kw = wbits.shape
    dt = _window_dtype(kh * kw)
    taps = wbits.reshape(c, kh * kw).astype(dt)
    return np.bitwise_or.reduce(taps << np.arange(kh * kw, dtype=dt), axis=1)


def _dw_conv_int(xbits: np.ndarray, wwin: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """Integer depth-wise conv of +/-1 operands.

    xbits is the 0/1 input bit array and wwin the filter window words of
    _dw_operand. Packs each window's taps into a single word per output
    position and reduces it with one XNOR + popcount -- the whole window dot
    is a pair of word ops. The word is the narrowest unsigned type that
    holds kh*kw bits (uint16 for 3x3, up to uint64 for 64 taps), so every
    plane op moves as few bytes as the window allows. The (sample, channel)
    planes are processed in blocks whose buffers are allocated once and stay
    cache-resident. Requires kh*kw <= 64.
    """
    n, c, h, w = xbits.shape
    dt = _window_dtype(spec.kernel[0] * spec.kernel[1])
    p = spec.padding
    ho, wo = spec.out_hw(h, w)
    live, live_count = _dw_live(h, w, spec)
    wrows = np.tile(wwin, n)  # filter window of each (sample, channel) plane

    planes = xbits.reshape(n * c, h, w)
    out = np.empty((n * c, ho, wo), dtype=np.int32)
    block = max(1, _BLOCK_ELEMS // (ho * wo))
    xbp = np.zeros((block, h + 2 * p, w + 2 * p), dtype=dt)  # the pad ring stays zero
    win = np.empty((block, ho, wo), dtype=dt)
    shifted = np.empty_like(win)
    taps = _taps(spec, ho, wo)
    for r in range(0, n * c, block):
        b = min(block, n * c - r)
        xbp[:b, p : p + h, p : p + w] = planes[r : r + b]
        acc = win[:b]
        acc[...] = 0
        for t, (rows, cols) in enumerate(taps):
            np.left_shift(xbp[:b, rows, cols], dt.type(t), out=shifted[:b])
            acc |= shifted[:b]
        # XNOR with the filter window, live taps only
        acc ^= wrows[r : r + b, None, None]
        np.invert(acc, out=acc)
        acc &= live
        np.multiply(np.bitwise_count(acc), 2, out=out[r : r + b], dtype=np.int32)
    out -= live_count
    return out.reshape(n, c, ho, wo)


def _regular_operand(wbits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Filter word matrix (kh*kw*Wc, O) and per-tap popcounts (O, kh*kw)."""
    o, _, kh, kw = wbits.shape
    ww = _pack_rows(np.moveaxis(wbits, 1, -1).astype(bool))  # (O, kh, kw, Wc)
    wcols = np.ascontiguousarray(ww.reshape(o, -1).T)
    wpop = np.bitwise_count(ww).sum(axis=-1, dtype=np.int32).reshape(o, kh * kw)
    return wcols, wpop


@functools.lru_cache(maxsize=256)
def _regular_edges(h: int, w: int, spec: ConvSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Output positions with a dead (padding) tap, their (kh*kw, edges) 0/1
    dead-tap matrix, and the live input elements (channels x live taps) of
    every position. Geometry only, so built once per (h, w, spec)."""
    kh, kw = spec.kernel
    valid = _tap_validity(h, w, spec).reshape(kh * kw, -1)
    edge = np.flatnonzero(~valid.all(axis=0))
    dead_taps = (~valid[:, edge]).astype(np.int32)
    live = spec.in_channels * valid.sum(axis=0, dtype=np.int32)
    edge.flags.writeable = dead_taps.flags.writeable = live.flags.writeable = False
    return edge, dead_taps, live


def _regular_conv_int(xbits: np.ndarray, operand, spec: ConvSpec) -> np.ndarray:
    """Integer regular conv of +/-1 operands as one XNOR-popcount "GEMM".

    xbits is the 0/1 input bit array and operand the (wcols, wpop) pair of
    _regular_operand. The channel axis is packed into 64-bit words (Wc per
    position) and every tap of every output position is gathered once into
    an im2col matrix of shape (N*Ho*Wo, kh*kw*Wc) words; wcols holds the
    filters in the same order, transposed to (kh*kw*Wc, O). Row blocks of
    the im2col are reduced against all filters by XOR + popcount, one word
    column at a time, so the block-sized temporaries stay cache-resident.

    The reduction counts disagreements. Channel pad bits are zero in both
    operands, so they never disagree. A dead (padding) tap gathers an
    all-zero word, which disagrees with exactly the filter's +1 bits; that
    weight popcount is subtracted per output position afterwards instead
    of masking dead taps one by one. Over the live elements,
    dot = live - 2 * disagree.
    """
    n, c, h, w = xbits.shape
    kh, kw = spec.kernel
    p = spec.padding
    ho, wo = spec.out_hw(h, w)
    o = spec.out_channels

    # channel-packed input (N, Hp, Wp, Wc) and im2col (N*Ho*Wo, kh*kw*Wc)
    xt = np.zeros((n, h + 2 * p, w + 2 * p, c), dtype=bool)
    xt[:, p : p + h, p : p + w, :] = np.moveaxis(xbits, 1, -1)
    xw = _pack_rows(xt)
    nchan_words = xw.shape[-1]
    cols = np.empty((n, ho, wo, kh * kw, nchan_words), dtype=np.uint64)
    for t, (rows, tap_cols) in enumerate(_taps(spec, ho, wo)):
        cols[:, :, :, t] = xw[:, rows, tap_cols]
    cols = cols.reshape(n * ho * wo, -1)
    wcols, wpop = operand

    rows = cols.shape[0]
    block = max(1, _BLOCK_ELEMS // o)
    disagree = np.empty((rows, o), dtype=np.uint16 if kh * kw * c < 1 << 16 else np.uint32)
    xor = np.empty((block, o), dtype=np.uint64)
    count = np.empty((block, o), dtype=np.uint8)
    for r in range(0, rows, block):
        blk = cols[r : r + block]
        b = blk.shape[0]
        acc = disagree[r : r + b]
        acc[...] = 0
        for k in range(cols.shape[1]):
            np.bitwise_xor(blk[:, k, None], wcols[k], out=xor[:b])
            np.bitwise_count(xor[:b], out=count[:b])
            acc += count[:b]

    # disagreements that dead taps added, only at the edge positions that have them
    edge, dead_taps, live = _regular_edges(h, w, spec)
    dead = np.zeros((o, ho * wo), dtype=np.int32)
    dead[:, edge] = wpop @ dead_taps
    base = live + 2 * dead
    acc = disagree.reshape(n, ho * wo, o).transpose(0, 2, 1).astype(np.int32, order="C")
    acc *= -2
    acc += base
    return acc.reshape(n, o, ho, wo)


def conv_binary(xbits, w: BinaryConvWeights, spec: ConvSpec) -> np.ndarray:
    """Binary convolution on packed filters: the exact int32 counts.

    xbits is the bool (N, C, H, W) sign pattern of tensor.sign_bits, read as
    is. Accumulates via XNOR-popcount in 32-bit integers, which equal the
    float kernel on decoded +/-1 operands exactly; the caller scales them.
    Supports groups in {1, in_channels}. The filter side of the kernel comes
    from w.operand, built on w's first use.
    """
    if spec.groups != 1 and not spec.is_depthwise:
        raise ValueError(f"unsupported groups {spec.groups} (use 1 or depth-wise)")
    xbits = as_nchw(xbits)
    if xbits.dtype != bool:
        raise ValueError(f"input bits must be a bool array, got {xbits.dtype}")
    if xbits.shape[1] != spec.in_channels:
        raise ValueError(f"input has {xbits.shape[1]} channels, spec wants {spec.in_channels}")
    if w.packed.shape != spec.weight_shape():
        raise ValueError(f"weights {w.packed.shape} do not match spec {spec.weight_shape()}")
    kernel = _dw_conv_int if spec.is_depthwise else _regular_conv_int
    return kernel(xbits, w.operand(spec.is_depthwise), spec)


def conv_multi_dw(x, thresholds, bank: BinaryConvWeights, magnitudes, spec: ConvSpec) -> np.ndarray:
    """Sum of N parallel binary convs of x, 1 <= N <= 4 (N > 1 depth-wise only).

    Branch i convolves the sign bits x >= thresholds[i] (thresholds is
    (N, C)) with its O filters and scales them by magnitudes[i] (magnitudes
    is (N, O)). bank holds all N*O sign filters, branch-major; its kernel
    operand is built on first use and kept. The branches run as one
    conv_binary over the N*C stacked channels of spec.stacked(N). Each
    branch's exact integer counts are multiplied by its magnitudes straight
    into the dtype of x and the magnitudes, once, and summed over the
    branches in order into one output.
    """
    thresholds = np.asarray(thresholds)
    magnitudes = np.asarray(magnitudes)
    if thresholds.ndim != 2 or thresholds.shape[1] != spec.in_channels:
        raise ValueError(f"thresholds must be (N, {spec.in_channels}), got {thresholds.shape}")
    n = thresholds.shape[0]
    kspec = spec.stacked(n)
    if magnitudes.shape != (n, spec.out_channels):
        raise ValueError(f"magnitudes must be {(n, spec.out_channels)}, got {magnitudes.shape}")
    counts = conv_binary(sign_bits(x, thresholds), bank, kspec)
    counts = counts.reshape(counts.shape[0], n, -1, *counts.shape[2:])  # (batch, N, O, Ho, Wo)
    m = magnitudes[:, :, None, None]
    dtype = np.result_type(x, magnitudes)
    out = np.multiply(counts[:, 0], m[0], dtype=dtype)
    for i in range(1, n):
        out += np.multiply(counts[:, i], m[i], dtype=dtype)
    return out


def branch_sum(t: np.ndarray) -> np.ndarray:
    """Sum of a (batch, N, ...) array over its branch axis, in branch order."""
    out = t[:, 0] if t.shape[1] == 1 else t[:, 0] + t[:, 1]
    for i in range(2, t.shape[1]):
        out += t[:, i]
    return out
