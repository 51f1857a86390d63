"""Residual block topologies and the skip-path helpers they use.

Three block wirings around a convolution:

* post-BN residual: y = BN(conv(x)) + x        (the conventional wiring)
* pre-BN residual:  y = BN(conv(x) + x) + x    (skip into the BN input,
  plus the usual outer skip; with a linear conv of Jacobian Jdw this gives
  an end-to-end Jacobian a*Jdw + (a+1)*I instead of a*Jdw + I, where a is
  the BN scaling factor gamma/sqrt(var+eps))
* no residual:      y = BN(conv(x))

When the conv downsamples (stride 2) the skip path is 2x2 average pooled
before each add, and when it widens the channels the skip is broadcast
cyclically. The wirings are run by bitconv.model.Block, which also holds
the batch norm (model.BatchNorm) and the activation (model.ShiftedPReLU).
"""

from __future__ import annotations

import enum

import numpy as np

from .tensor import as_nchw

BN_EPS = 1e-5
BN_MOMENTUM = 0.1


class BlockTopology(enum.Enum):
    POST_BN_RESIDUAL = "post_bn"
    PRE_BN_RESIDUAL = "pre_bn"
    NO_RESIDUAL = "none"


def avg_pool2(x) -> np.ndarray:
    """2x2 average pooling with stride 2 (spatial dims must be even)."""
    t = as_nchw(x)
    n, c, h, w = t.shape
    if h % 2 or w % 2:
        raise ValueError(f"avg_pool2 needs even spatial dims, got {h}x{w}")
    # this pairwise sum rounds exactly as the mean over each 2x2 window does
    top, bottom = t[:, :, 0::2], t[:, :, 1::2]
    return ((top[..., 0::2] + top[..., 1::2]) + (bottom[..., 0::2] + bottom[..., 1::2])) / 4


def avg_pool2_backward(gy) -> np.ndarray:
    return np.repeat(np.repeat(gy, 2, axis=2), 2, axis=3) / 4.0


def broadcast_residual(x_prev, target_channels: int) -> np.ndarray:
    """Cyclically replicate channels so a skip can cross a widening layer.

    Output channel j is input channel j mod C_in; identity when the width
    already matches. Narrowing is not supported.
    """
    t = as_nchw(x_prev)
    c = t.shape[1]
    if target_channels < c:
        raise ValueError(f"cannot broadcast {c} channels down to {target_channels}")
    if target_channels == c:
        return t
    idx = np.arange(target_channels) % c
    return t[:, idx, :, :]


def broadcast_residual_backward(gy, in_channels: int) -> np.ndarray:
    """Fold the gradient of a broadcast skip back onto the source channels."""
    gy = as_nchw(gy)
    c_out = gy.shape[1]
    gx = np.zeros((gy.shape[0], in_channels, gy.shape[2], gy.shape[3]), dtype=gy.dtype)
    for j in range(c_out):
        gx[:, j % in_channels] += gy[:, j]
    return gx
