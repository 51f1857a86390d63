"""Batch normalization, activation, and the residual block topologies.

Three block wirings around a convolution:

* post-BN residual: y = BN(conv(x)) + x        (the conventional wiring)
* pre-BN residual:  y = BN(conv(x) + x) + x    (skip into the BN input,
  plus the usual outer skip; with a linear conv of Jacobian Jdw this gives
  an end-to-end Jacobian a*Jdw + (a+1)*I instead of a*Jdw + I, where a is
  the BN scaling factor gamma/sqrt(var+eps))
* no residual:      y = BN(conv(x))

When the conv downsamples (stride 2) the skip path is 2x2 average pooled
before each add.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .tensor import as_nchw

BN_EPS = 1e-5
BN_MOMENTUM = 0.1


@dataclass
class BNParams:
    """Per-channel batch-norm state: y = gamma/sqrt(var+eps) * (x - mu) + beta_shift."""

    gamma: np.ndarray
    beta_shift: np.ndarray
    mu: np.ndarray
    var: np.ndarray
    eps: float = BN_EPS

    def __post_init__(self):
        self.gamma = np.atleast_1d(np.asarray(self.gamma, dtype=np.float64))
        c = self.gamma.size
        self.beta_shift = np.broadcast_to(np.asarray(self.beta_shift, dtype=np.float64), (c,)).copy()
        self.mu = np.broadcast_to(np.asarray(self.mu, dtype=np.float64), (c,)).copy()
        self.var = np.broadcast_to(np.asarray(self.var, dtype=np.float64), (c,)).copy()
        if self.eps <= 0:
            raise ValueError("eps must be > 0")
        if np.any(self.var < 0):
            raise ValueError("variance must be >= 0")

    @property
    def channels(self) -> int:
        return self.gamma.size

    def alpha_bn(self) -> np.ndarray:
        """The scaling factor gamma / sqrt(var + eps)."""
        return self.gamma / np.sqrt(self.var + self.eps)

    @staticmethod
    def identity(channels: int) -> "BNParams":
        return BNParams(np.ones(channels), np.zeros(channels), np.zeros(channels), np.ones(channels))


class BlockTopology(enum.Enum):
    POST_BN_RESIDUAL = "post_bn"
    PRE_BN_RESIDUAL = "pre_bn"
    NO_RESIDUAL = "none"


def batchnorm_forward(x, p: BNParams, training: bool = False, momentum: float = BN_MOMENTUM,
                      update_stats: bool = True) -> np.ndarray:
    """Per-channel batch normalization.

    Eval mode normalizes with the stored running statistics. Training mode
    normalizes with the current batch statistics and, unless update_stats
    is False, folds them into the running ones with the given momentum.
    """
    t = as_nchw(x)
    if t.shape[1] != p.channels:
        raise ValueError(f"channel mismatch: tensor has {t.shape[1]}, params {p.channels}")
    if training:
        mu = t.mean(axis=(0, 2, 3))
        var = t.var(axis=(0, 2, 3))
        if update_stats:
            p.mu += momentum * (mu - p.mu)
            p.var += momentum * (var - p.var)
    else:
        mu, var = p.mu, p.var
    alpha = p.gamma / np.sqrt(var + p.eps)
    return alpha.reshape(1, -1, 1, 1) * (t - mu.reshape(1, -1, 1, 1)) + p.beta_shift.reshape(1, -1, 1, 1)


def batchnorm_forward_train(x, p: BNParams, momentum: float = BN_MOMENTUM,
                            update_stats: bool = True):
    """Training-mode forward that also returns the cache for the backward pass."""
    t = as_nchw(x)
    mu = t.mean(axis=(0, 2, 3))
    var = t.var(axis=(0, 2, 3))
    if update_stats:
        p.mu += momentum * (mu - p.mu)
        p.var += momentum * (var - p.var)
    inv_std = 1.0 / np.sqrt(var + p.eps)
    xhat = (t - mu.reshape(1, -1, 1, 1)) * inv_std.reshape(1, -1, 1, 1)
    y = p.gamma.reshape(1, -1, 1, 1) * xhat + p.beta_shift.reshape(1, -1, 1, 1)
    return y, (xhat, inv_std, p.gamma)


def batchnorm_backward(gy, cache):
    """Backward for batch statistics mode; returns (gx, dgamma, dbeta)."""
    xhat, inv_std, gamma = cache
    m = gy.shape[0] * gy.shape[2] * gy.shape[3]
    dgamma = np.einsum("nchw,nchw->c", gy, xhat)
    dbeta = gy.sum(axis=(0, 2, 3))
    gxhat = gy * gamma.reshape(1, -1, 1, 1)
    gx = (inv_std.reshape(1, -1, 1, 1) / m) * (
        m * gxhat
        - gxhat.sum(axis=(0, 2, 3)).reshape(1, -1, 1, 1)
        - xhat * np.einsum("nchw,nchw->c", gxhat, xhat).reshape(1, -1, 1, 1)
    )
    return gx, dgamma, dbeta


def avg_pool2(x) -> np.ndarray:
    """2x2 average pooling with stride 2 (spatial dims must be even)."""
    t = as_nchw(x)
    n, c, h, w = t.shape
    if h % 2 or w % 2:
        raise ValueError(f"avg_pool2 needs even spatial dims, got {h}x{w}")
    return t.reshape(n, c, h // 2, 2, w // 2, 2).mean(axis=(3, 5))


def avg_pool2_backward(gy) -> np.ndarray:
    return np.repeat(np.repeat(gy, 2, axis=2), 2, axis=3) / 4.0


def _skip_path(x, out_hw: tuple[int, int]) -> np.ndarray:
    """Identity skip, average-pooled if the conv halved the spatial dims."""
    t = as_nchw(x)
    if (t.shape[2], t.shape[3]) == tuple(out_hw):
        return t
    if (t.shape[2] // 2, t.shape[3] // 2) == tuple(out_hw):
        return avg_pool2(t)
    raise ValueError(f"no skip rule from {t.shape[2:]} to {tuple(out_hw)}")


def pre_bn_block(x, conv, p: BNParams, training: bool = False) -> np.ndarray:
    """Residual block with the skip added to the BN *input*: y = BN(conv(x)+r) + r."""
    z = conv(x)
    if z.shape[1] != as_nchw(x).shape[1]:
        raise ValueError("pre-BN block requires the conv to preserve channels")
    r = _skip_path(x, z.shape[2:])
    return batchnorm_forward(z + r, p, training) + r


def post_bn_block(x, conv, p: BNParams, training: bool = False) -> np.ndarray:
    """Conventional residual block: y = BN(conv(x)) + r."""
    z = conv(x)
    if z.shape[1] != as_nchw(x).shape[1]:
        raise ValueError("post-BN block requires the conv to preserve channels")
    r = _skip_path(x, z.shape[2:])
    return batchnorm_forward(z, p, training) + r


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


def shifted_prelu(x, shift_in, slope, shift_out) -> np.ndarray:
    """Per-channel shifted PReLU: y = prelu(x - shift_in; slope) + shift_out."""
    t = as_nchw(x)
    c = t.shape[1]
    si = np.broadcast_to(np.asarray(shift_in, dtype=np.float64), (c,)).reshape(1, c, 1, 1)
    sl = np.broadcast_to(np.asarray(slope, dtype=np.float64), (c,)).reshape(1, c, 1, 1)
    so = np.broadcast_to(np.asarray(shift_out, dtype=np.float64), (c,)).reshape(1, c, 1, 1)
    z = t - si
    return np.where(z >= 0, z, sl * z) + so
