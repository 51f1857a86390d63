"""Network builder for desk-scale binary depth-wise stacks, and checkpoints.

Built networks are MobileNet-V1-style: a full-precision stem conv and
classifier head, and in between alternating depth-wise blocks (binary,
with 1..4 parallel sign branches) and binary 1x1 point-wise blocks. Each
block wires conv -> BN -> residual (per the configured topology) ->
shifted PReLU. Variant "B" keeps stride-2 depth-wise convs in full
precision; variant "A" binarizes everything between stem and head.

Every layer implements its own backward pass; quantizers use the clipped
straight-through estimator and the magnitudes/thresholds receive the
gradients of the continuous surrogate. A binary layer runs all its branches
as one float conv over their stacked channels, through one quantizer path
whose inputs are live, or replayed from a capture for curvature probes.
A packed forward (forward(x, packed=True)) is the same forward with the
float conv swapped for the bit-packed kernel: conv_binary over the stacked
sign bits of the input (tensor.sign_bits at each branch's thresholds)
against the layer's one packed bank of N*C sign filters. Its integer
counts are exact in the net dtype, so the shared tail (per-branch
magnitude, then the branch sum) rounds as the float path does, and the
two match bit for bit in float32 and float64 nets. The bank, with the
kernel operand it builds on first use, is kept with a copy of the latent
weights it was packed from and rebuilt only when the live weights differ
from that copy, whatever changed them.
"""

from __future__ import annotations

import io
import json
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import layers as L
from . import tensor as T
from .analysis import LayerCost, conv_cost
from .kernels import (BinaryConvWeights, ConvSpec, branch_sum, conv_binary, conv_float,
                      conv_float_grad_input, conv_float_grad_weight)
from .layers import BlockTopology

STE_CLIP = 1.0
FORMAT_VERSION = 1
CKPT_MAGIC = b"BDCK"


# ---------------------------------------------------------------------------
# Layers
# ---------------------------------------------------------------------------


class Layer:
    """Defaults for a layer: no parameters, buffers or cost, and the output
    keeps the input's spatial size. Subclasses override what they have."""

    def params(self):
        return {}

    def grads(self):
        return {}

    def filter_params(self):
        """Names of the filter weights: the ones weight decay and the
        landscape directions act on."""
        return set()

    def buffers(self):
        return {}

    def layer_costs(self, in_hw):
        return []

    def out_hw(self, in_hw):
        return in_hw

    def post_step(self):
        pass


class FloatConv(Layer):
    """Full-precision convolution layer (no bias; BN follows)."""

    def __init__(self, name: str, spec: ConvSpec, rng, dtype=np.float32):
        self.name = name
        self.spec = spec
        fan_in = spec.group_in * spec.kernel[0] * spec.kernel[1]
        self.w = (rng.standard_normal(spec.weight_shape()) * np.sqrt(2.0 / fan_in)).astype(dtype)
        self.gw = np.zeros_like(self.w)
        self._x = None

    def params(self):
        return {"w": self.w}

    def grads(self):
        return {"w": self.gw}

    def filter_params(self):
        return {"w"}

    def forward(self, x, training=False, packed=False):
        """The float conv; packed is accepted and ignored (one form only)."""
        self._x = x
        return conv_float(x, self.w, self.spec)

    def backward(self, gy):
        self.gw += conv_float_grad_weight(self._x, gy, self.spec)
        return conv_float_grad_input(gy, self.w, self.spec, self._x.shape[2:])

    def layer_costs(self, in_hw):
        return [conv_cost(self.spec, in_hw, False, self.name)]

    def out_hw(self, in_hw):
        return self.spec.out_hw(*in_hw)


class MultiBinaryConv(Layer):
    """Binary conv with N parallel sign branches (N=1 for point-wise layers).

    Each branch has its own latent weights, per-output-channel magnitude,
    and per-input-channel activation threshold. With weights_binary False
    (step one of two-step training) the latent weights are used directly
    and magnitudes are inactive; activations are always sign-quantized.

    All branches run as one float conv over N*C stacked channels, with one
    forward and backward for the quantizer modes (freeze_mode) None (live),
    "capture" and "use". The +/-1 activations and weights and the clip
    masks come from the live values, or in "use" mode from the last
    "capture": each quantizer is then the affine map value + clip_mask *
    (arg - arg_at_capture), the path the straight-through backward follows.
    With packed=True that conv is conv_binary on the live sign bits and the
    layer's packed bank; the magnitudes and the branch sum are shared, and
    there is no backward.
    """

    def __init__(self, name: str, spec: ConvSpec, n_branches: int, rng, dtype=np.float32):
        if n_branches < 1 or n_branches > 4:
            raise ValueError("branch count must be in [1, 4]")
        if n_branches > 1 and not spec.is_depthwise:
            raise ValueError("multiple branches are a depth-wise feature")
        self.name = name
        self.spec = spec
        self.n = n_branches
        c = n_branches * spec.in_channels
        self.stacked_spec = spec if n_branches == 1 else ConvSpec(c, c, spec.kernel, spec.stride, spec.padding, c)
        self.weights_binary = True
        fan_in = spec.group_in * spec.kernel[0] * spec.kernel[1]
        # one (N, ...) array per kind of parameter and gradient, indexed by branch
        self.w = np.stack([(rng.standard_normal(spec.weight_shape()) * np.sqrt(2.0 / fan_in)).astype(dtype)
                            for _ in range(n_branches)])
        self.beta = np.zeros((n_branches, spec.out_channels), dtype=dtype)
        self.thr = np.empty((n_branches, spec.in_channels), dtype=dtype)
        # spread initial thresholds symmetrically so branch levels differ at init
        self.thr[...] = np.linspace(-0.25, 0.25, n_branches)[:, None] if n_branches > 1 else 0.0
        self.gw, self.gbeta, self.gthr = (np.zeros_like(a) for a in (self.w, self.beta, self.thr))
        self.init_magnitudes()
        self._cache = None
        self._packed = None  # (latent weights copied at packing, packed bank of N*C filters)
        # quantization-decision freezing for curvature probes: None (live),
        # "capture" (record decisions this forward), "use" (replay them)
        self.freeze_mode = None
        self._frozen = None

    def init_magnitudes(self):
        """Per-output-channel magnitude = mean |latent weight|, scaled 1/N."""
        self.beta[...] = np.abs(self.w).mean(axis=(2, 3, 4)) / self.n

    def params(self):
        return {f"{k}{i}": getattr(self, k)[i] for i in range(self.n) for k in ("w", "beta", "thr")}

    def grads(self):
        return {f"{k}{i}": getattr(self, "g" + k)[i] for i in range(self.n) for k in ("w", "beta", "thr")}

    def filter_params(self):
        return {f"w{i}" for i in range(self.n)}

    def _clip_masks(self, x):
        """Clip masks |arg| <= STE_CLIP of the live input per branch and of the weights."""
        d = x[:, None] - self.thr[None, :, :, None, None]
        np.abs(d, out=d)
        return d <= STE_CLIP, np.abs(self.w.reshape(self.stacked_spec.weight_shape())) <= STE_CLIP

    def forward(self, x, training=False, packed=False):
        w = self.w.reshape(self.stacked_spec.weight_shape())  # (N*O, C/groups, kh, kw)
        if packed:  # the float conv below, with the bit-packed kernel swapped in
            if not self.weights_binary:
                raise RuntimeError("packed forward requires binarized weights")
            if self._packed is None or not np.array_equal(self._packed[0], self.w):
                self._packed = (self.w.copy(), BinaryConvWeights(T.pack(w, 0.0)))
            z = conv_binary(T.sign_bits(x, self.thr), self._packed[1], self.stacked_spec)
            z = z.astype(np.result_type(x, w), copy=False)
        else:
            if self.freeze_mode == "use":  # value + clip_mask * (arg - arg_at_capture)
                if self._frozen is None:
                    raise RuntimeError("no captured quantization decisions to replay")
                fz = self._frozen
                a = (x - fz["x0"])[:, None] * fz["mask_x"]
                a += fz["a"]
                ws = (w - fz["w0"]) * fz["mask_w"]
                ws += fz["ws"]
            else:
                a = (x[:, None] >= self.thr[None, :, :, None, None]).astype(x.dtype) * 2 - 1
                ws = (w >= 0).astype(w.dtype) * 2 - 1 if self.weights_binary else w
            if self.freeze_mode == "capture":
                if not self.weights_binary:
                    raise RuntimeError("quantization freezing requires binarized weights")
                mask_x, mask_w = self._clip_masks(x)
                self._frozen = {"x0": x.copy(), "a": a, "ws": ws, "w0": w.copy(), "mask_x": mask_x, "mask_w": mask_w}
            a = a.reshape(x.shape[0], -1, *x.shape[2:])  # (batch, N*C, H, W)
            z = conv_float(a, ws, self.stacked_spec)
        z = z.reshape(x.shape[0], self.n, -1, *z.shape[2:])  # (batch, N, O, Ho, Wo)
        self._cache = None if packed else (x, a, ws, z)  # a packed forward has no backward
        if self.weights_binary:  # the kernel's output is fresh, so it is scaled in place
            z = np.multiply(z, self.beta[None, :, :, None, None], out=z if packed else None)
        return branch_sum(z)

    def backward(self, gy):
        if self._cache is None:
            raise RuntimeError("backward needs a float (non-packed) forward first")
        x, a, ws, z = self._cache
        fz = self._frozen if self.freeze_mode == "use" else None
        mask_x, mask_w = self._clip_masks(x) if fz is None else (fz["mask_x"], fz["mask_w"])
        if self.weights_binary:
            self.gbeta += np.einsum("nohw,nkohw->ko", gy, z)
            gz = gy[:, None] * self.beta[None, :, :, None, None]
        else:
            gz = np.broadcast_to(gy[:, None], z.shape)
        gz = gz.reshape(a.shape[0], -1, *gy.shape[2:])
        gws = conv_float_grad_weight(a, gz, self.stacked_spec)
        if self.weights_binary:
            gws *= mask_w
        self.gw += gws.reshape(self.gw.shape)
        ga = conv_float_grad_input(gz, ws, self.stacked_spec, a.shape[2:]).reshape(mask_x.shape)
        ga *= mask_x
        self.gthr -= ga.sum(axis=(0, 3, 4))
        return branch_sum(ga)

    def post_step(self):
        """Keep branch thresholds sorted per channel by permuting whole branches.

        Swapping the full (threshold, magnitude, weights) triples preserves
        the layer function exactly while restoring the boundary ordering.
        """
        if self.n < 2 or not self.spec.is_depthwise:
            return
        order = np.argsort(self.thr, axis=0, kind="stable")
        cols = np.arange(self.thr.shape[1])
        for a in (self.thr, self.beta, self.w):
            a[...] = a[order, cols]

    def layer_costs(self, in_hw):
        return [conv_cost(self.spec, in_hw, self.weights_binary, self.name, self.n)]

    def out_hw(self, in_hw):
        return self.spec.out_hw(*in_hw)


class BatchNorm(Layer):
    """Batch normalization layer with running statistics buffers."""

    def __init__(self, name: str, channels: int, dtype=np.float32):
        self.name = name
        self.gamma = np.ones(channels, dtype=dtype)
        self.beta = np.zeros(channels, dtype=dtype)
        self.mu = np.zeros(channels, dtype=dtype)
        self.var = np.ones(channels, dtype=dtype)
        self.eps = L.BN_EPS
        self.momentum = L.BN_MOMENTUM
        self.update_stats = True
        self.ggamma = np.zeros_like(self.gamma)
        self.gbeta = np.zeros_like(self.beta)
        self._cache = None
        self._training = False

    def params(self):
        return {"gamma": self.gamma, "beta": self.beta}

    def grads(self):
        return {"gamma": self.ggamma, "beta": self.gbeta}

    def buffers(self):
        return {"mu": self.mu, "var": self.var}

    def alpha_bn(self, batch=False):
        if batch and self._cache is not None:
            return self.gamma / np.sqrt(self._cache[3] + self.eps)
        return self.gamma / np.sqrt(self.var + self.eps)

    def forward(self, x, training=False):
        self._training = training
        if training:
            mu = x.mean(axis=(0, 2, 3))
            var = x.var(axis=(0, 2, 3))
            if self.update_stats:
                self.mu += self.momentum * (mu - self.mu)
                self.var += self.momentum * (var - self.var)
        else:
            mu, var = self.mu, self.var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat = x - mu.reshape(1, -1, 1, 1)
        xhat *= inv_std.reshape(1, -1, 1, 1)
        self._cache = (xhat, inv_std, mu, var)
        y = self.gamma.reshape(1, -1, 1, 1) * xhat
        y += self.beta.reshape(1, -1, 1, 1)
        return y

    def backward(self, gy):
        xhat, inv_std, mu, var = self._cache
        self.gbeta += gy.sum(axis=(0, 2, 3))
        self.ggamma += np.einsum("nchw,nchw->c", gy, xhat)
        gxhat = gy * self.gamma.reshape(1, -1, 1, 1)
        if not self._training:
            return gxhat * inv_std.reshape(1, -1, 1, 1)
        m = gy.shape[0] * gy.shape[2] * gy.shape[3]
        return (inv_std.reshape(1, -1, 1, 1) / m) * (
            m * gxhat
            - gxhat.sum(axis=(0, 2, 3)).reshape(1, -1, 1, 1)
            - xhat * np.einsum("nchw,nchw->c", gxhat, xhat).reshape(1, -1, 1, 1)
        )


class ShiftedPReLU(Layer):
    """Per-channel RPReLU-style activation: prelu(x - shift_in) + shift_out."""

    def __init__(self, name: str, channels: int, dtype=np.float32):
        self.name = name
        self.shift_in = np.zeros(channels, dtype=dtype)
        self.slope = np.full(channels, 0.25, dtype=dtype)
        self.shift_out = np.zeros(channels, dtype=dtype)
        self.gshift_in = np.zeros_like(self.shift_in)
        self.gslope = np.zeros_like(self.slope)
        self.gshift_out = np.zeros_like(self.shift_out)
        self._cache = None

    def params(self):
        return {"shift_in": self.shift_in, "slope": self.slope, "shift_out": self.shift_out}

    def grads(self):
        return {"shift_in": self.gshift_in, "slope": self.gslope, "shift_out": self.gshift_out}

    def forward(self, x, training=False):
        z = x - self.shift_in.reshape(1, -1, 1, 1)
        self._cache = z
        y = np.where(z >= 0, z, self.slope.reshape(1, -1, 1, 1) * z)
        y += self.shift_out.reshape(1, -1, 1, 1)
        return y

    def backward(self, gy):
        z = self._cache
        sl = self.slope.reshape(1, -1, 1, 1)
        dz = np.where(z >= 0, 1.0, sl).astype(gy.dtype)
        self.gshift_out += gy.sum(axis=(0, 2, 3))
        self.gslope += np.einsum("nchw,nchw->c", gy, np.where(z < 0, z, 0.0))
        gz = gy * dz
        self.gshift_in += -gz.sum(axis=(0, 2, 3))
        return gz


class Block:
    """conv -> BN -> residual (topology) -> activation, with backward."""

    def __init__(self, name: str, conv, bn: BatchNorm, act: ShiftedPReLU,
                 topology: BlockTopology, in_channels: int, out_channels: int):
        self.name = name
        self.conv = conv
        self.bn = bn
        self.act = act
        self.topology = topology
        self.in_channels = in_channels
        self.out_channels = out_channels
        self._cache = None

    def sublayers(self):
        return [("conv", self.conv), ("bn", self.bn), ("act", self.act)]

    def _skip(self, x, out_hw):
        r = x
        pooled = False
        if (x.shape[2], x.shape[3]) != tuple(out_hw):
            r = L.avg_pool2(x)
            pooled = True
        broadcast = r.shape[1] != self.out_channels
        if broadcast:
            r = L.broadcast_residual(r, self.out_channels)
        return r, pooled, broadcast

    def forward(self, x, training=False, packed=False):
        z = self.conv.forward(x, training, packed)
        # a narrowing layer has no residual path (channel reduction skips
        # are out of scope), regardless of the configured topology
        no_skip = (self.topology is BlockTopology.NO_RESIDUAL
                   or self.out_channels < self.in_channels)
        if no_skip:
            y0 = self.bn.forward(z, training)
            self._cache = (x.shape, False, False, True)
        else:
            r, pooled, broadcast = self._skip(x, z.shape[2:])
            pre = self.topology is BlockTopology.PRE_BN_RESIDUAL
            y0 = self.bn.forward(z + r if pre else z, training)  # z + r is not kept alive
            y0 += r
            self._cache = (x.shape, pooled, broadcast, False)
        return self.act.forward(y0, training)

    def backward(self, gy):
        x_shape, pooled, broadcast, no_skip = self._cache
        g0 = self.act.backward(gy)
        if no_skip:
            gz = self.bn.backward(g0)
            return self.conv.backward(gz)
        if self.topology is BlockTopology.PRE_BN_RESIDUAL:
            gu = self.bn.backward(g0)
            gz = gu
            gr = g0 + gu
        else:
            gz = self.bn.backward(g0)
            gr = g0
        gx = self.conv.backward(gz)
        if broadcast:
            gr = L.broadcast_residual_backward(gr, x_shape[1])
        if pooled:
            gr = L.avg_pool2_backward(gr)
        return gx + gr

    def layer_costs(self, in_hw):
        return self.conv.layer_costs(in_hw)

    def out_hw(self, in_hw):
        return self.conv.out_hw(in_hw)

    def post_step(self):
        self.conv.post_step()


class GlobalAvgPool(Layer):
    def __init__(self, name: str):
        self.name = name
        self._hw = None

    def forward(self, x, training=False):
        self._hw = x.shape[2:]
        return x.mean(axis=(2, 3))

    def backward(self, gy):
        h, w = self._hw
        return np.broadcast_to(gy[:, :, None, None], gy.shape + (h, w)).copy() / (h * w)


class Dense(Layer):
    """Full-precision classifier head: y = x W^T + b."""

    def __init__(self, name: str, in_features: int, out_features: int, rng, dtype=np.float32):
        self.name = name
        self.w = (rng.standard_normal((out_features, in_features)) * np.sqrt(2.0 / in_features)).astype(dtype)
        self.b = np.zeros(out_features, dtype=dtype)
        self.gw = np.zeros_like(self.w)
        self.gb = np.zeros_like(self.b)
        self._x = None

    def params(self):
        return {"w": self.w, "b": self.b}

    def grads(self):
        return {"w": self.gw, "b": self.gb}

    def filter_params(self):
        return {"w"}

    def forward(self, x, training=False):
        self._x = x
        return x @ self.w.T + self.b

    def backward(self, gy):
        self.gw += gy.T @ self._x
        self.gb += gy.sum(axis=0)
        return gy @ self.w

    def layer_costs(self, in_hw):
        return [LayerCost.of(self.name, "linear", self.w.size, binary=False)]


# ---------------------------------------------------------------------------
# Config and builder
# ---------------------------------------------------------------------------


DEFAULT_STAGES = ((32, 1), (64, 2), (128, 1), (128, 2), (256, 1))


@dataclass(frozen=True)
class ModelConfig:
    """Desk-scale network recipe."""

    variant: str = "A"
    n_convs: int = 2
    width_multiplier: float = 1.0
    stages: tuple = DEFAULT_STAGES
    input_shape: tuple = (3, 32, 32)
    classes: int = 10
    topology: BlockTopology = BlockTopology.PRE_BN_RESIDUAL

    def __post_init__(self):
        if self.variant not in ("A", "B"):
            raise ValueError(f"variant must be 'A' or 'B', got {self.variant!r}")
        if not 1 <= self.n_convs <= 4:
            raise ValueError("n_convs must be in [1, 4]")
        if self.width_multiplier <= 0:
            raise ValueError("width_multiplier must be > 0")
        if len(self.input_shape) != 3 or self.classes < 2 or not self.stages:
            raise ValueError("invalid stage spec")
        for c, s in self.stages:
            if c < 1 or s not in (1, 2):
                raise ValueError(f"invalid stage ({c}, {s})")

    def scaled(self, c: int) -> int:
        return int(-8 * (-(c * self.width_multiplier) // 8))  # ceil to multiple of 8

    def to_json(self) -> dict:
        return {
            "variant": self.variant,
            "n_convs": self.n_convs,
            "width_multiplier": self.width_multiplier,
            "stages": [list(s) for s in self.stages],
            "input_shape": list(self.input_shape),
            "classes": self.classes,
            "topology": self.topology.value,
        }

    @staticmethod
    def from_json(d: dict) -> "ModelConfig":
        return ModelConfig(
            variant=d["variant"],
            n_convs=d["n_convs"],
            width_multiplier=d["width_multiplier"],
            stages=tuple(tuple(s) for s in d["stages"]),
            input_shape=tuple(d["input_shape"]),
            classes=d["classes"],
            topology=BlockTopology(d["topology"]),
        )


class Network:
    """An ordered stack of layers/blocks with manual reverse-mode autodiff."""

    def __init__(self, config: ModelConfig, items: list, dtype):
        self.config = config
        self.items = items
        self.dtype = dtype

    # -- forward / backward --

    def forward(self, x, training=False, packed=False):
        y = np.asarray(x, dtype=self.dtype)
        for item in self.items:
            if isinstance(item, Block):
                y = item.forward(y, training, packed=packed)
            else:
                y = item.forward(y, training)
        return y

    def backward(self, dlogits):
        g = dlogits
        for item in reversed(self.items):
            g = item.backward(g)
        return g

    # -- parameter plumbing --

    def _walk(self):
        for item in self.items:
            if isinstance(item, Block):
                for sub_name, sub in item.sublayers():
                    yield f"{item.name}/{sub_name}", sub
            else:
                yield item.name, item

    def named_params(self):
        for prefix, layer in self._walk():
            for pname, arr in layer.params().items():
                yield f"{prefix}/{pname}", arr

    def named_grads(self):
        for prefix, layer in self._walk():
            for pname, arr in layer.grads().items():
                yield f"{prefix}/{pname}", arr

    def named_buffers(self):
        for prefix, layer in self._walk():
            for bname, arr in layer.buffers().items():
                yield f"{prefix}/{bname}", arr

    def is_filter_param(self, name: str) -> bool:
        prefix, pname = name.rsplit("/", 1)
        for p, layer in self._walk():
            if p == prefix:
                return pname in layer.filter_params()
        return False

    def zero_grads(self):
        for _, g in self.named_grads():
            g[...] = 0

    def post_step(self):
        for item in self.items:
            item.post_step()

    def get_flat_params(self) -> np.ndarray:
        return np.concatenate([a.ravel().astype(np.float64) for _, a in self.named_params()])

    def set_flat_params(self, theta: np.ndarray):
        pos = 0
        for _, a in self.named_params():
            n = a.size
            a[...] = theta[pos : pos + n].reshape(a.shape).astype(a.dtype)
            pos += n
        if pos != theta.size:
            raise ValueError(f"parameter vector has {theta.size} entries, network wants {pos}")

    def get_flat_grads(self) -> np.ndarray:
        return np.concatenate([g.ravel().astype(np.float64) for _, g in self.named_grads()])

    # -- training-mode switches --

    def set_weight_binarization(self, flag: bool, init_magnitudes: bool = False):
        for _, layer in self._walk():
            if isinstance(layer, MultiBinaryConv):
                layer.weights_binary = flag
                if flag and init_magnitudes:
                    layer.init_magnitudes()

    def set_bn_stat_updates(self, flag: bool):
        for _, layer in self._walk():
            if isinstance(layer, BatchNorm):
                layer.update_stats = flag

    def set_quant_mode(self, mode):
        """None (live), 'capture', or 'use' for frozen-decision curvature probes."""
        if mode not in (None, "capture", "use"):
            raise ValueError(f"unknown quantization mode {mode!r}")
        for _, layer in self._walk():
            if isinstance(layer, MultiBinaryConv):
                layer.freeze_mode = mode
                if mode is None:
                    layer._frozen = None

    def bn_alpha_report(self):
        """(layer name, max |alpha_bn|) per BN layer, batch stats if available."""
        out = []
        for name, layer in self._walk():
            if isinstance(layer, BatchNorm):
                out.append((name, float(np.abs(layer.alpha_bn(batch=True)).max())))
        return out

    # -- introspection --

    def layer_costs(self, input_shape=None) -> list[LayerCost]:
        shape = input_shape or self.config.input_shape
        hw = tuple(shape[1:])
        costs = []
        for item in self.items:
            costs.extend(item.layer_costs(hw))
            hw = item.out_hw(hw)
        return costs

    def state(self) -> dict:
        out = {name: arr.copy() for name, arr in self.named_params()}
        out.update({name: arr.copy() for name, arr in self.named_buffers()})
        return out

    def load_state(self, state: dict):
        mine = dict(self.named_params())
        mine.update(dict(self.named_buffers()))
        if set(mine) != set(state):
            missing = set(mine) ^ set(state)
            raise CheckpointError(f"state does not match network: mismatched keys {sorted(missing)[:4]}...")
        for name, arr in mine.items():
            if np.shape(state[name]) != arr.shape:
                raise CheckpointError(f"{name} has shape {np.shape(state[name])}, network wants {arr.shape}")
        for name, arr in mine.items():
            arr[...] = state[name]


def build(config: ModelConfig, seed: int = 0, dtype=np.float32) -> Network:
    """Build a network from a config (deterministic for a given seed)."""
    rng = np.random.default_rng(seed)
    c_in = config.input_shape[0]
    items: list = []
    c0 = config.scaled(config.stages[0][0])
    stem_spec = ConvSpec(c_in, c0, (3, 3), stride=1, padding=1)
    items.append(Block("stem", FloatConv("stem", stem_spec, rng, dtype),
                       BatchNorm("stem_bn", c0, dtype), ShiftedPReLU("stem_act", c0, dtype),
                       BlockTopology.NO_RESIDUAL, c_in, c0))
    prev = c0
    for idx, (c, s) in enumerate(config.stages):
        cs = config.scaled(c)
        dw_spec = ConvSpec(prev, prev, (3, 3), stride=s, padding=1, groups=prev)
        if config.variant == "B" and s > 1:
            dw_conv = FloatConv(f"s{idx}_dw", dw_spec, rng, dtype)
        else:
            dw_conv = MultiBinaryConv(f"s{idx}_dw", dw_spec, config.n_convs, rng, dtype)
        items.append(Block(f"s{idx}_dw", dw_conv, BatchNorm(f"s{idx}_dw_bn", prev, dtype),
                           ShiftedPReLU(f"s{idx}_dw_act", prev, dtype),
                           config.topology, prev, prev))
        pw_spec = ConvSpec(prev, cs, (1, 1), stride=1, padding=0)
        pw_conv = MultiBinaryConv(f"s{idx}_pw", pw_spec, 1, rng, dtype)
        items.append(Block(f"s{idx}_pw", pw_conv, BatchNorm(f"s{idx}_pw_bn", cs, dtype),
                           ShiftedPReLU(f"s{idx}_pw_act", cs, dtype),
                           config.topology, prev, cs))
        prev = cs
    items.append(GlobalAvgPool("gap"))
    items.append(Dense("head", prev, config.classes, rng, dtype))
    return Network(config, items, dtype)


def build_float_probe(input_shape=(1, 8, 8), classes: int = 3, channels: int = 8,
                      seed: int = 0, dtype=np.float64) -> Network:
    """Small full-precision conv net (stem + head only), the sanity oracle
    for tasks a quantized model is later trained on."""
    rng = np.random.default_rng(seed)
    config = ModelConfig(variant="A", n_convs=1, stages=((channels, 1),),
                         input_shape=tuple(input_shape), classes=classes,
                         topology=BlockTopology.NO_RESIDUAL)
    c_in = input_shape[0]
    spec = ConvSpec(c_in, channels, (3, 3), stride=1, padding=1)
    items = [
        Block("stem", FloatConv("stem", spec, rng, dtype), BatchNorm("stem_bn", channels, dtype),
              ShiftedPReLU("stem_act", channels, dtype), BlockTopology.NO_RESIDUAL, c_in, channels),
        GlobalAvgPool("gap"),
        Dense("head", channels, classes, rng, dtype),
    ]
    return Network(config, items, dtype)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


class CheckpointError(ValueError):
    """Raised for malformed, truncated, or incompatible checkpoint data."""


@dataclass
class ModelCheckpoint:
    config: ModelConfig
    tensors: dict = field(default_factory=dict)
    version: int = FORMAT_VERSION


def checkpoint_of(network: Network) -> ModelCheckpoint:
    """Snapshot a network (parameters and buffers) as float32 tensors."""
    tensors = {k: np.asarray(v, dtype=np.float32) for k, v in network.state().items()}
    return ModelCheckpoint(network.config, tensors)


def save(ckpt: ModelCheckpoint) -> bytes:
    """Serialize: magic, version, JSON manifest, then BDT1 payload entries."""
    payload = io.BytesIO()
    entries = []
    for name in sorted(ckpt.tensors):
        arr = np.asarray(ckpt.tensors[name], dtype=np.float32)
        shape4 = arr.shape + (1,) * (4 - arr.ndim)
        if arr.ndim > 4:
            raise CheckpointError(f"tensor {name} has rank {arr.ndim} > 4")
        T.write_dense(payload, arr.reshape(shape4))
        entries.append({"name": name, "shape": list(arr.shape)})
    body = payload.getvalue()
    manifest = json.dumps({
        "version": ckpt.version,
        "config": ckpt.config.to_json(),
        "entries": entries,
        "payload_crc32": zlib.crc32(body),
    }).encode()
    out = io.BytesIO()
    out.write(CKPT_MAGIC)
    out.write(np.array([ckpt.version, len(manifest)], dtype="<u4").tobytes())
    out.write(manifest)
    out.write(body)
    return out.getvalue()


def load(data: bytes) -> ModelCheckpoint:
    fh = io.BytesIO(data)
    magic = fh.read(4)
    if magic != CKPT_MAGIC:
        raise CheckpointError(f"bad checkpoint magic {magic!r}")
    head = fh.read(8)
    if len(head) != 8:
        raise CheckpointError("truncated checkpoint header")
    version, mlen = np.frombuffer(head, dtype="<u4")
    if int(version) != FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {int(version)}")
    raw = fh.read(int(mlen))
    if len(raw) != int(mlen):
        raise CheckpointError("truncated checkpoint manifest")
    try:
        manifest = json.loads(raw)
        crc, entries = manifest["payload_crc32"], manifest["entries"]
        config = ModelConfig.from_json(manifest["config"])
    except (KeyError, TypeError, ValueError, RecursionError) as e:  # RecursionError: nesting too deep
        raise CheckpointError(f"malformed checkpoint manifest: {e!r}") from e
    body = fh.read()
    if zlib.crc32(body) != crc:
        raise CheckpointError("checkpoint payload failed checksum")
    bio = io.BytesIO(body)
    tensors = {}
    try:
        for entry in entries:
            shape = entry["shape"]
            if not isinstance(shape, list) or not all(type(d) is int and d >= 1 for d in shape):
                raise CheckpointError(f"entry {entry['name']!r} has invalid shape {shape!r}")
            tensors[entry["name"]] = T.read_dense(bio).reshape(shape)
    except (KeyError, TypeError, ValueError) as e:  # ValueError includes T.ContainerError
        raise CheckpointError(f"bad checkpoint entry: {e!r}") from e
    return ModelCheckpoint(config, tensors, int(version))


def restore(ckpt: ModelCheckpoint, dtype=np.float32) -> Network:
    """Build the configured network and load the checkpoint state into it."""
    net = build(ckpt.config, seed=0, dtype=dtype)
    net.load_state(ckpt.tensors)
    return net
