"""What the traced run times in bitconv, and how spans become per-layer metrics.

The layers are the package's modules. Each public function (or method)
below gets a span; kernel spans carry the MACs/BOPs of the call, computed
from ``ConvSpec.macs`` x batch (a multi-branch depth-wise conv shows up as
one ``conv_binary`` span per branch), and ``tensor.pack`` spans carry the
number of elements packed. All counts are computed from shapes, not
measured.
"""

from __future__ import annotations

import statistics

from spans import NAME, WORK, Target, nearest_ancestor, summarize, top_level_ns


def _conv_macs(x, w, spec, *args, **kwargs):
    n, _, h, wd = x.shape
    return spec.macs(h, wd) * n


def _grad_input_macs(gy, w, spec, in_hw, *args, **kwargs):
    return spec.macs(*in_hw) * gy.shape[0]


def _grad_weight_macs(x, gy, spec, *args, **kwargs):
    return _conv_macs(x, None, spec)


def _pack_bits(t, *args, **kwargs):
    return t.size


def _cost_model_macs(network, x, *args, **kwargs):
    """MACs the cost model assigns to one forward of this batch (convs only)."""
    costs = network.layer_costs(x.shape[1:])
    return x.shape[0] * sum(c.bops + c.flops for c in costs if c.kind != "linear")


FORWARD = "model.Network.forward"
FORWARD_KERNELS = ("kernels.conv_float", "kernels.conv_binary")

TARGETS = (
    Target("bitconv.kernels", "conv_float", "kernels.conv_float", _conv_macs),
    Target("bitconv.kernels", "conv_float_grad_input", "kernels.conv_float_grad_input", _grad_input_macs),
    Target("bitconv.kernels", "conv_float_grad_weight", "kernels.conv_float_grad_weight", _grad_weight_macs),
    Target("bitconv.kernels", "conv_binary", "kernels.conv_binary", _conv_macs),
    Target("bitconv.kernels", "conv_multi_dw", "kernels.conv_multi_dw"),
    Target("bitconv.tensor", "pack", "tensor.pack", _pack_bits),
    Target("bitconv.tensor", "unpack_bits", "tensor.unpack_bits"),
    Target("bitconv.quantize", "ste_grad_sign", "quantize.ste_grad_sign"),
    Target("bitconv.layers", "avg_pool2", "layers.avg_pool2"),
    Target("bitconv.layers", "avg_pool2_backward", "layers.avg_pool2_backward"),
    Target("bitconv.layers", "broadcast_residual", "layers.broadcast_residual"),
    Target("bitconv.layers", "broadcast_residual_backward", "layers.broadcast_residual_backward"),
    Target("bitconv.model", "BatchNorm.forward", "model.BatchNorm.forward"),
    Target("bitconv.model", "BatchNorm.backward", "model.BatchNorm.backward"),
    Target("bitconv.model", "ShiftedPReLU.forward", "model.ShiftedPReLU.forward"),
    Target("bitconv.model", "ShiftedPReLU.backward", "model.ShiftedPReLU.backward"),
    Target("bitconv.model", "Network.forward", FORWARD, _cost_model_macs),
    Target("bitconv.model", "Network.backward", "model.Network.backward"),
    Target("bitconv.train", "backward", "train.backward"),
    Target("bitconv.train", "batch_gradient", "train.batch_gradient"),
    Target("bitconv.train", "softmax_cross_entropy", "train.softmax_cross_entropy"),
    Target("bitconv.train", "_evaluate", "train.evaluate"),
    Target("bitconv.train", "Adam.step", "train.Adam.step"),
    Target("bitconv.analysis", "hessian_topk", "analysis.hessian_topk"),
    Target("bitconv.analysis", "hessian_topk_operator", "analysis.hessian_topk_operator"),
    Target("bitconv.analysis", "network_hvp", "analysis.hvp", returns_operator=True),
)

HVP_ONLY = tuple(t for t in TARGETS if t.span == "analysis.hvp")

# metric prefix -> span names whose calls and inclusive time it sums
GROUPS = {
    "kernels.conv_float": ("kernels.conv_float",),
    "kernels.conv_float_grad_input": ("kernels.conv_float_grad_input",),
    "kernels.conv_float_grad_weight": ("kernels.conv_float_grad_weight",),
    "kernels.conv_binary": ("kernels.conv_binary",),
    "kernels.conv_multi_dw": ("kernels.conv_multi_dw",),
    "tensor.pack": ("tensor.pack",),
    "tensor.unpack_bits": ("tensor.unpack_bits",),
    "quantize.ste_grad_sign": ("quantize.ste_grad_sign",),
    "layers": ("layers.avg_pool2", "layers.avg_pool2_backward",
               "layers.broadcast_residual", "layers.broadcast_residual_backward"),
    "model.batchnorm": ("model.BatchNorm.forward", "model.BatchNorm.backward"),
    "model.prelu": ("model.ShiftedPReLU.forward", "model.ShiftedPReLU.backward"),
    "train.backward": ("train.backward",),
    "train.optimizer": ("train.Adam.step",),
    "train.loss": ("train.softmax_cross_entropy",),
    "train.eval": ("train.evaluate",),
    "train.batch_gradient": ("train.batch_gradient",),
    "analysis.hessian_topk": ("analysis.hessian_topk",),
    "analysis.hvp": ("analysis.hvp",),
}
# metric -> span names whose self time (minus traced children) it sums
SELF_GROUPS = {
    "model.network.self_ms": (FORWARD, "model.Network.backward"),
    "analysis.solver.self_ms": ("analysis.hessian_topk_operator",),
}


def cost_model_check(spans) -> tuple[int, int]:
    """(MACs run by forward kernels, MACs the cost model predicts).

    Sums the computed work of every forward conv kernel span under each
    ``Network.forward`` span and the prediction from ``Network.layer_costs``
    for the same batches; the two agree when the kernels do the work the
    OP model counts, branches included.
    """
    ran = sum(s[WORK] for i, s in enumerate(spans)
              if s[NAME] in FORWARD_KERNELS and nearest_ancestor(spans, i, FORWARD) >= 0)
    predicted = sum(s[WORK] for s in spans if s[NAME] == FORWARD)
    return ran, predicted


def layer_metrics(spans, traced_ns, untraced_ns) -> dict[str, float]:
    """Per-layer metrics, each averaged over the traced rounds of work.

    ``traced_ns``/``untraced_ns`` are the wall times of the rounds run with
    and without the tracer; their medians' difference is the overhead.
    """
    rounds = len(traced_ns)
    agg = summarize(spans)
    zero = {"calls": 0, "total_ns": 0, "self_ns": 0, "work": 0}

    def total(names, key):
        return sum(agg.get(n, zero)[key] for n in names)

    out = {}
    for prefix, names in GROUPS.items():
        out[f"{prefix}.ms"] = total(names, "total_ns") / 1e6 / rounds
        out[f"{prefix}.calls"] = total(names, "calls") / rounds
    for metric, names in SELF_GROUPS.items():
        out[metric] = total(names, "self_ns") / 1e6 / rounds
    float_names = ("kernels.conv_float", "kernels.conv_float_grad_input",
                   "kernels.conv_float_grad_weight")
    out["kernels.float_macs"] = total(float_names, "work") / rounds
    out["kernels.binary_bops"] = total(("kernels.conv_binary",), "work") / rounds
    out["tensor.pack.bits"] = total(("tensor.pack",), "work") / rounds
    for name, unit in (("kernels.conv_float", "gmac_per_s"), ("kernels.conv_binary", "gbop_per_s")):
        ns = total((name,), "total_ns")
        out[f"{name}.{unit}"] = total((name,), "work") / ns if ns else 0.0  # ops/ns == G ops/s
    out["trace.spans"] = len(spans) / rounds
    out["trace.round_ms"] = sum(traced_ns) / 1e6 / rounds
    out["trace.unattributed_ms"] = out["trace.round_ms"] - top_level_ns(spans) / 1e6 / rounds
    out["trace.overhead_ms"] = (statistics.median(traced_ns) - statistics.median(untraced_ns)) / 1e6
    return out


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("ms"):
        return "ms"
    if metric.endswith("gmac_per_s"):
        return "GMAC/s"
    if metric.endswith("gbop_per_s"):
        return "GBOP/s"
    if metric == "analysis.probe_residual":
        return "1"
    return "count"
