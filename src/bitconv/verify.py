"""Randomized kernel-versus-oracle equivalence suite.

Each case draws a geometry (channels <= 16, spatial <= 12, kernel 1 or 3,
stride 1 or 2, padding 0 or 1), runs a bit-packed kernel, and checks it
bit-for-bit against the float reference on the decoded +/-1 operands with
the magnitude applied after the integer accumulation. The fault-injection
mode flips pad bits to prove the suite is not vacuous: constructed tensors
must keep their pads at zero, and results must be pad-independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import BinaryConvWeights, ConvSpec, conv_binary, conv_float, conv_multi_dw
from .tensor import pack, unpack

VARIANTS = ("binary_regular", "binary_dw", "dual_dw", "multi_dw")


@dataclass
class CaseResult:
    variant: str
    shape: tuple
    spec: ConvSpec
    n_branches: int
    ok: bool
    detail: str = ""


def _random_spec(rng, depthwise: bool):
    c = int(rng.integers(1, 17))
    k = int(rng.choice([1, 3]))
    stride = int(rng.choice([1, 2]))
    padding = int(rng.choice([0, 1])) if k == 3 else 0
    lo = max(k - 2 * padding, 1, stride)
    h = int(rng.integers(lo, 13))
    w = int(rng.integers(lo, 13))
    if depthwise:
        spec = ConvSpec(c, c, (k, k), stride, padding, groups=c)
    else:
        o = int(rng.integers(1, 17))
        spec = ConvSpec(c, o, (k, k), stride, padding)
    return spec, h, w


def _oracle_binary(xb, weights: BinaryConvWeights, spec: ConvSpec):
    """Float conv on decoded operands, magnitude applied after accumulation."""
    acc = conv_float(unpack(xb), unpack(weights.packed), spec)
    return acc * weights.magnitude[None, :, None, None].astype(acc.dtype)


def _corrupt_pads(bt, rng):
    if bt.pad_bits == 0:
        return False
    word = bt.words[..., -1]
    high = np.uint64((1 << 63))
    bt.words[..., -1] = word | high  # the last bit of a padded row is always pad
    return True


def run_case(variant: str, rng, corrupt_pad: bool = False) -> CaseResult:
    n = int(rng.integers(1, 4))
    spec, h, w = _random_spec(rng, depthwise=variant != "binary_regular")
    c = spec.in_channels
    x = rng.standard_normal((n, c, h, w))
    if variant in ("binary_regular", "binary_dw"):
        weights = BinaryConvWeights(pack(rng.standard_normal(spec.weight_shape()), 0.0),
                                    rng.random(spec.out_channels) + 0.1)
        xb = pack(x, 0.0)
        if corrupt_pad and not (_corrupt_pads(xb, rng) | _corrupt_pads(weights.packed, rng)):
            return CaseResult(variant, x.shape, spec, 1, True, "no pad bits to corrupt")
        if corrupt_pad and not (xb.pads_are_zero() and weights.packed.pads_are_zero()):
            return CaseResult(variant, x.shape, spec, 1, False, "pad invariant violated")
        got = conv_binary(xb, weights, spec)
        want = _oracle_binary(xb, weights, spec)
        ok = np.array_equal(got, want)
        return CaseResult(variant, x.shape, spec, 1, ok, "" if ok else "mismatch vs oracle")

    if variant in ("dual_dw", "multi_dw"):
        n_branches = 2 if variant == "dual_dw" else int(rng.integers(1, 5))
        branches = []
        for _ in range(n_branches):
            thr = rng.uniform(-0.5, 0.5, c)
            beta = rng.random(c) + 0.1
            bw = BinaryConvWeights(pack(rng.standard_normal(spec.weight_shape()), 0.0), beta)
            branches.append((bw, thr, beta))
        got = conv_multi_dw(x, branches, spec)
        want = None
        for bw, thr, beta in branches:
            y = _oracle_binary(pack(x, thr), bw, spec)
            want = y if want is None else want + y
        ok = np.array_equal(got, want)
        return CaseResult(variant, x.shape, spec, n_branches, ok, "" if ok else "mismatch vs oracle")

    raise ValueError(f"unknown variant {variant!r}")


def run_suite(cases_per_variant: int = 1000, seed: int = 0, corrupt_pad: bool = False,
              variants=VARIANTS) -> list[CaseResult]:
    rng = np.random.default_rng(seed)
    results = []
    for variant in variants:
        for _ in range(cases_per_variant):
            results.append(run_case(variant, rng, corrupt_pad=corrupt_pad))
    return results
