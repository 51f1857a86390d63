"""Randomized kernel-versus-oracle equivalence suite.

Each case draws a geometry (channels <= 16, spatial <= 12, kernel 1 or 3,
stride 1 or 2, padding 0 or 1) and runs conv_multi_dw, the packed forward
of every binary layer, on a bank of one branch (binary_regular, binary_dw),
two (dual_dw) or 1..4 (multi_dw). It checks the result bit-for-bit against
the sum of the float reference on each branch's decoded +/-1 operands, with
the magnitude applied after the accumulation. The fault-injection mode
flips pad bits of the bank to prove the suite is not vacuous: constructed
tensors must keep their pads at zero, and results must be pad-independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import BinaryConvWeights, ConvSpec, conv_float, conv_multi_dw
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


def _oracle_branch(x, thr, filters, beta, spec: ConvSpec):
    """Float conv on the decoded +/-1 operands of one branch, magnitude
    applied after the accumulation."""
    return conv_float(unpack(pack(x, thr)), filters, spec) * beta[None, :, None, None]


def run_case(variant: str, rng, corrupt_pad: bool = False) -> CaseResult:
    """One conv_multi_dw case: binary_regular and binary_dw run one branch
    (a regular or a depth-wise spec), dual_dw two, multi_dw 1..4."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    n = int(rng.integers(1, 4))
    spec, h, w = _random_spec(rng, depthwise=variant != "binary_regular")
    c = spec.in_channels
    x = rng.standard_normal((n, c, h, w))
    n_branches = int(rng.integers(1, 5)) if variant == "multi_dw" else 2 if variant == "dual_dw" else 1
    thr = rng.uniform(-0.5, 0.5, (n_branches, c))
    beta = rng.random((n_branches, spec.out_channels)) + 0.1
    bank = BinaryConvWeights(pack(rng.standard_normal(spec.stacked(n_branches).weight_shape()), 0.0))
    if corrupt_pad:  # a filter row holds kh*kw < 64 bits, so its last bit is a pad bit
        bank.packed.words[..., -1] |= np.uint64(1 << 63)
        if not bank.packed.pads_are_zero():
            return CaseResult(variant, x.shape, spec, n_branches, False, "pad invariant violated")
    got = conv_multi_dw(x, thr, bank, beta, spec)
    filters = unpack(bank.packed).reshape(n_branches, *spec.weight_shape())
    want = sum(_oracle_branch(x, t, f, b, spec) for f, t, b in zip(filters, thr, beta))
    ok = np.array_equal(got, want)
    return CaseResult(variant, x.shape, spec, n_branches, ok, "" if ok else "mismatch vs oracle")


def run_suite(cases_per_variant: int = 1000, seed: int = 0,
              corrupt_pad: bool = False) -> list[CaseResult]:
    rng = np.random.default_rng(seed)
    results = []
    for variant in VARIANTS:
        for _ in range(cases_per_variant):
            results.append(run_case(variant, rng, corrupt_pad=corrupt_pad))
    return results
