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


def _corrupt_pads(bt):
    if bt.pad_bits == 0:
        return False
    word = bt.words[..., -1]
    high = np.uint64((1 << 63))
    bt.words[..., -1] = word | high  # the last bit of a padded row is always pad
    return True


def _pad_fault(packed, variant, shape, spec, n_branches):
    """Corrupt the pads of every packed operand. Returns the case's result if
    it ends here (no pad bits, or the pad invariant caught the corruption),
    else None: the kernel must then be pad-independent."""
    if not any([_corrupt_pads(bt) for bt in packed]):
        return CaseResult(variant, shape, spec, n_branches, True, "no pad bits to corrupt")
    if not all(bt.pads_are_zero() for bt in packed):
        return CaseResult(variant, shape, spec, n_branches, False, "pad invariant violated")
    return None


def run_case(variant: str, rng, corrupt_pad: bool = False) -> CaseResult:
    n = int(rng.integers(1, 4))
    spec, h, w = _random_spec(rng, depthwise=variant != "binary_regular")
    c = spec.in_channels
    x = rng.standard_normal((n, c, h, w))
    if variant in ("binary_regular", "binary_dw"):
        weights = BinaryConvWeights(pack(rng.standard_normal(spec.weight_shape()), 0.0),
                                    rng.random(spec.out_channels) + 0.1)
        xb = pack(x, 0.0)
        if corrupt_pad and (fault := _pad_fault([xb, weights.packed], variant, x.shape, spec, 1)):
            return fault
        got = conv_binary(xb, weights, spec)
        want = _oracle_binary(xb, weights, spec)
        ok = np.array_equal(got, want)
        return CaseResult(variant, x.shape, spec, 1, ok, "" if ok else "mismatch vs oracle")

    if variant in ("dual_dw", "multi_dw"):
        n_branches = 2 if variant == "dual_dw" else int(rng.integers(1, 5))
        thr = rng.uniform(-0.5, 0.5, (n_branches, c))
        beta = rng.random((n_branches, c)) + 0.1
        bank = BinaryConvWeights(pack(rng.standard_normal(spec.stacked(n_branches).weight_shape()), 0.0))
        if corrupt_pad and (fault := _pad_fault([bank.packed], variant, x.shape, spec, n_branches)):
            return fault
        got = conv_multi_dw(x, thr, bank, beta, spec)
        filters = unpack(bank.packed).reshape(n_branches, *spec.weight_shape())
        want = sum(_oracle_binary(pack(x, t), BinaryConvWeights(pack(f, 0.0), b), spec)
                   for f, t, b in zip(filters, thr, beta))
        ok = np.array_equal(got, want)
        return CaseResult(variant, x.shape, spec, n_branches, ok, "" if ok else "mismatch vs oracle")

    raise ValueError(f"unknown variant {variant!r}")


def run_suite(cases_per_variant: int = 1000, seed: int = 0,
              corrupt_pad: bool = False) -> list[CaseResult]:
    rng = np.random.default_rng(seed)
    results = []
    for variant in VARIANTS:
        for _ in range(cases_per_variant):
            results.append(run_case(variant, rng, corrupt_pad=corrupt_pad))
    return results
