"""Bit-packed binary convolutions versus the float reference.

Binary kernels accumulate in integers via XNOR-popcount: their counts match
the float kernel on the decoded +/-1 operands bit for bit. The multi-branch
depth-wise conv runs sign-quantized branches of the shared input (two here)
against one bank of their stacked filters, scales each branch's counts by
its per-channel magnitude once, and sums them.
"""

import numpy as np

from bitconv.kernels import (ConvSpec, binarize_weights, conv_binary,
                             conv_float, conv_multi_dw)
from bitconv.quantize import DualQuantParams
from bitconv.tensor import pack, sign_bits, unpack

rng = np.random.default_rng(2)

spec = ConvSpec(8, 8, (3, 3), stride=2, padding=1, groups=8)
x = rng.standard_normal((2, 8, 10, 10))
bits = sign_bits(x)
signs = np.where(bits, 1.0, -1.0)
weights = binarize_weights(rng.standard_normal(spec.weight_shape()))

got = conv_binary(bits, weights, spec)
oracle = conv_float(signs, unpack(weights.packed), spec)
print("depth-wise 3x3 stride 2 pad 1, bit-exact vs oracle:", np.array_equal(got, oracle))

reg = ConvSpec(8, 16, (3, 3), stride=1, padding=1)
wr = binarize_weights(rng.standard_normal(reg.weight_shape()))
got_r = conv_binary(bits, wr, reg)
oracle_r = conv_float(signs, unpack(wr.packed), reg)
print("regular 3x3 (channel-packed reduction), bit-exact:", np.array_equal(got_r, oracle_r))

a1 = rng.uniform(-0.5, 0.0, 8)
q = DualQuantParams(a1, a1 + rng.uniform(0.1, 0.6, 8), rng.random(8), rng.random(8))
bank = binarize_weights(rng.standard_normal((16, 1, 3, 3)))  # both branches' 8 filters, stacked
dual = conv_multi_dw(x, np.stack([q.alpha1, q.alpha2]), bank, np.stack([q.beta1, q.beta2]), spec)
w1, w2 = unpack(bank.packed)[:8], unpack(bank.packed)[8:]
branch1 = conv_float(unpack(pack(x, q.alpha1)), w1, spec) * q.beta1.reshape(1, -1, 1, 1)
branch2 = conv_float(unpack(pack(x, q.alpha2)), w2, spec) * q.beta2.reshape(1, -1, 1, 1)
print("two-branch depth-wise == sum of two quantized branches:", np.array_equal(dual, branch1 + branch2))
