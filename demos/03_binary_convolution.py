"""Bit-packed binary convolutions versus the float reference.

Binary kernels accumulate in integers via XNOR-popcount and scale by the
per-channel magnitude at the end, so they match the float kernel on the
decoded +/-1 operands bit for bit. The multi-branch depth-wise conv runs
sign-quantized branches of the shared input (two here) and sums them.
"""

import numpy as np

from bitconv.kernels import (ConvSpec, binarize_weights, conv_binary,
                             conv_float, conv_multi_dw)
from bitconv.quantize import DualQuantParams
from bitconv.tensor import pack, unpack

rng = np.random.default_rng(2)

spec = ConvSpec(8, 8, (3, 3), stride=2, padding=1, groups=8)
x = rng.standard_normal((2, 8, 10, 10))
xb = pack(x, 0.0)
weights = binarize_weights(rng.standard_normal(spec.weight_shape()), rng.random(8))

got = conv_binary(xb, weights, spec)
oracle = conv_float(unpack(xb), unpack(weights.packed), spec) * weights.magnitude.reshape(1, -1, 1, 1)
print("depth-wise 3x3 stride 2 pad 1, bit-exact vs oracle:", np.array_equal(got, oracle))

reg = ConvSpec(8, 16, (3, 3), stride=1, padding=1)
wr = binarize_weights(rng.standard_normal(reg.weight_shape()), rng.random(16))
got_r = conv_binary(xb, wr, reg)
oracle_r = conv_float(unpack(xb), unpack(wr.packed), reg) * wr.magnitude.reshape(1, -1, 1, 1)
print("regular 3x3 (channel-packed reduction), bit-exact:", np.array_equal(got_r, oracle_r))

a1 = rng.uniform(-0.5, 0.0, 8)
q = DualQuantParams(a1, a1 + rng.uniform(0.1, 0.6, 8), rng.random(8), rng.random(8))
w1 = binarize_weights(rng.standard_normal(spec.weight_shape()), q.beta1)
w2 = binarize_weights(rng.standard_normal(spec.weight_shape()), q.beta2)
dual = conv_multi_dw(x, [(w1, q.alpha1, q.beta1), (w2, q.alpha2, q.beta2)], spec)
branch1 = conv_float(unpack(pack(x, q.alpha1)), unpack(w1.packed), spec) * q.beta1.reshape(1, -1, 1, 1)
branch2 = conv_float(unpack(pack(x, q.alpha2)), unpack(w2.packed), spec) * q.beta2.reshape(1, -1, 1, 1)
print("two-branch depth-wise == sum of two quantized branches:", np.array_equal(dual, branch1 + branch2))
