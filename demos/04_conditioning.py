"""The identity-shift conditioning story, numerically.

A residual added before batch norm turns a block Jacobian a*Jdw + I into
a*Jdw + (a+1)*I, where a is the BN scaling factor gamma/sqrt(var+eps).
Shifting a matrix by alpha*I always shrinks the condition number of an SPD
matrix, and the improvement grows with alpha -- which is exactly the
regime where binarized depth-wise convs live, because their output
variance collapse makes a large.
"""

import numpy as np

from bitconv.analysis import condition_numbers, jacobian_of_block, random_dw_jacobian
from bitconv.kernels import ConvSpec, conv_float
from bitconv.layers import BlockTopology
from bitconv.model import BatchNorm, Block, FloatConv, ShiftedPReLU

rng = np.random.default_rng(3)

j = random_dw_jacobian(channels=4, block_dim=12, rng=rng)
print(f"{'alpha':>8s} {'kappa(J)':>12s} {'kappa(J+aI)':>12s} {'approx':>12s} {'abs err':>10s}")
for alpha in (0, 10, 100, 1000, 10000):
    rep = condition_numbers(j, alpha)
    print(f"{alpha:8.0f} {rep.kappa_j:12.3f} {rep.kappa_j_prime:12.5f} "
          f"{rep.approx_kappa_j_prime:12.5f} {rep.approx_abs_error:10.2e}")

# block-level check: finite-difference Jacobians of the two wirings, run
# through the network's own block (a slope-1 PReLU is the identity)
c, hw, alpha = 2, 4, 6.0
spec = ConvSpec(c, c, (3, 3), stride=1, padding=1, groups=c)
w = rng.standard_normal(spec.weight_shape())
conv = lambda t: conv_float(t, w, spec)
x0 = rng.standard_normal((1, c, hw, hw))


def block(topology):
    fc = FloatConv("dw", spec, np.random.default_rng(0), np.float64)
    fc.w[...] = w
    bn = BatchNorm("bn", c, np.float64)
    bn.gamma[...], bn.var[...] = alpha, 1.0 - bn.eps
    act = ShiftedPReLU("act", c, np.float64)
    act.slope[...] = 1.0
    b = Block("block", fc, bn, act, topology, c, c)
    return lambda t: b.forward(t)


jdw = jacobian_of_block(conv, x0)
eye = np.eye(x0.size)
j_post = jacobian_of_block(block(BlockTopology.POST_BN_RESIDUAL), x0)
j_pre = jacobian_of_block(block(BlockTopology.PRE_BN_RESIDUAL), x0)
err_post = np.linalg.norm(j_post - (alpha * jdw + eye)) / np.linalg.norm(j_post)
err_pre = np.linalg.norm(j_pre - (alpha * jdw + (alpha + 1) * eye)) / np.linalg.norm(j_pre)
print(f"\npost-BN block matches a*Jdw + I        to {err_post:.2e}")
print(f"pre-BN block matches  a*Jdw + (a+1)*I  to {err_pre:.2e}")
