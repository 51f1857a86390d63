import numpy as np
import pytest

from bitconv import layers as L
from bitconv import kernels as K
from bitconv import model as M
from bitconv.analysis import jacobian_of_block

PRE, POST = L.BlockTopology.PRE_BN_RESIDUAL, L.BlockTopology.POST_BN_RESIDUAL


def bn_layer(gamma, beta, mu, var):
    """A float64 model.BatchNorm holding the given per-channel state."""
    bn = M.BatchNorm("bn", np.size(gamma), np.float64)
    bn.gamma[...], bn.beta[...], bn.mu[...], bn.var[...] = gamma, beta, mu, var
    return bn


def make_bn(channels, alpha, mu=None, shift=None):
    """BN whose scaling factor is exactly alpha (var + eps == 1)."""
    mu = np.zeros(channels) if mu is None else mu
    shift = np.zeros(channels) if shift is None else shift
    return bn_layer(np.full(channels, alpha), shift, mu, np.full(channels, 1.0 - L.BN_EPS))


def prelu_layer(shift_in, slope, shift_out):
    act = M.ShiftedPReLU("act", np.size(slope), np.float64)
    act.shift_in[...], act.slope[...], act.shift_out[...] = shift_in, slope, shift_out
    return act


def dw_conv(w, stride=1):
    """A float64 3x3 depth-wise FloatConv (padding 1) with the given weights."""
    c = w.shape[0]
    conv = M.FloatConv("conv", K.ConvSpec(c, c, (3, 3), stride=stride, padding=1, groups=c),
                       np.random.default_rng(0), np.float64)
    conv.w[...] = w
    return conv


def make_block(conv, bn, topology):
    """conv -> BN -> residual wiring, closed by a slope-1 PReLU (the identity)."""
    c = bn.gamma.size
    act = prelu_layer(np.zeros(c), np.ones(c), np.zeros(c))
    blk = M.Block("block", conv, bn, act, topology, c, c)
    return lambda t: blk.forward(t)


def zero_w(c):
    return np.zeros((c, 1, 3, 3))


def identity_w(c):
    w = zero_w(c)
    w[:, :, 1, 1] = 1.0
    return w


class TestBatchNorm:
    def test_identity_normalization(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 3, 4, 4))
        p = make_bn(3, 1.0)
        assert np.allclose(p.forward(x), x, atol=1e-12)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 3, 5, 5))
        p = bn_layer(rng.random(3) + 0.5, rng.standard_normal(3),
                     rng.standard_normal(3), rng.random(3) + 0.1)
        got = p.forward(x)
        for c in range(3):
            a = p.gamma[c] / np.sqrt(p.var[c] + p.eps)
            want = a * (x[:, c] - p.mu[c]) + p.beta[c]
            assert np.allclose(got[:, c], want, atol=1e-12)

    def test_constant_input_training_alpha_large_but_finite(self):
        # zero batch variance drives the scaling factor to gamma/sqrt(eps)
        p = bn_layer(np.ones(2), np.zeros(2), np.zeros(2), np.ones(2))
        x = np.full((4, 2, 3, 3), 1.7)
        y = p.forward(x, training=True)
        assert np.all(np.isfinite(y))
        alpha = p.gamma / np.sqrt(x.var(axis=(0, 2, 3)) + p.eps)
        assert np.all(alpha > 100)  # the instability mechanism, not an overflow
        assert np.array_equal(p.alpha_bn(), alpha)

    def test_training_updates_running_stats(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((8, 2, 4, 4)) * 2 + 1
        p = bn_layer(np.ones(2), np.zeros(2), np.zeros(2), np.ones(2))
        p.momentum = 0.1
        p.forward(x, training=True)
        want_mu = 0.1 * x.mean(axis=(0, 2, 3))
        assert np.allclose(p.mu, want_mu, atol=1e-12)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 2, 4, 4))
        p = bn_layer(rng.random(2) + 0.5, rng.standard_normal(2), np.zeros(2), np.ones(2))
        gy = rng.standard_normal(x.shape)
        p.forward(x, training=True, grad=True)
        gx = p.backward(gy)
        h = 1e-6

        def loss(x_):
            return float((p.forward(x_, training=True) * gy).sum())

        for idx in [(0, 0, 0, 0), (2, 1, 3, 3), (1, 0, 2, 1)]:
            xp = x.copy(); xp[idx] += h
            xm = x.copy(); xm[idx] -= h
            fd = (loss(xp) - loss(xm)) / (2 * h)
            assert abs(gx[idx] - fd) <= 1e-5 * max(1.0, abs(fd))


class TestBlocks:
    def test_pre_bn_zero_conv_is_bn_plus_skip(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((1, 2, 4, 4))
        p = make_bn(2, 2.0)
        got = make_block(dw_conv(zero_w(2)), p, PRE)(x)
        assert np.allclose(got, p.forward(x) + x, atol=1e-12)

    def test_pre_bn_identity_conv(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((1, 3, 4, 4))
        p = make_bn(3, 1.5)
        got = make_block(dw_conv(identity_w(3)), p, PRE)(x)
        assert np.allclose(got, p.forward(2 * x) + x, atol=1e-12)

    def test_post_bn_zero_conv_gamma_zero(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((1, 2, 4, 4))
        shift = rng.standard_normal(2)
        p = bn_layer(np.zeros(2), shift, np.zeros(2), np.ones(2))
        got = make_block(dw_conv(zero_w(2)), p, POST)(x)
        assert np.allclose(got, shift.reshape(1, 2, 1, 1) + x, atol=1e-12)

    def test_blocks_match_composed_oracle(self):
        rng = np.random.default_rng(8)
        c = 3
        x = rng.standard_normal((2, c, 4, 4))
        conv = dw_conv(rng.standard_normal((c, 1, 3, 3)))
        z = K.conv_float(x, conv.w, conv.spec)
        p = bn_layer(rng.random(c) + 0.5, rng.standard_normal(c),
                     rng.standard_normal(c), rng.random(c) + 0.5)
        assert np.allclose(make_block(conv, p, PRE)(x), p.forward(z + x) + x, atol=1e-12)
        assert np.allclose(make_block(conv, p, POST)(x), p.forward(z) + x, atol=1e-12)

    def test_topologies_differ_under_large_alpha(self):
        rng = np.random.default_rng(9)
        c = 2
        x = rng.standard_normal((1, c, 4, 4))
        conv = dw_conv(rng.standard_normal((c, 1, 3, 3)))
        p = make_bn(c, 50.0)
        pre = make_block(conv, p, PRE)(x)
        post = make_block(conv, p, POST)(x)
        assert not np.allclose(pre, post)

    def test_stride2_skip_is_average_pooled(self):
        rng = np.random.default_rng(10)
        c = 2
        conv = dw_conv(rng.standard_normal((c, 1, 3, 3)), stride=2)
        x = rng.standard_normal((1, c, 6, 6))
        p = make_bn(c, 1.0)
        got = make_block(conv, p, POST)(x)
        want = p.forward(K.conv_float(x, conv.w, conv.spec)) + L.avg_pool2(x)
        assert np.allclose(got, want, atol=1e-12)

    def test_jacobian_structure_post_and_pre(self):
        # post-BN: alpha*Jdw + I; pre-BN: alpha*Jdw + (alpha+1)*I
        rng = np.random.default_rng(11)
        c, hw = 2, 4
        x0 = rng.standard_normal((1, c, hw, hw))
        conv = dw_conv(rng.standard_normal((c, 1, 3, 3)))
        alpha = 7.0
        p = make_bn(c, alpha, mu=rng.standard_normal(c), shift=rng.standard_normal(c))
        jdw = jacobian_of_block(lambda t: K.conv_float(t, conv.w, conv.spec), x0)
        eye = np.eye(x0.size)
        j_post = jacobian_of_block(make_block(conv, p, POST), x0)
        j_pre = jacobian_of_block(make_block(conv, p, PRE), x0)
        want_post = alpha * jdw + eye
        want_pre = alpha * jdw + (alpha + 1) * eye
        assert np.linalg.norm(j_post - want_post) <= 1e-3 * np.linalg.norm(want_post)
        assert np.linalg.norm(j_pre - want_pre) <= 1e-3 * np.linalg.norm(want_pre)

    def test_zero_conv_jacobian_limits(self):
        rng = np.random.default_rng(12)
        c = 2
        x0 = rng.standard_normal((1, c, 3, 3))
        zero_conv = dw_conv(zero_w(c))
        alpha = 4.0
        p = make_bn(c, alpha)
        eye = np.eye(x0.size)
        j_post = jacobian_of_block(make_block(zero_conv, p, POST), x0)
        j_pre = jacobian_of_block(make_block(zero_conv, p, PRE), x0)
        assert np.allclose(j_post, eye, atol=1e-6)
        assert np.allclose(j_pre, (alpha + 1) * eye, atol=1e-6)


class TestBroadcastResidual:
    def test_doubling(self):
        x = np.arange(4 * 2 * 2, dtype=float).reshape(1, 4, 2, 2)
        out = L.broadcast_residual(x, 8)
        assert out.shape[1] == 8
        for j in range(8):
            assert np.array_equal(out[:, j], x[:, j % 4])

    def test_identity(self):
        x = np.ones((1, 3, 2, 2))
        assert L.broadcast_residual(x, 3) is x or np.array_equal(L.broadcast_residual(x, 3), x)

    def test_three_to_seven_modular_oracle(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((2, 3, 2, 2))
        out = L.broadcast_residual(x, 7)
        for j in range(7):
            assert np.array_equal(out[:, j], x[:, j % 3])

    def test_reduction_rejected(self):
        with pytest.raises(ValueError):
            L.broadcast_residual(np.ones((1, 4, 2, 2)), 3)

    def test_norm_accounting(self):
        # replication count of channel j is exact and computable
        rng = np.random.default_rng(14)
        c_in, c_out = 3, 8
        x = rng.standard_normal((1, c_in, 4, 4))
        out = L.broadcast_residual(x, c_out)
        reps = [(c_out - j - 1) // c_in + 1 for j in range(c_in)]
        want = sum(reps[j] * float((x[:, j] ** 2).sum()) for j in range(c_in))
        assert np.isclose(float((out**2).sum()), want, rtol=1e-12)

    def test_backward_folds_channels(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((1, 3, 2, 2))
        gy = rng.standard_normal((1, 7, 2, 2))
        gx = L.broadcast_residual_backward(gy, 3)
        h = 1e-6
        for c in range(3):
            xp = x.copy(); xp[0, c, 0, 0] += h
            xm = x.copy(); xm[0, c, 0, 0] -= h
            fd = ((L.broadcast_residual(xp, 7) * gy).sum() - (L.broadcast_residual(xm, 7) * gy).sum()) / (2 * h)
            assert abs(gx[0, c, 0, 0] - fd) < 1e-6


class TestShiftedPReLU:
    def test_identity(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((1, 2, 3, 3))
        out = prelu_layer(np.zeros(2), np.ones(2), np.zeros(2)).forward(x)
        assert np.array_equal(out, x)

    def test_relu(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((1, 2, 3, 3))
        out = prelu_layer(np.zeros(2), np.zeros(2), np.zeros(2)).forward(x)
        assert np.array_equal(out, np.maximum(x, 0))

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(18)
        c = 3
        x = rng.standard_normal((2, c, 4, 4))
        si, sl, so = rng.standard_normal(c), rng.random(c), rng.standard_normal(c)
        got = prelu_layer(si, sl, so).forward(x)
        z = x - si.reshape(1, c, 1, 1)
        want = np.where(z >= 0, z, sl.reshape(1, c, 1, 1) * z) + so.reshape(1, c, 1, 1)
        assert np.array_equal(got, want)

    def test_signed_zeros(self):
        """Inputs of exactly +/-0 with shift_in = +0 and shift_out = -0: the
        values equal the select formula and its gradients; only the sign of
        a zero output may differ."""
        x = np.array([0.0, -0.0, 1.5, -1.5, 5e-324, -5e-324]).reshape(1, 1, 2, 3)
        act = prelu_layer(np.zeros(1), np.full(1, 0.25), np.full(1, -0.0))
        got = act.forward(x, grad=True)
        want = np.where(x >= 0, x, 0.25 * x) + -0.0
        assert np.array_equal(got, want)
        assert np.all((np.signbit(got) == np.signbit(want)) | (want == 0))
        gy = np.arange(1.0, 7.0).reshape(x.shape)
        gx = act.backward(gy)
        assert np.array_equal(gx, gy * np.where(x >= 0, 1.0, 0.25))
        assert act.gslope[0] == np.sum(gy * np.where(x < 0, x, 0.0))


SHAPES = [(1, 8, 16, 16), (16, 32, 8, 8), (3, 5, 6, 10)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", SHAPES)
class TestFormulasUnchanged:
    """The in-place forwards and backwards are bit-identical to the plain
    formulas."""

    @staticmethod
    def draws(shape, dtype):
        rng = np.random.default_rng(sum(shape))
        c = shape[1]
        x = (rng.standard_normal(shape) * 3.0).astype(dtype)
        return x, [rng.standard_normal(c).astype(dtype) for _ in range(3)], rng.random(c).astype(dtype)

    def test_avg_pool2(self, shape, dtype):
        x, _, _ = self.draws(shape, dtype)
        n, c, h, w = shape
        want = x.reshape(n, c, h // 2, 2, w // 2, 2).mean(axis=(3, 5))
        got = L.avg_pool2(x)
        assert got.dtype == dtype and np.array_equal(got, want)

    def test_batchnorm(self, shape, dtype):
        x, (gamma, beta, mu), var = self.draws(shape, dtype)
        bn = M.BatchNorm("bn", shape[1], dtype)
        bn.gamma[...], bn.beta[...], bn.mu[...], bn.var[...] = gamma, beta, mu, var
        for training in (False, True):
            m, v = (x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))) if training else (mu, var)
            inv_std = 1.0 / np.sqrt(v + L.BN_EPS)
            xhat = (x - m.reshape(1, -1, 1, 1)) * inv_std.reshape(1, -1, 1, 1)
            want = gamma.reshape(1, -1, 1, 1) * xhat + beta.reshape(1, -1, 1, 1)
            got = bn.forward(x, training, grad=True)
            assert got.dtype == dtype and np.array_equal(got, want)
            assert np.array_equal(bn._cache[0], xhat)

    def test_shifted_prelu(self, shape, dtype):
        x, (shift_in, shift_out, _), slope = self.draws(shape, dtype)
        act = M.ShiftedPReLU("act", shape[1], dtype)
        act.shift_in[...], act.slope[...], act.shift_out[...] = shift_in, slope, shift_out
        z = x - shift_in.reshape(1, -1, 1, 1)
        want = np.where(z >= 0, z, slope.reshape(1, -1, 1, 1) * z) + shift_out.reshape(1, -1, 1, 1)
        got = act.forward(x, grad=True)
        assert got.dtype == dtype and np.array_equal(got, want)
        assert np.array_equal(act._cache, np.minimum(z, 0))

    def test_shifted_prelu_backward(self, shape, dtype):
        x, (shift_in, shift_out, g), slope = self.draws(shape, dtype)
        gy = x[::-1] * g.reshape(1, -1, 1, 1)
        act = M.ShiftedPReLU("act", shape[1], dtype)
        act.shift_in[...], act.slope[...], act.shift_out[...] = shift_in, slope, shift_out
        act.forward(x, grad=True)
        gx = act.backward(gy)
        z = x - shift_in.reshape(1, -1, 1, 1)
        dz = np.where(z >= 0, 1.0, slope.reshape(1, -1, 1, 1)).astype(dtype)
        want = gy * dz
        assert gx.dtype == dtype and np.array_equal(gx, want)
        assert np.array_equal(act.gshift_out, gy.sum(axis=(0, 2, 3)))
        assert np.array_equal(act.gslope, np.einsum("nchw,nchw->c", gy, np.where(z < 0, z, 0.0)))
        assert np.array_equal(act.gshift_in, -want.sum(axis=(0, 2, 3)))

    def test_batchnorm_backward(self, shape, dtype):
        x, (gamma, beta, mu), var = self.draws(shape, dtype)
        gy = (x[::-1] * 0.5 + 1.0).astype(dtype)
        for training in (False, True):
            bn = M.BatchNorm("bn", shape[1], dtype)
            bn.gamma[...], bn.beta[...], bn.mu[...], bn.var[...] = gamma, beta, mu, var
            bn.forward(x, training, grad=True)
            xhat, inv_std = bn._cache[:2]
            got = bn.backward(gy)
            gxhat = gy * gamma.reshape(1, -1, 1, 1)
            if training:
                m = shape[0] * shape[2] * shape[3]
                want = (inv_std.reshape(1, -1, 1, 1) / m) * (
                    m * gxhat
                    - gxhat.sum(axis=(0, 2, 3)).reshape(1, -1, 1, 1)
                    - xhat * np.einsum("nchw,nchw->c", gxhat, xhat).reshape(1, -1, 1, 1))
            else:
                want = gxhat * inv_std.reshape(1, -1, 1, 1)
            assert got.dtype == dtype and np.array_equal(got, want)
            assert np.array_equal(bn.gbeta, gy.sum(axis=(0, 2, 3)))
            assert np.array_equal(bn.ggamma, np.einsum("nchw,nchw->c", gy, xhat))

    @pytest.mark.parametrize("topology", list(L.BlockTopology))
    @pytest.mark.parametrize("down", [False, True])
    def test_block_backward(self, shape, dtype, topology, down):
        """The block's input gradient is the residual sum of its sublayers'
        backwards; down=True widens 2x at stride 2, so the skip is pooled
        and broadcast."""
        x, _, _ = self.draws(shape, dtype)
        c = shape[1]
        c_out = 2 * c if down else c
        spec = (K.ConvSpec(c, c_out, (3, 3), stride=2, padding=1) if down
                else K.ConvSpec(c, c, (3, 3), padding=1, groups=c))

        def block():
            rng = np.random.default_rng(c)
            act = M.ShiftedPReLU("act", c_out, dtype)
            act.shift_in[...] = rng.standard_normal(c_out)
            bn = M.BatchNorm("bn", c_out, dtype)
            bn.gamma[...], bn.mu[...] = rng.standard_normal(c_out), rng.standard_normal(c_out)
            return M.Block("b", M.FloatConv("conv", spec, rng, dtype), bn, act, topology, c, c_out)

        for training in (False, True):
            blk, ref = block(), block()
            y = blk.forward(x, training, grad=True)
            assert np.array_equal(ref.forward(x, training, grad=True), y)
            gy = (y[::-1] + 0.5).astype(dtype)
            got = blk.backward(gy)
            g0 = ref.act.backward(gy)
            if topology is L.BlockTopology.NO_RESIDUAL:
                want = ref.conv.backward(ref.bn.backward(g0))
            else:
                gz = ref.bn.backward(g0)
                gr = g0 + gz if topology is PRE else g0
                gx = ref.conv.backward(gz)
                if down:
                    gr = L.avg_pool2_backward(L.broadcast_residual_backward(gr, c))
                want = gx + gr
            assert got.dtype == dtype and np.array_equal(got, want)
            for (_, a, ga, _), (_, b, gb, _) in zip(
                    (r for layer in (blk.conv, blk.bn, blk.act) for r in layer.params()),
                    (r for layer in (ref.conv, ref.bn, ref.act) for r in layer.params())):
                assert np.array_equal(ga, gb)


class TestAvgPool:
    def test_values(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = L.avg_pool2(x)
        assert out[0, 0, 0, 0] == (0 + 1 + 4 + 5) / 4

    def test_odd_dims_rejected(self):
        with pytest.raises(ValueError):
            L.avg_pool2(np.ones((1, 1, 3, 4)))
