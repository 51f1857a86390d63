import itertools

import numpy as np
import pytest

from bitconv import kernels as K
from bitconv import tensor as T
from bitconv.quantize import DualQuantParams, ternarize
from bitconv.verify import VARIANTS, run_suite


def conv_nested_loops(x, w, spec):
    """Independent oracle: direct 6-loop cross-correlation with zero padding."""
    n, ci, h, wid = x.shape
    kh, kw = spec.kernel
    s, p = spec.stride, spec.padding
    ho, wo = spec.out_hw(h, wid)
    cig, cog = spec.group_in, spec.group_out
    out = np.zeros((n, spec.out_channels, ho, wo))
    for b in range(n):
        for o in range(spec.out_channels):
            g = o // cog
            for y in range(ho):
                for xx in range(wo):
                    acc = 0.0
                    for c in range(cig):
                        for di in range(kh):
                            for dj in range(kw):
                                iy = y * s - p + di
                                ix = xx * s - p + dj
                                if 0 <= iy < h and 0 <= ix < wid:
                                    acc += x[b, g * cig + c, iy, ix] * w[o, c, di, dj]
                    out[b, o, y, xx] = acc
    return out


class TestConvFloat:
    def test_all_ones_overlap_counts(self):
        spec = K.ConvSpec(1, 1, (3, 3), stride=1, padding=1)
        x = np.ones((1, 1, 3, 3))
        w = np.ones((1, 1, 3, 3))
        out = K.conv_float(x, w, spec)[0, 0]
        assert out[1, 1] == 9
        assert out[0, 0] == out[0, 2] == out[2, 0] == out[2, 2] == 4

    def test_delta_kernel_identity(self):
        spec = K.ConvSpec(2, 2, (3, 3), stride=1, padding=1, groups=2)
        w = np.zeros((2, 1, 3, 3))
        w[:, 0, 1, 1] = 1.0
        x = np.random.default_rng(0).standard_normal((1, 2, 5, 5))
        assert np.allclose(K.conv_float(x, w, spec), x)

    @pytest.mark.parametrize("groups,stride,padding,k", [
        (1, 1, 0, 3), (1, 2, 1, 3), ("dw", 1, 1, 3), ("dw", 2, 0, 3),
        (1, 1, 0, 1), ("dw", 2, 1, 1), (2, 1, 1, 3),
    ])
    def test_matches_nested_loop_oracle(self, groups, stride, padding, k):
        rng = np.random.default_rng(hash((groups, stride, padding, k)) % 2**32)
        ci = 4
        g = ci if groups == "dw" else groups
        co = ci if groups == "dw" else 6
        spec = K.ConvSpec(ci, co, (k, k), stride, padding, groups=g)
        x = rng.standard_normal((2, ci, 7, 8))
        w = rng.standard_normal(spec.weight_shape())
        assert np.allclose(K.conv_float(x, w, spec), conv_nested_loops(x, w, spec), atol=1e-12)

    def test_output_dims(self):
        spec = K.ConvSpec(1, 1, (3, 3), stride=2, padding=1)
        assert spec.out_hw(7, 9) == ((7 + 2 - 3) // 2 + 1, (9 + 2 - 3) // 2 + 1)

    def test_shape_mismatch_raises(self):
        spec = K.ConvSpec(3, 4, (3, 3))
        with pytest.raises(ValueError):
            K.conv_float(np.ones((1, 2, 5, 5)), np.ones(spec.weight_shape()), spec)


class TestConvFloatGrads:
    @pytest.mark.parametrize("dw,stride,padding,k", [
        (False, 1, 1, 3), (False, 2, 0, 3), (True, 1, 1, 3), (True, 2, 1, 3), (False, 1, 0, 1),
    ])
    def test_grads_match_finite_differences(self, dw, stride, padding, k):
        rng = np.random.default_rng(12)
        ci = 3
        co = ci if dw else 4
        spec = K.ConvSpec(ci, co, (k, k), stride, padding, groups=ci if dw else 1)
        x = rng.standard_normal((2, ci, 6, 6))
        w = rng.standard_normal(spec.weight_shape())
        gy = rng.standard_normal(K.conv_float(x, w, spec).shape)

        gx = K.conv_float_grad_input(gy, w, spec, (6, 6))
        gw = K.conv_float_grad_weight(x, gy, spec)
        h = 1e-6

        def loss(x_, w_):
            return float((K.conv_float(x_, w_, spec) * gy).sum())

        for idx in [(0, 0, 0, 0), (1, 2, 3, 4), (0, 1, 5, 5)]:
            xp = x.copy(); xp[idx] += h
            xm = x.copy(); xm[idx] -= h
            fd = (loss(xp, w) - loss(xm, w)) / (2 * h)
            assert abs(gx[idx] - fd) < 1e-5 * max(1.0, abs(fd))
        for idx in [(0, 0, 0, 0), (co - 1, spec.group_in - 1, k - 1, k - 1)]:
            wp = w.copy(); wp[idx] += h
            wm = w.copy(); wm[idx] -= h
            fd = (loss(x, wp) - loss(x, wm)) / (2 * h)
            assert abs(gw[idx] - fd) < 1e-5 * max(1.0, abs(fd))


class TestPointwiseFloat:
    """A 1x1, stride-1, unpadded, ungrouped conv and its gradients run as
    BLAS matrix products instead of the per-tap path."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("ci,co", [(1, 3), (8, 16), (64, 8), (255, 4), (256, 4)])
    def test_sign_operands_exact(self, dtype, ci, co):
        """On +/-1 operands every partial sum is an integer below 2**24, so
        the product equals the nested-loop oracle bit for bit in float32
        and float64, whatever order BLAS sums in. The packed == float
        logits gate rests on this; 256 is ModelConfig()'s widest
        point-wise input."""
        spec = K.ConvSpec(ci, co, (1, 1))
        assert spec.is_pointwise
        rng = np.random.default_rng(ci * 1000 + co)
        x = np.where(rng.random((2, ci, 3, 4)) < 0.5, -1.0, 1.0).astype(dtype)
        w = np.where(rng.random(spec.weight_shape()) < 0.5, -1.0, 1.0).astype(dtype)
        got = K.conv_float(x, w, spec)
        assert got.dtype == dtype and np.array_equal(got, conv_nested_loops(x, w, spec))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_float_operands_within_summation_bound(self, dtype):
        """On float operands the products sum in BLAS's order, not the
        per-tap einsum's. Two sums of the same k products differ by at most
        2 * gamma_k * sum |product|, gamma_k ~ k * eps / 2 (Higham, Accuracy
        and Stability of Numerical Algorithms, 3.1), whatever either order;
        the check allows k * eps * sum |product|."""
        n, ci, co, h, w_ = 5, 24, 16, 4, 6
        spec = K.ConvSpec(ci, co, (1, 1))
        rng = np.random.default_rng(3)
        x = rng.standard_normal((n, ci, h, w_)).astype(dtype)
        w = rng.standard_normal(spec.weight_shape()).astype(dtype)
        gy = rng.standard_normal((n, co, h, w_)).astype(dtype)
        w2 = w[:, :, 0, 0]
        cases = [  # (kernel result, einsum formula of the reference, its operands, terms per sum)
            (K.conv_float(x, w, spec), "nchw,oc->nohw", (x, w2), ci),
            (K.conv_float_grad_input(gy, w, spec, (h, w_)), "nohw,oc->nchw", (gy, w2), co),
            (K.conv_float_grad_weight(x, gy, spec)[:, :, 0, 0], "nchw,nohw->oc", (x, gy), n * h * w_),
        ]
        eps = np.finfo(dtype).eps
        for got, formula, operands, terms in cases:
            want = np.einsum(formula, *operands)
            bound = terms * eps * np.einsum(formula, *map(np.abs, operands))
            assert got.dtype == want.dtype == dtype and got.shape == want.shape
            assert np.all(np.abs(got - want) <= bound)
            assert np.any(bound > 0)


def dw_per_channel(x, w, gy, spec):
    """conv_float, conv_float_grad_input and conv_float_grad_weight of a
    depth-wise spec, one channel at a time: each output (or input-gradient)
    element sums its taps in row-major order, starting from zero."""
    n, c, h, wd = x.shape
    kh, kw = spec.kernel
    s, p = spec.stride, spec.padding
    ho, wo = spec.out_hw(h, wd)
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    y = np.zeros((n, c, ho, wo))
    gxp = np.zeros_like(xp)
    gw = np.zeros(spec.weight_shape())
    for ch in range(c):
        for di in range(kh):
            for dj in range(kw):
                rows = slice(di, di + (ho - 1) * s + 1, s)
                cols = slice(dj, dj + (wo - 1) * s + 1, s)
                y[:, ch] += xp[:, ch, rows, cols] * w[ch, 0, di, dj]
                gxp[:, ch, rows, cols] += gy[:, ch] * w[ch, 0, di, dj]
                gw[ch, 0, di, dj] = np.einsum("nhw,nhw->", xp[:, ch, rows, cols], gy[:, ch])
    return y, gxp[:, :, p : p + h, p : p + wd], gw


class TestDepthwiseFloatBlocks:
    """The depth-wise float kernels run over blocks of (sample, channel)
    planes; the result must not depend on where the block edges fall."""

    @pytest.mark.parametrize("n", [1, 32, 96])
    @pytest.mark.parametrize("blocks", ["one", "several"])
    @pytest.mark.parametrize("k,stride,pad", [
        (1, 1, 0), (1, 2, 1), (3, 1, 1), (3, 2, 1), (3, 1, 0), (3, 2, 0), (5, 1, 1), (5, 2, 0),
    ])
    def test_matches_per_channel_loop(self, n, blocks, k, stride, pad):
        h = 9
        ho = (h + 2 * pad - k) // stride + 1
        for plane_elems, kernel in ((ho * ho, "forward"), (h * h, "grad_input")):
            per_block = max(K._FLOAT_BLOCK_PLANES, K._FLOAT_BLOCK_ELEMS // plane_elems)
            # channels that fill less than one block, or spill past a block
            # edge without a whole number of blocks
            c = max(1, per_block // n - 1) if blocks == "one" else per_block // n + 1
            assert (n * c <= per_block) == (blocks == "one") and n * c % per_block
            spec = K.ConvSpec(c, c, (k, k), stride, pad, groups=c)
            rng = np.random.default_rng(n * c + k)
            x = rng.standard_normal((n, c, h, h))
            w = rng.standard_normal(spec.weight_shape())
            gy = rng.standard_normal((n, c, ho, ho))
            y, gx, gw = dw_per_channel(x, w, gy, spec)
            if kernel == "forward":
                assert np.array_equal(K.conv_float(x, w, spec), y)
                got = K.conv_float_grad_weight(x, gy, spec)
                assert np.abs(got - gw).max() <= 1e-12 * np.abs(gw).max()
            else:
                assert np.array_equal(K.conv_float_grad_input(gy, w, spec, (h, h)), gx)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_keeps_dtype(self, dtype):
        spec = K.ConvSpec(4, 4, (3, 3), 1, 1, groups=4)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 4, 6, 6)).astype(dtype)
        w = rng.standard_normal(spec.weight_shape()).astype(dtype)
        assert K.conv_float(x, w, spec).dtype == dtype
        assert K.conv_float_grad_input(x, w, spec, (6, 6)).dtype == dtype
        assert K.conv_float_grad_weight(x, x, spec).dtype == dtype


def unscaled_oracle(bits, bw, spec):
    """Float conv on the decoded +/-1 operands: what conv_binary's counts equal."""
    return K.conv_float(np.where(bits, 1.0, -1.0), T.unpack(bw.packed), spec)


class TestConvBinary:
    def test_all_agree_depthwise(self):
        spec = K.ConvSpec(2, 2, (3, 3), groups=2)
        x = np.ones((1, 2, 5, 5))
        beta = np.array([0.5, 2.0])
        w = K.binarize_weights(np.ones(spec.weight_shape()))
        counts = K.conv_binary(T.sign_bits(x), w, spec)
        assert counts.dtype == np.int32 and np.all(counts == 9)
        out = K.conv_multi_dw(x, np.zeros((1, 2)), w, beta[None], spec)
        assert np.all(out[0, 0] == 9 * 0.5)
        assert np.all(out[0, 1] == 9 * 2.0)

    def test_window_matching_filter_maximal(self):
        rng = np.random.default_rng(1)
        spec = K.ConvSpec(1, 1, (3, 3), groups=1)
        x = rng.choice([-1.0, 1.0], (1, 1, 5, 5))
        w = x[:, :, 1:4, 1:4].copy()  # filter equals the center window patch
        out = K.conv_binary(T.sign_bits(x), K.binarize_weights(w), spec)
        assert out[0, 0, 1, 1] == 9

    def test_strided_padded_case_bit_exact(self):
        # 3x3 holds its window in uint16, 5x5 in uint32, 8x8 fills a uint64
        rng = np.random.default_rng(2)
        bits = T.sign_bits(rng.standard_normal((2, 8, 10, 10)))
        for k in (3, 5, 8):
            spec = K.ConvSpec(8, 8, (k, k), stride=2, padding=1, groups=8)
            bw = K.binarize_weights(rng.standard_normal(spec.weight_shape()))
            got = K.conv_binary(bits, bw, spec)
            assert np.array_equal(got, unscaled_oracle(bits, bw, spec)), k

    def test_padding_contributes_zero_not_minus_one(self):
        # an all-(+1) input against an all-(+1) filter: corner windows see
        # 4 live taps, so the count is 4, not 4 - 5 pads
        spec = K.ConvSpec(1, 1, (3, 3), stride=1, padding=1, groups=1)
        x = np.ones((1, 1, 3, 3))
        bw = K.binarize_weights(np.ones(spec.weight_shape()))
        out = K.conv_binary(T.sign_bits(x), bw, spec)
        assert out[0, 0, 0, 0] == 4
        assert out[0, 0, 1, 1] == 9

    def test_pad_bit_corruption_is_masked(self):
        rng = np.random.default_rng(3)
        spec = K.ConvSpec(4, 4, (3, 3), padding=1, groups=4)
        bits = T.sign_bits(rng.standard_normal((1, 4, 5, 5)))
        bw = K.binarize_weights(rng.standard_normal(spec.weight_shape()))
        want = K.conv_binary(bits, bw, spec)
        bad_w = bw.packed.copy()
        bad_w.words[:, :, -1] |= ~T.payload_mask(bad_w.words_per_channel, bad_w.elems_per_channel)[-1]
        got = K.conv_binary(bits, K.BinaryConvWeights(bad_w), spec)
        assert np.array_equal(got, want)

    def test_unsupported_groups(self):
        spec = K.ConvSpec(4, 8, (3, 3), groups=2)
        bits = T.sign_bits(np.ones((1, 4, 5, 5)))
        bw = K.binarize_weights(np.ones(spec.weight_shape()))
        with pytest.raises(ValueError):
            K.conv_binary(bits, bw, spec)

    def test_channels_gt_64_regular(self):
        # channel packing spans multiple words and a partial payload word;
        # the padded 3x3 case also has dead taps to correct at the edges
        rng = np.random.default_rng(4)
        bits = T.sign_bits(rng.standard_normal((1, 70, 4, 4)))
        for spec in (K.ConvSpec(70, 5, (1, 1)), K.ConvSpec(70, 5, (3, 3), stride=2, padding=1)):
            bw = K.binarize_weights(rng.standard_normal(spec.weight_shape()))
            got = K.conv_binary(bits, bw, spec)
            assert np.array_equal(got, unscaled_oracle(bits, bw, spec)), spec


class TestKernelOperand:
    """Each BinaryConvWeights builds its kernel operand once and keeps it."""

    def test_one_bank_serves_regular_and_depthwise(self):
        # a (8, 1, 3, 3) bank is a regular conv on one channel and a
        # depth-wise conv on eight; each kind keeps its own operand
        rng = np.random.default_rng(12)
        regular = K.ConvSpec(1, 8, (3, 3), padding=1)
        depthwise = K.ConvSpec(8, 8, (3, 3), padding=1, groups=8)
        x1 = T.sign_bits(rng.standard_normal((2, 1, 6, 6)))
        x8 = T.sign_bits(rng.standard_normal((2, 8, 6, 6)))
        w = rng.standard_normal((8, 1, 3, 3))
        for order in ((regular, depthwise), (depthwise, regular)):
            bw = K.binarize_weights(w)
            for spec in order + order:
                xb = x8 if spec.is_depthwise else x1
                assert np.array_equal(K.conv_binary(xb, bw, spec), unscaled_oracle(xb, bw, spec)), spec

    def test_reused_weights_match_fresh(self):
        rng = np.random.default_rng(13)
        w = rng.standard_normal((6, 4, 3, 3))
        spec = K.ConvSpec(4, 6, (3, 3), stride=2, padding=1)
        bw = K.binarize_weights(w)
        for _ in range(2):
            xb = T.sign_bits(rng.standard_normal((1, 4, 7, 7)))
            assert np.array_equal(K.conv_binary(xb, bw, spec),
                                  K.conv_binary(xb, K.binarize_weights(w), spec))

    def test_multi_builds_bank_operand_once(self):
        # two calls on one stacked bank build its kernel operand once
        rng = np.random.default_rng(14)
        c = 5
        spec = K.ConvSpec(c, c, (3, 3), padding=1, groups=c)
        x = rng.standard_normal((2, c, 6, 6))
        thr, beta = rng.uniform(-0.3, 0.3, (2, c)), rng.random((2, c))
        bank = K.binarize_weights(rng.standard_normal(spec.stacked(2).weight_shape()))
        words = bank.packed.words.copy()
        first = K.conv_multi_dw(x, thr, bank, beta, spec)
        operand = bank._operands[True]
        assert np.array_equal(K.conv_multi_dw(x, thr, bank, beta, spec), first)
        assert bank._operands[True] is operand
        assert np.array_equal(bank.packed.words, words)


class TestBitArrayEntry:
    """conv_binary reads the bool array of tensor.sign_bits, which decodes as
    the BitTensor of the same pattern does, and conv_multi_dw runs its
    branches as one stacked call."""

    @staticmethod
    def tied_input(rng, shape):
        # values on a coarse grid, so some elements tie with the thresholds
        return rng.integers(-3, 4, shape) * 0.25

    @pytest.mark.parametrize("spec", [
        K.ConvSpec(70, 5, (3, 3), stride=2, padding=1),
        K.ConvSpec(6, 6, (3, 3), stride=1, padding=1, groups=6),
        K.ConvSpec(6, 6, (5, 5), stride=2, padding=1, groups=6),
        K.ConvSpec(6, 6, (8, 8), stride=1, padding=1, groups=6),
    ])
    def test_bool_array_equals_bit_tensor(self, spec):
        rng = np.random.default_rng(spec.in_channels + spec.kernel[0])
        c = spec.in_channels
        x = self.tied_input(rng, (2, c, 9, 9))
        thr = rng.integers(-2, 3, c) * 0.25
        bw = K.binarize_weights(rng.standard_normal(spec.weight_shape()))
        bits = T.sign_bits(x, thr)
        assert bits.dtype == bool and bits.shape == x.shape
        got = K.conv_binary(bits, bw, spec)
        assert got.dtype == np.int32
        assert np.array_equal(got, K.conv_float(T.unpack(T.pack(x, thr)), T.unpack(bw.packed), spec))
        signs = np.where(x >= thr.reshape(1, -1, 1, 1), 1.0, -1.0)
        want = K.conv_float(signs, T.unpack(bw.packed), spec)
        assert np.array_equal(got, want)

    def test_non_bool_array_rejected(self):
        spec = K.ConvSpec(2, 2, (3, 3), groups=2)
        bw = K.binarize_weights(np.ones(spec.weight_shape()))
        with pytest.raises(ValueError, match="bool"):
            K.conv_binary(np.ones((1, 2, 4, 4), dtype=np.uint8), bw, spec)

    def test_stacked_thresholds(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((2, 3, 4, 5))
        thr = rng.uniform(-0.5, 0.5, (4, 3))
        stacked = T.sign_bits(x, thr)
        assert stacked.shape == (2, 12, 4, 5)
        for i in range(4):
            assert np.array_equal(stacked[:, 3 * i : 3 * (i + 1)], T.sign_bits(x, thr[i]))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_stacked_multi_equals_sequential_branch_sum(self, n, dtype):
        rng = np.random.default_rng(20 + n)
        c = 7
        spec = K.ConvSpec(c, c, (3, 3), stride=2, padding=1, groups=c)
        x = self.tied_input(rng, (3, c, 9, 9)).astype(dtype)
        thr = (rng.integers(-2, 3, (n, c)) * 0.25).astype(dtype)
        beta = rng.random((n, c)).astype(dtype)
        ws = rng.standard_normal((n, *spec.weight_shape()))
        want = None
        for w, t, b in zip(ws, thr, beta):  # scaled in float64, then cast
            counts = K.conv_binary(T.sign_bits(x, t), K.binarize_weights(w), spec)
            y = (counts * b.astype(np.float64).reshape(1, -1, 1, 1)).astype(dtype)
            want = y if want is None else want + y
        got = K.conv_multi_dw(x, thr, K.binarize_weights(np.concatenate(ws)), beta, spec)
        assert got.dtype == dtype
        assert np.array_equal(got, want)

    def test_multi_makes_one_kernel_call_over_stacked_channels(self, monkeypatch):
        rng = np.random.default_rng(16)
        c = 4
        spec = K.ConvSpec(c, c, (3, 3), padding=1, groups=c)
        bank = K.binarize_weights(rng.standard_normal(spec.stacked(3).weight_shape()))
        calls = []
        conv_binary = K.conv_binary

        def counting(xb, w, kspec):
            calls.append(kspec)
            return conv_binary(xb, w, kspec)

        monkeypatch.setattr(K, "conv_binary", counting)
        K.conv_multi_dw(rng.standard_normal((1, c, 6, 6)), rng.uniform(-0.3, 0.3, (3, c)), bank,
                        rng.random((3, c)), spec)
        assert calls == [K.ConvSpec(3 * c, 3 * c, (3, 3), padding=1, groups=3 * c)]

    def test_multi_rejects_mismatched_branch(self):
        # the bank's filters are 5x5 in a 3x3 spec
        spec = K.ConvSpec(2, 2, (3, 3), groups=2)
        bad = K.binarize_weights(np.ones((4, 1, 5, 5)))
        with pytest.raises(ValueError):
            K.conv_multi_dw(np.ones((1, 2, 6, 6)), np.zeros((2, 2)), bad, np.ones((2, 2)), spec)

    @pytest.mark.parametrize("thr, bank_rows, beta, match", [
        (np.zeros(2), 4, np.ones((2, 2)), "thresholds"),  # one threshold row, not (N, C)
        (np.zeros((2, 1)), 4, np.ones((2, 2)), "thresholds"),  # scalar-per-branch thresholds
        (np.zeros((2, 3)), 4, np.ones((2, 2)), "thresholds"),  # C = 3 in a 2-channel spec
        (np.zeros((2, 2)), 4, np.ones(2), "magnitudes"),  # scalar-per-branch magnitudes
        (np.zeros((2, 2)), 4, np.ones((2, 1)), "magnitudes"),
        (np.zeros((2, 2)), 4, np.ones((3, 2)), "magnitudes"),
        (np.zeros((2, 2)), 2, np.ones((2, 2)), "weights"),  # one branch's filters for two
        (np.zeros((2, 2)), 6, np.ones((2, 2)), "weights"),
    ])
    def test_multi_rejects_misshapen_arguments(self, thr, bank_rows, beta, match):
        spec = K.ConvSpec(2, 2, (3, 3), groups=2)
        bank = K.binarize_weights(np.ones((bank_rows, 1, 3, 3)))
        with pytest.raises(ValueError, match=match):
            K.conv_multi_dw(np.ones((1, 2, 6, 6)), thr, bank, beta, spec)

    def test_non_finite_input_rejected(self):
        spec = K.ConvSpec(2, 2, (3, 3), groups=2)
        bw = K.binarize_weights(np.ones(spec.weight_shape()))
        x = np.ones((1, 2, 4, 4))
        x[0, 1, 2, 3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            T.sign_bits(x)
        with pytest.raises(ValueError, match="finite"):
            K.conv_multi_dw(x, np.zeros((1, 2)), bw, np.ones((1, 2)), spec)


class TestDualAndMulti:
    def test_zero_branch_degenerates(self):
        rng = np.random.default_rng(5)
        c = 3
        spec = K.ConvSpec(c, c, (3, 3), padding=1, groups=c)
        x = rng.standard_normal((1, c, 6, 6))
        q = DualQuantParams(np.full(c, -0.2), np.full(c, 0.2), rng.random(c), np.zeros(c))
        ws = rng.standard_normal((2, *spec.weight_shape()))
        bank = K.binarize_weights(np.concatenate(ws))
        got = K.conv_multi_dw(x, np.stack([q.alpha1, q.alpha2]), bank, np.stack([q.beta1, q.beta2]), spec)
        want = K.conv_binary(T.sign_bits(x, q.alpha1), K.binarize_weights(ws[0]), spec)
        assert np.array_equal(got, want * q.beta1.reshape(1, -1, 1, 1))

    def test_1x1_kernel_equals_pointwise_ternarize(self):
        # with a 1x1 kernel and +1 filters, each output pixel is the
        # three-level quantizer of the input pixel
        rng = np.random.default_rng(6)
        c = 4
        spec = K.ConvSpec(c, c, (1, 1), groups=c)
        x = rng.standard_normal((2, c, 5, 5))
        a1 = rng.uniform(-0.5, 0.0, c)
        a2 = a1 + rng.uniform(0.1, 0.5, c)
        q = DualQuantParams(a1, a2, rng.random(c) + 0.1, rng.random(c) + 0.1)
        bank = K.binarize_weights(np.ones(spec.stacked(2).weight_shape()))  # +1 filters
        got = K.conv_multi_dw(x, np.stack([a1, a2]), bank, np.stack([q.beta1, q.beta2]), spec)
        assert np.array_equal(got, ternarize(x, q))

    def test_dual_matches_two_branch_oracle(self):
        rng = np.random.default_rng(7)
        c = 6
        spec = K.ConvSpec(c, c, (3, 3), stride=2, padding=1, groups=c)
        x = rng.standard_normal((2, c, 9, 9))
        a1 = rng.uniform(-0.4, 0.0, c)
        a2 = a1 + rng.uniform(0, 0.6, c)
        q = DualQuantParams(a1, a2, rng.random(c), rng.random(c))
        bank = K.binarize_weights(rng.standard_normal(spec.stacked(2).weight_shape()))
        got = K.conv_multi_dw(x, np.stack([a1, a2]), bank, np.stack([q.beta1, q.beta2]), spec)
        w1, w2 = np.split(T.unpack(bank.packed), 2)
        b1 = K.conv_float(T.unpack(T.pack(x, a1)), w1, spec) * q.beta1.reshape(1, -1, 1, 1)
        b2 = K.conv_float(T.unpack(T.pack(x, a2)), w2, spec) * q.beta2.reshape(1, -1, 1, 1)
        assert np.array_equal(got, b1 + b2)

    def test_multi_n1_equals_binary(self):
        rng = np.random.default_rng(8)
        c = 4
        spec = K.ConvSpec(c, c, (3, 3), padding=1, groups=c)
        x = rng.standard_normal((1, c, 6, 6))
        thr = rng.uniform(-0.3, 0.3, c)
        beta = rng.random(c)
        w = K.binarize_weights(rng.standard_normal(spec.weight_shape()))
        got = K.conv_multi_dw(x, thr[None], w, beta[None], spec)
        want = K.conv_binary(T.sign_bits(x, thr), w, spec) * beta.reshape(1, -1, 1, 1)
        assert np.array_equal(got, want)

    def test_multi_n4_matches_four_branch_oracle(self):
        rng = np.random.default_rng(10)
        c = 3
        spec = K.ConvSpec(c, c, (3, 3), stride=1, padding=1, groups=c)
        x = rng.standard_normal((1, c, 8, 8))
        thr = rng.uniform(-0.5, 0.5, (4, c))
        beta = rng.random((4, c))
        bank = K.binarize_weights(rng.standard_normal(spec.stacked(4).weight_shape()))
        want = None
        for f, t, b in zip(np.split(T.unpack(bank.packed), 4), thr, beta):
            y = K.conv_float(T.unpack(T.pack(x, t)), f, spec) * b.reshape(1, -1, 1, 1)
            want = y if want is None else want + y
        assert np.array_equal(K.conv_multi_dw(x, thr, bank, beta, spec), want)

    def test_branch_count_bounds(self):
        spec = K.ConvSpec(2, 2, (3, 3), groups=2)
        for n in (0, 5):
            bank = K.binarize_weights(np.ones((max(n, 1) * 2, 1, 3, 3)))
            with pytest.raises(ValueError, match="branch count"):
                K.conv_multi_dw(np.ones((1, 2, 4, 4)), np.zeros((n, 2)), bank, np.ones((n, 2)), spec)

    def test_non_depthwise_rejected(self):
        spec = K.ConvSpec(2, 4, (3, 3))
        w = K.binarize_weights(np.ones((8, 2, 3, 3)))
        with pytest.raises(ValueError, match="depth-wise"):
            K.conv_multi_dw(np.ones((1, 2, 5, 5)), np.array([[0.0] * 2, [0.1] * 2]), w, np.ones((2, 4)), spec)

    def test_multi_runs_regular_spec_as_one_branch(self):
        # N = 1 on a point-wise spec is conv_binary with the magnitudes applied after it
        rng = np.random.default_rng(9)
        spec = K.ConvSpec(5, 3, (1, 1))
        x = rng.standard_normal((2, 5, 4, 4))
        thr, beta = rng.uniform(-0.3, 0.3, (1, 5)), rng.random((1, 3))
        w = K.binarize_weights(rng.standard_normal(spec.weight_shape()))
        got = K.conv_multi_dw(x, thr, w, beta, spec)
        assert np.array_equal(got, K.conv_binary(T.sign_bits(x, thr[0]), w, spec) * beta.reshape(1, -1, 1, 1))


class TestStructuralProperties:
    def test_single_dw_output_level_count(self):
        # a k*k window dot takes values in {-9, -7, ..., 9}: k*k + 1 levels
        vals = set()
        for bits in itertools.product([0, 1], repeat=9):
            vals.add(2 * sum(bits) - 9)
        assert len(vals) == 10

        rng = np.random.default_rng(11)
        spec = K.ConvSpec(1, 1, (3, 3), padding=1, groups=1)
        beta = np.array([0.75])
        levels = set()
        for _ in range(40):
            x = rng.choice([-1.0, 1.0], (1, 1, 6, 6))
            w = K.binarize_weights(rng.choice([-1.0, 1.0], spec.weight_shape()))
            out = K.conv_multi_dw(x, np.zeros((1, 1)), w, beta[None], spec)
            levels.update(np.round(out[:, :, 1:-1, 1:-1], 9).ravel().tolist())
        allowed = {round((2 * m - 9) * 0.75, 9) for m in range(10)}
        assert levels <= allowed

    def test_dual_dw_level_count_bound(self):
        # dual conv outputs live in the sumset of two (k*k+1)-level sets
        b1, b2 = 0.5, 0.25
        s1 = {(2 * m - 9) * b1 for m in range(10)}
        s2 = {(2 * m - 9) * b2 for m in range(10)}
        sums = {a + b for a in s1 for b in s2}
        assert len(sums) <= 100

    def test_exactly_512_distinct_3x3_sign_filters(self):
        filters = set()
        for bits in itertools.product([-1.0, 1.0], repeat=9):
            filters.add(bits)
        assert len(filters) == 2**9

    def test_verify_suite_small(self):
        results = run_suite(cases_per_variant=25, seed=123)
        assert all(r.ok for r in results)

    def test_verify_suite_corrupt_pad_fails_every_variant(self):
        results = run_suite(cases_per_variant=25, seed=123, corrupt_pad=True)
        failed = {r.variant for r in results if not r.ok}
        assert failed == set(VARIANTS)
