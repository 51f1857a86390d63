import copy
import json
import tracemalloc

import numpy as np
import pytest

from bitconv import kernels as K
from bitconv import layers as L
from bitconv import model as M
from bitconv import tensor as T
from bitconv import train as TR
from bitconv.quantize import ste_grad_sign
from bitconv.analysis import count_ops, hessian_topk
from bitconv.kernels import ConvSpec
from bitconv.layers import BlockTopology
from bitconv.train import (ABLATION_NAMES, SGD, TrainConfig, ablation_config, backward, batch_gradient,
                           gen_synthetic, softmax_cross_entropy, train)


def small_config(**kw):
    base = dict(variant="A", n_convs=2, stages=((8, 1), (16, 2)),
                input_shape=(1, 8, 8), classes=3,
                topology=BlockTopology.PRE_BN_RESIDUAL)
    base.update(kw)
    return M.ModelConfig(**base)


class TestBuild:
    def test_zero_input_finite_logits(self):
        net = M.build(small_config(), seed=0)
        logits = net.forward(np.zeros((5, 1, 8, 8)))
        assert logits.shape == (5, 3)
        assert np.all(np.isfinite(logits))

    def test_deterministic_build(self):
        a = M.build(small_config(), seed=3)
        b = M.build(small_config(), seed=3)
        for (n1, p1), (n2, p2) in zip(a.named_params(), b.named_params()):
            assert n1 == n2 and np.array_equal(p1, p2)

    def test_width_multiplier_rounds_up_to_8(self):
        cfg = small_config(width_multiplier=0.5, stages=((32, 1), (64, 2), (20, 1)))
        assert cfg.scaled(32) == 16
        assert cfg.scaled(64) == 32
        assert cfg.scaled(20) == 16  # 10 rounds up
        net = M.build(cfg, seed=0)
        assert net.forward(np.zeros((1, 1, 8, 8))).shape == (1, 3)

    def test_variant_b_keeps_stride2_dw_real(self):
        net = M.build(small_config(variant="B"), seed=0)
        kinds = {}
        for item in net.items:
            if isinstance(item, M.Block):
                kinds[item.name] = type(item.conv).__name__
        assert kinds["s0_dw"] == "MultiBinaryConv"   # stride 1 stays binary
        assert kinds["s1_dw"] == "FloatConv"         # stride 2 goes real
        assert kinds["s1_pw"] == "MultiBinaryConv"

    def test_all_eight_ablation_structures_train(self):
        tr, va = gen_synthetic("blobs", 48, 3, seed=0)
        for topology in (BlockTopology.POST_BN_RESIDUAL, BlockTopology.PRE_BN_RESIDUAL):
            for n in (1, 2, 3, 4):
                cfg = small_config(topology=topology, n_convs=n, stages=((8, 1),))
                net = M.build(cfg, seed=0, dtype=np.float64)
                report = train(net, (tr, va), TrainConfig(epochs=1, lr=1e-3, seed=0))
                assert np.isfinite(report.final("val", "loss"))

    def test_packed_forward_matches_float_path(self):
        rng = np.random.default_rng(4)
        for variant in ("A", "B"):
            for topology in BlockTopology:
                net = M.build(small_config(variant=variant, topology=topology),
                              seed=1, dtype=np.float64)
                x = rng.standard_normal((2, 1, 8, 8))
                assert np.array_equal(net.forward(x), net.forward(x, packed=True))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n_convs", [1, 2, 3, 4])
    def test_packed_forward_is_float_path_in_net_dtype(self, n_convs, dtype):
        # each branch's scaled output is rounded to the net dtype before the
        # branches sum, as in the float path, so float32 nets match exactly too
        rng = np.random.default_rng(n_convs)
        for variant in ("A", "B"):
            for topology in BlockTopology:
                cfg = small_config(variant=variant, topology=topology, n_convs=n_convs,
                                   stages=((8, 1), (16, 2), (16, 1)), input_shape=(3, 8, 8))
                net = M.build(cfg, seed=n_convs, dtype=dtype)
                x = rng.standard_normal((3, 3, 8, 8))
                packed = net.forward(x, packed=True)
                assert packed.dtype == dtype
                assert np.array_equal(packed, net.forward(x)), (variant, topology)

    def test_backward_after_packed_forward_raises(self):
        # a packed forward leaves no cache, so backward cannot differentiate
        # an earlier training forward that did not produce the output
        net = M.build(small_config(), seed=0, dtype=np.float64)
        x = np.random.default_rng(0).standard_normal((2, 1, 8, 8))
        logits = net.forward(x, training=True)
        net.forward(x, packed=True)
        with pytest.raises(RuntimeError, match="backward"):
            net.backward(np.ones_like(logits))

    def test_packed_forward_rejects_non_finite_input(self):
        net = M.build(small_config(), seed=0, dtype=np.float64)
        x = np.zeros((1, 1, 8, 8))
        x[0, 0, 3, 4] = np.nan
        with pytest.raises(ValueError, match="finite"):
            net.forward(x, packed=True)

    def test_ablation_presets(self):
        # the naive baseline keeps the conventional post-BN shortcut
        cfg = ablation_config("baseline")
        assert cfg.n_convs == 1
        assert cfg.topology is BlockTopology.POST_BN_RESIDUAL
        cfg = ablation_config("dual")
        assert cfg.n_convs == 2
        assert cfg.topology is BlockTopology.POST_BN_RESIDUAL
        cfg = ablation_config("prebn_dual")
        assert cfg.n_convs == 2
        assert cfg.topology is BlockTopology.PRE_BN_RESIDUAL

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            small_config(variant="C")
        with pytest.raises(ValueError):
            small_config(n_convs=5)
        with pytest.raises(ValueError):
            small_config(stages=((8, 3),))


class TestCostMonotonicity:
    def _regular_sub_ops(self, config):
        """Same stage spec, but 3x3 regular binary convs in place of the
        depth-wise ones (the substitution conventional stacks make)."""
        from bitconv.analysis import CostReport, LayerCost, conv_cost

        c_in, h, w = config.input_shape
        c0 = config.scaled(config.stages[0][0])
        rows = [conv_cost(ConvSpec(c_in, c0, (3, 3), 1, 1), (h, w), False, "stem")]
        prev = c0
        for idx, (c, s) in enumerate(config.stages):
            cs = config.scaled(c)
            spec = ConvSpec(prev, prev, (3, 3), stride=s, padding=1)
            rows.append(conv_cost(spec, (h, w), True, f"s{idx}_reg"))
            h, w = spec.out_hw(h, w)
            rows.append(conv_cost(ConvSpec(prev, cs, (1, 1)), (h, w), True, f"s{idx}_pw"))
            prev = cs
        rows.append(LayerCost.of("head", "linear", prev * config.classes, binary=False))
        return CostReport(rows).ops

    def test_ordering_matches_reference_table(self):
        cfg_a = M.ModelConfig(variant="A", n_convs=2)
        cfg_b = M.ModelConfig(variant="B", n_convs=2)
        ops_a = count_ops(M.build(cfg_a, seed=0)).ops
        ops_b = count_ops(M.build(cfg_b, seed=0)).ops
        ops_r = self._regular_sub_ops(cfg_a)
        assert ops_a < ops_b < ops_r


class TestCheckpoint:
    def test_roundtrip_equality(self):
        net = M.build(small_config(), seed=2)
        ck = M.checkpoint_of(net)
        ck2 = M.load(M.save(ck))
        assert set(ck.tensors) == set(ck2.tensors)
        for k in ck.tensors:
            assert np.array_equal(ck.tensors[k], ck2.tensors[k]), k
        assert ck2.config == net.config

    def test_restore_reproduces_forward_bit_exactly(self):
        rng = np.random.default_rng(5)
        net = M.build(small_config(), seed=2)
        x = rng.standard_normal((2, 1, 8, 8)).astype(np.float32)
        data = M.save(M.checkpoint_of(net))
        net2 = M.restore(M.load(data))
        assert np.array_equal(net.forward(x), net2.forward(x))

    def test_corrupted_magic(self):
        data = M.save(M.checkpoint_of(M.build(small_config(), seed=0)))
        with pytest.raises(M.CheckpointError):
            M.load(b"ZZZZ" + data[4:])

    def test_version_mismatch(self):
        data = bytearray(M.save(M.checkpoint_of(M.build(small_config(), seed=0))))
        data[4:8] = (99).to_bytes(4, "little")
        with pytest.raises(M.CheckpointError):
            M.load(bytes(data))

    def test_truncated_payload(self):
        data = M.save(M.checkpoint_of(M.build(small_config(), seed=0)))
        with pytest.raises(M.CheckpointError):
            M.load(data[:-20])

    def test_checksum_validates(self):
        data = bytearray(M.save(M.checkpoint_of(M.build(small_config(), seed=0))))
        data[-1] ^= 0xFF  # flip payload bits -> crc must fail
        with pytest.raises(M.CheckpointError):
            M.load(bytes(data))

    @staticmethod
    def with_manifest(edit):
        """A saved checkpoint whose manifest bytes are edit(manifest dict)."""
        data = M.save(M.checkpoint_of(M.build(small_config(), seed=0)))
        mlen = int.from_bytes(data[8:12], "little")
        raw = edit(json.loads(data[12 : 12 + mlen]))
        return data[:8] + len(raw).to_bytes(4, "little") + raw + data[12 + mlen :]

    def test_bad_manifest_json(self):
        with pytest.raises(M.CheckpointError):
            M.load(self.with_manifest(lambda m: b"{not json"))

    @pytest.mark.parametrize("key", ["payload_crc32", "entries"])
    def test_missing_manifest_key(self, key):
        def drop(m):
            del m[key]
            return json.dumps(m).encode()
        with pytest.raises(M.CheckpointError):
            M.load(self.with_manifest(drop))

    def test_declared_shape_does_not_fit_data(self):
        def grow(m):
            m["entries"][0]["shape"] = [999]
            return json.dumps(m).encode()
        with pytest.raises(M.CheckpointError):
            M.load(self.with_manifest(grow))

    def test_same_size_shape_is_not_reshaped(self):
        def transpose(m):
            entry = next(e for e in m["entries"] if len(e["shape"]) == 4)
            entry["shape"] = entry["shape"][::-1]
            return json.dumps(m).encode()
        ckpt = M.load(self.with_manifest(transpose))  # the size still fits the data
        with pytest.raises(M.CheckpointError):
            M.restore(ckpt)

    def test_every_parameter_present_exactly_once(self):
        net = M.build(small_config(), seed=0)
        names = [n for n, _ in net.named_params()] + [n for n, _ in net.named_buffers()]
        assert len(names) == len(set(names))
        ck = M.checkpoint_of(net)
        assert set(ck.tensors) == set(names)


def binary_layers(net):
    return [l for _, l in net._walk() if isinstance(l, M.MultiBinaryConv)]


class TestPackedFilterReuse:
    """The packed forward keeps its packed filters only while the latent
    weights they came from are unchanged, however the weights change."""

    @staticmethod
    def warm(seed=1, config=None):
        net = M.build(config or small_config(), seed=seed, dtype=np.float64)
        x = np.random.default_rng(seed).standard_normal((2, *net.config.input_shape))
        net.forward(x, packed=True)
        return net, x

    @staticmethod
    def assert_packed_is_float(net, x):
        assert np.array_equal(net.forward(x, packed=True), net.forward(x))

    def test_direct_weight_write(self):
        net, x = self.warm()
        for layer in binary_layers(net):
            layer.w[-1][...] *= -1
        self.assert_packed_is_float(net, x)

    def test_train_step_with_branch_permutation(self):
        net, x = self.warm(config=ablation_config("prebn_dual"))
        dual = [l for l in binary_layers(net) if l.n == 2]
        for layer in dual:  # crossed boundaries make post_step swap whole branches
            layer.thr[0][0], layer.thr[1][0] = 0.9, -0.9
        tr, va = gen_synthetic("blobs", 32, 3, seed=0)
        train(net, (tr, va), TrainConfig(epochs=1, lr=1e-3, batch_size=len(tr), seed=0))
        assert all(np.all(l.thr[0] <= l.thr[1]) for l in dual)
        self.assert_packed_is_float(net, x)

    def test_set_flat_params(self):
        net, x = self.warm()
        other = M.build(small_config(), seed=7, dtype=np.float64)
        net.set_flat_params(other.get_flat_params())
        self.assert_packed_is_float(net, x)

    def test_restore_of_another_checkpoint(self):
        net, x = self.warm()
        ckpt = M.load(M.save(M.checkpoint_of(M.build(small_config(), seed=7))))
        net.load_state(ckpt.tensors)
        self.assert_packed_is_float(net, x)
        restored = M.restore(ckpt, dtype=np.float64)
        assert np.array_equal(restored.forward(x, packed=True), net.forward(x, packed=True))

    def test_second_forward_packs_no_weights(self, monkeypatch):
        seen = []
        pack = T.pack

        def counting(t, threshold=0.0):
            seen.append(t)
            return pack(t, threshold)

        monkeypatch.setattr(T, "pack", counting)
        monkeypatch.setattr(K, "pack", counting)
        net = M.build(small_config(), seed=1, dtype=np.float64)
        x = np.random.default_rng(1).standard_normal((2, 1, 8, 8))
        net.forward(x, packed=True)
        first = len(seen)
        seen.clear()
        net.forward(x, packed=True)
        layers = binary_layers(net)
        assert not any(np.shares_memory(t, layer.w) for t in seen for layer in layers)
        # the first forward packed one bank per binary layer, all its branches stacked
        assert len(seen) == first - len(layers)


    def test_second_forward_packs_and_unpacks_nothing(self, monkeypatch):
        # activations reach the kernels as sign_bits arrays, never as BitTensors
        calls = []
        for module in (T, K):
            for name in ("pack", "unpack_bits"):
                fn = getattr(T, name)
                monkeypatch.setattr(module, name,
                                    lambda *a, fn=fn, name=name, **kw: calls.append(name) or fn(*a, **kw))
        net = M.build(small_config(n_convs=3), seed=1, dtype=np.float64)
        x = np.random.default_rng(1).standard_normal((2, 1, 8, 8))
        net.forward(x, packed=True)
        assert calls
        calls.clear()
        net.forward(x, packed=True)
        assert calls == []

    def test_every_binary_layer_runs_conv_multi_dw(self, monkeypatch):
        calls = []
        multi = M.conv_multi_dw
        monkeypatch.setattr(M, "conv_multi_dw", lambda *a: calls.append(a[2]) or multi(*a))
        net = M.build(M.ModelConfig(n_convs=2), seed=1)
        net.forward(np.random.default_rng(1).standard_normal((1, 3, 32, 32)), packed=True)
        layers = binary_layers(net)
        assert len(calls) == len(layers)
        assert all(bank is layer._packed[1] for bank, layer in zip(calls, layers))


RECORD_CONFIGS = ([ablation_config(name) for name in ABLATION_NAMES]
                  + [small_config(variant=v, n_convs=n) for v in ("A", "B") for n in (1, 2, 3, 4)])


def conv_and_head_weights(net):
    """The filter weights, read off the layers: each conv's (per-branch) and the head's."""
    out = []
    for item in net.items:
        if isinstance(item, M.Block):
            out += list(item.conv.w) if isinstance(item.conv, M.MultiBinaryConv) else [item.conv.w]
        elif isinstance(item, M.Dense):
            out.append(item.w)
    return out


class TestParameterRecords:
    @pytest.mark.parametrize("config", RECORD_CONFIGS)
    def test_filter_flags_mark_exactly_the_conv_and_head_weights(self, config):
        net = M.build(config, seed=0)
        flagged = [value for _, value, _, is_filter in net.parameters() if is_filter]
        want = conv_and_head_weights(net)
        assert len(flagged) == len(want)
        assert all(a.shape == b.shape and np.shares_memory(a, b) for a, b in zip(flagged, want))

    @pytest.mark.parametrize("config", RECORD_CONFIGS)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_each_grad_matches_its_value(self, config, dtype):
        records = list(M.build(config, seed=0, dtype=dtype).parameters())
        assert len({name for name, _, _, _ in records}) == len(records)
        for name, value, grad, _ in records:
            assert grad.shape == value.shape and grad.dtype == value.dtype == dtype, name
            assert not np.shares_memory(grad, value), name

    @pytest.mark.parametrize("config", RECORD_CONFIGS)
    def test_decay_step_moves_only_filter_weights(self, config):
        net = M.build(config, seed=0, dtype=np.float64)
        net.zero_grads()
        before = [value.copy() for _, value, _, _ in net.parameters()]
        SGD().step(net.parameters(), lr=0.1, weight_decay=0.5)
        for (name, value, _, is_filter), old in zip(net.parameters(), before):
            assert np.array_equal(value, old) != is_filter, name


class TestBranchResort:
    def test_crossed_thresholds_swap_whole_branches(self):
        net = M.build(small_config(), seed=0, dtype=np.float64)
        layer = next(l for _, l in net._walk() if isinstance(l, M.MultiBinaryConv) and l.n == 2)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((2, layer.spec.in_channels, 8, 8))
        before = layer.forward(x)
        # cross the boundaries on a few channels, then re-sort
        layer.thr[0][0], layer.thr[1][0] = 0.9, -0.9
        layer.thr[0][2], layer.thr[1][2] = 0.5, -0.5
        crossed = layer.forward(x)
        layer.post_step()
        assert np.all(layer.thr[0] <= layer.thr[1])
        after = layer.forward(x)
        assert np.array_equal(crossed, after)  # function preserved exactly

    def test_float_probe_builds_and_runs(self):
        net = M.build_float_probe()
        y = net.forward(np.zeros((2, 1, 8, 8)))
        assert y.shape == (2, 3)


# ---------------------------------------------------------------------------
# One quantizer path for the live, capture and use modes
# ---------------------------------------------------------------------------


def per_branch_capture(layer, x0):
    """Decisions recorded at x0, per branch: signs and float clip masks."""
    return {
        "x0": x0.copy(),
        "a": [np.where(x0 >= t.reshape(1, -1, 1, 1), 1.0, -1.0).astype(x0.dtype) for t in layer.thr],
        "ws": [np.where(w >= 0, 1.0, -1.0).astype(w.dtype) for w in layer.w],
        "w0": [w.copy() for w in layer.w],
        "mask_x": [(np.abs(x0 - t.reshape(1, -1, 1, 1)) <= M.STE_CLIP).astype(x0.dtype) for t in layer.thr],
        "mask_w": [(np.abs(w) <= M.STE_CLIP).astype(w.dtype) for w in layer.w],
    }


def per_branch_pass(layer, x, gy, fz=None):
    """Forward and backward with one float conv per branch: the live
    straight-through formulas, or with fz the frozen affine surrogate
    a + mask_x * (x - x0), ws + mask_w * (w - w0). Returns
    (y, gx, gw, gbeta, gthr), the last three per branch."""
    spec, binary = layer.spec, layer.weights_binary
    y = gx = None
    gw, gbeta, gthr = [], [], []
    for i in range(layer.n):
        thr = layer.thr[i].reshape(1, -1, 1, 1)
        beta = layer.beta[i][None, :, None, None]
        if fz is None:
            a = np.where(x >= thr, 1.0, -1.0).astype(x.dtype)
            ws = np.where(layer.w[i] >= 0, 1.0, -1.0).astype(layer.w[i].dtype) if binary else layer.w[i]
        else:
            a = fz["a"][i] + fz["mask_x"][i] * (x - fz["x0"])
            ws = fz["ws"][i] + fz["mask_w"][i] * (layer.w[i] - fz["w0"][i])
        z = K.conv_float(a, ws, spec)
        yi = z * beta if binary else z
        y = yi if y is None else y + yi
        gz = gy * beta if binary else gy
        gbeta.append(np.einsum("nohw,nohw->o", gy, z) if binary else np.zeros_like(layer.beta[i]))
        ga = K.conv_float_grad_input(gz, ws, spec, x.shape[2:])
        gws = K.conv_float_grad_weight(a, gz, spec)
        if fz is None:
            gw.append(ste_grad_sign(layer.w[i], gws, M.STE_CLIP) if binary else gws)
            ga_in = ste_grad_sign(x - thr, ga, M.STE_CLIP)
        else:
            gw.append(fz["mask_w"][i] * gws)
            ga_in = fz["mask_x"][i] * ga
        gx = ga_in if gx is None else gx + ga_in
        gthr.append(-ga_in.sum(axis=(0, 2, 3)))
    return y, gx, gw, gbeta, gthr


def layer_pass(layer, x, gy):
    for g in (layer.gw, layer.gbeta, layer.gthr):
        g[...] = 0
    y = layer.forward(x, grad=True)
    gx = layer.backward(gy)
    return y, gx, [g.copy() for g in layer.gw], [g.copy() for g in layer.gbeta], [g.copy() for g in layer.gthr]


def assert_matches_per_branch(got, want, dtype):
    """Forward and input gradient bit for bit; the parameter gradients are
    reductions that may run in another order, so to a bound set by dtype."""
    rtol = 1e-12 if dtype == np.float64 else 1e-5
    assert np.array_equal(got[0], want[0])
    assert got[0].dtype == want[0].dtype == dtype
    assert np.array_equal(got[1], want[1])
    for kind, g, r in zip(("w", "beta", "thr"), got[2:], want[2:]):
        for gi, ri in zip(g, r):
            assert gi.shape == ri.shape and gi.dtype == dtype, kind
            assert np.abs(gi - ri).max() <= rtol * max(np.abs(ri).max(), 1e-30), kind


LAYER_CASES = [(n, "dw", s) for n in (1, 2, 3, 4) for s in (1, 2)] + [(1, "pw", 1)]


def make_layer(n, kind, stride, dtype, seed=0):
    c = 6
    spec = (ConvSpec(c, c, (3, 3), stride, 1, groups=c) if kind == "dw"
            else ConvSpec(c, 10, (1, 1), stride, 0))
    layer = M.MultiBinaryConv("l", spec, n, np.random.default_rng(seed), dtype)
    rng = np.random.default_rng(seed + 1)
    for i in range(n):  # weights and thresholds on both sides of the clip
        layer.w[i][...] = rng.standard_normal(spec.weight_shape()) * 0.9
        layer.thr[i][...] = rng.uniform(-0.6, 0.6, c)
    x = (rng.standard_normal((5, c, 7, 7)) * 1.2).astype(dtype)
    gy = rng.standard_normal((5, spec.out_channels, *spec.out_hw(7, 7))).astype(dtype)
    return layer, x, gy


class TestSingleQuantizerPath:
    """MultiBinaryConv runs every branch in one float conv, with one forward
    and backward for the live, capture and use modes; each must equal the
    per-branch formulas it replaced."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("binary", [True, False])
    @pytest.mark.parametrize("n,kind,stride", LAYER_CASES)
    def test_live_matches_per_branch(self, n, kind, stride, binary, dtype):
        layer, x, gy = make_layer(n, kind, stride, dtype)
        layer.weights_binary = binary
        assert_matches_per_branch(layer_pass(layer, x, gy), per_branch_pass(layer, x, gy), dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n,kind,stride", LAYER_CASES)
    def test_capture_and_use_match_per_branch(self, n, kind, stride, dtype):
        layer, x0, gy = make_layer(n, kind, stride, dtype)
        fz = per_branch_capture(layer, x0)
        live = per_branch_pass(layer, x0, gy)
        layer.freeze_mode = "capture"
        assert_matches_per_branch(layer_pass(layer, x0, gy), live, dtype)
        # the clip masks are captured as 0.0/1.0 in the net dtype, not as bools
        for key, want in (("mask_x", np.stack(fz["mask_x"], axis=1)), ("mask_w", np.concatenate(fz["mask_w"]))):
            assert layer._frozen[key].dtype == dtype and np.array_equal(layer._frozen[key], want), key
        # move input and weights off the capture point, across the clip edges
        rng = np.random.default_rng(n)
        x = (x0 + 0.3 * rng.standard_normal(x0.shape)).astype(dtype)
        for w in layer.w:
            w += (0.3 * rng.standard_normal(w.shape)).astype(dtype)
        layer.freeze_mode = "use"
        assert_matches_per_branch(layer_pass(layer, x, gy), per_branch_pass(layer, x, gy, fz), dtype)

    def test_use_at_capture_point_is_live(self):
        net = M.build(ablation_config("prebn_dual", classes=3), seed=2, dtype=np.float64)
        rng = np.random.default_rng(2)
        batch = (rng.standard_normal((12, 1, 8, 8)), rng.integers(0, 3, 12))
        live_logits = net.forward(batch[0])
        live_grad = batch_gradient(net, batch)
        net.set_quant_mode("capture")
        assert np.array_equal(batch_gradient(net, batch), live_grad)
        net.set_quant_mode("use")
        assert np.array_equal(net.forward(batch[0]), live_logits)
        assert np.array_equal(batch_gradient(net, batch), live_grad)

    @pytest.mark.parametrize("n,kind,stride", [(1, "pw", 1), (1, "dw", 1), (2, "dw", 2), (3, "dw", 1)])
    def test_use_gradients_match_central_differences(self, n, kind, stride):
        # the replayed forward is affine in x and w and linear in beta, so
        # the loss <y, gy> is quadratic and central differences are exact
        # up to rounding. thr is left out: the replayed forward ignores it
        # while the backward returns its straight-through gradient (ROADMAP
        # item 1, defect B).
        layer, x, gy = make_layer(n, kind, stride, np.float64)
        layer.freeze_mode = "capture"
        layer.forward(x)
        layer.freeze_mode = "use"
        rng = np.random.default_rng(3)
        x = x + 0.2 * rng.standard_normal(x.shape)
        _, gx, gw, gbeta, _ = layer_pass(layer, x, gy)

        def loss():
            return float((layer.forward(x) * gy).sum())

        def central(arr, idx, h=1e-5):
            old = arr[idx]
            arr[idx] = old + h
            up = loss()
            arr[idx] = old - h
            down = loss()
            arr[idx] = old
            return (up - down) / (2 * h)

        checks = [(x, gx)] + list(zip(layer.w, gw)) + list(zip(layer.beta, gbeta))
        for arr, grad in checks:
            for flat in rng.choice(arr.size, size=6, replace=False):
                idx = np.unravel_index(flat, arr.shape)
                assert abs(central(arr, idx) - grad[idx]) <= 1e-6 * max(1.0, abs(grad[idx]))

    def test_use_without_capture_raises(self):
        layer, x, _ = make_layer(2, "dw", 1, np.float64)
        layer.freeze_mode = "use"
        with pytest.raises(RuntimeError, match="captured"):
            layer.forward(x)
        net = M.build(small_config(), seed=0, dtype=np.float64)
        net.set_quant_mode("use")
        with pytest.raises(RuntimeError):
            net.forward(np.zeros((2, 1, 8, 8)))

    def test_deep_copy_forward_follows_its_own_parameters(self):
        # landscape_grid perturbs deep copies of a network in worker threads
        net = M.build(small_config(), seed=0, dtype=np.float64)
        twin = copy.deepcopy(net)
        x = np.random.default_rng(0).standard_normal((2, 1, 8, 8))
        theta = net.get_flat_params()
        twin.set_flat_params(-0.5 * theta)
        assert not np.array_equal(twin.forward(x), net.forward(x))
        net.set_flat_params(-0.5 * theta)
        assert np.array_equal(twin.forward(x), net.forward(x))

    def test_capture_requires_binarized_weights(self):
        layer, x, _ = make_layer(2, "dw", 1, np.float64)
        layer.weights_binary = False
        layer.freeze_mode = "capture"
        with pytest.raises(RuntimeError, match="binarized"):
            layer.forward(x)


def one_of_each_layer(kind):
    """A float64 layer of the given kind and an input it takes."""
    rng = np.random.default_rng(11)
    x4 = rng.standard_normal((2, 4, 6, 6))
    if kind == "FloatConv":
        return M.FloatConv("conv", ConvSpec(4, 5, (3, 3), padding=1), rng, np.float64), x4
    if kind == "MultiBinaryConv":
        layer, x, _ = make_layer(2, "dw", 1, np.float64)
        return layer, x
    if kind == "BatchNorm":
        return M.BatchNorm("bn", 4, np.float64), x4
    if kind == "ShiftedPReLU":
        return M.ShiftedPReLU("act", 4, np.float64), x4
    if kind == "GlobalAvgPool":
        return M.GlobalAvgPool("gap"), x4
    if kind == "Dense":
        return M.Dense("head", 4, 3, rng, np.float64), x4[:, :, 0, 0]
    conv = M.FloatConv("conv", ConvSpec(4, 4, (3, 3), padding=1, groups=4), rng, np.float64)
    return M.Block("block", conv, M.BatchNorm("bn", 4, np.float64), M.ShiftedPReLU("act", 4, np.float64),
                   BlockTopology.PRE_BN_RESIDUAL, 4, 4), x4


LAYER_KINDS = ["FloatConv", "MultiBinaryConv", "BatchNorm", "ShiftedPReLU", "GlobalAvgPool", "Dense", "Block"]


def traced_peak(forward):
    """Peak bytes numpy and Python allocate while forward() runs."""
    tracemalloc.start()
    try:
        forward()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def batch_arrays(net, batch):
    """(layer, attribute) of every array a layer or block holds with the batch
    as its leading axis, directly or in a tuple: backward state, since
    parameters, gradients and buffers have no batch axis."""
    layers = {id(layer): layer for layer in [*net.items, *(layer for _, layer in net._walk())]}
    found = []
    for layer in layers.values():
        for attr, value in vars(layer).items():
            for a in value if isinstance(value, tuple) else (value,):
                if isinstance(a, np.ndarray) and a.ndim > 1 and a.shape[0] == batch:
                    found.append((layer.name, attr))
    return found


class TestBackwardState:
    """A forward keeps what its backward reads only with grad=True."""

    @pytest.mark.parametrize("last_forward", ["none", "plain after grad"])
    @pytest.mark.parametrize("kind", LAYER_KINDS)
    def test_backward_without_kept_state_raises(self, kind, last_forward):
        layer, x = one_of_each_layer(kind)
        gy = np.ones_like(layer.forward(x))
        if last_forward == "none":
            layer, _ = one_of_each_layer(kind)
        else:
            layer.forward(x, grad=True)
            layer.forward(x)
        with pytest.raises(RuntimeError, match="backward"):
            layer.backward(gy)

    def test_packed_forward_with_grad_raises(self):
        net = M.build(small_config(), seed=0, dtype=np.float64)
        with pytest.raises(ValueError, match="packed"):
            net.forward(np.zeros((2, 1, 8, 8)), packed=True, grad=True)

    def test_batch_gradient_skips_the_stem_input_gradient(self, monkeypatch):
        net = M.build(ablation_config("prebn_dual", classes=3), seed=0, dtype=np.float64)
        rng = np.random.default_rng(0)
        batch = (rng.standard_normal((6, 1, 8, 8)), rng.integers(0, 3, 6))
        specs = []
        grad_input = M.conv_float_grad_input

        def counted(gy, w, spec, in_hw):
            specs.append(spec)
            return grad_input(gy, w, spec, in_hw)

        monkeypatch.setattr(M, "conv_float_grad_input", counted)
        batch_gradient(net, batch)
        stem = net.items[0].conv.spec
        assert specs and stem not in specs

    @staticmethod
    def holding(net, *attrs):
        """(layer, attribute) of every block or layer still holding one of attrs."""
        layers = [*net.items, *(layer for _, layer in net._walk())]
        return [(layer.name, a) for layer in layers for a in attrs if getattr(layer, a, None) is not None]

    def test_backward_frees_the_state_it_read(self):
        net = M.build(ablation_config("prebn_dual", classes=3), seed=0, dtype=np.float64)
        rng = np.random.default_rng(0)
        batch = (rng.standard_normal((6, 1, 8, 8)), rng.integers(0, 3, 6))
        backward(net, batch)
        assert self.holding(net, "_cache") == []
        batch_gradient(net, batch)
        assert self.holding(net, "_cache") == []

    def test_second_backward_needs_a_new_forward(self):
        # reusing the state would add every gradient a second time
        net = M.build(small_config(), seed=0, dtype=np.float64)
        rng = np.random.default_rng(1)
        x, y = rng.standard_normal((4, 1, 8, 8)), rng.integers(0, 3, 4)
        _, dlogits, _ = softmax_cross_entropy(net.forward(x, training=True, grad=True), y)
        net.backward(dlogits)
        with pytest.raises(RuntimeError, match="backward"):
            net.backward(dlogits)

    def test_curvature_probe_leaves_no_state(self):
        net = M.build(ablation_config("prebn_dual", classes=3), seed=0, dtype=np.float64)
        rng = np.random.default_rng(2)
        batch = (rng.standard_normal((6, 1, 8, 8)), rng.integers(0, 3, 6))
        hessian_topk(net, batch, k=1, max_iter=3)
        assert self.holding(net, "_cache", "_frozen") == []

    def test_inference_forwards_keep_no_backward_state(self):
        """At batch 16 (float64 ModelConfig()), the eval and the packed forward
        peak under half of what the grad=True forward does, and leave no
        batch-sized array in any layer."""
        net = M.build(M.ModelConfig(), seed=0, dtype=np.float64)
        x = np.random.default_rng(0).standard_normal((16, *net.config.input_shape))
        net.forward(x[:1], packed=True)  # packs the banks, builds the kernel tables
        grad_peak = traced_peak(lambda: net.forward(x, grad=True))
        assert batch_arrays(net, 16)
        for kw in ({}, {"packed": True}):
            peak = traced_peak(lambda: net.forward(x, **kw))
            assert peak < grad_peak / 2, (kw, peak, grad_peak)
            assert batch_arrays(net, 16) == [], kw

    def test_inference_forwards_allocate_only_what_they_return(self):
        """At batch 16 (float64 ModelConfig()), the packed forward peaks at no
        more than 20 MiB traced and the eval forward at no more than 24 MiB:
        BN, PReLU, the magnitude scaling and the pre-BN residual sum work in
        place, and the binary conv scales its integer counts once."""
        net = M.build(M.ModelConfig(), seed=0, dtype=np.float64)
        x = np.random.default_rng(0).standard_normal((16, *net.config.input_shape))
        net.forward(x[:1], packed=True)  # packs the banks, builds the kernel tables
        mib = 1 << 20
        packed = traced_peak(lambda: net.forward(x, packed=True))
        assert packed <= 20 * mib, packed / mib
        plain = traced_peak(lambda: net.forward(x))
        assert plain <= 24 * mib, plain / mib

    def test_inference_forwards_hold_the_input_and_two_activations(self):
        """At batch 16 (float64 ModelConfig()), the packed forward peaks at no
        more than 14 MiB traced and the eval forward at no more than 15 MiB:
        BN and PReLU write into the arrays their block owns, the eval binary
        layer runs one branch at a time on int8 levels, and conv_multi_dw
        adds its later branches without a full-size temporary."""
        net = M.build(M.ModelConfig(), seed=0, dtype=np.float64)
        x = np.random.default_rng(0).standard_normal((16, *net.config.input_shape))
        net.forward(x[:1], packed=True)  # packs the banks, builds the kernel tables
        mib = 1 << 20
        packed = traced_peak(lambda: net.forward(x, packed=True))
        assert packed <= 14 * mib, packed / mib
        plain = traced_peak(lambda: net.forward(x))
        assert plain <= 15 * mib, plain / mib

    def test_multi_dw_adds_branches_without_a_full_temporary(self):
        """One batch-1 N=2 conv_multi_dw call (float64, 128 channels, 56x56):
        besides its int32 counts and its output, nothing as large as half the
        output is alive at its peak."""
        c, hw = 128, 56
        spec = ConvSpec(c, c, (3, 3), padding=1, groups=c)
        rng = np.random.default_rng(4)
        bank = K.BinaryConvWeights(T.pack(rng.standard_normal((2 * c, 1, 3, 3)), 0.0))
        x = rng.standard_normal((1, c, hw, hw))
        thr, mags = rng.uniform(-0.3, 0.3, (2, c)), rng.uniform(0.1, 1.0, (2, c))
        out = K.conv_multi_dw(x, thr, bank, mags, spec)  # builds the bank operand
        counts_bytes = 2 * out.size * np.dtype(np.int32).itemsize
        peak = traced_peak(lambda: K.conv_multi_dw(x, thr, bank, mags, spec))
        assert peak <= counts_bytes + out.nbytes + out.nbytes // 2, (peak, counts_bytes, out.nbytes)


def arrays_in(value):
    """The arrays in a kept value: an array, a tuple, list or dict of them,
    or a BinaryConvWeights with its packed words and kernel operands."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, K.BinaryConvWeights):
        return [value.packed.words, *arrays_in(list(value._operands.values()))]
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (tuple, list)):
        return [a for v in value for a in arrays_in(v)]
    return []


# (layer, packed, grad, freeze_mode); "MultiBinaryConv1 latent" runs the latent weights
ALIASING_CASES = (
    [(kind, False, grad, None) for kind in ("FloatConv dw", "FloatConv pw") for grad in (False, True)]
    + [(kind, False, grad, mode) for kind in ("MultiBinaryConv1", "MultiBinaryConv2")
       for grad in (False, True) for mode in (None, "capture", "use")]
    + [(kind, True, False, None) for kind in ("MultiBinaryConv1", "MultiBinaryConv2")]
    + [("MultiBinaryConv1 latent", False, True, None)]
)


class TestConvOutputOwnership:
    """Block.forward adds the pre-BN residual in place into the conv output,
    which is safe only if no conv forward returns memory its layer keeps."""

    @pytest.mark.parametrize("kind,packed,grad,mode", ALIASING_CASES)
    def test_output_shares_no_memory_with_kept_state(self, kind, packed, grad, mode):
        rng = np.random.default_rng(21)
        if kind.startswith("FloatConv"):
            spec = (ConvSpec(6, 6, (3, 3), padding=1, groups=6) if kind.endswith("dw")
                    else ConvSpec(6, 10, (1, 1)))
            layer = M.FloatConv("conv", spec, rng, np.float64)
            x = rng.standard_normal((5, 6, 7, 7))
        else:
            n = int(kind[len("MultiBinaryConv")])
            layer, x, _ = make_layer(n, "pw" if n == 1 else "dw", 1, np.float64)
            layer.weights_binary = not kind.endswith("latent")
        if mode == "use":
            layer.freeze_mode = "capture"
            layer.forward(x)
            x = x + 0.01
        layer.freeze_mode = mode
        y = layer.forward(x, packed=packed, grad=grad)
        kept = arrays_in([layer._cache, getattr(layer, "_frozen", None), getattr(layer, "_packed", None)])
        assert kept or not (grad or packed or mode)
        assert not any(np.shares_memory(y, a) for a in kept)


BLOCK_CASES = ["dw", "dw stride 2", "pw widening"]


def binary_block(kind, topology):
    """A float64 block around a binary conv (N=2 depth-wise, or a widening
    N=1 point-wise) and an input it takes."""
    rng = np.random.default_rng(31)
    c, o = 6, 10 if kind == "pw widening" else 6
    spec = (ConvSpec(c, o, (1, 1)) if kind == "pw widening"
            else ConvSpec(c, c, (3, 3), 2 if kind.endswith("2") else 1, 1, groups=c))
    conv = M.MultiBinaryConv("conv", spec, 1 if kind == "pw widening" else 2, rng, np.float64)
    bn, act = M.BatchNorm("bn", o, np.float64), M.ShiftedPReLU("act", o, np.float64)
    bn.mu[...], bn.var[...] = rng.standard_normal(o), rng.uniform(0.5, 2.0, o)
    return M.Block("block", conv, bn, act, topology, c, o), rng.standard_normal((3, c, 8, 8))


class TestInPlaceOwnership:
    """BN and PReLU consume their input, and a block hands them only the conv
    and BN outputs it owns: a block's forward leaves its input as it was."""

    @pytest.mark.parametrize("training", [False, True])
    @pytest.mark.parametrize("kind", ["BatchNorm", "ShiftedPReLU"])
    def test_forward_without_grad_returns_its_input(self, kind, training):
        layer, x = one_of_each_layer(kind)
        assert layer.forward(x, training) is x

    @pytest.mark.parametrize("training", [False, True])
    @pytest.mark.parametrize("packed", [False, True])
    @pytest.mark.parametrize("topology", list(BlockTopology))
    @pytest.mark.parametrize("kind", BLOCK_CASES)
    def test_block_leaves_its_input(self, kind, topology, packed, training):
        block, x = binary_block(kind, topology)
        x0 = x.copy()
        y = block.forward(x, training, packed)
        assert np.array_equal(x, x0) and not np.shares_memory(x, y)

    @pytest.mark.parametrize("topology", list(BlockTopology))
    @pytest.mark.parametrize("kind", BLOCK_CASES)
    def test_in_place_block_equals_composed_layers(self, kind, topology):
        """Block.forward equals BN and PReLU called directly on copies."""
        block, x = binary_block(kind, topology)
        z = block.conv.forward(x)
        r = None
        if topology is not BlockTopology.NO_RESIDUAL:
            r = x if kind == "dw" else L.avg_pool2(x) if kind.endswith("2") else L.broadcast_residual(x, 10)
        if topology is BlockTopology.PRE_BN_RESIDUAL:
            z = z + r
        y0 = block.bn.forward(z)
        want = block.act.forward(y0 if r is None else y0 + r)
        assert np.array_equal(block.forward(x), want)


class TestNonFiniteEval:
    """The eval forward takes its binary levels from a comparison, not from
    tensor.sign_bits, so a non-finite input gives non-finite logits and the
    trainer, not the forward, reports it."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("n_convs", [1, 2, 3, 4])
    def test_eval_forward_returns_non_finite_logits(self, n_convs, bad):
        net = M.build(M.ModelConfig(n_convs=n_convs), seed=0, dtype=np.float64)
        x = np.random.default_rng(n_convs).standard_normal((2, *net.config.input_shape))
        x[0, 1, 5, 7] = bad
        assert not np.all(np.isfinite(net.forward(x)))
        with pytest.raises(ValueError, match="finite"):
            T.sign_bits(x)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_evaluation_loss_diverges(self):
        tr, va = gen_synthetic("blobs", 64, 3, seed=15)
        va.x[0, 0, 3, 3] = np.nan
        net = M.build(small_config(n_convs=2), seed=0, dtype=np.float64)
        with pytest.raises(TR.DivergenceError):
            train(net, (tr, va), TrainConfig(epochs=1, lr=1e-3, seed=5))
