import numpy as np
import pytest

from bitconv import analysis as A
from bitconv.kernels import ConvSpec


class TestCostModel:
    def test_reference_rows_exact(self):
        rows = {r["name"]: r for r in A.reference_op_table()}
        assert rows["fp_regular_3x3"]["macs"] == 56 * 56 * 128 * 128 * 9 == 462_422_016
        assert rows["fp_depthwise_3x3"]["macs"] == 56 * 56 * 128 * 9 == 3_612_672
        assert rows["binary_regular_3x3"]["ops"] == 462_422_016 / 64
        assert rows["binary_depthwise_3x3"]["ops"] == 3_612_672 / 64

    def test_rows_match_printed_values_after_rounding(self):
        rows = {r["name"]: r for r in A.reference_op_table()}
        printed = {
            "fp_regular_3x3": (462e6, 3),
            "fp_depthwise_3x3": (3.61e6, 3),
            "binary_regular_3x3": (7.23e6, 3),
            "binary_depthwise_3x3": (56e3, 2),
        }
        for name, (want, sig) in printed.items():
            got = A.round_sig(rows[name]["ops"], sig)
            assert abs(got - want) <= 0.005 * want, (name, got, want)

    def test_op_identity(self):
        report = A.CostReport([A.LayerCost.of("a", "conv3x3", 1000, binary=True),
                               A.LayerCost.of("b", "conv3x3", 500, binary=False)])
        assert report.ops == 1000 / 64 + 500
        assert report.bops == 1000 and report.flops == 500

    def test_conv_cost_of_spec(self):
        spec = ConvSpec(16, 32, (3, 3), stride=1, padding=1)
        cost = A.conv_cost(spec, (8, 8), binary=False)
        assert cost.flops == 8 * 8 * 32 * 16 * 9 and cost.kind == "conv3x3"

    def test_csv_output(self, tmp_path):
        report = A.CostReport([A.LayerCost.of("x", "dw3x3", 640, binary=True)])
        path = tmp_path / "cost.csv"
        report.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "layer,type,bops,flops,ops"
        assert lines[-1].startswith("total,")


class TestJacobian:
    def test_linear_map_recovered(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((12, 12))
        block = lambda t: (m @ t.ravel()).reshape(t.shape)
        x0 = rng.standard_normal((1, 3, 2, 2))
        jac = A.jacobian_of_block(block, x0)
        assert np.allclose(jac, m, atol=1e-7)

    def test_analytic_dw_conv_assembly(self):
        # sparse assembly oracle: J[out, in] from the conv's linearity
        from bitconv.kernels import conv_float

        rng = np.random.default_rng(1)
        c, hw = 2, 3
        spec = ConvSpec(c, c, (3, 3), stride=1, padding=1, groups=c)
        w = rng.standard_normal(spec.weight_shape())
        block = lambda t: conv_float(t, w, spec)
        x0 = rng.standard_normal((1, c, hw, hw))
        jac = A.jacobian_of_block(block, x0)
        d = x0.size
        oracle = np.zeros((d, d))
        for j in range(d):
            e = np.zeros(d)
            e[j] = 1.0
            oracle[:, j] = block(e.reshape(x0.shape)).ravel()
        assert np.allclose(jac, oracle, atol=1e-7)

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            A.jacobian_of_block(lambda t: t, np.zeros((1, 1, 32, 32)))
        with pytest.raises(ValueError):
            A.jacobian_of_block(lambda t: t[..., :1], np.zeros((1, 1, 2, 2)))


class TestConditionNumbers:
    def test_identity_any_alpha(self):
        rep = A.condition_numbers(np.eye(5), 37.0)
        assert rep.kappa_j == 1.0
        assert rep.kappa_j_prime == 1.0

    def test_diagonal_closed_form(self):
        rep = A.condition_numbers(np.diag([10.0, 0.1]), 100.0)
        assert np.isclose(rep.kappa_j, 100.0)
        assert np.isclose(rep.kappa_j_prime, 110.0 / 100.1)
        assert rep.kappa_h_prime < rep.kappa_h
        assert np.isclose(rep.kappa_h_prime, (110.0 / 100.1) ** 2)
        assert np.isclose(rep.kappa_h, 1e4)

    def test_factored_identity_exact(self):
        # kappa(J') == (1 + a/l1) * (ln/(ln+a)) * kappa(J) for SPD J
        rng = np.random.default_rng(2)
        for _ in range(20):
            j = A.random_dw_jacobian(3, 8, rng)
            alpha = float(10 ** rng.uniform(1, 4))
            rep = A.condition_numbers(j, alpha)
            l1, ln = rep.spectrum[0], rep.spectrum[-1]
            factored = (1 + alpha / l1) * (ln / (ln + alpha)) * rep.kappa_j
            assert abs(factored - rep.kappa_j_prime) <= 1e-10 * rep.kappa_j_prime

    def test_shift_always_improves_conditioning(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            j = A.random_dw_jacobian(int(rng.integers(2, 5)), int(rng.integers(4, 10)), rng)
            alpha = float(10 ** rng.uniform(1, 4))
            rep = A.condition_numbers(j, alpha)
            if rep.kappa_j > 1.0:
                assert rep.kappa_j_prime**2 < rep.kappa_j**2

    def test_large_alpha_approximation(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            j = A.random_dw_jacobian(2, 8, rng, min_eig=1e-3)
            rep0 = A.condition_numbers(j, 0.0)
            lam_n = rep0.spectrum[-1]
            alpha = float(max(100 * lam_n, 10.0) * 10 ** rng.uniform(0, 2))
            rep = A.condition_numbers(j, alpha)
            assert rep.approx_abs_error <= 0.10 * rep.kappa_j_prime

    def test_singular_matrix_inf_sentinel(self):
        j = np.diag([1.0, 0.0])
        rep = A.condition_numbers(j, 0.0)
        assert rep.kappa_j == float("inf")

    def test_kappa_h_equals_kappa_j_squared_for_least_squares(self):
        # H = J^T J has exactly the squared singular-value spectrum
        rng = np.random.default_rng(5)
        j = rng.standard_normal((8, 8))
        h = j.T @ j
        kj = A.condition_numbers(j, 0.0).kappa_j
        kh = A.condition_numbers(h, 0.0).kappa_j
        assert np.isclose(kh, kj**2, rtol=1e-8)

    def test_alpha_zero_degenerate(self):
        rng = np.random.default_rng(6)
        j = A.random_dw_jacobian(2, 6, rng)
        rep = A.condition_numbers(j, 0.0)
        assert np.isclose(rep.kappa_j_prime, rep.kappa_j, rtol=1e-10)


class TestHessianTopK:
    def _spd_probe(self, dim, seed, decay=0.8):
        rng = np.random.default_rng(seed)
        eigs = 10.0 * decay ** np.arange(dim) + 0.05
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        return q @ np.diag(eigs) @ q.T, np.sort(eigs)[::-1]

    def test_quadratic_probe_topk(self):
        a, eigs = self._spd_probe(30, seed=7)
        est = A.hessian_topk_operator(lambda v: a @ v, 30, 5, seed=1)
        got = np.array([e.value for e in est])
        assert np.allclose(got, eigs[:5], rtol=1e-3)
        for e in est:
            assert e.residual <= 1e-2

    def test_rayleigh_lower_bound(self):
        a, eigs = self._spd_probe(20, seed=8)
        rng = np.random.default_rng(9)
        est = A.hessian_topk_operator(lambda v: a @ v, 20, 1, seed=2)[0]
        for _ in range(10):
            v = rng.standard_normal(20)
            v /= np.linalg.norm(v)
            assert est.value >= float(v @ a @ v) - 1e-6

    def test_negative_dominant_still_finds_lambda_max(self):
        # dominant |eig| is negative; the shift must still target lambda_max
        rng = np.random.default_rng(10)
        eigs = np.array([-50.0, 4.0, 3.0, 1.0])
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        a = q @ np.diag(eigs) @ q.T
        est = A.hessian_topk_operator(lambda v: a @ v, 4, 2, seed=3)
        assert np.isclose(est[0].value, 4.0, rtol=1e-3)
        assert np.isclose(est[1].value, 3.0, rtol=1e-3)

    def test_probe_leaves_network_as_found(self):
        from bitconv.model import build
        from bitconv.train import ablation_config, backward, gen_synthetic

        net = build(ablation_config("prebn_dual"), seed=0, dtype=np.float64)
        tr, _ = gen_synthetic("blobs", 64, 3, seed=0)
        backward(net, (tr.x[:32], tr.y[:32]))  # fills the BN caches and moves mu/var
        before = net.state()
        modes = [getattr(layer, "freeze_mode", None) for _, layer in net._walk()]
        A.hessian_topk(net, (tr.x[:16], tr.y[:16]), 1, seed=0, max_iter=5)
        after = net.state()
        assert before.keys() == after.keys()
        for name in before:  # every parameter and every BN mu/var
            assert np.array_equal(before[name], after[name]), name
        assert [getattr(layer, "freeze_mode", None) for _, layer in net._walk()] == modes

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            A.hessian_topk_operator(lambda v: v, 5, 11)
        with pytest.raises(ValueError):  # more eigenpairs than the operator has
            A.hessian_topk_operator(lambda v: np.array([3.0, 2.0, 1.0]) * v, 3, 5)

    @pytest.mark.parametrize("k", [1, 3])
    def test_reports_hvps_used(self, k):
        a, eigs = self._spd_probe(12, seed=11)
        calls = []
        est = A.hessian_topk_operator(lambda v: calls.append(1) or a @ v, 12, k, seed=4)
        assert np.allclose([e.value for e in est], eigs[:k], rtol=1e-3)
        assert calls and all(e.hvps == len(calls) for e in est)


class TestLandscape:
    def _net_and_batch(self):
        from bitconv.model import build
        from bitconv.train import ablation_config, gen_synthetic

        config = ablation_config("prebn_dual")
        net = build(config, seed=0, dtype=np.float64)
        tr, _ = gen_synthetic("blobs", 64, config.classes, seed=0)
        return net, (tr.x[:32], tr.y[:32])

    def test_zero_span_constant_grid(self):
        from bitconv.train import batch_loss

        net, batch = self._net_and_batch()
        xs, ys, losses = A.landscape_grid(net, batch, 1, (3, 0.0), mode="2d-line")
        assert np.all(losses == losses[0, 0])
        assert np.isclose(losses[0, 0], batch_loss(net, batch))

    def test_center_cell_is_unperturbed_loss(self):
        from bitconv.train import batch_loss

        net, batch = self._net_and_batch()
        base = batch_loss(net, batch)
        xs, ys, losses = A.landscape_grid(net, batch, 2, (5, 0.5), mode="2d-surface")
        assert losses[2, 2] == base
        assert losses.shape == (5, 5)

    def test_seed_reproducible(self):
        net, batch = self._net_and_batch()
        _, _, l1 = A.landscape_grid(net, batch, 3, (3, 0.4), mode="2d-surface")
        _, _, l2 = A.landscape_grid(net, batch, 3, (3, 0.4), mode="2d-surface")
        assert np.array_equal(l1, l2)

    def test_even_grid_rejected(self):
        net, batch = self._net_and_batch()
        with pytest.raises(ValueError):
            A.landscape_grid(net, batch, 1, (4, 1.0))

    def test_directions_only_touch_filter_params(self):
        net, _ = self._net_and_batch()
        rng = np.random.default_rng(4)
        d = A._filter_normalized_direction(net, rng)
        pos = 0
        for _, arr, _, is_filter in net.parameters():
            seg = d[pos : pos + arr.size]
            if is_filter:
                # per-filter norms match the weights' norms
                dseg = seg.reshape(arr.shape)
                for o in range(arr.shape[0]):
                    wn = np.linalg.norm(arr[o])
                    dn = np.linalg.norm(dseg[o])
                    assert np.isclose(dn, wn, rtol=1e-10)
            else:
                assert np.all(seg == 0)
            pos += arr.size

    def test_csv_writer(self, tmp_path):
        net, batch = self._net_and_batch()
        xs, ys, losses = A.landscape_grid(net, batch, 5, (3, 0.2), mode="2d-line")
        path = tmp_path / "landscape.csv"
        A.write_landscape_csv(path, xs, ys, losses)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x,y,loss"
        assert len(lines) == 1 + 3
