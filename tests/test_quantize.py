import numpy as np
import pytest

from bitconv import quantize as Q


def otsu_brute_force(hist):
    # independent oracle: scan all 256 candidate thresholds directly
    hist = np.asarray(hist, dtype=np.float64)
    total = hist.sum()
    best_t, best_v = 0, -1.0
    for t in range(256):
        w0 = hist[:t].sum()
        w1 = total - w0
        if w0 == 0 or w1 == 0:
            v = 0.0
        else:
            mu0 = (hist[:t] * np.arange(t)).sum() / w0
            mu1 = (hist[t:] * np.arange(t, 256)).sum() / w1
            v = w0 * w1 * (mu0 - mu1) ** 2
        if v > best_v + 1e-9 * max(1.0, best_v):
            best_t, best_v = t, v
    return best_t


class TestBinarize:
    def test_basic(self):
        x = np.array([-1.0, 0.0, 2.0]).reshape(1, 1, 1, 3)
        p = Q.BinQuantParams(np.zeros(1), np.ones(1))
        assert Q.binarize(x, p).ravel().tolist() == [-1.0, 1.0, 1.0]

    def test_zero_magnitude(self):
        x = np.random.default_rng(0).standard_normal((1, 2, 3, 3))
        p = Q.BinQuantParams(np.zeros(2), np.zeros(2))
        assert np.all(Q.binarize(x, p) == 0.0)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 3, 4, 4))
        thr = rng.standard_normal(3)
        mag = rng.random(3)
        p = Q.BinQuantParams(thr, mag)
        got = Q.binarize(x, p)
        for n in range(2):
            for c in range(3):
                for i in range(4):
                    for j in range(4):
                        want = mag[c] if x[n, c, i, j] >= thr[c] else -mag[c]
                        assert got[n, c, i, j] == want

    def test_channel_mismatch(self):
        p = Q.BinQuantParams(np.zeros(2), np.ones(2))
        with pytest.raises(ValueError):
            Q.binarize(np.ones((1, 3, 2, 2)), p)


class TestTernarize:
    def test_printed_arms(self):
        p = Q.DualQuantParams([-0.5], [0.5], [1.0], [1.0])
        x = np.array([-1.0, 0.0, 1.0]).reshape(1, 1, 1, 3)
        assert Q.ternarize(x, p).ravel().tolist() == [-2.0, 0.0, 2.0]

    def test_degenerates_to_binarize(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((1, 2, 5, 5))
        a = rng.standard_normal(2)
        b = rng.random(2)
        p = Q.DualQuantParams(a, a, b, np.zeros(2))
        bin_p = Q.BinQuantParams(a, b)
        assert np.array_equal(Q.ternarize(x, p), Q.binarize(x, bin_p))

    def test_decomposition_identity(self):
        # the sum-of-two-sign-quantizers identity that justifies the dual conv
        rng = np.random.default_rng(3)
        for _ in range(20):
            c = int(rng.integers(1, 5))
            x = rng.standard_normal((2, c, 6, 6)) * 3
            a1 = rng.uniform(-1, 0, c)
            a2 = a1 + rng.uniform(0, 1, c)
            p = Q.DualQuantParams(a1, a2, rng.random(c), rng.random(c))
            direct = Q.ternarize(x, p)
            summed = Q.binarize(x, p.branch(0)) + Q.binarize(x, p.branch(1))
            assert np.array_equal(direct, summed)

    def test_monotone_per_channel(self):
        rng = np.random.default_rng(4)
        p = Q.DualQuantParams([-0.3], [0.4], [0.7], [0.2])
        x = np.sort(rng.standard_normal(100)).reshape(1, 1, 1, 100)
        y = Q.ternarize(x, p).ravel()
        assert np.all(np.diff(y) >= 0)

    def test_level_count_n_plus_one(self):
        # N parallel sign quantizers produce exactly N+1 summed levels
        rng = np.random.default_rng(5)
        x = np.linspace(-3, 3, 4001).reshape(1, 1, 1, -1)
        for n in range(1, 5):
            thrs = np.sort(rng.uniform(-1, 1, n))
            mags = rng.random(n) + 0.5
            total = np.zeros_like(x)
            for t, m in zip(thrs, mags):
                total = total + Q.binarize(x, Q.BinQuantParams([t], [m]))
            assert len(np.unique(total)) == n + 1

    def test_alpha_order_enforced(self):
        with pytest.raises(ValueError):
            Q.DualQuantParams([0.5], [-0.5], [1.0], [1.0])


class TestEffectiveBits:
    def test_values(self):
        assert Q.effective_bits(1) == 1.0
        assert Q.effective_bits(3) == 2.0
        assert 1.58 <= Q.effective_bits(2) <= 1.585

    def test_invalid(self):
        with pytest.raises(ValueError):
            Q.effective_bits(0)


class TestSteGrad:
    def test_inside_clip(self):
        g = np.full((1, 1, 2, 2), 3.0)
        assert np.array_equal(Q.ste_grad_sign(np.zeros((1, 1, 2, 2)), g, 1.0), g)

    def test_outside_clip(self):
        x = np.full((1, 1, 2, 2), 2.0)
        g = np.ones_like(x)
        assert np.all(Q.ste_grad_sign(x, g, 1.0) == 0.0)

    def test_matches_hard_tanh_finite_differences(self):
        # surrogate: hard-tanh h(x) = clip(x, -c, c); STE passes h'(x)*upstream
        rng = np.random.default_rng(6)
        clip = 1.0
        x = rng.uniform(-2, 2, (1, 1, 1, 64))
        x = x[np.abs(np.abs(x) - clip) > 1e-3]  # keep away from the kink
        h = 1e-4
        fd = (np.clip(x + h, -clip, clip) - np.clip(x - h, -clip, clip)) / (2 * h)
        got = Q.ste_grad_sign(x, np.ones_like(x), clip)
        assert np.allclose(got, fd, atol=1e-9)


class TestOtsu:
    def test_two_spikes(self):
        hist = np.zeros(256)
        hist[10] = 50
        hist[200] = 50
        assert Q.otsu_threshold(hist) == 11
        assert otsu_brute_force(hist) == 11

    def test_single_bin(self):
        hist = np.zeros(256)
        hist[77] = 10
        assert Q.otsu_threshold(hist) == 0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            hist = rng.integers(0, 50, 256).astype(float)
            hist[rng.integers(0, 256)] += rng.integers(100, 500)
            assert Q.otsu_threshold(hist) == otsu_brute_force(hist)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Q.otsu_threshold(np.zeros(256))


class TestImageOps:
    def test_constant_image(self):
        img = np.zeros((4, 4))
        assert np.all(Q.ternarize_image(img, 85, 170) == 0)

    def test_degenerate_two_level(self):
        ramp = np.tile(np.arange(256), (2, 1))
        out = Q.ternarize_image(ramp, 128, 128)
        assert sorted(np.unique(out).tolist()) == [0, 255]

    def test_ramp_three_equal_bands(self):
        ramp = np.tile(np.arange(256), (1, 1))
        out = Q.ternarize_image(ramp, 85, 170)
        # per-pixel oracle
        want = np.where(ramp < 85, 0, np.where(ramp < 170, 128, 255))
        assert np.array_equal(out, want)
        vals, counts = np.unique(out, return_counts=True)
        assert vals.tolist() == [0, 128, 255]
        assert counts.tolist() == [85, 85, 86]

    def test_order_enforced(self):
        with pytest.raises(ValueError):
            Q.ternarize_image(np.zeros((2, 2)), 170, 85)

    def test_pgm_roundtrip(self, tmp_path):
        rng = np.random.default_rng(8)
        img = rng.integers(0, 256, (9, 13)).astype(np.uint8)
        path = tmp_path / "img.pgm"
        Q.write_pgm(path, img)
        assert np.array_equal(Q.read_pgm(path), img)

    @pytest.mark.parametrize("width,height", [(-3, 2), (3, -2), (0, 2), (3, 0)])
    def test_pgm_non_positive_size_rejected(self, tmp_path, width, height):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n%d %d\n255\n" % (width, height) + bytes(6))
        with pytest.raises(ValueError, match="PGM size must be positive"):
            Q.read_pgm(path)

    def test_pgm_short_pixel_data_rejected(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(2))
        with pytest.raises(ValueError, match="PGM pixel data too short"):
            Q.read_pgm(path)

    def test_two_threshold_otsu_on_trimodal(self):
        hist = np.zeros(256)
        hist[[20, 21]] = 40
        hist[[120, 121]] = 40
        hist[[230, 231]] = 40
        t1, t2 = Q.otsu_two_thresholds(hist)
        assert 21 < t1 <= 120
        assert 121 < t2 <= 230
