import io

import numpy as np
import pytest

from bitconv import tensor as T


def sign_oracle(x, thr=0.0):
    # elementwise reference: ties at the threshold map to +1
    out = np.empty_like(x, dtype=np.float64)
    flat_x = x.reshape(-1)
    flat_o = out.reshape(-1)
    thr_b = np.broadcast_to(np.reshape(thr, (1, -1, 1, 1)) if np.ndim(thr) else thr, x.shape).reshape(-1)
    for i in range(flat_x.size):
        flat_o[i] = 1.0 if flat_x[i] >= thr_b[i] else -1.0
    return out


class TestPackUnpack:
    def test_sign_convention_with_tie(self):
        x = np.array([-2.0, 0.0, 3.0]).reshape(1, 1, 1, 3)
        b = T.pack(x, 0.0)
        assert T.unpack(b).ravel().tolist() == [-1.0, 1.0, 1.0]

    def test_all_ones_pads_zero(self):
        x = np.ones((1, 2, 3, 3))
        b = T.pack(x, 0.0)
        assert b.pads_are_zero()
        assert np.all(T.unpack(b) == 1.0)

    def test_all_minus_one(self):
        b = T.pack(-np.ones((1, 1, 4, 4)), 0.0)
        assert np.all(T.unpack(b) == -1.0)

    def test_roundtrip_matches_elementwise_oracle(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((1, 3, 5, 7))
        assert np.array_equal(T.unpack(T.pack(x, 0.0)), sign_oracle(x))

    def test_roundtrip_random_shapes(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            shape = tuple(int(rng.integers(1, hi + 1)) for hi in (4, 16, 16, 16))
            x = rng.standard_normal(shape)
            x[x == 0] = 1.0
            b = T.pack(x, 0.0)
            assert b.pads_are_zero()
            assert np.array_equal(T.unpack(b), np.where(x >= 0, 1.0, -1.0))

    def test_per_channel_threshold(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 4, 6, 6))
        thr = rng.standard_normal(4)
        got = T.unpack(T.pack(x, thr))
        assert np.array_equal(got, sign_oracle(x, thr))

    def test_pack_unpack_pack_identity(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2, 3, 9, 5))
        b = T.pack(x, 0.0)
        b2 = T.pack(T.unpack(b), 0.0)
        assert np.array_equal(b.words, b2.words)

    def test_pack_rejects_nonfinite(self):
        x = np.ones((1, 1, 2, 2))
        x[0, 0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            T.pack(x, 0.0)

    def test_bad_rank_rejected(self):
        with pytest.raises(ValueError):
            T.pack(np.ones((3, 3)), 0.0)


class TestXnorPopcountDot:
    def test_small_known(self):
        a = T.pack(np.array([1.0, 1.0, -1.0, -1.0]).reshape(1, 1, 1, 4), 0.0)
        b = T.pack(np.array([1.0, -1.0, -1.0, 1.0]).reshape(1, 1, 1, 4), 0.0)
        assert T.xnor_popcount_dot(a.words[0, 0], b.words[0, 0], 4) == 0

    def test_self_dot(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 1, 10, 10))
        b = T.pack(x, 0.0)
        assert T.xnor_popcount_dot(b.words[0, 0], b.words[0, 0], 100) == 100

    def test_exhaustive_small(self):
        # the dot depends only on the xor pattern, so enumerating every
        # pattern for n <= 12 against a random first operand is exhaustive
        for n in range(1, 13):
            rng = np.random.default_rng(n)
            a_bits = rng.integers(0, 2, n).astype(bool)
            av = np.where(a_bits, 1.0, -1.0)
            aw = T._pack_rows(a_bits.reshape(1, -1))[0]
            for pattern in range(1 << n):
                x_bits = np.array([(pattern >> i) & 1 for i in range(n)], dtype=bool)
                b_bits = a_bits ^ x_bits
                bv = np.where(b_bits, 1.0, -1.0)
                bw = T._pack_rows(b_bits.reshape(1, -1))[0]
                assert T.xnor_popcount_dot(aw, bw, n) == int(av @ bv)

    def test_random_200(self):
        rng = np.random.default_rng(5)
        av = rng.choice([-1.0, 1.0], 200)
        bv = rng.choice([-1.0, 1.0], 200)
        aw = T._pack_rows((av > 0).reshape(1, -1))[0]
        bw = T._pack_rows((bv > 0).reshape(1, -1))[0]
        assert T.xnor_popcount_dot(aw, bw, 200) == int(av @ bv)

    def test_capacity_mismatch_rejected(self):
        w = np.zeros(2, dtype=np.uint64)
        with pytest.raises(ValueError):
            T.xnor_popcount_dot(w, w, 200)
        with pytest.raises(ValueError):
            T.xnor_popcount_dot(w, w, 64)  # 64 elements fit one word, not two


class TestPadHygiene:
    def corrupt(self, b):
        # set every pad bit of the last word to 1
        mask = T.payload_mask(b.words_per_channel, b.elems_per_channel)
        bad = b.copy()
        bad.words[:, :, -1] |= ~mask[-1]
        return bad

    def test_unpack_ignores_pads(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((2, 3, 5, 5))
        b = T.pack(x, 0.0)
        assert b.pad_bits > 0
        bad = self.corrupt(b)
        assert not bad.pads_are_zero()
        assert np.array_equal(T.unpack(bad), T.unpack(b))

    def test_dot_masks_pads(self):
        rng = np.random.default_rng(9)
        n = 70  # two words, 58 pad bits
        av = rng.choice([-1.0, 1.0], n)
        bv = rng.choice([-1.0, 1.0], n)
        aw = T._pack_rows((av > 0).reshape(1, -1))[0].copy()
        bw = T._pack_rows((bv > 0).reshape(1, -1))[0].copy()
        want = T.xnor_popcount_dot(aw, bw, n)
        aw[-1] |= ~T.payload_mask(2, n)[-1]
        assert T.xnor_popcount_dot(aw, bw, n) == want


class TestContainer:
    def test_dense_roundtrip(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 3, 4, 5)).astype(np.float32)
        buf = io.BytesIO()
        T.write_dense(buf, x)
        buf.seek(0)
        assert np.array_equal(T.read_dense(buf), x)

    def test_bits_roundtrip(self):
        rng = np.random.default_rng(2)
        b = T.pack(rng.standard_normal((2, 3, 7, 9)), 0.0)
        buf = io.BytesIO()
        T.write_bits(buf, b)
        buf.seek(0)
        b2 = T.read_bits(buf)
        assert b2.shape == b.shape and np.array_equal(b2.words, b.words)

    def test_bad_magic(self):
        buf = io.BytesIO(b"XXXX" + b"\0" * 32)
        with pytest.raises(T.ContainerError):
            T.read_dense(buf)

    def test_truncated_payload(self):
        x = np.ones((1, 1, 4, 4), dtype=np.float32)
        buf = io.BytesIO()
        T.write_dense(buf, x)
        data = buf.getvalue()[:-8]
        with pytest.raises(T.ContainerError):
            T.read_dense(io.BytesIO(data))

    @pytest.mark.parametrize("reader", [T.read_dense, T.read_bits])
    @pytest.mark.parametrize("dim", [65536, 2**32 - 1])
    def test_overflowing_element_count_rejected(self, reader, dim):
        # 65536**4 wraps to 0 in int64; (2**32-1)**4 does not fit an index
        blob = T.MAGIC + np.full(4, dim, dtype="<u4").tobytes() + b"\0" * 64
        with pytest.raises(T.ContainerError):
            reader(io.BytesIO(blob))
