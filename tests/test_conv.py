import numpy as np
import pytest

from sgconv.conv import (
    ConvPlan,
    causal_conv_direct,
    depthwise_conv_batch,
    depthwise_conv_direct_batch,
    make_plan,
)

F64_TOL = 1e-10
F32_TOL = 1e-4


def scalar_conv(x, k):
    """The definitional double loop, scalar arithmetic only."""
    n = len(x)
    y = np.zeros(n)
    for i in range(n):
        for m in range(i + 1):
            y[i] += k[m] * x[i - m]
    return y


def fft_conv(x, k, plan):
    """One sequence through the batched FFT path, as a (1, 1, L) batch."""
    return depthwise_conv_batch(x[None, None], k[None], plan)[0, 0]


def rel_err(a, b):
    return np.abs(a - b).max() / max(np.abs(b).max(), 1e-300)


class TestPlan:
    def test_power_of_two_no_wraparound(self):
        for L in (1, 2, 3, 7, 16, 100, 1000):
            plan = make_plan(L)
            assert plan.fft_size >= 2 * L - 1
            assert plan.fft_size & (plan.fft_size - 1) == 0

    def test_rejects_wrapping_size(self):
        with pytest.raises(ValueError):
            ConvPlan(seq_len=16, fft_size=16)

    def test_reuse_is_bit_identical(self):
        rng = np.random.default_rng(0)
        L = 128
        x = rng.standard_normal(L)
        k = rng.standard_normal(L)
        plan = make_plan(L)
        shared = [fft_conv(x, k, plan) for _ in range(100)]
        fresh = [fft_conv(x, k, make_plan(L)) for _ in range(100)]
        for a, b in zip(shared, fresh):
            np.testing.assert_array_equal(a, b)


class TestDirect:
    def test_identity_kernel(self):
        np.testing.assert_allclose(
            causal_conv_direct(np.array([1.0, 2, 3]), np.array([1.0, 0, 0])), [1, 2, 3]
        )

    def test_late_impulse_sees_only_first_tap(self):
        out = causal_conv_direct(np.array([0.0, 0, 1]), np.array([4.0, 5, 6]))
        np.testing.assert_allclose(out, [0, 0, 4])

    def test_hand_computed_sum(self):
        np.testing.assert_allclose(
            causal_conv_direct(np.array([1.0, 1]), np.array([1.0, 1])), [1, 2]
        )

    def test_matches_scalar_double_loop(self):
        rng = np.random.default_rng(1)
        for L in (1, 2, 5, 16, 33):
            x = rng.standard_normal(L)
            k = rng.standard_normal(L)
            np.testing.assert_allclose(
                causal_conv_direct(x, k), scalar_conv(x, k), rtol=0, atol=1e-12
            )

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            causal_conv_direct(np.zeros(3), np.zeros(4))


class TestFFT:
    def test_unit_impulse_reproduces_kernel(self):
        rng = np.random.default_rng(2)
        k = rng.standard_normal(64)
        x = np.zeros(64)
        x[0] = 1.0
        assert rel_err(fft_conv(x, k, make_plan(64)), k) < 1e-13

    def test_zero_input_gives_zero(self):
        k = np.random.default_rng(3).standard_normal(32)
        np.testing.assert_array_equal(
            fft_conv(np.zeros(32), k, make_plan(32)), np.zeros(32)
        )

    @pytest.mark.parametrize("L", [16, 64, 256])
    def test_agrees_with_direct_f64(self, L):
        rng = np.random.default_rng(L)
        plan = make_plan(L)
        for _ in range(25):
            x = rng.standard_normal(L)
            k = rng.standard_normal(L)
            assert rel_err(fft_conv(x, k, plan), causal_conv_direct(x, k)) < F64_TOL

    @pytest.mark.parametrize("L", [16, 64, 256, 1024])
    def test_agrees_with_direct_f32(self, L):
        rng = np.random.default_rng(9)
        plan = make_plan(L)
        for _ in range(50):
            x = rng.standard_normal(L).astype(np.float32)
            k = rng.standard_normal(L).astype(np.float32)
            y = fft_conv(x, k, plan)
            assert y.dtype == np.float32
            assert rel_err(y.astype(np.float64), causal_conv_direct(x, k)) < F32_TOL

    def test_length_one_edge_case(self):
        plan = make_plan(1)
        np.testing.assert_allclose(
            fft_conv(np.array([3.0]), np.array([2.0]), plan), [6.0]
        )

    def test_linearity(self):
        rng = np.random.default_rng(4)
        L = 128
        plan = make_plan(L)
        x1, x2, k = rng.standard_normal((3, L))
        lhs = fft_conv(3.0 * x1 - 0.5 * x2, k, plan)
        rhs = 3.0 * fft_conv(x1, k, plan) - 0.5 * fft_conv(x2, k, plan)
        assert rel_err(lhs, rhs) < 1e-12

    def test_causality(self):
        rng = np.random.default_rng(5)
        L = 128
        plan = make_plan(L)
        x = rng.standard_normal(L)
        k = rng.standard_normal(L)
        base = fft_conv(x, k, plan)
        for cut in (1, 17, 64, 127):
            mod = x.copy()
            mod[cut:] = rng.standard_normal(L - cut)
            changed = fft_conv(mod, k, plan)
            assert rel_err(changed[:cut], base[:cut]) < 1e-12

    def test_rejects_plan_mismatch(self):
        with pytest.raises(ValueError):
            depthwise_conv_batch(np.zeros((1, 1, 16)), np.zeros((1, 16)), make_plan(32))


class TestDepthwiseBatch:
    def test_per_channel_independence(self):
        rng = np.random.default_rng(6)
        L = 32
        x = rng.standard_normal((3, 2, L))
        k = np.zeros((2, L))
        k[0, 0] = 1.0  # impulse on channel 0; channel 1 kernel all-zero
        y = depthwise_conv_batch(x, k, make_plan(L))
        np.testing.assert_allclose(y[:, 0], x[:, 0], rtol=0, atol=1e-13)
        np.testing.assert_allclose(y[:, 1], 0.0, rtol=0, atol=1e-13)

    def test_batch_independence(self):
        rng = np.random.default_rng(7)
        L = 64
        row = rng.standard_normal((1, 4, L))
        x = np.repeat(row, 4, axis=0)
        k = rng.standard_normal((4, L))
        y = depthwise_conv_batch(x, k, make_plan(L))
        for b in range(1, 4):
            np.testing.assert_array_equal(y[b], y[0])

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(8)
        B, H, L = 2, 8, 512
        x = rng.standard_normal((B, H, L))
        k = rng.standard_normal((H, L))
        y = depthwise_conv_batch(x, k, make_plan(L))
        for b in range(B):
            for h in range(H):
                assert rel_err(y[b, h], causal_conv_direct(x[b, h], k[h])) < F64_TOL

    def test_rejects_channel_mismatch(self):
        with pytest.raises(ValueError):
            depthwise_conv_batch(np.zeros((1, 3, 16)), np.zeros((2, 16)), make_plan(16))

    @pytest.mark.parametrize("dtype", [np.int64, np.complex128, np.bool_])
    def test_rejects_input_that_is_not_real_float(self, dtype):
        # an integer input used to cast the kernel to int64 and return zeros
        x = np.array([[[1, 2, 3, 4]]]).astype(dtype)
        with pytest.raises(ValueError, match=f"got dtype {np.dtype(dtype)}"):
            depthwise_conv_batch(x, [[0.5, 0.25, 0.1, 0.05]], make_plan(4))


class TestWorkspace:
    """The forward writes its transforms into a caller's workspace."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("L", [1, 100, 1024])
    @pytest.mark.parametrize("B", [1, 3, 16])
    def test_matches_fresh_buffers_bit_for_bit(self, B, L, dtype):
        rng = np.random.default_rng(B * L)
        x = rng.standard_normal((B, 4, L)).astype(dtype)
        k = rng.standard_normal((4, L)).astype(dtype)
        plan = make_plan(L)
        ref = depthwise_conv_batch(x, k, plan)
        y = depthwise_conv_batch(x, k, plan, work={})
        assert y.dtype == ref.dtype == dtype
        np.testing.assert_array_equal(y, ref)

    def test_second_call_reuses_the_buffers(self):
        rng = np.random.default_rng(12)
        x, x2 = rng.standard_normal((2, 3, 4, 100))
        k = rng.standard_normal((4, 100))
        plan = make_plan(100)
        work = {}
        y = depthwise_conv_batch(x, k, plan, work=work)
        (key, pair), = work.items()
        assert key == (3, 4, plan.fft_size, np.dtype(np.complex128))
        assert all(buf.shape == (3, 4, plan.fft_size // 2 + 1) for buf in pair)
        assert np.shares_memory(y, pair[1])
        y2 = depthwise_conv_batch(x2, k, plan, work=work)
        assert list(work.items()) == [(key, pair)]
        assert np.shares_memory(y2, pair[1])
        np.testing.assert_array_equal(y2, depthwise_conv_batch(x2, k, plan))


class TestDirectBlocked:
    @pytest.mark.parametrize("L,block", [(16, 16), (100, 16), (128, 32), (37, 8), (64, 128)])
    def test_matches_definitional_loop(self, L, block):
        rng = np.random.default_rng(L + block)
        x = rng.standard_normal((2, 3, L))
        k = rng.standard_normal((3, L))
        y = depthwise_conv_direct_batch(x, k, block=block)
        for b in range(2):
            for h in range(3):
                assert rel_err(y[b, h], causal_conv_direct(x[b, h], k[h])) < 1e-12

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("L,block", [(16, 16), (100, 16), (128, 32), (37, 8), (64, 128)])
    def test_bit_identical_to_gathered_blocks(self, L, block, dtype):
        rng = np.random.default_rng(L * block)
        x = rng.standard_normal((2, 3, L)).astype(dtype)
        k = rng.standard_normal((3, L)).astype(dtype)
        # the same blocked product with each Toeplitz block gathered by fancy indexing
        t = min(block, L)
        nb = -(-L // t)
        xp = np.zeros((2, 3, nb * t), dtype=dtype)
        xp[..., :L] = x
        kp = np.zeros((3, nb * t), dtype=dtype)
        kp[:, :L] = k
        ref = np.zeros_like(xp)
        uv = np.arange(t)[:, None] - np.arange(t)[None, :]
        for ch in range(3):
            kext = np.concatenate([np.zeros(t - 1, dtype=dtype), kp[ch]])
            for e in range(nb):
                blk = kext[(t - 1 + e * t) + uv]
                for i in range(e, nb):
                    j = i - e
                    ref[:, ch, i * t : (i + 1) * t] += xp[:, ch, j * t : (j + 1) * t] @ blk.T
        y = depthwise_conv_direct_batch(x, k, block=block)
        assert y.dtype == dtype
        np.testing.assert_array_equal(y, ref[..., :L])

    def test_preserves_dtype(self):
        x = np.zeros((1, 1, 16), dtype=np.float32)
        k = np.zeros((1, 16), dtype=np.float32)
        k[0, 0] = 1.0
        assert depthwise_conv_direct_batch(x, k).dtype == np.float32

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            depthwise_conv_direct_batch(np.zeros((1, 2, 16)), np.zeros((2, 8)))
