import numpy as np
import pytest

from sgconv import kernel as kernel_mod
from sgconv.conv import depthwise_conv_batch, make_plan
from sgconv.grad import (
    FD_MAX_COORDS,
    depthwise_conv_adjoint_batch,
    finite_diff_check,
    kernel_param_grad,
    upsample_adjoint,
)
from sgconv.kernel import (
    KernelConfig,
    ScaleParams,
    _interp_indices,
    init_kernel,
    init_params,
    materialize,
    position_decay,
    sub_kernel_len,
    upsample_linear,
)

ADJOINT_TOL = 1e-10


def fft_conv(x, k, plan):
    """One sequence through the batched FFT path, as a (1, 1, L) batch."""
    return depthwise_conv_batch(x[None, None], k[None], plan)[0, 0]


def adjoint_one(x, k, dy, plan):
    """The batched adjoint applied to one sequence, as a (1, 1, L) batch."""
    dx, dk = depthwise_conv_adjoint_batch(x[None, None], k[None], dy[None, None], plan)
    return dx[0, 0], dk[0]


class TestConvAdjoint:
    def test_dk_example(self):
        x = np.array([1.0, 2.0])
        dy = np.array([0.0, 1.0])
        _, dk = adjoint_one(x, np.array([0.3, 0.7]), dy, make_plan(2))
        np.testing.assert_allclose(dk, [2.0, 1.0], atol=1e-12)

    def test_zero_cotangent_gives_zeros(self):
        rng = np.random.default_rng(0)
        x, k = rng.standard_normal((2, 32))
        dx, dk = adjoint_one(x, k, np.zeros(32), make_plan(32))
        np.testing.assert_allclose(dx, 0.0, atol=1e-14)
        np.testing.assert_allclose(dk, 0.0, atol=1e-14)

    def test_inner_product_identities(self):
        rng = np.random.default_rng(1)
        L = 256
        plan = make_plan(L)
        for _ in range(50):
            x, k, dy = rng.standard_normal((3, L))
            y = fft_conv(x, k, plan)
            dx, dk = adjoint_one(x, k, dy, plan)
            lhs = np.dot(y, dy)
            assert abs(lhs - np.dot(x, dx)) <= ADJOINT_TOL * max(1.0, abs(lhs))
            assert abs(lhs - np.dot(k, dk)) <= ADJOINT_TOL * max(1.0, abs(lhs))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        L = 256
        plan = make_plan(L)
        x, k, dy = rng.standard_normal((3, L))
        dx, dk = adjoint_one(x, k, dy, plan)
        eps = 1e-5
        for idx in rng.integers(0, L, size=8):
            for which, analytic in (("x", dx), ("k", dk)):
                xp, kp = x.copy(), k.copy()
                xm, km = x.copy(), k.copy()
                if which == "x":
                    xp[idx] += eps
                    xm[idx] -= eps
                else:
                    kp[idx] += eps
                    km[idx] -= eps
                fp = np.dot(fft_conv(xp, kp, plan), dy)
                fm = np.dot(fft_conv(xm, km, plan), dy)
                fd = (fp - fm) / (2 * eps)
                assert abs(fd - analytic[idx]) <= 1e-6 * max(1.0, abs(analytic[idx]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            depthwise_conv_adjoint_batch(
                np.zeros((1, 1, 4)), np.zeros((1, 4)), np.zeros((1, 1, 5)), make_plan(4)
            )
        with pytest.raises(ValueError):
            depthwise_conv_adjoint_batch(
                np.zeros((1, 1, 4)), np.zeros((1, 4)), np.zeros((1, 1, 4)), make_plan(8)
            )


    @pytest.mark.parametrize(
        "x_dtype, dy_dtype, bad", [(np.int64, float, "int64"), (float, np.complex128, "complex128")]
    )
    def test_rejects_operands_that_are_not_real_float(self, x_dtype, dy_dtype, bad):
        x = np.ones((1, 1, 4), dtype=x_dtype)
        dy = np.ones((1, 1, 4), dtype=dy_dtype)
        with pytest.raises(ValueError, match=f"got dtype {bad}"):
            depthwise_conv_adjoint_batch(x, np.ones((1, 4)), dy, make_plan(4))


class TestAdjointWorkspace:
    """The adjoint writes its transforms into a caller's workspace."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("L", [1, 100, 1024])
    @pytest.mark.parametrize("B", [1, 3, 16])
    def test_matches_fresh_buffers_bit_for_bit(self, B, L, dtype):
        rng = np.random.default_rng(B * L + 1)
        x, dy = rng.standard_normal((2, B, 4, L)).astype(dtype)
        k = rng.standard_normal((4, L)).astype(dtype)
        plan = make_plan(L)
        ref_dx, ref_dk = depthwise_conv_adjoint_batch(x, k, dy, plan)
        dx, dk = depthwise_conv_adjoint_batch(x, k, dy, plan, work={})
        assert dx.dtype == ref_dx.dtype == dtype
        np.testing.assert_array_equal(dx, ref_dx)
        np.testing.assert_array_equal(dk, ref_dk)

    def test_shares_the_forward_pair_and_reuses_it(self):
        rng = np.random.default_rng(13)
        x, dy, dy2 = rng.standard_normal((3, 3, 4, 100))
        k = rng.standard_normal((4, 100))
        plan = make_plan(100)
        work = {}
        depthwise_conv_batch(x, k, plan, work=work)
        (key, pair), = work.items()
        for cot in (dy, dy2):
            dx, dk = depthwise_conv_adjoint_batch(x, k, cot, plan, work=work)
            assert list(work.items()) == [(key, pair)]
            assert np.shares_memory(dx, pair[0])
            assert not any(np.shares_memory(dk, buf) for buf in pair)
            ref_dx, ref_dk = depthwise_conv_adjoint_batch(x, k, cot, plan)
            np.testing.assert_array_equal(dx, ref_dx)
            np.testing.assert_array_equal(dk, ref_dk)


class TestBatchAdjoint:
    def test_inner_product_identity(self):
        rng = np.random.default_rng(3)
        B, H, L = 3, 4, 128
        plan = make_plan(L)
        x = rng.standard_normal((B, H, L))
        k = rng.standard_normal((H, L))
        dy = rng.standard_normal((B, H, L))
        y = depthwise_conv_batch(x, k, plan)
        dx, dk = depthwise_conv_adjoint_batch(x, k, dy, plan)
        lhs = float((y * dy).sum())
        assert abs(lhs - float((x * dx).sum())) <= ADJOINT_TOL * max(1.0, abs(lhs))
        assert abs(lhs - float((k * dk).sum())) <= ADJOINT_TOL * max(1.0, abs(lhs))

    def test_batch_sum_matches_per_sequence(self):
        rng = np.random.default_rng(4)
        B, H, L = 2, 3, 64
        plan = make_plan(L)
        x = rng.standard_normal((B, H, L))
        k = rng.standard_normal((H, L))
        dy = rng.standard_normal((B, H, L))
        dx, dk = depthwise_conv_adjoint_batch(x, k, dy, plan)
        for h in range(H):
            acc = np.zeros(L)
            for b in range(B):
                dxb, dkb = adjoint_one(x[b, h], k[h], dy[b, h], plan)
                np.testing.assert_allclose(dx[b, h], dxb, atol=1e-12)
                acc += dkb
            np.testing.assert_allclose(dk[h], acc, atol=1e-11)


class TestUpsampleAdjoint:
    def test_identity_when_lengths_match(self):
        g = np.arange(5.0)
        np.testing.assert_array_equal(upsample_adjoint(g, 5), g)

    def test_single_knot_sums(self):
        g = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(upsample_adjoint(g, 1), [6.0])

    def test_matches_dense_transpose_example(self):
        rng = np.random.default_rng(5)
        d, l = 8, 32
        U = upsample_linear(np.eye(d), l)  # row j = U @ e_j, i.e. U^T
        g = rng.standard_normal(l)
        np.testing.assert_allclose(upsample_adjoint(g, d), U @ g, atol=1e-13)

    def test_matches_dense_transpose_sweep(self):
        rng = np.random.default_rng(6)
        for d in range(1, 17):
            for l in range(d, 65):
                U_t = upsample_linear(np.eye(d), l)  # (d, l) = U^T
                g = rng.standard_normal(l)
                np.testing.assert_allclose(upsample_adjoint(g, d), U_t @ g, atol=1e-12)

    def test_rejects_shorter_gradient(self):
        with pytest.raises(ValueError):
            upsample_adjoint(np.zeros(3), 5)

    @pytest.mark.parametrize("d, l", [(2, 3), (8, 1024), (8, 8192)])
    def test_matches_scatter_add(self, d, l):
        # the former implementation: two np.add.at scatters onto the knots
        g = np.random.default_rng(d + l).standard_normal((3, l))
        lo, hi, frac = _interp_indices(d, l)
        expect = np.zeros((3, d))
        rows = np.arange(3)[:, None]
        np.add.at(expect, (rows, lo[None, :]), g * (1.0 - frac))
        np.add.at(expect, (rows, hi[None, :]), g * frac)
        np.testing.assert_array_equal(upsample_adjoint(g, d), expect)


def pullback_by_adjoint(dk, params, config, z):
    """kernel_param_grad written with upsample_adjoint: scale, decay, zero-extend
    the cut tail, split at the sub-kernel boundaries, scatter onto the knots."""
    H, N, d = params.weights.shape
    L = config.seq_len
    g = dk / z[:, None]
    if config.mode == "disentangled":
        g = g * position_decay(L, config.decay_t)[None, :]
    lens = [sub_kernel_len(i, d) for i in range(N)]
    g = np.concatenate([g, np.zeros((H, sum(lens) - L))], axis=1)
    out = np.empty((H, N, d))
    offset = 0
    for i, li in enumerate(lens):
        seg = g[:, offset : offset + li]
        if config.mode == "concat":
            alpha = params.alphas if params.alphas is not None else config.decay_alpha
            seg = seg * np.asarray(alpha**i).reshape(-1, 1)
        out[:, i, :] = upsample_adjoint(seg, d)
        offset += li
    return out


class TestKernelParamGrad:
    @pytest.mark.parametrize(
        "L, d, mode, init",
        [
            (4096, 8, "concat", "gaussian"),
            (1024, 8, "concat", "cosine"),
            (256, 8, "disentangled", "gaussian"),
            (100, 8, "concat", "cosine"),
            (100, 8, "disentangled", "gaussian"),
            (64, 1, "concat", "gaussian"),
            (64, 64, "disentangled", "gaussian"),
        ],
    )
    @pytest.mark.parametrize("dense", [True, False])
    def test_matches_upsample_adjoint_and_transposes_materialize(
        self, monkeypatch, L, d, mode, init, dense
    ):
        if not dense:  # every scale through upsample_linear and upsample_adjoint
            monkeypatch.setattr(kernel_mod, "DENSE_MAX", 0)
        cfg = KernelConfig(
            seq_len=L, scale_dim=d, channels=3, mode=mode, init=init, decay_alpha=0.7, decay_t=1.5
        )
        rng = np.random.default_rng(L * d)
        params = init_params(cfg, rng)
        z = rng.uniform(0.5, 2.0, size=3)
        dk = rng.standard_normal((3, L))
        dweights = kernel_param_grad(dk, params, cfg, z)
        ref = pullback_by_adjoint(dk, params, cfg, z)
        assert np.abs(dweights - ref).max() <= 1e-13 * np.abs(ref).max()
        # <materialize(W), G> = <W, pullback(G)> under the frozen normalizer
        lhs = float(np.sum(materialize(params, cfg, normalizer=z).values * dk))
        rhs = float(np.sum(params.weights * dweights))
        assert abs(lhs - rhs) <= ADJOINT_TOL * max(abs(lhs), 1.0)

    def test_zero_gradient_passes_through(self):
        cfg = KernelConfig(seq_len=64, scale_dim=8, channels=2)
        params, kern = init_kernel(cfg, np.random.default_rng(7))
        dweights = kernel_param_grad(np.zeros((2, 64)), params, cfg, kern.normalizer)
        np.testing.assert_array_equal(dweights, np.zeros_like(params.weights))

    def test_single_scale_is_scaled_identity(self):
        cfg = KernelConfig(seq_len=8, scale_dim=8, channels=1)
        params, kern = init_kernel(cfg, np.random.default_rng(8))
        dk = np.arange(8.0)[None, :]
        dweights = kernel_param_grad(dk, params, cfg, kern.normalizer)
        np.testing.assert_allclose(
            dweights[0, 0], (cfg.decay_alpha**0) * dk[0] / kern.normalizer[0]
        )

    @pytest.mark.parametrize("mode", ["concat", "disentangled"])
    def test_full_pipeline_finite_differences(self, mode):
        cfg = KernelConfig(
            seq_len=256, scale_dim=8, channels=2, mode=mode, decay_alpha=0.5, decay_t=1.0
        )
        params, kern = init_kernel(cfg, np.random.default_rng(9))
        z = kern.normalizer

        def loss_fn(p):
            vals = materialize(p, cfg, normalizer=z).values
            return 0.5 * float((vals**2).sum())

        dk = materialize(params, cfg, normalizer=z).values
        dweights = kernel_param_grad(dk, params, cfg, z)
        assert finite_diff_check(loss_fn, params, dweights) < 1e-5

    def test_per_channel_alpha_gradient(self):
        cfg = KernelConfig(seq_len=128, scale_dim=8, channels=4, init="cosine", mode="concat")
        params, kern = init_kernel(cfg, np.random.default_rng(10))
        assert params.alphas is not None
        z = kern.normalizer

        def loss_fn(p):
            vals = materialize(p, cfg, normalizer=z).values
            return 0.5 * float((vals**2).sum())

        dk = materialize(params, cfg, normalizer=z).values
        dweights = kernel_param_grad(dk, params, cfg, z)
        assert finite_diff_check(loss_fn, params, dweights) < 1e-5

    def test_truncated_tail_gets_zero_gradient(self):
        # L=100, d=8 covers 128: positions beyond 100 must not contribute
        cfg = KernelConfig(seq_len=100, scale_dim=8, channels=1)
        params, kern = init_kernel(cfg, np.random.default_rng(11))
        z = kern.normalizer

        def loss_fn(p):
            vals = materialize(p, cfg, normalizer=z).values
            return float(vals.sum())

        dk = np.ones((1, 100))
        dweights = kernel_param_grad(dk, params, cfg, z)
        assert finite_diff_check(loss_fn, params, dweights) < 1e-6

    def test_rejects_missing_or_bad_normalizer(self):
        cfg = KernelConfig(seq_len=64, scale_dim=8, channels=2)
        params = init_params(cfg, np.random.default_rng(0))
        with pytest.raises(ValueError):
            kernel_param_grad(np.zeros((2, 64)), params, cfg, np.ones(3))
        with pytest.raises(ValueError):
            kernel_param_grad(np.zeros((2, 32)), params, cfg, np.ones(2))


class TestFiniteDiffCheck:
    def test_quadratic_loss(self):
        cfg = KernelConfig(seq_len=64, scale_dim=4, channels=1)
        params, kern = init_kernel(cfg, np.random.default_rng(12))
        z = kern.normalizer

        def loss_fn(p):
            vals = materialize(p, cfg, normalizer=z).values
            return 0.5 * float((vals**2).sum())

        dk = materialize(params, cfg, normalizer=z).values
        dweights = kernel_param_grad(dk, params, cfg, z)
        assert finite_diff_check(loss_fn, params, dweights) < 1e-6

    def test_linear_loss_is_exact(self):
        cfg = KernelConfig(seq_len=64, scale_dim=4, channels=1)
        params, kern = init_kernel(cfg, np.random.default_rng(13))
        z = kern.normalizer

        def loss_fn(p):
            return float(materialize(p, cfg, normalizer=z).values.sum())

        dk = np.ones((1, 64))
        dweights = kernel_param_grad(dk, params, cfg, z)
        assert finite_diff_check(loss_fn, params, dweights) < 1e-9

    def test_subsamples_large_parameter_sets(self):
        cfg = KernelConfig(seq_len=4096, scale_dim=64, channels=8)
        params, kern = init_kernel(cfg, np.random.default_rng(14))
        z = kern.normalizer
        calls = 0

        def loss_fn(p):
            nonlocal calls
            calls += 1
            return float(p.weights.sum())

        err = finite_diff_check(loss_fn, params, np.ones_like(params.weights))
        assert calls == 2 * FD_MAX_COORDS  # two evaluations per probed coordinate
        assert err < 1e-9
