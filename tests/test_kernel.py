import numpy as np
import pytest

from sgconv import kernel as kernel_mod
from sgconv.kernel import (
    KernelConfig,
    ScaleParams,
    _interp_matrix,
    compute_normalizer,
    init_kernel,
    init_params,
    materialize,
    num_scales,
    position_decay,
    sub_kernel_len,
    upsample_linear,
)


def loop_upsample(w, target_len):
    """Scalar reference for align-corners interpolation."""
    d = len(w)
    if target_len == d:
        return np.array(w, dtype=float)
    if d == 1:
        return np.full(target_len, w[0], dtype=float)
    out = np.empty(target_len)
    for j in range(target_len):
        pos = j * (d - 1) / (target_len - 1)
        lo = min(int(np.floor(pos)), d - 2)
        f = pos - lo
        out[j] = (1.0 - f) * w[lo] + f * w[lo + 1]
    return out


def concat_upsampled(params, config):
    """The raw kernel as concatenated upsample_linear pieces, cut at L."""
    d = config.scale_dim
    pieces = []
    for i in range(config.num_scales):
        seg = upsample_linear(params.weights[:, i, :], sub_kernel_len(i, d))
        if config.mode == "concat":
            alpha = params.alphas if params.alphas is not None else config.decay_alpha
            seg = seg * np.asarray(alpha**i).reshape(-1, 1)
        pieces.append(seg)
    raw = np.concatenate(pieces, axis=1)[:, : config.seq_len]
    if config.mode == "disentangled":
        raw = raw * position_decay(config.seq_len, config.decay_t)[None, :]
    return raw


def loop_build(weights, config, alphas=None):
    """Element-by-element reference for both kernel constructions."""
    H, N, d = weights.shape
    L = config.seq_len
    out = np.zeros((H, L))
    for h in range(H):
        flat = []
        for i in range(N):
            seg = loop_upsample(weights[h, i], sub_kernel_len(i, d))
            if config.mode == "concat":
                a = alphas[h] if alphas is not None else config.decay_alpha
                seg = (a**i) * seg
            flat.extend(seg)
        row = np.array(flat[:L])
        if config.mode == "disentangled":
            for p in range(L):
                row[p] *= (p + 1.0) ** (-config.decay_t)
        out[h] = row
    return out


class TestNumScales:
    def test_examples(self):
        assert num_scales(16, 2) == 4
        assert num_scales(1024, 8) == 8
        assert num_scales(8, 8) == 1

    def test_non_power_of_two_ratio_uses_ceiling(self):
        assert num_scales(100, 8) == 5  # ceil(log2(12.5)) + 1

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            num_scales(4, 8)
        with pytest.raises(ValueError):
            num_scales(8, 0)

    def test_coverage_identity_for_power_of_two_ratios(self):
        for d in (1, 2, 3, 4, 8, 16):
            for ratio in (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024):
                L = d * ratio
                n = num_scales(L, d)
                assert sum(sub_kernel_len(i, d) for i in range(n)) == L

    def test_param_count_sublinear(self):
        for d in (8, 16):
            prev = None
            for L in (256, 512, 1024, 2048, 4096, 8192, 16384):
                frac = num_scales(L, d) * d / L
                if prev is not None:
                    assert frac < prev
                prev = frac


class TestSubKernelLen:
    def test_examples(self):
        assert sub_kernel_len(0, 4) == 4
        assert sub_kernel_len(1, 4) == 4
        assert sub_kernel_len(3, 4) == 16

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            sub_kernel_len(-1, 4)


class TestUpsample:
    def test_align_corners_example(self):
        out = upsample_linear(np.array([0.0, 1.0]), 4)
        np.testing.assert_allclose(out, [0.0, 1 / 3, 2 / 3, 1.0], rtol=0, atol=1e-15)

    def test_identity_when_lengths_match(self):
        np.testing.assert_array_equal(upsample_linear(np.array([5.0, 7.0, 9.0]), 3), [5, 7, 9])

    def test_constant_extension_for_single_point(self):
        np.testing.assert_array_equal(upsample_linear(np.array([3.0]), 4), [3, 3, 3, 3])

    def test_rejects_downsampling(self):
        with pytest.raises(ValueError):
            upsample_linear(np.array([1.0, 2.0, 3.0]), 2)

    def test_endpoints_map_exactly(self):
        rng = np.random.default_rng(3)
        for d, l in ((2, 9), (5, 13), (7, 50)):
            w = rng.standard_normal(d)
            out = upsample_linear(w, l)
            assert out[0] == w[0] and out[-1] == w[-1]

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(4)
        for d, l in ((2, 4), (3, 7), (8, 32), (5, 5), (1, 6)):
            w = rng.standard_normal(d)
            np.testing.assert_allclose(
                upsample_linear(w, l), loop_upsample(w, l), rtol=0, atol=1e-14
            )

    @pytest.mark.parametrize("d, n", [(1, 6), (5, 5), (3, 7), (8, 32)])
    def test_output_is_c_contiguous(self, d, n):
        w = np.random.default_rng(5).standard_normal((4, 3, d))
        for src in (w, w[:, 0, :], np.eye(d), w.transpose(1, 0, 2)):
            out = upsample_linear(src, n)
            assert out.flags.c_contiguous and out.shape == src.shape[:-1] + (n,)
            for row in np.ndindex(src.shape[:-1]):
                np.testing.assert_array_equal(out[row], upsample_linear(src[row], n))

    @pytest.mark.parametrize("d, n", [(1, 1), (1, 6), (5, 5), (3, 7), (8, 2048)])
    def test_interp_matrix_is_memoized_read_only_upsampled_identity(self, d, n):
        m = _interp_matrix(d, n)
        np.testing.assert_array_equal(m, upsample_linear(np.eye(d), n))
        assert _interp_matrix(d, n) is m and m.flags.c_contiguous
        with pytest.raises(ValueError):
            m[0, 0] = 1.0


class TestNormalizer:
    def test_euclidean_examples(self):
        assert compute_normalizer(np.array([3.0, 4.0])) == 5.0
        assert compute_normalizer(np.array([1.0, 0.0, 0.0, 0.0])) == 1.0

    def test_rejects_zero_kernel(self):
        with pytest.raises(ValueError):
            compute_normalizer(np.zeros(2))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            compute_normalizer(np.array([1.0, np.nan]))


class TestBuildConcat:
    def test_two_scale_raw_kernel(self):
        cfg = KernelConfig(seq_len=4, scale_dim=2, decay_alpha=0.5)
        params = ScaleParams(weights=np.ones((1, 2, 2)))
        kern = materialize(params, cfg, normalizer=np.ones(1))
        np.testing.assert_allclose(kern.values, [[1.0, 1.0, 0.5, 0.5]])

    def test_no_truncation_for_power_of_two_ratio(self):
        cfg = KernelConfig(seq_len=16, scale_dim=2)
        lens = [sub_kernel_len(i, 2) for i in range(cfg.num_scales)]
        assert lens == [2, 2, 4, 8] and sum(lens) == 16

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(11)
        cfg = KernelConfig(seq_len=1024, scale_dim=8, channels=3, decay_alpha=0.5)
        params = init_params(cfg, rng)
        kern = materialize(params, cfg)
        ref = loop_build(params.weights, cfg)
        ref /= np.linalg.norm(ref, axis=1, keepdims=True)
        np.testing.assert_allclose(kern.values, ref, rtol=0, atol=1e-13)

    def test_truncation_matches_loop_reference(self):
        rng = np.random.default_rng(12)
        cfg = KernelConfig(seq_len=100, scale_dim=8, channels=2, decay_alpha=0.7)
        params = init_params(cfg, rng)
        kern = materialize(params, cfg)
        ref = loop_build(params.weights, cfg)
        ref /= np.linalg.norm(ref, axis=1, keepdims=True)
        np.testing.assert_allclose(kern.values, ref, rtol=0, atol=1e-13)

    def test_per_scale_magnitude_bound(self):
        rng = np.random.default_rng(13)
        cfg = KernelConfig(seq_len=256, scale_dim=8, channels=2, decay_alpha=0.5)
        params = init_params(cfg, rng)
        kern = materialize(params, cfg)
        offset = 0
        for i in range(cfg.num_scales):
            li = sub_kernel_len(i, 8)
            seg = kern.values[:, offset : min(offset + li, 256)]
            if seg.shape[1] == 0:
                break
            bound = cfg.decay_alpha**i * np.abs(params.weights[:, i, :]).max(axis=1)
            bound = bound / kern.normalizer
            assert np.all(np.abs(seg).max(axis=1) <= bound * (1 + 1e-12))
            offset += li

    def test_rejects_shape_mismatch(self):
        cfg = KernelConfig(seq_len=16, scale_dim=2, channels=1)
        bad = ScaleParams(weights=np.ones((1, 3, 2)))
        with pytest.raises(ValueError):
            materialize(bad, cfg)


# (L, d, mode, init): cosine init in concat mode carries per-channel alphas,
# L=100 with d=8 cuts the last scale, d=L is a single scale
ASSEMBLY_CASES = [
    (4096, 8, "concat", "gaussian"),
    (1024, 8, "concat", "cosine"),
    (256, 8, "disentangled", "gaussian"),
    (100, 8, "concat", "gaussian"),
    (100, 8, "concat", "cosine"),
    (100, 8, "disentangled", "cosine"),
    (64, 1, "concat", "gaussian"),
    (64, 1, "disentangled", "gaussian"),
    (64, 64, "concat", "gaussian"),
    (64, 64, "disentangled", "gaussian"),
]


class TestAssembly:
    @pytest.mark.parametrize("dense", [True, False])
    @pytest.mark.parametrize("frozen", [False, True])
    @pytest.mark.parametrize("L, d, mode, init", ASSEMBLY_CASES)
    def test_matches_concatenated_upsampling(self, monkeypatch, L, d, mode, init, frozen, dense):
        if not dense:  # every scale upsampled by formula
            monkeypatch.setattr(kernel_mod, "DENSE_MAX", 0)
        cfg = KernelConfig(
            seq_len=L, scale_dim=d, channels=3, mode=mode, init=init, decay_alpha=0.7, decay_t=1.5
        )
        rng = np.random.default_rng(L + d)
        params = init_params(cfg, rng)
        raw = concat_upsampled(params, cfg)
        if frozen:
            z = rng.uniform(0.5, 2.0, size=3)
            kern = materialize(params, cfg, normalizer=z)
            np.testing.assert_array_equal(kern.normalizer, z)
        else:
            z = np.linalg.norm(raw, axis=1)
            kern = materialize(params, cfg)
            np.testing.assert_allclose(kern.normalizer, z, rtol=1e-15)
        expect = raw / z[:, None]
        assert np.abs(kern.values - expect).max() <= 1e-15 * np.abs(expect).max()

    def test_builds_no_matrix_past_the_dense_bound(self):
        cfg = KernelConfig(seq_len=2048, scale_dim=2048, channels=1)
        assert cfg.scale_dim**2 > kernel_mod.DENSE_MAX
        _interp_matrix.cache_clear()
        params, kern = init_kernel(cfg, np.random.default_rng(0))
        materialize(params, cfg, normalizer=kern.normalizer)
        assert _interp_matrix.cache_info().currsize == 0


class TestBuildDisentangled:
    def test_zero_exponent_matches_plain_concatenation(self):
        rng = np.random.default_rng(21)
        for L, d in ((64, 4), (200, 8)):  # 200 cuts the last scale short
            flat = KernelConfig(seq_len=L, scale_dim=d, channels=2, mode="disentangled",
                                decay_t=0.0)
            one = KernelConfig(seq_len=L, scale_dim=d, channels=2, mode="concat", decay_alpha=1.0)
            params = init_params(flat, rng)
            k_flat = materialize(params, flat)
            k_one = materialize(params, one)
            np.testing.assert_allclose(k_flat.values, k_one.values, rtol=0, atol=1e-15)

    def test_decay_vector_t1(self):
        np.testing.assert_allclose(position_decay(4, 1.0), [1.0, 0.5, 1 / 3, 0.25])

    def test_decay_non_increasing(self):
        for t in (0.0, 0.5, 1.0, 1.5, 2.0):
            dec = position_decay(256, t)
            assert np.all(np.diff(dec) <= 0.0)

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(22)
        cfg = KernelConfig(seq_len=256, scale_dim=8, channels=2, mode="disentangled", decay_t=2.0)
        params = init_params(cfg, rng)
        kern = materialize(params, cfg)
        ref = loop_build(params.weights, cfg)
        ref /= np.linalg.norm(ref, axis=1, keepdims=True)
        np.testing.assert_allclose(kern.values, ref, rtol=0, atol=1e-13)


class TestInit:
    def test_deterministic_given_seed(self):
        cfg = KernelConfig(seq_len=128, scale_dim=8, channels=4)
        a = init_params(cfg, np.random.default_rng(9))
        b = init_params(cfg, np.random.default_rng(9))
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_unit_norm_at_init(self):
        rng = np.random.default_rng(31)
        for mode in ("concat", "disentangled"):
            for init in ("gaussian", "cosine"):
                cfg = KernelConfig(
                    seq_len=200, scale_dim=8, channels=3, mode=mode, init=init
                )
                _, kern = init_kernel(cfg, rng)
                np.testing.assert_allclose(
                    np.linalg.norm(kern.values, axis=1), 1.0, rtol=0, atol=1e-6
                )

    def test_cosine_single_point_grid_is_constant(self):
        cfg = KernelConfig(seq_len=8, scale_dim=1, channels=3, init="cosine")
        params = init_params(cfg, np.random.default_rng(0))
        np.testing.assert_array_equal(params.weights, np.ones_like(params.weights))

    def test_cosine_concat_draws_per_channel_alpha(self):
        cfg = KernelConfig(seq_len=64, scale_dim=8, channels=16, init="cosine", mode="concat")
        params = init_params(cfg, np.random.default_rng(0))
        assert params.alphas is not None and params.alphas.shape == (16,)
        assert np.all((params.alphas >= 1 / 3) & (params.alphas <= 1.0))

    def test_cosine_disentangled_has_no_alpha(self):
        cfg = KernelConfig(seq_len=64, scale_dim=8, channels=4, init="cosine", mode="disentangled")
        assert init_params(cfg, np.random.default_rng(0)).alphas is None

    def test_gaussian_mean(self):
        cfg = KernelConfig(seq_len=2048, scale_dim=64, channels=32, init="gaussian")
        params = init_params(cfg, np.random.default_rng(40))
        n = params.weights.size
        assert n >= 10**4
        assert abs(params.weights.mean()) < 3.0 / np.sqrt(n)


class TestInvariants:
    def test_scale_weight_ordering(self):
        alpha = 0.5
        weights = [alpha**i for i in range(8)]
        assert all(a > b for a, b in zip(weights, weights[1:]))

    def test_builders_are_pure(self):
        cfg = KernelConfig(seq_len=96, scale_dim=8, channels=2)
        params = init_params(cfg, np.random.default_rng(50))
        k1 = materialize(params, cfg)
        k2 = materialize(params, cfg)
        np.testing.assert_array_equal(k1.values, k2.values)
        np.testing.assert_array_equal(k1.normalizer, k2.normalizer)

    def test_frozen_normalizer_is_not_recomputed(self):
        cfg = KernelConfig(seq_len=64, scale_dim=4, channels=1)
        params, kern = init_kernel(cfg, np.random.default_rng(51))
        bigger = ScaleParams(weights=params.weights * 3.0)
        retrained = materialize(bigger, cfg, normalizer=kern.normalizer)
        np.testing.assert_array_equal(retrained.normalizer, kern.normalizer)
        # scale change passes through: the kernel norm is now 3, not 1
        np.testing.assert_allclose(np.linalg.norm(retrained.values, axis=1), 3.0, rtol=1e-12)

    def test_minimal_kernel_edge_case(self):
        cfg = KernelConfig(seq_len=1, scale_dim=1, channels=2)
        _, kern = init_kernel(cfg, np.random.default_rng(52))
        assert kern.values.shape == (2, 1)
        np.testing.assert_allclose(np.abs(kern.values[:, 0]), 1.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            KernelConfig(seq_len=8, scale_dim=16)
        with pytest.raises(ValueError):
            KernelConfig(seq_len=8, scale_dim=2, decay_alpha=0.0)
        with pytest.raises(ValueError):
            KernelConfig(seq_len=8, scale_dim=2, decay_t=-1.0)
        with pytest.raises(ValueError):
            KernelConfig(seq_len=8, scale_dim=2, channels=0)
        with pytest.raises(ValueError):
            KernelConfig(seq_len=8, scale_dim=2, mode="other")
