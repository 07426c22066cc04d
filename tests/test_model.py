import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import sgconv.model as model_mod
from sgconv.conv import depthwise_conv_batch, make_plan
from sgconv.grad import depthwise_conv_adjoint_batch
from sgconv.kernel import ScaleParams, materialize
from sgconv.model import (
    FORWARD_CHUNK,
    LN_EPS,
    ModelConfig,
    TrainConfig,
    TrainingDiverged,
    _act,
    _act_grad,
    _buffer_items,
    _embed_grad,
    _param_items,
    _step_grads,
    block_backward,
    block_forward,
    classifier_backward,
    classifier_forward,
    cross_entropy,
    init_model,
    load_checkpoint,
    save_checkpoint,
    squared_error,
    train,
)
from sgconv.tasks import TaskSpec, gen_batch

RECALL = TaskSpec(kind="first_token_recall", seq_len=64, num_classes=4)


def tiny_config(**kwargs):
    defaults = dict(channels=8, n_blocks=2, scale_dim=4)
    defaults.update(kwargs)
    return ModelConfig.for_task(RECALL, **defaults)


def whole_array_layer_norm(x, bp):
    """Layer norm over the channel axis of the whole array, in the model's
    operation order."""
    mu = x.mean(axis=1, keepdims=True)
    xc = x - mu
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=1, keepdims=True) + LN_EPS)
    xhat = xc * inv
    return xhat, inv, bp.gamma[None, :, None] * xhat + bp.beta[None, :, None]


def whole_array_layer_norm_adjoint(dh, dy, xhat, inv, bp):
    """(dx, dgamma, dbeta) of layer norm plus the residual, over the whole array."""
    dgamma = (dh * xhat).sum(axis=(0, 2))
    dbeta = dh.sum(axis=(0, 2))
    dxhat = dh * bp.gamma[None, :, None]
    dx = dxhat - dxhat.mean(axis=1, keepdims=True)
    dx -= xhat * (dxhat * xhat).mean(axis=1, keepdims=True)
    return dx * inv + dy, dgamma, dbeta


def gelu_grad(x):
    """The GELU derivative at x, read off _act_grad's in-place product with ones."""
    return _act_grad(x, np.ones_like(x))


class TestBlock:
    def test_zero_mix_stack_is_identity(self):
        cfg = tiny_config(n_blocks=3)
        state = init_model(cfg, np.random.default_rng(0))
        for bp in state.blocks:
            bp.mix_w[:] = 0.0
        plan = make_plan(cfg.seq_len)
        x = np.random.default_rng(1).standard_normal((2, cfg.channels, cfg.seq_len))
        y = x
        for bp in state.blocks:
            y = block_forward(y, bp, cfg.kernel_config(), plan)
        np.testing.assert_array_equal(y, x)

    def test_batch_permutation_equivariance(self):
        cfg = tiny_config()
        state = init_model(cfg, np.random.default_rng(2))
        plan = make_plan(cfg.seq_len)
        x = np.random.default_rng(3).standard_normal((4, cfg.channels, cfg.seq_len))
        perm = np.array([2, 0, 3, 1])
        y = block_forward(x, state.blocks[0], cfg.kernel_config(), plan)
        y_perm = block_forward(x[perm], state.blocks[0], cfg.kernel_config(), plan)
        np.testing.assert_allclose(y_perm, y[perm], atol=1e-12)

    def test_matches_composition_of_primitives(self):
        cfg = tiny_config(n_blocks=1)
        state = init_model(cfg, np.random.default_rng(4))
        bp = state.blocks[0]
        plan = make_plan(cfg.seq_len)
        x = np.random.default_rng(5).standard_normal((2, cfg.channels, cfg.seq_len))
        # step-by-step reference composition
        mu = x.mean(axis=1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
        h = bp.gamma[None, :, None] * (x - mu) / np.sqrt(var + LN_EPS) + bp.beta[None, :, None]
        kern = materialize(
            ScaleParams(weights=bp.weights), cfg.kernel_config(), normalizer=bp.kernel_norm
        )
        c = depthwise_conv_batch(h, kern.values, plan)
        a = _act(c)
        m = np.einsum("ij,bjl->bil", bp.mix_w, a) + bp.mix_b[None, :, None]
        expect = x + m
        got = block_forward(x, bp, cfg.kernel_config(), plan)
        np.testing.assert_allclose(got, expect, atol=1e-13)

    @pytest.mark.parametrize("layout", ["row-major", "channels-last"])
    def test_per_sample_layer_norm_is_bit_identical(self, layout):
        # 32 channels: enough for numpy to sum a contiguous channel axis
        # pairwise, so a sample laid out unlike x would round differently
        cfg = tiny_config(n_blocks=1, channels=32)
        bp = init_model(cfg, np.random.default_rng(4)).blocks[0]
        bp.gamma = np.random.default_rng(7).uniform(0.5, 1.5, cfg.channels)
        bp.beta = np.random.default_rng(8).standard_normal(cfg.channels)
        x = np.random.default_rng(5).standard_normal((3, cfg.seq_len, cfg.channels))
        x = x.transpose(0, 2, 1) if layout == "channels-last" else np.ascontiguousarray(x.transpose(0, 2, 1))
        x_before = x.copy()
        plan = make_plan(cfg.seq_len)
        y, cache = block_forward(x, bp, cfg.kernel_config(), plan, want_cache=True)
        np.testing.assert_array_equal(block_forward(x, bp, cfg.kernel_config(), plan), y)
        xhat, inv, h = whole_array_layer_norm(x, bp)
        np.testing.assert_array_equal(cache["xhat"], xhat)
        np.testing.assert_array_equal(cache["inv"], inv)
        np.testing.assert_array_equal(cache["h"], h)
        np.testing.assert_array_equal(x, x_before)
        # the cache holds c itself, not a view into the conv's 2L-long buffer
        assert cache["c"].base is None and cache["c"].shape == x.shape

    def test_cached_activation_is_row_major_for_channels_last_input(self):
        # a token embedding reaches block 0 channels-last; the GELU output
        # the channel mix and its gradient read is row-major all the same
        cfg = tiny_config(n_blocks=1)
        bp = init_model(cfg, np.random.default_rng(4)).blocks[0]
        x = np.random.default_rng(5).standard_normal((3, cfg.seq_len, cfg.channels))
        _, cache = block_forward(
            x.transpose(0, 2, 1), bp, cfg.kernel_config(), make_plan(cfg.seq_len), want_cache=True
        )
        assert cache["a"].flags.c_contiguous
        np.testing.assert_array_equal(cache["a"], _act(cache["c"]))

    def test_backward_matches_whole_array_layer_norm_adjoint(self):
        cfg = tiny_config(n_blocks=1)
        bp = init_model(cfg, np.random.default_rng(9)).blocks[0]
        bp.gamma = np.random.default_rng(10).uniform(0.5, 1.5, cfg.channels)
        plan = make_plan(cfg.seq_len)
        rng = np.random.default_rng(11)
        x = rng.standard_normal((3, cfg.channels, cfg.seq_len))
        dy = rng.standard_normal(x.shape)
        _, cache = block_forward(x, bp, cfg.kernel_config(), plan, want_cache=True)
        before = {k: v.copy() for k, v in cache.items()}
        dy_before = dy.copy()
        dx, grads = block_backward(dy, cache, bp, cfg.kernel_config(), plan)

        dc = (bp.mix_w.T @ dy) * gelu_grad(cache["c"])
        dh, _ = depthwise_conv_adjoint_batch(cache["h"], cache["kernel"], dc, plan)
        expect = whole_array_layer_norm_adjoint(dh, dy, cache["xhat"], cache["inv"], bp)
        for got, ref in zip((dx, grads["gamma"], grads["beta"]), expect):
            np.testing.assert_array_equal(got, ref)
        np.testing.assert_array_equal(dy, dy_before)
        for key, value in before.items():
            np.testing.assert_array_equal(cache[key], value)

    def test_rejects_shape_mismatch(self):
        cfg = tiny_config()
        state = init_model(cfg, np.random.default_rng(6))
        with pytest.raises(ValueError):
            block_forward(
                np.zeros((1, cfg.channels + 1, cfg.seq_len)),
                state.blocks[0],
                cfg.kernel_config(),
                make_plan(cfg.seq_len),
            )


class TestPooledBlock:
    """The last block pools its own output: mean_L(x) + Mix(mean_L(act))."""

    @staticmethod
    def setup(layout="row-major", batch=3):
        cfg = tiny_config(n_blocks=1)
        bp = init_model(cfg, np.random.default_rng(60)).blocks[0]
        bp.gamma = np.random.default_rng(61).uniform(0.5, 1.5, cfg.channels)
        bp.mix_b = np.random.default_rng(62).standard_normal(cfg.channels)
        x = np.random.default_rng(63).standard_normal((batch, cfg.seq_len, cfg.channels))
        x = x.transpose(0, 2, 1)  # channels-last, as a token embedding reaches a block
        if layout == "row-major":
            x = np.ascontiguousarray(x)
        return cfg, bp, x, make_plan(cfg.seq_len)

    @pytest.mark.parametrize("layout", ["row-major", "channels-last"])
    def test_output_is_the_mean_of_the_full_output(self, layout):
        cfg, bp, x, plan = self.setup(layout)
        kcfg = cfg.kernel_config()
        ref = block_forward(x, bp, kcfg, plan).mean(axis=2)
        pooled, _ = block_forward(x, bp, kcfg, plan, want_cache=True, pool=True)
        assert pooled.shape == ref.shape
        np.testing.assert_array_equal(block_forward(x, bp, kcfg, plan, pool=True), pooled)
        assert np.abs(pooled - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_cache_keeps_the_mean_activation_not_the_activation(self):
        cfg, bp, x, plan = self.setup()
        _, cache = block_forward(x, bp, cfg.kernel_config(), plan, want_cache=True, pool=True)
        assert "a" not in cache
        assert cache["abar"].shape == x.shape[:2]
        np.testing.assert_array_equal(cache["abar"], _act(cache["c"]).mean(axis=2))

    @pytest.mark.parametrize("batch", [1, 3])
    def test_backward_matches_the_full_block_fed_the_broadcast_gradient(self, batch):
        cfg, bp, x, plan = self.setup("channels-last", batch)
        kcfg = cfg.kernel_config()
        _, full = block_forward(x, bp, kcfg, plan, want_cache=True)
        _, pooled = block_forward(x, bp, kcfg, plan, want_cache=True, pool=True)
        dpooled = np.random.default_rng(64).standard_normal(x.shape[:2])
        dy = np.broadcast_to(dpooled[:, :, None] / cfg.seq_len, x.shape).copy()
        ref_dx, ref = block_backward(dy, full, bp, kcfg, plan)
        dx, grads = block_backward(dpooled, pooled, bp, kcfg, plan)
        assert grads.keys() == ref.keys()
        for name, got, expect in [("dx", dx, ref_dx), *((k, grads[k], ref[k]) for k in ref)]:
            assert got.shape == expect.shape, name
            assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max(), name

    def test_backward_rejects_a_gradient_that_does_not_fit_the_cache(self):
        cfg, bp, x, plan = self.setup()
        kcfg = cfg.kernel_config()
        _, full = block_forward(x, bp, kcfg, plan, want_cache=True)
        _, pooled = block_forward(x, bp, kcfg, plan, want_cache=True, pool=True)
        b, h, L = x.shape
        with pytest.raises(ValueError, match=rf"\({b}, {h}, {L}\).*pooled.*\({b}, {h}\)"):
            block_backward(np.zeros(x.shape), pooled, bp, kcfg, plan)
        with pytest.raises(ValueError, match=rf"\({b}, {h}\).*full.*\({b}, {h}, {L}\)"):
            block_backward(np.zeros((b, h)), full, bp, kcfg, plan)
        with pytest.raises(ValueError, match=rf"\({b + 1}, {h}\).*\({b}, {h}\)"):
            block_backward(np.zeros((b + 1, h)), pooled, bp, kcfg, plan)


class TestActivation:
    """GELU against the former pow-based formula, kept here as the reference."""

    C = np.sqrt(2.0 / np.pi)
    # a (B, H, L) = (3, 8, 1417) batch of 34008 values
    X = np.concatenate([
        [0.0, 1e-8, -1e-8, 1.0, -1.0, 50.0, -50.0],
        np.linspace(-60.0, 60.0, 24001),
        np.random.default_rng(30).standard_normal(10000) * 3.0,
    ]).reshape(3, 8, 1417)

    def reference(self, x):
        th = np.tanh(self.C * (x + 0.044715 * x**3))
        value = 0.5 * x * (1.0 + th)
        grad = 0.5 * (1.0 + th) + 0.5 * x * (1.0 - th**2) * self.C * (1.0 + 3 * 0.044715 * x**2)
        return value, grad

    def test_gelu_and_grad_match_pow_formula(self):
        # relative to max(|ref|, 1): where 1 + tanh saturates (x < -3) the
        # value is below 1e-4 and both formulas keep only absolute precision
        value, grad = self.reference(self.X)
        for got, ref in ((_act(self.X), value), (gelu_grad(self.X), grad)):
            err = np.abs(got - ref) / np.maximum(np.abs(ref), 1.0)
            assert err.max() <= 1e-14
            np.testing.assert_array_equal(got.ravel()[:7], ref.ravel()[:7])

    def test_gelu_leaves_input_untouched(self):
        x = self.X.copy()
        _act(x)
        _act_grad(x, np.ones_like(x))
        np.testing.assert_array_equal(x, self.X)

    @staticmethod
    def whole_array(x):
        """GELU and its derivative over the whole array at once, in the
        model's operation order."""
        th = x * x
        th *= x
        th *= 0.044715
        th += x
        th *= np.sqrt(2.0 / np.pi)
        th = np.tanh(th)
        value = (th + 1.0) * x * 0.5
        q = (1.0 - th * th) * x * np.sqrt(2.0 / np.pi) * (x * x * (3 * 0.044715) + 1.0)
        return value, (th + 1.0 + q) * 0.5

    def inputs(self):
        """Contiguous (B, H, L) and a strided [..., :L] view of a 2L buffer."""
        cube = self.X.ravel()[: 3 * 8 * 64].reshape(3, 8, 64)
        wide = np.concatenate([cube, -cube], axis=2)
        return {"3-D": cube, "view": wide[..., :64]}

    @pytest.mark.parametrize("kind", ["3-D", "view"])
    def test_per_sample_is_bit_identical_to_whole_array(self, kind):
        x = self.inputs()[kind]
        x_before = x.copy()
        value, grad = self.whole_array(x)
        np.testing.assert_array_equal(_act(x), value)
        np.testing.assert_array_equal(gelu_grad(x), grad)
        np.testing.assert_array_equal(x, x_before)

    @pytest.mark.parametrize("kind", ["3-D", "view"])
    def test_grad_is_multiplied_into_dy_in_place(self, kind):
        x = self.inputs()[kind]
        dy = np.random.default_rng(32).standard_normal(x.shape)
        expect = dy * self.whole_array(x)[1]
        assert _act_grad(x, dy) is dy
        np.testing.assert_array_equal(dy, expect)

    @pytest.mark.parametrize("kind", ["3-D", "view"])
    def test_grad_broadcasts_a_per_channel_dy_along_the_sequence(self, kind):
        x = self.inputs()[kind]
        dy = np.random.default_rng(33).standard_normal((*x.shape[:2], 1))
        dy_before = dy.copy()
        got = _act_grad(x, dy)
        np.testing.assert_array_equal(got, dy * self.whole_array(x)[1])
        np.testing.assert_array_equal(dy, dy_before)

    @pytest.mark.parametrize("kind", ["3-D", "view"])
    def test_pooled_gelu_is_the_mean_of_the_full_one(self, kind):
        x = self.inputs()[kind]
        np.testing.assert_array_equal(_act(x, pool=True), self.whole_array(x)[0].mean(axis=2))


class TestEmbedGrad:
    def test_matches_scatter_add(self):
        # the former implementation: np.add.at over every (sample, position)
        rng = np.random.default_rng(31)
        vocab, channels = 6, 5
        tokens = rng.integers(0, vocab - 1, size=(4, 50))  # row vocab - 1 never seen
        dx = rng.standard_normal((4, channels, 50))
        expect = np.zeros((vocab, channels))
        np.add.at(expect, tokens, dx.transpose(0, 2, 1))
        got = _embed_grad(tokens, dx, vocab)
        np.testing.assert_array_equal(got, expect)
        assert np.all(got[vocab - 1] == 0.0)
        assert np.all(np.bincount(tokens.ravel(), minlength=vocab)[: vocab - 1] > 1)


class TestClassifier:
    def test_untrained_loss_near_chance(self):
        cfg = tiny_config()
        state = init_model(cfg, np.random.default_rng(7))
        inputs, labels = gen_batch(RECALL, 256, np.random.default_rng(8))
        loss, _ = cross_entropy(classifier_forward(inputs, state, cfg), labels)
        assert abs(loss - np.log(RECALL.classes)) < 0.1 * np.log(RECALL.classes)

    def test_deterministic_forward(self):
        cfg = tiny_config()
        state = init_model(cfg, np.random.default_rng(9))
        inputs, _ = gen_batch(RECALL, 4, np.random.default_rng(10))
        a = classifier_forward(inputs, state, cfg)
        b = classifier_forward(inputs, state, cfg)
        np.testing.assert_array_equal(a, b)

    def test_batch_size_independence(self):
        cfg = tiny_config()
        state = init_model(cfg, np.random.default_rng(11))
        inputs, _ = gen_batch(RECALL, 8, np.random.default_rng(12))
        full = classifier_forward(inputs, state, cfg)
        solo = classifier_forward(inputs[3:4], state, cfg)
        np.testing.assert_allclose(solo[0], full[3], atol=1e-12)

    def test_rejects_out_of_range_tokens(self):
        cfg = tiny_config()
        state = init_model(cfg, np.random.default_rng(13))
        bad = np.full((1, cfg.seq_len), cfg.vocab_size, dtype=np.int64)
        with pytest.raises(ValueError):
            classifier_forward(bad, state, cfg)

    def test_regression_head(self):
        spec = TaskSpec(kind="adding_problem", seq_len=32)
        cfg = ModelConfig.for_task(spec, channels=8, n_blocks=1, scale_dim=4)
        state = init_model(cfg, np.random.default_rng(14))
        inputs, labels = gen_batch(spec, 8, np.random.default_rng(15))
        logits = classifier_forward(inputs, state, cfg)
        assert logits.shape == (8, 1)
        loss, dlogits = squared_error(logits, labels)
        assert np.isfinite(loss) and dlogits.shape == (8, 1)


ADDING = TaskSpec(kind="adding_problem", seq_len=32)


class TestSlicedForward:
    """A cache-less pass runs in FORWARD_CHUNK-sample slices and must give
    the cached (unsliced) pass's logits bit for bit."""

    @pytest.mark.parametrize(
        "spec, kwargs",
        [
            (RECALL, dict(channels=8, n_blocks=1, scale_dim=4)),  # channels-last embedding
            (ADDING, dict(channels=6, n_blocks=2, scale_dim=4)),
        ],
        ids=["tokens", "real-2-blocks"],
    )
    @pytest.mark.parametrize("batch", [1, 15, 16, 17, 33])
    def test_matches_the_cached_pass_bit_for_bit(self, spec, kwargs, batch):
        cfg = ModelConfig.for_task(spec, **kwargs)
        state = init_model(cfg, np.random.default_rng(40))
        inputs, _ = gen_batch(spec, batch, np.random.default_rng(41))
        plan = make_plan(cfg.seq_len)
        cached, _ = classifier_forward(inputs, state, cfg, plan, want_cache=True)
        np.testing.assert_array_equal(classifier_forward(inputs, state, cfg, plan), cached)

    def test_blocks_see_at_most_one_slice_without_a_cache(self, monkeypatch):
        cfg = tiny_config()
        state = init_model(cfg, np.random.default_rng(42))
        inputs, _ = gen_batch(RECALL, 40, np.random.default_rng(43))
        seen = []

        def spy(x, *args, **kwargs):
            seen.append(x.shape[0])
            return block_forward(x, *args, **kwargs)

        monkeypatch.setattr(model_mod, "block_forward", spy)
        classifier_forward(inputs, state, cfg)
        assert FORWARD_CHUNK == 16
        assert seen == [16, 16, 16, 16, 8, 8]  # two blocks per slice
        seen.clear()
        classifier_forward(inputs, state, cfg, want_cache=True)
        assert seen == [40, 40]


class TestKernelsAndWorkspacePerCall:
    """classifier_forward and a training step build each block's kernel once,
    and a cache-less pass shares one spectrum workspace among its slices."""

    @pytest.mark.parametrize("batch", [1, 40])
    def test_each_kernel_is_built_once_per_call_and_per_step(self, monkeypatch, batch):
        cfg = tiny_config()
        state = init_model(cfg, np.random.default_rng(65))
        inputs, labels = gen_batch(RECALL, batch, np.random.default_rng(66))
        plan = make_plan(cfg.seq_len)
        calls = []

        def spy(*args, **kwargs):
            calls.append(1)
            return materialize(*args, **kwargs)

        monkeypatch.setattr(model_mod, "materialize", spy)
        for run in (
            lambda: classifier_forward(inputs, state, cfg, plan),
            lambda: classifier_forward(inputs, state, cfg, plan, want_cache=True),
            lambda: _step_grads(inputs, labels, state, cfg, plan, False),
        ):
            calls.clear()
            run()
            assert len(calls) == cfg.n_blocks

    @pytest.mark.parametrize("batch", [16, 40])
    def test_cache_less_slices_share_one_workspace_per_call(self, monkeypatch, batch):
        cfg = tiny_config()
        state = init_model(cfg, np.random.default_rng(67))
        inputs, _ = gen_batch(RECALL, batch, np.random.default_rng(68))
        seen = []

        def spy(x, kernel, plan, work=None):
            seen.append(work)
            return depthwise_conv_batch(x, kernel, plan, work=work)

        monkeypatch.setattr(model_mod, "depthwise_conv_batch", spy)
        first = classifier_forward(inputs, state, cfg)
        assert len(seen) == cfg.n_blocks * -(-batch // FORWARD_CHUNK)
        if batch <= FORWARD_CHUNK:  # one slice: numpy allocates as before
            assert seen == [None] * cfg.n_blocks
            return
        assert isinstance(seen[0], dict) and all(w is seen[0] for w in seen)
        calls = len(seen)
        np.testing.assert_array_equal(classifier_forward(inputs, state, cfg), first)
        assert seen[calls] is not seen[0]  # the workspace is private to its call


class TestSlicedStep:
    """A training step runs forward, loss and backward over FORWARD_CHUNK-
    sample slices and must agree with the whole-batch primitives."""

    @staticmethod
    def whole_batch(inputs, labels, state, cfg, plan, regression):
        logits, cache = classifier_forward(inputs, state, cfg, plan, want_cache=True)
        loss, dlogits = (squared_error if regression else cross_entropy)(logits, labels)
        return loss, classifier_backward(dlogits, cache, inputs, state, cfg, plan)

    @pytest.mark.parametrize(
        "spec, kwargs",
        [
            (RECALL, dict(channels=8, n_blocks=1, scale_dim=4)),  # channels-last embedding
            (ADDING, dict(channels=6, n_blocks=2, scale_dim=4)),
        ],
        ids=["tokens", "real-2-blocks"],
    )
    @pytest.mark.parametrize("batch", [1, 16, 17, 33])
    def test_matches_the_whole_batch_primitives(self, spec, kwargs, batch):
        cfg = ModelConfig.for_task(spec, **kwargs)
        state = init_model(cfg, np.random.default_rng(44))
        inputs, labels = gen_batch(spec, batch, np.random.default_rng(45))
        plan = make_plan(cfg.seq_len)
        regression = spec.is_regression
        loss, grads = _step_grads(inputs, labels, state, cfg, plan, regression)
        ref_loss, ref_grads = self.whole_batch(inputs, labels, state, cfg, plan, regression)
        assert grads.keys() == ref_grads.keys() == {name for name, _ in _param_items(state)}
        if batch <= FORWARD_CHUNK:  # one slice
            assert loss == ref_loss
            for name, ref in ref_grads.items():
                np.testing.assert_array_equal(grads[name], ref, err_msg=name)
        else:  # the batch sums add slice by slice
            assert abs(loss - ref_loss) <= 1e-15 * abs(ref_loss)
            for name, ref in ref_grads.items():
                err = np.abs(grads[name] - ref).max()
                assert err <= 1e-13 * np.abs(ref).max(), name

    def test_blocks_see_one_slice_per_call_in_training(self, monkeypatch):
        cfg = tiny_config()
        fwd, bwd = {}, {}

        def fwd_spy(x, bp, *args, want_cache=False, **kwargs):
            if want_cache:  # the held-out evals run without a cache
                fwd.setdefault(id(bp), []).append(x.shape[0])
            return block_forward(x, bp, *args, want_cache=want_cache, **kwargs)

        def bwd_spy(dy, cache, bp, *args, **kwargs):
            bwd.setdefault(id(bp), []).append(dy.shape[0])
            return block_backward(dy, cache, bp, *args, **kwargs)

        monkeypatch.setattr(model_mod, "block_forward", fwd_spy)
        monkeypatch.setattr(model_mod, "block_backward", bwd_spy)
        train(RECALL, cfg, TrainConfig(steps=1, batch_size=40, eval_samples=4, seed=46))
        assert FORWARD_CHUNK == 16
        assert list(fwd.values()) == [[16, 16, 8]] * cfg.n_blocks
        assert list(bwd.values()) == [[16, 16, 8]] * cfg.n_blocks

    def test_peak_memory_is_well_under_the_whole_batch_step(self):
        # numpy reports its buffers to tracemalloc, so the peaks are exact
        spec = TaskSpec(kind="first_token_recall", seq_len=256, num_classes=4)
        cfg = ModelConfig.for_task(spec, channels=16, n_blocks=2)
        state = init_model(cfg, np.random.default_rng(47))
        inputs, labels = gen_batch(spec, 32, np.random.default_rng(48))
        plan = make_plan(cfg.seq_len)

        def peak(step):
            step(inputs, labels, state, cfg, plan, False)  # fills the memoized tables
            tracemalloc.start()
            try:
                step(inputs, labels, state, cfg, plan, False)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(_step_grads) <= 0.6 * peak(self.whole_batch)


class TestStepWorkspace:
    """train hands one spectrum workspace to every slice and step."""

    @staticmethod
    def buffers(work):
        return [buf for pair in work.values() for buf in pair]

    @pytest.mark.parametrize("batch", [32, 40])  # two full slices; 16 + 16 + 8
    def test_train_is_bit_identical_without_the_workspace(self, monkeypatch, batch):
        cfg = tiny_config()
        tcfg = TrainConfig(steps=3, batch_size=batch, eval_samples=8, eval_every=1, seed=49)
        works = []

        def keep(*args, work=None):
            works.append(work)
            return _step_grads(*args, work=work)

        def drop(*args, work=None):
            return _step_grads(*args)

        monkeypatch.setattr(model_mod, "_step_grads", keep)
        got = train(RECALL, cfg, tcfg)
        monkeypatch.setattr(model_mod, "_step_grads", drop)
        ref = train(RECALL, cfg, tcfg)
        assert got.log == ref.log
        for (name, value), (_, expect) in zip(_param_items(got.state), _param_items(ref.state)):
            np.testing.assert_array_equal(value, expect, err_msg=name)
        work = works[0]
        assert all(w is work for w in works) and len(works) == tcfg.steps
        assert sorted(key[0] for key in work) == sorted({FORWARD_CHUNK, batch % FORWARD_CHUNK} - {0})
        for _, value in _param_items(got.state):
            assert not any(np.shares_memory(value, buf) for buf in self.buffers(work))

    @pytest.mark.parametrize("spec", [RECALL, ADDING], ids=["tokens", "real"])
    def test_no_loss_gradient_or_logit_shares_the_workspace(self, spec):
        cfg = ModelConfig.for_task(spec, channels=6, n_blocks=2, scale_dim=4)
        state = init_model(cfg, np.random.default_rng(50))
        inputs, labels = gen_batch(spec, 20, np.random.default_rng(51))
        plan = make_plan(cfg.seq_len)
        work = {}
        loss, grads = _step_grads(inputs, labels, state, cfg, plan, spec.is_regression, work=work)
        assert isinstance(loss, float) and len(work) == 2
        logits, cache = classifier_forward(inputs, state, cfg, plan, want_cache=True)
        dlogits = np.ones_like(logits)
        more = classifier_backward(dlogits, cache, inputs, state, cfg, plan, work=work)
        returned = [*grads.values(), *more.values(), logits]
        for cached in cache["caches"]:
            returned += list(cached.values())
        assert len(work) == 3  # the whole-batch backward added its own pair
        for arr in returned:
            assert not any(np.shares_memory(arr, buf) for buf in self.buffers(work))

    def test_warm_workspace_step_allocates_no_spectrum(self, monkeypatch):
        spec = TaskSpec(kind="first_token_recall", seq_len=256, num_classes=4)
        cfg = ModelConfig.for_task(spec, channels=16, n_blocks=2)
        state = init_model(cfg, np.random.default_rng(47))
        inputs, labels = gen_batch(spec, 32, np.random.default_rng(48))
        plan = make_plan(cfg.seq_len)
        work = {}
        _step_grads(inputs, labels, state, cfg, plan, False, work=work)  # warms work
        before = {key: [id(buf) for buf in pair] for key, pair in work.items()}
        spectrum = min(buf.nbytes for buf in self.buffers(work))
        allocated = []  # bytes each transform allocated at its peak

        def watch(fft):
            def call(*args, **kwargs):
                start = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                out = fft(*args, **kwargs)
                allocated.append(tracemalloc.get_traced_memory()[1] - start)
                return out

            return call

        monkeypatch.setattr(np.fft, "rfft", watch(np.fft.rfft))
        monkeypatch.setattr(np.fft, "irfft", watch(np.fft.irfft))
        tracemalloc.start()
        try:
            _step_grads(inputs, labels, state, cfg, plan, False, work=work)
        finally:
            tracemalloc.stop()
        assert len(allocated) == 2 * cfg.n_blocks * 8  # two slices, 5 rfft + 3 irfft a block
        # the kernel transforms are (H, m/2+1), a sixteenth of a slice's spectrum
        assert max(allocated) < spectrum / 4
        assert {key: [id(buf) for buf in pair] for key, pair in work.items()} == before


class TestGradients:
    @pytest.mark.parametrize("mode", ["concat", "disentangled"])
    def test_full_model_matches_finite_differences(self, mode):
        spec = TaskSpec(kind="first_token_recall", seq_len=32, num_classes=3)
        cfg = ModelConfig.for_task(spec, channels=4, n_blocks=2, scale_dim=4, mode=mode)
        state = init_model(cfg, np.random.default_rng(16))
        plan = make_plan(cfg.seq_len)
        inputs, labels = gen_batch(spec, 4, np.random.default_rng(17))

        logits, cache = classifier_forward(inputs, state, cfg, plan, want_cache=True)
        _, dlogits = cross_entropy(logits, labels)
        grads = classifier_backward(dlogits, cache, inputs, state, cfg, plan)

        def loss_at():
            lg = classifier_forward(inputs, state, cfg, plan)
            return cross_entropy(lg, labels)[0]

        rng = np.random.default_rng(18)
        for name, arr in _param_items(state):
            flat = arr.reshape(-1)
            probes = rng.choice(flat.size, size=min(5, flat.size), replace=False)
            for idx in probes:
                orig = flat[idx]
                h = 1e-5 * max(1.0, abs(orig))
                flat[idx] = orig + h
                lp = loss_at()
                flat[idx] = orig - h
                lm = loss_at()
                flat[idx] = orig
                fd = (lp - lm) / (2 * h)
                an = grads[name].reshape(-1)[idx]
                denom = max(abs(an), 1e-6)
                assert abs(fd - an) / denom < 1e-4, f"{name}[{idx}]: fd={fd} an={an}"

    def test_one_descent_step_reduces_loss_many_seeds(self):
        from sgconv.model import _Optimizer

        for seed in range(20):
            cfg = tiny_config(n_blocks=1)
            state = init_model(cfg, np.random.default_rng(100 + seed))
            plan = make_plan(cfg.seq_len)
            inputs, labels = gen_batch(RECALL, 16, np.random.default_rng(200 + seed))
            logits, cache = classifier_forward(inputs, state, cfg, plan, want_cache=True)
            loss0, dlogits = cross_entropy(logits, labels)
            grads = classifier_backward(dlogits, cache, inputs, state, cfg, plan)
            items = _param_items(state)
            opt = _Optimizer(
                [a for _, a in items],
                TrainConfig(steps=1, lr=1e-4, optimizer="sgd"),
            )
            opt.step([grads[n] for n, _ in items])
            loss1, _ = cross_entropy(classifier_forward(inputs, state, cfg, plan), labels)
            assert loss1 < loss0, f"seed {seed}: {loss0} -> {loss1}"


class TestTraining:
    def test_reproducible_bit_for_bit(self):
        cfg = tiny_config(n_blocks=1)
        tcfg = TrainConfig(steps=8, batch_size=8, eval_every=4, eval_samples=32, seed=5)
        r1 = train(RECALL, cfg, tcfg)
        r2 = train(RECALL, cfg, tcfg)
        assert r1.log == r2.log
        for (n1, a1), (_, a2) in zip(_param_items(r1.state), _param_items(r2.state)):
            np.testing.assert_array_equal(a1, a2, err_msg=n1)

    def test_zero_learning_rate_is_flat(self):
        cfg = tiny_config(n_blocks=1)
        tcfg = TrainConfig(steps=6, batch_size=4, lr=0.0, eval_every=2, eval_samples=16, seed=6)
        result = train(RECALL, cfg, tcfg)
        losses = {entry["loss"] for entry in result.log}
        assert len(losses) == 1

    def test_log_schedule(self):
        cfg = tiny_config(n_blocks=1)
        tcfg = TrainConfig(steps=7, batch_size=4, eval_every=3, eval_samples=16, seed=7)
        result = train(RECALL, cfg, tcfg)
        assert [e["step"] for e in result.log] == [0, 3, 6, 7]

    def test_divergence_aborts_with_diagnostic(self):
        cfg = tiny_config(n_blocks=1)
        state = init_model(cfg, np.random.default_rng(19))
        state.embed[:] = np.nan
        tcfg = TrainConfig(steps=3, batch_size=4, eval_every=1, eval_samples=8, seed=8)
        with pytest.raises(TrainingDiverged, match="step 1"):
            train(RECALL, cfg, tcfg, state=state)

    def test_adam_learns_past_chance(self):
        spec = TaskSpec(kind="first_token_recall", seq_len=64, num_classes=4)
        cfg = ModelConfig.for_task(spec, channels=16, n_blocks=1, scale_dim=4)
        tcfg = TrainConfig(steps=200, batch_size=16, lr=1e-2, eval_every=200,
                           eval_samples=64, seed=9)
        result = train(spec, cfg, tcfg)
        assert result.log[-1]["loss"] < 0.5 * result.log[0]["loss"]
        assert result.log[-1]["acc"] > 0.5


class TestCheckpoint:
    def test_importing_the_package_loads_no_json(self):
        # json is imported where checkpoints are written and read, so that
        # `import sgconv` adds none of it to what numpy already loaded
        code = (
            "import sys, numpy\n"
            "before = {m for m in sys.modules if m.split('.')[0] in ('json', '_json')}\n"
            "import sgconv\n"
            "after = {m for m in sys.modules if m.split('.')[0] in ('json', '_json')}\n"
            "print(sorted(after - before))\n"
        )
        src = str(Path(model_mod.__file__).resolve().parent.parent)
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout == "[]\n"

    def test_roundtrip_reproduces_logits(self, tmp_path):
        cfg = tiny_config()
        tcfg = TrainConfig(steps=4, batch_size=8, eval_every=4, eval_samples=16, seed=10)
        result = train(RECALL, cfg, tcfg)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, result.state, cfg)
        state2, cfg2 = load_checkpoint(path)
        assert cfg2 == cfg
        inputs, _ = gen_batch(RECALL, 8, np.random.default_rng(20))
        np.testing.assert_array_equal(
            classifier_forward(inputs, result.state, cfg),
            classifier_forward(inputs, state2, cfg2),
        )

    @pytest.mark.parametrize("kwargs", [dict()], ids=["gaussian"])
    def test_roundtrip_keeps_every_tensor(self, tmp_path, kwargs):
        spec = TaskSpec(kind="adding_problem", seq_len=32)
        for cfg in (tiny_config(**kwargs), ModelConfig.for_task(spec, channels=4, **kwargs)):
            state = init_model(cfg, np.random.default_rng(25))
            path = tmp_path / "model.ckpt"
            save_checkpoint(path, state, cfg)
            state2, _ = load_checkpoint(path)
            for (name, a), (_, b) in zip(_param_items(state) + _buffer_items(state),
                                         _param_items(state2) + _buffer_items(state2)):
                np.testing.assert_array_equal(a, b, err_msg=name)

    def test_header_layout(self, tmp_path):
        cfg = tiny_config(n_blocks=1)
        state = init_model(cfg, np.random.default_rng(21))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, state, cfg)
        blob = path.read_bytes()
        assert blob[:4] == b"SGCV"
        version = int.from_bytes(blob[4:8], "little")
        assert version == 1
        jlen = int.from_bytes(blob[8:12], "little")
        header = json.loads(blob[12 : 12 + jlen])
        assert "model" in header and "tensors" in header
        total = sum(int(np.prod(t["shape"])) for t in header["tensors"])
        assert len(blob) == 12 + jlen + 8 * total

    def test_rejects_corrupt_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_rejects_truncated_file(self, tmp_path):
        cfg = tiny_config(n_blocks=1)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_model(cfg, np.random.default_rng(22)), cfg)
        blob = path.read_bytes()
        path.write_bytes(blob[:-12])
        with pytest.raises(ValueError, match=f"expected {len(blob)} bytes, got {len(blob) - 12}"):
            load_checkpoint(path)
        path.write_bytes(blob[:20])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)

    def test_rejects_trailing_bytes(self, tmp_path):
        cfg = tiny_config(n_blocks=1)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_model(cfg, np.random.default_rng(23)), cfg)
        blob = path.read_bytes()
        path.write_bytes(blob + b"\x00" * 8)
        with pytest.raises(ValueError, match=f"expected {len(blob)} bytes, got {len(blob) + 8}"):
            load_checkpoint(path)

    @staticmethod
    def edit_header(path, edit):
        """Rewrite a checkpoint's JSON header in place, keeping its tensor bytes."""
        blob = path.read_bytes()
        jlen = int.from_bytes(blob[8:12], "little")
        header = json.loads(blob[12 : 12 + jlen])
        edit(header)
        new = json.dumps(header, sort_keys=True).encode("utf-8")
        path.write_bytes(blob[:8] + len(new).to_bytes(4, "little") + new + blob[12 + jlen :])

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda h: h["tensors"][-1].update(name="head_bias"), "unexpected tensor 'head_bias'"),
            (lambda h: h["tensors"].pop(), "lacks tensor 'block0.kernel_norm'"),
            (lambda h: h["tensors"][0].update(shape=[8, 12]),
             r"tensor 'embed' has shape \(8, 12\), the config implies \(12, 8\)"),
            (lambda h: h["model"].update(classes=3), r"tensor 'head_w' has shape \(8, 4\)"),
            (lambda h: h["model"].update(bogus=1), "malformed checkpoint header"),
            # an older header's wiring fields, at values the model no longer has
            (lambda h: h["model"].update(activation="relu"),
             "checkpoint model has activation='relu'; only 'gelu' is supported"),
            (lambda h: h["model"].update(pooling="last"), "checkpoint model has pooling='last'"),
            (lambda h: h["model"].update(kernel_init="cosine"),
             "checkpoint model has kernel_init='cosine'"),
        ],
        ids=["renamed", "missing", "transposed", "config", "unknown-field", "relu", "last-pooling",
             "cosine-init"],
    )
    def test_rejects_tensors_the_config_does_not_imply(self, tmp_path, edit, message):
        cfg = tiny_config(n_blocks=1)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_model(cfg, np.random.default_rng(24)), cfg)
        self.edit_header(path, edit)
        with pytest.raises(ValueError, match=message):
            load_checkpoint(path)

    def test_older_header_with_the_fixed_wiring_loads_the_same_state(self, tmp_path):
        # v1 headers written before the wiring was fixed carry these three keys
        cfg = tiny_config(n_blocks=1)
        state = init_model(cfg, np.random.default_rng(26))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, state, cfg)
        self.edit_header(path, lambda h: h["model"].update(
            kernel_init="gaussian", activation="gelu", pooling="mean"))
        state2, cfg2 = load_checkpoint(path)
        assert cfg2 == cfg
        for (name, a), (_, b) in zip(_param_items(state) + _buffer_items(state),
                                     _param_items(state2) + _buffer_items(state2)):
            np.testing.assert_array_equal(a, b, err_msg=name)

    def test_resume_continues_training(self, tmp_path):
        cfg = tiny_config(n_blocks=1)
        tcfg = TrainConfig(steps=4, batch_size=8, eval_every=4, eval_samples=16, seed=11)
        first = train(RECALL, cfg, tcfg)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, first.state, cfg)
        state, cfg2 = load_checkpoint(path)
        resumed = train(RECALL, cfg2, tcfg, state=state)
        assert len(resumed.log) == 2  # step 0 record + final
        assert resumed.log[0]["loss"] == first.log[-1]["loss"]
