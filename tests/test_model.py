import json
import os
import subprocess
import sys
import threading
import time
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
ADDING = TaskSpec(kind="adding_problem", seq_len=32)


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

    @pytest.mark.parametrize(
        "spec, make, match",
        [
            (RECALL, lambda x: x.astype(float), r"token inputs must be of integer dtype, got float64"),
            (
                RECALL,
                lambda x: x[:, :, None],
                r"token inputs must have shape \(B, 64\), got \(4, 64, 1\)",
            ),
            (
                ADDING,
                lambda x: np.concatenate([x, x[:, :1]], axis=1),
                r"real inputs must have shape \(B, 2, 32\), got \(4, 3, 32\)",
            ),
            (ADDING, lambda x: x.astype(np.int64), r"real inputs must be of floating dtype, got int"),
        ],
        ids=["float-tokens", "tokens-with-a-channel-axis", "three-real-channels", "integer-reals"],
    )
    def test_rejects_inputs_the_model_does_not_take(self, spec, make, match):
        cfg = ModelConfig.for_task(spec, channels=8, n_blocks=1, scale_dim=4)
        state = init_model(cfg, np.random.default_rng(60))
        inputs, labels = gen_batch(spec, 4, np.random.default_rng(61))
        plan = make_plan(cfg.seq_len)
        bad = make(inputs)
        for run in (
            lambda: classifier_forward(bad, state, cfg, plan),
            lambda: classifier_forward(bad, state, cfg, plan, want_cache=True),
            lambda: _step_grads(bad, labels, state, cfg, plan, spec.is_regression),
        ):
            with pytest.raises(ValueError, match=match):
                run()

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
        monkeypatch.setattr(model_mod, "_WORKERS", 2)
        cfg = tiny_config()
        state = init_model(cfg, np.random.default_rng(42))
        inputs, _ = gen_batch(RECALL, 36, np.random.default_rng(43))
        seen = {}  # block -> thread -> slice sizes

        def spy(x, bp, *args, **kwargs):
            by_thread = seen.setdefault(id(bp), {})
            by_thread.setdefault(threading.get_ident(), []).append(x.shape[0])
            return block_forward(x, bp, *args, **kwargs)

        monkeypatch.setattr(model_mod, "block_forward", spy)
        classifier_forward(inputs, state, cfg)
        assert FORWARD_CHUNK == 8
        # worker 0, the caller, runs slices 0, 2, 4 (8 + 8 + 4) and worker 1
        # slices 1 and 3, each in order through both blocks
        main = threading.get_ident()
        for by_thread in seen.values():
            assert by_thread.pop(main) == [8, 8, 4]
            assert list(by_thread.values()) == [[8, 8]]
        seen.clear()
        classifier_forward(inputs, state, cfg, want_cache=True)
        assert [by_thread[main] for by_thread in seen.values()] == [[36], [36]]


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

    @pytest.mark.parametrize("batch", [8, 40])
    def test_cache_less_slices_share_one_workspace_per_worker(self, monkeypatch, batch):
        monkeypatch.setattr(model_mod, "_WORKERS", 2)
        cfg = tiny_config()
        state = init_model(cfg, np.random.default_rng(67))
        inputs, _ = gen_batch(RECALL, batch, np.random.default_rng(68))
        seen = []  # (thread, work) per conv

        def spy(x, kernel, plan, work=None):
            seen.append((threading.get_ident(), work))
            return depthwise_conv_batch(x, kernel, plan, work=work)

        monkeypatch.setattr(model_mod, "depthwise_conv_batch", spy)
        first = classifier_forward(inputs, state, cfg)
        assert len(seen) == cfg.n_blocks * -(-batch // FORWARD_CHUNK)
        if batch <= FORWARD_CHUNK:  # one slice: numpy allocates as before
            assert seen == [(threading.get_ident(), None)] * cfg.n_blocks
            return
        works = {thread: work for thread, work in seen}
        assert len(works) == 2 and all(isinstance(w, dict) for w in works.values())
        assert len({id(w) for w in works.values()}) == 2  # one workspace per worker
        assert all(work is works[thread] for thread, work in seen)
        calls = len(seen)
        np.testing.assert_array_equal(classifier_forward(inputs, state, cfg), first)
        again = {id(work) for _, work in seen[calls:]}
        assert again.isdisjoint(id(w) for w in works.values())  # private to the call


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
        monkeypatch.setattr(model_mod, "_WORKERS", 2)
        cfg = tiny_config()
        fwd, bwd = {}, {}  # block -> thread -> slice sizes

        def note(seen, bp, n):
            seen.setdefault(id(bp), {}).setdefault(threading.get_ident(), []).append(n)

        def fwd_spy(x, bp, *args, want_cache=False, **kwargs):
            if want_cache:  # the held-out evals run without a cache
                note(fwd, bp, x.shape[0])
            return block_forward(x, bp, *args, want_cache=want_cache, **kwargs)

        def bwd_spy(dy, cache, bp, *args, **kwargs):
            note(bwd, bp, dy.shape[0])
            return block_backward(dy, cache, bp, *args, **kwargs)

        monkeypatch.setattr(model_mod, "block_forward", fwd_spy)
        monkeypatch.setattr(model_mod, "block_backward", bwd_spy)
        train(RECALL, cfg, TrainConfig(steps=1, batch_size=36, eval_samples=4, seed=46))
        assert FORWARD_CHUNK == 8
        main = threading.get_ident()
        for seen in (fwd, bwd):
            assert len(seen) == cfg.n_blocks
            for by_thread in seen.values():
                assert by_thread.pop(main) == [8, 8, 4]  # slices 0, 2 and 4
                assert list(by_thread.values()) == [[8, 8]]  # slices 1 and 3

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

        assert model_mod._WORKERS * FORWARD_CHUNK <= 16  # samples in flight
        assert peak(_step_grads) <= 0.6 * peak(self.whole_batch)


class TestStepWorkspace:
    """train hands each worker one spectrum workspace for every step."""

    @staticmethod
    def shares(arrays, works):
        """Whether any of arrays shares memory with a buffer of works."""
        bufs = [buf for work in works for pair in work.values() for buf in pair]
        return any(np.shares_memory(arr, buf) for arr in arrays for buf in bufs)

    @pytest.mark.parametrize("batch", [32, 36])  # four full slices; 8 * 4 + 4
    def test_train_is_bit_identical_without_the_workspace(self, monkeypatch, batch):
        monkeypatch.setattr(model_mod, "_WORKERS", 2)
        cfg = tiny_config()
        tcfg = TrainConfig(steps=3, batch_size=batch, eval_samples=8, eval_every=1, seed=49)
        handed = []

        def keep(*args):
            handed.append(args[-1])
            return _step_grads(*args)

        def drop(*args):
            return _step_grads(*args[:-1])

        monkeypatch.setattr(model_mod, "_step_grads", keep)
        got = train(RECALL, cfg, tcfg)
        monkeypatch.setattr(model_mod, "_step_grads", drop)
        ref = train(RECALL, cfg, tcfg)
        assert got.log == ref.log
        for (name, value), (_, expect) in zip(_param_items(got.state), _param_items(ref.state)):
            np.testing.assert_array_equal(value, expect, err_msg=name)
        works = handed[0]
        assert all(w is works for w in handed) and len(handed) == tcfg.steps
        assert len(works) == 2 and works[0] is not works[1]
        sizes = [min(FORWARD_CHUNK, batch - i) for i in range(0, batch, FORWARD_CHUNK)]
        for w, work in enumerate(works):  # worker w ran slices w, w + 2, ...
            assert sorted(key[0] for key in work) == sorted(set(sizes[w::2]))
        assert not self.shares([value for _, value in _param_items(got.state)], works)

    @pytest.mark.parametrize("spec", [RECALL, ADDING], ids=["tokens", "real"])
    def test_no_loss_gradient_or_logit_shares_the_workspace(self, monkeypatch, spec):
        monkeypatch.setattr(model_mod, "_WORKERS", 2)
        cfg = ModelConfig.for_task(spec, channels=6, n_blocks=2, scale_dim=4)
        state = init_model(cfg, np.random.default_rng(50))
        inputs, labels = gen_batch(spec, 36, np.random.default_rng(51))
        plan = make_plan(cfg.seq_len)
        works = [{}, {}]
        loss, grads = _step_grads(inputs, labels, state, cfg, plan, spec.is_regression, works)
        # worker 0 ran 8-, 8- and 4-sample slices, worker 1 two 8-sample ones
        assert isinstance(loss, float) and [len(work) for work in works] == [2, 1]
        logits, cache = classifier_forward(inputs, state, cfg, plan, want_cache=True)
        dlogits = np.ones_like(logits)
        more = classifier_backward(dlogits, cache, inputs, state, cfg, plan, work=works[0])
        returned = [*grads.values(), *more.values(), logits]
        for cached in cache["caches"]:
            returned += list(cached.values())
        assert len(works[0]) == 3  # the whole-batch backward added its own pair
        assert not self.shares(returned, works)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_warm_workspace_step_allocates_no_spectrum(self, monkeypatch, workers):
        spec = TaskSpec(kind="first_token_recall", seq_len=256, num_classes=4)
        cfg = ModelConfig.for_task(spec, channels=16, n_blocks=2)
        state = init_model(cfg, np.random.default_rng(47))
        inputs, labels = gen_batch(spec, 32, np.random.default_rng(48))
        plan = make_plan(cfg.seq_len)
        works = [{} for _ in range(workers)]
        _step_grads(inputs, labels, state, cfg, plan, False, works)  # warms works
        before = [{key: [id(buf) for buf in pair] for key, pair in w.items()} for w in works]
        spectrum = min(buf.nbytes for w in works for pair in w.values() for buf in pair)
        calls = []  # (thread, input ndim, out target, bytes allocated at its peak)

        def watch(fft):
            def call(a, *args, out=None, **kwargs):
                start = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                result = fft(a, *args, out=out, **kwargs)
                grew = tracemalloc.get_traced_memory()[1] - start
                calls.append((threading.get_ident(), a.ndim, out, grew))
                return result

            return call

        monkeypatch.setattr(np.fft, "rfft", watch(np.fft.rfft))
        monkeypatch.setattr(np.fft, "irfft", watch(np.fft.irfft))
        tracemalloc.start()
        try:
            _step_grads(inputs, labels, state, cfg, plan, False, works)
        finally:
            tracemalloc.stop()
        assert len(calls) == 4 * cfg.n_blocks * 8  # four slices, 5 rfft + 3 irfft a block
        # the batch-sized transforms write into their own worker's workspace,
        # and only the (H, m/2+1) kernel transforms allocate
        owner = {}
        for thread, ndim, out, _ in calls:
            if ndim == 2:
                assert out is None
                continue
            mine = [i for i, w in enumerate(works) if self.shares([out], [w])]
            assert len(mine) == 1 and owner.setdefault(thread, mine[0]) == mine[0]
        assert sorted(owner.values()) == list(range(workers))
        if workers == 1:  # with one thread, each transform's peak is its own
            assert max(grew for *_, grew in calls) < spectrum / 4
        after = [{key: [id(buf) for buf in pair] for key, pair in w.items()} for w in works]
        assert after == before


class TestWorkers:
    """The slices of a pass or step run on _WORKERS threads, which change no
    bit, outlive no call and hand every failure back to the caller."""

    @staticmethod
    def count_threads(monkeypatch):
        started = []

        class Counted(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(model_mod.threading, "Thread", Counted)
        return started

    def test_train_and_logits_do_not_depend_on_the_worker_count(self, monkeypatch):
        cfg = tiny_config()
        tcfg = TrainConfig(steps=3, batch_size=52, eval_samples=44, eval_every=1, seed=52)
        inputs, _ = gen_batch(RECALL, 44, np.random.default_rng(53))
        started = self.count_threads(monkeypatch)
        runs = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(model_mod, "_WORKERS", workers)
            started.clear()
            result = train(RECALL, cfg, tcfg)
            # 3 steps of 7 slices and 4 held-out passes of 6
            assert len(started) == 3 * (min(workers, 7) - 1) + 4 * (min(workers, 6) - 1)
            runs.append((result, classifier_forward(inputs, result.state, cfg)))
        (ref, ref_logits), *others = runs
        for result, logits in others:
            assert result.log == ref.log
            for (name, value), (_, expect) in zip(
                _param_items(result.state), _param_items(ref.state)
            ):
                np.testing.assert_array_equal(value, expect, err_msg=name)
            np.testing.assert_array_equal(logits, ref_logits)
        cached, _ = classifier_forward(inputs, ref.state, cfg, want_cache=True)
        np.testing.assert_array_equal(ref_logits, cached)

    def test_more_workers_than_cores_with_rapid_switching(self, monkeypatch):
        cfg = ModelConfig.for_task(ADDING, channels=6, n_blocks=2, scale_dim=4)
        state = init_model(cfg, np.random.default_rng(62))
        plan = make_plan(cfg.seq_len)
        inputs, labels = gen_batch(ADDING, 12 * FORWARD_CHUNK - 3, np.random.default_rng(63))
        monkeypatch.setattr(model_mod, "_WORKERS", 1)
        ref_logits = classifier_forward(inputs, state, cfg, plan)
        ref_loss, ref_grads = _step_grads(inputs, labels, state, cfg, plan, True)
        monkeypatch.setattr(model_mod, "_WORKERS", 6)
        threads = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                logits = classifier_forward(inputs, state, cfg, plan)
                np.testing.assert_array_equal(logits, ref_logits)
                loss, grads = _step_grads(inputs, labels, state, cfg, plan, True)
                assert loss == ref_loss
                for name, ref in ref_grads.items():
                    np.testing.assert_array_equal(grads[name], ref, err_msg=name)
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == threads

    # slices 1 and 3 run on worker 1, 0, 2 and 4 on the caller; with two
    # failing slices the earlier one's error is raised
    @pytest.mark.parametrize("bad_slices", [(4,), (3,), (1, 4), (2, 3)])
    def test_a_failing_slice_raises_in_the_caller_after_every_worker_joined(
        self, monkeypatch, bad_slices
    ):
        monkeypatch.setattr(model_mod, "_WORKERS", 2)
        cfg = tiny_config()
        state = init_model(cfg, np.random.default_rng(54))
        plan = make_plan(cfg.seq_len)
        inputs, labels = gen_batch(RECALL, 40, np.random.default_rng(55))
        for s in bad_slices:  # an id past the vocab in even slices, -1 in odd
            inputs[s * FORWARD_CHUNK + 3, 5] = -1 if s % 2 else cfg.vocab_size
        match = "min=-1" if min(bad_slices) % 2 else f"max={cfg.vocab_size}"
        threads = threading.active_count()
        for run in (
            lambda: classifier_forward(inputs, state, cfg, plan),
            lambda: _step_grads(inputs, labels, state, cfg, plan, False, [{}, {}]),
        ):
            with pytest.raises(ValueError, match=f"token id out of range .*{match}"):
                run()
            assert threading.active_count() == threads

    def test_a_worker_error_keeps_its_type(self, monkeypatch):
        monkeypatch.setattr(model_mod, "_WORKERS", 2)
        cfg = tiny_config()
        state = init_model(cfg, np.random.default_rng(56))
        inputs, _ = gen_batch(RECALL, 32, np.random.default_rng(57))

        class Boom(Exception):
            pass

        def fail_off_the_caller(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                raise Boom("in worker 1")
            return _embed(*args, **kwargs)

        _embed = model_mod._embed_inputs
        monkeypatch.setattr(model_mod, "_embed_inputs", fail_off_the_caller)
        threads = threading.active_count()
        with pytest.raises(Boom, match="in worker 1"):
            classifier_forward(inputs, state, cfg)
        assert threading.active_count() == threads

    @pytest.mark.parametrize("batch", [0, 1, FORWARD_CHUNK])
    def test_a_single_slice_or_none_starts_no_thread(self, monkeypatch, batch):
        monkeypatch.setattr(model_mod, "_WORKERS", 2)
        started = self.count_threads(monkeypatch)
        cfg = tiny_config()
        state = init_model(cfg, np.random.default_rng(58))
        inputs, labels = gen_batch(RECALL, max(batch, 1), np.random.default_rng(59))
        inputs, labels = inputs[:batch], labels[:batch]
        assert classifier_forward(inputs, state, cfg).shape == (batch, cfg.classes)
        if batch:
            _step_grads(inputs, labels, state, cfg, make_plan(cfg.seq_len), False, [{}, {}])
        assert started == []

    @pytest.mark.parametrize("batch", [FORWARD_CHUNK + 1, 2 * FORWARD_CHUNK])
    def test_a_pass_of_up_to_two_slices_runs_as_one_on_the_caller(self, monkeypatch, batch):
        monkeypatch.setattr(model_mod, "_WORKERS", 2)
        started = self.count_threads(monkeypatch)
        cfg = tiny_config()
        state = init_model(cfg, np.random.default_rng(60))
        inputs, _ = gen_batch(RECALL, batch, np.random.default_rng(61))
        seen = []  # (slice size, kernel, work) per block

        def spy(x, bp, *args, kernel=None, work=None, **kwargs):
            seen.append((x.shape[0], kernel, work))
            return block_forward(x, bp, *args, kernel=kernel, work=work, **kwargs)

        monkeypatch.setattr(model_mod, "block_forward", spy)
        logits = classifier_forward(inputs, state, cfg)
        assert started == [] and seen == [(batch, None, None)] * cfg.n_blocks
        cached, _ = classifier_forward(inputs, state, cfg, want_cache=True)
        np.testing.assert_array_equal(logits, cached)

    def test_a_failure_on_the_caller_stops_the_other_workers_later_slices(self):
        failed = threading.Event()
        ran = []

        def fn(i, j, work):
            s = i // FORWARD_CHUNK
            ran.append(s)
            if s == 0:  # the caller, as a Ctrl-C would
                failed.set()
                raise KeyboardInterrupt
            failed.wait()  # slice 1, on worker 1, outlasts the failure
            time.sleep(0.1)
            return s

        threads = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            model_mod._run_slices(fn, 8 * FORWARD_CHUNK, [None, None])
        assert sorted(ran) == [0, 1]  # neither worker started another slice
        assert threading.active_count() == threads


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
    @staticmethod
    def loaded_by_import(families):
        """Modules of these top-level families that `import sgconv` adds to
        what numpy already loaded."""
        code = (
            "import sys, numpy\n"
            f"before = {{m for m in sys.modules if m.split('.')[0] in {families!r}}}\n"
            "import sgconv\n"
            f"after = {{m for m in sys.modules if m.split('.')[0] in {families!r}}}\n"
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
        return out.stdout

    def test_importing_the_package_loads_no_json(self):
        # json is imported where checkpoints are written and read, so that
        # `import sgconv` adds none of it to what numpy already loaded
        assert self.loaded_by_import(("json", "_json")) == "[]\n"

    def test_importing_the_package_loads_no_concurrent_futures(self):
        # the slice workers are plain threads: numpy has loaded threading,
        # while concurrent.futures would add milliseconds to start-up
        assert self.loaded_by_import(("concurrent", "threading")) == "[]\n"

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
