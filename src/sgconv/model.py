"""Minimal residual block around the global convolution, plus a toy
classifier and training loop.

The block is pre-normalized: y = x + Mix(act(DepthwiseConv(Norm(x)))), with
the convolution kernel rebuilt from the current parameters once per forward
pass or training step (its normalizer stays frozen at the init-time value).
The classifier reads out the mean of the last block's output over the
sequence, and Mix is affine, so the last block computes only that mean,
mean_L(x) + Mix(mean_L(act(...))), and its adjoint starts from the pooled
gradient.  All gradients are the hand-written adjoints from the grad
module; there is no autodiff anywhere.

Eval passes and training steps run over FORWARD_CHUNK-sample slices on up
to two worker threads, each worker with its own spectrum workspace; results
combine in slice order, so no bit depends on the scheduling.
"""

from __future__ import annotations

import os
import threading
from dataclasses import asdict, dataclass, fields

import numpy as np

from .conv import ConvPlan, depthwise_conv_batch, make_plan
from .grad import depthwise_conv_adjoint_batch, kernel_param_grad
from .ioutil import atomic_write_bytes
from .kernel import KernelConfig, ScaleParams, init_params, materialize
from .tasks import TaskSpec, gen_batch

LN_EPS = 1e-5
OPTIMIZERS = ("adam", "sgd")
# Adam's moment decays and denominator guard, and SGD's momentum
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
SGD_MOMENTUM = 0.9

# Regression predictions within this distance of the target count as correct
# in the logged accuracy.
REGRESSION_TOL = 0.1

CHECKPOINT_MAGIC = b"SGCV"
CHECKPOINT_VERSION = 1
# Model fields that older v1 headers carry, each at the one value the model
# now has; a header that holds another value names a model this code lacks.
_RETIRED_FIELDS = {"kernel_init": "gaussian", "activation": "gelu", "pooling": "mean"}


class TrainingDiverged(RuntimeError):
    """Raised when the training loss or a gradient becomes non-finite."""


@dataclass(frozen=True)
class ModelConfig:
    """Toy sequence classifier: embed/project, blocks, mean pool, affine
    head.  Every block applies GELU, and its kernel starts from a Gaussian
    init."""

    seq_len: int
    channels: int
    classes: int
    n_blocks: int = 2
    vocab_size: int | None = None  # token inputs
    in_channels: int | None = None  # real-valued inputs
    scale_dim: int = 8
    mode: str = "concat"
    decay_alpha: float = 0.5
    decay_t: float = 1.0

    def __post_init__(self):
        if (self.vocab_size is None) == (self.in_channels is None):
            raise ValueError("exactly one of vocab_size / in_channels must be set")
        if self.n_blocks < 1:
            raise ValueError("n_blocks must be >= 1")
        if self.classes < 1:
            raise ValueError("classes must be >= 1")
        self.kernel_config()  # rejects a bad seq_len, channels or kernel field now

    def kernel_config(self) -> KernelConfig:
        return KernelConfig(
            seq_len=self.seq_len,
            scale_dim=self.scale_dim,
            channels=self.channels,
            mode=self.mode,
            decay_alpha=self.decay_alpha,
            decay_t=self.decay_t,
        )

    @classmethod
    def for_task(cls, spec: TaskSpec, channels: int = 32, **kwargs) -> "ModelConfig":
        """Model wiring matched to a synthetic task's input/output contract."""
        if spec.is_regression:
            return cls(
                seq_len=spec.seq_len,
                channels=channels,
                classes=1,
                in_channels=2,
                **kwargs,
            )
        return cls(
            seq_len=spec.seq_len,
            channels=channels,
            classes=spec.classes,
            vocab_size=spec.vocab_size,
            **kwargs,
        )


@dataclass(frozen=True)
class TrainConfig:
    steps: int
    batch_size: int = 32
    lr: float = 1e-3
    optimizer: str = "adam"
    seed: int = 0
    eval_every: int = 50
    eval_samples: int = 256

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if not 0.0 <= self.lr < float("inf"):  # NaN fails too
            raise ValueError(f"lr must be >= 0 and finite, got {self.lr}")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {OPTIMIZERS}")
        if self.eval_every < 1 or self.batch_size < 1 or self.eval_samples < 1:
            raise ValueError("eval_every, batch_size, eval_samples must be >= 1")


# A block's trainable tensors in checkpoint and optimizer order; its other
# field, kernel_norm, is a fixed buffer.
_BLOCK_PARAMS = ("weights", "gamma", "beta", "mix_w", "mix_b")


@dataclass
class BlockParams:
    weights: np.ndarray  # (H, N, d) learnable kernel parameters
    kernel_norm: np.ndarray  # (H,) frozen normalizer, never trained
    gamma: np.ndarray  # (H,) layer-norm scale
    beta: np.ndarray  # (H,) layer-norm bias
    mix_w: np.ndarray  # (H, H) pointwise channel mixing
    mix_b: np.ndarray  # (H,)


@dataclass
class ModelState:
    blocks: list[BlockParams]
    head_w: np.ndarray  # (H, C)
    head_b: np.ndarray  # (C,)
    embed: np.ndarray | None = None  # (V, H) token table
    in_proj: np.ndarray | None = None  # (H, Cin) input projection
    in_bias: np.ndarray | None = None  # (H,)


def init_model(cfg: ModelConfig, rng: np.random.Generator) -> ModelState:
    """Initialize all parameters; deterministic given the generator."""
    H = cfg.channels
    kcfg = cfg.kernel_config()
    blocks = []
    for _ in range(cfg.n_blocks):
        params = init_params(kcfg, rng)
        kern = materialize(params, kcfg)
        mix_w = rng.normal(0.0, 1.0 / np.sqrt(H), size=(H, H))
        blocks.append(
            BlockParams(
                weights=params.weights,
                kernel_norm=kern.normalizer,
                gamma=np.ones(H),
                beta=np.zeros(H),
                mix_w=mix_w,
                mix_b=np.zeros(H),
            )
        )
    state = ModelState(
        blocks=blocks,
        head_w=rng.normal(0.0, 0.01 / np.sqrt(H), size=(H, cfg.classes)),
        head_b=np.zeros(cfg.classes),
    )
    if cfg.vocab_size is not None:
        state.embed = rng.normal(0.0, 1.0, size=(cfg.vocab_size, H))
    else:
        state.in_proj = rng.normal(0.0, 1.0 / np.sqrt(cfg.in_channels), size=(H, cfg.in_channels))
        state.in_bias = np.zeros(H)
    return state


# Tanh-approximation GELU: 0.5*x*(1 + tanh(c*(x + a*x^3))).  The cube is
# built by multiplication: x**3 goes through pow, some 40x slower per element.
GELU_C = np.sqrt(2.0 / np.pi)
GELU_A = 0.044715


def _gelu_tanh(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """tanh(c*(x + a*x^3)) written into out."""
    t = np.multiply(x, x, out=out)
    t *= x
    t *= GELU_A
    t += x
    t *= GELU_C
    return np.tanh(t, out=t)


# Elementwise chains (GELU, its derivative, layer norm and its adjoint) run
# one sample x[b] at a time, so each chain's temporaries stay in cache
# instead of streaming every (B, H, L) intermediate through DRAM.  The
# temporaries are a few (H, L) scratch tiles per call, reused by every
# sample.  Layer norm reduces over the channels, which a sample keeps whole,
# so the per-sample results are bit-identical to whole-batch ones.
def _act(x: np.ndarray, pool: bool = False) -> np.ndarray:
    """GELU of a (B, H, L) batch, as a new array laid out like x; with pool,
    only its (B, H) mean over L, each sample's GELU going through one
    scratch tile."""
    out = np.empty(x.shape[:2]) if pool else np.empty_like(x)
    tile = np.empty_like(x[0]) if pool else None
    for b in range(x.shape[0]):
        xt = x[b]
        o = _gelu_tanh(xt, tile if pool else out[b])
        o += 1.0
        o *= xt
        o *= 0.5
        if pool:
            o.mean(axis=1, out=out[b])
    return out


def _act_grad(x: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """dy times the GELU derivative at x, 0.5*(1 + th) + 0.5*x*(1 - th^2)*
    c*(1 + 3a*x^2) with th the GELU tanh, over a (B, H, L) batch.  A dy of
    x's shape is multiplied in place and returned; a (B, H, 1) dy is
    broadcast along L into a new array."""
    out = dy if dy.shape == x.shape else np.empty(x.shape)
    th = np.empty_like(x[0])
    q = np.empty_like(x[0])
    poly = np.empty_like(x[0])
    for b in range(x.shape[0]):
        xt = x[b]
        _gelu_tanh(xt, th)
        np.multiply(th, th, out=q)
        np.subtract(1.0, q, out=q)
        q *= xt
        q *= GELU_C
        np.multiply(xt, xt, out=poly)
        poly *= 3 * GELU_A
        poly += 1.0
        q *= poly
        th += 1.0
        th += q
        th *= 0.5
        np.multiply(dy[b], th, out=out[b])
    return out


def _layer_norm(
    x: np.ndarray, bp: BlockParams, xhat: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """Layer norm of a (B, H, L) batch over its channels, sample by sample:
    returns (h, inv) and writes the normalized input into xhat if given.

    The channel sums run over xc and sq, scratch tiles in x's own memory
    layout, so they add in the same order as over the whole batch; xhat and h
    are row-major, so the FFTs read h contiguously.  The tiles are freed on
    return, before the conv allocates its spectra.
    """
    h = np.empty(x.shape)
    inv = np.empty((x.shape[0], 1, x.shape[2]))
    gamma = bp.gamma[:, None]
    beta = bp.beta[:, None]
    xc = np.empty_like(x[0])
    sq = np.empty_like(x[0])
    for b in range(x.shape[0]):
        xt = x[b]
        np.subtract(xt, xt.mean(axis=0), out=xc)
        var = np.multiply(xc, xc, out=sq).mean(axis=0)
        var += LN_EPS
        it = np.divide(1.0, np.sqrt(var, out=var), out=inv[b])
        xh = np.multiply(xc, it, out=xc if xhat is None else xhat[b])
        ht = np.multiply(gamma, xh, out=h[b])
        ht += beta
    return h, inv


def _kernel(bp: BlockParams, kcfg: KernelConfig) -> np.ndarray:
    """The block's (H, L) kernel, rebuilt from its current parameters under
    its frozen normalizer."""
    return materialize(ScaleParams(weights=bp.weights), kcfg, normalizer=bp.kernel_norm).values


def block_forward(
    x: np.ndarray,
    bp: BlockParams,
    kcfg: KernelConfig,
    plan: ConvPlan,
    want_cache: bool = False,
    work: dict | None = None,
    kernel: np.ndarray | None = None,
    pool: bool = False,
):
    """One residual block: x + Mix(act(Conv(Norm(x)))).

    The kernel is rebuilt from the block's current parameters with its
    frozen normalizer (or taken as given, already built so), so learning
    reshapes the kernel while its init-time scale convention stays fixed.
    The conv runs in work's buffers, which nothing returned shares.

    With pool the block returns only its output's (B, H) mean over L,
    mean_L(x) + Mix(mean_L(act)): the mix and the residual then run on
    pooled rows, and the cache keeps abar, the activation's mean, in place
    of the activation.
    """
    if x.ndim != 3 or x.shape[1] != kcfg.channels or x.shape[2] != kcfg.seq_len:
        raise ValueError(
            f"input must have shape (B, {kcfg.channels}, {kcfg.seq_len}), got {x.shape}"
        )
    xhat = np.empty(x.shape) if want_cache else None
    h, inv = _layer_norm(x, bp, xhat)
    if kernel is None:
        kernel = _kernel(bp, kcfg)
    c = depthwise_conv_batch(h, kernel, plan, work=work)
    if want_cache:
        # c is a view into the conv's 2L-long buffer, which the next conv
        # with the same work overwrites; the cache keeps a compact copy.
        c = c.copy()
    if pool:
        # a matvec per sample, so a pooled row rounds alike in any batch
        a = _act(c, pool=True)
        y = np.matmul(bp.mix_w, a[:, :, None])[:, :, 0]
        y += bp.mix_b[None, :]
        for b in range(x.shape[0]):
            y[b] += x[b].mean(axis=1)
    else:
        a = _act(c)
        y = np.matmul(bp.mix_w, a)
        y += bp.mix_b[None, :, None]
        y += x
    if not want_cache:
        return y
    cache = {"xhat": xhat, "inv": inv, "h": h, "kernel": kernel, "c": c}
    cache["abar" if pool else "a"] = a
    return y, cache


def block_backward(
    dy: np.ndarray,
    cache: dict,
    bp: BlockParams,
    kcfg: KernelConfig,
    plan: ConvPlan,
    work: dict | None = None,
):
    """Adjoint of block_forward; returns (dx, grads dict).

    dy is (B, H) for a pooled cache and (B, H, L) otherwise; a pooled
    block's dy reaches every position as dy / L.  The conv adjoint runs in
    work's buffers; its dh, a view into them, is consumed here, and nothing
    returned shares them.
    """
    c = cache["c"]
    pooled = "abar" in cache
    want = c.shape[:2] if pooled else c.shape
    if dy.shape != want:
        kind = "pooled" if pooled else "full"
        raise ValueError(f"dy has shape {dy.shape}, but the {kind} cache needs {want}")
    if pooled:
        L = c.shape[2]
        dmix_w = dy.T @ cache["abar"]
        dmix_b = dy.sum(axis=0)
        dres = (dy / L)[:, :, None]  # the residual's share of each position
        dc = _act_grad(c, (dy @ bp.mix_w)[:, :, None] / L)
    else:
        dmix_w = np.matmul(dy, cache["a"].transpose(0, 2, 1)).sum(axis=0)
        dmix_b = dy.sum(axis=(0, 2))
        dres = dy
        dc = _act_grad(c, np.matmul(bp.mix_w.T, dy))
    dh, dkernel = depthwise_conv_adjoint_batch(cache["h"], cache["kernel"], dc, plan, work=work)
    dweights = kernel_param_grad(dkernel, ScaleParams(weights=bp.weights), kcfg, bp.kernel_norm)
    xhat, inv = cache["xhat"], cache["inv"]
    gamma = bp.gamma[:, None]
    dgamma = np.zeros(kcfg.channels)
    dbeta = np.zeros(kcfg.channels)
    dx = np.empty(c.shape)
    prod = np.empty_like(xhat[0])  # row-major, like the products it replaces
    dxhat = np.empty_like(xhat[0])
    for b in range(dy.shape[0]):
        dht, xt = dh[b], xhat[b]
        dgamma += np.multiply(dht, xt, out=prod).sum(axis=1)
        dbeta += dht.sum(axis=1)
        np.multiply(dht, gamma, out=dxhat)
        dxt = np.subtract(dxhat, dxhat.mean(axis=0), out=dx[b])
        dxhat *= xt  # now dxhat * xhat
        dxt -= np.multiply(xt, dxhat.mean(axis=0), out=prod)
        dxt *= inv[b]
        dxt += dres[b]
    return dx, dict(zip(_BLOCK_PARAMS, (dweights, dgamma, dbeta, dmix_w, dmix_b)))


# Cache-less passes (eval, serving) of more than twice this many samples run
# embed, blocks and pooling over slices of at most this many samples, so that
# a slice's activations and spectra stay in cache instead of streaming the
# whole batch through DRAM; smaller ones run as one slice.  Every one
# of those steps works sample by sample, so slicing changes no bit; the head
# runs once over all pooled rows, since a GEMM of a few rows rounds
# differently from a batched one.  The training step (_step_grads) runs
# forward and backward over slices of the same size.
FORWARD_CHUNK = 8
# The slices of a pass or step run on at most this many workers: two, the
# count that was measured, or one on a single core, so that no more than
# 16 samples are in flight whatever the core count.
_WORKERS = min(2, len(os.sched_getaffinity(0)))


def _run_slices(fn, n: int, works: list) -> list:
    """[fn(i, j, work) for each FORWARD_CHUNK-sample slice [i, j) of n
    samples], in slice order.

    With W = min(len(works), number of slices) workers, worker w runs slices
    w, w + W, ... in order, in works[w].  The caller is worker 0 and every
    other worker is a thread of its own, so a single slice starts no thread.
    Every thread is joined before return.  Once a slice fails, no worker
    starts a later slice, and the failure of the earliest failing slice is
    raised as it is.
    """
    bounds = [(i, min(i + FORWARD_CHUNK, n)) for i in range(0, n, FORWARD_CHUNK)]
    if not bounds:
        return []
    count = min(len(works), len(bounds))
    results = [None] * len(bounds)
    errors = []  # (slice, exception) per failed slice; appends are atomic

    def worker(w: int) -> None:
        for s in range(w, len(bounds), count):
            if any(f < s for f, _ in errors):  # an earlier slice failed
                return
            try:
                results[s] = fn(*bounds[s], works[w])
            except BaseException as exc:  # re-raised in the caller
                errors.append((s, exc))
                return

    threads = []
    try:
        for w in range(1, count):
            thread = threading.Thread(target=worker, args=(w,))
            thread.start()
            threads.append(thread)
        worker(0)
    finally:
        for t in threads:
            t.join()
    if errors:
        raise min(errors, key=lambda e: e[0])[1]
    return results


def _check_inputs(inputs, cfg: ModelConfig) -> np.ndarray:
    """inputs as an array, once it is what cfg's model takes: integer
    (B, seq_len) tokens or floating-point (B, in_channels, seq_len) values."""
    x = np.asarray(inputs)
    if cfg.vocab_size is not None:
        kind, dtype, shape = "token", np.integer, (cfg.seq_len,)
    else:
        kind, dtype, shape = "real", np.floating, (cfg.in_channels, cfg.seq_len)
    if not np.issubdtype(x.dtype, dtype):
        raise ValueError(f"{kind} inputs must be of {dtype.__name__} dtype, got {x.dtype}")
    if x.shape[1:] != shape:
        want = ", ".join(map(str, ("B", *shape)))
        raise ValueError(f"{kind} inputs must have shape ({want}), got {x.shape}")
    return x


def _embed_inputs(inputs: np.ndarray, state: ModelState, cfg: ModelConfig) -> np.ndarray:
    if cfg.vocab_size is not None:
        tokens = np.asarray(inputs)
        if tokens.min() < 0 or tokens.max() >= cfg.vocab_size:
            raise ValueError(
                f"token id out of range [0, {cfg.vocab_size}): "
                f"min={tokens.min()}, max={tokens.max()}"
            )
        return state.embed[tokens].transpose(0, 2, 1)
    x = np.matmul(state.in_proj, np.asarray(inputs, dtype=np.float64))
    x += state.in_bias[None, :, None]
    return x


def _embed_grad(tokens: np.ndarray, dx: np.ndarray, vocab_size: int) -> np.ndarray:
    """(V, H) gradient of the token table: each channel of dx summed by token.

    One bincount per channel; its cost grows with B*L*H, not with the vocab,
    and it adds in the same order as a scatter-add over (sample, position).
    """
    flat = np.asarray(tokens).ravel()
    out = np.empty((vocab_size, dx.shape[1]))
    for h in range(dx.shape[1]):
        out[:, h] = np.bincount(flat, weights=dx[:, h, :].ravel(), minlength=vocab_size)
    return out


def _features(
    inputs: np.ndarray,
    state: ModelState,
    cfg: ModelConfig,
    plan: ConvPlan,
    kernels: list[np.ndarray] | None = None,
    caches: list | None = None,
    work: dict | None = None,
) -> np.ndarray:
    """Embed or project, run the block stack and mean-pool: the (B, H)
    pooled rows.  The blocks convolve with the given kernels, one per block,
    or else build their own, and the last block pools its own output.  Each
    block's cache is appended to caches when it is a list; the convs run in
    work's buffers."""
    kcfg = cfg.kernel_config()
    x = _embed_inputs(inputs, state, cfg)
    last = len(state.blocks) - 1
    for i, bp in enumerate(state.blocks):
        kwargs = dict(work=work, kernel=None if kernels is None else kernels[i], pool=i == last)
        if caches is None:
            x = block_forward(x, bp, kcfg, plan, **kwargs)
        else:
            x, cache = block_forward(x, bp, kcfg, plan, want_cache=True, **kwargs)
            caches.append(cache)
    return x


def classifier_forward(
    inputs: np.ndarray,
    state: ModelState,
    cfg: ModelConfig,
    plan: ConvPlan | None = None,
    want_cache: bool = False,
):
    """Embed or project, run the block stack, pool, and read out logits.

    inputs must be what the model takes (_check_inputs), and hold at least
    one sample for a cached pass, else ValueError.  Each block's kernel is
    built once per call.  Without a cache, a batch of more than
    2 * FORWARD_CHUNK samples runs up to the pooling in slices of at most
    FORWARD_CHUNK samples on _run_slices' workers, each with a spectrum
    workspace private to the call, and the head then reads out all of them
    at once; the logits are bit-identical to an unsliced pass.
    """
    if plan is None:
        plan = make_plan(cfg.seq_len)
    inputs = _check_inputs(inputs, cfg)
    if want_cache:
        if not len(inputs):  # a cache feeds a backward, which needs a sample
            raise ValueError("a cached forward needs at least one sample, got an empty batch")
        caches = []
        pooled = _features(inputs, state, cfg, plan, caches=caches)
    elif len(inputs) <= 2 * FORWARD_CHUNK:
        # Up to the samples two workers hold (a request, a small eval pass):
        # one slice on the caller, which shares kernel and buffers with
        # nothing, so it builds each kernel inside its block and lets numpy
        # allocate the transforms, holding neither past its use.
        empty = np.empty((0, cfg.channels))
        pooled = _features(inputs, state, cfg, plan) if len(inputs) else empty
    else:
        # The slices share each block's kernel; each worker has a spectrum
        # workspace.
        kernels = [_kernel(bp, cfg.kernel_config()) for bp in state.blocks]
        works = [{} for _ in range(_WORKERS)]
        pooled = np.empty((len(inputs), cfg.channels))

        def run(i, j, work):  # each slice writes its own rows
            pooled[i:j] = _features(inputs[i:j], state, cfg, plan, kernels, work=work)

        _run_slices(run, len(inputs), works)
    logits = pooled @ state.head_w + state.head_b[None, :]
    if not want_cache:
        return logits
    return logits, {"caches": caches, "pooled": pooled}


def classifier_backward(
    dlogits: np.ndarray,
    fwd_cache: dict,
    inputs: np.ndarray,
    state: ModelState,
    cfg: ModelConfig,
    plan: ConvPlan,
    work: dict | None = None,
) -> dict:
    """Gradients of every trainable tensor, keyed like _param_items; the
    conv adjoints run in work's buffers, which no gradient shares."""
    kcfg = cfg.kernel_config()
    grads = {}
    pooled = fwd_cache["pooled"]
    grads["head_w"] = pooled.T @ dlogits
    grads["head_b"] = dlogits.sum(axis=0)
    dx = dlogits @ state.head_w.T  # the last block's cache is pooled
    for i in reversed(range(len(state.blocks))):
        dx, bg = block_backward(dx, fwd_cache["caches"][i], state.blocks[i], kcfg, plan, work=work)
        for key, val in bg.items():
            grads[f"block{i}.{key}"] = val
    if cfg.vocab_size is not None:
        grads["embed"] = _embed_grad(inputs, dx, cfg.vocab_size)
    else:
        x = np.asarray(inputs, dtype=np.float64)
        grads["in_proj"] = np.matmul(dx, x.transpose(0, 2, 1)).sum(axis=0)
        grads["in_bias"] = dx.sum(axis=(0, 2))
    return grads


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy and its gradient w.r.t. the logits."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - logz
    n = logits.shape[0]
    loss = -logp[np.arange(n), labels].mean()
    dlogits = np.exp(logp)
    dlogits[np.arange(n), labels] -= 1.0
    return float(loss), dlogits / n


def squared_error(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error on a single-output head, and its logit gradient."""
    pred = logits[:, 0]
    err = pred - targets
    loss = float((err**2).mean())
    dlogits = np.zeros_like(logits)
    dlogits[:, 0] = 2.0 * err / err.shape[0]
    return loss, dlogits


def _step_grads(
    inputs: np.ndarray,
    labels: np.ndarray,
    state: ModelState,
    cfg: ModelConfig,
    plan: ConvPlan,
    regression: bool,
    works: list[dict] | None = None,
) -> tuple[float, dict]:
    """Mean loss of a training batch of at least one sample and its
    gradients, keyed like _param_items.

    Forward, loss and backward run over slices of at most FORWARD_CHUNK
    samples: gradient accumulation over micro-batches, the slices spread
    over _run_slices' workers.  Each slice's logit gradient is scaled by its
    share of the batch, and the slices' losses and gradients are added in
    slice order once all have run, so no bit depends on the worker count.
    A worker releases a slice's block caches before its next slice's
    forward, so the step holds one slice's caches per worker.  A batch of
    one slice gives classifier_forward(want_cache=True), the loss and
    classifier_backward's results bit for bit; a larger one agrees with them
    to roundoff, since its batch sums add in another order.  Each block's
    kernel is built once per step.  Worker w's convs and adjoints write
    their large transforms into works[w]'s buffers, one pair per slice
    shape, which its later slices and every later step handed the same
    works reuse; without works numpy allocates them.
    """
    inputs = _check_inputs(inputs, cfg)
    n = len(inputs)
    if not n:  # the mean loss of no samples is undefined
        raise ValueError("a training step needs at least one sample, got an empty batch")
    loss_fn = squared_error if regression else cross_entropy
    kernels = [_kernel(bp, cfg.kernel_config()) for bp in state.blocks]

    def run(i, j, work):
        chunk = inputs[i:j]
        share = (j - i) / n
        caches = []
        pooled = _features(chunk, state, cfg, plan, kernels, caches, work=work)
        logits = pooled @ state.head_w + state.head_b[None, :]
        part, dlogits = loss_fn(logits, labels[i:j])
        dlogits *= share
        cache = {"caches": caches, "pooled": pooled}
        grads = classifier_backward(dlogits, cache, chunk, state, cfg, plan, work=work)
        return part * share, grads

    parts = _run_slices(run, n, [None] * _WORKERS if works is None else works)
    loss, grads = parts[0]
    for part, more in parts[1:]:
        loss += part
        for key, val in more.items():
            grads[key] += val
    return loss, grads


def _param_items(state: ModelState) -> list[tuple[str, np.ndarray]]:
    """Trainable tensors by name, in checkpoint and optimizer order: the
    input tensors, each block's _BLOCK_PARAMS, then the head."""
    inputs = [(n, getattr(state, n)) for n in ("embed", "in_proj", "in_bias")]
    items = [(n, a) for n, a in inputs if a is not None]
    for i, bp in enumerate(state.blocks):
        items += [(f"block{i}.{n}", getattr(bp, n)) for n in _BLOCK_PARAMS]
    return items + [("head_w", state.head_w), ("head_b", state.head_b)]


def _buffer_items(state: ModelState) -> list[tuple[str, np.ndarray]]:
    """Fixed (non-trainable) tensors needed to rebuild the model."""
    return [(f"block{i}.kernel_norm", bp.kernel_norm) for i, bp in enumerate(state.blocks)]


class _Optimizer:
    def __init__(self, params: list[np.ndarray], cfg: TrainConfig):
        self.cfg = cfg
        self.params = params
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        if cfg.optimizer == "adam":
            self.v = [np.zeros_like(p) for p in params]

    def step(self, grads: list[np.ndarray]) -> None:
        c = self.cfg
        self.t += 1
        if c.optimizer == "adam":
            bc1 = 1.0 - ADAM_BETA1**self.t
            bc2 = 1.0 - ADAM_BETA2**self.t
            for p, g, m, v in zip(self.params, grads, self.m, self.v):
                m *= ADAM_BETA1
                m += (1.0 - ADAM_BETA1) * g
                v *= ADAM_BETA2
                v += (1.0 - ADAM_BETA2) * g**2
                p -= c.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        else:
            for p, g, m in zip(self.params, grads, self.m):
                m *= SGD_MOMENTUM
                m += g
                p -= c.lr * m


def _evaluate(
    state: ModelState,
    cfg: ModelConfig,
    plan: ConvPlan,
    inputs: np.ndarray,
    labels: np.ndarray,
    regression: bool,
) -> tuple[float, float]:
    logits = classifier_forward(inputs, state, cfg, plan)
    if regression:
        loss, _ = squared_error(logits, labels)
        acc = float((np.abs(logits[:, 0] - labels) <= REGRESSION_TOL).mean())
    else:
        loss, _ = cross_entropy(logits, labels)
        acc = float((logits.argmax(axis=1) == labels).mean())
    return loss, acc


@dataclass
class TrainResult:
    log: list[dict]
    state: ModelState
    model_cfg: ModelConfig
    train_cfg: TrainConfig


def train(
    task: TaskSpec,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    state: ModelState | None = None,
) -> TrainResult:
    """Deterministic training run; the log holds eval loss/accuracy.

    The log records the fixed held-out evaluation set's loss and accuracy at
    step 0, every eval_every steps, and at the final step, so a zero
    learning rate yields an exactly flat curve.  Passing a state resumes
    from existing parameters (e.g. a loaded checkpoint).  A non-finite
    training loss or gradient aborts with TrainingDiverged, which names the
    step and, for a gradient, the tensor.
    """
    seqs = np.random.SeedSequence(train_cfg.seed).spawn(3)
    init_rng = np.random.default_rng(seqs[0])
    data_rng = np.random.default_rng(seqs[1])
    eval_rng = np.random.default_rng(seqs[2])

    if state is None:
        state = init_model(model_cfg, init_rng)
    plan = make_plan(model_cfg.seq_len)
    eval_inputs, eval_labels = gen_batch(task, train_cfg.eval_samples, eval_rng)
    regression = task.is_regression

    params = [arr for _, arr in _param_items(state)]
    names = [name for name, _ in _param_items(state)]
    opt = _Optimizer(params, train_cfg)

    log = []
    hyper = f"(lr={train_cfg.lr}, optimizer={train_cfg.optimizer})"

    def record(step: int) -> None:
        loss, acc = _evaluate(state, model_cfg, plan, eval_inputs, eval_labels, regression)
        log.append({"step": step, "loss": loss, "acc": acc})

    record(0)
    works = [{} for _ in range(_WORKERS)]  # each worker's spectra, kept across steps
    for step in range(1, train_cfg.steps + 1):
        inputs, labels = gen_batch(task, train_cfg.batch_size, data_rng)
        loss, grads = _step_grads(inputs, labels, state, model_cfg, plan, regression, works)
        if not np.isfinite(loss):
            raise TrainingDiverged(f"non-finite training loss {loss} at step {step} {hyper}")
        for name in names:
            if not np.all(np.isfinite(grads[name])):
                raise TrainingDiverged(f"non-finite gradient in {name} at step {step} {hyper}")
        opt.step([grads[name] for name in names])
        if step % train_cfg.eval_every == 0 or step == train_cfg.steps:
            record(step)
    return TrainResult(log=log, state=state, model_cfg=model_cfg, train_cfg=train_cfg)


def ablation_config(task: TaskSpec, t: float, d: int, channels: int) -> ModelConfig:
    """The model of one ablation grid point: one block, disentangled mode,
    decay exponent t and scale dim d."""
    return ModelConfig.for_task(
        task,
        channels=channels,
        n_blocks=1,
        scale_dim=int(d),
        mode="disentangled",
        decay_t=float(t),
    )


def ablate_decay(
    task: TaskSpec,
    grid: list[tuple[float, int]],
    train_cfg: TrainConfig,
    channels: int = 32,
    seeds: tuple[int, ...] = (0,),
) -> list[dict]:
    """Train one ablation_config model per (decay exponent t, scale dim d)
    grid point.

    All grid points share the same seeds so rows are comparable; returns one
    row {"t", "d", "accuracy", "seed"} per (grid point, seed).
    """
    if not grid:
        raise ValueError("grid must contain at least one (t, d) pair")
    rows = []
    for seed in seeds:
        for t, d in grid:
            cfg = ablation_config(task, t, d, channels)
            result = train(task, cfg, TrainConfig(**{**asdict(train_cfg), "seed": seed}))
            rows.append(
                {
                    "t": float(t),
                    "d": int(d),
                    "accuracy": result.log[-1]["acc"],
                    "seed": int(seed),
                }
            )
    return rows


def save_checkpoint(path, state: ModelState, model_cfg: ModelConfig) -> None:
    """Binary checkpoint: magic, version, length-prefixed JSON header, then
    every tensor as little-endian float64 in declaration order."""
    import json  # here, not at the top: `import sgconv` loads no json

    tensors = _param_items(state) + _buffer_items(state)
    header = {
        "model": asdict(model_cfg),
        "tensors": [{"name": n, "shape": list(a.shape)} for n, a in tensors],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    parts = [
        CHECKPOINT_MAGIC,
        np.uint32(CHECKPOINT_VERSION).astype("<u4").tobytes(),
        np.uint32(len(blob)).astype("<u4").tobytes(),
        blob,
    ]
    for _, arr in tensors:
        parts.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    atomic_write_bytes(path, b"".join(parts))


def _tensor_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every tensor a checkpoint of cfg holds.

    Worked out from the config alone, without building the model, since a
    damaged header can ask for any size.
    """
    H = cfg.channels
    kcfg = cfg.kernel_config()
    if cfg.vocab_size is not None:
        shapes = {"embed": (cfg.vocab_size, H)}
    else:
        shapes = {"in_proj": (H, cfg.in_channels), "in_bias": (H,)}
    block = {"weights": (H, kcfg.num_scales, kcfg.scale_dim), "mix_w": (H, H),
             "gamma": (H,), "beta": (H,), "mix_b": (H,), "kernel_norm": (H,)}
    for i in range(cfg.n_blocks):
        shapes.update({f"block{i}.{name}": shape for name, shape in block.items()})
    shapes["head_w"] = (H, cfg.classes)
    shapes["head_b"] = (cfg.classes,)
    return shapes


def _check_tensor_layout(cfg: ModelConfig, names: list[str], shapes: list[tuple]) -> None:
    """Require exactly the tensors, by name and shape, that cfg's model holds."""
    expect = _tensor_shapes(cfg)
    seen = set()
    for name, shape in zip(names, shapes):
        if name not in expect:
            raise ValueError(f"checkpoint holds unexpected tensor {name!r}")
        if name in seen:
            raise ValueError(f"checkpoint holds tensor {name!r} twice")
        if shape != expect[name]:
            raise ValueError(
                f"checkpoint tensor {name!r} has shape {shape}, the config implies {expect[name]}"
            )
        seen.add(name)
    missing = [n for n in expect if n not in seen]
    if missing:
        raise ValueError(f"checkpoint lacks tensor {missing[0]!r}")


def load_checkpoint(path) -> tuple[ModelState, ModelConfig]:
    """Read a save_checkpoint file.

    Raises ValueError, naming the fault, for a file of the wrong byte length,
    a header whose tensor names and shapes differ from what its model config
    implies, an older header whose kernel_init, activation or pooling is not
    the one value the model now has, a tensor holding a non-finite value, or
    a kernel_norm entry <= 0 (a normalizer is the L2 norm of a nonzero
    kernel).
    """
    import json

    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != CHECKPOINT_MAGIC:
        raise ValueError("not a model checkpoint (bad magic)")
    jlen = int.from_bytes(data[8:12], "little")
    if len(data) < 12 + jlen:  # also catches a file cut inside the 12-byte prefix
        raise ValueError(f"checkpoint truncated: {len(data)} bytes, header needs {12 + jlen}")
    version = int.from_bytes(data[4:8], "little")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    header = json.loads(data[12 : 12 + jlen].decode("utf-8"))
    try:
        saved = dict(header["model"])
        for name, only in _RETIRED_FIELDS.items():
            value = saved.pop(name, only)
            if value != only:
                raise ValueError(
                    f"checkpoint model has {name}={value!r}; only {only!r} is supported"
                )
        cfg = ModelConfig(**saved)
        names = [entry["name"] for entry in header["tensors"]]
        shapes = [tuple(entry["shape"]) for entry in header["tensors"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed checkpoint header: {exc!r}") from None
    _check_tensor_layout(cfg, names, shapes)
    expected = 12 + jlen + 8 * sum(int(np.prod(shape)) for shape in shapes)
    if len(data) != expected:
        raise ValueError(f"checkpoint size mismatch: expected {expected} bytes, got {len(data)}")
    offset = 12 + jlen
    arrays = {}
    for name, shape in zip(names, shapes):
        count = int(np.prod(shape))
        arr = np.frombuffer(data[offset : offset + 8 * count], dtype="<f8")
        arrays[name] = arr.astype(np.float64).reshape(shape)
        offset += 8 * count
        if not np.isfinite(arr).all():
            raise ValueError(f"checkpoint tensor {name!r} holds a non-finite value")
        if name.endswith(".kernel_norm") and not (arr > 0).all():
            raise ValueError(f"checkpoint tensor {name!r} holds a normalizer <= 0")

    def rebuild(cls, prefix="", **given):
        """cls with each field the array named prefix + field (None where the
        file has none), unless given."""
        return cls(**{f.name: arrays.get(prefix + f.name) for f in fields(cls)} | given)

    blocks = [rebuild(BlockParams, f"block{i}.") for i in range(cfg.n_blocks)]
    return rebuild(ModelState, blocks=blocks), cfg
