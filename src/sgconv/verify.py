"""Self-contained invariant suites behind the `verify` command.

Each suite re-checks one module's contracts at fixed seeds and returns a
list of failure descriptions (empty means pass).  Output is fully
deterministic: no timings, no environment-dependent values.
"""

from __future__ import annotations

import numpy as np

from . import conv, grad, kernel, model, tasks

# Relative agreement between the FFT and direct convolution paths.
FFT_TOL = {"f64": 1e-10, "f32": 1e-4}
ADJOINT_TOL = 1e-10
FD_TOL = 1e-5


def _rel_err(a: np.ndarray, b: np.ndarray) -> float:
    denom = np.abs(b).max()
    if denom == 0.0:
        return float(np.abs(a - b).max())
    return float(np.abs(a - b).max() / denom)


def suite_kernelgen_structure() -> list[str]:
    fails = []
    for d in (1, 2, 4, 8):
        for ratio in (1, 2, 4, 8, 16, 64, 256, 1024):
            L = d * ratio
            n = kernel.num_scales(L, d)
            total = sum(kernel.sub_kernel_len(i, d) for i in range(n))
            if total != L:
                fails.append(f"coverage {total} != L {L} for d={d}")
    for L, d, expect in ((16, 2, 4), (1024, 8, 8), (8, 8, 1), (16384, 64, 9)):
        if kernel.num_scales(L, d) != expect:
            fails.append(f"num_scales({L},{d}) != {expect}")
    # parameter count grows logarithmically: N*d/L strictly shrinks as L doubles
    d = 16
    ratios = []
    L = 256
    while L <= 16384:
        ratios.append(kernel.num_scales(L, d) * d / L)
        L *= 2
    if not all(a > b for a, b in zip(ratios, ratios[1:])):
        fails.append(f"parameter fraction not strictly decreasing: {ratios}")
    return fails


def suite_kernelgen_norm(seed: int = 0) -> list[str]:
    fails = []
    rng = np.random.default_rng(seed)
    for case in range(200):
        d = int(rng.integers(1, 17))
        L = d * int(2 ** rng.integers(0, 7)) + int(rng.integers(0, 5))
        L = max(L, d)
        cfg = kernel.KernelConfig(
            seq_len=L,
            scale_dim=d,
            channels=int(rng.integers(1, 5)),
            mode="concat" if case % 2 == 0 else "disentangled",
            decay_alpha=float(rng.uniform(0.1, 1.0)),
            decay_t=float(rng.uniform(0.0, 2.0)),
            init="gaussian" if case % 3 else "cosine",
        )
        _, kern = kernel.init_kernel(cfg, rng)
        norms = np.linalg.norm(kern.values, axis=1)
        if np.abs(norms - 1.0).max() > kernel.NORM_ATOL:
            fails.append(f"init norm off by {np.abs(norms - 1.0).max():.2e} for {cfg}")
    return fails


def suite_kernelgen_decay(seed: int = 0) -> list[str]:
    fails = []
    rng = np.random.default_rng(seed)
    cfg = kernel.KernelConfig(seq_len=256, scale_dim=8, channels=3, mode="concat", decay_alpha=0.5)
    n = cfg.num_scales
    weights = np.array([cfg.decay_alpha**i for i in range(n)])
    if not all(a > b for a, b in zip(weights, weights[1:])):
        fails.append("concat scale weights not strictly decreasing for alpha<1")
    dec = kernel.position_decay(256, 1.5)
    if not np.all(np.diff(dec) <= 0):
        fails.append("disentangled position decay not non-increasing")
    # alpha=1 concat must equal t=0 disentangled on identical params
    c1 = kernel.KernelConfig(seq_len=200, scale_dim=8, channels=2, mode="concat", decay_alpha=1.0)
    c2 = kernel.KernelConfig(seq_len=200, scale_dim=8, channels=2, mode="disentangled", decay_t=0.0)
    params = kernel.init_params(c1, rng)
    k1 = kernel.materialize(params, c1)
    k2 = kernel.materialize(params, c2)
    if _rel_err(k1.values, k2.values) > 1e-14:
        fails.append("alpha=1 concat != t=0 disentangled")
    # purity: same inputs, bit-identical outputs
    k1b = kernel.materialize(params, c1)
    if not np.array_equal(k1.values, k1b.values):
        fails.append("kernel builder is not pure")
    return fails


def suite_fftconv_agreement(seed: int = 0, precision: str = "f64") -> list[str]:
    fails = []
    rng = np.random.default_rng(seed)
    dtype = np.float64 if precision == "f64" else np.float32
    tol = FFT_TOL[precision]
    for L in (16, 64, 256, 1024):
        plan = conv.make_plan(L)
        worst = 0.0
        for _ in range(50):
            x = rng.standard_normal(L).astype(dtype)
            k = rng.standard_normal(L).astype(dtype)
            direct = conv.causal_conv_direct(x, k)
            fast = conv.depthwise_conv_batch(x[None, None], k[None], plan)[0, 0]
            worst = max(worst, _rel_err(fast, direct))
        if worst > tol:
            fails.append(f"fft/direct relative error {worst:.2e} > {tol} at L={L}")
    return fails


def suite_fftconv_properties(seed: int = 0) -> list[str]:
    fails = []
    rng = np.random.default_rng(seed)
    L = 128
    plan = conv.make_plan(L)
    k = rng.standard_normal((1, L))
    x1 = rng.standard_normal((1, 1, L))
    x2 = rng.standard_normal((1, 1, L))

    def conv_k(x, p=plan):
        return conv.depthwise_conv_batch(x, k, p)

    if _rel_err(conv_k(2.5 * x1 - 1.5 * x2), 2.5 * conv_k(x1) - 1.5 * conv_k(x2)) > 1e-12:
        fails.append("convolution is not linear")
    # causality: zeroing the future never changes the past
    cut = 40
    xz = x1.copy()
    xz[..., cut:] = 0.0
    if _rel_err(conv_k(xz)[..., :cut], conv_k(x1)[..., :cut]) > 1e-12:
        fails.append("convolution is not causal")
    imp = np.zeros((1, 1, L))
    imp[..., 0] = 1.0
    if _rel_err(conv_k(imp)[0], k) > 1e-12:
        fails.append("unit impulse does not reproduce the kernel")
    # plan reuse must be bit-identical to fresh plans
    y_shared = [conv_k(x1) for _ in range(10)]
    y_fresh = [conv_k(x1, conv.make_plan(L)) for _ in range(10)]
    for a, b in zip(y_shared, y_fresh):
        if not np.array_equal(a, b):
            fails.append("plan reuse is not bit-identical")
            break
    # blocked direct path must match the definitional loop
    xb = rng.standard_normal((2, 3, 100))
    kb = rng.standard_normal((3, 100))
    blocked = conv.depthwise_conv_direct_batch(xb, kb, block=16)
    for b in range(2):
        for h in range(3):
            if _rel_err(blocked[b, h], conv.causal_conv_direct(xb[b, h], kb[h])) > 1e-12:
                fails.append("blocked direct conv disagrees with definitional loop")
    return fails


def suite_grad_adjoints(seed: int = 0) -> list[str]:
    fails = []
    rng = np.random.default_rng(seed)
    L = 256
    plan = conv.make_plan(L)
    for _ in range(20):
        x = rng.standard_normal((1, 1, L))
        k = rng.standard_normal((1, L))
        dy = rng.standard_normal((1, 1, L))
        y = conv.depthwise_conv_batch(x, k, plan)
        dx, dk = grad.depthwise_conv_adjoint_batch(x, k, dy, plan)
        lhs = float((y * dy).sum())
        if abs(lhs - float((x * dx).sum())) > ADJOINT_TOL * max(1.0, abs(lhs)):
            fails.append("<conv(x,k),dy> != <x,dx>")
        if abs(lhs - float((k * dk).sum())) > ADJOINT_TOL * max(1.0, abs(lhs)):
            fails.append("<conv(x,k),dy> != <k,dk>")
    # upsample adjoint equals the dense transpose
    for d, l in ((1, 7), (2, 5), (8, 32), (16, 64)):
        u = np.zeros((l, d))
        for j in range(d):
            e = np.zeros(d)
            e[j] = 1.0
            u[:, j] = kernel.upsample_linear(e, l)
        g = rng.standard_normal(l)
        if _rel_err(grad.upsample_adjoint(g, d), u.T @ g) > 1e-13:
            fails.append(f"upsample adjoint != dense transpose at d={d}, l={l}")
    return fails


def suite_grad_finite_diff(seed: int = 0) -> list[str]:
    fails = []
    rng = np.random.default_rng(seed)
    for mode in ("concat", "disentangled"):
        cfg = kernel.KernelConfig(
            seq_len=96, scale_dim=8, channels=2, mode=mode, decay_alpha=0.5, decay_t=1.0
        )
        params = kernel.init_params(cfg, rng)
        kern = kernel.materialize(params, cfg)
        z = kern.normalizer

        def loss_fn(p, _cfg=cfg, _z=z):
            vals = kernel.materialize(p, _cfg, normalizer=_z).values
            return 0.5 * float((vals**2).sum())

        dk = kernel.materialize(params, cfg, normalizer=z).values
        dweights = grad.kernel_param_grad(dk, params, cfg, z)
        err = grad.finite_diff_check(loss_fn, params, dweights)
        if err > FD_TOL:
            fails.append(f"kernel param grad off by {err:.2e} ({mode})")
    return fails


def suite_model(seed: int = 0) -> list[str]:
    fails = []
    rng = np.random.default_rng(seed)
    spec = tasks.TaskSpec(kind="first_token_recall", seq_len=64, num_classes=4)
    cfg = model.ModelConfig.for_task(spec, channels=8, n_blocks=2, scale_dim=4)
    # zero-mix stack is the identity
    state = model.init_model(cfg, np.random.default_rng(seed))
    for bp in state.blocks:
        bp.mix_w[:] = 0.0
    plan = conv.make_plan(cfg.seq_len)
    x = rng.standard_normal((2, cfg.channels, cfg.seq_len))
    kcfg = cfg.kernel_config()
    y = x
    for bp in state.blocks:
        y = model.block_forward(y, bp, kcfg, plan)
    if not np.array_equal(y, x):
        fails.append("zero-mix block stack is not the identity")
    # one SGD step on a frozen batch decreases the loss
    state = model.init_model(cfg, np.random.default_rng(seed + 1))
    inputs, labels = tasks.gen_batch(spec, 16, np.random.default_rng(seed + 2))
    logits, cache = model.classifier_forward(inputs, state, cfg, plan, want_cache=True)
    loss0, dlogits = model.cross_entropy(logits, labels)
    grads = model.classifier_backward(dlogits, cache, inputs, state, cfg, plan)
    items = model._param_items(state)
    opt = model._Optimizer([a for _, a in items], model.TrainConfig(steps=1, lr=1e-4, optimizer="sgd"))
    opt.step([grads[n] for n, _ in items])
    loss1, _ = model.cross_entropy(model.classifier_forward(inputs, state, cfg, plan), labels)
    if not loss1 < loss0:
        fails.append(f"descent step did not reduce loss ({loss0:.6f} -> {loss1:.6f})")
    # training determinism
    tcfg = model.TrainConfig(steps=5, batch_size=8, eval_every=5, eval_samples=16, seed=seed)
    r1 = model.train(spec, cfg, tcfg)
    r2 = model.train(spec, cfg, tcfg)
    if r1.log != r2.log:
        fails.append("training log is not reproducible")
    for (n1, a1), (_, a2) in zip(model._param_items(r1.state), model._param_items(r2.state)):
        if not np.array_equal(a1, a2):
            fails.append(f"final parameters differ across identical runs ({n1})")
            break
    return fails


def suite_tasks(seed: int = 0) -> list[str]:
    fails = []
    for kind in tasks.KINDS:
        spec = tasks.TaskSpec(kind=kind, seq_len=32, num_classes=4)
        inputs, labels = tasks.gen_batch(spec, 64, np.random.default_rng(seed))
        for i in range(64):
            expect = tasks.rederive_label(spec, inputs[i])
            got = labels[i]
            ok = abs(got - expect) < 1e-12 if spec.is_regression else got == expect
            if not ok:
                fails.append(f"{kind}: label {got} does not re-derive ({expect})")
                break
        a1 = tasks.gen_batch(spec, 8, np.random.default_rng(seed))
        a2 = tasks.gen_batch(spec, 8, np.random.default_rng(seed))
        if not (np.array_equal(a1[0], a2[0]) and np.array_equal(a1[1], a2[1])):
            fails.append(f"{kind}: generation is not deterministic")
    return fails


SUITES = (
    ("kernelgen.structure", lambda precision: suite_kernelgen_structure()),
    ("kernelgen.norm", lambda precision: suite_kernelgen_norm()),
    ("kernelgen.decay", lambda precision: suite_kernelgen_decay()),
    ("fftconv.agreement", lambda precision: suite_fftconv_agreement(precision=precision)),
    ("fftconv.properties", lambda precision: suite_fftconv_properties()),
    ("grad.adjoints", lambda precision: suite_grad_adjoints()),
    ("grad.finite_diff", lambda precision: suite_grad_finite_diff()),
    ("model.block", lambda precision: suite_model()),
    ("tasks.selfcheck", lambda precision: suite_tasks()),
)


def select_suites(filter_substr: str | None = None, precision: str = "f64"):
    """The (name, suite) pairs run_suites runs; ValueError, before any suite
    runs, for an unknown precision or a filter that matches no suite."""
    if precision not in FFT_TOL:
        raise ValueError(f"precision must be one of {tuple(FFT_TOL)}, got {precision!r}")
    selected = [
        (name, fn)
        for name, fn in SUITES
        if filter_substr is None or filter_substr in name
    ]
    if not selected:
        raise ValueError(f"no suite matches filter {filter_substr!r}")
    return selected


def run_suites(filter_substr: str | None = None, precision: str = "f64"):
    """Run matching suites; returns [(name, failures)] in declaration order."""
    return [(name, fn(precision)) for name, fn in select_suites(filter_substr, precision)]
