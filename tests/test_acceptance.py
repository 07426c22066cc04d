"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass/fail line (run with `pytest -s` to see them all).
The heavy criteria (benchmark ordering, training, ablation) take several
minutes each on a 2-core machine; the whole module stays within its stated
runtime bounds.
"""

import json

import numpy as np
import pytest

from sgconv.bench import run_bench
from sgconv.cli import main as cli_main
from sgconv.conv import causal_conv_direct, depthwise_conv_batch, make_plan
from sgconv.grad import (
    depthwise_conv_adjoint_batch,
    finite_diff_check,
    kernel_param_grad,
)
from sgconv.kernel import (
    KernelConfig,
    init_kernel,
    init_params,
    materialize,
    num_scales,
    sub_kernel_len,
)
from sgconv.model import ModelConfig, TrainConfig, train
from sgconv.tasks import TaskSpec

# criterion 6 regression bands, pinned from the reference-machine run
FFT_SLOPE_BAND = (0.9, 1.4)
ATTN_SLOPE_MIN = 1.7

# criterion 7 budget, pinned from the first passing reference run
TRAIN_STEPS = 500
TRAIN_TARGET_ACC = 0.95


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {name}: {status} {detail}".rstrip())


def test_c1_parameter_count_principle():
    n = num_scales(16384, 64)
    exact = n * 64
    ok = exact == 576
    fractions = []
    L = 256
    while L <= 16384:
        fractions.append(num_scales(L, 64) * 64 / L)
        L *= 2
    monotone = all(a > b for a, b in zip(fractions, fractions[1:]))
    _report(1, "sub-linear parameter count", ok and monotone,
            f"(N*d={exact}, fractions {fractions[0]:.3f}..{fractions[-1]:.4f})")
    assert exact == 576
    assert monotone


def test_c2_exact_coverage_identity():
    checked = 0
    for d in (1, 2, 3, 5, 8, 16, 64):
        for ratio in (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024):
            L = d * ratio
            n = num_scales(L, d)
            assert sum(sub_kernel_len(i, d) for i in range(n)) == L
            checked += 1
    _report(2, "exact coverage identity", True, f"({checked} (L, d) pairs)")


def test_c3_norm_at_init():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for case in range(1000):
        d = int(rng.integers(1, 33))
        L = int(d * 2 ** rng.integers(0, 7) + rng.integers(0, 7))
        L = max(L, d)
        cfg = KernelConfig(
            seq_len=L,
            scale_dim=d,
            channels=int(rng.integers(1, 5)),
            mode="concat" if case % 2 == 0 else "disentangled",
            decay_alpha=float(rng.uniform(0.05, 1.0)),
            decay_t=float(rng.uniform(0.0, 2.5)),
            init="gaussian" if case % 3 else "cosine",
        )
        _, kern = init_kernel(cfg, rng)
        worst = max(worst, float(np.abs(np.linalg.norm(kern.values, axis=1) - 1.0).max()))
    ok = worst <= 1e-6
    _report(3, "unit norm at initialization", ok, f"(worst deviation {worst:.2e})")
    assert ok


def test_c4_fft_direct_equivalence():
    rng = np.random.default_rng(4)
    worst_overall = 0.0
    for L in (16, 64, 256, 1024, 4096):
        plan = make_plan(L)
        worst = 0.0
        for _ in range(1000):
            x = rng.standard_normal(L)
            k = rng.standard_normal(L)
            direct = causal_conv_direct(x, k)
            fast = depthwise_conv_batch(x[None, None], k[None], plan)[0, 0]
            err = float(np.abs(fast - direct).max() / np.abs(direct).max())
            worst = max(worst, err)
        assert worst <= 1e-10, f"L={L}: {worst:.2e}"
        worst_overall = max(worst_overall, worst)
    _report(4, "fft/direct equivalence", True, f"(worst relative error {worst_overall:.2e})")


def test_c5_adjoint_correctness():
    rng = np.random.default_rng(5)
    # inner-product adjoint identities
    L = 512
    plan = make_plan(L)
    worst_ip = 0.0
    for _ in range(200):
        x, k, dy = rng.standard_normal((3, L))
        y = depthwise_conv_batch(x[None, None], k[None], plan)[0, 0]
        dxb, dkb = depthwise_conv_adjoint_batch(x[None, None], k[None], dy[None, None], plan)
        dx, dk = dxb[0, 0], dkb[0]
        lhs = float(np.dot(y, dy))
        scale = max(1.0, abs(lhs))
        worst_ip = max(
            worst_ip,
            abs(lhs - float(np.dot(x, dx))) / scale,
            abs(lhs - float(np.dot(k, dk))) / scale,
        )
    assert worst_ip <= 1e-10

    # end-to-end parameter gradients through build + conv + pool + readout
    worst_fd = 0.0
    for mode in ("concat", "disentangled"):
        cfg = KernelConfig(
            seq_len=512, scale_dim=8, channels=2, mode=mode, decay_alpha=0.5, decay_t=1.0
        )
        params, kern = init_kernel(cfg, rng)
        z = kern.normalizer
        x = rng.standard_normal((2, 2, 512))
        readout = rng.standard_normal(2)

        def loss_fn(p, _cfg=cfg, _z=z, _x=x, _r=readout):
            kv = materialize(p, _cfg, normalizer=_z).values
            pooled = depthwise_conv_batch(_x, kv, plan).mean(axis=2)
            return 0.5 * float(((pooled @ _r) ** 2).sum())

        kv = materialize(params, cfg, normalizer=z).values
        y = depthwise_conv_batch(x, kv, plan)
        pooled = y.mean(axis=2)
        s = pooled @ readout
        dpooled = s[:, None] * readout[None, :]
        dy = np.broadcast_to(dpooled[:, :, None] / 512, y.shape).copy()
        _, dk = depthwise_conv_adjoint_batch(x, kv, dy, plan)
        dweights = kernel_param_grad(dk, params, cfg, z)
        err = finite_diff_check(loss_fn, params, dweights)
        assert err <= 1e-5, f"{mode}: {err:.2e}"
        worst_fd = max(worst_fd, err)
    _report(5, "adjoint correctness", True,
            f"(inner products {worst_ip:.2e}, finite differences {worst_fd:.2e})")


def test_c6_complexity_ordering():
    # scaling exponents over 1024..16384 first, while the process is quiet;
    # slopes are geometry-invariant, so a lighter batch/channel setting keeps
    # this inside the runtime budget
    _, summary = run_bench(
        lengths=(1024, 2048, 4096, 8192, 16384),
        channels=32,
        batch=4,
        reps=9,
        impls=("conv_fft", "attn_quadratic"),
        dtype=np.float32,
        seed=0,
        warmup=2,
    )
    fft_slope = summary["impls"]["conv_fft"]["loglog_slope"]
    attn_slope = summary["impls"]["attn_quadratic"]["loglog_slope"]

    # ordering claim at the pinned geometry: 16384 positions, 128 channels,
    # batch 64; direct must be forced past its default cap
    records, _ = run_bench(
        lengths=(16384,),
        channels=128,
        batch=64,
        reps=5,
        impls=("conv_direct", "conv_fft"),
        direct_cap=16384,
        dtype=np.float32,
        seed=0,
    )
    medians = {r.impl: r.median_ms for r in records}
    ordering_ok = medians["conv_fft"] < medians["conv_direct"]
    slopes_ok = FFT_SLOPE_BAND[0] <= fft_slope <= FFT_SLOPE_BAND[1] and attn_slope >= ATTN_SLOPE_MIN
    _report(
        6,
        "complexity ordering",
        ordering_ok and slopes_ok,
        f"(fft {medians['conv_fft']:.0f} ms < direct {medians['conv_direct']:.0f} ms; "
        f"slopes fft {fft_slope:.2f}, attn {attn_slope:.2f})",
    )
    assert ordering_ok
    assert FFT_SLOPE_BAND[0] <= fft_slope <= FFT_SLOPE_BAND[1]
    assert attn_slope >= ATTN_SLOPE_MIN


def test_c7_learning_demonstration():
    spec = TaskSpec(kind="first_token_recall", seq_len=1024, num_classes=8)
    cfg = ModelConfig.for_task(
        spec, channels=32, n_blocks=1, scale_dim=8, mode="concat", decay_alpha=0.5
    )
    tcfg = TrainConfig(
        steps=TRAIN_STEPS, batch_size=32, lr=3e-2, eval_every=100, eval_samples=256, seed=0
    )
    result = train(spec, cfg, tcfg)
    first, last = result.log[0], result.log[-1]
    acc_ok = last["acc"] >= TRAIN_TARGET_ACC
    loss_ok = last["loss"] < 0.5 * first["loss"]
    _report(
        7,
        "learning demonstration",
        acc_ok and loss_ok,
        f"(acc {first['acc']:.3f} -> {last['acc']:.3f}, "
        f"loss {first['loss']:.3f} -> {last['loss']:.4f}, {TRAIN_STEPS} steps)",
    )
    assert loss_ok
    assert acc_ok


def test_c8_ablation_protocol(tmp_path):
    out = tmp_path / "ablation.csv"
    rc = cli_main(
        [
            "ablate",
            "--task", "first-token-recall",
            "--len", "256",
            "--classes", "8",
            "--steps", "200",
            "--batch-size", "32",
            "--lr", "0.02",
            "--channels", "32",
            "--out", str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,d,accuracy,seed"
    rows = [line.split(",") for line in lines[1:]]
    grid = [(float(r[0]), int(r[1])) for r in rows]
    expected = [(0.0, 8), (0.5, 8), (1.0, 8), (2.0, 8), (1.0, 1), (1.0, 8), (1.0, 64)]
    assert grid == expected
    accs = {g: float(r[2]) for g, r in zip(grid, rows)}
    assert all(0.0 <= a <= 1.0 for a in accs.values())
    # qualitative orderings are reported, never asserted
    t_sweep = {t: accs[(t, 8)] for t in (0.0, 0.5, 1.0, 2.0)}
    d_sweep = {d: accs[(1.0, d)] for d in (1, 8, 64)}
    _report(
        8,
        "ablation protocol",
        True,
        f"(t-sweep@d=8 {t_sweep}; d-sweep@t=1 {d_sweep})",
    )


def test_c9_determinism(tmp_path):
    # dump-kernel: identical bytes
    args = ["dump-kernel", "--len", "512", "--scale-dim", "32", "--seed", "11"]
    cli_main(args + ["--out", str(tmp_path / "k1.csv")])
    cli_main(args + ["--out", str(tmp_path / "k2.csv")])
    dump_ok = (tmp_path / "k1.csv").read_bytes() == (tmp_path / "k2.csv").read_bytes()

    # train: identical log and checkpoint bytes
    targs = [
        "train", "--task", "first-token-recall", "--len", "64", "--classes", "4",
        "--steps", "10", "--batch-size", "8", "--channels", "8", "--blocks", "1",
        "--scale-dim", "4", "--eval-every", "5", "--seed", "12",
    ]
    cli_main(targs + ["--out", str(tmp_path / "t1")])
    cli_main(targs + ["--out", str(tmp_path / "t2")])
    train_ok = (tmp_path / "t1.jsonl").read_bytes() == (tmp_path / "t2.jsonl").read_bytes() and (
        tmp_path / "t1.ckpt"
    ).read_bytes() == (tmp_path / "t2.ckpt").read_bytes()

    # ablate: identical CSV bytes
    aargs = [
        "ablate", "--task", "first-token-recall", "--len", "32", "--classes", "4",
        "--steps", "3", "--batch-size", "4", "--channels", "8",
        "--t-sweep", "0,1", "--d-sweep", "4", "--seed", "13",
    ]
    cli_main(aargs + ["--out", str(tmp_path / "a1.csv")])
    cli_main(aargs + ["--out", str(tmp_path / "a2.csv")])
    ablate_ok = (tmp_path / "a1.csv").read_bytes() == (tmp_path / "a2.csv").read_bytes()

    ok = dump_ok and train_ok and ablate_ok
    _report(
        9,
        "determinism across runs",
        ok,
        f"(dump-kernel {dump_ok}, train {train_ok}, ablate {ablate_ok})",
    )
    assert ok
