"""Timing harness comparing convolution strategies as scaling measurements.

Absolute milliseconds are machine-specific, so the harness reports medians
with spread and fits log-log slopes across sequence lengths: FFT convolution
should scale near-linearly while a quadratic attention-score baseline grows
with exponent around two.  Memory is reported as analytic workspace bytes
rather than process RSS, which is allocator-dependent.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from .conv import depthwise_conv_batch, depthwise_conv_direct_batch, make_plan
from .ioutil import atomic_write_text
from .kernel import KernelConfig, init_params, materialize

IMPLS = ("conv_direct", "conv_fft", "attn_quadratic")
MIN_REPS = 5
DEFAULT_LENGTHS = (256, 512, 1024, 2048, 4096, 8192, 16384)
DEFAULT_DIRECT_CAP = 8192
DIRECT_BLOCK = 1024

# In a fresh process the first multithreaded BLAS calls can run ~20x slower
# for about a second (on a 2-core host: L=1024 attention at 64 ms per call
# instead of 3 ms, for 0.96 s), so a callable whose first call takes at
# least WARMUP_SLOW_CALL_S warms up for at least WARMUP_FLOOR_S.  Faster
# callables (tiny geometries run in tens of microseconds) skip that floor.
# Warm-up ends once two consecutive calls agree within WARMUP_AGREE, or at
# WARMUP_CAP_S.
WARMUP_FLOOR_S = 1.5
WARMUP_SLOW_CALL_S = 1e-3
WARMUP_AGREE = 0.10
WARMUP_CAP_S = 10.0


@dataclass(frozen=True)
class BenchRecord:
    impl: str
    seq_len: int
    channels: int
    batch: int
    median_ms: float
    p10_ms: float
    p90_ms: float
    reps: int

    def __post_init__(self):
        if not self.p10_ms <= self.median_ms <= self.p90_ms:
            raise ValueError("quantiles out of order")
        if self.reps < MIN_REPS:
            raise ValueError(f"reps must be >= {MIN_REPS}, got {self.reps}")


def workspace_bytes(impl: str, seq_len: int, channels: int, batch: int, itemsize: int) -> int:
    """Bytes the convolution path allocates beyond its inputs and output."""
    L, H, B = seq_len, channels, batch
    if impl == "conv_fft":
        m = make_plan(L).fft_size
        spectra = (B * H + H) * (m // 2 + 1) * 2 * itemsize
        padded = B * H * m * itemsize
        inverse = B * H * m * itemsize
        return spectra + padded + inverse
    if impl == "conv_direct":
        t = min(DIRECT_BLOCK, L)
        block = t * t * itemsize
        kext = (t - 1 + L) * itemsize
        padded = H * L * itemsize
        # one channel's padded and block-major input, its output blocks and
        # one diagonal's product
        channel = 4 * B * L * itemsize
        return block + kext + padded + channel
    if impl == "attn_quadratic":
        scores = L * L * itemsize
        operands = 2 * L * H * itemsize
        return scores + operands
    raise ValueError(f"unknown impl {impl!r}")


def _make_callable(impl: str, seq_len: int, channels: int, batch: int, dtype, rng):
    """Build (fn, metadata) for one impl at one geometry."""
    x = rng.standard_normal((batch, channels, seq_len)).astype(dtype)
    if impl == "attn_quadratic":
        q = np.ascontiguousarray(x.transpose(0, 2, 1))  # (B, L, H)
        qt = np.ascontiguousarray(x)  # (B, H, L)
        scores = np.empty((seq_len, seq_len), dtype=dtype)

        def run():
            for b in range(batch):
                np.matmul(q[b], qt[b], out=scores)
            return scores

        return run

    cfg = KernelConfig(
        seq_len=seq_len,
        scale_dim=min(32, seq_len),
        channels=channels,
        mode="concat",
        decay_alpha=0.5,
    )
    params = init_params(cfg, rng)
    kern = materialize(params, cfg)
    if impl == "conv_fft":
        plan = make_plan(seq_len)
        norm = kern.normalizer

        def run():
            k = materialize(params, cfg, normalizer=norm)
            return depthwise_conv_batch(x, k.values.astype(dtype), plan)

        return run
    if impl == "conv_direct":
        kv = kern.values.astype(dtype)

        def run():
            return depthwise_conv_direct_batch(x, kv, block=DIRECT_BLOCK)

        return run
    raise ValueError(f"unknown impl {impl!r}")


def _time_reps(fn, reps: int, warmup: int) -> np.ndarray:
    """Time reps calls in ms after `warmup` calls and the WARMUP_* warm-up."""
    start = time.perf_counter()
    calls, prev, last, floor = 0, None, None, None
    while True:
        t0 = time.perf_counter()
        fn()
        t1 = time.perf_counter()
        calls, prev, last = calls + 1, last, t1 - t0
        if floor is None:
            floor = WARMUP_FLOOR_S if last >= WARMUP_SLOW_CALL_S else 0.0
        spent = t1 - start
        agree = prev is not None and abs(last - prev) <= WARMUP_AGREE * max(last, prev)
        if calls >= warmup and (spent >= WARMUP_CAP_S or (spent >= floor and agree)):
            break
    times = np.empty(reps)
    for i in range(reps):
        t0 = time.perf_counter()
        fn()
        times[i] = time.perf_counter() - t0
    return times * 1e3


def fit_loglog_slope(lengths, values) -> float:
    """Least-squares slope of log2(value) against log2(length)."""
    lengths = np.asarray(lengths, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if lengths.size < 2:
        raise ValueError("need at least two lengths to fit a slope")
    return float(np.polyfit(np.log2(lengths), np.log2(values), 1)[0])


def run_bench(
    lengths=DEFAULT_LENGTHS,
    channels: int = 128,
    batch: int = 64,
    reps: int = MIN_REPS,
    impls=IMPLS,
    direct_cap: int = DEFAULT_DIRECT_CAP,
    dtype=np.float32,
    seed: int = 0,
    warmup: int = 1,
) -> tuple[list[BenchRecord], dict]:
    """Time every impl at every length; returns records and a summary.

    conv_direct is skipped above direct_cap (quadratic cost makes very long
    direct convolutions impractically slow; raise the cap to force them).
    The summary carries per-impl log-log slopes fitted on the p10 times over
    the lengths actually measured, plus analytic workspace bytes per record.
    A bad geometry raises ValueError before anything is timed.
    """
    lengths = [int(l) for l in lengths]
    if lengths != sorted(lengths) or len(set(lengths)) != len(lengths):
        raise ValueError(f"lengths must be strictly ascending, got {lengths}")
    if lengths and lengths[0] < 1:
        raise ValueError(f"lengths must be >= 1, got {lengths}")
    if channels < 1 or batch < 1:
        raise ValueError(f"channels and batch must be >= 1, got {channels} and {batch}")
    if reps < MIN_REPS:
        raise ValueError(f"reps must be >= {MIN_REPS}, got {reps}")
    for impl in impls:
        if impl not in IMPLS:
            raise ValueError(f"unknown impl {impl!r}; choose from {IMPLS}")
    itemsize = np.dtype(dtype).itemsize
    records = []
    measured: dict[str, list[tuple[int, float, float]]] = {impl: [] for impl in impls}
    for seq_len in lengths:
        for impl in impls:
            if impl == "conv_direct" and seq_len > direct_cap:
                continue
            rng = np.random.default_rng(seed)
            fn = _make_callable(impl, seq_len, channels, batch, dtype, rng)
            times = _time_reps(fn, reps, warmup)
            p10, med, p90 = np.percentile(times, [10, 50, 90])
            records.append(
                BenchRecord(
                    impl=impl,
                    seq_len=seq_len,
                    channels=channels,
                    batch=batch,
                    median_ms=float(med),
                    p10_ms=float(p10),
                    p90_ms=float(p90),
                    reps=reps,
                )
            )
            measured[impl].append((seq_len, float(med), float(p10)))
    summary = {
        "channels": channels,
        "batch": batch,
        "reps": reps,
        "dtype": np.dtype(dtype).name,
        "impls": {},
    }
    for impl in impls:
        pts = measured[impl]
        entry = {
            "lengths": [p[0] for p in pts],
            "median_ms": [p[1] for p in pts],
            "workspace_bytes": {
                str(p[0]): workspace_bytes(impl, p[0], channels, batch, itemsize)
                for p in pts
            },
        }
        if len(pts) >= 2:
            # scheduling noise only ever adds time, so the fast tail (p10)
            # is the stable statistic for scaling-exponent fits
            entry["loglog_slope"] = fit_loglog_slope(
                [p[0] for p in pts], [p[2] for p in pts]
            )
        summary["impls"][impl] = entry
    return records, summary


def write_bench_csv(records: list[BenchRecord], path) -> None:
    lines = ["impl,seq_len,channels,batch,median_ms,p10_ms,p90_ms,reps"]
    for r in records:
        lines.append(
            f"{r.impl},{r.seq_len},{r.channels},{r.batch},"
            f"{r.median_ms:.6f},{r.p10_ms:.6f},{r.p90_ms:.6f},{r.reps}"
        )
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_bench_summary(summary: dict, path) -> None:
    atomic_write_text(path, json.dumps(summary, indent=2, sort_keys=True) + "\n")
