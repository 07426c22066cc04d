"""FFT convolution equals the definitional sum, then leaves it behind.

The O(L log L) spectral path must agree with the O(L^2) definitional loop to
floating-point accuracy; past a few thousand positions it is also far
faster.
"""

import time

import numpy as np

from sgconv import causal_conv_direct, depthwise_conv_batch, make_plan
from sgconv.conv import depthwise_conv_direct_batch
from sgconv import KernelConfig, init_kernel

rng = np.random.default_rng(0)

# --- agreement -----------------------------------------------------------------
print("max |fft - direct| / max|direct| on random inputs:")
for L in (16, 256, 4096):
    plan = make_plan(L)
    worst = 0.0
    for _ in range(20):
        x = rng.standard_normal(L)
        k = rng.standard_normal(L)
        fast = depthwise_conv_batch(x[None, None], k[None], plan)[0, 0]  # a (1, 1, L) batch
        direct = causal_conv_direct(x, k)
        worst = max(worst, np.abs(fast - direct).max() / np.abs(direct).max())
    print(f"  L={L:>5}: {worst:.2e}")

# --- speed ----------------------------------------------------------------------
print("\nbatch of 8 sequences x 16 channels, one materialized kernel per channel:")
print(f"{'L':>7} {'direct ms':>11} {'fft ms':>9} {'speedup':>8}")
for L in (1024, 4096, 16384):
    cfg = KernelConfig(seq_len=L, scale_dim=32, channels=16)
    _, kern = init_kernel(cfg, rng)
    x = rng.standard_normal((8, 16, L)).astype(np.float32)
    kv = kern.values.astype(np.float32)
    plan = make_plan(L)
    depthwise_conv_batch(x, kv, plan)  # warm
    t0 = time.perf_counter()
    depthwise_conv_batch(x, kv, plan)
    t_fft = (time.perf_counter() - t0) * 1e3
    depthwise_conv_direct_batch(x, kv)  # warm
    t0 = time.perf_counter()
    depthwise_conv_direct_batch(x, kv)
    t_dir = (time.perf_counter() - t0) * 1e3
    print(f"{L:>7} {t_dir:>11.1f} {t_fft:>9.1f} {t_dir / t_fft:>7.1f}x")

print("\nthe two paths cross-check each other: any bug in one shows up as a")
print("disagreement with the other, which the verify suites assert at 1e-10.")
