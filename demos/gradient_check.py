"""Hand-written adjoints, verified two independent ways.

Every gradient in this package is an explicit adjoint, so each one is
checked (1) against the defining inner-product identity and (2) against
central finite differences of a scalar loss.
"""

import numpy as np

from sgconv import (
    KernelConfig,
    depthwise_conv_adjoint_batch,
    depthwise_conv_batch,
    finite_diff_check,
    init_kernel,
    kernel_param_grad,
    make_plan,
    materialize,
)

rng = np.random.default_rng(7)
L = 256
plan = make_plan(L)

# --- adjoint identity: <A x, y> == <x, A^T y> -----------------------------------
# one sequence and one channel: a (B, H, L) = (1, 1, L) batch
x = rng.standard_normal((1, 1, L))
k = rng.standard_normal((1, L))
dy = rng.standard_normal((1, 1, L))
y = depthwise_conv_batch(x, k, plan)
dx, dk = depthwise_conv_adjoint_batch(x, k, dy, plan)
print("adjoint identities for the convolution:")
print(f"  <conv(x,k), dy> = {(y * dy).sum():+.12f}")
print(f"  <x, dx>         = {(x * dx).sum():+.12f}")
print(f"  <k, dk>         = {(k * dk).sum():+.12f}")

# --- finite differences through the whole kernel pipeline -----------------------
for mode in ("concat", "disentangled"):
    cfg = KernelConfig(seq_len=L, scale_dim=8, channels=2, mode=mode)
    params, kern = init_kernel(cfg, rng)
    z = kern.normalizer  # frozen at init, a constant during training

    def loss_fn(p):
        vals = materialize(p, cfg, normalizer=z).values
        return 0.5 * float((vals**2).sum())

    dkernel = materialize(params, cfg, normalizer=z).values
    dweights = kernel_param_grad(dkernel, params, cfg, z)  # (H, N, d), like params.weights
    err = finite_diff_check(loss_fn, params, dweights)
    n_params = params.weights.size
    print(f"\n{mode}: {n_params} parameters -> kernel of {cfg.channels}x{L} values")
    print(f"  max deviation of analytic gradient from central differences: {err:.2e}")
