"""Analytic reverse-mode gradients for the kernel/convolution pipeline.

The operation graph is short and fixed (upsample, decay, concatenate,
truncate, normalize, convolve), so the adjoints are written out by hand and
checked against central finite differences rather than routed through an
autodiff framework.
"""

from __future__ import annotations

import numpy as np

from .conv import ConvPlan, _real_rows, _require_real, _spectra
from .kernel import (
    KernelConfig,
    ScaleParams,
    _check_params,
    _interp_indices,
    _scale_coefs,
    _scale_maps,
    position_decay,
    sub_kernel_len,
)


def depthwise_conv_adjoint_batch(
    x: np.ndarray,
    kernel_values: np.ndarray,
    dy: np.ndarray,
    plan: ConvPlan,
    work: dict | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Adjoint of depthwise_conv_batch.

    Returns (dx, dk) where dx has shape (B, H, L) and dk has shape (H, L)
    with the batch contributions summed (fixed summation order):
    dx[n] = sum_m k[m]*dy[n+m] and dk[m] = sum_{n>=m} dy[n]*x[n-m], both
    correlations evaluated in O(L log L).  With a work dict the spectra and
    the 2L-long dx go into its buffers (conv._spectra), and dx is a view into
    them, valid until the next call with that work.
    """
    x = np.asarray(x)
    kv = np.asarray(kernel_values)
    dy = np.asarray(dy)
    if x.shape != dy.shape or x.ndim != 3 or kv.shape != (x.shape[1], x.shape[2]):
        raise ValueError(
            f"inconsistent shapes: x {x.shape}, dy {dy.shape}, kernel {kv.shape}"
        )
    _require_real(x, "x")
    _require_real(dy, "dy")
    if x.shape[2] != plan.seq_len:
        raise ValueError(f"plan is for L={plan.seq_len}, got input L={x.shape[2]}")
    m = plan.fft_size
    kf = np.fft.rfft(kv, n=m)
    bx, bdy = _spectra(work, x.shape, m, np.result_type(x, dy))
    xf = np.fft.rfft(x, n=m, out=bx)
    dyf = np.fft.rfft(dy, n=m, out=bdy)
    # Spectral products in place: conj(xf)*dyf is summed into dk before dyf
    # is overwritten with conj(kf)*dyf for dx, which a workspace writes over
    # xf, dead by then.
    xf = np.multiply(np.conjugate(xf, out=xf), dyf, out=xf)
    dk = np.fft.irfft(xf.sum(axis=0), n=m)[..., : plan.seq_len]
    dyf = np.multiply(np.conj(kf)[None], dyf, out=dyf)
    dx = np.fft.irfft(dyf, n=m, out=_real_rows(bx, m))[..., : plan.seq_len]
    return dx, dk


def upsample_adjoint(g: np.ndarray, d: int) -> np.ndarray:
    """Transpose of align-corners linear interpolation on the last axis.

    Each incoming gradient entry is scattered onto its two neighboring
    source knots with the same blend weights used in the forward pass.
    """
    g = np.asarray(g, dtype=np.float64)
    l = g.shape[-1]
    if d < 1:
        raise ValueError(f"source length must be >= 1, got {d}")
    if l < d:
        raise ValueError(f"gradient length {l} shorter than source length {d}")
    if l == d:
        return g.copy()
    if d == 1:
        return g.sum(axis=-1, keepdims=True)
    lo, hi, frac = _interp_indices(d, l)
    lead = g.shape[:-1]
    g2 = g.reshape(-1, l)
    rows = g2.shape[0]
    # One bincount over the low-knot then the high-knot contributions, row
    # by row: the same additions in the same order as a scatter-add.
    base = (np.arange(rows) * d)[:, None]
    idx = np.concatenate([(base + lo).ravel(), (base + hi).ravel()])
    weights = np.concatenate([(g2 * (1.0 - frac)).ravel(), (g2 * frac).ravel()])
    out = np.bincount(idx, weights=weights, minlength=rows * d)
    return out.reshape(lead + (d,))


def kernel_param_grad(
    d_kernel: np.ndarray,
    params: ScaleParams,
    config: KernelConfig,
    normalizer: np.ndarray,
) -> np.ndarray:
    """Pull a kernel-space gradient (H, L) back to ScaleParams space.

    The transpose of materialize under a frozen normalizer: the per-position
    decay (disentangled), then per scale the product with M(d, len_i).T
    (upsample_adjoint past kernel.DENSE_MAX) over the positions the scale
    covers below L (the truncated tail contributes nothing), scaled by
    alpha**i / Z.  Returns the (H, N, d) gradient of ScaleParams.weights.
    """
    d_kernel = np.asarray(d_kernel, dtype=np.float64)
    H, N, d = params.weights.shape
    L = config.seq_len
    if d_kernel.shape != (H, L):
        raise ValueError(f"d_kernel must have shape ({H}, {L}), got {d_kernel.shape}")
    _check_params(params, config)
    z = np.asarray(normalizer, dtype=np.float64)
    if z.shape != (H,):
        raise ValueError(f"normalizer must have shape ({H},), got {z.shape}")

    g = d_kernel
    if config.mode == "disentangled":
        g = g * position_decay(L, config.decay_t)[None, :]
    d_weights = np.empty((H, N, d))
    for i, off, n, m in _scale_maps(config):
        if m is None:
            seg = np.zeros((H, sub_kernel_len(i, d)))  # zero past L
            seg[:, :n] = g[:, off : off + n]
            d_weights[:, i, :] = upsample_adjoint(seg, d)
        else:
            np.matmul(g[:, off : off + n], m.T, out=d_weights[:, i, :])
    d_weights *= _scale_coefs(params, config, 1.0 / z)
    return d_weights


# finite_diff_check's relative step, and the most coordinates it probes
FD_EPS = 1e-5
FD_MAX_COORDS = 200


def finite_diff_check(loss_fn, params: ScaleParams, analytic: np.ndarray) -> float:
    """Max deviation of the analytic gradient from central differences.

    Per coordinate the step is FD_EPS * max(1, |p_i|); the deviation is
    relative where the analytic entry exceeds 1e-8 in magnitude and absolute
    below that.  For parameter tensors larger than FD_MAX_COORDS a random
    subset of that many coordinates, the same for every call, is probed.
    """
    flat_w = params.weights.ravel()
    n = flat_w.size
    if n > FD_MAX_COORDS:
        idx = np.random.default_rng(0).choice(n, size=FD_MAX_COORDS, replace=False)
        idx.sort()
    else:
        idx = np.arange(n)
    an = np.asarray(analytic).ravel()
    worst = 0.0
    for i in idx:
        h = FD_EPS * max(1.0, abs(flat_w[i]))
        w = params.weights.copy()
        w.flat[i] = flat_w[i] + h
        lp = loss_fn(ScaleParams(weights=w, alphas=params.alphas))
        w.flat[i] = flat_w[i] - h
        lm = loss_fn(ScaleParams(weights=w, alphas=params.alphas))
        fd = (lp - lm) / (2.0 * h)
        dev = abs(fd - an[i])
        if abs(an[i]) >= 1e-8:
            dev /= abs(an[i])
        worst = max(worst, dev)
    return worst
