"""Causal depthwise convolution of length-L sequences with length-L kernels.

The production path zero-pads to a power-of-two FFT size and multiplies
spectra, costing O(L log L).  Two direct O(L^2) implementations are kept
alongside: a definitional per-position sum that serves as the verification
oracle, and a blocked matrix-multiply variant fast enough to benchmark at
large L.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import MaterializedKernel


@dataclass(frozen=True)
class ConvPlan:
    """Transform sizes for one sequence length, reusable across calls."""

    seq_len: int
    fft_size: int

    def __post_init__(self):
        if self.seq_len < 1:
            raise ValueError(f"seq_len must be positive, got {self.seq_len}")
        if self.fft_size < 2 * self.seq_len - 1:
            raise ValueError(
                f"fft_size {self.fft_size} wraps around for linear convolution at L={self.seq_len}"
            )


def make_plan(seq_len: int) -> ConvPlan:
    """Plan with the smallest power-of-two FFT size >= 2L."""
    m = 1
    while m < 2 * seq_len:
        m *= 2
    return ConvPlan(seq_len=seq_len, fft_size=m)


def _kernel_values(kernel) -> np.ndarray:
    if isinstance(kernel, MaterializedKernel):
        return kernel.values
    return np.asarray(kernel)


def causal_conv_direct(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Definitional causal convolution: y[n] = sum_{m<=n} k[m] * x[n-m]."""
    x = np.asarray(x)
    k = np.asarray(k)
    if x.ndim != 1 or k.ndim != 1 or x.shape != k.shape:
        raise ValueError(f"inputs must be equal-length vectors, got {x.shape} and {k.shape}")
    # np.convolve is numpy's direct correlate loop, the same O(L^2) sum
    # without a Python loop per output; it never takes an FFT.
    return np.convolve(x, k)[: x.shape[0]].astype(x.dtype)


def _require_real(a: np.ndarray, name: str) -> None:
    if not np.issubdtype(a.dtype, np.floating):
        raise ValueError(f"{name} must be real floating point, got dtype {a.dtype}")


def _spectra(work: dict | None, shape: tuple, m: int, dtype) -> tuple:
    """out= targets for the size-m transforms of a real (B, H, L) array: the
    two complex (B, H, m/2+1) buffers that the work dict keeps for this shape
    and dtype, made on first use, or (None, None) without a workspace, so
    that numpy allocates each output as it always has."""
    if work is None:
        return None, None
    ctype = np.result_type(dtype, np.complex64)
    key = (shape[0], shape[1], m, ctype)
    if key not in work:
        size = (shape[0], shape[1], m // 2 + 1)
        work[key] = (np.empty(size, ctype), np.empty(size, ctype))
    return work[key]


def _real_rows(buf: np.ndarray | None, m: int) -> np.ndarray | None:
    """The first m reals of each row (stride m + 2) of a complex buffer, as an
    irfft target; None for None."""
    return None if buf is None else buf.view(buf.real.dtype)[..., :m]


def depthwise_conv_batch(
    x: np.ndarray, kernel, plan: ConvPlan, work: dict | None = None
) -> np.ndarray:
    """Per-channel causal convolution of a (B, H, L) batch of real floats.

    Channel h of the output depends only on channel h of the input and
    kernel.  Kernel spectra are computed once and shared across the batch.
    This is the only FFT convolution; a single sequence is a (1, 1, L) batch.
    With a work dict both large transforms go into its buffers (_spectra),
    and the result is a view into them, valid until the next call with that
    work.
    """
    x = np.asarray(x)
    kv = _kernel_values(kernel)
    if x.ndim != 3:
        raise ValueError(f"input must have shape (B, H, L), got {x.shape}")
    _require_real(x, "input")
    if kv.ndim != 2 or kv.shape[0] != x.shape[1]:
        raise ValueError(f"kernel shape {kv.shape} does not match input {x.shape}")
    if x.shape[2] != plan.seq_len or kv.shape[1] != plan.seq_len:
        raise ValueError(f"plan is for L={plan.seq_len}, got input L={x.shape[2]}")
    m = plan.fft_size
    kf = np.fft.rfft(kv.astype(x.dtype, copy=False), n=m)
    bx, by = _spectra(work, x.shape, m, x.dtype)
    xf = np.fft.rfft(x, n=m, out=bx)
    xf *= kf[None, :, :]
    y = np.fft.irfft(xf, n=m, out=_real_rows(by, m))[..., : plan.seq_len]
    return y.astype(x.dtype, copy=False)


def depthwise_conv_direct_batch(x: np.ndarray, kernel, block: int = 1024) -> np.ndarray:
    """Direct O(L^2) depthwise convolution via blocked triangular matmuls.

    The causal kernel matrix is Toeplitz, so its square blocks repeat along
    each diagonal; one block per diagonal offset is materialized.  Each
    channel's input is laid out block-major as (nb, B, t), so that diagonal
    e is one ((nb - e) * B, t) matrix product, added into output blocks
    e..nb-1 in order of increasing e.  Numerically equal to
    causal_conv_direct up to accumulation order.
    """
    x = np.asarray(x)
    kv = _kernel_values(kernel).astype(x.dtype, copy=False)
    if x.ndim != 3 or kv.ndim != 2 or kv.shape[0] != x.shape[1] or kv.shape[1] != x.shape[2]:
        raise ValueError(f"inconsistent shapes: input {x.shape}, kernel {kv.shape}")
    b, h, l = x.shape
    t = min(block, l)
    nb = -(-l // t)
    lp = nb * t
    kp = np.zeros((h, lp), dtype=x.dtype)
    kp[:, :l] = kv
    y = np.empty((b, h, nb, t), dtype=x.dtype)
    xpad = np.zeros((b, lp), dtype=x.dtype)  # one channel's input, zero past l
    xc = np.empty((nb, b, t), dtype=x.dtype)
    yc = np.empty((nb, b, t), dtype=x.dtype)
    for ch in range(h):
        kext = np.concatenate([np.zeros(t - 1, dtype=x.dtype), kp[ch]])
        windows = np.lib.stride_tricks.sliding_window_view(kext, t)  # windows[i, j] = kext[i + j]
        xpad[:, :l] = x[:, ch]
        xc[...] = xpad.reshape(b, nb, t).transpose(1, 0, 2)
        yc.fill(0)
        for e in range(nb):
            # (t, t): k[e*t + u - v], zero below diagonal reach
            blk = windows[e * t : (e + 1) * t, ::-1].copy()
            yc[e:] += (xc[: nb - e].reshape(-1, t) @ blk.T).reshape(nb - e, b, t)
        y[:, ch] = yc.transpose(1, 0, 2)
    return y.reshape(b, h, lp)[..., :l]
