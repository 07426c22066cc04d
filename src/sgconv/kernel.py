"""Multiscale global convolution kernels.

A length-L kernel is assembled per channel from N sub-kernels of doubling
length, each upsampled from the same number of parameters d, so the
per-channel parameter count N*d grows only logarithmically in L.  Nearer
sub-kernels receive larger combination weights, either through a geometric
per-scale coefficient (``concat`` mode) or through an explicit per-position
power-law multiplier (``disentangled`` mode).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

MODES = ("concat", "disentangled")
INITS = ("gaussian", "cosine")

# Unit-norm tolerance guaranteed immediately after initialization.
NORM_ATOL = 1e-6


@dataclass(frozen=True)
class KernelConfig:
    """Hyperparameters of the kernel construction.

    Attributes:
        seq_len: kernel length L (equals the sequence length).
        scale_dim: parameters per scale d, with 1 <= d <= L.
        channels: number of independent depthwise channels H.
        mode: "concat" (geometric per-scale decay alpha**i) or
            "disentangled" (per-position decay p**-t).
        decay_alpha: geometric decay coefficient, concat mode only, in (0, 1].
        decay_t: position-decay exponent, disentangled mode only, finite, >= 0.
        init: "gaussian" or "cosine" parameter initialization.
    """

    seq_len: int
    scale_dim: int
    channels: int = 1
    mode: str = "concat"
    decay_alpha: float = 0.5
    decay_t: float = 1.0
    init: str = "gaussian"

    def __post_init__(self):
        if self.seq_len < 1:
            raise ValueError(f"seq_len must be positive, got {self.seq_len}")
        if not 1 <= self.scale_dim <= self.seq_len:
            raise ValueError(
                f"scale_dim must satisfy 1 <= d <= seq_len, got d={self.scale_dim}, L={self.seq_len}"
            )
        if self.channels < 1:
            raise ValueError(f"channels must be >= 1, got {self.channels}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.init not in INITS:
            raise ValueError(f"init must be one of {INITS}, got {self.init!r}")
        if not 0.0 < self.decay_alpha <= 1.0:
            raise ValueError(f"decay_alpha must be in (0, 1], got {self.decay_alpha}")
        if not 0.0 <= self.decay_t < float("inf"):  # NaN fails too
            raise ValueError(f"decay_t must be >= 0 and finite, got {self.decay_t}")

    @property
    def num_scales(self) -> int:
        return num_scales(self.seq_len, self.scale_dim)


@dataclass(frozen=True)
class ScaleParams:
    """Learnable per-channel, per-scale parameter vectors.

    ``weights[h, i, :]`` is the d-vector for scale i of channel h.  ``alphas``
    optionally carries a fixed per-channel decay coefficient (cosine init in
    concat mode assigns one per channel); it is a hyperparameter, never
    trained.
    """

    weights: np.ndarray
    alphas: np.ndarray | None = None

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 3:
            raise ValueError(f"weights must have shape (H, N, d), got {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights contain non-finite values")
        object.__setattr__(self, "weights", w)
        if self.alphas is not None:
            a = np.asarray(self.alphas, dtype=np.float64)
            if a.shape != (w.shape[0],):
                raise ValueError(
                    f"alphas must have shape ({w.shape[0]},), got {a.shape}"
                )
            if not np.all((a > 0.0) & (a <= 1.0)):
                raise ValueError("alphas must lie in (0, 1]")
            object.__setattr__(self, "alphas", a)

    @property
    def channels(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class MaterializedKernel:
    """Assembled length-L kernel per channel with its frozen normalizer."""

    values: np.ndarray  # (H, L)
    normalizer: np.ndarray  # (H,)

    def __post_init__(self):
        v = np.asarray(self.values)
        z = np.asarray(self.normalizer)
        if v.ndim != 2 or z.shape != (v.shape[0],):
            raise ValueError(
                f"inconsistent kernel shapes: values {v.shape}, normalizer {z.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("kernel contains non-finite values")


def num_scales(seq_len: int, scale_dim: int) -> int:
    """Number of scales N = ceil(log2(L/d)) + 1, computed exactly.

    With N scales the concatenated sub-kernels cover d * 2**(N-1) >= L
    positions, so the assembled kernel always reaches full length.
    """
    if scale_dim < 1:
        raise ValueError(f"scale_dim must be >= 1, got {scale_dim}")
    if scale_dim > seq_len:
        raise ValueError(f"scale_dim {scale_dim} exceeds seq_len {seq_len}")
    n, cover = 1, scale_dim
    while cover < seq_len:
        cover *= 2
        n += 1
    return n


def sub_kernel_len(i: int, scale_dim: int) -> int:
    """Length of the i-th sub-kernel: 2**max(i-1, 0) * d."""
    if i < 0:
        raise ValueError(f"scale index must be >= 0, got {i}")
    return (1 << max(i - 1, 0)) * scale_dim


def upsample_linear(w: np.ndarray, target_len: int) -> np.ndarray:
    """Align-corners linear interpolation of the last axis to target_len.

    Output position j reads source coordinate j*(d-1)/(target_len-1); the
    first and last source points map exactly onto the first and last outputs.
    A single source point broadcasts to a constant vector.  The result is
    C-contiguous.
    """
    w = np.asarray(w)
    d = w.shape[-1]
    if target_len < d:
        raise ValueError(f"cannot upsample length {d} to shorter length {target_len}")
    if target_len == d:
        return w.copy()
    if d == 1:
        return np.broadcast_to(w, w.shape[:-1] + (target_len,)).copy()
    lo, hi, frac = _interp_indices(d, target_len)
    return np.take(w, lo, axis=-1) * (1.0 - frac) + np.take(w, hi, axis=-1) * frac


def _interp_indices(d: int, target_len: int):
    """Source indices and blend weights of align-corners interpolation."""
    pos = np.arange(target_len) * ((d - 1) / (target_len - 1))
    lo = np.minimum(pos.astype(np.int64), d - 2)
    frac = pos - lo
    return lo, lo + 1, frac


def compute_normalizer(raw_kernel: np.ndarray) -> np.ndarray:
    """L2 norm along the last axis; rejects all-zero kernels."""
    raw = np.asarray(raw_kernel)
    if not np.all(np.isfinite(raw)):
        raise ValueError("raw kernel contains non-finite values")
    z = np.linalg.norm(raw, axis=-1)
    if np.any(z == 0.0):
        raise ValueError("all-zero kernel has no normalizer")
    return z


def position_decay(seq_len: int, t: float) -> np.ndarray:
    """Per-position f64 multiplier [1**-t, 2**-t, ..., L**-t] (1-indexed)."""
    if t < 0.0:
        raise ValueError(f"decay exponent must be >= 0, got {t}")
    return np.arange(1, seq_len + 1, dtype=np.float64) ** (-t)


def _check_params(params: ScaleParams, config: KernelConfig) -> None:
    expect = (config.channels, config.num_scales, config.scale_dim)
    if params.weights.shape != expect:
        raise ValueError(
            f"params shape {params.weights.shape} does not match config {expect}"
        )


# Largest M, in entries (8 MB), that the builder and its pullback multiply
# by: a product costs d multiply-adds per kernel entry, so a scale past it
# (d near L) takes the upsample_linear / upsample_adjoint formulas instead.
DENSE_MAX = 1 << 20


@functools.lru_cache(maxsize=32)
def _interp_matrix(d: int, n: int) -> np.ndarray:
    """Read-only (d, n) matrix M with ``w @ M == upsample_linear(w, n)``.

    Upsampling is linear in the knots, so each sub-kernel is one matrix
    product.
    """
    m = upsample_linear(np.eye(d), n)
    m.flags.writeable = False
    return m


def _scale_coefs(params: ScaleParams, config: KernelConfig, inv_z=1.0) -> np.ndarray:
    """(H, N, 1) or (1, N, 1) per-scale multipliers: alpha**i in concat mode
    (1 in disentangled mode), times inv_z."""
    coef = np.ones((1, config.num_scales))
    if config.mode == "concat":
        alpha = params.alphas if params.alphas is not None else config.decay_alpha
        coef = np.asarray(alpha).reshape(-1, 1) ** np.arange(config.num_scales)
    return (coef * np.asarray(inv_z).reshape(-1, 1))[:, :, None]


def _scale_maps(config: KernelConfig):
    """Yield (i, offset, n, M) per scale: where sub-kernel i starts, how many
    of its positions lie below L, and M(d, len_i) cut to those n columns,
    or None where M would exceed DENSE_MAX entries."""
    L, d = config.seq_len, config.scale_dim
    off = 0
    for i in range(config.num_scales):
        li = sub_kernel_len(i, d)
        n = min(li, L - off)
        yield i, off, n, _interp_matrix(d, li)[:, :n] if d * li <= DENSE_MAX else None
        off += n


def _assemble(params: ScaleParams, config: KernelConfig, inv_z=1.0) -> np.ndarray:
    """(H, L) kernel times inv_z: sub-kernel i of every channel is
    ``(coef_i * W[:, i, :]) @ M(d, len_i)``, written into its slice; disentangled
    mode then applies the position decay."""
    w = params.weights * _scale_coefs(params, config, inv_z)
    out = np.empty((params.channels, config.seq_len))
    for i, off, n, m in _scale_maps(config):
        if m is None:
            li = sub_kernel_len(i, config.scale_dim)
            out[:, off : off + n] = upsample_linear(w[:, i, :], li)[:, :n]
        else:
            np.matmul(w[:, i, :], m, out=out[:, off : off + n])
    if config.mode == "disentangled":
        out *= position_decay(config.seq_len, config.decay_t)[None, :]
    return out


def materialize(
    params: ScaleParams,
    config: KernelConfig,
    normalizer: np.ndarray | None = None,
) -> MaterializedKernel:
    """Build the per-channel kernel from parameters.

    When ``normalizer`` is None (initialization) each channel is divided by
    its own L2 norm, which is then frozen inside the returned kernel.  During
    training the frozen value is passed back in and never recomputed; its
    reciprocal is folded into the small per-scale weight slices.
    """
    _check_params(params, config)
    if normalizer is None:
        raw = _assemble(params, config)
        z = compute_normalizer(raw)
        return MaterializedKernel(values=raw / z[:, None], normalizer=z)
    z = np.asarray(normalizer, dtype=np.float64)
    if z.shape != (config.channels,):
        raise ValueError(f"normalizer must have shape ({config.channels},), got {z.shape}")
    return MaterializedKernel(values=_assemble(params, config, 1.0 / z), normalizer=z)


def init_params(config: KernelConfig, rng: np.random.Generator) -> ScaleParams:
    """Draw initial ScaleParams; deterministic given the generator.

    gaussian: i.i.d. standard normal entries.  cosine: each channel's
    per-scale vector samples cos(2*pi*f_h*x) on d grid points x in [0, 1],
    with f_h log-uniform in [1, max(1, d/2)]; in concat mode each channel
    also receives a fixed decay coefficient drawn uniformly from [1/3, 1].
    """
    H, N, d = config.channels, config.num_scales, config.scale_dim
    alphas = None
    if config.init == "gaussian":
        weights = rng.normal(0.0, 1.0, size=(H, N, d))
    else:
        f_hi = max(1.0, d / 2.0)
        freqs = np.exp(rng.uniform(0.0, np.log(f_hi), size=H))
        grid = np.linspace(0.0, 1.0, d) if d > 1 else np.zeros(1)
        wave = np.cos(2.0 * np.pi * freqs[:, None] * grid[None, :])  # (H, d)
        weights = np.repeat(wave[:, None, :], N, axis=1)
        if config.mode == "concat":
            alphas = rng.uniform(1.0 / 3.0, 1.0, size=H)
    return ScaleParams(weights=weights, alphas=alphas)


def init_kernel(
    config: KernelConfig, rng: np.random.Generator
) -> tuple[ScaleParams, MaterializedKernel]:
    """Initialize parameters and materialize the unit-norm kernel."""
    params = init_params(config, rng)
    return params, materialize(params, config)


def write_kernel_csv(kernel: MaterializedKernel, path) -> None:
    """Dump a kernel as CSV rows `channel,position,value`.

    Positions are 0-indexed; values carry 9 significant digits in
    scientific notation.  The write is atomic (temp file + rename).
    """
    from .ioutil import atomic_write_text

    lines = ["channel,position,value"]
    H, L = kernel.values.shape
    for h in range(H):
        for pos in range(L):
            lines.append(f"{h},{pos},{kernel.values[h, pos]:.8e}")
    atomic_write_text(path, "\n".join(lines) + "\n")
