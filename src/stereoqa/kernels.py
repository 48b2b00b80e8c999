"""Shared numeric kernels: convolution, pyramids, DCTs and gradients.

Border policy is edge replication everywhere so every metric sees the same
boundary behavior.  DCTs are orthonormal (type II) so Parseval holds exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft
import scipy.ndimage

from .errors import KernelTooLarge, ParamError, TooSmall

_BINOMIAL5 = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0
_SOBEL_X = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]])
_SOBEL_Y = _SOBEL_X.T


@dataclass
class Kernel2D:
    """K x K tap array; even K is allowed for the literal size-4 blur."""

    taps: np.ndarray


def _gaussian_taps(size: int, sigma: float, dims: int) -> np.ndarray:
    """Sampled Gaussian over ``dims`` axes of ``size`` samples centered at
    (size-1)/2, exp(-r**2 / (2 * sigma**2)) normalized to sum 1, where r**2
    sums the squared offsets; even sizes use half-integer offsets (e.g.
    -1.5..+1.5 for size 4).  Every Gaussian window is checked here:
    ParamError unless size >= 1, sigma > 0, 2 * sigma**2 is finite and some
    tap survives underflow."""
    if size < 1:
        raise ParamError("kernel size must be >= 1")
    if not sigma > 0:
        raise ParamError("sigma must be > 0")
    offs = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    r_sq = offs**2 if dims == 1 else offs[:, None] ** 2 + offs[None, :] ** 2
    # a numpy float: 2 * sigma**2 overflows to inf, not OverflowError, or underflows to 0
    with np.errstate(all="ignore"):
        two_sigma_sq = 2.0 * np.float64(sigma) ** 2
        g = np.exp(-r_sq / two_sigma_sq)
    if two_sigma_sq == np.inf:
        raise ParamError(f"sigma {sigma} too large for a size-{size} window")
    # an even size has no tap at offset 0, so a tiny sigma underflows them all
    if not g.sum() > 0:
        raise ParamError(f"sigma {sigma} too small for a size-{size} window")
    return g / g.sum()


def gaussian_kernel(size: int, sigma: float) -> Kernel2D:
    """Sampled Gaussian on a size x size grid, sum 1 (see _gaussian_taps)."""
    return Kernel2D(_gaussian_taps(size, sigma, 2))


def _check_window(size: int, shape, what: str) -> None:
    """KernelTooLarge unless a size x size window fits a frame of ``shape``;
    callers check before they build any taps.  ``what`` names the window,
    already formatted: ``size`` may have more digits than ``str`` allows."""
    if size > min(shape):
        raise KernelTooLarge(f"{what} is wider than the {shape} frame")


def convolve2d(image: np.ndarray, kernel: Kernel2D) -> np.ndarray:
    """Same-size 2-D convolution with replicated borders."""
    image = np.asarray(image, dtype=np.float64)
    _check_window(kernel.taps.shape[0], image.shape, f"kernel {kernel.taps.shape}")
    return scipy.ndimage.convolve(image, kernel.taps, mode="nearest")


def gaussian_smooth(image: np.ndarray, size: int, sigma: float) -> np.ndarray:
    """convolve2d with gaussian_kernel(size, sigma), as two 1-D passes.

    The taps use gaussian_kernel's offsets, so even sizes keep its origin;
    results agree with the 2-D convolution to rounding (about 1e-13).
    """
    image = np.asarray(image, dtype=np.float64)
    _check_window(size, image.shape, f"smoothing size {size}")
    g = _gaussian_taps(size, sigma, 1)
    low = scipy.ndimage.convolve1d(image, g, axis=0, mode="nearest")
    return scipy.ndimage.convolve1d(low, g, axis=1, mode="nearest")


def downsample2(image: np.ndarray) -> np.ndarray:
    """Binomial [1,4,6,4,1]/16 low-pass, then keep every second sample.

    The vertical pass filters every row; the horizontal pass filters only the
    even rows that pass leaves, since each of its output rows reads one input
    row, so the result is bit-identical to filtering everything and then
    decimating."""
    image = np.asarray(image, dtype=np.float64)
    if image.shape[0] < 2 or image.shape[1] < 2:
        raise TooSmall(f"cannot halve image of shape {image.shape}")
    low = scipy.ndimage.correlate1d(image, _BINOMIAL5, axis=0, mode="nearest")
    # a contiguous copy: correlate1d along a strided view is slower than copying
    low = np.ascontiguousarray(low[::2])
    return scipy.ndimage.correlate1d(low, _BINOMIAL5, axis=1, mode="nearest")[:, ::2]


def pyramid(image: np.ndarray, levels: int) -> list[np.ndarray]:
    """``image`` and up to ``levels - 1`` repeated downsample2 halvings of it,
    stopping at the first level with a side of 1.  The one rule for how many
    levels a frame has: image, saliency and VAM pyramids all come from here."""
    pyr = [image]
    while len(pyr) < levels and min(pyr[-1].shape) > 1:
        pyr.append(downsample2(pyr[-1]))
    return pyr


def dct2_stack(blocks: np.ndarray) -> np.ndarray:
    """Orthonormal 2-D DCT-II over the trailing two axes of (..., N, N)."""
    return scipy.fft.dctn(np.asarray(blocks, dtype=np.float64),
                          type=2, norm="ortho", axes=(-2, -1))


def idct2_stack(blocks: np.ndarray) -> np.ndarray:
    return scipy.fft.idctn(np.asarray(blocks, dtype=np.float64),
                           type=2, norm="ortho", axes=(-2, -1))


def dct3_stereo_stack(pairs: np.ndarray) -> np.ndarray:
    """3-D DCT of each 4x4x2 left/right block pair of an (n, 4, 4, 2) stack
    (separable, orthonormal): the 2-D DCT of each view slab, then the 2-point
    DCT along the view axis."""
    slabs = scipy.fft.dctn(np.asarray(pairs, dtype=np.float64),
                           type=2, norm="ortho", axes=(1, 2))
    out = np.empty_like(slabs)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    out[..., 0] = (slabs[..., 0] + slabs[..., 1]) * inv_sqrt2
    out[..., 1] = (slabs[..., 0] - slabs[..., 1]) * inv_sqrt2
    return out


def sobel_gradient(image: np.ndarray) -> dict:
    """3x3 Sobel gradients with replicated borders."""
    image = np.asarray(image, dtype=np.float64)
    if image.shape[0] < 3 or image.shape[1] < 3:
        raise TooSmall("needs at least a 3x3 image")
    gx = scipy.ndimage.correlate(image, _SOBEL_X, mode="nearest")
    gy = scipy.ndimage.correlate(image, _SOBEL_Y, mode="nearest")
    return {"gx": gx, "gy": gy, "magnitude": np.sqrt(gx * gx + gy * gy)}
