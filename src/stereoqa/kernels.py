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

DCT_SIZES = (4, 8)
_BINOMIAL5 = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0
_SOBEL_X = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]])
_SOBEL_Y = _SOBEL_X.T


@dataclass
class Kernel2D:
    """K x K tap array; even K is allowed for the literal size-4 blur."""

    taps: np.ndarray

    def __post_init__(self):
        self.taps = np.asarray(self.taps, dtype=np.float64)
        if self.taps.ndim != 2 or self.taps.shape[0] != self.taps.shape[1]:
            raise ParamError("kernel must be square")
        if self.taps.shape[0] < 1:
            raise ParamError("kernel must be at least 1x1")
        if not np.all(np.isfinite(self.taps)):
            raise ParamError("non-finite kernel taps")

    @property
    def size(self) -> int:
        return self.taps.shape[0]


def gaussian_kernel(size: int, sigma: float) -> Kernel2D:
    """Sampled Gaussian on a size x size grid centered at (size-1)/2, sum 1.

    Even sizes use half-integer offsets (e.g. -1.5..+1.5 for size 4).
    """
    if size < 1:
        raise ParamError("kernel size must be >= 1")
    if sigma <= 0:
        raise ParamError("sigma must be > 0")
    offs = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    g = np.exp(-(offs[:, None] ** 2 + offs[None, :] ** 2) / (2.0 * sigma**2))
    return Kernel2D(g / g.sum())


def convolve2d(image: np.ndarray, kernel: Kernel2D) -> np.ndarray:
    """Same-size 2-D convolution with replicated borders."""
    image = np.asarray(image, dtype=np.float64)
    k = kernel.taps
    if k.shape[0] > image.shape[0] or k.shape[1] > image.shape[1]:
        raise KernelTooLarge(
            f"kernel {k.shape} larger than image {image.shape}"
        )
    return scipy.ndimage.convolve(image, k, mode="nearest")


def gaussian_smooth(image: np.ndarray, size: int, sigma: float) -> np.ndarray:
    """convolve2d with gaussian_kernel(size, sigma), as two 1-D passes.

    The taps use gaussian_kernel's offsets, so even sizes keep its origin;
    results agree with the 2-D convolution to rounding (about 1e-13).
    """
    image = np.asarray(image, dtype=np.float64)
    if size < 1:
        raise ParamError("kernel size must be >= 1")
    if sigma <= 0:
        raise ParamError("sigma must be > 0")
    if size > image.shape[0] or size > image.shape[1]:
        raise KernelTooLarge(
            f"kernel {(size, size)} larger than image {image.shape}"
        )
    offs = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    g = np.exp(-offs**2 / (2.0 * sigma**2))
    g /= g.sum()
    low = scipy.ndimage.convolve1d(image, g, axis=0, mode="nearest")
    return scipy.ndimage.convolve1d(low, g, axis=1, mode="nearest")


def downsample2(image: np.ndarray) -> np.ndarray:
    """Binomial [1,4,6,4,1]/16 low-pass, then keep every second sample."""
    image = np.asarray(image, dtype=np.float64)
    if image.shape[0] < 2 or image.shape[1] < 2:
        raise TooSmall(f"cannot halve image of shape {image.shape}")
    low = scipy.ndimage.correlate1d(image, _BINOMIAL5, axis=0, mode="nearest")
    low = scipy.ndimage.correlate1d(low, _BINOMIAL5, axis=1, mode="nearest")
    return low[::2, ::2]


def halving_chain(height: int, width: int, levels: int) -> list[tuple[int, int]]:
    """Shape of each pyramid level produced by repeated downsample2."""
    dims = [(height, width)]
    for _ in range(levels - 1):
        h, w = dims[-1]
        dims.append(((h + 1) // 2, (w + 1) // 2))
    return dims


def _check_block(block: np.ndarray) -> np.ndarray:
    block = np.asarray(block, dtype=np.float64)
    if block.ndim != 2 or block.shape[0] != block.shape[1]:
        raise ParamError("block must be square")
    if block.shape[0] not in DCT_SIZES:
        raise ParamError(f"unsupported block size {block.shape[0]} (use 4 or 8)")
    return block


def dct2(block: np.ndarray) -> np.ndarray:
    """Orthonormal 2-D DCT-II of a 4x4 or 8x8 block."""
    return scipy.fft.dctn(_check_block(block), type=2, norm="ortho")


def idct2(block: np.ndarray) -> np.ndarray:
    return scipy.fft.idctn(_check_block(block), type=2, norm="ortho")


def dct2_stack(blocks: np.ndarray) -> np.ndarray:
    """Orthonormal 2-D DCT-II over the trailing two axes of (n, N, N)."""
    return scipy.fft.dctn(np.asarray(blocks, dtype=np.float64),
                          type=2, norm="ortho", axes=(-2, -1))


def idct2_stack(blocks: np.ndarray) -> np.ndarray:
    return scipy.fft.idctn(np.asarray(blocks, dtype=np.float64),
                           type=2, norm="ortho", axes=(-2, -1))


def dct3_stereo(block_pair: np.ndarray) -> np.ndarray:
    """3-D DCT of a 4x4x2 left/right block pair (separable, orthonormal).

    2-D DCT on each view slab, then the 2-point DCT along the view axis.
    """
    block_pair = np.asarray(block_pair, dtype=np.float64)
    if block_pair.shape != (4, 4, 2):
        raise ParamError(f"expected shape (4, 4, 2), got {block_pair.shape}")
    return dct3_stereo_stack(block_pair[None])[0]


def idct3_stereo(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of dct3_stereo (the view-axis butterfly is its own inverse)."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if coeffs.shape != (4, 4, 2):
        raise ParamError(f"expected shape (4, 4, 2), got {coeffs.shape}")
    slabs = np.empty_like(coeffs)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    slabs[:, :, 0] = (coeffs[:, :, 0] + coeffs[:, :, 1]) * inv_sqrt2
    slabs[:, :, 1] = (coeffs[:, :, 0] - coeffs[:, :, 1]) * inv_sqrt2
    return scipy.fft.idctn(slabs, type=2, norm="ortho", axes=(0, 1))


def dct3_stereo_stack(pairs: np.ndarray) -> np.ndarray:
    """dct3_stereo over a stack shaped (n, 4, 4, 2)."""
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
