"""Shared numeric kernels: convolution, pyramids, DCTs and gradients.

Border policy is edge replication everywhere so every metric sees the same
boundary behavior.  DCTs are orthonormal (type II) so Parseval holds exactly.
Every filter runs through _by_rows: a frame of _SPLIT_PIXELS pixels or more
is cut into row strips over the CPUs the process may use, a smaller one is one
strip on the calling thread, and either way the result is bit-identical to one
whole scipy.ndimage call.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.fft
import scipy.ndimage

from .errors import KernelTooLarge, ParamError, TooSmall

_BINOMIAL5 = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0
_SOBEL_X = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]])
_SOBEL_Y = _SOBEL_X.T


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# Strips of one filter call run on this many threads, the calling one
# included; 1 (e.g. under ``taskset -c 0``) runs every call as one strip.
_WORKERS = _usable_cpus()
# Pixels from which a frame is split, whatever the taps.  On 2 vCPUs, with
# every filter call of one pass of each benchmark workload timed whole and
# split, this rule gave the total filter time of a multiply-add threshold to
# within 1.3 % either way (see README, "Performance").
_SPLIT_PIXELS = 2**14
_pool = None
_pool_lock = threading.Lock()


def _forget_pool() -> None:
    """In a forked child the pool's threads are gone: the next split call
    starts a new pool."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _executor() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(_WORKERS, thread_name_prefix="stereoqa-rows")
        return _pool


def _by_rows(filt, image: np.ndarray, taps: np.ndarray, step: int = 1) -> np.ndarray:
    """Every ``step``-th row of ``image`` filtered by the scipy.ndimage
    ``filt`` with ``taps`` and replicated borders.

    2-D taps run as one ``filt`` call; 1-D taps run down the columns, then
    along the kept rows.  The image is cut into row strips, each with
    ``taps.shape[0] // 2 + 1`` rows of halo on either side (fewer only at the
    frame's edge), and each strip keeps its own rows, so every kept pixel
    sees the same taps in the same order as in one whole call: the result is
    bit-identical.  An image of _SPLIT_PIXELS pixels or more is _WORKERS
    strips run at once, one on the calling thread; a smaller one is one strip
    on the calling thread.  Pool threads run only these scipy calls, and
    every output and scratch array is allocated here, on the calling
    thread."""
    halo = taps.shape[0] // 2 + 1
    rows = (image.shape[0] + step - 1) // step
    out = np.empty((rows, *image.shape[1:]))
    n = min(_WORKERS, rows) if image.size >= _SPLIT_PIXELS else 1
    cuts = [rows * k // n for k in range(n + 1)]
    strips = []
    for o0, o1 in zip(cuts, cuts[1:]):
        s0 = max(o0 * step - halo, 0)
        s1 = min((o1 - 1) * step + 1 + halo, image.shape[0])
        strips.append((image[s0:s1], np.empty((s1 - s0, *image.shape[1:])),
                       slice(o0 * step - s0, (o1 - 1) * step - s0 + 1, step), out[o0:o1]))

    def run(strip, scratch, own, target):
        if taps.ndim == 2:
            filt(strip, taps, output=scratch, mode="nearest")
            target[...] = scratch[own]
        else:
            filt(strip, taps, axis=0, output=scratch, mode="nearest")
            filt(scratch[own], taps, axis=1, output=target, mode="nearest")

    futures = [_executor().submit(run, *strip) for strip in strips[1:]]
    run(*strips[0])
    for future in futures:
        future.result()
    return out


@dataclass
class Kernel2D:
    """2-D tap array: K x K, or one line of taps for the nrpbm_s probe; an
    even side is allowed for the literal size-4 blur."""

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
    taps = kernel.taps
    _check_window(max(taps.shape), image.shape, f"kernel {taps.shape}")
    return _by_rows(scipy.ndimage.convolve, image, taps)


def gaussian_smooth(image: np.ndarray, size: int, sigma: float) -> np.ndarray:
    """convolve2d with gaussian_kernel(size, sigma), as two 1-D passes.

    The taps use gaussian_kernel's offsets, so even sizes keep its origin;
    results agree with the 2-D convolution to rounding (about 1e-13).
    """
    image = np.asarray(image, dtype=np.float64)
    _check_window(size, image.shape, f"smoothing size {size}")
    return _by_rows(scipy.ndimage.convolve1d, image, _gaussian_taps(size, sigma, 1))


def downsample2(image: np.ndarray) -> np.ndarray:
    """Binomial [1,4,6,4,1]/16 low-pass, then keep every second sample.

    The vertical pass filters every row; the horizontal pass filters only the
    even rows that pass leaves, since each of its output rows reads one input
    row, so the result is bit-identical to filtering everything and then
    decimating."""
    image = np.asarray(image, dtype=np.float64)
    if image.shape[0] < 2 or image.shape[1] < 2:
        raise TooSmall(f"cannot halve image of shape {image.shape}")
    return _by_rows(scipy.ndimage.correlate1d, image, _BINOMIAL5, step=2)[:, ::2]


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
    gx, gy = (_by_rows(scipy.ndimage.correlate, image, taps) for taps in (_SOBEL_X, _SOBEL_Y))
    return {"gx": gx, "gy": gy, "magnitude": np.sqrt(gx * gx + gy * gy)}
