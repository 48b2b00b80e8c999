"""Shared numeric kernels: convolution, pyramids, DCTs and gradients.

Border policy is edge replication everywhere so every metric sees the same
boundary behavior.  DCTs are orthonormal (type II) so Parseval holds exactly.
Every filter is a same-size convolution run by _by_rows: a frame of
_SPLIT_PIXELS pixels or more is cut into row strips over the CPUs the process
may use, a smaller one is one strip on the calling thread, and either way the
result is bit-identical to one whole scipy.ndimage call.  The NR re-record
replaces nr._box_mean, every NR box and line mean, with exact box sums.

This is the one module that imports scipy, and it imports only the root
package.  The filters and DCTs run scipy's own compiled loops: the extension
modules scipy.ndimage._nd_image and scipy.fft._pocketfft.pypocketfft are
loaded from their files under the installed scipy, and called with exactly
the arguments that the public convolve1d, convolve, dctn and idctn pass them.
Importing scipy.ndimage or scipy.fft would run their package __init__s, which
bring in scipy's array-API layer, scipy.special, numpy.f2py and numpy.testing
for these three functions: on a 2-vCPU VM, ``import stereoqa.cli`` took 0.58 s
and peaked at 59 MB with them, 0.23 s and 36 MB without.  The tests compare
every call with the installed scipy's public API.
"""

from __future__ import annotations

import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec

import numpy as np
import scipy

from .errors import KernelTooLarge, ParamError, TooSmall

_BINOMIAL5 = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0
# in convolution orientation (flipped), so gx is right minus left
_SOBEL_X = np.array([[1.0, 0.0, -1.0], [2.0, 0.0, -2.0], [1.0, 0.0, -1.0]])
_SOBEL_Y = _SOBEL_X.T


def _scipy_extension(name: str):
    """The compiled module ``name`` of the installed scipy, loaded from its
    file alone: a dotted import would first run the __init__ of every package
    above it."""
    directory = os.path.join(os.path.dirname(scipy.__file__), *name.split(".")[1:-1])
    spec = FileFinder(directory, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(name)
    if spec is None:
        raise ImportError(f"scipy {scipy.__version__} has no compiled module {name}")
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    # a single-phase extension enters itself in sys.modules; with no parent
    # package there, a later import of that package would not bind it
    sys.modules.pop(name, None)
    return module


_nd_image = _scipy_extension("scipy.ndimage._nd_image")
_pocketfft = _scipy_extension("scipy.fft._pocketfft.pypocketfft")
# scipy.ndimage's code for mode="nearest" (edge replication)
_NEAREST = 0
# pypocketfft's normalization code for norm="ortho", in both directions
_ORTHO = 1


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


def _by_rows(image: np.ndarray, taps: np.ndarray, step: int = 1) -> np.ndarray:
    """Every ``step``-th row of ``image``, read as float64, convolved with
    ``taps`` with replicated borders.

    2-D taps run as one scipy.ndimage.convolve call; 1-D taps run as
    convolve1d down the columns, then along the kept rows, each as the
    compiled correlation that function calls: the taps flipped, and the
    origin moved back by one along an axis with an even number of taps.  The
    image is cut into row strips, each with ``taps.shape[0] // 2 + 1`` rows
    of halo on either side (fewer only at the frame's edge), and each strip
    keeps its own rows, so every kept pixel sees the same taps in the same
    order as in one whole call: the result is bit-identical.  An image of
    _SPLIT_PIXELS pixels or more is _WORKERS strips run at once, one on the
    calling thread; a smaller one is one strip on the calling thread.  Pool
    threads run only these scipy calls, and every output and scratch array
    is allocated here, on the calling thread."""
    image = np.asarray(image, dtype=np.float64)
    weights = np.ascontiguousarray(taps[(slice(None, None, -1),) * taps.ndim], dtype=np.float64)
    origins = [n % 2 - 1 for n in taps.shape]
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
            _nd_image.correlate(strip, weights, scratch, _NEAREST, 0.0, origins)
            target[...] = scratch[own]
        else:
            _nd_image.correlate1d(strip, weights, 0, scratch, _NEAREST, 0.0, origins[0])
            _nd_image.correlate1d(scratch[own], weights, 1, target, _NEAREST, 0.0, origins[0])

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


def _gaussian_taps(size: int, sigma: float, dims: int, what: str) -> np.ndarray:
    """Sampled Gaussian over ``dims`` axes of ``size`` samples centered at
    (size-1)/2, exp(-r**2 / (2 * sigma**2)) normalized to sum 1, where r**2
    sums the squared offsets; even sizes use half-integer offsets (e.g.
    -1.5..+1.5 for size 4).  Every Gaussian window is checked here:
    ParamError, naming the sigma ``what``, unless size >= 1, sigma > 0,
    2 * sigma**2 is finite and some tap survives underflow."""
    if size < 1:
        raise ParamError("kernel size must be >= 1")
    if not sigma > 0:
        raise ParamError(f"{what} must be > 0")
    offs = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    r_sq = offs**2 if dims == 1 else offs[:, None] ** 2 + offs[None, :] ** 2
    # a numpy float: 2 * sigma**2 overflows to inf, not OverflowError, or underflows to 0
    with np.errstate(all="ignore"):
        two_sigma_sq = 2.0 * np.float64(sigma) ** 2
        g = np.exp(-r_sq / two_sigma_sq)
    if two_sigma_sq == np.inf:
        raise ParamError(f"{what} {sigma} too large for a size-{size} window")
    # an even size has no tap at offset 0, so a tiny sigma underflows them all
    if not g.sum() > 0:
        raise ParamError(f"{what} {sigma} too small for a size-{size} window")
    return g / g.sum()


def gaussian_kernel(size: int, sigma: float, what: str = "sigma") -> Kernel2D:
    """Sampled Gaussian on a size x size grid, sum 1 (see _gaussian_taps)."""
    return Kernel2D(_gaussian_taps(size, sigma, 2, what))


def _check_window(size: int, shape, what: str) -> None:
    """KernelTooLarge unless a size x size window fits a frame of ``shape``;
    callers check before they build any taps.  ``what`` names the window,
    already formatted: ``size`` may have more digits than ``str`` allows."""
    if size > min(shape):
        raise KernelTooLarge(f"{what} is wider than the {shape} frame")


def convolve2d(image: np.ndarray, kernel: Kernel2D) -> np.ndarray:
    """Same-size 2-D convolution with replicated borders."""
    taps = kernel.taps
    _check_window(max(taps.shape), image.shape, f"kernel {taps.shape}")
    return _by_rows(image, taps)


def gaussian_smooth(image: np.ndarray, size: int, sigma: float,
                    what: str = "sigma") -> np.ndarray:
    """convolve2d with gaussian_kernel(size, sigma, what), as two 1-D passes.

    The taps use gaussian_kernel's offsets, so even sizes keep its origin;
    results agree with the 2-D convolution to rounding (about 1e-13).
    """
    _check_window(size, image.shape, f"smoothing size {size}")
    return _by_rows(image, _gaussian_taps(size, sigma, 1, what))


def downsample2(image: np.ndarray) -> np.ndarray:
    """Binomial [1,4,6,4,1]/16 low-pass, then keep every second sample.

    The vertical pass filters every row; the horizontal pass filters only the
    even rows that pass leaves, since each of its output rows reads one input
    row, so the result is bit-identical to filtering everything and then
    decimating.  The level is a fresh C-contiguous array: a strided view would
    pin the full-width output of the vertical pass."""
    if image.shape[0] < 2 or image.shape[1] < 2:
        raise TooSmall(f"cannot halve image of shape {image.shape}")
    return _by_rows(image, _BINOMIAL5, step=2)[:, ::2].copy()


def pyramid_shapes(shape, levels: int) -> list[tuple[int, int]]:
    """The level shapes of ``iter_pyramid`` of an image of ``shape``: the
    shape and up to ``levels - 1`` halvings of it, each side rounded up as
    downsample2 rounds it, stopping at the first level with a side of 1.
    The one rule for how many levels a frame has: image, saliency and VAM
    pyramids all follow it."""
    shapes = [tuple(shape)]
    while len(shapes) < levels and min(shapes[-1]) > 1:
        h, w = shapes[-1]
        shapes.append(((h + 1) // 2, (w + 1) // 2))
    return shapes


def iter_pyramid(image: np.ndarray, levels: int):
    """``image`` and up to ``levels - 1`` repeated downsample2 halvings of it,
    with the shapes of ``pyramid_shapes``, one at a time, each made when it
    is asked for: the generator holds only the level it gave last."""
    for k in range(len(pyramid_shapes(image.shape, levels))):
        if k:
            image = downsample2(image)
        yield image


def _dct(values, kind: int, axes) -> np.ndarray:
    """The compiled call that scipy.fft.dctn(type=2) (``kind`` 2) and
    idctn(type=2) (``kind`` 3) make with norm="ortho": axes made
    non-negative, one thread."""
    values = np.asarray(values, dtype=np.float64)
    return _pocketfft.dct(values, kind, [a % values.ndim for a in axes], _ORTHO, None, 1, None)


def dct2_stack(blocks: np.ndarray) -> np.ndarray:
    """Orthonormal 2-D DCT-II over the trailing two axes of (..., N, N)."""
    return _dct(blocks, 2, (-2, -1))


def idct2_stack(blocks: np.ndarray) -> np.ndarray:
    """The inverse of dct2_stack: the orthonormal DCT-III, as idctn(type=2)."""
    return _dct(blocks, 3, (-2, -1))


def dct3_stereo_stack(pairs: np.ndarray) -> np.ndarray:
    """3-D DCT of each 4x4x2 left/right block pair of an (n, 4, 4, 2) stack
    (separable, orthonormal): the 2-D DCT of each view slab, then the 2-point
    DCT along the view axis."""
    slabs = _dct(pairs, 2, (1, 2))
    out = np.empty_like(slabs)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    out[..., 0] = (slabs[..., 0] + slabs[..., 1]) * inv_sqrt2
    out[..., 1] = (slabs[..., 0] - slabs[..., 1]) * inv_sqrt2
    return out


def sobel_gradient(image: np.ndarray) -> dict:
    """3x3 Sobel gradients with replicated borders."""
    if image.shape[0] < 3 or image.shape[1] < 3:
        raise TooSmall("needs at least a 3x3 image")
    gx, gy = (_by_rows(image, taps) for taps in (_SOBEL_X, _SOBEL_Y))
    return {"gx": gx, "gy": gy, "magnitude": np.sqrt(gx * gx + gy * gy)}
