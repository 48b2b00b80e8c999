"""Blockwise SAD disparity estimation and relative depth.

Convention: disparity d at (x, y) matches left(x, y) with right(x - d, y);
larger d means nearer.  The search is non-negative (parallel cameras).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParamError
from .media import StereoFrame, _check_int, _Map, _samples8


@dataclass(frozen=True)
class DisparityConfig:
    block: int = 8
    search_range: int = 32

    def __post_init__(self):
        _check_int("block", self.block, 4)
        _check_int("search_range", self.search_range, 1)


@dataclass(frozen=True, eq=False)
class DisparityMap(_Map):
    _name = "disparity"


def _anchors(n: int, block: int) -> np.ndarray:
    """Block origins every `block` samples, the last one clamped to fit."""
    return np.unique(np.minimum(np.arange(0, n, block), n - block))


def _med3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    return np.maximum(np.minimum(a, b), np.minimum(np.maximum(a, b), c))


def _median3x3(m: np.ndarray) -> np.ndarray:
    """3x3 median with replicated borders, as a min/max selection network
    (Paeth): sort each row of three, then the median of the nine is
    med3(max of the mins, med3 of the mids, min of the maxes)."""
    p = np.pad(m, 1, mode="edge")
    a, b, c = p[:, :-2], p[:, 1:-1], p[:, 2:]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    mid = np.maximum(lo, np.minimum(hi, c))
    lo, hi = np.minimum(lo, c), np.maximum(hi, c)
    return _med3(np.maximum(np.maximum(lo[:-2], lo[1:-1]), lo[2:]),
                 _med3(mid[:-2], mid[1:-1], mid[2:]),
                 np.minimum(np.minimum(hi[:-2], hi[1:-1]), hi[2:]))


def estimate_disparity(pair: StereoFrame, cfg: DisparityConfig | None = None) -> DisparityMap:
    """Per-block argmin-SAD match of left against right, 3x3 median filtered.

    Matching runs on the 8-bit samples a stored stream holds (``media._samples8``:
    luma rounded half up), so SAD is exact integer arithmetic and a sequence
    gives the same map before and after a save/load round trip.  Blocks sit on
    a grid of `block` px whose last row and column are clamped to the frame.
    A block at column x0 tries d = 0..min(search_range, x0); ties go to the
    smallest candidate disparity.  Where clamped blocks overlap, the later
    block in row-major order sets the pixels.
    """
    cfg = cfg or DisparityConfig()
    h, w = pair.left.shape
    if h < cfg.block or w < cfg.block:
        raise ParamError("frame smaller than the matching block")
    if w < cfg.search_range + cfg.block:
        raise ParamError("frame narrower than search_range + block")
    b = cfg.block
    y_anchors, x_anchors = _anchors(h, b), _anchors(w, b)
    offs = np.arange(b)
    rows = y_anchors[:, None] + offs
    cols = x_anchors[:, None] + offs
    # the rows of every block row, (y blocks, block, w), in 8-bit samples
    left, right = (_samples8(f.planes[0]).astype(np.int16)[rows] for f in (pair.left, pair.right))
    # one |L - shift(R, d)| plane per candidate d, summed over every block at
    # once: int32 column sums (at most 255 * block) and int64 block totals
    costs = np.empty((cfg.search_range + 1, len(y_anchors), len(x_anchors)), np.int64)
    plane = np.zeros(left.shape, np.int16)
    for d in range(cfg.search_range + 1):
        np.subtract(left[..., d:], right[..., :w - d], out=plane[..., d:])
        np.abs(plane, out=plane)
        costs[d] = plane.sum(axis=1, dtype=np.int32)[:, cols].sum(axis=-1, dtype=np.int64)
        costs[d][:, x_anchors < d] = np.iinfo(np.int64).max
    # the index map in the smallest type that holds 0..search_range: the
    # median network runs an order of magnitude faster on bytes than on intp
    best = np.argmin(costs, axis=0).astype(np.min_scalar_type(cfg.search_range))
    # each pixel takes the last block in anchor order that covers it
    y_cover = np.searchsorted(y_anchors, np.arange(h), side="right") - 1
    x_cover = np.searchsorted(x_anchors, np.arange(w), side="right") - 1
    return DisparityMap(_median3x3(best[y_cover][:, x_cover]))


def iter_disparity_series(seq, cfg: DisparityConfig | None = None):
    """``estimate_disparity`` of each frame of ``seq`` in turn, one map at a time."""
    return (estimate_disparity(frame, cfg) for frame in seq.frames)


def disparity_to_depth(d: np.ndarray) -> np.ndarray:
    """Relative depth in [0, 1] of a disparity array; nearer (larger d) maps
    to smaller depth."""
    lo, hi = d.min(), d.max()
    if hi - lo < 1e-12:
        return np.full_like(d, 0.5)
    return 1.0 - (d - lo) / (hi - lo)
