"""Blockwise SAD disparity estimation and relative depth.

Convention: disparity d at (x, y) matches left(x, y) with right(x - d, y);
larger d means nearer.  The search is non-negative (parallel cameras).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.ndimage

from .errors import ParamError
from .media import StereoFrame, _check_int, _check_range


@dataclass
class DisparityConfig:
    block: int = 8
    search_range: int = 32

    def __post_init__(self):
        _check_int("block", self.block, 4)
        _check_int("search_range", self.search_range, 1)


@dataclass
class DisparityMap:
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        _check_range("disparity", self.values)

    @property
    def shape(self):
        return self.values.shape


def _anchors(n: int, block: int) -> np.ndarray:
    """Block origins every `block` samples, the last one clamped to fit."""
    return np.unique(np.minimum(np.arange(0, n, block), n - block))


def estimate_disparity(pair: StereoFrame, cfg: DisparityConfig | None = None) -> DisparityMap:
    """Per-block argmin-SAD match of left against right, 3x3 median filtered.

    Blocks sit on a grid of `block` px whose last row and column are clamped
    to the frame.  A block at column x0 tries d = 0..min(search_range, x0);
    ties go to the smallest candidate disparity.  Where clamped blocks
    overlap, the later block in row-major order sets the pixels.
    """
    cfg = cfg or DisparityConfig()
    left, right = pair.left.luma, pair.right.luma
    h, w = left.shape
    if h < cfg.block or w < cfg.block:
        raise ParamError("frame smaller than the matching block")
    if w < cfg.search_range + cfg.block:
        raise ParamError("frame narrower than search_range + block")
    b = cfg.block
    y_anchors, x_anchors = _anchors(h, b), _anchors(w, b)
    offs = np.arange(b)
    rows = y_anchors[:, None] + offs
    cols = x_anchors[:, None] + offs
    # one SAD plane per candidate d, summed over every block at once
    costs = np.empty((cfg.search_range + 1, len(y_anchors), len(x_anchors)))
    plane = np.zeros((h, w))
    for d in range(cfg.search_range + 1):
        np.abs(left[:, d:] - right[:, :w - d], out=plane[:, d:])
        costs[d] = plane[:, cols].sum(axis=-1)[rows].sum(axis=1)
        costs[d][:, x_anchors < d] = np.inf
    best = np.argmin(costs, axis=0)
    # each pixel takes the last block in anchor order that covers it
    y_cover = np.searchsorted(y_anchors, np.arange(h), side="right") - 1
    x_cover = np.searchsorted(x_anchors, np.arange(w), side="right") - 1
    out = best[y_cover[:, None], x_cover[None, :]].astype(np.float64)
    out = scipy.ndimage.median_filter(out, size=3, mode="nearest")
    return DisparityMap(out)


def estimate_disparity_series(seq, cfg: DisparityConfig | None = None) -> list[DisparityMap]:
    return [estimate_disparity(frame, cfg) for frame in seq.frames]


def disparity_to_depth(d: np.ndarray) -> np.ndarray:
    """Relative depth in [0, 1] of a disparity array; nearer (larger d) maps
    to smaller depth."""
    lo, hi = d.min(), d.max()
    if hi - lo < 1e-12:
        return np.full_like(d, 0.5)
    return 1.0 - (d - lo) / (hi - lo)
