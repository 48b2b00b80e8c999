"""Saliency maps, the weighted-mean pooling operator, and a baseline VAM.

Pooling is defined as sum(f * S) / sum(S).  Every saliency-weighted score in
the toolkit goes through this operator, so a constant map always reduces to
the plain mean and scores keep each metric's native range.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .disparity import DisparityMap
from .errors import DegenerateSaliency, DimensionMismatch, NumericError, ParamError
from .kernels import gaussian_smooth, iter_pyramid
from .media import Frame, StereoFrame, StereoSequence, _Map, _check_real_fields, _maps, \
    _stored, iter_map_series

FLAT_GUARD = 1e-12
_SUBNORMAL_SCALE = 2.0**-1000


@dataclass(frozen=True, eq=False)
class SaliencyMap(_Map):
    source: str = "external"
    _name, _low = "saliency", 0.0


@dataclass(frozen=True)
class VamConfig:
    """Fixed-weight channel fusion: intensity, color, motion, depth."""

    w_intensity: float = 0.25
    w_color: float = 0.25
    w_motion: float = 0.25
    w_depth: float = 0.25
    motion_sigma: float = 2.0
    smooth_sigma: float | None = None  # default min(H, W) / 32
    center_surround_pairs: tuple = ((2, 5), (3, 6))

    def __post_init__(self):
        _check_real_fields(self)
        weights = (self.w_intensity, self.w_color, self.w_motion, self.w_depth)
        if any(w < 0 for w in weights) or sum(weights) <= 0:
            raise NumericError("channel weights must be >= 0 with positive sum")
        if not all(isinstance(p, (tuple, list)) and len(p) == 2
                   and all(isinstance(v, int) for v in p) and 0 <= p[0] < p[1]
                   for p in self.center_surround_pairs):
            raise ParamError("center_surround_pairs must hold integer (c, s) level "
                             "pairs with 0 <= c < s")


def weighted_spatial_mean(f: np.ndarray, w: np.ndarray) -> float:
    """sum(f * w) / sum(w); the single pooling contract of the toolkit."""
    f = np.asarray(f, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if w.shape != f.shape:
        raise DimensionMismatch(f"map shape {w.shape} vs field shape {f.shape}")
    total = w.sum()
    if total <= 0:
        raise DegenerateSaliency("saliency weights sum to zero")
    if total < _SUBNORMAL_SCALE and np.abs(w).max() < _SUBNORMAL_SCALE:
        # f * w rounds subnormal weights away; scaling by a power of two is
        # exact and leaves the ratio as it is
        w = w / _SUBNORMAL_SCALE
        total = w.sum()
    return float((f * w).sum() / total)


def normalize_map(raw: np.ndarray, source: str = "external") -> SaliencyMap:
    """Shift to min 0 and scale to max 1; flat input becomes a uniform map.
    ``raw`` is checked as a map's values are (``media._stored``)."""
    raw = np.asarray(raw).view()
    raw.flags.writeable = False  # only read here, so the check needs no copy
    raw = _stored("raw map", raw)
    lo, hi = raw.min(), raw.max()
    values = np.ones_like(raw) if hi - lo < FLAT_GUARD else (raw - lo) / (hi - lo)
    values.flags.writeable = False  # fresh: SaliencyMap keeps it without a copy
    return SaliencyMap(values, source)


def _is_normalized(values: np.ndarray) -> bool:
    """Whether ``normalize_map(values).values`` would equal ``values`` bit for
    bit, and so may be ``values`` itself: a read-only 2-D float64 array whose
    minimum is +0.0 and maximum 1 (``(s - 0) / (1 - 0)`` is ``s``), or all
    ones (a flat map becomes ones)."""
    if values.flags.writeable or values.dtype != np.float64 or values.ndim != 2:
        return False
    lo, hi = values.min(), values.max()
    return hi == 1.0 and (lo == 1.0 or lo == 0.0 and not np.signbit(lo))


def build_saliency_pyramid(values: np.ndarray, levels: int):
    """The levels of ``iter_pyramid(values, levels)`` of a weight array, each
    re-normalized, one at a time; so it stops where the image pyramid of
    that shape does.  A ``values`` that is its own
    normalization (``_is_normalized``), as the values of a ``normalize_map``
    result are, is the first level as it is."""
    for k, level in enumerate(iter_pyramid(values, levels)):
        yield level if k == 0 and _is_normalized(level) else normalize_map(level).values


def uniform_series(seq: StereoSequence) -> list[SaliencyMap]:
    ones = np.ones((seq.height, seq.width))
    ones.flags.writeable = False  # one read-only array, shared by every frame's map
    return [SaliencyMap(ones, "uniform") for _ in range(len(seq))]


def iter_external_saliency(dir_path: str, seq: StereoSequence):
    """PGM series matching the sequence, min-max normalized per frame, one
    map at a time (``media.iter_map_series``)."""
    maps = iter_map_series(dir_path, {"width": seq.width, "height": seq.height,
                                      "count": len(seq)})
    return map(functools.partial(normalize_map, source="external"), maps)


def _repeat(n: int, size: int) -> int:
    """How many times _upsample_to repeats each of ``n`` samples to fill ``size``."""
    return -(-size // n)


def _upsample_at(small: np.ndarray, shape, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Rows ``ys`` and columns ``xs`` of _upsample_to(small, shape): two 1-D takes."""
    (h, w), (height, width) = small.shape, shape
    return small[ys // _repeat(h, height)][:, xs // _repeat(w, width)]


def _upsample_to(small: np.ndarray, shape) -> np.ndarray:
    """``small`` with each sample repeated ceil(H / h) times down and
    ceil(W / w) times across, cropped to ``shape`` (H, W)."""
    return _upsample_at(small, shape, np.arange(shape[0]), np.arange(shape[1]))


def _run_grid(shape, level_shapes):
    """``(firsts, runs)``, each a (rows, columns) pair: the first pixel of
    each run of pixels on which _upsample_to repeats one sample of every
    level in ``level_shapes``, and the run that holds each pixel.  A map
    that reads those levels only through _upsample_to equals
    ``grid[ry][:, rx]``, where ``grid`` is its values at the firsts."""
    firsts, runs = [], []
    for axis, size in enumerate(shape):
        starts = np.unique(np.concatenate(
            [[0]] + [np.arange(0, size, _repeat(level[axis], size)) for level in level_shapes]))
        firsts.append(starts)
        runs.append(np.searchsorted(starts, np.arange(size), side="right") - 1)
    return firsts, runs


def _center_surround(pyr, pairs, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Sum over the (c, s) ``pairs`` of |up(pyr[c]) - up(pyr[s])|, where up
    is _upsample_to the shape of ``pyr[0]``, at rows ``ys`` and columns
    ``xs`` only: the firsts of the run grid of those levels (see _run_grid),
    so each cell takes the samples, and so the value, of every pixel of its
    run.  Every s is below ``len(pyr)``."""
    shape = pyr[0].shape
    acc = np.zeros((len(ys), len(xs)))
    for c, s in pairs:
        acc += np.abs(_upsample_at(pyr[c], shape, ys, xs) - _upsample_at(pyr[s], shape, ys, xs))
    return acc


def _smooth(values: np.ndarray, sigma: float, what: str) -> np.ndarray:
    """``values`` smoothed by a Gaussian of ``sigma``, the field ``what``, in a
    window of about 6 sigma capped at the frame's shorter side."""
    side = min(values.shape)
    # the window is capped at the side, so sigma is too: int() never sees inf
    size = min(2 * int(np.ceil(3 * np.clip(sigma, 0, side))) + 1, side)
    if size < 3:  # sigma <= 0 too
        return values
    return gaussian_smooth(values, size, sigma, what)


def baseline_vam_frame(frame: StereoFrame, prev: Frame | None, disparity: np.ndarray | None,
                       cfg: VamConfig) -> SaliencyMap:
    """The baseline VAM map of one stereo frame: center-surround
    intensity/color channels of its left view, motion since ``prev`` (the
    previous frame's left view; None for the first frame, which has none),
    and, with ``disparity``, near-is-salient depth, fused with ``cfg``'s
    weights."""
    shape = frame.left.shape
    smooth_sigma = cfg.smooth_sigma if cfg.smooth_sigma is not None else min(shape) / 32.0
    levels = max((s for _, s in cfg.center_surround_pairs), default=0) + 1
    luma = frame.left.luma
    pyr = list(iter_pyramid(luma, levels))
    pairs = [(c, s) for c, s in cfg.center_surround_pairs if s < len(pyr)]
    # every channel's pyramid has the level shapes of the luma's
    firsts, (ry, rx) = _run_grid(shape, [pyr[level].shape for pair in pairs for level in pair])
    f_int = _center_surround(pyr, pairs, *firsts)
    del pyr
    f_col = np.zeros(f_int.shape)
    if frame.left.planes[1] is not None:  # read as float64 only when present
        for chroma in (frame.left.chroma_u, frame.left.chroma_v):
            opp = _upsample_to(np.abs(chroma - 128.0), shape)
            f_col += _center_surround(list(iter_pyramid(opp, levels)), pairs, *firsts)
    if prev is None:
        f_mot = np.zeros(shape)
    else:
        f_mot = _smooth(np.abs(luma - prev.luma), cfg.motion_sigma, "motion_sigma")
    del luma
    # on the grid: normalize_map sees every cell in the frame, so the
    # same min and max; then one expansion, and the rest at full size
    fused = (cfg.w_intensity * normalize_map(f_int).values
             + cfg.w_color * normalize_map(f_col).values)
    combined = fused[ry][:, rx] + cfg.w_motion * normalize_map(f_mot).values
    if disparity is not None and cfg.w_depth > 0:
        combined = combined + cfg.w_depth * normalize_map(disparity).values
    return normalize_map(_smooth(combined, smooth_sigma, "smooth_sigma"), "baseline")


def iter_baseline_vam(seq: StereoSequence, disparity_series=None, cfg: VamConfig | None = None):
    """Deterministic stand-in VAM: ``baseline_vam_frame`` of each frame in
    turn, one map at a time; between frames it keeps only the previous left
    view.  One map weights both views of each pair.  ``disparity_series`` is
    checked as the metric driver checks a map series (``media._maps``)."""
    cfg = cfg or VamConfig()
    d_series = itertools.repeat(None)
    if disparity_series is not None:
        d_series = _maps(disparity_series, DisparityMap, len(seq), (seq.height, seq.width),
                         "disparity_series")
    prev = None
    for frame in seq.frames:
        yield baseline_vam_frame(frame, prev, next(d_series), cfg)
        prev = frame.left
