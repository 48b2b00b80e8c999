"""Saliency maps, the weighted-mean pooling operator, and a baseline VAM.

Pooling is defined as sum(f * S) / sum(S).  Every saliency-weighted score in
the toolkit goes through this operator, so a constant map always reduces to
the plain mean and scores keep each metric's native range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSaliency,
    DimensionMismatch,
    MapSeriesGap,
    NumericError,
    PyramidMismatch,
)
from .kernels import downsample2, gaussian_smooth, halving_chain
from .media import StereoSequence, load_map_series

FLAT_GUARD = 1e-12


@dataclass
class SaliencyMap:
    values: np.ndarray
    source: str = "external"

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if not np.all(np.isfinite(self.values)):
            raise NumericError("non-finite saliency values")
        if self.values.min() < 0:
            raise NumericError("negative saliency values")

    @property
    def shape(self):
        return self.values.shape


@dataclass
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
        weights = (self.w_intensity, self.w_color, self.w_motion, self.w_depth)
        if any(w < 0 for w in weights) or sum(weights) <= 0:
            raise NumericError("channel weights must be >= 0 with positive sum")


def weighted_spatial_mean(f: np.ndarray, w: np.ndarray) -> float:
    """sum(f * w) / sum(w); the single pooling contract of the toolkit."""
    f = np.asarray(f, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if w.shape != f.shape:
        raise DimensionMismatch(f"map shape {w.shape} vs field shape {f.shape}")
    total = w.sum()
    if total <= 0:
        raise DegenerateSaliency("saliency weights sum to zero")
    return float((f * w).sum() / total)


def normalize_map(raw: np.ndarray, source: str = "external") -> SaliencyMap:
    """Shift to min 0 and scale to max 1; flat input becomes a uniform map."""
    raw = np.asarray(raw, dtype=np.float64)
    if not np.all(np.isfinite(raw)):
        raise NumericError("non-finite values in raw map")
    lo, hi = raw.min(), raw.max()
    if hi - lo < FLAT_GUARD:
        return SaliencyMap(np.ones_like(raw), source)
    return SaliencyMap((raw - lo) / (hi - lo), source)


def build_saliency_pyramid(values: np.ndarray, target_dims) -> list[np.ndarray]:
    """Repeated downsample2 of a weight array, re-normalized per level."""
    target_dims = [tuple(d) for d in target_dims]
    chain = halving_chain(*values.shape, levels=len(target_dims))
    if chain != target_dims:
        raise PyramidMismatch(f"dims {target_dims} are not the halving chain {chain}")
    levels = [values]
    for _ in range(len(target_dims) - 1):
        levels.append(downsample2(levels[-1]))
    return [normalize_map(level).values for level in levels]


def uniform_series(seq: StereoSequence) -> list[SaliencyMap]:
    shape = (seq.height, seq.width)
    return [SaliencyMap(np.ones(shape), "uniform") for _ in range(len(seq))]


def load_external_saliency(dir_path: str, seq: StereoSequence) -> list[SaliencyMap]:
    """PGM series matching the sequence, min-max normalized per frame."""
    maps = load_map_series(dir_path, {"width": seq.width, "height": seq.height,
                                      "count": len(seq)})
    if len(maps) != len(seq):
        raise MapSeriesGap("map count does not match sequence length")
    return [normalize_map(m, "external") for m in maps]


def _gauss_pyramid(image: np.ndarray, levels: int) -> list[np.ndarray]:
    pyr = [image]
    for _ in range(levels):
        if min(pyr[-1].shape) < 2:
            break
        pyr.append(downsample2(pyr[-1]))
    return pyr


def _upsample_to(small: np.ndarray, shape) -> np.ndarray:
    fy = -(-shape[0] // small.shape[0])
    fx = -(-shape[1] // small.shape[1])
    big = np.repeat(np.repeat(small, fy, axis=0), fx, axis=1)
    return big[: shape[0], : shape[1]]


def _center_surround(channel: np.ndarray, pairs) -> np.ndarray:
    max_level = max((s for _, s in pairs), default=0)
    pyr = _gauss_pyramid(channel, max_level)
    acc = np.zeros_like(channel)
    for c, s in pairs:
        if s >= len(pyr):
            continue
        acc += np.abs(_upsample_to(pyr[c], channel.shape) - _upsample_to(pyr[s], channel.shape))
    return acc


def _smooth(values: np.ndarray, sigma: float) -> np.ndarray:
    if sigma <= 0:
        return values
    size = min(2 * int(np.ceil(3 * sigma)) + 1, min(values.shape))
    if size < 3:
        return values
    return gaussian_smooth(values, size, sigma)


def baseline_vam(seq: StereoSequence, disparity_series=None,
                 cfg: VamConfig | None = None) -> list[SaliencyMap]:
    """Deterministic stand-in VAM: center-surround intensity/color channels,
    frame-difference motion, and near-is-salient disparity, fused with fixed
    weights on the left view.  One map weights both views of each pair.
    """
    cfg = cfg or VamConfig()
    shape = (seq.height, seq.width)
    smooth_sigma = cfg.smooth_sigma if cfg.smooth_sigma is not None else min(shape) / 32.0
    w_depth = cfg.w_depth if disparity_series is not None else 0.0
    maps = []
    prev_luma = None
    for t, frame in enumerate(seq.frames):
        luma = frame.left.luma
        f_int = _center_surround(luma, cfg.center_surround_pairs)
        f_col = np.zeros(shape)
        if frame.left.chroma_u is not None:
            for chroma in (frame.left.chroma_u, frame.left.chroma_v):
                opp = _upsample_to(np.abs(chroma - 128.0), shape)
                f_col += _center_surround(opp, cfg.center_surround_pairs)
        if prev_luma is None:
            f_mot = np.zeros(shape)
        else:
            f_mot = _smooth(np.abs(luma - prev_luma), cfg.motion_sigma)
        prev_luma = luma
        combined = (cfg.w_intensity * normalize_map(f_int).values
                    + cfg.w_color * normalize_map(f_col).values
                    + cfg.w_motion * normalize_map(f_mot).values)
        if w_depth > 0:
            d = np.asarray(disparity_series[t].values
                           if hasattr(disparity_series[t], "values")
                           else disparity_series[t], dtype=np.float64)
            combined = combined + w_depth * normalize_map(d).values
        maps.append(normalize_map(_smooth(combined, smooth_sigma), "baseline"))
    return maps
