"""No-reference metrics over the distorted sequence alone.

Saliency here comes from the distorted pair (no reference exists).  The
driver averages each frame's two views with ``metric.view_mean`` (``nospdm_s``
weights them, ``qa3d_s`` compares them) and pools frames by the plain mean;
orientation is recorded per metric because sign conventions differ.  Every
pixel-pair table (differences, pair-mean weights, zero crossings) is built
from ``_pairs``.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass

import numpy as np

from .errors import NoEdges, NumericError, ParamError, TooSmall
from .kernels import Kernel2D, _check_window, convolve2d, sobel_gradient
from .media import _check_int, _check_numbers, _check_real_fields
from .metric import _power, registrar
from .saliency import weighted_spatial_mean


@dataclass(frozen=True)
class NrMetricConfig:
    gbim_grid: int = 8
    gbim_masking: str = "neutral"  # neutral | luminance
    nrpbm_probe: int = 9
    farias_edge_threshold: float = 0.1  # fraction of the max gradient
    sadaka_region: int = 64
    sadaka_beta: float = 3.6
    sadaka_contrast_threshold: float = 50.0
    sadaka_jnb_wide: float = 5.0
    sadaka_jnb_narrow: float = 3.0
    vqsm_alphas: tuple = (0.0, 1.0, 0.0, -1.0, 0.0)
    aqi_directions: tuple = (0, 45, 90, 135)
    aqi_bins: int = 64
    qa3d_threshold: float = 1.0
    qa3d_history: int = 10
    # QJPEG reference-convention constants; overridable, not asserted faithful.
    nospdm_alpha: float = -245.9
    nospdm_beta: float = 261.9
    nospdm_gamma1: float = -0.0240
    nospdm_gamma2: float = 0.0160
    nospdm_gamma3: float = 0.0064
    nospdm_mu_r: float = 1.0
    nospdm_omega_s: float = 1.0
    nospdm_lambda: float = 0.5

    def __post_init__(self):
        _check_real_fields(self)
        _check_numbers("vqsm_alphas", self.vqsm_alphas, (5,))
        if self.qa3d_threshold < 0:
            raise ParamError("disparity threshold must be >= 0")
        if self.gbim_masking not in ("neutral", "luminance"):
            raise ParamError("gbim_masking must be 'neutral' or 'luminance'")
        for name in ("gbim_grid", "nrpbm_probe", "sadaka_region", "aqi_bins", "qa3d_history"):
            _check_int(name, getattr(self, name), 1)
        if self.sadaka_beta <= 0:
            raise ParamError("sadaka_beta must be > 0")
        if not self.aqi_directions or not set(self.aqi_directions) <= {0, 45, 90, 135}:
            raise ParamError("aqi_directions must be a non-empty subset of 0, 45, 90, 135")


NR_METRICS: dict = {}
_nr = registrar(NR_METRICS, NrMetricConfig, reference=False)


def _box_mean(image: np.ndarray, shape) -> np.ndarray:
    """Mean of ``image`` over the ``shape`` window (K x K, or 1 x n and
    n x 1 for a line) around each pixel, with replicated borders."""
    return convolve2d(image, Kernel2D(np.full(shape, 1.0 / np.prod(shape))))


def _local_std(image: np.ndarray, size: int) -> np.ndarray:
    mu = _box_mean(image, (size, size))
    return np.sqrt(np.maximum(_box_mean(image * image, (size, size)) - mu * mu, 0.0))


def _pairs(a: np.ndarray, axis: int):
    """(later, earlier) pixel of each adjacent pair of ``a`` along ``axis``;
    index i of both holds the pair (i, i + 1)."""
    lead = (slice(None),) * axis
    return a[lead + (np.s_[1:],)], a[lead + (np.s_[:-1],)]


def _boundary_pairs(shape, g, grid="gbim_grid"):
    """Per axis, the index into a ``_pairs`` table along that axis of the
    pairs that straddle a g-grid block boundary; TooSmall, naming ``grid``,
    when either axis has none."""
    if g >= min(shape):
        raise TooSmall(f"{grid} {g} leaves no block boundary in a {shape[0]}x{shape[1]} frame")
    return [(slice(None),) * axis + (np.arange(g - 1, n - 1, g),)
            for axis, n in enumerate(shape)]


@_nr("lower_better")
def gbim_s(luma, c, cfg):
    """Block-edge impairment: 8-grid boundary differences over the frame's
    average inter-pixel difference.  Lower is better."""
    at = _boundary_pairs(luma.shape, cfg.gbim_grid)
    if cfg.gbim_masking == "luminance":
        mask = 1.0 / (1.0 + _local_std(luma, 3) / 32.0)
    else:
        mask = np.ones_like(luma)
    diffs = {axis: np.abs(np.subtract(*_pairs(luma, axis))) for axis in (1, 0)}
    e = sum(d.sum() for d in diffs.values()) / sum(d.size for d in diffs.values())
    if e <= 0.0:
        return 0.0
    total = 0.0
    for axis, d in diffs.items():
        w = 0.5 * np.add(*_pairs(mask, axis))
        sw = 0.5 * np.add(*_pairs(c.s, axis))
        total += weighted_spatial_mean(w[at[axis]] * d[at[axis]], sw[at[axis]])
    return total / (2.0 * e)


@_nr("lower_better")
def nrpbm_s(luma, c, cfg):
    """Perceptual blur via the re-blur probe; higher means blurrier
    (lower is better).  A flat frame scores 0.0, and so does a frame whose
    saliency weights no luma difference (the driver has already rejected an
    all-zero map)."""
    n = cfg.nrpbm_probe
    _check_window(n, luma.shape, f"nrpbm_probe {n}")  # before _box_mean builds its taps
    ratios = []
    for axis, probe in ((1, (1, n)), (0, (n, 1))):
        blurred = _box_mean(luma, probe)
        df = np.abs(np.subtract(*_pairs(luma, axis)))
        db = np.abs(np.subtract(*_pairs(blurred, axis)))
        dv = np.maximum(df - db, 0.0)
        sw = 0.5 * np.add(*_pairs(c.s, axis))
        denom = (df * sw).sum()
        ratios.append((dv * sw).sum() / denom if denom > 0 else None)
    if all(r is None for r in ratios):
        return 0.0  # flat frame
    return 1.0 - max(r for r in ratios if r is not None)


def _run_widths(lines: np.ndarray, up: bool) -> np.ndarray:
    """p2 - p1 at every pixel of each row: the span of the strictly rising
    (`up`) or falling run of the row through that pixel."""
    n = lines.shape[1]
    step = lines[:, 1:] > lines[:, :-1] if up else lines[:, 1:] < lines[:, :-1]
    idx = np.arange(n, dtype=np.int32)
    p1 = np.maximum.accumulate(
        np.where(np.pad(step, ((0, 0), (1, 0))), np.int32(0), idx), axis=1)
    p2 = np.minimum.accumulate(
        np.where(np.pad(step, ((0, 0), (0, 1))), np.int32(n - 1), idx)[:, ::-1], axis=1)[:, ::-1]
    return p2 - p1


def _edge_widths(luma: np.ndarray, threshold_frac: float):
    """Marziliano-style widths: length of the monotone luma run through each
    edge pixel along the dominant gradient axis, rising where the gradient
    along that axis is >= 0.  Returns (ys, xs, widths) in row-major order."""
    grad = sobel_gradient(luma)
    mag = grad["magnitude"]
    gmax = mag.max()
    if gmax <= 0.0:
        return np.zeros(0, int), np.zeros(0, int), np.zeros(0)
    ys, xs = np.nonzero(mag > threshold_frac * gmax)
    gx, gy = grad["gx"][ys, xs], grad["gy"][ys, xs]
    along_column = np.abs(gx) < np.abs(gy)
    up = np.where(along_column, gy, gx) >= 0
    # runs[2 * along_column + up]: the falling and rising runs through each
    # edge pixel along its row, then along its column
    cols = np.ascontiguousarray(luma.T)
    runs = np.stack([_run_widths(luma, False)[ys, xs], _run_widths(luma, True)[ys, xs],
                     _run_widths(cols, False)[xs, ys], _run_widths(cols, True)[xs, ys]])
    return ys, xs, runs[2 * along_column + up, np.arange(ys.size)].astype(np.float64)


@_nr("lower_better")
def blur_farias_s(luma, c, cfg):
    """Mean edge width at Sobel edge pixels; lower (sharper) is better."""
    ys, xs, widths = _edge_widths(luma, cfg.farias_edge_threshold)
    if widths.size == 0:
        raise NoEdges("no edge pixels in a view")
    return weighted_spatial_mean(widths, c.s[ys, xs])


@_nr("lower_better")
def block_farias_s(luma, c, cfg):
    """Ratio of 8-grid boundary differences to all differences, scaled by
    1/(H*W); lower is better.  An axis with no weighted luma difference adds
    0.0, so a flat frame, or one whose saliency weights no luma difference,
    scores 0.0 (the driver has already rejected an all-zero map)."""
    at = _boundary_pairs(luma.shape, cfg.gbim_grid)
    total = 0.0
    for axis in (1, 0):
        d = np.abs(np.subtract(*_pairs(luma, axis)))
        sw = 0.5 * np.add(*_pairs(c.s, axis))
        den = (d * sw).sum()
        if den > 0:
            total += (d[at[axis]] * sw[at[axis]]).sum() / den
    return total / luma.size


def _region_reduce(ufunc, image: np.ndarray, r: int) -> np.ndarray:
    """`ufunc` reduced over each r x r region (clipped at the right and
    bottom borders), flattened in row-major region order."""
    rows, cols = np.arange(0, image.shape[0], r), np.arange(0, image.shape[1], r)
    return ufunc.reduceat(ufunc.reduceat(image, rows, axis=0), cols, axis=1).ravel()


@_nr("higher_better")
def sadaka_s(luma, c, cfg):
    """Foveal just-noticeable-blur sharpness; higher (sharper) is better."""
    ys, xs, widths = _edge_widths(luma, cfg.farias_edge_threshold)
    if widths.size == 0:
        raise NoEdges("no edge pixels for foveal sharpness pooling")
    beta = cfg.sadaka_beta
    r = cfg.sadaka_region
    n_x = -(-luma.shape[1] // r)
    region = ys // r * n_x + xs // r
    contrast = _region_reduce(np.maximum, luma, r) - _region_reduce(np.minimum, luma, r)
    w_jnb = np.where(contrast <= cfg.sadaka_contrast_threshold,
                     cfg.sadaka_jnb_wide, cfg.sadaka_jnb_narrow)
    # a small or large beta takes the powers out of the float range; checked below
    with np.errstate(all="ignore"):
        # a region without edge pixels has d_r = 0 and adds nothing
        d_r = np.bincount(region, np.abs(widths / w_jnb[region]) ** beta,
                          contrast.size) ** (1.0 / beta)
        weight = (_region_reduce(np.add, c.s, r) / c.s.sum()) ** beta
        total = (d_r * weight).sum()
        score = total ** (-1.0 / beta)
    if total <= 0.0:
        raise NoEdges("no edge energy after pooling")
    if not 0.0 < score < np.inf:
        raise NumericError(f"sadaka_beta {beta} takes the powers of the pooled edge "
                           "energy out of the float range")
    return score


@_nr("higher_better")
def vqsm_s(luma, c, cfg):
    """Sharpness (gradient magnitude) and smoothness (local std) combined by
    the configured polynomial; the neutral defaults give sharpness minus
    smoothness, higher better."""
    a1, a2, a3, a4, a5 = cfg.vqsm_alphas
    s_bar = _box_mean(c.s, (5, 5))
    q_sh = weighted_spatial_mean(sobel_gradient(luma)["magnitude"], c.s)
    q_sm = weighted_spatial_mean(_local_std(luma, 5), s_bar)
    return a1 * q_sh**2 + a2 * q_sh + a3 * q_sm**2 + a4 * q_sm + a5


_AQI_STEPS = {0: (0, 1), 45: (-1, 1), 90: (1, 0), 135: (1, 1)}


def _aqi_kernel(direction: int) -> Kernel2D:
    dy, dx = _AQI_STEPS[direction]
    taps = np.zeros((7, 7))
    for t in range(-3, 4):
        taps[3 + t * dy, 3 + t * dx] += 1.0 / 7.0
    return Kernel2D(taps)


@_nr("higher_better")
def aqi_s(luma, c, cfg):
    """Spread of directional entropies (saliency-weighted histograms);
    higher anisotropy means less degradation."""
    entropies = []
    for direction in cfg.aqi_directions:
        filtered = convolve2d(luma, _aqi_kernel(direction))
        hist, _ = np.histogram(filtered, bins=cfg.aqi_bins, range=(0.0, 255.0),
                               weights=c.s)
        p = hist[hist > 0] / hist.sum()
        entropies.append(float(-(p * np.log(p)).sum()))
    return float(np.std(entropies))


@_nr("higher_better", needs=("d_dist",), over="sequence", history="qa3d_history")
def qa3d_s(frames, cfg):
    """Temporal disparity consistency plus an interview edge difference;
    scored from frame `history` onward, higher better."""
    p = cfg.qa3d_history
    history = collections.deque(maxlen=p)  # d_index of the last p frames
    scores = []
    for c in frames:  # no plane outlives its frame
        d_index = weighted_spatial_mean(
            np.where(c.d_dist < cfg.qa3d_threshold, 0.0, c.d_dist), c.s)
        if len(history) == p:
            s_m = 0.1 * (sum(history) - d_index * p) * d_index
            d_edge = weighted_spatial_mean(
                np.abs(sobel_gradient(c.dist.left.luma)["magnitude"]
                       - sobel_gradient(c.dist.right.luma)["magnitude"]) / 255.0, c.s)
            scores.append(1.0 - (s_m + d_edge) / 2.0)
        history.append(d_index)
    return scores


def _qjpeg(luma: np.ndarray, s: np.ndarray, cfg: NrMetricConfig):
    at = _boundary_pairs(luma.shape, 8, "the JPEG grid")
    b = a = z = 0.0  # each the mean of its horizontal and vertical value
    for axis in (1, 0):
        d = np.subtract(*_pairs(luma, axis))
        sw = 0.5 * np.add(*_pairs(s, axis))
        b_mask = np.zeros(d.shape, bool)  # differences across a block boundary
        b_mask[at[axis]] = True
        crossings = np.multiply(*_pairs(d, axis)) < 0
        zw = _pairs(_pairs(s, axis)[0], axis)[1]  # the pixel between two differences
        ad = np.abs(d)
        b += 0.5 * weighted_spatial_mean(ad[b_mask], sw[b_mask])
        a += 0.5 * weighted_spatial_mean(ad[~b_mask], sw[~b_mask])
        z += 0.5 * weighted_spatial_mean(crossings.astype(float), zw)
    if b <= 0.0 or a <= 0.0 or z <= 0.0:
        return cfg.nospdm_alpha, True  # degenerate signal, power terms dropped
    q = (cfg.nospdm_alpha + cfg.nospdm_beta * _power(b, cfg, "nospdm_gamma1")
         * _power(a, cfg, "nospdm_gamma2") * _power(z, cfg, "nospdm_gamma3"))
    return q, False


def _angle(u: np.ndarray, v: np.ndarray) -> float:
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu <= 0 or nv <= 0:
        return 0.0
    return float(np.arccos(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0)))


@_nr("higher_better", over="frame")
def nospdm_s(c, cfg):
    """Parallax-compensated JPEG sharpness with interview and inter-map angle
    terms; higher better under the reference constants."""
    left, right = c.dist.left.luma, c.dist.right.luma
    q_l, deg_l = _qjpeg(left, c.s, cfg)
    q_r, deg_r = _qjpeg(right, c.s, cfg)
    if deg_l or deg_r:
        c.flags.append("qjpeg_degenerate")
    # one saliency map weights both views, so the inter-map angle is that of
    # S with itself: zero up to rounding
    return ((2.0 - cfg.nospdm_mu_r) * q_l + cfg.nospdm_mu_r * q_r
            - cfg.nospdm_lambda * max(q_l, q_r)
            + _angle(left.ravel(), right.ravel())
            + cfg.nospdm_omega_s * _angle(c.s.ravel(), c.s.ravel()))
