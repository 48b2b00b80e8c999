"""Full-reference stereo quality metrics, each with optional saliency pooling.

Metrics pool local values with weighted_spatial_mean; the VIF terms of
``vif_s`` and ``hv3d_s`` weight their numerator and denominator sums with the
saliency pyramid instead.  Either way a constant saliency series reproduces
the base (unweighted) metric.  ``metric.view_mean`` averages the views
(``ddl1_s`` doubles each, so it adds them).  Saliency for FR scoring comes
from the reference pair; temporal pooling is the plain mean over frames.
Each metric is a formula run by the driver in ``metric``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .disparity import disparity_to_depth
from .errors import ParamError, TooSmall
from .kernels import (
    _check_window,
    convolve2d,
    dct3_stereo_stack,
    gaussian_kernel,
    gaussian_smooth,
    iter_pyramid,
    pyramid_shapes,
    sobel_gradient,
)
from .media import StereoFrame, _check_int, _check_numbers, _check_real_fields
from .metric import _power, registrar, view_mean
from .saliency import build_saliency_pyramid, weighted_spatial_mean

MSSSIM_EXPONENTS = (0.0448, 0.2856, 0.3001, 0.2363, 0.1333)


@dataclass(frozen=True)
class FrMetricConfig:
    psnr_cap: float = 100.0
    ssim_c1: float = (0.01 * 255) ** 2
    ssim_c2: float = (0.03 * 255) ** 2
    ssim_window: int = 11
    ssim_sigma: float = 1.5
    msssim_exponents: tuple = MSSSIM_EXPONENTS
    vif_scales: int = 4
    vif_sigma_n_sq: float = 2.0
    # OQ combination constants; the source constants are unpublished, these
    # neutral defaults keep the perfect score at exactly a.
    oq_a: float = 1.0
    oq_b: float = 1.0
    oq_c: float = 0.0
    oq_d: float = 1.0
    oq_e: float = 1.0
    phsd_epsilon: float = 0.5
    phsd_alpha: float = 1.0
    csf_mask: tuple = tuple(tuple(1.0 for _ in range(4)) for _ in range(4))
    hv3d_beta1: float = 1.0
    hv3d_beta2: float = 1.0
    hv3d_beta3: float = 1.0
    hv3d_block: int = 8
    flosim_patch: int = 8

    def __post_init__(self):
        _check_real_fields(self)
        _check_numbers("msssim_exponents", self.msssim_exponents, (5,))
        if abs(sum(self.msssim_exponents) - 1.0) > 1e-3:
            raise ParamError("MS-SSIM exponents must sum to 1 within 1e-3")
        _check_numbers("csf_mask", self.csf_mask, (4, 4))
        for name in ("ssim_window", "vif_scales", "hv3d_block", "flosim_patch"):
            _check_int(name, getattr(self, name), 1)
        for name in ("ssim_sigma", "vif_sigma_n_sq"):
            if not getattr(self, name) > 0:
                raise ParamError(f"{name} must be > 0")


FR_METRICS: dict = {}
FR_NEEDS_DISPARITY: dict = {}
_fr = registrar(FR_METRICS, FR_NEEDS_DISPARITY, FrMetricConfig, reference=True)


# The SSIM-family formulas below are their plain expressions, evaluated by
# _by_blocks: every value is bit-identical to one whole-array evaluation, and
# one call holds about 7 frame-sized planes beyond its inputs while
# _raw_moments runs (the five moments, a product, a window's output and
# scratch), fewer after it.
# Elements per block: the largest power of two whose temporaries stay below
# that peak (7.00 planes at 270x480 and one row strip; 2**15 gave 7.27).
_BLOCK = 2**14


def _by_blocks(f, *arrays):
    """The tuple of arrays ``f(*arrays)`` of a pointwise ``f``, evaluated on
    blocks of whole leading-axis rows, about _BLOCK elements each, and
    written into new arrays: each element goes through the operations of one
    whole call, so every value is bit-identical, while only the blocks'
    temporaries come on top of the inputs and the results.  A NumericError
    that ``f`` raises may name another of its operations."""
    n = len(arrays[0])
    rows = max(1, _BLOCK // arrays[0][0].size)
    for i in range(0, n, rows):
        parts = f(*(a[i:i + rows] for a in arrays))
        if i == 0:
            outs = tuple(np.empty((n, *p.shape[1:]), p.dtype) for p in parts)
        for out, part in zip(outs, parts):
            out[i:i + rows] = part
    return outs


def _raw_moments(x, y, mean):
    """Means, variances and covariance of x and y under the local mean
    ``mean``, which returns a new array; the caller owns all five.  ``x``
    and ``y`` are arrays or functions that make them: a plane made here is
    made when first read and dies after its last read, so the two overlap
    only while x * y is formed."""
    # Unclamped moments: identical inputs then give a ssim map of exactly 1.
    x = x() if callable(x) else x
    mu_x = mean(x)
    var_x = mean(x * x)
    var_x -= mu_x * mu_x
    y = y() if callable(y) else y
    xy = x * y
    del x
    cov = mean(xy)
    del xy
    mu_y = mean(y)
    cov -= mu_x * mu_y
    yy = y * y
    del y
    var_y = mean(yy)
    del yy
    var_y -= mu_y * mu_y
    return mu_x, mu_y, var_x, var_y, cov


def _ssim(moments, cfg: FrMetricConfig):
    """The SSIM map of _raw_moments."""
    c1, c2 = cfg.ssim_c1, cfg.ssim_c2

    def ssim(mu_x, mu_y, var_x, var_y, cov):
        return (((2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2))
                / ((mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2)),)

    return _by_blocks(ssim, *moments)[0]


def _ssim_mean(cfg: FrMetricConfig, shape):
    """SSIM's local mean, its window checked against frames of ``shape``."""
    _check_window(cfg.ssim_window, shape, f"ssim_window {cfg.ssim_window}")
    return lambda a: gaussian_smooth(a, cfg.ssim_window, cfg.ssim_sigma, "ssim_sigma")


def _ssim_map(x, y, cfg: FrMetricConfig) -> np.ndarray:
    return _ssim(_raw_moments(x, y, _ssim_mean(cfg, x.shape)), cfg)


# hv3d_s/flosim3d_s amplify reordered round-off past 1e-12; their re-record deletes this
def _smooth_2d(image: np.ndarray, size: int, sigma: float, what: str = "sigma") -> np.ndarray:
    return convolve2d(image, gaussian_kernel(size, sigma, what))


def _psnr_from_mse(mse: float, cap: float) -> float:
    if mse <= 0.0:
        return cap
    return min(cap, 10.0 * np.log10(255.0**2 / mse))


@_fr("higher_better")
def psnr_s(x, y, c, cfg):
    """PSNR over saliency-weighted MSE, averaged over views."""
    err = x - y
    return _psnr_from_mse(weighted_spatial_mean(err * err, c.s), cfg.psnr_cap)


@_fr("higher_better")
def ssim_s(x, y, c, cfg):
    """Saliency-pooled local SSIM, averaged over views."""
    return weighted_spatial_mean(_ssim_map(x, y, cfg), c.s)


def _msssim_scale(x, y, s, cfg: FrMetricConfig, smooth, weight: float,
                  luminance: bool) -> float:
    """One MS-SSIM scale's factor: its contrast-structure term pooled by
    ``s`` to the power ``weight``, times, with ``luminance``, the luminance
    term's; every array it makes dies when it returns."""
    c1, c2 = cfg.ssim_c1, cfg.ssim_c2

    def terms(mu_x, mu_y, var_x, var_y, cov):
        cs_map = (2.0 * cov + c2) / (var_x + var_y + c2)
        if not luminance:
            return (cs_map,)
        return cs_map, (2.0 * mu_x * mu_y + c1) / (mu_x * mu_x + mu_y * mu_y + c1)

    factor = 1.0
    for term_map in _by_blocks(terms, *_raw_moments(
            x, y, lambda a: smooth(a, cfg.ssim_window, cfg.ssim_sigma, "ssim_sigma"))):
        factor *= max(weighted_spatial_mean(term_map, s), 0.0) ** weight
    return factor


def _msssim_frame(x: np.ndarray, y: np.ndarray, s: np.ndarray,
                  cfg: FrMetricConfig, flags: list, smooth=None) -> float:
    """MS-SSIM of x and y pooled by s; fewer than 5 scales adds the flag
    ``scales_reduced:N`` to ``flags``.  ``smooth(image, size, sigma, what)`` is the
    local mean window; None means this module's gaussian_smooth, looked up
    at each call."""
    smooth = smooth or gaussian_smooth
    _check_window(cfg.ssim_window, x.shape, f"ssim_window {cfg.ssim_window}")
    # the first level, and each later one whose sides hold the window (the
    # levels shrink, so these lead them)
    scales = 1 + sum(min(shape) >= cfg.ssim_window for shape in pyramid_shapes(x.shape, 5)[1:])
    if scales < 2:
        raise TooSmall("image supports fewer than 2 MS-SSIM scales")
    if scales < 5:
        flags.append(f"scales_reduced:{scales}")
    weights = np.asarray(cfg.msssim_exponents[:scales])
    weights = weights / weights.sum()
    score = 1.0
    # each pyramid holds only its current level
    levels = zip(iter_pyramid(x, scales), iter_pyramid(y, scales),
                 build_saliency_pyramid(s, scales))
    for m, (x_m, y_m, s_m) in enumerate(levels):
        # luminance enters at the coarsest scale only
        score *= _msssim_scale(x_m, y_m, s_m, cfg, smooth, weights[m], m == scales - 1)
    return float(score)


@_fr("higher_better")
def msssim_s(x, y, c, cfg):
    """Multi-scale SSIM with per-scale saliency pyramids, averaged over views."""
    return _msssim_frame(x, y, c.s, cfg, c.flags)


def _vif_scale(x, y, w, mean, sigma_n_sq: float) -> tuple[float, float]:
    """The sums of one VIF scale's numerator and denominator maps weighted by
    ``w``, under the local mean ``mean``; every array it makes dies when it
    returns."""

    def maps(var_x, var_y, cov, w):
        var_x, var_y = np.maximum(var_x, 0.0), np.maximum(var_y, 0.0)
        g = np.where(var_x > 1e-10, cov / np.where(var_x > 1e-10, var_x, 1.0), 0.0)
        g = np.maximum(g, 0.0)
        sv_sq = np.maximum(var_y - g * cov, 0.0)
        return (np.log10(1.0 + g * g * var_x / (sv_sq + sigma_n_sq)) * w,
                np.log10(1.0 + var_x / sigma_n_sq) * w)

    num_map, den_map = _by_blocks(maps, *_raw_moments(x, y, mean)[2:], w)
    return num_map.sum(), den_map.sum()


def _vif_frame(x: np.ndarray, y: np.ndarray, s: np.ndarray,
               cfg: FrMetricConfig, smooth=None) -> float:
    """Pixel-domain VIF of x and y pooled by s; ``smooth`` as in
    _msssim_frame."""
    smooth = smooth or gaussian_smooth
    if min(x.shape) < 32:
        raise TooSmall("VIF needs at least 32 pixels per side")
    _check_window(2 ** cfg.vif_scales + 1, x.shape,  # the first, widest window
                  f"vif_scales {cfg.vif_scales}: the first VIF window (2**{cfg.vif_scales} + 1)")
    num_total = 0.0
    den_total = 0.0
    for k, w in enumerate(build_saliency_pyramid(s, cfg.vif_scales), start=1):
        size = 2 ** (cfg.vif_scales - k + 1) + 1

        def mean(a):
            return smooth(a, size, size / 5.0)

        if k > 1:  # copies: a strided view would hold the whole smoothed level
            x = mean(x)[::2, ::2].copy()
            y = mean(y)[::2, ::2].copy()
        num, den = _vif_scale(x, y, w, mean, cfg.vif_sigma_n_sq)
        num_total += num
        den_total += den
    if den_total <= 0.0:
        return 1.0
    return float(num_total / den_total)


@_fr("higher_better")
def vif_s(x, y, c, cfg):
    """Pixel-domain visual information fidelity over 4 scales, view-averaged."""
    return _vif_frame(x, y, c.s, cfg)


@_fr("higher_better", needs=("d_ref", "d_dist"))
def ddl1_s(x, y, c, cfg):
    """SSIM damped by disparity differences, doubled: the frame value is left + right.

    The disparity factor is clamp01(1 - sqrt(|D^2 - D'^2|) / 255); the absolute
    value keeps the radicand real when the distorted disparity is larger.
    It is formed pointwise with the damped map, so it is never a whole plane.
    """

    def damped(ssim_map, dr, dd):
        return (ssim_map * np.clip(1.0 - np.sqrt(np.abs(dr * dr - dd * dd)) / 255.0, 0.0, 1.0),)

    return 2.0 * weighted_spatial_mean(
        _by_blocks(damped, _ssim_map(x, y, cfg), c.d_ref, c.d_dist)[0], c.s)


@_fr("composite", needs=("d_ref", "d_dist"), over="frame")
def oq_s(c, cfg):
    """Combination of view SSIM and mean absolute disparity difference.

    Orientation is composite: the two terms move in opposite directions and
    the published combination constants are unavailable.  IQ is clamped at
    0, as hv3d_s clamps its SSIM term, so a fractional ``oq_d`` stays real.
    """
    iq = view_mean(lambda x, y: weighted_spatial_mean(_ssim_map(x.luma, y.luma, cfg), c.s),
                   c.ref, c.dist)
    dq = weighted_spatial_mean(np.abs(c.d_ref - c.d_dist), c.s)
    iq_d = _power(max(iq, 0.0), cfg, "oq_d")
    dq_e = _power(dq, cfg, "oq_e")
    return cfg.oq_a * iq_d + cfg.oq_b * dq_e + cfg.oq_c * iq_d * dq_e


def _cyclopean(pair: StereoFrame, d: np.ndarray) -> np.ndarray:
    """Disparity-compensated average of the two views."""
    left, right = pair.left.luma, pair.right.luma
    h, w = left.shape
    cols = np.clip(np.arange(w)[None, :] - np.rint(d).astype(int), 0, w - 1)
    rows = np.arange(h)[:, None]
    return 0.5 * (left + right[rows, cols])


@_fr("higher_better", needs=("d_ref", "d_dist"), over="frame")
def ciq_s(c, cfg):
    """Saliency-pooled SSIM between the two cyclopean views."""
    # each view is made inside the moments, so it dies after its last read
    mean = _ssim_mean(cfg, c.ref.left.shape)
    return weighted_spatial_mean(_ssim(_raw_moments(
        lambda: _cyclopean(c.ref, c.d_ref), lambda: _cyclopean(c.dist, c.d_dist), mean), cfg), c.s)


def _gather_blocks(image: np.ndarray, anchors: np.ndarray, size: int) -> np.ndarray:
    """(n, size, size) blocks of `image` at the (n, 2) array of (y0, x0)."""
    return sliding_window_view(image, (size, size))[anchors[:, 0], anchors[:, 1]]


def _block_grid(h: int, w: int, size: int) -> np.ndarray:
    """(n, 2) row-major origins of the whole size x size blocks."""
    if h < size or w < size:
        raise TooSmall(f"frame smaller than one {size}x{size} block")
    y0, x0 = np.meshgrid(np.arange(0, h - size + 1, size),
                         np.arange(0, w - size + 1, size), indexing="ij")
    return np.stack([y0.ravel(), x0.ravel()], axis=1)


def _matched_anchors(anchors: np.ndarray, d_values: np.ndarray, size: int,
                     w: int) -> np.ndarray:
    """Anchors moved left by each block's rounded mean disparity."""
    d = np.rint(_gather_blocks(d_values, anchors, size).mean(axis=(1, 2)))
    x1 = np.clip(anchors[:, 1] - d.astype(int), 0, w - size)
    return np.stack([anchors[:, 0], x1], axis=1)


def _block_weights(s: np.ndarray, anchors: np.ndarray, size: int) -> np.ndarray:
    return _gather_blocks(s, anchors, size).mean(axis=(1, 2))


def _structure_errors(ref_t: StereoFrame, dist_t: StereoFrame, d_values: np.ndarray,
                      cfg: FrMetricConfig):
    """Per 4x4 block: CSF-masked squared difference of 3D-DCT coefficients,
    taken as the 3D-DCT of the block differences (the DCT is linear)."""
    h, w = ref_t.left.shape
    anchors = _block_grid(h, w, 4)
    matched = _matched_anchors(anchors, d_values, 4, w)

    def block_pairs(frame: StereoFrame) -> np.ndarray:
        return np.stack([_gather_blocks(frame.left.luma, anchors, 4),
                         _gather_blocks(frame.right.luma, matched, 4)], axis=-1)

    diff = dct3_stereo_stack(block_pairs(ref_t) - block_pairs(dist_t))
    csf = np.asarray(cfg.csf_mask, dtype=np.float64)[None, :, :, None]
    errors = np.mean((diff * csf) ** 2, axis=(1, 2, 3))
    return anchors, errors


@_fr("higher_better", needs=("d_ref",), over="frame")
def phvs3d_s(c, cfg):
    """PSNR over the saliency-weighted MSE of 3D-DCT block structures."""
    anchors, errors = _structure_errors(c.ref, c.dist, c.d_ref, cfg)
    mse = weighted_spatial_mean(errors, _block_weights(c.s, anchors, 4))
    return _psnr_from_mse(mse, cfg.psnr_cap)


@_fr("higher_better", needs=("d_ref", "d_dist"), over="frame")
def phsd_s(c, cfg):
    """Block-structure error masked by local disparity variance, mixed with
    the squared disparity-difference error."""
    eps, alpha = cfg.phsd_epsilon, cfg.phsd_alpha
    mse_d = weighted_spatial_mean((c.d_ref - c.d_dist) ** 2, c.s)
    anchors, errors = _structure_errors(c.ref, c.dist, c.d_ref, cfg)
    sigma_d = np.var(_gather_blocks(c.d_ref, anchors, 4), axis=(1, 2))
    den = errors + alpha * sigma_d
    masked = np.where(den > 0.0, errors * errors / np.where(den > 0.0, den, 1.0), 0.0)
    mse_i = weighted_spatial_mean(masked, _block_weights(c.s, anchors, 4))
    return _psnr_from_mse((1.0 - eps) * mse_i + eps * mse_d, cfg.psnr_cap)


@_fr("higher_better", needs=("d_ref", "d_dist"), over="frame")
def mj3d_s(c, cfg):
    """Multi-scale SSIM of the cyclopean views."""
    ci_ref = _cyclopean(c.ref, c.d_ref)
    ci_dist = _cyclopean(c.dist, c.d_dist)
    return _msssim_frame(ci_ref, ci_dist, c.s, cfg, c.flags)


def _global_ssim(x: np.ndarray, y: np.ndarray, cfg: FrMetricConfig) -> np.ndarray:
    """SSIM of each whole block of the (n, b, b) stacks x and y."""
    return _ssim(_raw_moments(x, y, lambda a: a.mean(axis=(-2, -1))), cfg)


@_fr("higher_better", needs=("d_ref", "d_dist"), over="frame")
def hv3d_s(c, cfg):
    """Product of fused-block SSIM, disparity VIF, and the saliency-weighted
    block variance ratio of the reference disparity map."""
    b = cfg.hv3d_block
    h, w = c.ref.left.shape
    anchors = _block_grid(h, w, b)
    dr, dd = c.d_ref, c.d_dist

    def fused_blocks(frame: StereoFrame, d_values: np.ndarray) -> np.ndarray:
        # fused in pixels: the inverse of the mean of the two blocks' orthonormal DCTs
        matched = _matched_anchors(anchors, d_values, b, w)
        return 0.5 * (_gather_blocks(frame.left.luma, anchors, b)
                      + _gather_blocks(frame.right.luma, matched, b))

    rec_ref = fused_blocks(c.ref, dr)
    rec_dist = fused_blocks(c.dist, dd)
    weights = _block_weights(c.s, anchors, b)
    # term1 raises DegenerateSaliency on zero block weight, so term3 may divide
    term1 = weighted_spatial_mean(_global_ssim(rec_ref, rec_dist, cfg), weights)
    del rec_ref, rec_dist  # a frame's worth each, dead before the VIF term
    term2 = _vif_frame(dr, dd, c.s, cfg, _smooth_2d)
    sigma = np.var(_gather_blocks(dr, anchors, b), axis=(1, 2))
    max_sigma = sigma.max()
    if max_sigma <= 0.0:
        term3 = 1.0
    else:
        term3 = float((sigma * weights).sum() / (weights.sum() * max_sigma))
    return (_power(max(term1, 0.0), cfg, "hv3d_beta1")
            * _power(max(term2, 0.0), cfg, "hv3d_beta2")
            * _power(term3, cfg, "hv3d_beta3"))


def _patch_features(image: np.ndarray, patch: int) -> np.ndarray:
    """(mean, variance, min gradient-covariance eigenvalue) per patch."""
    grad = sobel_gradient(image)
    anchors = _block_grid(image.shape[0], image.shape[1], patch)
    p, pgx, pgy = (_gather_blocks(a, anchors, patch)
                   for a in (image, grad["gx"], grad["gy"]))
    axes = (1, 2)
    a = (pgx * pgx).mean(axis=axes)
    c = (pgy * pgy).mean(axis=axes)
    bb = (pgx * pgy).mean(axis=axes)
    min_eig = 0.5 * ((a + c) - np.sqrt((a - c) ** 2 + 4.0 * bb * bb))
    return np.stack([p.mean(axis=axes), p.var(axis=axes), min_eig], axis=1)


@_fr("lower_better", needs=("d_ref", "d_dist"), over="sequence", history=1)
def flosim3d_s(frames, cfg):
    """Temporal patch-feature dispersion gated by spatial and depth
    dissimilarity (1 - MS-SSIM); lower is better, 0 means identical.

    Every frame's flow term is scaled by the mean of all depth terms, so it
    walks the frames keeping the previous frame's two StereoFrames and each
    frame's two terms."""
    flow_scores = []
    depth_scores = []
    prev = None  # the previous frame's (ref, dist) StereoFrames
    for c in frames:
        flags = c.flags
        if prev is None:
            prev = c.ref, c.dist
            continue

        def flow(ref_t, dist_t, ref_p, dist_p):  # one view's Frames, now and before
            q_fl = float(np.abs(_patch_features(ref_t.luma - ref_p.luma, cfg.flosim_patch)
                                - _patch_features(dist_t.luma - dist_p.luma, cfg.flosim_patch))
                         .sum(axis=1).mean())
            # the frame differences are dead before the MS-SSIM term
            return (1.0 - _msssim_frame(ref_t.luma, dist_t.luma, c.s, cfg, c.flags,
                                        _smooth_2d)) * q_fl

        flow_scores.append(view_mean(flow, c.ref, c.dist, *prev))
        # the shared map serves both view depths
        depth_scores.append(1.0 - _msssim_frame(
            *(disparity_to_depth(d) * 255.0 for d in (c.d_ref, c.d_dist)), c.s, cfg, c.flags,
            _smooth_2d))
        prev = c.ref, c.dist
    q_d_mean = float(np.mean(depth_scores))
    if q_d_mean == 0.0:  # equal depth maps: every frame scores 0, whatever the views
        flags.append("depth_term_zero")
    return [f * q_d_mean for f in flow_scores]
