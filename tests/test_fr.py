import dataclasses
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import stereoqa.fr as fr
from stereoqa.disparity import DisparityMap, iter_disparity_series
from stereoqa.distort import DistortionSpec, apply
from stereoqa.errors import (
    DisparityRequired,
    NeedsTemporalContext,
    ParamError,
    SequenceLengthError,
    TooSmall,
)
from stereoqa.fr import FR_METRICS, FrMetricConfig
from stereoqa import kernels
from stereoqa.kernels import dct3_stereo_stack, gaussian_smooth, iter_pyramid, sobel_gradient
from stereoqa.media import StereoFrame
from stereoqa.rng import SeededRng
from stereoqa.saliency import SaliencyMap, normalize_map, uniform_series, weighted_spatial_mean

from conftest import flat_seq, make_seq, seq_from_lumas, smooth_2d


def _flat_disparity(seq, value=0.0):
    shape = (seq.height, seq.width)
    return [DisparityMap(np.full(shape, value)) for _ in range(len(seq))]


def _disparity_kwargs(metric, ref, dist):
    out = {}
    for slot in FR_METRICS[metric].needs:
        out[slot] = _flat_disparity(ref if slot == "d_ref" else dist)
    return out


def test_psnr_known_mse():
    ref = flat_seq(100.0, frames=2, size=16)
    dist = flat_seq(100.0 + math.sqrt(50.0), frames=2, size=16)
    rep = fr.psnr_s(ref, dist)
    assert rep.score == pytest.approx(10 * math.log10(255**2 / 50.0), abs=1e-9)


def test_psnr_cap_applied():
    ref = flat_seq(100.0, frames=1, size=16)
    rep = fr.psnr_s(ref, ref)
    assert rep.score == FrMetricConfig().psnr_cap


def test_ssim_symmetric_in_luma_shift():
    a = make_seq(41, frames=2, size=32)
    b = make_seq(42, frames=2, size=32)
    assert fr.ssim_s(a, b).score == pytest.approx(fr.ssim_s(b, a).score)


def test_length_mismatch_rejected():
    a = make_seq(1, frames=2, size=32)
    b = make_seq(1, frames=3, size=32)
    with pytest.raises(SequenceLengthError):
        fr.psnr_s(a, b)


def test_disparity_required():
    a = make_seq(1, frames=2, size=32)
    with pytest.raises(DisparityRequired):
        fr.ddl1_s(a, a)


def test_flosim_needs_two_frames():
    a = make_seq(1, frames=1, size=64)
    with pytest.raises(NeedsTemporalContext):
        fr.flosim3d_s(a, a, d_ref=_flat_disparity(a), d_dist=_flat_disparity(a))


@pytest.mark.parametrize("metric", ["msssim_s", "mj3d_s", "flosim3d_s"])
def test_msssim_metrics_flag_reduced_scales(metric):
    # a 64-px frame holds the 11-px window at 3 of the 5 MS-SSIM scales
    ref = make_seq(1, frames=2, size=64, block=8)
    dist = apply(ref, DistortionSpec(kind="awgn", params={"variance": 0.01}, seed=1))
    # the flat disparity maps are equal, so flosim3d_s's depth term is 0 and flagged
    zero = ["depth_term_zero"] if metric == "flosim3d_s" else []
    report = FR_METRICS[metric](ref, dist, **_disparity_kwargs(metric, ref, dist))
    assert report.flags == ["scales_reduced:3", *zero]
    big = make_seq(1, frames=2, size=176)  # 176 / 2**4 = 11: all 5 scales
    assert FR_METRICS[metric](big, big, **_disparity_kwargs(metric, big, big)).flags == zero


def test_flosim_flags_a_zero_depth_term():
    # equal disparity maps make the depth term 0, so a visibly noisy copy
    # scores the "identical" 0.0 at every frame; the flag says why
    ref = make_seq(5, frames=3, size=64, block=8)
    dist = apply(ref, DistortionSpec(kind="awgn", params={"variance": 0.01}, seed=1))
    ramp = [DisparityMap(np.tile(np.linspace(0.0, 4.0, 64), (64, 1)))] * 3
    equal = fr.flosim3d_s(ref, dist, d_ref=ramp, d_dist=ramp)
    assert equal.frame_scores == [0.0, 0.0]
    assert equal.flags == ["scales_reduced:3", "depth_term_zero"]
    assert fr.ssim_s(ref, dist).score < 0.9
    noisy = [DisparityMap(m.values + SeededRng(t).uniform(64 * 64).reshape(64, 64))
             for t, m in enumerate(ramp)]
    moved = fr.flosim3d_s(ref, dist, d_ref=ramp, d_dist=noisy)
    assert all(s > 0.0 for s in moved.frame_scores)
    assert moved.flags == ["scales_reduced:3"]


def test_flosim_scores_each_view_with_its_own_flow_term(monkeypatch):
    """Each view's flow term goes with that view's MS-SSIM term, so the
    report stays the same when view_mean scores the right view first."""
    ref = make_seq(5, frames=3, size=64, block=8)
    dist = apply(ref, DistortionSpec(kind="awgn", params={"variance": 0.01}, seed=1))
    maps = {"d_ref": list(iter_disparity_series(ref)), "d_dist": list(iter_disparity_series(dist))}
    want = dataclasses.asdict(fr.flosim3d_s(ref, dist, **maps))
    assert want["score"] > 0.0
    view_mean = fr.view_mean
    monkeypatch.setattr(fr, "view_mean", lambda f, *frames: view_mean(
        f, *(StereoFrame(q.right, q.left) for q in frames)))
    assert dataclasses.asdict(fr.flosim3d_s(ref, dist, **maps)) == want


def test_cyclopean_fuse_zero_disparity_is_average():
    seq = make_seq(43, frames=1, size=32)
    pair = seq.frames[0]
    fused = fr._cyclopean(pair, np.zeros((32, 32)))
    assert np.allclose(fused, 0.5 * (pair.left.luma + pair.right.luma))


def test_cyclopean_fuse_shift_alignment():
    seq = make_seq(44, frames=1, size=32)
    pair = seq.frames[0]
    # with disparity d, column x of the left view pairs with x-d on the right
    fused = fr._cyclopean(pair, np.full((32, 32), 4.0))
    expected = 0.5 * (pair.left.luma[:, 10] + pair.right.luma[:, 6])
    assert np.allclose(fused[:, 10], expected)


def test_reports_carry_metadata():
    a = make_seq(45, frames=2, size=32)
    rep = fr.ssim_s(a, a, s_series=uniform_series(a))
    assert rep.metric == "ssim_s"
    assert rep.saliency_mode == "uniform"
    assert len(rep.frame_scores) == 2
    assert len(rep.config_fingerprint) == 12
    assert rep.score == pytest.approx(np.mean(rep.frame_scores))


def test_fingerprint_tracks_config():
    a = make_seq(46, frames=1, size=32)
    r1 = fr.psnr_s(a, a)
    r2 = fr.psnr_s(a, a, cfg=FrMetricConfig(psnr_cap=90.0))
    assert r1.config_fingerprint != r2.config_fingerprint
    assert r2.score == 90.0


def test_oq_neutral_defaults_track_image_quality():
    ref = make_seq(47, frames=2, size=64)
    dist = apply(ref, DistortionSpec(kind="awgn", params={"variance": 0.01}, seed=5))
    d = _flat_disparity(ref)
    oq = fr.oq_s(ref, dist, d_ref=d, d_dist=d)
    iq = fr.ssim_s(ref, dist)
    # with identical disparity the depth factor is perfect, so OQ follows IQ
    assert oq.score == pytest.approx(iq.score, rel=1e-6)
    assert oq.orientation == "composite"


def test_oq_cross_term_raises_dq_to_its_own_exponent():
    # a IQ^d + b DQ^e + c IQ^d DQ^e (You, Xing, Perkis & Wang, VPQM 2010), DQ = 3
    ref = make_seq(47, frames=2, size=64)
    dist = apply(ref, DistortionSpec(kind="awgn", params={"variance": 0.0001}, seed=5))
    cfg = FrMetricConfig(oq_c=1.0, oq_d=1.0, oq_e=2.0)
    oq = fr.oq_s(ref, dist, d_ref=_flat_disparity(ref, 2.0),
                 d_dist=_flat_disparity(dist, 5.0), cfg=cfg).score
    iq = fr.ssim_s(ref, dist).score
    assert oq == pytest.approx(iq + 9.0 + 9.0 * iq, rel=1e-12)
    assert oq == pytest.approx(18.99, abs=0.01)


def test_oq_clamps_a_negative_view_ssim_before_a_fractional_power():
    # a luma against its negative: SSIM near -1, so IQ^0.5 would be NaN
    luma = np.random.default_rng(0).random((64, 64)) * 255.0
    ref, dist = seq_from_lumas([luma]), seq_from_lumas([255.0 - luma])
    assert fr.ssim_s(ref, dist).score < -0.9
    d = _flat_disparity(ref)
    for oq_d in (0.5, 1.0):
        rep = fr.oq_s(ref, dist, d_ref=d, d_dist=d, cfg=FrMetricConfig(oq_d=oq_d))
        assert rep.score == 0.0  # a * 0 + b * DQ, DQ = 0


def test_ddl1_counts_both_views():
    ref = make_seq(48, frames=2, size=64)
    d = _flat_disparity(ref)
    rep = fr.ddl1_s(ref, ref, d_ref=d, d_dist=d)
    assert rep.score == pytest.approx(2.0)


def test_vif_decreases_with_noise_level():
    ref = make_seq(49, frames=2, size=64, block=8)
    low = apply(ref, DistortionSpec(kind="awgn", params={"variance": 0.002}, seed=1))
    high = apply(ref, DistortionSpec(kind="awgn", params={"variance": 0.02}, seed=1))
    assert fr.vif_s(ref, high).score < fr.vif_s(ref, low).score


def test_msssim_weight_validation():
    with pytest.raises(Exception):
        FrMetricConfig(msssim_exponents=(0.5, 0.2))


@pytest.mark.parametrize("override", [
    {"hv3d_block": 0}, {"hv3d_block": -8}, {"flosim_patch": 0},
    {"ssim_window": 0}, {"ssim_window": 11.0}, {"ssim_window": True},
    {"vif_scales": 0}, {"vif_scales": -1}, {"vif_scales": 1.5},
    {"ssim_sigma": 0.0}, {"ssim_sigma": -1.5},
    {"vif_sigma_n_sq": 0.0}, {"vif_sigma_n_sq": -2.0},
], ids=lambda o: "-".join(f"{k}={v}" for k, v in o.items()))
def test_config_rejects_bad_sizes(override):
    with pytest.raises(ParamError):
        FrMetricConfig(**override)


def test_phvs_noise_sensitivity():
    ref = make_seq(50, frames=2, size=64, block=8)
    dist = apply(ref, DistortionSpec(kind="awgn", params={"variance": 0.01}, seed=2))
    kw = _disparity_kwargs("phvs3d_s", ref, dist)
    rep = fr.phvs3d_s(ref, dist, **kw)
    assert rep.score < FrMetricConfig().psnr_cap


def test_every_registered_metric_runs():
    ref = make_seq(51, frames=2, size=64)
    dist = apply(ref, DistortionSpec(kind="awgn", params={"variance": 0.005}, seed=3))
    for metric, fn in FR_METRICS.items():
        rep = fn(ref, dist, **_disparity_kwargs(metric, ref, dist))
        assert np.isfinite(rep.score), metric
        assert rep.orientation in ("higher_better", "lower_better", "composite")


# SSIM, MS-SSIM and VIF windows on luma run as two 1-D passes; hv3d_s and
# flosim3d_s keep the 2-D window.
_SEPARABLE = ("ssim_s", "ddl1_s", "oq_s", "ciq_s", "msssim_s", "mj3d_s", "vif_s")
_WINDOW_2D = ("hv3d_s", "flosim3d_s")


def _window_inputs(h, w, frames=1, salient=True):
    """Integer luma, its AWGN copy, integer disparity 0..8 and saliency."""
    rng = SeededRng(h * 1000 + w)

    def planes(scale):
        return [np.floor(rng.uniform(h * w).reshape(h, w) * scale) for _ in range(frames)]

    ref = seq_from_lumas(planes(256.0), planes(256.0))
    dist = apply(ref, DistortionSpec(kind="awgn", params={"variance": 0.005}, seed=7))
    maps = {slot: [DisparityMap(d) for d in planes(9.0)] for slot in ("d_ref", "d_dist")}
    maps["s_series"] = [SaliencyMap(rng.uniform(h * w).reshape(h, w))
                        for _ in range(frames)] if salient else None
    return ref, dist, maps


def _score(metric, ref, dist, maps):
    slots = FR_METRICS[metric].needs + ("s_series",)
    return FR_METRICS[metric](ref, dist, **{slot: maps[slot] for slot in slots})


@pytest.mark.parametrize("salient", [False, True], ids=["plain", "salient"])
@pytest.mark.parametrize("h, w", [(64, 64), (72, 96), (100, 132), (33, 97)])
@pytest.mark.parametrize("metric", _SEPARABLE)
def test_separable_windows_match_2d(metric, h, w, salient, monkeypatch):
    ref, dist, maps = _window_inputs(h, w, salient=salient)
    got = _score(metric, ref, dist, maps)
    monkeypatch.setattr(fr, "gaussian_smooth", smooth_2d)
    want = _score(metric, ref, dist, maps)
    np.testing.assert_allclose(got.frame_scores, want.frame_scores, rtol=1e-12, atol=0)


class _Called(Exception):
    pass


@pytest.mark.parametrize("metric", _SEPARABLE + _WINDOW_2D)
def test_window_split(metric, monkeypatch):
    ref, dist, maps = _window_inputs(64, 64, frames=2)
    want = _score(metric, ref, dist, maps)

    def refuse(*args):
        raise _Called

    monkeypatch.setattr(fr, "gaussian_smooth", refuse)
    if metric in _WINDOW_2D:
        assert _score(metric, ref, dist, maps).frame_scores == want.frame_scores
    else:
        with pytest.raises(_Called):
            _score(metric, ref, dist, maps)


# Per-block loop references for the block helpers, at a size whose height and
# width are not multiples of 8.
_H, _W = 100, 132


def _grid_loop(h, w, size):
    return [(y0, x0) for y0 in range(0, h - size + 1, size)
            for x0 in range(0, w - size + 1, size)]


def _matched_loop(anchors, d_values, size, w):
    out = []
    for y0, x0 in anchors:
        d = int(np.rint(d_values[y0:y0 + size, x0:x0 + size].mean()))
        out.append((y0, int(np.clip(x0 - d, 0, w - size))))
    return out


def _block_inputs(seed=61):
    """Integer luma, integer disparity 0..32 and random saliency."""
    rng = SeededRng(seed)
    lumas = [np.floor(rng.uniform(_H * _W).reshape(_H, _W) * 256.0) for _ in range(4)]
    ref = seq_from_lumas([lumas[0]], [lumas[1]]).frames[0]
    dist = seq_from_lumas([lumas[2]], [lumas[3]]).frames[0]
    d_values = np.floor(rng.uniform(_H * _W).reshape(_H, _W) * 33.0)
    s = SaliencyMap(rng.uniform(_H * _W).reshape(_H, _W))
    return ref, dist, d_values, s


@pytest.mark.parametrize("size", [4, 8])
def test_matched_anchors_match_block_loop(size):
    _, _, d_values, _ = _block_inputs()
    anchors = fr._block_grid(_H, _W, size)
    assert anchors.tolist() == [list(a) for a in _grid_loop(_H, _W, size)]
    want = _matched_loop(_grid_loop(_H, _W, size), d_values, size, _W)
    got = fr._matched_anchors(anchors, d_values, size, _W)
    assert got.tolist() == [list(a) for a in want]


@pytest.mark.parametrize("size", [4, 8])
def test_block_weights_match_block_loop(size):
    _, _, _, s = _block_inputs()
    want = [s.values[y0:y0 + size, x0:x0 + size].mean()
            for y0, x0 in _grid_loop(_H, _W, size)]
    got = fr._block_weights(s.values, fr._block_grid(_H, _W, size), size)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


def test_structure_errors_match_block_loop():
    ref, dist, d_values, _ = _block_inputs()
    cfg = FrMetricConfig(csf_mask=tuple(tuple(1.0 + 0.1 * (i + j) for j in range(4))
                                        for i in range(4)))
    anchors = _grid_loop(_H, _W, 4)
    matched = _matched_loop(anchors, d_values, 4, _W)

    def coefficients(frame):
        return dct3_stereo_stack(np.stack([
            np.stack([frame.left.luma[y0:y0 + 4, x0:x0 + 4],
                      frame.right.luma[y1:y1 + 4, x1:x1 + 4]], axis=-1)
            for (y0, x0), (y1, x1) in zip(anchors, matched)]))

    diff = coefficients(ref) - coefficients(dist)
    csf = np.asarray(cfg.csf_mask)[None, :, :, None]
    want = np.mean((diff * csf) ** 2, axis=(1, 2, 3))
    got_anchors, got = fr._structure_errors(ref, dist, d_values, cfg)
    assert got_anchors.tolist() == [list(a) for a in anchors]
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


def test_global_ssim_matches_block_loop():
    ref, dist, _, _ = _block_inputs()
    cfg = FrMetricConfig()
    anchors = fr._block_grid(_H, _W, 8)
    x = fr._gather_blocks(ref.left.luma, anchors, 8)
    y = fr._gather_blocks(dist.left.luma, anchors, 8)
    want = []
    for xb, yb in zip(x, y):
        mu_x, mu_y = xb.mean(), yb.mean()
        var_x = (xb * xb).mean() - mu_x * mu_x
        var_y = (yb * yb).mean() - mu_y * mu_y
        cov = (xb * yb).mean() - mu_x * mu_y
        want.append(((2 * mu_x * mu_y + cfg.ssim_c1) * (2 * cov + cfg.ssim_c2))
                    / ((mu_x * mu_x + mu_y * mu_y + cfg.ssim_c1)
                       * (var_x + var_y + cfg.ssim_c2)))
    np.testing.assert_allclose(fr._global_ssim(x, y, cfg), want, rtol=1e-13, atol=0)


def test_patch_features_match_block_loop():
    ref, dist, _, _ = _block_inputs()
    image = ref.left.luma - dist.left.luma
    grad = sobel_gradient(image)
    gx, gy = grad["gx"], grad["gy"]
    rows = []
    for y0, x0 in _grid_loop(_H, _W, 8):
        p = image[y0:y0 + 8, x0:x0 + 8]
        pgx, pgy = gx[y0:y0 + 8, x0:x0 + 8], gy[y0:y0 + 8, x0:x0 + 8]
        a, c = (pgx * pgx).mean(), (pgy * pgy).mean()
        bb = (pgx * pgy).mean()
        rows.append((p.mean(), p.var(),
                     0.5 * ((a + c) - np.sqrt((a - c) ** 2 + 4.0 * bb * bb))))
    got = fr._patch_features(image, 8)
    np.testing.assert_allclose(got, np.asarray(rows), rtol=1e-13, atol=0)


def test_block_metrics_need_one_whole_block():
    with pytest.raises(TooSmall):
        fr._block_grid(3, 40, 4)


# The SSIM-family formulas evaluate their expressions on blocks of rows; the
# plain whole-array expressions below are the reference they must equal bit
# for bit.  A block of 1 element is one row, 777 leaves a ragged last block.
_BLOCKS = [1, 777, fr._BLOCK]


def _plain_moments(x, y, mean):
    mu_x, mu_y = mean(x), mean(y)
    return (mu_x, mu_y, mean(x * x) - mu_x * mu_x, mean(y * y) - mu_y * mu_y,
            mean(x * y) - mu_x * mu_y)


def _plain_ssim(moments, cfg):
    mu_x, mu_y, var_x, var_y, cov = moments
    c1, c2 = cfg.ssim_c1, cfg.ssim_c2
    return (((2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2))
            / ((mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2)))


def _plain_ssim_map(x, y, cfg):
    return _plain_ssim(_plain_moments(
        x, y, lambda a: gaussian_smooth(a, cfg.ssim_window, cfg.ssim_sigma)), cfg)


def _plain_saliency_levels(s, levels):
    return [(lvl - lvl.min()) / (lvl.max() - lvl.min()) if np.ptp(lvl) >= 1e-12
            else np.ones_like(lvl) for lvl in iter_pyramid(s, levels)]


def _plain_msssim(x, y, s, cfg, smooth):
    x_levels = list(iter_pyramid(x, 5))
    scales = 1 + sum(min(lvl.shape) >= cfg.ssim_window for lvl in x_levels[1:])
    weights = np.asarray(cfg.msssim_exponents[:scales])
    weights = weights / weights.sum()
    c1, c2 = cfg.ssim_c1, cfg.ssim_c2
    score = 1.0
    for m, (x_m, y_m, s_m) in enumerate(zip(x_levels, iter_pyramid(y, scales),
                                            _plain_saliency_levels(s, scales))):
        mu_x, mu_y, var_x, var_y, cov = _plain_moments(
            x_m, y_m, lambda a: smooth(a, cfg.ssim_window, cfg.ssim_sigma))
        cs_map = (2.0 * cov + c2) / (var_x + var_y + c2)
        term = max(weighted_spatial_mean(cs_map, s_m), 0.0) ** weights[m]
        if m == scales - 1:
            l_map = (2.0 * mu_x * mu_y + c1) / (mu_x * mu_x + mu_y * mu_y + c1)
            term *= max(weighted_spatial_mean(l_map, s_m), 0.0) ** weights[m]
        score *= term
    return float(score)


def _plain_vif(x, y, s, cfg, smooth):
    num_total = den_total = 0.0
    for k, w in enumerate(_plain_saliency_levels(s, cfg.vif_scales), start=1):
        size = 2 ** (cfg.vif_scales - k + 1) + 1

        def mean(a):
            return smooth(a, size, size / 5.0)

        if k > 1:
            x, y = mean(x)[::2, ::2], mean(y)[::2, ::2]
        _, _, var_x, var_y, cov = _plain_moments(x, y, mean)
        var_x, var_y = np.maximum(var_x, 0.0), np.maximum(var_y, 0.0)
        g = np.where(var_x > 1e-10, cov / np.where(var_x > 1e-10, var_x, 1.0), 0.0)
        g = np.maximum(g, 0.0)
        sv_sq = np.maximum(var_y - g * cov, 0.0)
        num_total += (np.log10(1.0 + g * g * var_x / (sv_sq + cfg.vif_sigma_n_sq)) * w).sum()
        den_total += (np.log10(1.0 + var_x / cfg.vif_sigma_n_sq) * w).sum()
    return 1.0 if den_total <= 0.0 else float(num_total / den_total)


def _pair(shape, seed):
    rng = np.random.default_rng(seed)
    x = smooth_2d(rng.random(shape) * 255.0, 5, 2.0)
    return x, np.clip(x + rng.normal(0.0, 8.0, shape), 0.0, 255.0)


@pytest.mark.parametrize("shape", [(33, 47), (64, 64), (90, 161)])
@pytest.mark.parametrize("saliency", ["map", "ones", "unnormalized"])
def test_ssim_family_equals_the_plain_expressions_bit_for_bit(monkeypatch, shape, saliency):
    x, y = _pair(shape, sum(shape))
    raw = np.random.default_rng(1).random(shape)
    # the values a pyramid keeps as its first level (a normalized map, and the
    # driver's read-only ones), and a map it re-normalizes
    s = {"map": normalize_map(raw).values, "ones": SaliencyMap(np.ones(shape)).values,
         "unnormalized": SaliencyMap(0.5 + 0.25 * raw).values}[saliency]
    cfg = FrMetricConfig()
    for block in _BLOCKS:
        monkeypatch.setattr(fr, "_BLOCK", block)
        assert np.array_equal(fr._ssim_map(x, y, cfg), _plain_ssim_map(x, y, cfg))
        for smooth in (None, fr._smooth_2d):
            plain = smooth or gaussian_smooth
            assert fr._msssim_frame(x, y, s, cfg, [], smooth) == _plain_msssim(x, y, s, cfg,
                                                                               plain)
            assert fr._vif_frame(x, y, s, cfg, smooth) == _plain_vif(x, y, s, cfg, plain)


@pytest.mark.parametrize("block", _BLOCKS)
@pytest.mark.parametrize("shape", [(1, 8, 8), (37, 4, 4), (1000, 8, 8)])
def test_global_ssim_equals_the_plain_expression_bit_for_bit(monkeypatch, shape, block):
    monkeypatch.setattr(fr, "_BLOCK", block)
    rng = np.random.default_rng(sum(shape))
    x = rng.random(shape) * 255.0
    y = np.clip(x + rng.normal(0.0, 8.0, shape), 0.0, 255.0)
    cfg = FrMetricConfig()
    want = _plain_ssim(_plain_moments(x, y, lambda a: a.mean(axis=(-2, -1))), cfg)
    assert np.array_equal(fr._global_ssim(x, y, cfg), want)


def _metric_call(name):
    def call(a, cfg):
        return FR_METRICS[name](a.ref, a.dist, s_series=a.s_series, d_ref=a.d_ref,
                                d_dist=a.d_dist, cfg=cfg)
    return pytest.param(call, id=name)


@pytest.mark.parametrize("call", [
    pytest.param(lambda a, cfg: fr._vif_frame(a.x, a.y, a.s, cfg), id="vif"),
    pytest.param(lambda a, cfg: fr._vif_frame(a.x, a.y, a.s, cfg, fr._smooth_2d), id="vif-2d"),
    pytest.param(lambda a, cfg: fr._msssim_frame(a.x, a.y, a.s, cfg, []), id="msssim"),
    pytest.param(lambda a, cfg: fr._ssim_map(a.x, a.y, cfg), id="ssim"),
    _metric_call("ddl1_s"),
    _metric_call("oq_s"),
    _metric_call("ciq_s"),
])
def test_ssim_family_working_set_is_about_seven_planes(monkeypatch, call):
    """Peak memory of one call on a 270x480 pair beyond its inputs, in
    frame-sized float64 planes: the moments' five, a product and a smoothing
    window's output and scratch.  The plain expressions held 13.1 (VIF),
    10.4 (MS-SSIM) and 8.0 (SSIM); ddl1_s held 8.0 with its whole disparity
    factor, and ciq_s 9.0 with both cyclopean views.  ddl1_s, oq_s and ciq_s
    score a one-frame pair through the driver.  One row strip: each further
    strip adds its halo rows."""
    monkeypatch.setattr(kernels, "_WORKERS", 1)
    x, y = _pair((270, 480), 0)
    rng = np.random.default_rng(1)
    s = normalize_map(rng.random(x.shape)).values
    ref, dist = seq_from_lumas([x], [np.roll(x, -3, axis=1)]), seq_from_lumas([y])
    d_ref, d_dist = ([DisparityMap(np.floor(rng.random(x.shape) * 8.0))] for _ in range(2))
    a = SimpleNamespace(x=x, y=y, s=s, ref=ref, dist=dist, s_series=[SaliencyMap(s)],
                        d_ref=d_ref, d_dist=d_dist)
    cfg = FrMetricConfig()
    call(a, cfg)  # a first call sets up whatever is cached
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call(a, cfg)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak / x.nbytes < 7.1
