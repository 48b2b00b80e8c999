import math

import numpy as np
import pytest

import stereoqa.fr as fr
from stereoqa.disparity import DisparityMap
from stereoqa.distort import DistortionSpec, apply
from stereoqa.errors import (
    DisparityRequired,
    NeedsTemporalContext,
    SequenceLengthError,
    TooSmall,
)
from stereoqa.fr import FR_METRICS, FR_NEEDS_DISPARITY, FrMetricConfig, cyclopean_fuse
from stereoqa.kernels import dct3_stereo_stack, sobel_gradient
from stereoqa.rng import SeededRng
from stereoqa.saliency import SaliencyMap, uniform_series

from conftest import flat_seq, make_seq, seq_from_lumas


def _flat_disparity(seq, value=0.0):
    shape = (seq.height, seq.width)
    return [DisparityMap(np.full(shape, value)) for _ in range(len(seq))]


def _disparity_kwargs(metric, ref, dist):
    out = {}
    for slot in FR_NEEDS_DISPARITY.get(metric, ()):
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


def test_cyclopean_fuse_zero_disparity_is_average():
    seq = make_seq(43, frames=1, size=32)
    pair = seq.frames[0]
    fused = cyclopean_fuse(pair, DisparityMap(np.zeros((32, 32))))
    assert np.allclose(fused, 0.5 * (pair.left.luma + pair.right.luma))


def test_cyclopean_fuse_shift_alignment():
    seq = make_seq(44, frames=1, size=32)
    pair = seq.frames[0]
    # with disparity d, column x of the left view pairs with x-d on the right
    fused = cyclopean_fuse(pair, DisparityMap(np.full((32, 32), 4.0)))
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
