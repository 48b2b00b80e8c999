import numpy as np
import pytest
import scipy.ndimage
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import stereoqa.nr as nr
from stereoqa.disparity import DisparityMap
from stereoqa.distort import DistortionSpec, apply
from stereoqa.errors import (
    DegenerateSaliency,
    DisparityRequired,
    NeedsTemporalContext,
    NoEdges,
    NumericError,
    ParamError,
    RangeError,
    TooSmall,
)
from stereoqa.kernels import Kernel2D, convolve2d, sobel_gradient
from stereoqa.media import Frame, StereoFrame, StereoSequence
from stereoqa.nr import NR_METRICS, NrMetricConfig
from stereoqa.saliency import SaliencyMap, iter_baseline_vam, uniform_series

from conftest import flat_seq, make_seq, seq_from_lumas


def _flat_disparity(seq, value=0.0):
    return [DisparityMap(np.full((seq.height, seq.width), value))
            for _ in range(len(seq))]


def test_gbim_flat_frame_zero():
    seq = flat_seq(128.0, frames=2, size=32)
    assert nr.gbim_s(seq).score == 0.0


def test_gbim_detects_blocking():
    noisy = make_seq(61, frames=2, size=64)
    smooth = apply(noisy, DistortionSpec(kind="gaussian_blur",
                                         params={"size": 7, "sigma": 2.0}))
    blocked = apply(smooth, DistortionSpec(kind="block_quantize",
                                           params={"step": 120.0}))
    assert nr.gbim_s(blocked).score > nr.gbim_s(smooth).score


def test_gbim_masking_modes_differ():
    seq = make_seq(62, frames=1, size=64)
    neutral = nr.gbim_s(seq).score
    masked = nr.gbim_s(seq, cfg=NrMetricConfig(gbim_masking="luminance")).score
    assert masked < neutral


_NO_BOUNDARY = [(64, 64, 65), (64, 64, 64), (32, 64, 40)]


@pytest.mark.parametrize("h, w, grid", _NO_BOUNDARY)
def test_gbim_grid_without_boundary_is_too_small(h, w, grid):
    rng = np.random.default_rng(0)
    seq = seq_from_lumas([rng.uniform(0, 255, (h, w))])
    with pytest.raises(TooSmall, match=f"gbim_grid {grid} .* {h}x{w}"):
        nr.gbim_s(seq, cfg=NrMetricConfig(gbim_grid=grid))


@pytest.mark.parametrize("h, w, grid", _NO_BOUNDARY + [(64, 32, 40)])
def test_block_farias_grid_without_boundary_is_too_small(h, w, grid):
    # one axis with a boundary is not enough, as for gbim_s
    rng = np.random.default_rng(0)
    seq = seq_from_lumas([rng.uniform(0, 255, (h, w))])
    with pytest.raises(TooSmall, match=f"gbim_grid {grid} .* {h}x{w}"):
        nr.block_farias_s(seq, cfg=NrMetricConfig(gbim_grid=grid))


@pytest.mark.parametrize("h, w", [(8, 8), (8, 64), (64, 8)])
def test_nospdm_frame_without_boundary_is_too_small(h, w):
    # an 8-px side leaves the fixed 8-px JPEG grid no boundary on that axis
    rng = np.random.default_rng(0)
    seq = seq_from_lumas([rng.uniform(0, 255, (h, w))])
    with pytest.raises(TooSmall, match=f"JPEG grid 8 .* {h}x{w}"):
        nr.nospdm_s(seq, s_series=uniform_series(seq))


def test_nrpbm_flat_frame_zero():
    seq = flat_seq(90.0, frames=1, size=32)
    assert nr.nrpbm_s(seq).score == 0.0


@pytest.mark.parametrize("n", [3, 4, 7, 9])
@pytest.mark.parametrize("axis", [0, 1])
def test_nrpbm_probe_equals_its_square_kernel(n, axis):
    # the probe was an n x n kernel that is zero off its center line
    square = np.zeros((n, n))
    line = [n // 2, n // 2]
    line[axis] = slice(None)
    square[tuple(line)] = 1.0 / n
    probe = [1, 1]  # the 1 x n or n x 1 line of nrpbm_s's box mean
    probe[axis] = n
    rng = np.random.RandomState(n)
    for shape in ((9, 9), (17, 23), (40, 9), (64, 64)):
        image = rng.rand(*shape) * 255.0
        assert np.array_equal(convolve2d(image, Kernel2D(np.full(probe, 1.0 / n))),
                              scipy.ndimage.convolve(image, square, mode="nearest")), shape


def test_nrpbm_blur_raises_score():
    seq = make_seq(63, frames=2, size=64, block=8)
    blurred = apply(seq, DistortionSpec(kind="gaussian_blur",
                                        params={"size": 7, "sigma": 2.0}))
    assert nr.nrpbm_s(blurred).score > nr.nrpbm_s(seq).score


def test_blur_farias_ideal_step_width_one():
    luma = np.zeros((16, 16))
    luma[:, 8:] = 255.0
    from conftest import seq_from_lumas
    seq = seq_from_lumas([luma])
    assert nr.blur_farias_s(seq).score == pytest.approx(1.0)


def test_blur_farias_no_edges():
    seq = flat_seq(10.0, frames=1, size=32)
    with pytest.raises(NoEdges):
        nr.blur_farias_s(seq)


def test_blur_farias_zero_weight_on_every_edge_raises():
    # the only weight sits at (0, 0), inside the first flat 8x8 cell
    seq = make_seq(5, frames=1, size=64, block=8)
    smap = np.zeros((64, 64))
    smap[0, 0] = 1.0
    with pytest.raises(DegenerateSaliency):
        nr.blur_farias_s(seq, s_series=[SaliencyMap(smap, "external")])


def test_blur_farias_grows_with_blur():
    seq = make_seq(64, frames=1, size=64, block=16)
    blurred = apply(seq, DistortionSpec(kind="gaussian_blur",
                                        params={"size": 7, "sigma": 2.0}))
    assert nr.blur_farias_s(blurred).score > nr.blur_farias_s(seq).score


def test_block_farias_flat_zero():
    seq = flat_seq(77.0, frames=1, size=32)
    assert nr.block_farias_s(seq).score == 0.0


def test_block_farias_detects_blocking():
    seq = make_seq(65, frames=2, size=64)
    blocked = apply(seq, DistortionSpec(kind="block_quantize",
                                        params={"step": 80.0}))
    assert nr.block_farias_s(blocked).score > nr.block_farias_s(seq).score


def _reference_edge_widths(luma, threshold_frac):
    """The per-edge-pixel loop that nr._edge_widths replaced, as (y, x, width)
    tuples."""
    grad = sobel_gradient(luma)
    mag = grad["magnitude"]
    gmax = mag.max()
    if gmax <= 0.0:
        return []
    thr = threshold_frac * gmax
    gx, gy = grad["gx"], grad["gy"]
    out = []
    h, w = luma.shape
    for y, x in zip(*np.nonzero(mag > thr)):
        if abs(gx[y, x]) >= abs(gy[y, x]):
            line, pos, extent, slope = luma[y, :], x, w, gx[y, x]
        else:
            line, pos, extent, slope = luma[:, x], y, h, gy[y, x]
        up = slope >= 0
        p1 = pos
        while p1 > 0 and (line[p1 - 1] < line[p1] if up else line[p1 - 1] > line[p1]):
            p1 -= 1
        p2 = pos
        while p2 < extent - 1 and (line[p2 + 1] > line[p2] if up else line[p2 + 1] < line[p2]):
            p2 += 1
        out.append((int(y), int(x), float(p2 - p1)))
    return out


def _reference_sadaka(luma, s, cfg):
    """The region loop that sadaka_s replaced, for one view."""
    h, w = luma.shape
    edges = _reference_edge_widths(luma, cfg.farias_edge_threshold)
    beta = cfg.sadaka_beta
    s_total = s.sum()
    r = cfg.sadaka_region
    total = 0.0
    for y0 in range(0, h, r):
        for x0 in range(0, w, r):
            y1, x1 = min(y0 + r, h), min(x0 + r, w)
            in_region = [wd for y, x, wd in edges if y0 <= y < y1 and x0 <= x < x1]
            if not in_region:
                continue
            region = luma[y0:y1, x0:x1]
            contrast = region.max() - region.min()
            w_jnb = (cfg.sadaka_jnb_wide if contrast <= cfg.sadaka_contrast_threshold
                     else cfg.sadaka_jnb_narrow)
            d_r = np.sum(np.abs(np.asarray(in_region) / w_jnb) ** beta) ** (1.0 / beta)
            weight = (s[y0:y1, x0:x1].sum() / s_total) ** beta
            total += d_r * weight
    return total ** (-1.0 / beta)


@settings(max_examples=200, deadline=None)
@given(luma=hnp.arrays(np.int64, st.tuples(st.integers(3, 40), st.integers(3, 40)),
                       elements=st.integers(0, 3)),
       threshold_frac=st.sampled_from([0.0, 0.1, 0.5]))
def test_edge_widths_match_reference_loop(luma, threshold_frac):
    # few luma levels give plateaus and both slopes along rows and columns
    luma = luma.astype(np.float64)
    ys, xs, widths = nr._edge_widths(luma, threshold_frac)
    assert widths.dtype == np.float64
    got = list(zip(ys.tolist(), xs.tolist(), widths.tolist()))
    assert got == _reference_edge_widths(luma, threshold_frac)


@pytest.mark.parametrize("shape,region", [
    ((64, 64), 64), ((100, 132), 64), ((70, 45), 16), ((33, 97), 8),
], ids=["64x64", "100x132", "70x45-region16", "33x97-region8"])
def test_sadaka_matches_reference_loop(shape, region):
    rng = np.random.RandomState(7)
    lumas = []
    for _ in range(2):
        luma = np.kron(rng.rand(shape[0] // 4 + 1, shape[1] // 4 + 1) * 255.0,
                       np.ones((4, 4)))[:shape[0], :shape[1]]
        luma[:, : shape[1] // 2] *= 0.15  # low-contrast regions take the wide JNB
        lumas.append(luma)
    seq = seq_from_lumas(lumas, [np.roll(x, 3, axis=1) for x in lumas])
    s = rng.rand(*shape)
    s[: shape[0] // 3, :] = 0.0
    cfg = NrMetricConfig(sadaka_region=region)
    report = nr.sadaka_s(seq, s_series=[SaliencyMap(s)] * 2, cfg=cfg)
    for t, frame in enumerate(seq.frames):
        want = 0.5 * (_reference_sadaka(frame.left.luma, s, cfg)
                      + _reference_sadaka(frame.right.luma, s, cfg))
        assert report.frame_scores[t] == pytest.approx(want, rel=1e-12, abs=0.0)


def test_sadaka_blur_lowers_sharpness():
    seq = make_seq(66, frames=1, size=64, block=16)
    blurred = apply(seq, DistortionSpec(kind="gaussian_blur",
                                        params={"size": 7, "sigma": 2.0}))
    assert nr.sadaka_s(blurred).score < nr.sadaka_s(seq).score


@pytest.mark.parametrize("beta", [0.01, 0.05, 0.1, 1e10])
def test_sadaka_small_beta_is_numeric_error(beta):
    seq = apply(make_seq(1, frames=2, size=64),
                DistortionSpec(kind="awgn", params={"variance": 1e-3}, seed=1))
    s = list(iter_baseline_vam(seq))
    assert np.isfinite(nr.sadaka_s(seq, s_series=s).score)
    with pytest.raises(NumericError, match=f"sadaka_beta {beta} takes .* out of the float range"):
        nr.sadaka_s(seq, s_series=s, cfg=NrMetricConfig(sadaka_beta=beta))


def test_vqsm_flat_is_constant_term():
    seq = flat_seq(100.0, frames=1, size=32)
    assert nr.vqsm_s(seq).score == pytest.approx(NrMetricConfig().vqsm_alphas[4])


def test_aqi_flat_zero():
    seq = flat_seq(60.0, frames=1, size=32)
    assert nr.aqi_s(seq).score == 0.0


def test_aqi_rotation_symmetric_directions():
    # a horizontal stripe pattern and its transpose swap the 0/90 kernels,
    # so the spread over directions is unchanged
    luma = np.tile(np.array([0.0, 255.0] * 16), (32, 1))
    from conftest import seq_from_lumas
    a = seq_from_lumas([luma])
    b = seq_from_lumas([luma.T.copy()])
    assert nr.aqi_s(a).score == pytest.approx(nr.aqi_s(b).score, rel=1e-9)


def test_aqi_rejects_luma_above_255():
    # such a frame used to score 0.0: its histogram over 0..255 is empty
    rng = np.random.default_rng(0)
    with pytest.raises(RangeError, match="luma"):
        nr.aqi_s(seq_from_lumas([rng.uniform(300, 350, (32, 32))]))


def test_qa3d_needs_history():
    seq = make_seq(67, frames=4, size=64)
    with pytest.raises(NeedsTemporalContext):
        nr.qa3d_s(seq, d_dist=_flat_disparity(seq))


def test_qa3d_requires_disparity():
    seq = make_seq(68, frames=12, size=64)
    with pytest.raises(DisparityRequired):
        nr.qa3d_s(seq)


def test_qa3d_stable_disparity_scores_high():
    seq = make_seq(69, frames=12, size=64)
    rep = nr.qa3d_s(seq, d_dist=_flat_disparity(seq, 0.0))
    # disparity below threshold and matched texture statistics give ~1
    assert rep.score > 0.5
    assert len(rep.frame_scores) == 2


def test_qa3d_runs_sobel_only_on_the_frames_it_scores(monkeypatch):
    # the default history of 10 scores frames 10 and 11 of 12: two views each
    calls = []

    def counted(image):
        calls.append(image.shape)
        return sobel_gradient(image)

    seq = make_seq(69, frames=12, size=64)
    d_dist = _flat_disparity(seq, 0.0)
    want = nr.qa3d_s(seq, d_dist=d_dist).frame_scores
    monkeypatch.setattr(nr, "sobel_gradient", counted)
    assert nr.qa3d_s(seq, d_dist=d_dist).frame_scores == want
    assert len(calls) == 4


def test_qa3d_history_config():
    seq = make_seq(70, frames=5, size=64)
    rep = nr.qa3d_s(seq, d_dist=_flat_disparity(seq),
                    cfg=NrMetricConfig(qa3d_history=3))
    assert len(rep.frame_scores) == 2


def test_nospdm_flat_guard_flagged():
    seq = flat_seq(120.0, frames=1, size=32)
    rep = nr.nospdm_s(seq)
    assert "qjpeg_degenerate" in rep.flags


def test_nospdm_identical_views_zero_angle():
    left = make_seq(71, frames=1, size=32).frames[0].left
    seq = StereoSequence([StereoFrame(left, Frame(left.luma))], fps=25.0)
    cfg = NrMetricConfig()
    rep = nr.nospdm_s(seq)
    # both angle terms vanish; what is left is the (2-mu)Q_L+mu*Q_R-lam*max form
    view_q = nr._qjpeg(seq.frames[0].left.luma, np.ones((32, 32)), cfg)[0]
    expected = (2.0 - cfg.nospdm_lambda) * view_q
    assert rep.score == pytest.approx(expected)


def test_config_validation():
    with pytest.raises(ParamError):
        NrMetricConfig(qa3d_history=0)
    with pytest.raises(ParamError):
        NrMetricConfig(gbim_masking="other")


@pytest.mark.parametrize("override", [
    {"gbim_grid": 0}, {"nrpbm_probe": 0}, {"sadaka_region": 0},
    {"sadaka_beta": 0.0}, {"sadaka_beta": -1.0}, {"aqi_bins": 0},
    {"aqi_directions": (0, 30)}, {"aqi_directions": ()},
], ids=lambda o: "-".join(f"{k}={v}" for k, v in o.items()))
def test_config_rejects_bad_sizes(override):
    with pytest.raises(ParamError):
        NrMetricConfig(**override)


def test_config_accepts_smallest_sizes():
    cfg = NrMetricConfig(gbim_grid=1, nrpbm_probe=1, sadaka_region=1, aqi_bins=1,
                         aqi_directions=(45,))
    assert cfg.aqi_directions == (45,)


def test_every_registered_metric_runs():
    seq = make_seq(72, frames=12, size=64, block=8)
    s = uniform_series(seq)
    for metric, fn in NR_METRICS.items():
        if metric == "qa3d_s":
            rep = fn(seq, d_dist=_flat_disparity(seq), s_series=s)
        else:
            rep = fn(seq, s_series=s)
        assert np.isfinite(rep.score), metric
