import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import stereoqa.saliency as saliency
from stereoqa.disparity import DisparityMap, iter_disparity_series
from stereoqa.errors import (DegenerateSaliency, DimensionMismatch, ParamError, RangeError,
                             SequenceLengthError)
from stereoqa.saliency import (
    SaliencyMap,
    VamConfig,
    baseline_vam_frame,
    build_saliency_pyramid,
    iter_baseline_vam,
    iter_external_saliency,
    normalize_map,
    uniform_series,
    weighted_spatial_mean,
)
from stereoqa.kernels import downsample2
from stereoqa.media import Frame, StereoFrame, StereoSequence, save_map_series
from stereoqa.rng import SeededRng

from conftest import make_seq, smooth_2d


def test_weighted_mean_hand_value():
    f = np.array([[1.0, 2.0], [3.0, 4.0]])
    s = np.array([[1.0, 0.0], [0.0, 3.0]])
    assert weighted_spatial_mean(f, s) == pytest.approx((1 + 12) / 4)


def test_weighted_mean_none_is_plain_mean():
    # no saliency is the all-ones weight array: exactly the plain mean
    f = np.random.RandomState(1).randn(37, 53)
    assert weighted_spatial_mean(f, np.ones_like(f)) == f.mean()


def test_weighted_mean_zero_saliency():
    with pytest.raises(DegenerateSaliency):
        weighted_spatial_mean(np.ones((2, 2)), np.zeros((2, 2)))


def test_weighted_mean_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        weighted_spatial_mean(np.ones((2, 2)), np.ones((3, 3)))


@settings(max_examples=50, deadline=None)
@given(
    hnp.arrays(np.float64, (6, 6), elements=st.floats(-100, 100)),
    st.floats(min_value=1e-3, max_value=1e3),
)
def test_weighted_mean_constant_reduces_to_mean(f, c):
    got = weighted_spatial_mean(f, np.full((6, 6), c))
    assert got == pytest.approx(f.mean(), rel=1e-9, abs=1e-9)


@settings(max_examples=50, deadline=None)
@given(
    hnp.arrays(np.float64, (5, 5), elements=st.floats(-50, 50)),
    hnp.arrays(np.float64, (5, 5), elements=st.floats(0, 10)),
)
# subnormal weights: 1.5 * 5e-324 rounds to 1e-323, so the mean was 2.0
@example(np.full((5, 5), 1.5), np.full((5, 5), 5e-324))
@example(np.full((5, 5), 1.5), np.where(np.eye(5) > 0, 5e-324, 0.0))
def test_weighted_mean_bounded_by_extremes(f, s):
    if s.sum() <= 0:
        return
    got = weighted_spatial_mean(f, s)
    assert f.min() - 1e-9 <= got <= f.max() + 1e-9


def test_normalize_map_range():
    m = normalize_map(np.array([[2.0, 4.0], [6.0, 10.0]]))
    assert m.values.min() == 0.0
    assert m.values.max() == 1.0


def test_normalize_flat_map_uniform():
    m = normalize_map(np.full((4, 4), 7.0))
    assert np.allclose(m.values, 1.0)


@pytest.mark.parametrize("raw, error", [
    ("abc", RangeError), (np.full((4, 4), 1.0 + 1j), RangeError),
    (np.full((4, 4), None), RangeError), (np.full((4, 4), np.nan), RangeError),
    (np.ones(4), DimensionMismatch),
], ids=["str", "complex", "object-array", "nan", "1-D"])
def test_normalize_map_rejects_a_raw_map_that_is_not_2d_finite_real_numbers(raw, error):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a complex map may not lose its imaginary part
        with pytest.raises(error, match="raw map"):
            normalize_map(raw)


def test_normalize_map_keeps_exact_arithmetic_for_any_real_dtype():
    raw = np.array([[2, 4], [6, 10]], np.uint8)
    assert normalize_map(raw).values.tolist() == [[0.0, 0.25], [0.5, 1.0]]
    assert normalize_map(raw.astype(np.int16)).values.tolist() == [[0.0, 0.25], [0.5, 1.0]]


def test_pyramid_levels_match_chain():
    s = normalize_map(np.abs(np.random.RandomState(0).randn(64, 64)))
    pyr = build_saliency_pyramid(s.values, 3)
    assert [lvl.shape for lvl in pyr] == [(64, 64), (32, 32), (16, 16)]


def test_saliency_pyramid_keeps_a_first_level_that_is_its_own_normalization():
    s = normalize_map(np.abs(np.random.RandomState(0).randn(64, 64))).values
    ones = uniform_series(make_seq(1, frames=1, size=16))[0].values
    for values in (s, ones):
        first, second = build_saliency_pyramid(values, 2)
        assert first is values
        assert np.array_equal(second, normalize_map(downsample2(values)).values)
    # a writable, unnormalized or -0.0-based first level is normalized afresh
    negative_zero = s.copy()
    negative_zero[negative_zero == 0.0] = -0.0
    negative_zero.flags.writeable = False
    for values in (s.copy(), SaliencyMap(0.5 * s).values, negative_zero):
        first = next(build_saliency_pyramid(values, 2))
        assert first is not values and np.array_equal(first, normalize_map(values).values)
        assert not np.signbit(first).any()


def test_uniform_series(tiny_seq):
    maps = uniform_series(tiny_seq)
    assert len(maps) == len(tiny_seq)
    assert np.allclose(maps[0].values, 1.0)
    assert maps[0].source == "uniform"


def test_external_saliency_normalized(tmp_path, tiny_seq):
    raw = [np.full((16, 16), 0.25), np.full((16, 16), 0.5)]
    raw[0][0, 0] = 1.0
    save_map_series(raw, str(tmp_path / "maps"))
    maps = list(iter_external_saliency(str(tmp_path / "maps"), tiny_seq))
    assert maps[0].values.max() == 1.0
    assert maps[0].source == "external"


def vam_by_frame(seq):
    """baseline_vam_frame of each frame, given the previous frame's left
    view: the per-frame reference for iter_baseline_vam."""
    prevs = [None] + [frame.left for frame in seq.frames[:-1]]
    return [baseline_vam_frame(frame, prev, None, VamConfig())
            for frame, prev in zip(seq.frames, prevs)]


def test_baseline_vam_shapes_and_determinism():
    seq = make_seq(17, frames=3, size=32)
    a = list(iter_baseline_vam(seq))
    b = vam_by_frame(seq)
    assert len(a) == 3
    for ma, mb in zip(a, b):
        assert ma.source == mb.source == "baseline"
        assert ma.values.shape == (32, 32)
        assert np.array_equal(ma.values, mb.values)
        assert ma.values.min() >= 0.0
        assert ma.values.max() <= 1.0


def test_baseline_vam_highlights_moving_object():
    seq = make_seq(23, frames=3, size=32)
    # a bright moving square should pull saliency toward its track
    frames = []
    for i, sf in enumerate(seq.frames):
        luma = sf.left.luma.copy()
        luma[4 + 6 * i:10 + 6 * i, 4:10] = 255.0
        frames.append(StereoFrame(Frame(luma), sf.right))
    maps = list(iter_baseline_vam(StereoSequence(frames, seq.fps)))
    hot = maps[1].values[10:16, 4:10].mean()
    cold = maps[1].values[24:30, 24:30].mean()
    assert hot > cold


def test_baseline_vam_uses_disparity_channel():
    seq = make_seq(29, frames=2, size=64)
    d = list(iter_disparity_series(seq))
    with_depth = list(iter_baseline_vam(seq, disparity_series=d))
    without = list(iter_baseline_vam(seq))
    assert not np.allclose(with_depth[0].values, without[0].values)


@pytest.mark.parametrize("bad,error", [
    (lambda d: [DisparityMap(np.zeros((80, 80)))] * 2, DimensionMismatch),
    (lambda d: d[:1], SequenceLengthError),
    (lambda d: [m.values for m in d], ParamError),
], ids=["wrong-shape", "short-series", "raw-arrays"])
def test_baseline_vam_checks_disparity_series(bad, error):
    seq = make_seq(29, frames=2, size=64)
    d = [DisparityMap(np.full((64, 64), 3.0)) for _ in range(2)]
    with pytest.raises(error):
        list(iter_baseline_vam(seq, disparity_series=bad(d)))


def test_vam_config_weights_default():
    cfg = VamConfig()
    total = cfg.w_intensity + cfg.w_color + cfg.w_motion + cfg.w_depth
    assert total == pytest.approx(1.0)


def test_saliency_map_rejects_negative():
    with pytest.raises(Exception):
        SaliencyMap(np.array([[-1.0, 0.0], [0.0, 1.0]]), "external")


def _seq_with_chroma(seed, frames, h, w):
    rng = SeededRng(seed)
    out = []
    for _ in range(frames):
        views = []
        for _ in range(2):
            luma = np.floor(rng.uniform(h * w).reshape(h, w) * 256.0)
            u, v = (np.floor(rng.uniform(h * w // 4).reshape(h // 2, w // 2) * 256.0)
                    for _ in range(2))
            views.append(Frame(luma=luma, chroma_u=u, chroma_v=v))
        out.append(StereoFrame(left=views[0], right=views[1]))
    return StereoSequence(frames=out, fps=25.0)


@pytest.mark.parametrize("seq", [
    _seq_with_chroma(41, frames=2, h=64, w=64),
    make_seq(43, frames=2, size=64),
    _seq_with_chroma(47, frames=3, h=100, w=132),
    # 10x12: the motion window is clipped to an even size (10)
    _seq_with_chroma(53, frames=2, h=10, w=12),
], ids=["64x64-yuv", "64x64-gray", "100x132-yuv", "10x12-even-window"])
def test_baseline_vam_matches_2d_smoothing(seq, monkeypatch):
    got = list(iter_baseline_vam(seq))
    monkeypatch.setattr(saliency, "gaussian_smooth", smooth_2d)
    want = list(iter_baseline_vam(seq))
    for g, r in zip(got, want):
        np.testing.assert_allclose(g.values, r.values, rtol=0,
                                   atol=1e-12 * np.abs(r.values).max())


def _upsample_by_repeat(small, shape):
    fy = -(-shape[0] // small.shape[0])
    fx = -(-shape[1] // small.shape[1])
    big = np.repeat(np.repeat(small, fy, axis=0), fx, axis=1)
    return big[: shape[0], : shape[1]]


def _center_surround_full(channel, pairs):
    pyr = list(saliency.iter_pyramid(channel, max((s for _, s in pairs), default=0) + 1))
    acc = np.zeros_like(channel)
    for c, s in pairs:
        if s >= len(pyr):
            continue
        acc += np.abs(_upsample_by_repeat(pyr[c], channel.shape)
                      - _upsample_by_repeat(pyr[s], channel.shape))
    return acc


def vam_full_frame(seq, disparity_series=None, cfg=None):
    """iter_baseline_vam with every channel upsampled to the frame and subtracted
    there: the reference for the VAM that works on its run grid."""
    cfg = cfg or VamConfig()
    shape = (seq.height, seq.width)
    smooth_sigma = cfg.smooth_sigma if cfg.smooth_sigma is not None else min(shape) / 32.0
    maps = []
    prev_luma = None
    for t, frame in enumerate(seq.frames):
        luma = frame.left.luma
        f_int = _center_surround_full(luma, cfg.center_surround_pairs)
        f_col = np.zeros(shape)
        if frame.left.chroma_u is not None:
            for chroma in (frame.left.chroma_u, frame.left.chroma_v):
                opp = _upsample_by_repeat(np.abs(chroma - 128.0), shape)
                f_col += _center_surround_full(opp, cfg.center_surround_pairs)
        if prev_luma is None:
            f_mot = np.zeros(shape)
        else:
            f_mot = saliency._smooth(np.abs(luma - prev_luma), cfg.motion_sigma,
                                     "motion_sigma")
        prev_luma = luma
        combined = (cfg.w_intensity * normalize_map(f_int).values
                    + cfg.w_color * normalize_map(f_col).values
                    + cfg.w_motion * normalize_map(f_mot).values)
        if disparity_series is not None:
            combined = combined + cfg.w_depth * normalize_map(disparity_series[t].values).values
        maps.append(normalize_map(saliency._smooth(combined, smooth_sigma, "smooth_sigma"),
                                  "baseline"))
    return maps


def _seq_in_format(seed, h, w, fmt, frames=2):
    rng = SeededRng(seed)
    chroma = {"gray8": None, "yuv420": (h // 2, w // 2), "yuv444": (h, w)}[fmt]
    out = []
    for _ in range(frames):
        views = []
        for _ in range(2):
            luma = np.floor(rng.uniform(h * w).reshape(h, w) * 256.0)
            u = v = None
            if chroma:
                u, v = (np.floor(rng.uniform(chroma[0] * chroma[1]).reshape(chroma) * 256.0)
                        for _ in range(2))
            views.append(Frame(luma=luma, chroma_u=u, chroma_v=v))
        out.append(StereoFrame(left=views[0], right=views[1]))
    return StereoSequence(frames=out, fps=25.0)


@pytest.mark.parametrize("pairs", [None, ((0, 1),), (), ((1, 9),), ((0, 2), (1, 4), (3, 7))],
                         ids=["default", "0-1", "none", "1-9", "three"])
@pytest.mark.parametrize("fmt", ["gray8", "yuv420", "yuv444"])
@pytest.mark.parametrize("h, w", [(8, 8), (9, 8), (8, 9), (8, 40), (17, 23), (33, 97),
                                  (40, 11), (64, 64), (71, 130), (270, 480)])
def test_baseline_vam_equals_full_frame_channels(h, w, fmt, pairs):
    # (1, 9) is past the pyramid's depth at every size but 270x480; the
    # yuv444 cases also carry a depth channel
    seq = _seq_in_format(h * 1000 + w, h, w, fmt)
    cfg = VamConfig() if pairs is None else VamConfig(center_surround_pairs=pairs)
    d = None
    if fmt == "yuv444":
        d = [DisparityMap(np.floor(SeededRng(w).uniform(h * w).reshape(h, w) * 20.0))
             for _ in range(2)]
    got = list(iter_baseline_vam(seq, disparity_series=d, cfg=cfg))
    want = vam_full_frame(seq, disparity_series=d, cfg=cfg)
    assert len(got) == len(want) == 2
    for g, r in zip(got, want):
        assert np.array_equal(g.values, r.values)


def test_upsample_to_repeats_each_sample():
    small = np.arange(20.0).reshape(4, 5)
    for shape in ((4, 5), (7, 9), (8, 10), (9, 11), (12, 30)):
        assert np.array_equal(saliency._upsample_to(small, shape),
                              _upsample_by_repeat(small, shape))
