import numpy as np
import pytest
import scipy.ndimage
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import stereoqa.saliency as saliency
from stereoqa.disparity import estimate_disparity_series
from stereoqa.errors import (
    DegenerateSaliency,
    DimensionMismatch,
    PyramidMismatch,
)
from stereoqa.saliency import (
    SaliencyMap,
    VamConfig,
    baseline_vam,
    build_saliency_pyramid,
    load_external_saliency,
    normalize_map,
    uniform_series,
    weighted_spatial_mean,
)
from stereoqa.kernels import gaussian_kernel
from stereoqa.media import Frame, StereoFrame, StereoSequence, save_map_series
from stereoqa.rng import SeededRng

from conftest import make_seq


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


def test_pyramid_levels_match_chain():
    s = normalize_map(np.abs(np.random.RandomState(0).randn(64, 64)))
    pyr = build_saliency_pyramid(s.values, [(64, 64), (32, 32), (16, 16)])
    assert [lvl.shape for lvl in pyr] == [(64, 64), (32, 32), (16, 16)]


def test_pyramid_mismatch():
    s = normalize_map(np.ones((64, 64)) + np.eye(64))
    with pytest.raises(PyramidMismatch):
        build_saliency_pyramid(s.values, [(64, 64), (31, 31)])


def test_uniform_series(tiny_seq):
    maps = uniform_series(tiny_seq)
    assert len(maps) == len(tiny_seq)
    assert np.allclose(maps[0].values, 1.0)
    assert maps[0].source == "uniform"


def test_external_saliency_normalized(tmp_path, tiny_seq):
    raw = [np.full((16, 16), 0.25), np.full((16, 16), 0.5)]
    raw[0][0, 0] = 1.0
    save_map_series(raw, str(tmp_path / "maps"))
    maps = load_external_saliency(str(tmp_path / "maps"), tiny_seq)
    assert maps[0].values.max() == 1.0
    assert maps[0].source == "external"


def test_baseline_vam_shapes_and_determinism():
    seq = make_seq(17, frames=3, size=32)
    a = baseline_vam(seq)
    b = baseline_vam(seq)
    assert len(a) == 3
    for ma, mb in zip(a, b):
        assert ma.values.shape == (32, 32)
        assert np.array_equal(ma.values, mb.values)
        assert ma.values.min() >= 0.0
        assert ma.values.max() <= 1.0


def test_baseline_vam_highlights_moving_object():
    seq = make_seq(23, frames=3, size=32)
    # a bright moving square should pull saliency toward its track
    for i, sf in enumerate(seq.frames):
        sf.left.luma[4 + 6 * i:10 + 6 * i, 4:10] = 255.0
    maps = baseline_vam(seq)
    hot = maps[1].values[10:16, 4:10].mean()
    cold = maps[1].values[24:30, 24:30].mean()
    assert hot > cold


def test_baseline_vam_uses_disparity_channel():
    seq = make_seq(29, frames=2, size=64)
    d = estimate_disparity_series(seq)
    with_depth = baseline_vam(seq, disparity_series=d)
    without = baseline_vam(seq)
    assert not np.allclose(with_depth[0].values, without[0].values)


def test_vam_config_weights_default():
    cfg = VamConfig()
    total = cfg.w_intensity + cfg.w_color + cfg.w_motion + cfg.w_depth
    assert total == pytest.approx(1.0)


def test_saliency_map_rejects_negative():
    with pytest.raises(Exception):
        SaliencyMap(np.array([[-1.0, 0.0], [0.0, 1.0]]), "external")


def _smooth_2d(values, size, sigma):
    """The full 2-D Gaussian convolution that the VAM smoothing replaced."""
    return scipy.ndimage.convolve(values, gaussian_kernel(size, sigma).taps,
                                  mode="nearest")


def _seq_with_chroma(seed, frames, h, w):
    rng = SeededRng(seed)
    out = []
    for i in range(frames):
        views = []
        for _ in range(2):
            luma = np.floor(rng.uniform(h * w).reshape(h, w) * 256.0)
            u, v = (np.floor(rng.uniform(h * w // 4).reshape(h // 2, w // 2) * 256.0)
                    for _ in range(2))
            views.append(Frame(luma=luma, chroma_u=u, chroma_v=v))
        out.append(StereoFrame(left=views[0], right=views[1], index=i))
    return StereoSequence(frames=out, fps=25.0)


@pytest.mark.parametrize("seq", [
    _seq_with_chroma(41, frames=2, h=64, w=64),
    make_seq(43, frames=2, size=64),
    _seq_with_chroma(47, frames=3, h=100, w=132),
    # 10x12: the motion window is clipped to an even size (10)
    _seq_with_chroma(53, frames=2, h=10, w=12),
], ids=["64x64-yuv", "64x64-gray", "100x132-yuv", "10x12-even-window"])
def test_baseline_vam_matches_2d_smoothing(seq, monkeypatch):
    got = baseline_vam(seq)
    monkeypatch.setattr(saliency, "gaussian_smooth", _smooth_2d)
    want = baseline_vam(seq)
    for g, r in zip(got, want):
        np.testing.assert_allclose(g.values, r.values, rtol=0,
                                   atol=1e-12 * np.abs(r.values).max())
