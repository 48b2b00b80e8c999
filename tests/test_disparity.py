import numpy as np
import pytest
import scipy.ndimage

from stereoqa.disparity import (
    DisparityConfig,
    DisparityMap,
    _median3x3,
    disparity_to_depth,
    estimate_disparity,
    iter_disparity_series,
)
from stereoqa.errors import ParamError
from stereoqa.media import Frame, StereoFrame, load_sequence, save_sequence
from stereoqa.rng import SeededRng

from conftest import make_seq


def _pair_with_shift(shift, size=64, seed=31):
    """Right view equals left shifted right-to-left by `shift` columns, so the
    block matcher should report disparity = shift away from the seam."""
    rng = SeededRng(seed)
    left = rng.uniform(size * size).reshape(size, size) * 255.0
    right = np.empty_like(left)
    right[:, :size - shift] = left[:, shift:]
    right[:, size - shift:] = left[:, size - shift:]
    return StereoFrame(left=Frame(luma=left), right=Frame(luma=right))


def test_known_shift_recovered():
    for shift in (0, 3, 9):
        d = estimate_disparity(_pair_with_shift(shift))
        interior = d.values[8:-8, 24:-16]
        assert np.median(interior) == shift


def test_tie_breaks_to_smallest():
    # flat images make every candidate an exact tie
    pair = StereoFrame(left=Frame(luma=np.full((64, 64), 50.0)),
                       right=Frame(luma=np.full((64, 64), 50.0)))
    d = estimate_disparity(pair)
    assert np.all(d.values == 0)


def test_disparity_values_within_search_range():
    seq = make_seq(37, frames=2, size=64)
    for d in iter_disparity_series(seq):
        assert d.values.min() >= 0
        assert d.values.max() <= DisparityConfig().search_range


def test_frame_too_narrow():
    pair = StereoFrame(left=Frame(luma=np.zeros((16, 16))),
                       right=Frame(luma=np.zeros((16, 16))))
    with pytest.raises(ParamError):
        estimate_disparity(pair)


def test_config_validation():
    with pytest.raises(ParamError):
        DisparityConfig(block=2)
    with pytest.raises(ParamError):
        DisparityConfig(search_range=0)


def test_disparity_to_depth_orientation():
    d = DisparityMap(values=np.array([[0.0, 16.0], [32.0, 8.0]]))
    depth = disparity_to_depth(d.values)
    # larger disparity is nearer, so it maps to smaller depth
    assert depth[0, 0] == 1.0
    assert depth[1, 0] == 0.0


def test_disparity_to_depth_flat():
    d = DisparityMap(values=np.full((4, 4), 5.0))
    assert np.allclose(disparity_to_depth(d.values), 0.5)


def test_median_filter_removes_speckle():
    pair = _pair_with_shift(4)
    # corrupt one 8x8 block of the right view; the median filter should keep
    # the surrounding field consistent
    right = pair.right.luma.copy()
    right[24:32, 24:32] = 0.0
    d = estimate_disparity(StereoFrame(pair.left, Frame(right)))
    patch = d.values[8:48, 8:48]
    assert np.median(patch) == 4


def _reference_disparity(pair, cfg=None):
    """The per-block, per-candidate SAD loop that estimate_disparity replaced."""
    cfg = cfg or DisparityConfig()
    left, right = pair.left.luma, pair.right.luma
    h, w = left.shape
    b = cfg.block
    out = np.zeros((h, w))
    y_anchors = sorted({min(y0, h - b) for y0 in range(0, h, b)})
    x_anchors = sorted({min(x0, w - b) for x0 in range(0, w, b)})
    for y0 in y_anchors:
        lrow = left[y0:y0 + b]
        for x0 in x_anchors:
            lblock = lrow[:, x0:x0 + b]
            d_max = min(cfg.search_range, x0)
            cand = np.empty(d_max + 1)
            for d in range(d_max + 1):
                cand[d] = np.abs(lblock - right[y0:y0 + b, x0 - d:x0 - d + b]).sum()
            out[y0:y0 + b, x0:x0 + b] = int(np.argmin(cand))
    return scipy.ndimage.median_filter(out, size=3, mode="nearest")


def _integer_pair(h, w, seed):
    """Integer-valued luma, as read from 8-bit files.  The right view is the
    left one shifted by 0..12 px in patches that do not line up with the
    block grid, plus noise, so the SAD minimum varies across the frame and
    across the clamped last row and column of blocks.  Both views stay in
    [0, 255]: left in [8, 247], noise in [-8, 7]."""
    rng = SeededRng(seed)
    left = 8.0 + np.floor(rng.uniform(h * w).reshape(h, w) * 240.0)
    noise = np.floor(rng.uniform(h * w).reshape(h, w) * 16.0)
    y, x = np.mgrid[0:h, 0:w]
    shift = (y // 11 + x // 13) % 7 * 2
    right = left[y, np.minimum(x + shift, w - 1)] + noise - 8.0
    return StereoFrame(left=Frame(luma=left), right=Frame(luma=right))


@pytest.mark.parametrize("h, w, cfg", [
    (64, 64, None),
    (100, 132, None),
    (270, 480, None),
    (64, 77, None),
    (48, 40, None),
    (37, 45, DisparityConfig(block=4, search_range=5)),
    (64, 64, DisparityConfig(block=4, search_range=32)),
    (50, 66, DisparityConfig(block=8, search_range=5)),
])
def test_matches_reference_loop(h, w, cfg):
    pair = _integer_pair(h, w, seed=h * 1000 + w)
    d = estimate_disparity(pair, cfg)
    assert np.array_equal(d.values, _reference_disparity(pair, cfg))


def test_flat_frame_matches_reference_loop():
    flat = np.full((100, 132), 77.0)
    pair = StereoFrame(left=Frame(luma=flat), right=Frame(luma=flat.copy()))
    d = estimate_disparity(pair)
    assert np.array_equal(d.values, _reference_disparity(pair))
    assert np.all(d.values == 0)


@pytest.mark.parametrize("shape", [(8, 8), (9, 13), (33, 97), (270, 480)])
@pytest.mark.parametrize("dtype, low, top", [(np.uint8, 0, 33), (np.uint16, 0, 1000),
                                             (np.uint8, 7, 8)], ids=["u8", "u16", "flat"])
def test_median_network_matches_scipy(shape, dtype, low, top):
    rng = np.random.RandomState(shape[0] * 1000 + shape[1])
    m = rng.randint(low, top, shape).astype(dtype)
    assert np.array_equal(_median3x3(m), scipy.ndimage.median_filter(m, size=3, mode="nearest"))


def test_same_map_after_a_stream_round_trip(tmp_path):
    """Matching runs on the 8-bit samples a stream stores, so non-integral
    luma gives the map its saved and reloaded sequence gives.  Unrelated
    views leave near-ties that matching on the raw floats resolves otherwise."""
    seq = make_seq(37, frames=1, size=72)
    desc = save_sequence(seq, str(tmp_path / "l.raw"), str(tmp_path / "r.raw"))
    stored = load_sequence(desc).frames[0]
    assert not np.array_equal(stored.left.luma, seq.frames[0].left.luma)
    for cfg in (None, DisparityConfig(block=4, search_range=9)):
        assert np.array_equal(estimate_disparity(seq.frames[0], cfg).values,
                              estimate_disparity(stored, cfg).values)
