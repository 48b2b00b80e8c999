import dataclasses
import os
import tempfile
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stereoqa.disparity import DisparityConfig, DisparityMap, iter_disparity_series
from stereoqa.distort import DistortionSpec, apply
from stereoqa.errors import (
    DescriptorMismatch,
    DimensionMismatch,
    IoError,
    MapSeriesGap,
    MapShapeError,
    ParamError,
    RangeError,
    StereoQaError,
)
from stereoqa.media import (
    PIXEL_FORMATS,
    Frame,
    SequenceDescriptor,
    StereoFrame,
    StereoSequence,
    iter_map_series,
    load_sequence,
    map_name,
    read_json,
    read_pgm,
    save_frame_pgm,
    save_map_series,
    save_sequence,
)
from stereoqa.fr import FR_METRICS, FrMetricConfig
from stereoqa.nr import NR_METRICS, NrMetricConfig
from stereoqa.saliency import SaliencyMap, VamConfig, iter_baseline_vam

from conftest import make_seq, write_yuv420


def test_frame_rejects_tiny_planes():
    with pytest.raises(Exception):
        Frame(luma=np.zeros((4, 4)))


@pytest.mark.parametrize("plane, value", [
    ("luma", -0.5), ("luma", 255.5), ("chroma_u", 256.0), ("chroma_v", -1.0),
    ("chroma_u", np.nan), ("luma", np.nan), ("luma", np.inf), ("luma", -np.inf),
])
def test_frame_rejects_samples_outside_8bit_range(plane, value):
    planes = {name: np.full((8, 8), 128.0) for name in ("luma", "chroma_u", "chroma_v")}
    planes[plane][3, 5] = value
    with pytest.raises(RangeError, match=plane):
        Frame(**planes)


@pytest.mark.parametrize("planes, name", [
    ({"chroma_u": np.full((4, 4), 128.0)}, "chroma_v"),
    ({"chroma_v": np.full((4, 4), 128.0)}, "chroma_u"),
    ({"chroma_u": np.full(16, 128.0), "chroma_v": np.full(16, 128.0)}, "chroma_u"),
    ({"chroma_u": np.full((8, 8), 128.0), "chroma_v": np.full((8, 8, 1), 128.0)}, "chroma_v"),
    ({"chroma_u": np.full((4, 4), 128.0), "chroma_v": np.full((4, 8), 128.0)}, "chroma_v"),
], ids=["no-chroma_v", "no-chroma_u", "1-D-chroma", "3-D-chroma_v", "chroma-shapes-differ"])
def test_frame_rejects_chroma_planes_that_do_not_pair(planes, name):
    with pytest.raises(DimensionMismatch, match=name):
        Frame(np.full((8, 8), 128.0), **planes)


@pytest.mark.parametrize("name, value", [
    ("luma", "abc"), ("luma", np.full((8, 8), 128.0 + 1j)),
    ("chroma_u", np.full((8, 8), "128")), ("chroma_v", np.full((8, 8), None)),
], ids=["str", "complex", "str-array", "object-array"])
def test_frame_rejects_planes_that_are_not_real_numbers(name, value):
    planes = {p: np.full((8, 8), 128.0) for p in ("luma", "chroma_u", "chroma_v")}
    planes[name] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a complex plane may not lose its imaginary part
        with pytest.raises(RangeError, match=name):
            Frame(**planes)


def test_checked_values_are_frozen():
    frame = Frame(np.full((8, 8), 128, np.uint8), np.full((4, 4), 64.0), np.full((4, 4), 192.0))
    seq = StereoSequence([StereoFrame(frame, frame)])
    values = np.full((8, 8), 300.0)  # outside the 8-bit range: a setter would skip the check
    for obj, name in ((frame, "luma"), (frame, "chroma_u"), (frame, "chroma_v"),
                      (frame, "planes"), (seq.frames[0], "left"), (seq, "fps"),
                      (SaliencyMap(np.ones((8, 8))), "values"),
                      (DisparityMap(np.ones((8, 8))), "values")):
        with pytest.raises(AttributeError):
            setattr(obj, name, values)
    assert frame.luma.max() == 128.0 and seq.fps == 30.0
    # a config set after its checks ran would skip them: vif_scales=1.5 scored
    # vif_s, and a 1-long msssim_exponents ended msssim_s in an IndexError
    for obj, name, value in ((FrMetricConfig(), "vif_scales", 1.5),
                             (FrMetricConfig(), "msssim_exponents", (1.0,)),
                             (NrMetricConfig(), "gbim_grid", 0),
                             (VamConfig(), "w_intensity", -1.0),
                             (DisparityConfig(), "block", 2),
                             (DistortionSpec(kind="awgn", params={"variance": 0.01}), "seed", -1),
                             (SequenceDescriptor(**_DESCRIPTOR), "frames", 0)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, value)


@pytest.mark.parametrize("build", [
    lambda a: Frame(a).luma, lambda a: Frame(a, a, a).chroma_v, lambda a: Frame(a).planes[0],
    lambda a: SaliencyMap(a).values, lambda a: DisparityMap(a).values,
], ids=["luma", "chroma_v", "planes", "saliency", "disparity"])
def test_float64_values_are_read_only_copies(build):
    """A float64 plane or map is the frame's or map's own: a write to it in
    place raises, and a later write to the caller's array leaves it alone."""
    given = np.full((8, 8), 100.0)
    stored = build(given)
    with pytest.raises(ValueError, match="read-only"):
        stored[:] = 300.0
    given[:] = -5.0
    assert stored.dtype == np.float64 and stored.min() == stored.max() == 100.0


def test_a_read_only_float64_plane_is_kept_without_a_copy():
    plane = np.full((8, 8), 100.0)
    plane.flags.writeable = False
    assert Frame(plane).planes[0] is plane and SaliencyMap(plane).values is plane


@pytest.mark.parametrize("cls", [SaliencyMap, DisparityMap])
@pytest.mark.parametrize("value, error", [
    ("abc", RangeError), (np.full((8, 8), 1.0 + 1j), RangeError),
    (np.full((8, 8), None), RangeError), (np.full((8, 8), "1"), RangeError),
    (np.ones(8), DimensionMismatch), (np.ones((8, 8, 1)), DimensionMismatch),
    (np.float64(1.0), DimensionMismatch),
], ids=["str", "complex", "object-array", "str-array", "1-D", "3-D", "0-D"])
def test_maps_reject_values_that_are_not_2d_real_numbers(cls, value, error):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a complex map may not lose its imaginary part
        with pytest.raises(error, match=cls._name):
            cls(value)


def test_stereo_frame_holds_two_frames():
    frame = Frame(np.zeros((8, 8)))
    for left, right in ((np.zeros((8, 8)), np.zeros((8, 8))), (frame, np.zeros((8, 8)))):
        with pytest.raises(ParamError, match="Frame"):
            StereoFrame(left, right)


def test_stereo_sequence_holds_stereo_frames_as_a_tuple(tiny_seq):
    with pytest.raises(ParamError, match="StereoFrame"):
        StereoSequence([np.zeros((8, 8))])
    with pytest.raises(ParamError, match="StereoFrame"):
        StereoSequence([*tiny_seq.frames, tiny_seq.frames[0].left])
    seq = StereoSequence(list(tiny_seq.frames))
    assert isinstance(seq.frames, tuple) and seq.frames == tiny_seq.frames


@pytest.mark.parametrize("frames", [5, None, 2.5])
def test_stereo_sequence_rejects_frames_that_are_not_iterable(frames):
    with pytest.raises(ParamError, match="StereoFrame"):  # was a TypeError traceback
        StereoSequence(frames)


@pytest.mark.parametrize("cls", [SaliencyMap, DisparityMap])
def test_maps_compare_by_identity(cls):
    # a generated == compared the values arrays and raised ValueError
    values = np.ones((8, 8))
    m = cls(values)
    assert m == m and m != cls(values) and not m == cls(values)
    assert len({m, m, cls(values)}) == 2


_REAL_DTYPES = (np.uint8, np.float64, np.int16, np.bool_)


@st.composite
def _plane(draw, shape=None):
    """A plane of ``shape``, or else of 0-3 dimensions, whose dtype may be
    complex or str and whose values may leave the 8-bit range; two planes in
    three are 2-D (at least 8x8), real and in range, as a frame needs."""
    good = draw(st.sampled_from((True, True, False)))
    if shape is None:
        ndim = 2 if good else draw(st.integers(0, 3))
        shape = tuple(draw(st.sampled_from((8, 9, 12) if good else (0, 1, 4, 8)))
                      for _ in range(ndim))
    dtype = draw(st.sampled_from(_REAL_DTYPES + (() if good else (np.complex128, np.str_))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.integers(0 if good else -1, 256 if good else 258, shape).astype(dtype)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), chroma=st.sampled_from(["absent", "present", "mismatched",
                                                 "chroma_u only", "chroma_v only"]))
def test_any_planes_give_a_frame_or_a_stereoqa_error(data, chroma):
    """Any planes give a frame or a StereoQaError, never a warning or another
    exception, and so does the luma given to either map class."""
    luma = data.draw(_plane())
    u = None if chroma in ("absent", "chroma_v only") else data.draw(_plane())
    if chroma in ("absent", "chroma_u only"):
        v = None
    elif chroma == "present":
        v = data.draw(_plane(u.shape))
    elif chroma == "mismatched":
        v = data.draw(_plane(tuple(n + 1 for n in u.shape)))
    else:
        v = data.draw(_plane())
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        for cls in (SaliencyMap, DisparityMap):
            try:
                values = cls(luma).values
            except StereoQaError:
                continue
            assert values.dtype == np.float64 and values.ndim == 2 and not values.flags.writeable
        try:
            frame = Frame(luma, u, v)
        except StereoQaError:
            return
    assert frame.luma.dtype == np.float64 and frame.luma.ndim == 2
    assert (frame.chroma_u is None) == (frame.chroma_v is None) == (u is None)
    assert all(p is None or p.dtype in (np.uint8, np.float64) and not p.flags.writeable
               for p in frame.planes)


def _with_sample(value, fill):
    values = np.full((8, 8), fill)
    values[3, 5] = value
    return values


@pytest.mark.parametrize("build, name", [
    (lambda: SaliencyMap(_with_sample(np.nan, 0.5)), "saliency"),
    (lambda: SaliencyMap(_with_sample(-0.5, 0.5)), "saliency"),
    (lambda: DisparityMap(_with_sample(np.inf, 3.0)), "disparity"),
    (lambda: DisparityMap(_with_sample(np.nan, 3.0)), "disparity"),
], ids=["saliency-nan", "saliency-negative", "disparity-inf", "disparity-nan"])
def test_maps_reject_values_outside_their_range(build, name):
    with pytest.raises(RangeError, match=name):
        build()


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_pgm_writer_rejects_values_outside_the_unit_range(tmp_path, value):
    path = tmp_path / "m.pgm"
    with pytest.raises(RangeError, match="map"):
        save_frame_pgm(_with_sample(value, 0.5), str(path))
    assert not path.exists()


@pytest.mark.parametrize("values", [np.full(8, 0.5), np.full((2, 4, 4), 0.5)], ids=["1-D", "3-D"])
def test_pgm_writer_rejects_a_map_that_is_not_2d(tmp_path, values):
    path = tmp_path / "m.pgm"
    with pytest.raises(DimensionMismatch, match="map"):
        save_frame_pgm(values, str(path))
    assert not path.exists()


def test_disparity_accepts_any_finite_value():
    values = _with_sample(-1e300, 1e300)
    assert np.array_equal(DisparityMap(values).values, values)


def test_frame_accepts_range_ends():
    ends = np.tile([0.0, 255.0], (8, 4))
    frame = Frame(luma=ends, chroma_u=ends[:4, :4], chroma_v=ends[:4, :4])
    assert frame.luma.min() == 0.0 and frame.luma.max() == 255.0


def test_sequence_round_trip_gray8(tmp_path, tiny_seq):
    left = str(tmp_path / "l.raw")
    right = str(tmp_path / "r.raw")
    desc = save_sequence(tiny_seq, left, right)
    back = load_sequence(desc)
    assert len(back) == len(tiny_seq)
    for a, b in zip(tiny_seq.frames, back.frames):
        assert np.abs(a.left.luma - b.left.luma).max() <= 0.5
        assert np.abs(a.right.luma - b.right.luma).max() <= 0.5


def _stream_sample(tmp_path):
    seq = make_seq(5, frames=1, size=8)
    seq = StereoSequence([StereoFrame(Frame(np.full((8, 8), 10.5)), seq.frames[0].right)])
    desc = save_sequence(seq, str(tmp_path / "l.raw"), str(tmp_path / "r.raw"))
    return load_sequence(desc).frames[0].left.luma[0, 0]


def _pgm_sample(tmp_path):
    path = tmp_path / "m.pgm"
    save_frame_pgm(np.full((4, 4), 0.5), str(path))
    return path.read_bytes()[-1]


@pytest.mark.parametrize("write, want", [(_stream_sample, 11), (_pgm_sample, 128)],
                         ids=["stream", "pgm"])
def test_save_rounds_half_up(tmp_path, write, want):
    # 10.5 and 0.5 * 255 = 127.5 both round up
    assert write(tmp_path) == want


def test_descriptor_json_round_trip(tmp_path, tiny_seq):
    desc = save_sequence(tiny_seq, str(tmp_path / "l.raw"), str(tmp_path / "r.raw"))
    path = str(tmp_path / "desc.json")
    desc.to_json(path)
    loaded = SequenceDescriptor.from_json(path)
    assert loaded.width == desc.width and loaded.frames == desc.frames


def test_descriptor_relative_paths(tmp_path, tiny_seq):
    desc = save_sequence(tiny_seq, str(tmp_path / "l.raw"), str(tmp_path / "r.raw"))
    path = str(tmp_path / "desc.json")
    desc.to_json(path)
    written = read_json(path)
    assert (written["left"], written["right"]) == ("l.raw", "r.raw")
    loaded = SequenceDescriptor.from_json(path)
    assert os.path.isabs(loaded.left)
    load_sequence(loaded)


def test_descriptor_written_with_cwd_relative_paths_loads_elsewhere(tmp_path, tiny_seq,
                                                                    monkeypatch):
    # stream paths relative to the working directory are written relative to
    # the descriptor, so it loads from any working directory
    monkeypatch.chdir(tmp_path)
    os.makedirs("out/sub")
    save_sequence(tiny_seq, "out/l.raw", "out/sub/r.raw").to_json("out/desc.json")
    written = read_json("out/desc.json")
    assert (written["left"], written["right"]) == ("l.raw", os.path.join("sub", "r.raw"))
    os.makedirs("elsewhere")
    monkeypatch.chdir("elsewhere")
    back = load_sequence(SequenceDescriptor.from_json("../out/desc.json"))
    assert len(back) == len(tiny_seq)


@pytest.mark.parametrize("fps", [float("inf"), float("nan"), -float("inf"), 0.0, -1.0, "x",
                                 None, 1 + 1j, True, False, 10**400, Fraction(10**400)])
def test_sequence_rejects_fps_that_is_not_finite_and_positive(tiny_seq, fps):
    with pytest.raises(RangeError, match="fps"):
        StereoSequence(tiny_seq.frames, fps=fps)


_DESCRIPTOR = dict(left="a", right="b", width=16, height=16, fps=25.0, frames=1)


@pytest.mark.parametrize("field, value, error", [
    ("width", 64.5, ParamError), ("height", 0, ParamError), ("width", True, ParamError),
    ("frames", 0, ParamError), ("frames", -2, ParamError), ("frames", 2.0, ParamError),
    ("fps", float("nan"), RangeError), ("fps", 0.0, RangeError), ("fps", -1, RangeError),
    ("fps", float("inf"), RangeError), ("fps", True, RangeError),
])
def test_descriptor_checks_its_fields_when_built(field, value, error):
    with pytest.raises(error, match=field):
        SequenceDescriptor(**{**_DESCRIPTOR, field: value})


@pytest.mark.parametrize("fps", [np.float32(25), Fraction(30000, 1001), 30, np.int64(24)])
def test_sequence_fps_is_a_float_that_reads_back(tiny_seq, tmp_path, fps):
    # np.float32 warned of an overflow in the range check, and it and the
    # Fraction made to_json fail
    seq = StereoSequence(tiny_seq.frames, fps=fps)
    assert type(seq.fps) is float and seq.fps == float(fps)
    desc = save_sequence(seq, str(tmp_path / "l.raw"), str(tmp_path / "r.raw"))
    desc.to_json(str(tmp_path / "desc.json"))
    assert SequenceDescriptor.from_json(str(tmp_path / "desc.json")) == desc


def test_descriptor_numpy_fields_are_stored_as_python_numbers(tmp_path):
    desc = SequenceDescriptor(**{**_DESCRIPTOR, "left": str(tmp_path / "a"),
                                 "right": str(tmp_path / "b"), "width": np.int64(8),
                                 "height": np.uint16(8), "frames": np.int32(1),
                                 "fps": np.float32(25)})
    assert [type(getattr(desc, f)) for f in ("width", "height", "frames", "fps")] == [
        int, int, int, float]
    desc.to_json(str(tmp_path / "desc.json"))
    assert SequenceDescriptor.from_json(str(tmp_path / "desc.json")) == desc


def test_descriptor_unknown_format():
    with pytest.raises(DescriptorMismatch):
        SequenceDescriptor(left="a", right="b", width=16, height=16,
                           fps=25.0, frames=1, format="rgb48")


def test_missing_descriptor():
    with pytest.raises(IoError):
        SequenceDescriptor.from_json("/nonexistent/desc.json")


def test_pgm_round_trip(tmp_path):
    values = np.linspace(0.0, 1.0, 64).reshape(8, 8)
    path = str(tmp_path / "m.pgm")
    save_frame_pgm(values, path)
    back = read_pgm(path)
    assert back.shape == (8, 8)
    assert np.abs(back * 255 - np.floor(values * 255 + 0.5)).max() < 1e-9


def test_pgm_range_check(tmp_path):
    with pytest.raises(RangeError):
        save_frame_pgm(np.full((8, 8), 1.5), str(tmp_path / "m.pgm"))


def test_pgm_16bit(tmp_path):
    path = tmp_path / "m.pgm"
    data = (np.arange(4).reshape(2, 2) * 100).astype(">u2")
    with open(path, "wb") as fh:
        fh.write(b"P5\n2 2\n65535\n")
        fh.write(data.tobytes())
    back = read_pgm(str(path))
    assert back[1, 1] == pytest.approx(300 / 65535)


def test_map_series_round_trip(tmp_path):
    maps = [np.full((8, 8), v) for v in (0.0, 0.5, 1.0)]
    d = str(tmp_path / "maps")
    save_map_series(maps, d)
    assert sorted(os.listdir(d)) == [map_name(i) for i in range(3)]
    back = list(iter_map_series(d, {"width": 8, "height": 8, "count": 3}))
    assert back[1][0, 0] == pytest.approx(0.5, abs=1 / 255)


def test_map_series_gap(tmp_path):
    d = str(tmp_path / "maps")
    save_map_series([np.zeros((8, 8))], d)
    with pytest.raises(MapSeriesGap):
        iter_map_series(d, {"width": 8, "height": 8, "count": 2})


def test_map_series_shape_mismatch(tmp_path):
    d = str(tmp_path / "maps")
    save_map_series([np.zeros((8, 8))], d)
    with pytest.raises(MapShapeError):
        list(iter_map_series(d, {"width": 16, "height": 16, "count": 1}))


def test_yuv420_round_trip(tmp_path):
    u, v = np.full((8, 8), 64.0), np.full((8, 8), 192.0)
    seq = StereoSequence([StereoFrame(Frame(sf.left.luma, u, v), Frame(sf.right.luma, u, v))
                          for sf in make_seq(9, frames=2, size=16).frames])
    desc = save_sequence(seq, str(tmp_path / "l.raw"), str(tmp_path / "r.raw"),
                         format="yuv420p8")
    back = load_sequence(desc)
    assert back.frames[0].left.chroma_u is not None
    assert back.frames[0].left.chroma_u[0, 0] == 64.0
    assert back.frames[0].left.chroma_v[0, 0] == 192.0


@pytest.mark.parametrize("header,payload", [
    (b"P5\n8 8\n255\n", bytes(63)),
    (b"P5\n4 4\n65535\n", bytes(31)),
    (b"P5\n8 8x\n255\n", bytes(64)),
    (b"P5\n8.0 8\n255\n", bytes(64)),
    (b"P5\n-4 8\n255\n", bytes(64)),
    (b"P5\n8 0\n255\n", bytes(64)),
    (b"P5\n8 8\n0\n", bytes(64)),
    (b"P5\n8 8\n65536\n", bytes(256)),
], ids=["truncated-8bit", "truncated-16bit", "non-integer", "decimal-point",
        "negative-width", "zero-height", "maxval-0", "maxval-65536"])
def test_read_pgm_rejects_bad_file(tmp_path, header, payload):
    path = tmp_path / "m.pgm"
    path.write_bytes(header + payload)
    with pytest.raises(IoError):
        read_pgm(str(path))


def test_save_map_series_returns_paths(tmp_path):
    d = str(tmp_path / "maps")
    paths = save_map_series([np.zeros((8, 8))] * 2, d)
    assert paths == [os.path.join(d, map_name(i)) for i in range(2)]
    assert all(os.path.isfile(p) for p in paths)


def test_save_sequence_rejects_wrong_chroma_plane(tmp_path):
    u, v = np.full((33, 25), 64.0), np.full((33, 25), 192.0)
    seq = StereoSequence([StereoFrame(Frame(sf.left.luma[:, :50], u, v),
                                      Frame(sf.right.luma[:, :50], u, v))
                          for sf in make_seq(5, frames=2, size=64).frames])
    left, right = tmp_path / "l.raw", tmp_path / "r.raw"
    with pytest.raises(DimensionMismatch):
        save_sequence(seq, str(left), str(right), format="yuv420p8")
    assert not left.exists() and not right.exists()


_CHROMA_SHAPE = {"gray8": None,
                 "yuv420p8": lambda h, w: (h // 2, w // 2),
                 "yuv444p8": lambda h, w: (h, w)}


@settings(max_examples=60, deadline=None)
@given(fmt=st.sampled_from(PIXEL_FORMATS), height=st.integers(8, 37),
       width=st.integers(8, 37), frames=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_sequence_round_trip_every_format(fmt, height, width, frames, seed):
    rng = np.random.default_rng(seed)

    def plane(shape):
        return rng.integers(0, 256, shape).astype(np.float64)

    def frame():
        chroma = _CHROMA_SHAPE[fmt]
        if chroma is None:
            return Frame(plane((height, width)))
        shape = chroma(height, width)
        return Frame(plane((height, width)), plane(shape), plane(shape))

    seq = StereoSequence([StereoFrame(frame(), frame()) for _ in range(frames)],
                         fps=24.0)
    with tempfile.TemporaryDirectory() as d:
        desc = save_sequence(seq, os.path.join(d, "l.raw"), os.path.join(d, "r.raw"),
                             format=fmt)
        desc.to_json(os.path.join(d, "desc.json"))
        loaded = SequenceDescriptor.from_json(os.path.join(d, "desc.json"))
        assert loaded == desc
        back = load_sequence(loaded)
        assert len(back) == frames and back.fps == 24.0
        # a loaded sequence reads its frames from the streams when asked for
        for a, b in zip(seq.frames, back.frames):
            for view in ("left", "right"):
                for name in ("luma", "chroma_u", "chroma_v"):
                    pa, pb = getattr(getattr(a, view), name), getattr(getattr(b, view), name)
                    if pa is None:
                        assert pb is None
                    else:
                        assert np.array_equal(pa, pb)


def test_loaded_sequence_holds_only_its_samples(tmp_path):
    """A loaded sequence holds at most one frame, the last it read (none
    before the first is asked for): a frame is read when it is asked for, and
    its planes are read-only uint8 views of that frame's bytes, with no
    float64 copy (8 bytes a sample), not even for a moment."""
    frames = 8
    desc = write_yuv420(str(tmp_path), "seq", frames, 144, 256, 1)
    one_frame = 2 * desc.frame_bytes() + 16384  # its bytes and a few objects
    tracemalloc.start()
    try:
        seq = load_sequence(desc)
        held, peak = tracemalloc.get_traced_memory()
        for t in range(frames):
            seq.frames[t]
        held_after, peak_after = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= peak <= one_frame, (held, peak, one_frame)
    assert held_after <= one_frame and peak_after <= 2 * one_frame
    last = seq.frames[-1]
    for plane in last.right.planes:
        assert plane.dtype == np.uint8 and not plane.flags.writeable
    assert last.right.luma.dtype == np.float64


def test_in_place_write_to_a_loaded_plane_raises(tmp_path):
    """A loaded frame's planes read as fresh float64 arrays, so a write to
    one would be lost; it raises instead, and the frame keeps its samples."""
    frame = load_sequence(write_yuv420(str(tmp_path), "seq", 1, 16, 16, 3)).frames[0].left
    before = frame.luma
    for name in ("luma", "chroma_u", "chroma_v"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(frame, name)[:] = 0.0
    np.testing.assert_array_equal(frame.luma, before)


def test_frame_copies_a_writable_uint8_plane():
    samples = np.full((8, 8), 40, np.uint8)
    frame = Frame(samples, chroma_u=samples, chroma_v=samples)
    samples[:] = 200
    assert frame.luma.max() == frame.chroma_u.max() == 40.0
    assert not frame.planes[0].flags.writeable


def _float64_copy(seq: StereoSequence) -> StereoSequence:
    def frame(f):
        return Frame(*(None if p is None else p.astype(np.float64) for p in f.planes))

    return StereoSequence([StereoFrame(frame(sf.left), frame(sf.right)) for sf in seq.frames],
                          fps=seq.fps)


def _every_report(ref: StereoSequence, dist: StereoSequence) -> list[dict]:
    """All 12 FR and 9 NR reports of ``dist`` with baseline saliency and
    estimated disparity, as ``score-fr`` and ``score-nr`` compute them."""
    disparity = {"d_ref": list(iter_disparity_series(ref)),
                 "d_dist": list(iter_disparity_series(dist))}
    s_ref, s_dist = list(iter_baseline_vam(ref)), list(iter_baseline_vam(dist))
    reports = [fn(ref, dist, s_series=s_ref,
                  **{slot: disparity[slot] for slot in fn.needs})
               for fn in FR_METRICS.values()]
    cfg = NrMetricConfig(qa3d_history=1)  # fits the 3 frames
    reports += [fn(dist, s_series=s_dist, cfg=cfg,
                   **{slot: disparity[slot] for slot in fn.needs})
                for fn in NR_METRICS.values()]
    return [dataclasses.asdict(r) for r in reports]


def test_both_frame_storages_give_the_same_reports(tmp_path):
    """A yuv420p8 pair loaded from its streams (uint8 planes) scores exactly
    as the same pair built through the API from float64 planes."""
    d = str(tmp_path)
    ref = load_sequence(write_yuv420(d, "ref", 3, 45, 74, 2))
    spec = DistortionSpec(kind="awgn", params={"variance": 0.002}, seed=4)
    dist = load_sequence(save_sequence(apply(ref, spec), os.path.join(d, "dist-l.raw"),
                                       os.path.join(d, "dist-r.raw"), format="yuv420p8"))
    ref64, dist64 = _float64_copy(ref), _float64_copy(dist)
    assert dist.frames[0].left.planes[1].dtype == np.uint8
    assert dist64.frames[0].left.planes[1].dtype == np.float64
    from_streams = _every_report(ref, dist)
    assert len(from_streams) == 21
    assert from_streams == _every_report(ref64, dist64)
