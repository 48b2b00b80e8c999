import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stereoqa.disparity import DisparityMap
from stereoqa.errors import (
    DescriptorMismatch,
    DimensionMismatch,
    IoError,
    MapSeriesGap,
    MapShapeError,
    ParamError,
    RangeError,
)
from stereoqa.media import (
    PIXEL_FORMATS,
    Frame,
    SequenceDescriptor,
    StereoFrame,
    StereoSequence,
    load_map_series,
    load_sequence,
    map_name,
    read_json,
    read_pgm,
    save_frame_pgm,
    save_map_series,
    save_sequence,
)
from stereoqa.saliency import SaliencyMap

from conftest import make_seq


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
    seq.frames[0].left.luma[:] = 10.5
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


@pytest.mark.parametrize("fps", [float("inf"), float("nan"), -float("inf"), 0.0, -1.0])
def test_sequence_rejects_fps_that_is_not_finite_and_positive(tiny_seq, fps):
    with pytest.raises(RangeError, match="fps"):
        StereoSequence(tiny_seq.frames, fps=fps)


_DESCRIPTOR = dict(left="a", right="b", width=16, height=16, fps=25.0, frames=1)


@pytest.mark.parametrize("field, value, error", [
    ("width", 64.5, ParamError), ("height", 0, ParamError), ("width", True, ParamError),
    ("frames", 0, ParamError), ("frames", -2, ParamError), ("frames", 2.0, ParamError),
    ("fps", float("nan"), RangeError), ("fps", 0.0, RangeError), ("fps", -1, RangeError),
    ("fps", float("inf"), RangeError),
])
def test_descriptor_checks_its_fields_when_built(field, value, error):
    with pytest.raises(error, match=field):
        SequenceDescriptor(**{**_DESCRIPTOR, field: value})


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
    back = load_map_series(d, {"width": 8, "height": 8, "count": 3})
    assert back[1][0, 0] == pytest.approx(0.5, abs=1 / 255)


def test_map_series_gap(tmp_path):
    d = str(tmp_path / "maps")
    save_map_series([np.zeros((8, 8))], d)
    with pytest.raises(MapSeriesGap):
        load_map_series(d, {"width": 8, "height": 8, "count": 2})


def test_map_series_shape_mismatch(tmp_path):
    d = str(tmp_path / "maps")
    save_map_series([np.zeros((8, 8))], d)
    with pytest.raises(MapShapeError):
        load_map_series(d, {"width": 16, "height": 16, "count": 1})


def test_yuv420_round_trip(tmp_path):
    seq = make_seq(9, frames=2, size=16)
    for sf in seq.frames:
        for view in (sf.left, sf.right):
            view.chroma_u = np.full((8, 8), 64.0)
            view.chroma_v = np.full((8, 8), 192.0)
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
    seq = make_seq(5, frames=2, size=64)
    for sf in seq.frames:
        for view in (sf.left, sf.right):
            view.luma = view.luma[:, :50]
            view.chroma_u = np.full((33, 25), 64.0)
            view.chroma_v = np.full((33, 25), 192.0)
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
    for a, b in zip(seq.frames, back.frames):
        for view in ("left", "right"):
            for name in ("luma", "chroma_u", "chroma_v"):
                pa, pb = getattr(getattr(a, view), name), getattr(getattr(b, view), name)
                if pa is None:
                    assert pb is None
                else:
                    assert np.array_equal(pa, pb)
