"""One pass over the frames: loaded sequences read frames on demand, every
map source may be an iterator, and the metric driver keeps one frame's
context at a time."""

import dataclasses
import json
import os
import tracemalloc
import weakref

import numpy as np
import pytest

import stereoqa.fr as fr
import stereoqa.nr as nr
from stereoqa.cli import main
from stereoqa.disparity import DisparityMap, estimate_disparity, iter_disparity_series
from stereoqa.distort import DistortionSpec, apply
from stereoqa.errors import (DegenerateSaliency, DescriptorMismatch, MapSeriesGap,
                             MapShapeError, ParamError, RangeError, SequenceLengthError)
from stereoqa.fr import FR_METRICS, FR_NEEDS_DISPARITY, FrMetricConfig
from stereoqa.media import (Frame, StereoFrame, StereoSequence, iter_map_series, load_sequence,
                            read_pgm, save_map_series, save_sequence)
from stereoqa.metric import registrar
from stereoqa.nr import NR_METRICS, NR_NEEDS_DISPARITY, NrMetricConfig
from stereoqa.saliency import (SaliencyMap, iter_baseline_vam, iter_external_saliency,
                               normalize_map, uniform_series)

from conftest import make_seq, seq_from_lumas, write_yuv420
from test_media import _float64_copy
from test_saliency import vam_by_frame, vam_full_frame


def _stored(tmp_path, seq, name="seq", fmt="yuv420p8") -> StereoSequence:
    """``seq`` saved as streams and loaded back: a sequence that reads its frames
    from the files."""
    desc = save_sequence(seq, str(tmp_path / f"{name}-l.raw"), str(tmp_path / f"{name}-r.raw"),
                         format=fmt)
    return load_sequence(desc)


def _yuv_seq(seed, frames, h=45, w=74):
    rng = np.random.default_rng(seed)

    def view():
        luma = np.floor(rng.random((h, w)) * 256.0)
        return Frame(luma, *(np.floor(rng.random((h // 2, w // 2)) * 256.0) for _ in range(2)))

    return StereoSequence([StereoFrame(view(), view()) for _ in range(frames)], fps=25.0)


def test_loaded_frames_are_read_when_asked_for(tmp_path):
    held = _yuv_seq(1, frames=3)
    seq = _stored(tmp_path, held)
    assert (len(seq), seq.height, seq.width) == (3, 45, 74)
    for got, want in zip(seq.frames, held.frames, strict=True):
        assert np.array_equal(got.right.chroma_u, want.right.chroma_u)
    first = seq.frames[0]
    assert seq.frames[0] is first  # the last frame read is kept
    assert seq.frames[1] is not first and seq.frames[0] is not first  # others are read anew
    assert np.array_equal(seq.frames[-1].right.luma, seq.frames[2].right.luma)
    assert [f.left.chroma_v.sum() for f in seq.frames[1:]] == \
        [seq.frames[t].left.chroma_v.sum() for t in (1, 2)]
    with pytest.raises(IndexError):
        seq.frames[3]
    # a frame is read from the stream when asked for, so a changed file shows
    path = str(tmp_path / "seq-l.raw")
    with open(path, "r+b") as fh:
        fh.write(b"\x07" * 45 * 74)
    assert np.all(seq.frames[0].left.luma == 7.0)
    with open(path, "r+b") as fh:
        fh.truncate(100)
    with pytest.raises(DescriptorMismatch, match="frame 1 ends early"):
        seq.frames[1]


def test_streamed_sources_equal_the_lists(tmp_path):
    """The per-frame VAM, disparity and dir: sources, taken one map at a time
    from a sequence read on demand, equal their per-frame functions (and the
    full-frame VAM) on the same frames held in memory, bit for bit."""
    loaded = _stored(tmp_path, _yuv_seq(2, frames=4))
    held = _float64_copy(loaded)
    d_want = [estimate_disparity(frame) for frame in held.frames]
    d_got = iter_disparity_series(loaded)
    assert not isinstance(d_got, list)
    for got, want in zip(d_got, d_want, strict=True):
        assert np.array_equal(got.values, want.values)
    vam_got = iter_baseline_vam(loaded, disparity_series=iter_disparity_series(loaded))
    for got, want in zip(vam_got, vam_full_frame(held, disparity_series=d_want), strict=True):
        assert np.array_equal(got.values, want.values)
        assert got.source == "baseline"
    paths = save_map_series([m.values for m in vam_by_frame(held)], str(tmp_path / "sal"))
    maps = iter_map_series(str(tmp_path / "sal"), {"width": 74, "height": 45, "count": 4})
    for got, path in zip(maps, paths, strict=True):
        assert np.array_equal(got, read_pgm(path))
    external = iter_external_saliency(str(tmp_path / "sal"), loaded)
    for got, path in zip(external, paths, strict=True):
        assert np.array_equal(got.values, normalize_map(read_pgm(path)).values)
        assert got.source == "external"


def test_map_series_looks_for_every_file_before_reading_one(tmp_path):
    d = tmp_path / "maps"
    save_map_series([np.zeros((8, 8)), np.zeros((8, 16))], str(d))
    with pytest.raises(MapSeriesGap, match="missing map index 2"):
        iter_map_series(str(d), {"width": 8, "height": 8, "count": 3})
    maps = iter_map_series(str(d), {"width": 8, "height": 8, "count": 2})
    assert next(maps).shape == (8, 8)
    with pytest.raises(MapShapeError):
        next(maps)


def _sources(seq, needs, lazy):
    """Baseline saliency and estimated disparity as ``score-fr`` makes them,
    as iterators (``lazy``) or lists."""
    make = (lambda it: it) if lazy else list
    return {"s_series": make(iter_baseline_vam(seq)),
            **{slot: make(iter_disparity_series(seq)) for slot in needs}}


def test_generator_sources_give_the_list_reports(tmp_path):
    ref = _stored(tmp_path, _yuv_seq(3, frames=3), "ref")
    dist = _stored(tmp_path, apply(ref, DistortionSpec("awgn", {"variance": 0.002}, seed=4)),
                   "dist")
    cfg = NrMetricConfig(qa3d_history=1)
    reports = {}
    for lazy in (True, False):
        got = [fn(ref, dist, **_sources(ref, FR_NEEDS_DISPARITY.get(name, ()), lazy))
               for name, fn in FR_METRICS.items()]
        got += [fn(dist, cfg=cfg, **_sources(dist, NR_NEEDS_DISPARITY.get(name, ()), lazy))
                for name, fn in NR_METRICS.items()]
        reports[lazy] = [dataclasses.asdict(r) for r in got]
    assert len(reports[True]) == 21
    assert reports[True] == reports[False]


def _tracked(n, shape, log, at_make):
    """n SaliencyMaps, made one at a time, whose values ``log`` holds weakly;
    ``at_make`` gets how many earlier ones live as each is made."""
    def make(t):
        at_make.append(sum(r() is not None for r in log))
        values = np.full(shape, 1.0 + t)
        values.flags.writeable = False  # kept by the map as it is
        log.append(weakref.ref(values))
        return SaliencyMap(values)

    return map(make, range(n))


@pytest.mark.parametrize("over", ["view", "frame", "sequence"])
def test_driver_holds_one_context_at_a_time(over):
    registry, needs, alive = {}, {}, []
    log, at_make = [], []

    def count():
        alive.append(sum(r() is not None for r in log))

    @registrar(registry, needs, FrMetricConfig, reference=True)("higher_better", over=over)
    def probe(*args):
        if over == "sequence":
            scores = []
            for _ in args[0]:
                count()
                scores.append(0.5)
            return scores
        count()
        return 0.5

    seq = make_seq(7, frames=5, size=16)
    report = probe(seq, seq, s_series=_tracked(5, (16, 16), log, at_make))
    assert report.frame_scores == [0.5] * 5
    assert len(log) == 5
    assert set(alive) == {1}  # the frame in hand; every earlier one is gone
    assert at_make == [0] * 5  # dropped before the next maps are made
    assert all(r() is None for r in log)


@pytest.mark.parametrize("name", ["flosim3d_s", "qa3d_s"])
def test_sequence_formulas_keep_no_earlier_context(name, monkeypatch):
    log, at_make, alive = [], [], []
    module, hook = (fr, "_msssim_frame") if name == "flosim3d_s" else (nr, "sobel_gradient")
    real = getattr(module, hook)

    def spy(*args, **kwargs):
        alive.append(sum(r() is not None for r in log))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, hook, spy)
    ref = make_seq(9, frames=6, size=64, block=8)
    dist = apply(ref, DistortionSpec("awgn", {"variance": 0.01}, seed=2))
    d = [DisparityMap(np.full((64, 64), float(t))) for t in range(6)]
    if name == "flosim3d_s":
        report = fr.flosim3d_s(ref, dist, s_series=_tracked(6, (64, 64), log, at_make), d_ref=iter(d),
                               d_dist=iter(d[::-1]))
    else:
        report = nr.qa3d_s(dist, s_series=_tracked(6, (64, 64), log, at_make), d_dist=iter(d),
                           cfg=NrMetricConfig(qa3d_history=2))
    assert len(report.frame_scores) == (5 if name == "flosim3d_s" else 4)
    assert alive and set(alive) == {1}
    assert at_make == [0] * 6


_BAD_SERIES = [
    ("short", lambda maps: maps[:2], SequenceLengthError, "s_series length"),
    ("long", lambda maps: maps + maps[:1], SequenceLengthError, "s_series length"),
    ("raw-array", lambda maps: [maps[0], maps[1].values, maps[2]], ParamError, "SaliencyMap"),
    ("all-zero", lambda maps: [maps[0], SaliencyMap(np.zeros((32, 32))), maps[2]],
     DegenerateSaliency, "frame 1"),
]


@pytest.mark.parametrize("make, bad, error, match", [
    pytest.param(make, bad, error, match, id=name + suffix)
    for make, suffix in ((iter, ""), (list, "-list")) for name, bad, error, match in _BAD_SERIES])
def test_streamed_series_are_checked_as_they_come(make, bad, error, match):
    """An iterator and a list go one path: each map is checked when its
    frame is reached, and the count when the last frame's map is taken."""
    seq = make_seq(8, frames=3, size=32)
    maps = uniform_series(seq)
    with pytest.raises(error, match=match):
        FR_METRICS["psnr_s"](seq, seq, s_series=make(bad(maps)))


@pytest.fixture
def pair(tmp_path):
    """The descriptor of a 2-frame 64x64 pair, and 1- and 2-map dir: series."""
    desc = save_sequence(make_seq(12, frames=2, size=64), str(tmp_path / "l.raw"),
                         str(tmp_path / "r.raw"))
    desc.to_json(str(tmp_path / "seq.json"))
    save_map_series([np.full((64, 64), 0.5)] * 2, str(tmp_path / "two"))
    save_map_series([np.full((64, 64), 0.5)], str(tmp_path / "one"))
    return str(tmp_path / "seq.json")


@pytest.mark.parametrize("flag", ["--saliency", "--disparity-ref", "--disparity-dist"])
@pytest.mark.parametrize("maps", ["one", "none"])
def test_short_or_missing_dir_series_keeps_its_error_line(pair, tmp_path, capsys, flag, maps):
    argv = ["score-fr", "--metric", "ddl1_s", "--ref", pair, "--dist", pair,
            "--out", str(tmp_path / "r.json"), flag, f"dir:{tmp_path / maps}"]
    index = 1 if maps == "one" else 0
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: missing map index {index} in {tmp_path / maps}\n"
    assert main([*argv, "--config", str(tmp_path / "missing.json")]) == 1
    assert "missing.json" in capsys.readouterr().err  # the config is read first


def test_a_later_map_error_carries_no_config_prefix(pair, tmp_path, capsys):
    """A map made while the frames are scored fails with the error line it
    had when every map was made first: no --config prefix."""
    paths = save_map_series([np.full((64, 64), 0.5)] * 2, str(tmp_path / "bad"))
    with open(paths[1], "r+b") as fh:
        fh.truncate(os.path.getsize(paths[1]) - 1)
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{}")
    argv = ["score-fr", "--metric", "ssim_s", "--ref", pair, "--dist", pair,
            "--out", str(tmp_path / "r.json"), "--saliency", f"dir:{tmp_path / 'bad'}"]
    for extra in ([], ["--config", str(cfg)]):
        assert main([*argv, *extra]) == 1
        assert capsys.readouterr().err == f"error: {paths[1]}: truncated PGM payload\n"


def _maps_dir(tmp_path, name, shapes):
    """A dir: series of flat maps of ``shapes``, one each."""
    return save_map_series([np.full(shape, 0.5) for shape in shapes], str(tmp_path / name))


def test_a_later_disparity_map_error_of_saliency_carries_no_config_prefix(pair, tmp_path,
                                                                          capsys):
    paths = _maps_dir(tmp_path, "bad", [(64, 64), (64, 32)])
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{}")
    argv = ["saliency", "--in", pair, "--out", str(tmp_path / "sal"),
            "--disparity", f"dir:{tmp_path / 'bad'}"]
    for extra in ([], ["--config", str(cfg)]):
        assert main([*argv, *extra]) == 1
        assert capsys.readouterr().err == f"error: {paths[1]}: 32x64, expected 64x64\n"


@pytest.mark.parametrize("case", ["vam", "disparity"])
def test_a_saliency_run_whose_first_map_fails_leaves_no_directory(pair, tmp_path, capsys, case):
    out = tmp_path / "sal"
    argv = ["saliency", "--in", pair, "--out", str(out)]
    if case == "vam":
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"smooth_sigma": 1e308}')
        argv += ["--config", str(cfg)]
    else:
        _maps_dir(tmp_path, "bad", [(64, 32), (64, 64)])
        argv += ["--disparity", f"dir:{tmp_path / 'bad'}"]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_a_failed_saliency_run_leaves_no_readable_series(tmp_path, capsys):
    """A run whose third map fails removes the maps it wrote: a fresh --out
    is gone, and over a complete earlier series and manifest a dir: read
    of --out misses its first map rather than mixing the two runs."""
    desc = save_sequence(make_seq(12, frames=3, size=64), str(tmp_path / "l.raw"),
                         str(tmp_path / "r.raw"))
    desc.to_json(str(tmp_path / "seq.json"))
    bad = _maps_dir(tmp_path, "bad", [(64, 64), (64, 64), (32, 64)])
    out = tmp_path / "sal"
    argv = ["saliency", "--in", str(tmp_path / "seq.json"), "--out", str(out)]
    expected = {"width": 64, "height": 64, "count": 3}
    for earlier in (False, True):
        if earlier:
            assert main(argv) == 0
            assert len(list(iter_map_series(str(out), expected))) == 3
        assert main([*argv, "--disparity", f"dir:{tmp_path / 'bad'}"]) == 1
        assert capsys.readouterr().err == f"error: {bad[2]}: 64x32, expected 64x64\n"
        if not earlier:
            assert not out.exists()
    with pytest.raises(MapSeriesGap, match="missing map index 0"):
        iter_map_series(str(out), expected)


def test_a_failed_map_write_removes_every_directory_it_made(tmp_path):
    def maps():
        yield np.full((8, 8), 0.5)
        yield np.full((8, 8), 2.0)  # outside [0, 1]

    with pytest.raises(RangeError):
        save_map_series(maps(), str(tmp_path / "nest" / "a" / "b"))
    assert os.listdir(tmp_path) == []


# awgn, then gaussian_blur
_LIST_SPEC = [{"kind": "awgn", "params": {"variance": 0.001}, "seed": 3}, {"kind": "gaussian_blur"}]


def _distort_argv(tmp_path, desc_path, spec, out, name="spec.json"):
    (tmp_path / name).write_text(json.dumps(spec))
    return ["distort", "--in", desc_path, "--spec", str(tmp_path / name), "--out", str(out)]


def _distort_input(tmp_path, seq):
    """``seq`` stored as a distort output is: left.raw, right.raw and
    descriptor.json in ``tmp_path / "src"``; the descriptor's path."""
    src = tmp_path / "src"
    src.mkdir()
    save_sequence(seq, str(src / "left.raw"), str(src / "right.raw")).to_json(
        str(src / "descriptor.json"))
    return str(src / "descriptor.json")


def test_an_in_place_distort_reads_its_input_intact(tmp_path):
    """``distort --out`` the input's own directory gives the bytes a run into
    a fresh directory gives: the streams are written next to the targets and
    replace them only once the last frame is written."""
    desc_path = _distort_input(tmp_path, make_seq(12, frames=3, size=64))
    fresh = _distort_argv(tmp_path, desc_path, _LIST_SPEC, tmp_path / "fresh")
    assert main(fresh) == 0
    assert main([*fresh[:-1], str(tmp_path / "src")]) == 0
    for name in ("left.raw", "right.raw", "descriptor.json"):
        assert (tmp_path / "src" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()
    assert not [name for name in os.listdir(tmp_path / "src") if name.endswith(".part")]


# frame 0 is black, so its DCT is 0 and only frame 1's overflows at this step
_LATE_FAILURE = [{"kind": "gaussian_blur"}, {"kind": "block_quantize", "params": {"step": 1e-306}}]


def _black_then_grey(tmp_path):
    return _distort_input(tmp_path, seq_from_lumas([np.zeros((64, 64)), np.full((64, 64), 128.0)]))


def test_a_later_frame_error_keeps_its_spec_prefix_and_leaves_no_out(tmp_path, capsys):
    argv = _distort_argv(tmp_path, _black_then_grey(tmp_path), _LATE_FAILURE,
                         tmp_path / "nest" / "out")
    assert main(argv) == 1
    assert capsys.readouterr().err == (f"error: {argv[4]}[1]: block_quantize: overflow "
                                       "encountered in divide\n")
    assert not (tmp_path / "nest").exists()


def test_a_failed_distort_leaves_an_earlier_out_as_it_was(tmp_path, capsys):
    desc_path = _black_then_grey(tmp_path)
    out = tmp_path / "out"
    assert main(_distort_argv(tmp_path, desc_path, _LIST_SPEC, out)) == 0
    before = {name: (out / name).read_bytes() for name in os.listdir(out)}
    assert main(_distort_argv(tmp_path, desc_path, _LATE_FAILURE, out, "bad.json")) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert {name: (out / name).read_bytes() for name in os.listdir(out)} == before


@pytest.mark.parametrize("command", [["disparity"], ["saliency", "--disparity", "estimate"],
                                     ["distort", "--spec", "spec.json"]],
                         ids=["disparity", "saliency", "distort"])
def test_map_commands_memory_does_not_grow_with_the_frames(tmp_path, monkeypatch, command):
    """The disparity and saliency commands write each map once it is made,
    and distort (here with a list spec) each frame: the peak for 16 frames
    of 480x270 yuv420p8 stays within 1.1 times the peak for 2 (holding every
    frame's maps, or every distorted frame, until the first write made it
    grow with the frames)."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "spec.json").write_text(json.dumps(_LIST_SPEC))
    peaks = []
    for frames in (2, 16):
        desc_path = str(tmp_path / f"seq{frames}.json")
        write_yuv420(str(tmp_path), f"seq{frames}", frames, 270, 480, 5).to_json(desc_path)
        argv = [command[0], "--in", desc_path, "--out", str(tmp_path / f"out{frames}"),
                *command[1:]]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # 16 maps and the manifest; or two streams, the descriptor and the manifest
    assert len(os.listdir(tmp_path / "out16")) == (4 if command[0] == "distort" else 17)
    assert peaks[1] <= 1.1 * peaks[0], peaks
