"""Contract of the metric driver and of the FR/NR registries it fills."""

import json

import numpy as np
import pytest

from stereoqa.disparity import DisparityMap
from stereoqa.errors import (DegenerateSaliency, DimensionMismatch, DisparityRequired,
                             NeedsTemporalContext, NumericError, ParamError,
                             SequenceLengthError)
from stereoqa.fr import FR_METRICS, FrMetricConfig
from stereoqa.metric import registrar
from stereoqa.nr import NR_METRICS, NrMetricConfig
from stereoqa.saliency import SaliencyMap, uniform_series

from conftest import make_seq, seq_from_lumas

REGISTRY = ([("stereoqa.fr", name) for name in FR_METRICS]
            + [("stereoqa.nr", name) for name in NR_METRICS])
DISPARITY_SLOTS = {name: fn.needs for name, fn in {**FR_METRICS, **NR_METRICS}.items()
                   if fn.needs}


def test_registries_hold_all_21_metrics():
    assert len(REGISTRY) == 21


@pytest.mark.parametrize("module,name", REGISTRY, ids=[n for _, n in REGISTRY])
def test_registry_entry_contract(module, name):
    reference = module == "stereoqa.fr"
    fn = (FR_METRICS if reference else NR_METRICS)[name]
    needs = fn.needs
    # the span tracer names each metric by these two attributes
    assert fn.__name__ == name
    assert fn.__module__ == module

    seq = make_seq(81, frames=3, size=64, block=8)
    args = (seq, seq) if reference else (seq,)
    cfg = None if reference else NrMetricConfig(qa3d_history=2)
    maps = {slot: [DisparityMap(np.zeros((64, 64))) for _ in range(3)] for slot in needs}

    assert fn(*args, cfg=cfg, **maps).metric == name
    with pytest.raises(SequenceLengthError):
        fn(*args, s_series=uniform_series(seq)[:2], cfg=cfg, **maps)
    for slot in needs:
        with pytest.raises(DisparityRequired):
            fn(*args, cfg=cfg, **{k: v for k, v in maps.items() if k != slot})


@pytest.mark.parametrize("module,name", REGISTRY, ids=[n for _, n in REGISTRY])
def test_driver_starts_only_the_series_a_metric_needs(module, name):
    """The CLI passes a series for every slot; the driver starts only those
    that the registration's ``needs`` names, so the others cost nothing."""
    reference = module == "stereoqa.fr"
    fn = (FR_METRICS if reference else NR_METRICS)[name]
    seq = make_seq(81, frames=3, size=64, block=8)
    started = []

    def series(slot):
        started.append(slot)
        yield from [DisparityMap(np.zeros((64, 64)))] * 3

    slots = ("d_ref", "d_dist") if reference else ("d_dist",)
    fn(*((seq, seq) if reference else (seq,)), **{slot: series(slot) for slot in slots},
       cfg=None if reference else NrMetricConfig(qa3d_history=2))
    assert started == list(fn.needs)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_frame_score_raises(bad):
    registry = {}
    calls = iter([0.5, bad, 0.5, 0.5])

    @registrar(registry, FrMetricConfig, reference=True)("higher_better")
    def broken(x, y, s, cfg):
        return next(calls)

    seq = make_seq(71, frames=2, size=16)
    with pytest.raises(NumericError):
        broken(seq, seq)


@pytest.mark.parametrize("history,field", [(2, ""), ("qa3d_history", "qa3d_history 2: ")],
                         ids=["int", "config"])
def test_driver_checks_the_declared_history(history, field):
    registry, taken = {}, []

    @registrar(registry, NrMetricConfig, reference=False)(
        "higher_better", over="sequence", history=history)
    def probe(frames, cfg):
        return [0.5 for _ in frames][2:]

    def s_series(seq):
        for m in uniform_series(seq):
            taken.append(m)
            yield m

    cfg = NrMetricConfig(qa3d_history=2)
    short = make_seq(71, frames=2, size=16)
    with pytest.raises(NeedsTemporalContext, match=f"^{field}needs at least 3 frames$"):
        probe(short, s_series=s_series(short), cfg=cfg)
    assert taken == []  # raised before the first map was asked for
    seq = make_seq(71, frames=3, size=16)
    report = probe(seq, s_series=s_series(seq), cfg=cfg)
    assert report.first_frame == 2
    assert report.frame_scores == [0.5]
    assert len(taken) == 3


@pytest.mark.parametrize("reference", [True, False], ids=["fr", "nr"])
def test_formula_gets_ones_without_saliency(reference):
    registry, seen = {}, []
    config_cls = FrMetricConfig if reference else NrMetricConfig

    @registrar(registry, config_cls, reference=reference)("higher_better")
    def probe(*args):
        seen.append(args[-2].s)  # at call time: the driver clears the context after its frame
        return 0.5

    seq = make_seq(71, frames=2, size=16)
    probe(*((seq, seq) if reference else (seq,)))
    assert len(seen) == 4  # two frames, two views
    for s in seen:
        assert isinstance(s, np.ndarray) and s.dtype == np.float64
        assert s.shape == (16, 16) and np.all(s == 1.0)


def test_view_formula_gets_its_frame_context():
    registry, seen = {}, []

    @registrar(registry, FrMetricConfig, reference=True)(
        "higher_better", needs=("d_ref", "d_dist"))
    def probe(x, y, c, cfg):
        seen.append((c.s[0, 0], c.d_ref[0, 0], c.d_dist[0, 0]))
        c.flags.append("probed")
        return 0.5

    seq = make_seq(71, frames=2, size=16)
    report = probe(seq, seq, s_series=[SaliencyMap(np.full((16, 16), 1.0 + t)) for t in range(2)],
                   d_ref=[DisparityMap(np.full((16, 16), 10.0 + t)) for t in range(2)],
                   d_dist=[DisparityMap(np.full((16, 16), 20.0 + t)) for t in range(2)])
    assert seen == [(1.0, 10.0, 20.0)] * 2 + [(2.0, 11.0, 21.0)] * 2  # two views a frame
    assert report.flags == ["probed"]


@pytest.mark.parametrize("module,name", REGISTRY, ids=[n for _, n in REGISTRY])
def test_no_saliency_is_exactly_uniform(module, name):
    reference = module == "stereoqa.fr"
    fn = (FR_METRICS if reference else NR_METRICS)[name]
    needs = fn.needs
    ref = make_seq(81, frames=3, size=64, block=8)
    dist = make_seq(82, frames=3, size=64, block=8)
    args = (ref, dist) if reference else (dist,)
    cfg = None if reference else NrMetricConfig(qa3d_history=2)
    maps = {slot: [DisparityMap(np.zeros((64, 64))) for _ in range(3)] for slot in needs}

    plain = fn(*args, cfg=cfg, **maps)
    uniform = fn(*args, s_series=uniform_series(ref), cfg=cfg, **maps)
    assert plain.frame_scores == uniform.frame_scores
    assert plain.flags == uniform.flags


@pytest.mark.parametrize("module,name", REGISTRY, ids=[n for _, n in REGISTRY])
def test_all_zero_saliency_map_is_degenerate(module, name):
    reference = module == "stereoqa.fr"
    fn = (FR_METRICS if reference else NR_METRICS)[name]
    seq = make_seq(81, frames=3, size=64, block=8)
    args = (seq, seq) if reference else (seq,)
    cfg = None if reference else NrMetricConfig(qa3d_history=2)
    maps = {slot: [DisparityMap(np.zeros((64, 64))) for _ in range(3)]
            for slot in DISPARITY_SLOTS.get(name, ())}
    s_series = uniform_series(seq)
    s_series[1] = SaliencyMap(np.zeros((64, 64)))
    with pytest.raises(DegenerateSaliency, match="frame 1"):
        fn(*args, s_series=s_series, cfg=cfg, **maps)


@pytest.mark.parametrize("name", ["psnr_s", "gbim_s"])
def test_raw_array_saliency_is_param_error(name):
    seq = make_seq(71, frames=2, size=32)
    fn = FR_METRICS.get(name) or NR_METRICS[name]
    args = (seq, seq) if name in FR_METRICS else (seq,)
    with pytest.raises(ParamError):
        fn(*args, s_series=[np.ones((32, 32))] * 2)


@pytest.mark.parametrize("name", sorted(DISPARITY_SLOTS))
@pytest.mark.parametrize("bad,error", [
    (DisparityMap(np.zeros((80, 80))), DimensionMismatch),
    (DisparityMap(np.zeros((48, 48))), DimensionMismatch),
    (np.zeros((64, 64)), ParamError),
], ids=["larger-map", "smaller-map", "raw-array"])
def test_disparity_map_checked_by_driver(name, bad, error):
    reference = name in FR_METRICS
    fn = (FR_METRICS if reference else NR_METRICS)[name]
    seq = make_seq(81, frames=3, size=64, block=8)
    args = (seq, seq) if reference else (seq,)
    cfg = None if reference else NrMetricConfig(qa3d_history=2)
    good = [DisparityMap(np.zeros((64, 64))) for _ in range(3)]
    for slot in DISPARITY_SLOTS[name]:
        maps = {s: good for s in DISPARITY_SLOTS[name]}
        maps[slot] = [good[0], bad, good[2]]
        with pytest.raises(error):
            fn(*args, cfg=cfg, **maps)


@pytest.mark.parametrize("name", ["phvs3d_s", "phsd_s", "hv3d_s"])
def test_block_pool_without_block_weight_is_degenerate(name):
    # 64x66 frames: no whole 4x4 or 8x8 block reaches columns 64-65
    rng = np.random.RandomState(5)
    lumas = [rng.rand(64, 66) * 255.0 for _ in range(2)]
    seq = seq_from_lumas(lumas, [np.roll(x, 2, axis=1) for x in lumas])
    s = np.zeros((64, 66))
    s[:, 64:] = 1.0
    maps = {slot: [DisparityMap(np.zeros((64, 66)))] * 2 for slot in FR_METRICS[name].needs}
    with pytest.raises(DegenerateSaliency):
        FR_METRICS[name](seq, seq, s_series=[SaliencyMap(s)] * 2, **maps)


@pytest.mark.parametrize("name", ["flosim3d_s", "qa3d_s"])
def test_frame_csv_numbers_rows_by_the_frame_scored(name, tmp_path):
    # flosim3d_s scores frames 1..n-1, qa3d_s at history 1 frames 1..n-1 too
    ref = make_seq(81, frames=3, size=64, block=8)
    dist = make_seq(82, frames=3, size=64, block=8)
    maps = [DisparityMap(np.zeros((64, 64))) for _ in range(3)]
    if name == "flosim3d_s":
        report = FR_METRICS[name](ref, dist, d_ref=maps, d_dist=maps)
    else:
        report = NR_METRICS[name](dist, d_dist=maps, cfg=NrMetricConfig(qa3d_history=1))
    report.save_frame_csv(str(tmp_path / "frames.csv"))
    assert (tmp_path / "frames.csv").read_text().splitlines() == [
        "frame,score", *(f"{t},{s!r}" for t, s in zip((1, 2), report.frame_scores))]
    report.save_json(str(tmp_path / "report.json"))
    assert list(json.loads((tmp_path / "report.json").read_text())) == [
        "metric", "score", "frame_scores", "orientation", "saliency_mode",
        "config_fingerprint", "flags"]
