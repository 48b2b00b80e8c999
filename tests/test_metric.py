"""Contract of the metric driver and of the FR/NR registries it fills."""

import numpy as np
import pytest

from stereoqa.disparity import DisparityMap
from stereoqa.errors import (DisparityRequired, NumericError, ParamError,
                             SequenceLengthError)
from stereoqa.fr import FR_METRICS, FR_NEEDS_DISPARITY, FrMetricConfig
from stereoqa.metric import registrar
from stereoqa.nr import NR_METRICS, NR_NEEDS_DISPARITY, NrMetricConfig
from stereoqa.saliency import uniform_series

from conftest import make_seq

REGISTRY = ([("stereoqa.fr", name) for name in FR_METRICS]
            + [("stereoqa.nr", name) for name in NR_METRICS])


def test_registries_hold_all_21_metrics():
    assert len(REGISTRY) == 21


@pytest.mark.parametrize("module,name", REGISTRY, ids=[n for _, n in REGISTRY])
def test_registry_entry_contract(module, name):
    reference = module == "stereoqa.fr"
    fn = (FR_METRICS if reference else NR_METRICS)[name]
    needs = (FR_NEEDS_DISPARITY if reference else NR_NEEDS_DISPARITY).get(name, ())
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


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_frame_score_raises(bad):
    registry, needs = {}, {}
    calls = iter([0.5, bad, 0.5, 0.5])

    @registrar(registry, needs, FrMetricConfig, reference=True)("higher_better")
    def broken(x, y, s, cfg):
        return next(calls)

    seq = make_seq(71, frames=2, size=16)
    with pytest.raises(NumericError):
        broken(seq, seq)


@pytest.mark.parametrize("reference", [True, False], ids=["fr", "nr"])
def test_formula_gets_ones_without_saliency(reference):
    registry, needs, seen = {}, {}, []
    config_cls = FrMetricConfig if reference else NrMetricConfig

    @registrar(registry, needs, config_cls, reference=reference)("higher_better")
    def probe(*args):
        seen.append(args[-2])
        return 0.5

    seq = make_seq(71, frames=2, size=16)
    probe(*((seq, seq) if reference else (seq,)))
    assert len(seen) == 4  # two frames, two views
    for s in seen:
        assert isinstance(s, np.ndarray) and s.dtype == np.float64
        assert s.shape == (16, 16) and np.all(s == 1.0)


@pytest.mark.parametrize("module,name", REGISTRY, ids=[n for _, n in REGISTRY])
def test_no_saliency_is_exactly_uniform(module, name):
    reference = module == "stereoqa.fr"
    fn = (FR_METRICS if reference else NR_METRICS)[name]
    needs = (FR_NEEDS_DISPARITY if reference else NR_NEEDS_DISPARITY).get(name, ())
    ref = make_seq(81, frames=3, size=64, block=8)
    dist = make_seq(82, frames=3, size=64, block=8)
    args = (ref, dist) if reference else (dist,)
    cfg = None if reference else NrMetricConfig(qa3d_history=2)
    maps = {slot: [DisparityMap(np.zeros((64, 64))) for _ in range(3)] for slot in needs}

    plain = fn(*args, cfg=cfg, **maps)
    uniform = fn(*args, s_series=uniform_series(ref), cfg=cfg, **maps)
    assert plain.frame_scores == uniform.frame_scores
    assert plain.flags == uniform.flags


@pytest.mark.parametrize("name", ["psnr_s", "gbim_s"])
def test_raw_array_saliency_is_param_error(name):
    seq = make_seq(71, frames=2, size=32)
    fn = FR_METRICS.get(name) or NR_METRICS[name]
    args = (seq, seq) if name in FR_METRICS else (seq,)
    with pytest.raises(ParamError):
        fn(*args, s_series=[np.ones((32, 32))] * 2)
