"""Contract of the metric driver and of the FR/NR registries it fills."""

import numpy as np
import pytest

from stereoqa.disparity import DisparityMap
from stereoqa.errors import DisparityRequired, NumericError, SequenceLengthError
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
