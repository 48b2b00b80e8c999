"""Every float config field and distortion parameter at the ends of the float
range: each run that reads it ends in finite values or a StereoQaError, never
in another exception."""

import dataclasses
import functools

import numpy as np
import pytest

from stereoqa import fr, nr
from stereoqa.disparity import iter_disparity_series
from stereoqa.distort import _DISTORTIONS, DistortionSpec, apply
from stereoqa.errors import ParamError, StereoQaError
from stereoqa.saliency import VamConfig, iter_baseline_vam

from conftest import make_seq

_EXTREMES = (1e308, -1e308, 1e-308, -1e-308, 0.0, 1e10, -1e10)

# a random-texture pair, the smallest that every metric scores: 40 pixels
# hold the disparity search and two MS-SSIM scales
_REF = make_seq(7, frames=2, size=40)
_DIST = apply(_REF, DistortionSpec(kind="awgn", params={"variance": 0.005}, seed=1))
_MAPS = {"d_ref": list(iter_disparity_series(_REF)),
         "d_dist": list(iter_disparity_series(_DIST))}
_S_REF, _S_DIST = list(iter_baseline_vam(_REF)), list(iter_baseline_vam(_DIST))


def _fr_runs(cfg):
    for name, metric in fr.FR_METRICS.items():
        maps = {slot: _MAPS[slot] for slot in metric.needs}
        yield name, lambda: metric(_REF, _DIST, s_series=_S_REF, cfg=cfg, **maps)


def _nr_runs(cfg):
    for name, metric in nr.NR_METRICS.items():
        maps = {slot: _MAPS[slot] for slot in metric.needs}
        yield name, lambda: metric(_DIST, s_series=_S_DIST, cfg=cfg, **maps)


def _vam_runs(cfg):
    yield "baseline_vam", lambda: list(iter_baseline_vam(_REF, _MAPS["d_ref"], cfg))


def _distort_runs(spec):
    yield "apply", lambda: apply(_REF, spec)


def _values(result) -> np.ndarray:
    if isinstance(result, list):  # saliency maps
        return np.array([m.values for m in result])
    if hasattr(result, "frames"):  # a distorted sequence
        return np.array([v.luma for f in result.frames for v in (f.left, f.right)])
    return np.array([result.score, *result.frame_scores])


def _config(cls, name, value, **base):
    return cls(**{**base, name: value})


def _spec(kind, name, value):
    base = {"variance": 0.005} if kind == "awgn" else {}
    return DistortionSpec(kind=kind, params={**base, name: value})


# (id, value -> the object that holds it, object -> (label, call) runs that read it)
_CASES = [(f"{cls.__name__}.{f.name}", functools.partial(_config, cls, f.name, **base), runs)
          for cls, runs, base in ((fr.FrMetricConfig, _fr_runs, {}),
                                  (nr.NrMetricConfig, _nr_runs, {"qa3d_history": 1}),
                                  (VamConfig, _vam_runs, {}))
          for f in dataclasses.fields(cls) if f.type.startswith("float")]
_CASES += [(f"{kind}.{name}", functools.partial(_spec, kind, name), _distort_runs)
           for kind, (_, defaults) in _DISTORTIONS.items() for name in defaults]


@pytest.mark.parametrize("build, runs", [case[1:] for case in _CASES],
                         ids=[case[0] for case in _CASES])
def test_extreme_values_end_finite_or_in_a_stereoqa_error(build, runs):
    failures = []
    for value in _EXTREMES:
        try:
            holder = build(value)
        except StereoQaError:
            continue
        for label, call in runs(holder):
            try:
                values = _values(call())
            except StereoQaError:
                continue
            except Exception as exc:  # noqa: BLE001 - the failure this test looks for
                failures.append(f"{label} at {value}: {type(exc).__name__}: {exc}")
                continue
            if not np.all(np.isfinite(values)):
                failures.append(f"{label} at {value}: non-finite values")
    assert not failures, failures


_FLOAT_FIELDS = [(cls, f.name) for cls in (fr.FrMetricConfig, nr.NrMetricConfig, VamConfig)
                 for f in dataclasses.fields(cls) if f.type.startswith("float")]


@pytest.mark.parametrize("value", ["x", True])
@pytest.mark.parametrize("cls, name", _FLOAT_FIELDS,
                         ids=[f"{cls.__name__}.{name}" for cls, name in _FLOAT_FIELDS])
def test_float_fields_hold_real_numbers(cls, name, value):
    # a string built, or failed in a range check with a TypeError
    with pytest.raises(ParamError, match=f"{name} must be a real number"):
        cls(**{name: value})


@pytest.mark.parametrize("metric, field, value", [
    ("oq_s", "oq_a", 1e308), ("phvs3d_s", "psnr_cap", -1e308), ("phsd_s", "psnr_cap", -1e308),
])
def test_finite_frame_scores_near_the_float_limit_have_a_finite_mean(metric, field, value):
    # identical inputs put every frame score at the value, so a plain sum overflows
    maps = {slot: _MAPS["d_ref"] for slot in fr.FR_METRICS[metric].needs}
    report = fr.FR_METRICS[metric](_REF, _REF, cfg=fr.FrMetricConfig(**{field: value}),
                                   **maps)
    assert report.frame_scores == [value, value]
    assert report.score == value
