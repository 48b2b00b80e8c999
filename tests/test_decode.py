"""The JSON contract: read_json, write_json, media.decode and the five
classes built from JSON, the integer-field rule of the configs, plus
random-byte fuzzing of every file reader."""

import dataclasses
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stereoqa.disparity import DisparityConfig
from stereoqa.distort import DistortionSpec
from stereoqa.errors import IoError, MalformedJson, NumericError, ParamError, StereoQaError
from stereoqa.fr import FrMetricConfig
from stereoqa.media import _JSON_TYPES, SequenceDescriptor, decode, read_json, read_pgm, \
    save_frame_pgm, write_json
from stereoqa.nr import NrMetricConfig
from stereoqa.saliency import VamConfig

# one valid instance of each class the command line decodes from JSON
_SAMPLES = {
    SequenceDescriptor: SequenceDescriptor(left="l.raw", right="r.raw", width=64,
                                           height=48, fps=25.0, frames=2,
                                           format="yuv420p8"),
    FrMetricConfig: FrMetricConfig(psnr_cap=60.0, hv3d_block=4),
    NrMetricConfig: NrMetricConfig(aqi_directions=(0, 90), vqsm_alphas=(1, 2, 3, 4, 5)),
    VamConfig: VamConfig(smooth_sigma=1.5, center_surround_pairs=((0, 2),)),
    DistortionSpec: DistortionSpec(kind="gaussian_blur", params={"size": 7, "sigma": 2.0},
                                   seed=3, target="left_only", region=(0, 8, 16, 24)),
}


def _as_json(obj) -> dict:
    return json.loads(json.dumps(dataclasses.asdict(obj)))


def test_decoder_knows_every_field_type():
    for cls in _SAMPLES:
        for f in dataclasses.fields(cls):
            assert set(f.type.split(" | ")) <= set(_JSON_TYPES), (cls.__name__, f.name)


@pytest.mark.parametrize("cls", list(_SAMPLES), ids=lambda cls: cls.__name__)
def test_decode_round_trips_every_class(cls):
    assert decode(cls, _as_json(_SAMPLES[cls]), "sample") == _SAMPLES[cls]


@pytest.mark.parametrize("field,value", [
    ("width", 64), ("fps", 25), ("fps", 25.5), ("left", "x.raw"),
])
def test_decode_accepts_values_of_the_field_type(field, value):
    data = {**_as_json(_SAMPLES[SequenceDescriptor]), field: value}
    assert getattr(decode(SequenceDescriptor, data, "d"), field) == value


@pytest.mark.parametrize("field,value", [
    ("width", 64.0), ("width", True), ("width", "64"), ("width", None),
    ("fps", True), ("fps", "25"), ("fps", [25]), ("left", 5), ("left", None),
    ("format", ["gray8"]),
])
def test_decode_rejects_values_of_another_type(field, value):
    data = {**_as_json(_SAMPLES[SequenceDescriptor]), field: value}
    with pytest.raises(MalformedJson, match=f"d: {field} must be"):
        decode(SequenceDescriptor, data, "d")


@pytest.mark.parametrize("value", [
    "1", {"a": 1}, [1, "2"], [1, True], [1, None], [[1, [2]]], [[1], {}],
])
def test_decode_tuple_fields_take_arrays_of_numbers(value):
    with pytest.raises(MalformedJson, match="region must be tuple"):
        decode(DistortionSpec, {"kind": "awgn", "params": {"variance": 0.1},
                                "region": value}, "s")


def test_decode_makes_tuples_of_arrays_and_keeps_null():
    cfg = decode(VamConfig, {"center_surround_pairs": [[1, 3], [2, 4]],
                             "smooth_sigma": None}, "v")
    assert cfg.center_surround_pairs == ((1, 3), (2, 4)) and cfg.smooth_sigma is None
    assert decode(FrMetricConfig, {"csf_mask": [[2] * 4] * 4}, "f").csf_mask == ((2,) * 4,) * 4


@pytest.mark.parametrize("data,fragment", [
    ([1, 2], "expected a JSON object"),
    ("kind", "expected a JSON object"),
    ({"params": {}}, "missing field 'kind'"),
    ({"kind": "awgn", "params": {"variance": 0.1}, "extra": 1}, "unknown field 'extra'"),
])
def test_decode_rejects_bad_structure(data, fragment):
    with pytest.raises(MalformedJson, match=fragment):
        decode(DistortionSpec, data, "spec")


@pytest.mark.parametrize("cls,data", [
    (NrMetricConfig, {"vqsm_alphas": [1, 2]}),
    (NrMetricConfig, {"vqsm_alphas": [[1, 2, 3, 4, 5]]}),
    (FrMetricConfig, {"msssim_exponents": [[0.2] * 5]}),
    (FrMetricConfig, {"msssim_exponents": [0.5, 0.5, 0, 0, 0, 0]}),
    (FrMetricConfig, {"csf_mask": [[1, 1, 1, 1]] * 3 + [[1, 1, 1]]}),
    (VamConfig, {"center_surround_pairs": [[2]]}),
    (VamConfig, {"center_surround_pairs": [[5, 2]]}),
    (VamConfig, {"center_surround_pairs": [[-1, 2]]}),
    (VamConfig, {"center_surround_pairs": [[2.0, 5]]}),
    (VamConfig, {"center_surround_pairs": [2, 5]}),
    (DistortionSpec, {"kind": "awgn", "params": {"variance": 0.1}, "region": [[0, 0, 8, 8]]}),
    (DistortionSpec, {"kind": "awgn", "params": {"variance": 0.1}, "region": [0, 0, 8]}),
])
def test_shape_checks_raise_param_error(cls, data):
    with pytest.raises(ParamError):
        decode(cls, data, "cfg")


@pytest.mark.parametrize("params", [
    {"sigm": 1.0}, {"sigma": "1"}, {"sigma": True}, {"sigma": [1.0]}, {"variance": 0.1},
])
def test_distortion_params_must_be_known_numbers(params):
    with pytest.raises(ParamError):
        DistortionSpec(kind="gaussian_blur", params=params)


def test_distortion_defaults_come_from_one_table():
    assert DistortionSpec(kind="gaussian_blur").params == {"size": 4, "sigma": 4.0}
    assert DistortionSpec(kind="intensity_shift").params == {"delta": 20.0}
    assert DistortionSpec(kind="block_quantize", params={"step": 9}).params == {"step": 9}
    with pytest.raises(ParamError, match="variance"):
        DistortionSpec(kind="awgn")


@pytest.mark.parametrize("number", [
    "NaN", "Infinity", "-Infinity", "1e999", "-1e999", "1" + "0" * 400, "9" * 5000,
])
def test_read_json_rejects_numbers_outside_the_float_range(tmp_path, number):
    path = tmp_path / "n.json"
    path.write_text('{"psnr_cap": %s}' % number)
    with pytest.raises(MalformedJson):
        read_json(str(path))


def test_read_json_keeps_numbers_as_written(tmp_path):
    path = tmp_path / "n.json"
    path.write_text('[1, 1.0, -0.0, 1e308, 123456789012345678901234567890, 5e-324]')
    assert read_json(str(path)) == [1, 1.0, -0.0, 1e308, 123456789012345678901234567890,
                                    5e-324]
    assert [type(v) for v in read_json(str(path))[:2]] == [int, float]


def test_write_json_reads_back_as_written(tmp_path):
    value = {"b": [1, 1.0, -0.0, 5e-324, 1e308], "a": {"s": "x", "n": None, "t": True}}
    path = tmp_path / "out.json"
    write_json(str(path), value)
    assert read_json(str(path)) == value
    assert path.read_text() == json.dumps(value, indent=2) + "\n"


@pytest.mark.parametrize("number", [float("nan"), float("inf"), -float("inf")])
def test_write_json_refuses_what_read_json_refuses(tmp_path, number):
    path = tmp_path / "out.json"
    with pytest.raises(NumericError, match="out.json"):
        write_json(str(path), {"score": 1.0, "frame_scores": [0.5, number]})
    assert not path.exists()


# (class, integer field, smallest value) of every integer field of a config
_INT_FIELDS = [
    *((FrMetricConfig, name, 1)
      for name in ("ssim_window", "vif_scales", "hv3d_block", "flosim_patch")),
    *((NrMetricConfig, name, 1)
      for name in ("gbim_grid", "nrpbm_probe", "sadaka_region", "aqi_bins", "qa3d_history")),
    (DisparityConfig, "block", 4),
    (DisparityConfig, "search_range", 1),
]
_INT_IDS = [f"{cls.__name__}.{name}" for cls, name, _ in _INT_FIELDS]


def test_int_fields_cover_every_integer_config_field():
    listed = {(cls, name) for cls, name, _ in _INT_FIELDS}
    for cls in (FrMetricConfig, NrMetricConfig, DisparityConfig):
        for f in dataclasses.fields(cls):
            assert (f.type == "int") == ((cls, f.name) in listed), (cls.__name__, f.name)


@pytest.mark.parametrize("cls,name,minimum", _INT_FIELDS, ids=_INT_IDS)
@pytest.mark.parametrize("bad", ["below", "float", "fraction", "bool", "str"])
def test_config_integer_fields_take_only_integers(cls, name, minimum, bad):
    default = getattr(cls(), name)
    value = {"below": minimum - 1, "float": float(default), "fraction": default + 0.5,
             "bool": True, "str": str(default)}[bad]
    with pytest.raises(ParamError, match=f"{name} must be an integer >= {minimum}"):
        cls(**{name: value})


@pytest.mark.parametrize("cls,name,minimum", _INT_FIELDS, ids=_INT_IDS)
def test_config_integer_fields_take_numpy_integers_from_the_minimum(cls, name, minimum):
    assert getattr(cls(**{name: np.int64(minimum)}), name) == minimum


def test_read_json_rejects_deep_nesting(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    with pytest.raises(MalformedJson):
        read_json(str(path))


def _decode_all(path: str, classes=tuple(_SAMPLES)) -> None:
    """read_json then decode as each class; a StereoQaError is a fine end."""
    for cls in classes:
        try:
            decode(cls, read_json(path), path)
        except StereoQaError:
            pass


def _read_pgm(path: str) -> None:
    try:
        values = read_pgm(path)
    except StereoQaError:
        return
    assert values.ndim == 2 and np.all((values >= 0.0) & (values <= 1.0))


def _with_file(payload: bytes, check) -> None:
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "input")
        with open(path, "wb") as fh:
            fh.write(payload)
        check(path)


@settings(max_examples=300, deadline=None)
@given(payload=st.binary(max_size=300))
def test_random_bytes_end_in_a_value_or_stereoqa_error(payload):
    _with_file(payload, _decode_all)
    _with_file(payload, _read_pgm)
    _with_file(b"P5\n" + payload, _read_pgm)


@pytest.mark.parametrize("cls", list(_SAMPLES), ids=lambda cls: cls.__name__)
def test_truncated_json_ends_in_a_value_or_stereoqa_error(cls):
    text = json.dumps(_as_json(_SAMPLES[cls]), indent=2).encode()
    for cut in range(len(text) + 1):
        _with_file(text[:cut], _decode_all)


def test_truncated_pgm_ends_in_a_value_or_stereoqa_error(tmp_path):
    save_frame_pgm(np.random.default_rng(0).uniform(0, 1, (5, 7)), str(tmp_path / "m.pgm"))
    sixteen = b"P5\n# a comment\n7 5\n65535\n" + bytes(range(70))
    for payload in ((tmp_path / "m.pgm").read_bytes(), sixteen):
        for cut in range(len(payload) + 1):
            _with_file(payload[:cut], _read_pgm)


@pytest.mark.parametrize("payload", [
    b"P5\n" + b"9" * 5000 + b" 1\n255\n\0", b"P5\n1 1\n" + b"9" * 5000 + b"\n\0\0",
    b"P5\n2 1\n100\n\x64\x65", b"P5\n1 1\n300\n\x01\x2d",
], ids=["huge-width", "huge-maxval", "8-bit-sample-above-maxval",
        "16-bit-sample-above-maxval"])
def test_read_pgm_rejects_bad_numbers(tmp_path, payload):
    path = tmp_path / "h.pgm"
    path.write_bytes(payload)
    with pytest.raises(IoError):
        read_pgm(str(path))


_JSON_LEAVES = (st.none() | st.booleans() | st.integers(-2**70, 2**70)
                | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4))
_JSON_VALUES = st.recursive(_JSON_LEAVES, lambda inner: st.lists(inner, max_size=6)
                            | st.dictionaries(st.text(max_size=4), inner, max_size=3),
                            max_leaves=16)
_NUMBERS = st.integers(-2, 8) | st.integers(-2**70, 2**70) | st.floats(
    allow_nan=False, allow_infinity=False)
# values of each field type, so that typed values reach every __post_init__
_TYPED = {
    "int": st.integers(-2, 8) | st.integers(-2**70, 2**70),
    "float": _NUMBERS,
    "str": st.text(max_size=4) | st.sampled_from(
        ["awgn", "gaussian_blur", "intensity_shift", "block_quantize", "gray8",
         "yuv420p8", "both_views", "right_only", "neutral", "luminance"]),
    "dict": st.dictionaries(st.sampled_from(["variance", "size", "sigma", "delta", "step"])
                            | st.text(max_size=4), _NUMBERS | _JSON_VALUES, max_size=3),
    "tuple": st.lists(_NUMBERS | st.lists(_NUMBERS, max_size=3), max_size=6),
    "None": st.none(),
}


_FIELDS = [(cls, f.name) for cls in _SAMPLES for f in dataclasses.fields(cls)]


@settings(max_examples=600, deadline=None)
@given(data=st.data())
def test_random_fields_end_in_a_value_or_stereoqa_error(data):
    """A valid object with one field holding a random value, mostly of the
    field's type, ends in a value or a StereoQaError, and so does the object
    without that field."""
    cls, name = data.draw(st.sampled_from(_FIELDS))
    annotation = {f.name: f.type for f in dataclasses.fields(cls)}[name]
    typed = st.one_of(*(_TYPED[a] for a in annotation.split(" | ")))
    obj = _as_json(_SAMPLES[cls])
    obj[name] = data.draw(st.one_of(typed, typed, typed, _JSON_VALUES))
    for payload in (obj, {k: v for k, v in obj.items() if k != name}):
        _with_file(json.dumps(payload).encode(), lambda path: _decode_all(path, [cls]))
