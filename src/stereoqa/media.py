"""Raw planar video and PGM map I/O.

Every checked 2-D array, a frame plane or a map's values, is stored by one
gate (``_stored``): real numbers, 2-D and in range, read-only once built, a
writable input copied.  A ``Frame`` has luma and both chroma planes or
neither, each in [0, 255]; a loaded frame holds its planes as the 8-bit
samples of the stream, and ``Frame.luma``/``chroma_u``/``chroma_v`` read them
as float64.  ``StereoFrame``, ``StereoSequence`` and the maps are frozen, so
no plane or checked value can be reassigned.  A loaded sequence reads each
frame from its streams when that frame is asked for, and holds only the
last frame it read; ``save_sequence`` writes one frame at a time.
Grayscale maps (saliency, disparity) travel as PGM series scaled to [0, 1];
``iter_map_series`` reads them, and ``save_map_series`` writes them, one at
a time too.  All formats are uncompressed so loading is bit-exact and
needs no external decoders.
"""

from __future__ import annotations

import collections.abc
import contextlib
import dataclasses
import json
import numbers
import os
import re
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    DescriptorMismatch,
    DimensionMismatch,
    EmptySequence,
    IoError,
    MalformedJson,
    MapSeriesGap,
    MapShapeError,
    NumericError,
    ParamError,
    RangeError,
    SequenceLengthError,
    prefixed_errors,
)

PIXEL_FORMATS = ("yuv420p8", "yuv444p8", "gray8")


def _finite(text: str, kind=float):
    if not abs(value := kind(text)) <= sys.float_info.max:  # NaN fails too
        raise ValueError(f"{text[:24]} is not a finite number")
    return value


def read_json(path: str):
    """Parsed JSON file; a missing file is IoError, bad JSON or a number
    outside the float range (NaN and Infinity too) MalformedJson."""
    try:
        with open(path) as fh:
            return json.load(fh, parse_float=_finite, parse_constant=_finite,
                             parse_int=lambda text: _finite(text, int))
    except FileNotFoundError as exc:
        raise IoError(f"file not found: {path}") from exc
    except (ValueError, RecursionError) as exc:
        raise MalformedJson(f"{path}: not valid JSON ({exc})") from exc


def write_json(path: str, value) -> None:
    """Write ``value`` to ``path`` as strict JSON, indented by 2, plus one newline; a
    NaN or infinity raises NumericError, naming ``path``, before the file is opened."""
    try:
        text = json.dumps(value, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NumericError(f"{path}: {exc}") from exc
    with open(path, "w") as fh:
        fh.write(text + "\n")


# the JSON values that fill a dataclass field, by its annotation
_JSON_TYPES = {"int": int, "float": (int, float), "str": str, "dict": dict,
               "tuple": list, "None": type(None)}


def _fits(value, annotation: str) -> bool:
    """Whether a JSON value fills a field annotated ``annotation`` ("float",
    "tuple | None", ...); a bool is no number, and a tuple is an array of
    numbers or of arrays of numbers."""
    kinds = tuple(_JSON_TYPES[a] for a in annotation.split(" | "))
    if isinstance(value, bool) or not isinstance(value, kinds):
        return False
    return not isinstance(value, list) or all(
        _fits(v, "float") or isinstance(v, list) and all(_fits(u, "float") for u in v)
        for v in value)


def decode(cls, data, where: str):
    """The dataclass ``cls`` built from the JSON value ``data``, arrays as
    tuples.  MalformedJson, naming ``where``, unless ``data`` is an object
    that holds every field without a default, no other key, and values that
    fit their fields' annotated types (``_fits``).  An error the dataclass
    raises on its values keeps its class and gains the ``where`` prefix."""
    if not isinstance(data, dict):
        raise MalformedJson(f"{where}: expected a JSON object, not {data!r:.40}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    for name, f in fields.items():
        if name not in data and f.default is f.default_factory is dataclasses.MISSING:
            raise MalformedJson(f"{where}: missing field {name!r}")
    for name, value in data.items():
        if name not in fields:
            raise MalformedJson(f"{where}: unknown field {name!r}")
        if not _fits(value, fields[name].type):
            raise MalformedJson(f"{where}: {name} must be {fields[name].type}, not {value!r:.40}")
    with prefixed_errors(where):
        return cls(**{name: tuple(tuple(v) if isinstance(v, list) else v for v in value)
                      if isinstance(value, list) else value for name, value in data.items()})


def _check_numbers(name: str, value, shape) -> None:
    """ParamError unless ``value`` is an array of numbers of ``shape``."""
    try:
        if np.asarray(value, dtype=np.float64).shape == shape:
            return
    except (TypeError, ValueError):
        pass
    raise ParamError(f"{name} must be numbers of shape {shape}")


def _check_int(name: str, value, minimum: int) -> None:
    """ParamError unless ``value`` is an integer, not a bool, >= ``minimum``."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < minimum:
        raise ParamError(f"{name} must be an integer >= {minimum}, got {value!r}")


def _check_real_fields(config) -> None:
    """ParamError, naming the field, unless each field of the dataclass
    ``config`` annotated ``float`` holds a real number (a numpy one too) that
    is not a bool, and each one annotated ``float | None`` such a number or None."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if f.type == "float" or f.type == "float | None" and value is not None:
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise ParamError(f"{f.name} must be a real number, not {value!r:.40}")


def _check_range(name: str, a: np.ndarray, lo: float = -np.inf, hi: float = np.inf) -> None:
    """RangeError, naming ``name``, unless ``a`` has values and every one is
    finite and in [lo, hi]; one min and one max decide, and a NaN fails both."""
    if not (a.size and max(lo, -sys.float_info.max) <= a.min()
            and a.max() <= min(hi, sys.float_info.max)):
        raise RangeError(f"{name} needs finite values in [{lo:g}, {hi:g}]")


_PLANE_NAMES = ("luma", "chroma_u", "chroma_v")


def _stored(name: str, value, lo=-np.inf, hi=np.inf, keep_uint8=False) -> np.ndarray:
    """``value``, a frame plane or a map's values, as stored: read-only float64,
    or uint8 if it is and ``keep_uint8``; a writable input copied, since its caller
    may change it, a read-only one kept.  RangeError, naming ``name``, unless it is
    real numbers, all finite and in [lo, hi]; DimensionMismatch unless it is 2-D."""
    a = np.asarray(value)
    if a.dtype.kind not in "biuf":  # no str, complex or object array
        raise RangeError(f"{name} must hold real numbers, not {a.dtype}")
    if a.ndim != 2:
        raise DimensionMismatch(f"{name} must be a 2-D array, not {a.ndim}-D")
    dtype = np.uint8 if keep_uint8 and a.dtype == np.uint8 else np.float64
    a = a.astype(dtype, copy=a.flags.writeable)
    a.flags.writeable = False
    _check_range(name, a, lo, hi)
    return a


def _float64(plane):
    """A stored plane as a read-only float64 array: a float64 plane itself, a
    uint8 one converted afresh."""
    if plane is None or plane.dtype == np.float64:
        return plane
    plane = plane.astype(np.float64)
    plane.flags.writeable = False
    return plane


class Frame:
    """Single-view frame: luma always, 8-bit-range chroma planes both or neither.

    The constructor stores and checks each plane once (``_stored``: 2-D, every
    sample in [0, 255]), then checks that luma is at least 8x8 and both chroma
    planes share one shape.  ``planes`` holds them as stored, uint8 or float64,
    without a copy; ``luma``, ``chroma_u`` and ``chroma_v`` read them as
    float64.  Every plane is read-only, and none can be reassigned."""

    __slots__ = ("_planes",)

    def __init__(self, luma, chroma_u=None, chroma_v=None):
        if (chroma_u is None) != (chroma_v is None):
            missing = "chroma_u" if chroma_u is None else "chroma_v"
            raise DimensionMismatch(f"{missing} missing: a frame has both chroma planes or neither")
        planes = (luma,) if chroma_u is None else (luma, chroma_u, chroma_v)
        planes = [_stored(n, p, 0.0, 255.0, keep_uint8=True) for n, p in zip(_PLANE_NAMES, planes)]
        h, w = planes[0].shape
        if h < 8 or w < 8:
            raise DimensionMismatch(f"frame too small: {w}x{h} (minimum 8x8)")
        if planes[1:] and planes[1].shape != planes[2].shape:
            raise DimensionMismatch(f"chroma_u {planes[1].shape} and chroma_v {planes[2].shape} "
                                    "differ in shape")
        self._planes = (*planes, None, None)[:3]

    planes = property(lambda self: self._planes, doc="(luma, chroma_u, chroma_v) as stored.")
    luma = property(lambda self: _float64(self._planes[0]))
    chroma_u = property(lambda self: _float64(self._planes[1]))
    chroma_v = property(lambda self: _float64(self._planes[2]))
    shape = property(lambda self: self._planes[0].shape)
    height = property(lambda self: self._planes[0].shape[0])
    width = property(lambda self: self._planes[0].shape[1])


@dataclass(frozen=True)
class StereoFrame:
    left: Frame
    right: Frame

    def __post_init__(self):
        if not (isinstance(self.left, Frame) and isinstance(self.right, Frame)):
            raise ParamError("a StereoFrame holds two Frames")
        if self.left.shape != self.right.shape:
            raise DimensionMismatch("left/right dimensions differ")


def _checked_fps(fps) -> float:
    """``fps`` as a float; RangeError unless it is a real number, not a bool,
    finite and > 0."""
    try:
        if (isinstance(fps, numbers.Real) and not isinstance(fps, bool)
                and 0 < float(fps) <= sys.float_info.max):  # NaN fails too
            return float(fps)
    except OverflowError:  # an int or Fraction beyond the float range
        pass
    raise RangeError(f"fps must be finite and > 0, got {fps!r}")


@dataclass(frozen=True)
class StereoSequence:
    """Stereo frames of one shape at ``fps``.  Built from StereoFrames, it
    holds them as a tuple, each checked; ``load_sequence`` and
    ``distort.apply`` build it from a ``_Frames``, which makes a frame when it
    is asked for."""

    frames: tuple[StereoFrame, ...]
    fps: float = 30.0

    def __post_init__(self):
        if isinstance(self.frames, _Frames):
            shape = self.frames.shape
        else:
            try:
                object.__setattr__(self, "frames", tuple(self.frames))
            except TypeError:  # not iterable
                raise ParamError("a StereoSequence holds StereoFrames") from None
            if not self.frames:
                raise EmptySequence("sequence has no frames")
            if not all(isinstance(fr, StereoFrame) for fr in self.frames):
                raise ParamError("a StereoSequence holds StereoFrames")
            shape = self.frames[0].left.shape
            if any(fr.left.shape != shape for fr in self.frames):
                raise DimensionMismatch("all frames must share dimensions")
        object.__setattr__(self, "fps", _checked_fps(self.fps))
        object.__setattr__(self, "_shape", shape)

    def __len__(self) -> int:
        return len(self.frames)

    height = property(lambda self: self._shape[0])
    width = property(lambda self: self._shape[1])


@dataclass(frozen=True)
class SequenceDescriptor:
    """Pointer to a pair of raw planar streams plus their geometry; width,
    height and frames are stored as int and fps as float, so its JSON reads back."""

    left: str
    right: str
    width: int
    height: int
    fps: float
    frames: int
    format: str = "gray8"

    def __post_init__(self):
        if self.format not in PIXEL_FORMATS:
            raise DescriptorMismatch(f"unknown pixel format {self.format!r}")
        for name in ("width", "height", "frames"):
            _check_int(name, getattr(self, name), 1)
            object.__setattr__(self, name, int(getattr(self, name)))
        object.__setattr__(self, "fps", _checked_fps(self.fps))

    def frame_bytes(self) -> int:
        return sum(h * w for h, w in _planes(self))

    @classmethod
    def from_json(cls, path: str) -> "SequenceDescriptor":
        """The descriptor at ``path``; stream paths are relative to its directory."""
        desc = decode(cls, read_json(path), path)
        base = os.path.dirname(os.path.abspath(path))
        return dataclasses.replace(desc, left=os.path.join(base, desc.left),
                                   right=os.path.join(base, desc.right))

    def to_json(self, path: str) -> None:
        """Write to ``path``, stream paths relative to its directory (as ``from_json``)."""
        base = os.path.dirname(os.path.abspath(path))
        write_json(path, dataclasses.asdict(self) | {
            view: os.path.relpath(getattr(self, view), base) for view in ("left", "right")})


def _planes(desc: SequenceDescriptor) -> list[tuple[int, int]]:
    """(height, width) of each plane of one frame, in file order: luma, then
    the u and v chroma planes of the yuv formats."""
    luma = (desc.height, desc.width)
    if desc.format == "gray8":
        return [luma]
    chroma = (desc.height // 2, desc.width // 2) if desc.format == "yuv420p8" else luma
    return [luma, chroma, chroma]


def _check_view(path: str, desc: SequenceDescriptor) -> None:
    if not os.path.exists(path):
        raise IoError(f"missing raw stream: {path}")
    size = os.path.getsize(path)
    expected = desc.frames * desc.frame_bytes()
    if size != expected:
        raise DescriptorMismatch(
            f"{path}: {size} bytes on disk, descriptor implies {expected}"
        )


def _read_frame(path: str, index: int, desc: SequenceDescriptor) -> Frame:
    """Frame ``index`` of a stream; its planes are read-only views of the
    frame's bytes."""
    step = desc.frame_bytes()
    with open(path, "rb") as fh:
        fh.seek(index * step)
        buf = fh.read(step)
    if len(buf) != step:
        raise DescriptorMismatch(f"{path}: frame {index} ends early; the stream changed "
                                 "on disk after it was loaded")
    planes, offset = [], 0
    for h, w in _planes(desc):
        planes.append(np.frombuffer(buf, np.uint8, h * w, offset).reshape(h, w))
        offset += h * w
    return Frame(*planes)


class _Frames(collections.abc.Sequence):
    """``n`` stereo frames of ``shape``, frame t made by ``make(t)`` when it
    is asked for.  The last frame made is kept and given again for its
    index, so the readers that walk the frames side by side (the metric
    driver, the VAM, the disparity estimate) share one read, or one
    distortion, of each frame."""

    def __init__(self, n: int, shape, make):
        self._n, self.shape, self._make = n, shape, make
        self._last = (None, None)  # (index, StereoFrame)

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[i] for i in range(*index.indices(len(self))))
        index = range(len(self))[index]  # IndexError as a tuple's
        if self._last[0] != index:
            self._last = None, None  # not held while the next one is made
            self._last = index, self._make(index)
        return self._last[1]


def load_sequence(desc: SequenceDescriptor) -> StereoSequence:
    """The stereo pair of raw planar streams described by ``desc``.  Both
    stream sizes are checked, and the first frame read, here; after that a
    frame is read from both streams when it is asked for (``_Frames``)."""
    for path in (desc.left, desc.right):
        _check_view(path, desc)
    frames = _Frames(desc.frames, (desc.height, desc.width),
                     lambda t: StereoFrame(_read_frame(desc.left, t, desc),
                                           _read_frame(desc.right, t, desc)))
    frames[0]  # checks the frame geometry (Frame's checks) once
    return StereoSequence(frames, fps=desc.fps)


def _samples8(plane: np.ndarray) -> np.ndarray:
    """The 8-bit samples stored for ``plane`` in streams and PGM maps:
    clipped to [0, 255] and rounded half up; a uint8 plane is its own samples."""
    if plane.dtype == np.uint8:
        return plane
    return np.floor(np.clip(plane, 0.0, 255.0) + 0.5).astype(np.uint8)


def _frame_planes(frame: Frame, desc: SequenceDescriptor) -> list[np.ndarray]:
    """The planes ``desc`` stores of ``frame``; missing chroma is a flat 128."""
    planes = []
    for plane, shape in zip(frame.planes, _planes(desc)):
        plane = np.full(shape, 128, np.uint8) if plane is None else plane
        if plane.shape != shape:
            raise DimensionMismatch(f"{desc.format} plane {plane.shape} does not match {shape}")
        planes.append(plane)
    return planes


def save_sequence(seq: StereoSequence, left_path: str, right_path: str,
                  format: str = "gray8") -> SequenceDescriptor:
    """Write both views as raw planar streams, one frame at a time, and
    return their descriptor; each frame's planes are checked before it is
    written.  The streams go to ``<target>.<view>.part`` files that replace
    the targets once the last frame is written; so ``seq`` may read the
    targets themselves, and a call that fails, or is stopped, removes the
    part files and leaves the targets as they were."""
    desc = SequenceDescriptor(left=left_path, right=right_path,
                              width=seq.width, height=seq.height, fps=seq.fps,
                              frames=len(seq), format=format)
    parts = [f"{left_path}.left.part", f"{right_path}.right.part"]
    with _undone_on_failure(parts):
        with open(parts[0], "wb") as left, open(parts[1], "wb") as right:
            for fr in seq.frames:
                planes = [_frame_planes(fr.left, desc), _frame_planes(fr.right, desc)]
                for fh, view in zip((left, right), planes):
                    fh.writelines(_samples8(plane).tobytes() for plane in view)
        for part, path in zip(parts, (left_path, right_path)):
            os.replace(part, path)
    return desc


_PGM_TOKEN = re.compile(rb"^\s*(?:#[^\n]*\n\s*)*(\S+)")


def _pgm_tokens(buf: bytes, n: int) -> tuple[list[bytes], int]:
    tokens, pos = [], 0
    for _ in range(n):
        m = _PGM_TOKEN.match(buf[pos:])
        if not m:
            raise IoError("truncated PGM header")
        tokens.append(m.group(1))
        pos += m.end(1)
    return tokens, pos


def read_pgm(path: str) -> np.ndarray:
    """Read a binary (P5) PGM, returning values scaled to [0, 1]."""
    if not os.path.exists(path):
        raise IoError(f"missing PGM: {path}")
    with open(path, "rb") as fh:
        buf = fh.read()
    tokens, pos = _pgm_tokens(buf, 4)
    if tokens[0] != b"P5":
        raise IoError(f"{path}: not a binary PGM (P5)")
    if not all(t.isdigit() and len(t) < 10 for t in tokens[1:]):
        raise IoError(f"{path}: PGM header fields must be decimal integers below 10**9")
    width, height, maxval = (int(t) for t in tokens[1:])
    if width < 1 or height < 1 or not 1 <= maxval <= 65535:
        raise IoError(f"{path}: PGM size {width}x{height} or maxval {maxval} out of range")
    pos += 1  # single whitespace after maxval
    dtype = np.dtype(np.uint8 if maxval < 256 else ">u2")
    if len(buf) - pos < width * height * dtype.itemsize:
        raise IoError(f"{path}: truncated PGM payload")
    data = np.frombuffer(buf, dtype, width * height, pos)
    if data.max() > maxval:
        raise IoError(f"{path}: PGM sample above maxval {maxval}")
    return data.reshape(height, width).astype(np.float64) / maxval


def save_frame_pgm(values: np.ndarray, path: str) -> None:
    """Write a [0, 1] map as an 8-bit binary PGM (round, ties up)."""
    values = _stored("map", values, 0.0, 1.0)
    h, w = values.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode())
        fh.write(_samples8(values * 255.0).tobytes())


def map_name(index: int) -> str:
    return f"{index:06d}.pgm"


def iter_map_series(dir_path: str, expected: dict):
    """An iterator over ``expected['count']`` maps named 000000.pgm... in a
    directory, each read, and its shape checked, when it is taken.  Every
    file is looked for here, before the first is read: the first one missing
    raises MapSeriesGap."""
    width, height, count = expected["width"], expected["height"], expected["count"]
    paths = [os.path.join(dir_path, map_name(i)) for i in range(count)]
    for i, path in enumerate(paths):
        if not os.path.exists(path):
            raise MapSeriesGap(f"missing map index {i} in {dir_path}")

    def read(path):
        m = read_pgm(path)
        if m.shape != (height, width):
            raise MapShapeError(
                f"{path}: {m.shape[1]}x{m.shape[0]}, expected {width}x{height}"
            )
        return m

    return map(read, paths)


@dataclass(frozen=True, eq=False)
class _Map:
    """Per-frame map; each subclass declares the ``_name`` and ``_low`` bound of its values.
    Maps compare by identity (``eq=False`` here and on each subclass): a
    generated ``==`` would compare the values arrays and raise."""

    values: np.ndarray
    _name, _low = "map", -np.inf

    def __post_init__(self):
        object.__setattr__(self, "values", _stored(self._name, self.values, self._low))

    shape = property(lambda self: self.values.shape)


def _maps(series, kind, n: int, shape, name: str, check=lambda t, m: None):
    """An iterator over the float64 values of a per-frame map series in frame
    order: ``n`` maps, each a ``kind`` of the frame ``shape`` that passes
    ``check(t, map)``.  Any iterable, a list too, is read one map at a time,
    each map checked as it comes and the count when the last frame's map is
    taken, and no map is kept once its values are taken."""
    maps, end = iter(series), object()

    def values(t, m):
        if m is end or t == n - 1 and next(maps, end) is not end:
            raise SequenceLengthError(f"{name} length does not match frames")
        if not isinstance(m, kind):
            raise ParamError(f"{name} must hold {kind.__name__}, not {type(m).__name__}")
        if m.shape != shape:
            raise DimensionMismatch(f"{name} map shape {m.shape} does not match frame {shape}")
        check(t, m)
        return m.values

    return (values(t, next(maps, end)) for t in range(n))


@contextlib.contextmanager
def _undone_on_failure(written: list, dir_path: str = "."):
    """Make ``dir_path`` and its missing parents, and run the block, which
    lists each file it writes in ``written``.  If the block fails, or the
    run is stopped, each file of ``written`` that exists is removed, then
    every directory made here, deepest first, and the error goes on."""
    made, path = [], os.path.normpath(dir_path)
    while path and not os.path.isdir(path):
        made.append(path)
        path = os.path.dirname(path)
    try:
        for path in reversed(made):
            os.mkdir(path)
        yield
    except BaseException:
        for path in written:
            if os.path.exists(path):
                os.remove(path)
        for path in made:
            with contextlib.suppress(OSError):  # not made, or not empty
                os.rmdir(path)
        raise


def save_map_series(maps, dir_path: str) -> list[str]:
    """Write maps as 000000.pgm... in ``dir_path``, made if it is missing,
    each as it is taken from ``maps``; returns the paths written.  If a map
    fails, or the run is stopped, every map written so far, and every
    directory this call made, is removed (``_undone_on_failure``): a series
    read from ``dir_path`` then misses its first map (MapSeriesGap), never
    mixes new maps with those of an earlier run."""
    paths = []
    with _undone_on_failure(paths, dir_path):
        for i, m in enumerate(maps):
            paths.append(os.path.join(dir_path, map_name(i)))
            save_frame_pgm(m, paths[-1])
    return paths
