"""Exception types shared across the toolkit."""

import contextlib

import numpy as np


class StereoQaError(Exception):
    """Base class for every error raised by this package."""


class IoError(StereoQaError):
    """A required file is missing or unreadable."""


class DescriptorMismatch(StereoQaError):
    """Declared geometry/frame count disagrees with the file on disk."""


class EmptySequence(StereoQaError):
    """A sequence with zero frames was requested."""


class MapShapeError(StereoQaError):
    """A loaded map does not have the expected dimensions."""


class MapSeriesGap(StereoQaError):
    """A numbered map series has a missing index or wrong count."""


class MalformedJson(StereoQaError):
    """A JSON input is not valid JSON, or its fields are missing or unknown."""


class MalformedCsv(StereoQaError):
    """A CSV input lacks a required column or holds a malformed row."""


class RangeError(StereoQaError):
    """A value is not finite or lies outside its documented range."""


class KernelTooLarge(StereoQaError):
    """A window is wider than the frame it runs over."""


class ParamError(StereoQaError):
    """A configuration parameter is out of its valid range."""


class TooSmall(StereoQaError):
    """The input is too small for the requested operation."""


class DimensionMismatch(StereoQaError):
    """Two arrays that must be aligned have different shapes."""


class SequenceLengthError(StereoQaError):
    """Two sequences that must be aligned have different lengths."""


class DegenerateSaliency(StereoQaError):
    """Saliency weights sum to zero."""


class NumericError(StereoQaError):
    """Non-finite values where finite values are required."""


@contextlib.contextmanager
def numeric_errors(what: str):
    """Run the block with numpy's overflow, division-by-zero and invalid
    operation raised as NumericError naming ``what``, not left as a warning
    and an infinity or NaN; a config constant far outside its working range
    ends there.  Underflow stays quiet."""
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        try:
            yield
        except FloatingPointError as exc:
            raise NumericError(f"{what}: {exc}") from exc


@contextlib.contextmanager
def prefixed_errors(where: str | None):
    """Run the block with any StereoQaError it raises re-raised with the same
    class and the prefix ``where: `` naming the input in use; None adds none."""
    try:
        yield
    except StereoQaError as exc:
        if where is None:
            raise
        raise type(exc)(f"{where}: {exc}") from exc


class DisparityRequired(StereoQaError):
    """The metric needs disparity maps and none were supplied."""


class NeedsTemporalContext(StereoQaError):
    """The metric needs more frames than the sequence provides."""


class NoEdges(StereoQaError):
    """No edge pixels found; an edge-based score is undefined."""


class ScreeningDegenerate(StereoQaError):
    """Subject screening rejected everyone."""


class UndefinedCorrelation(StereoQaError):
    """Correlation is undefined (zero variance or too few points)."""


class EmptyReport(StereoQaError):
    """No rows to emit."""
