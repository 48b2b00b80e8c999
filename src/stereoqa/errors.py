"""Exception types shared across the toolkit."""


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
    """A sample value lies outside the documented range."""


class KernelTooLarge(StereoQaError):
    """Convolution kernel exceeds the image size."""


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


class PyramidMismatch(StereoQaError):
    """Requested pyramid dimensions are not a halving chain of the input."""


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
