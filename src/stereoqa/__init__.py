"""Saliency-weighted quality assessment for stereoscopic video."""

__version__ = "0.1.0"

from .disparity import (
    DisparityConfig,
    DisparityMap,
    disparity_to_depth,
    estimate_disparity,
    estimate_disparity_series,
)
from .distort import DistortionSpec, apply, apply_all
from .fr import FR_METRICS, FrMetricConfig, cyclopean_fuse
from .media import (
    Frame,
    SequenceDescriptor,
    StereoFrame,
    StereoSequence,
    load_sequence,
    save_sequence,
)
from .nr import NR_METRICS, NrMetricConfig
from .report import MetricReport
from .rng import SeededRng
from .saliency import (
    SaliencyMap,
    VamConfig,
    baseline_vam,
    normalize_map,
    uniform_series,
    weighted_spatial_mean,
)
from .stats import (
    MosTable,
    PerfReport,
    SubjectiveTable,
    emit_report,
    outlier_ratio,
    pearson_cc,
    performance,
    rmse,
    screen_and_mos,
    si_ti,
    spearman_cc,
)

__all__ = [name for name in dir() if not name.startswith("_")]
