"""Per-metric score reports with orientation and a config fingerprint."""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .media import write_json


def config_fingerprint(cfg) -> str:
    """Short stable hash of the effective metric constants."""

    def default(obj):
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        if isinstance(obj, (np.floating, np.integer)):
            return obj.item()
        raise TypeError(type(obj).__name__)

    payload = json.dumps(dataclasses.asdict(cfg), sort_keys=True, default=default)
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


@dataclass
class MetricReport:
    metric: str  # fields in the key order of the JSON that save_json writes
    score: float
    frame_scores: list[float]
    orientation: str  # higher_better | lower_better | composite
    saliency_mode: str
    config_fingerprint: str
    flags: list[str] = dataclasses.field(default_factory=list)
    first_frame: int = 0  # the frame that frame_scores[0] scores; not in the JSON

    def save_json(self, path: str) -> None:
        write_json(path, {k: v for k, v in dataclasses.asdict(self).items() if k != "first_frame"})

    def save_frame_csv(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("frame,score\n")
            for i, s in enumerate(self.frame_scores, self.first_frame):
                fh.write(f"{i},{s!r}\n")


def make_report(metric: str, frame_scores, orientation: str, saliency_mode: str,
                cfg, flags=None, first_frame: int = 0) -> MetricReport:
    frame_scores = [float(s) for s in frame_scores]
    if not np.all(np.isfinite(frame_scores)):
        raise NumericError(f"{metric}: non-finite frame score")
    with np.errstate(over="ignore"):
        score = np.mean(frame_scores)
    if np.isinf(score):  # the sum overflowed: divide exactly by 2**k >= n first
        scale = 2.0 ** np.ceil(np.log2(len(frame_scores)))
        score = np.mean(np.divide(frame_scores, scale)) * scale
    return MetricReport(
        metric=metric,
        frame_scores=frame_scores,
        score=float(score),
        orientation=orientation,
        saliency_mode=saliency_mode,
        config_fingerprint=config_fingerprint(cfg),
        flags=list(flags or []),
        first_frame=first_frame,
    )
