"""Subjective score processing and metric performance statistics."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np
import scipy.optimize

from .errors import (
    DimensionMismatch,
    EmptyReport,
    MalformedCsv,
    ParamError,
    RangeError,
    ScreeningDegenerate,
    UndefinedCorrelation,
)
from .kernels import sobel_gradient
from .media import StereoSequence


@dataclass
class SubjectiveTable:
    """Item x subject score matrix on a 0..100 scale; NaN marks missing."""

    items: list
    subjects: list
    scores: np.ndarray

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if self.scores.shape != (len(self.items), len(self.subjects)):
            raise DimensionMismatch("score matrix does not match item/subject lists")
        finite = self.scores[np.isfinite(self.scores)]
        if finite.size and (finite.min() < 0 or finite.max() > 100):
            raise RangeError("scores must lie in [0, 100]")

    @classmethod
    def from_csv(cls, path) -> "SubjectiveTable":
        rows = []
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            missing = {"item_id", "subject_id", "score"} - set(reader.fieldnames or ())
            if missing:
                raise MalformedCsv(f"{path}: missing column(s) {', '.join(sorted(missing))}")
            for row in reader:
                try:
                    rows.append((row["item_id"], row["subject_id"], float(row["score"])))
                except (TypeError, ValueError) as exc:
                    raise MalformedCsv(f"{path}: line {reader.line_num}: score "
                                       f"{row['score']!r} is not a number") from exc
        items = sorted({r[0] for r in rows})
        subjects = sorted({r[1] for r in rows})
        scores = np.full((len(items), len(subjects)), np.nan)
        ii = {v: i for i, v in enumerate(items)}
        ji = {v: j for j, v in enumerate(subjects)}
        for item, subj, score in rows:
            scores[ii[item], ji[subj]] = score
        return cls(items=items, subjects=subjects, scores=scores)


@dataclass
class MosTable:
    items: list
    mos: np.ndarray
    std: np.ndarray
    retained: np.ndarray
    rejected_subjects: list = field(default_factory=list)
    flags: list = field(default_factory=list)


@dataclass
class PerfReport:
    pcc: float
    scc: float
    rmse: float
    outlier_ratio: float
    n: int
    logistic_params: tuple | None = None
    flags: list = field(default_factory=list)


def _kurtosis(x: np.ndarray) -> float:
    mu = x.mean()
    m2 = ((x - mu) ** 2).mean()
    if m2 <= 0:
        return 3.0  # flat item behaves like the normal reference
    m4 = ((x - mu) ** 4).mean()
    return float(m4 / m2**2)


def screen_and_mos(table: SubjectiveTable) -> MosTable:
    """Subject screening in the BT.500 style, then per-item MOS over the
    retained subjects.

    Per item: scores beyond mean +/- 2 std (normal-ish kurtosis) or
    mean +/- sqrt(20) std (otherwise) count against the subject; a subject
    with many one-sided extremes is dropped.  With fewer than three subjects
    screening is skipped.
    """
    n_items, n_subj = table.scores.shape
    if n_items < 2 or n_subj < 2:
        raise ParamError("need at least 2 items and 2 subjects")
    flags = []
    rejected = []
    if n_subj >= 3:
        p = np.zeros(n_subj)
        q = np.zeros(n_subj)
        counted = np.zeros(n_subj)
        for i in range(n_items):
            row = table.scores[i]
            ok = np.isfinite(row)
            vals = row[ok]
            if vals.size < 2:
                continue
            mu, sigma = vals.mean(), vals.std()
            beta2 = _kurtosis(vals)
            k = 2.0 if 2.0 <= beta2 <= 4.0 else np.sqrt(20.0)
            hi, lo = mu + k * sigma, mu - k * sigma
            p[ok] += row[ok] > hi
            q[ok] += row[ok] < lo
            counted[ok] += 1
        with np.errstate(invalid="ignore", divide="ignore"):
            frac = np.where(counted > 0, (p + q) / np.maximum(counted, 1), 0.0)
            balance = np.where(p + q > 0, np.abs(p - q) / np.maximum(p + q, 1), 1.0)
        drop = (frac > 0.05) & (balance < 0.3)
        rejected = [table.subjects[j] for j in np.nonzero(drop)[0]]
        keep = ~drop
        if not keep.any():
            flags.append("screening_degenerate")
            keep = np.ones(n_subj, bool)
            rejected = []
    else:
        keep = np.ones(n_subj, bool)
        flags.append("screening_skipped")

    mos = np.empty(n_items)
    std = np.empty(n_items)
    retained = np.empty(n_items, dtype=int)
    for i in range(n_items):
        row = table.scores[i, keep]
        vals = row[np.isfinite(row)]
        if vals.size == 0:
            raise ScreeningDegenerate(f"no retained scores for item {table.items[i]}")
        mos[i] = vals.mean()
        std[i] = vals.std()
        retained[i] = vals.size
    return MosTable(items=list(table.items), mos=mos, std=std, retained=retained,
                    rejected_subjects=rejected, flags=flags)


def _aligned(x, y):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise DimensionMismatch("series must be aligned 1-d arrays")
    return x, y


def pearson_cc(x, y) -> float:
    x, y = _aligned(x, y)
    if x.size < 3:
        raise ParamError("need at least 3 points")
    cx, cy = x - x.mean(), y - y.mean()
    sx, sy = np.abs(cx).max(), np.abs(cy).max()
    if sx == 0 or sy == 0:
        raise UndefinedCorrelation("zero variance in a series")
    # unit-scale both series so that no square or product under- or overflows
    cx, cy = cx / sx, cy / sy
    denom = np.sqrt((cx * cx).sum()) * np.sqrt((cy * cy).sum())
    return float(np.clip((cx * cy).sum() / denom, -1.0, 1.0))


def _midranks(x: np.ndarray) -> np.ndarray:
    order = np.argsort(x, kind="stable")
    ranks = np.empty(x.size, dtype=np.float64)
    sx = x[order]
    i = 0
    while i < x.size:
        j = i
        while j + 1 < x.size and sx[j + 1] == sx[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def spearman_cc(x, y) -> float:
    x, y = _aligned(x, y)
    return pearson_cc(_midranks(x), _midranks(y))


def rmse(objective, mos) -> float:
    x, y = _aligned(objective, mos)
    return float(np.sqrt(((x - y) ** 2).mean()))


def outlier_ratio(objective, mos, per_item_std) -> float:
    """Fraction of items falling outside the 2-std confidence band.

    Items whose subject std is 0 use 2*RMSE of the whole series as the band
    so a degenerate item cannot force an outlier by itself.
    """
    x, y = _aligned(objective, mos)
    std = np.asarray(per_item_std, dtype=np.float64)
    if std.shape != x.shape:
        raise DimensionMismatch("per-item std must align with the series")
    fallback = 2.0 * rmse(x, y)
    band = np.where(std > 0, 2.0 * std, fallback)
    return float(np.mean(np.abs(x - y) > band))


def _logistic(params, x):
    b1, b2, b3, b4 = params
    return b1 + (b2 - b1) / (1.0 + np.exp(-(x - b3) / b4))


def logistic_fit(objective, mos, max_evals: int = 2000):
    """Fit the 4-parameter logistic MOS mapping by Nelder-Mead descent.

    Returns (mapped series, params, flags).  Non-convergence falls back to
    the raw series with a flag instead of failing the evaluation.
    """
    x, y = _aligned(objective, mos)
    if y.std() <= 0:
        return y.copy(), None, ["fit_degenerate_constant_mos"]
    span = x.max() - x.min()
    if span <= 0:
        return np.full_like(y, y.mean()), None, ["fit_degenerate_constant_objective"]
    slope_sign = 1.0 if y[np.argmax(x)] >= y[np.argmin(x)] else -1.0
    init = np.array([y.min(), y.max(), float(np.median(x)),
                     slope_sign * span / 4.0])

    def cost(p):
        if p[3] == 0:
            return np.inf
        return float(((_logistic(p, x) - y) ** 2).sum())

    res = scipy.optimize.minimize(cost, init, method="Nelder-Mead",
                                  options={"maxfev": max_evals, "xatol": 1e-8,
                                           "fatol": 1e-10})
    if not res.success and res.fun > cost(init):
        return x.copy(), None, ["fit_did_not_converge"]
    params = tuple(float(v) for v in res.x)
    return _logistic(res.x, x), params, []


def performance(objective, mos, per_item_std=None, use_logistic: bool = False) -> PerfReport:
    x, y = _aligned(objective, mos)
    flags = []
    params = None
    mapped = x
    if use_logistic:
        mapped, params, flags = logistic_fit(x, y)
    if per_item_std is None:
        per_item_std = np.zeros_like(y)
    return PerfReport(
        pcc=pearson_cc(mapped, y),
        scc=spearman_cc(x, y),
        rmse=rmse(mapped, y),
        outlier_ratio=outlier_ratio(mapped, y, per_item_std),
        n=int(x.size),
        logistic_params=params,
        flags=flags,
    )


def si_ti(seq: StereoSequence) -> dict:
    """Spatial and temporal information of the left view, max over frames."""
    flags = []
    si = 0.0
    for sf in seq.frames:
        si = max(si, float(np.std(sobel_gradient(sf.left.luma)["magnitude"])))
    if len(seq) < 2:
        ti = 0.0
        flags.append("ti_undefined_single_frame")
    else:
        ti = 0.0
        for a, b in zip(seq.frames[:-1], seq.frames[1:]):
            ti = max(ti, float(np.std(b.left.luma - a.left.luma)))
    return {"si": si, "ti": ti, "flags": flags}


_COLUMNS = ("metric", "saliency_mode", "distortion", "pcc", "scc", "rmse", "or", "n")


def emit_report(rows, path, fmt: str = "csv") -> None:
    """Write metric/condition performance rows as CSV or JSON.

    Each row is (metric, saliency_mode, distortion, PerfReport).  Numbers use
    fixed 4-decimal formatting so tables diff cleanly.
    """
    rows = list(rows)
    if not rows:
        raise EmptyReport("no performance rows to write")
    records = []
    for metric, saliency_mode, distortion, perf in rows:
        records.append({
            "metric": metric,
            "saliency_mode": saliency_mode,
            "distortion": distortion,
            "pcc": f"{perf.pcc:.4f}",
            "scc": f"{perf.scc:.4f}",
            "rmse": f"{perf.rmse:.4f}",
            "or": f"{perf.outlier_ratio:.4f}",
            "n": perf.n,
        })
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=_COLUMNS)
            writer.writeheader()
            writer.writerows(records)
    elif fmt == "json":
        with open(path, "w") as fh:
            json.dump({"columns": list(_COLUMNS), "rows": records}, fh, indent=2)
            fh.write("\n")
    else:
        raise ParamError(f"unknown report format {fmt!r}")
