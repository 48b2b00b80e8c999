"""Subjective score processing and metric performance statistics."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

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
from .media import StereoSequence, write_json


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
        """The table of a UTF-8 CSV file, with or without a byte order mark; bytes
        that are not UTF-8, or a row the csv module refuses, raise MalformedCsv."""
        try:
            with open(path, "rb") as fh:
                text = fh.read().decode("utf-8-sig")
        except UnicodeDecodeError as exc:  # exc.object: the bytes after the mark
            line = exc.object.count(b"\n", 0, exc.start) + 1
            raise MalformedCsv(f"{path}: line {line}: not UTF-8 text ({exc.reason})") from exc
        ratings = {}
        reader = csv.DictReader(io.StringIO(text, newline=""))
        try:
            missing = {"item_id", "subject_id", "score"} - set(reader.fieldnames or ())
            if missing:
                raise MalformedCsv(f"{path}: missing column(s) {', '.join(sorted(missing))}")
            for row in reader:
                key = (row["item_id"], row["subject_id"])
                if key in ratings:
                    raise MalformedCsv(f"{path}: line {reader.line_num}: item {key[0]!r} "
                                       f"already has a score from subject {key[1]!r}")
                try:
                    ratings[key] = float(row["score"])
                except (TypeError, ValueError) as exc:
                    raise MalformedCsv(f"{path}: line {reader.line_num}: score "
                                       f"{row['score']!r} is not a number") from exc
                if not np.isfinite(ratings[key]):
                    raise RangeError(f"{path}: line {reader.line_num}: score "
                                     f"{row['score']!r} is not finite")
        except csv.Error as exc:  # DictReader counts a line only once its row is read
            raise MalformedCsv(f"{path}: line {reader.reader.line_num}: {exc}") from exc
        items = sorted({item for item, _ in ratings})
        subjects = sorted({subj for _, subj in ratings})
        scores = np.full((len(items), len(subjects)), np.nan)
        ii = {v: i for i, v in enumerate(items)}
        ji = {v: j for j, v in enumerate(subjects)}
        for (item, subj), score in ratings.items():
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
        raise UndefinedCorrelation("need at least 3 points")
    cx, cy = x - x.mean(), y - y.mean()
    sx, sy = np.abs(cx).max(), np.abs(cy).max()
    if sx == 0 or sy == 0:
        raise UndefinedCorrelation("zero variance in a series")
    # unit-scale both series so that no square or product under- or overflows
    cx, cy = cx / sx, cy / sy
    denom = np.sqrt((cx * cx).sum()) * np.sqrt((cy * cy).sum())
    return float(np.clip((cx * cy).sum() / denom, -1.0, 1.0))


def _midranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks, ties sharing the mean rank of their group."""
    _, group, counts = np.unique(x, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - 0.5 * (counts - 1))[group]


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
    # a saturated fit overflows exp to inf, which maps to b1 exactly
    with np.errstate(over="ignore"):
        return b1 + (b2 - b1) / (1.0 + np.exp(-(x - b3) / b4))


def _logistic_cost(x, y):
    """The cost of a logistic fit: the sum of the squared residuals of
    ``_logistic(p, x)`` against ``y``, inf where p[3] is 0; it runs under the
    caller's ``np.errstate(over="ignore")``.  numpy adds fewer than 8 terms
    one after another, so for such a series each residual is formed from
    np.exp's values in Python floats, and summed, with numpy's roundings."""
    if x.size >= 8:
        def cost(p):
            if p[3] == 0:
                return np.inf
            return float(((_logistic(p, x) - y) ** 2).sum())
        return cost
    y = y.tolist()

    def cost(p):
        b1, b2, b3, b4 = p
        if b4 == 0:
            return np.inf
        total = 0.0
        for e, t in zip(np.exp(-(x - b3) / b4).tolist(), y):
            r = b1 + (b2 - b1) / (1.0 + e) - t
            total += r * r
        return total

    return cost


class _MaxFev(Exception):
    """The counted cost of `_nelder_mead` has spent its `maxfev` calls."""


def _nelder_mead(cost, x0, maxfev, xatol, fatol):
    """Minimise `cost` by Nelder & Mead's (1965) simplex descent.

    Takes exactly the steps of scipy 1.17.1's ``minimize(cost, x0,
    method="Nelder-Mead")`` with the options ``maxfev``, ``xatol`` and
    ``fatol`` and its defaults otherwise, on vertices held as tuples of
    Python floats: coefficients rho=1, chi=2, psi=sigma=0.5; the same initial
    simplex, centroid sum order, `np.argsort` order of tied values and NaN
    handling; a cost call past `maxfev` ends the step where it stands.
    `cost` gets each vertex as a tuple.  Returns (x, fun, nfev, success).
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    n = len(x0)
    x0 = tuple(float(v) for v in x0)
    sim = [x0] + [x0[:k] + ((1 + 0.05) * v if v != 0 else 0.00025,) + x0[k + 1:]
                  for k, v in enumerate(x0)]
    fsim = [np.inf] * (n + 1)
    nfev = 0

    def f(v):
        nonlocal nfev
        if nfev >= maxfev:
            raise _MaxFev
        nfev += 1
        return float(cost(v))

    def by_value():
        if len(set(fsim)) == len(fsim) and not any(math.isnan(g) for g in fsim):
            # distinct and ordered: every sort gives argsort's order
            order = sorted(range(n + 1), key=fsim.__getitem__)
        else:
            order = np.argsort(np.array(fsim))
        return [sim[i] for i in order], [fsim[i] for i in order]

    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    except _MaxFev:
        pass
    # scipy sorts twice here; an unstable argsort may reorder ties again
    sim, fsim = by_value()
    sim, fsim = by_value()
    while nfev < maxfev:
        best = sim[0]
        # all(), unlike max(), fails on a NaN distance as np.max does
        if (all(abs(a - b) <= xatol for v in sim[1:] for a, b in zip(v, best))
                and all(abs(fsim[0] - g) <= fatol for g in fsim[1:])):
            break
        try:
            # column sums in row order, as np.add.reduce(axis=0); not sum(),
            # which compensates its float sums from Python 3.12 on
            total = best
            for v in sim[1:-1]:
                total = [a + b for a, b in zip(total, v)]
            xbar = [a / n for a in total]
            worst = sim[-1]
            xr = tuple((1 + rho) * c - rho * w for c, w in zip(xbar, worst))
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = tuple((1 + rho * chi) * c - rho * chi * w for c, w in zip(xbar, worst))
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:
                    xc = tuple((1 + psi * rho) * c - psi * rho * w for c, w in zip(xbar, worst))
                    fxc = f(xc)
                    accept = fxc <= fxr
                else:
                    xc = tuple((1 - psi) * c + psi * w for c, w in zip(xbar, worst))
                    fxc = f(xc)
                    accept = fxc < fsim[-1]
                if accept:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    # a vertex moves before its cost call, so an abort leaves
                    # it with its old cost
                    for j in range(1, n + 1):
                        sim[j] = tuple(b + sigma * (a - b) for a, b in zip(sim[j], best))
                        fsim[j] = f(sim[j])
        except _MaxFev:
            pass
        sim, fsim = by_value()
    return sim[0], float(np.min(fsim)), nfev, nfev < maxfev


def logistic_fit(objective, mos, max_evals: int = 2000):
    """Fit the 4-parameter logistic MOS mapping by Nelder-Mead descent.

    The descent is `_nelder_mead`, whose steps, and so whose fits, match
    scipy's Nelder-Mead; it lives in the package so that no process pays
    for importing ``scipy.optimize``.  Returns (mapped series, params,
    flags).  A descent that stops at ``max_evals`` keeps its fitted mapping
    and is flagged ``fit_did_not_converge``.
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
    # a saturated fit overflows exp to inf, which maps to b1 exactly
    with np.errstate(over="ignore"):
        best, _, _, success = _nelder_mead(_logistic_cost(x, y), init, max_evals,
                                           xatol=1e-8, fatol=1e-10)
    params = tuple(best)
    return _logistic(params, x), params, [] if success else ["fit_did_not_converge"]


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
    """Spatial and temporal information of the left view, max over frames.

    One pass over the frames that keeps only the previous left luma, so a
    loaded sequence is read once and held one frame at a time."""
    si, ti, previous = [], [], None
    for sf in seq.frames:
        luma = sf.left.luma
        if previous is not None:
            ti.append(float(np.std(luma - previous)))
        previous = luma  # the frame before is freed before the gradients
        si.append(float(np.std(sobel_gradient(luma)["magnitude"])))
    return {"si": max(si), "ti": max(ti, default=0.0),
            "flags": [] if len(seq) > 1 else ["ti_undefined_single_frame"]}


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
        write_json(path, {"columns": list(_COLUMNS), "rows": records})
    else:
        raise ParamError(f"unknown report format {fmt!r}")
