import csv
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stereoqa.errors import (
    DimensionMismatch,
    EmptyReport,
    ParamError,
    RangeError,
    UndefinedCorrelation,
)
from stereoqa.stats import (
    PerfReport,
    SubjectiveTable,
    emit_report,
    logistic_fit,
    outlier_ratio,
    pearson_cc,
    performance,
    rmse,
    screen_and_mos,
    si_ti,
    spearman_cc,
)

from conftest import flat_seq, seq_from_lumas


def _table(scores, items=None, subjects=None):
    scores = np.asarray(scores, dtype=np.float64)
    items = items or [f"i{k}" for k in range(scores.shape[0])]
    subjects = subjects or [f"s{k}" for k in range(scores.shape[1])]
    return SubjectiveTable(items=items, subjects=subjects, scores=scores)


def test_table_validation():
    with pytest.raises(RangeError):
        _table([[120.0, 10.0], [10.0, 10.0]])
    with pytest.raises(DimensionMismatch):
        SubjectiveTable(items=["a"], subjects=["x", "y"], scores=np.zeros((2, 2)))


def test_identical_subjects_none_rejected():
    mos = screen_and_mos(_table(np.full((4, 5), 60.0)))
    assert mos.rejected_subjects == []
    assert np.allclose(mos.mos, 60.0)
    assert np.allclose(mos.std, 0.0)


def test_rogue_subject_rejected():
    # erratic rogue: alternates the scale extremes while 23 honest subjects
    # cluster near 50.  Both screening conditions fire (many extremes, two
    # sided), so the subject is dropped.
    rng = np.random.RandomState(0)
    scores = 50.0 + rng.uniform(-2, 2, size=(12, 24))
    scores[0::2, 23] = 100.0
    scores[1::2, 23] = 0.0
    mos = screen_and_mos(_table(scores))
    assert mos.rejected_subjects == ["s23"]
    assert np.all(mos.retained == 23)
    assert np.all(np.abs(mos.mos - 50.0) < 3.0)


def test_consistent_extreme_subject_is_kept():
    # a subject who always scores high is a different opinion, not noise:
    # the one-sidedness guard (|P-Q|/(P+Q) >= 0.3) keeps them
    rng = np.random.RandomState(1)
    scores = 50.0 + rng.uniform(-2, 2, size=(12, 24))
    scores[:, 23] = 100.0
    mos = screen_and_mos(_table(scores))
    assert mos.rejected_subjects == []


def test_two_subjects_skips_screening():
    scores = np.array([[10.0, 90.0], [20.0, 80.0]])
    mos = screen_and_mos(_table(scores))
    assert "screening_skipped" in mos.flags
    assert mos.mos[0] == 50.0


def test_pearson_hand_values():
    assert pearson_cc([1, 2, 3], [3, 5, 7]) == pytest.approx(1.0)
    assert pearson_cc([1, 2, 3], [-1, -2, -3]) == pytest.approx(-1.0)
    assert pearson_cc([1, 2, 3, 4, 5], [2, 1, 4, 3, 5]) == pytest.approx(0.8)


def test_pearson_degenerate():
    with pytest.raises(UndefinedCorrelation):
        pearson_cc([1, 1, 1], [1, 2, 3])
    with pytest.raises(ParamError):
        pearson_cc([1, 2], [1, 2])


def test_spearman_hand_values():
    assert spearman_cc([1, 2, 3], [10, 100, 1000]) == pytest.approx(1.0)
    assert spearman_cc([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)
    assert spearman_cc([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5)


def test_spearman_midranks_for_ties():
    # ties share the average rank; [1,1,2] -> ranks [1.5, 1.5, 3]
    got = spearman_cc([1, 1, 2], [1, 2, 3])
    cx = np.array([1.5, 1.5, 3.0])
    cy = np.array([1.0, 2.0, 3.0])
    expected = np.corrcoef(cx, cy)[0, 1]
    assert got == pytest.approx(expected)


def test_rmse_and_or_exact_match():
    x = np.array([10.0, 20.0, 30.0])
    assert rmse(x, x) == 0.0
    assert outlier_ratio(x, x, np.ones(3)) == 0.0


def test_or_single_outlier_granularity():
    mos = np.linspace(10, 90, 120)
    objective = mos.copy()
    objective[7] += 5.0
    std = np.ones(120)
    got = outlier_ratio(objective, mos, std)
    assert got == pytest.approx(1.0 / 120.0)
    assert f"{got:.4f}" == "0.0083"


def test_or_offset_all_outliers():
    mos = np.linspace(10, 90, 12)
    assert outlier_ratio(mos + 5.0, mos, np.ones(12)) == 1.0


def test_or_zero_std_fallback():
    mos = np.array([10.0, 20.0, 30.0, 40.0])
    objective = mos + np.array([0.1, -0.1, 0.1, -0.1])
    # band falls back to 2*rmse, so a mild uniform error is not an outlier
    assert outlier_ratio(objective, mos, np.zeros(4)) == 0.0


def test_rmse_triangle_sanity():
    rng = np.random.RandomState(3)
    x, y, z = rng.randn(3, 50)
    assert rmse(x, z) <= rmse(x, y) + rmse(y, z) + 1e-12


def test_logistic_recovery():
    x = np.linspace(0, 10, 40)
    y = 20.0 + 60.0 / (1.0 + np.exp(-(x - 5.0) / 1.5))
    mapped, params, flags = logistic_fit(x, y)
    assert flags == []
    assert rmse(mapped, y) <= 1e-3
    assert np.all(np.diff(mapped) >= -1e-9)


def test_logistic_constant_mos():
    x = np.linspace(0, 1, 10)
    mapped, params, flags = logistic_fit(x, np.full(10, 50.0))
    assert np.allclose(mapped, 50.0)
    assert flags


def test_performance_report_fields():
    x = np.linspace(0, 10, 20)
    y = 100.0 - 5.0 * x
    perf = performance(x, y, per_item_std=np.ones(20))
    assert perf.pcc == pytest.approx(-1.0)
    assert perf.scc == pytest.approx(-1.0)
    assert perf.n == 20
    assert 0.0 <= perf.outlier_ratio <= 1.0


def test_si_ti_static_sequence():
    out = si_ti(flat_seq(128.0, frames=3, size=16))
    assert out["si"] == 0.0
    assert out["ti"] == 0.0


def test_si_ti_single_frame_flagged():
    out = si_ti(flat_seq(128.0, frames=1, size=16))
    assert "ti_undefined_single_frame" in out["flags"]


def test_ti_half_split_difference():
    a = np.zeros((16, 16))
    b = np.zeros((16, 16))
    b[:8] = 255.0
    # the difference frame is half 0, half 255: std = 127.5
    out = si_ti(seq_from_lumas([a, b]))
    assert out["ti"] == pytest.approx(127.5)


def test_emit_report_csv_round_trip(tmp_path):
    perf = PerfReport(pcc=0.6454, scc=0.61, rmse=9.1, outlier_ratio=1 / 120,
                      n=120)
    path = str(tmp_path / "perf.csv")
    emit_report([("psnr_s", "none", "awgn", perf),
                 ("psnr_s", "baseline", "awgn", perf)], path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert rows[0]["pcc"] == "0.6454"
    assert rows[0]["or"] == "0.0083"


def test_emit_report_json_schema(tmp_path):
    perf = PerfReport(pcc=0.5, scc=0.5, rmse=1.0, outlier_ratio=0.0, n=10)
    path = str(tmp_path / "perf.json")
    emit_report([("ssim_s", "uniform", "blur", perf)], path, fmt="json")
    with open(path) as fh:
        data = json.load(fh)
    assert data["columns"][0] == "metric"
    assert data["rows"][0]["metric"] == "ssim_s"


def test_emit_report_empty():
    with pytest.raises(EmptyReport):
        emit_report([], "/tmp/unused.csv")


def test_table_csv_parsing(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("item_id,subject_id,score\n"
                    "a,s1,10\na,s2,20\nb,s1,30\nb,s2,40\n")
    table = SubjectiveTable.from_csv(str(path))
    assert table.items == ["a", "b"]
    assert table.scores[1, 1] == 40.0


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-100, 100), min_size=4, max_size=20),
       st.floats(0.1, 10.0), st.floats(-50, 50))
@example(xs=[0.0, 0.0, 0.0, 1.147e-84], a=1.0, b=0.0)  # product of sums underflows
@example(xs=[0.0, 0.0, 0.0, 9.495e-17], a=1.0, b=1.0)  # a * x + b rounds to a constant
@example(xs=[0.0, 0.0, 0.0, 2.883e-161], a=2.0, b=0.0)  # products of sums are subnormal
def test_pearson_affine_invariance(xs, a, b):
    x = np.asarray(xs)
    y = np.sin(x) + 0.1 * x
    if x.std() == 0 or y.std() == 0:
        return
    # a * x + b is exact to about 1e-16 of its magnitude (and to the subnormal
    # step near 0); below 1e-6 of that the spread of x is rounded away and
    # there is no invariance to check
    if np.ptp(x) < 1e-6 * (np.abs(x).max() + abs(b) / a) + 1e-300:
        return
    base = pearson_cc(x, y)
    assert pearson_cc(a * x + b, y) == pytest.approx(base, abs=1e-9)
    assert pearson_cc(-x, y) == pytest.approx(-base, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-100, 100), min_size=4, max_size=20, unique=True))
def test_spearman_monotone_invariance(xs):
    x = np.asarray(xs)
    transformed = np.exp(x / 100.0)
    if np.unique(transformed).size != x.size:
        return  # the transform collapsed values at float precision
    y = x ** 3 / 1e4 + x
    base = spearman_cc(x, y)
    assert spearman_cc(transformed, y) == pytest.approx(base, abs=1e-9)
