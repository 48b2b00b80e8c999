import csv
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stereoqa
import stereoqa.stats as stats
from stereoqa.errors import (
    DimensionMismatch,
    EmptyReport,
    ParamError,
    RangeError,
    UndefinedCorrelation,
)
from stereoqa.media import load_sequence
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

from conftest import flat_seq, seq_from_lumas, write_yuv420


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


def test_logistic_saturated_fit_is_quiet():
    # the fit saturates into a step, so exp overflows; the result is the
    # one scipy's Nelder-Mead gave, and no RuntimeWarning is raised
    x = np.array([3.201140439070261e-06, 3.1827398624903897e-06, 4.7980524481828026e-06])
    y = np.array([48.757733333333334, 80.77706666666667, 31.40713333333333])
    mapped, params, flags = logistic_fit(x, y)
    assert mapped.tolist() == [48.75773333368166, 80.77706666682525, 31.407133333376485]
    assert params == (31.407133333376485, 272.5909605147757, 3.1619306193689874e-06,
                      -1.5332661720958284e-08)
    assert flags == []


def _logistic_series(rng, n, tied=False):
    """A random (objective, mos) series of n items."""
    if tied:
        x = rng.integers(0, 3, n) * 10.0 ** rng.uniform(-6, 2)
        x[:2] = [0.0, 1.0]
    else:
        x = rng.uniform(0, 1, n) * 10.0 ** rng.uniform(-6, 2)
    return x, rng.uniform(0, 100, n)


def _logistic_problem(rng, n, tied=False, cut=False):
    """(cost, x0, maxfev) of the descent that logistic_fit runs on a random
    series, captured from logistic_fit itself."""
    x, y = _logistic_series(rng, n, tied)
    calls = []
    real = stats._nelder_mead

    def spy(cost, x0, maxfev, xatol, fatol):
        calls.append((cost, np.array(x0), maxfev))
        return real(cost, x0, maxfev, xatol, fatol)

    stats._nelder_mead = spy
    try:
        logistic_fit(x, y, max_evals=int(rng.integers(5, 150)) if cut else 2000)
    finally:
        stats._nelder_mead = real
    (problem,) = calls
    return problem


def _inf_wall(rng):
    # a quadratic whose minimum lies beyond a wall of inf
    c = rng.uniform(-1, 1, 3)
    wall = c[0] - rng.uniform(0.1, 1.0)

    def cost(p):
        q = np.asarray(p)
        return np.inf if q[0] > wall else float(((q - c) ** 2).sum())
    return cost, rng.uniform(-2, 2, 3), 600


def _nan_region(rng):
    # NaN beyond q[0] = 0, where the starting simplex puts one vertex
    d = int(rng.integers(2, 5))
    c = rng.uniform(-1, 1, d - 1)

    def cost(p):
        q = np.asarray(p)
        return np.nan if q[0] > 0 else float(((q[1:] - c) ** 2).sum())
    x0 = np.concatenate([[0.0], rng.uniform(-1, 1, d - 1)])
    return cost, x0, 400


def _plateau(rng, cut=False):
    # piecewise constant: ties in every simplex, shrinks until xatol holds;
    # a small maxfev often ends the run in the middle of a shrink
    k = rng.uniform(0.5, 4)

    def cost(p):
        return float(np.floor(np.abs(np.asarray(p)).sum() * k))
    return cost, rng.uniform(-3, 3, 4), int(rng.integers(10, 100)) if cut else 800


def _quadratic(rng):
    # a convex quadratic; zero entries start the simplex with the 0.00025 step
    d = int(rng.integers(2, 6))
    a = rng.normal(size=(d, d))
    h = a @ a.T + d * np.eye(d)
    c = rng.uniform(-1, 1, d)
    x0 = rng.uniform(-2, 2, d) * (rng.uniform(size=d) > 0.3)
    x0[0] = -0.0

    def cost(p):
        e = np.asarray(p) - c
        return float(e @ h @ e)
    return cost, x0, 2000


_PROBLEMS = {
    "logistic_n3": lambda rng: _logistic_problem(rng, 3),
    "logistic_n3_cut": lambda rng: _logistic_problem(rng, 3, cut=True),
    "logistic_tied": lambda rng: _logistic_problem(rng, int(rng.integers(4, 12)), tied=True),
    "inf_wall": _inf_wall,
    "nan_region": _nan_region,
    "plateau": _plateau,
    "plateau_cut": lambda rng: _plateau(rng, cut=True),
    "quadratic": _quadratic,
}


@pytest.mark.parametrize("family", sorted(_PROBLEMS))
def test_nelder_mead_takes_scipys_steps(family):
    """_nelder_mead gives scipy's result bit for bit: x, fun, nfev, success."""
    for seed in range(16):
        cost, x0, maxfev = _PROBLEMS[family](np.random.default_rng(seed))
        # a logistic fit's cost overflows exp quietly under the fit's errstate
        with np.errstate(over="ignore"):
            x, fun, nfev, success = stats._nelder_mead(cost, x0, maxfev, 1e-8, 1e-10)
        # and scipy's inf - inf in its stop test
        with np.errstate(over="ignore", invalid="ignore"):
            ref = scipy.optimize.minimize(cost, x0, method="Nelder-Mead",
                                          options={"maxfev": maxfev, "xatol": 1e-8,
                                                   "fatol": 1e-10})
        got = (np.array(x).tobytes(), np.float64(fun).tobytes(), nfev, success)
        want = (ref.x.tobytes(), np.float64(ref.fun).tobytes(), ref.nfev, ref.success)
        assert got == want, f"{family} seed {seed}"


_EXTREMES = (0.0, -0.0, 1e-308, 5e-324, 1e308, -1e308, np.inf, -np.inf, np.nan)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 8, 11])
def test_logistic_cost_equals_the_array_expression_bit_for_bit(n):
    """_logistic_cost forms short series in Python floats; every cost equals
    the array expression it replaces, at random, huge, tiny, infinite and NaN
    parameters."""
    rng = np.random.default_rng(n)
    for trial in range(300):
        x, y = _logistic_series(rng, n)
        if trial % 3 == 0:
            x[rng.integers(n)] = rng.choice([1e300, -1e300, 0.0])
        cost = stats._logistic_cost(x, y)
        p = rng.normal(0.0, 10.0, 4) * 10.0 ** rng.integers(-12, 12, 4)
        for k in rng.choice(4, rng.integers(0, 3), replace=False):
            p[k] = rng.choice(_EXTREMES)
        p = tuple(p.tolist())
        with np.errstate(all="ignore"):
            got = cost(p)
            want = np.inf if p[3] == 0 else float(((stats._logistic(p, x) - y) ** 2).sum())
        assert type(got) is float
        if not (np.isnan(got) and np.isnan(want)):
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), (p, got, want)


@pytest.mark.parametrize("seed, converged", [(0, True), (2, False), (14, False)])
def test_logistic_fit_flags_a_descent_cut_off_by_max_evals(seed, converged):
    # seeds 2 and 14 of the logistic_n3 family stop at 2000 evaluations
    cost, x0, maxfev = _logistic_problem(np.random.default_rng(seed), 3)
    assert stats._nelder_mead(cost, x0, maxfev, 1e-8, 1e-10)[3] == converged
    x, y = _logistic_series(np.random.default_rng(seed), 3)
    mapped, params, flags = logistic_fit(x, y)
    assert flags == ([] if converged else ["fit_did_not_converge"])
    assert mapped.tobytes() == stats._logistic(params, x).tobytes()


def test_cli_import_leaves_out_scipy_optimize():
    src = os.path.dirname(os.path.dirname(stereoqa.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import stereoqa.cli, sys; print('scipy.optimize' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


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


def test_si_ti_memory_does_not_grow_with_the_frames(tmp_path):
    """A loaded sequence is walked once, holding the previous left luma: the
    peak for 16 frames of 480x270 yuv420p8 stays within 1.1 times the peak
    for 2 (reading every frame again for the pairs held them all)."""
    peaks = []
    for frames in (2, 16):
        seq = load_sequence(write_yuv420(str(tmp_path), f"seq{frames}", frames, 270, 480, 5))
        tracemalloc.start()
        try:
            si_ti(seq)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks


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
