import io
import json
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import GOLDEN
from rrl_lab.circle import CirclePoint
from rrl_lab.dynamics import hecke_stream
from rrl_lab.errors import CapExceeded, ValidationError
from rrl_lab.psp import PoleMeasure, moments, psp_eval, uniform_roots_measure
from rrl_lab.right_limits import (
    CLUSTER_PASSES_CAP,
    SEARCH_BLOCK,
    SEARCH_CELLS_CAP,
    SEARCH_K_CAP,
    ShiftReport,
    outer_sum,
    outer_tail_bound,
    renascent_shift_search,
    report_to_csv,
    verify_rrl_on_psp,
    window_cluster,
)
from rrl_lab.streams import CoeffStream, preperiodic

SRC = str(Path(__file__).resolve().parents[1] / "src")


def windows(report) -> np.ndarray:
    """Row i is the window b_{-W..W} of report.shifts[i], read from its stream."""
    w = report.half_width
    return report.stream.take(2 * w + 1, start=report.shifts - w)


def csv_text(report, clusters) -> str:
    out = io.StringIO()
    report_to_csv(report, clusters, out)
    return out.getvalue()


def test_periodic_search_finds_exact_multiples():
    report = renascent_shift_search(preperiodic([], [0.0, 1.0]), 5, 20, 0.0)
    assert report.shifts.dtype == np.int64
    assert report.shifts.tolist() == [6, 8, 10, 12, 14, 16, 18, 20]
    values = windows(report)[0]  # values[n + W] = b_n
    for n in range(-5, 6):
        assert values[n + 5] == (n % 2)


def test_preperiodic_has_no_renascent_shift():
    report = renascent_shift_search(preperiodic([5.0], [0.0, 1.0]), 2, 100, 1e-9)
    assert len(report) == 0


def test_golden_rotation_shifts_match_convergent_oracle():
    tol = 1e-2
    report = renascent_shift_search(hecke_stream(GOLDEN), 10, 10_000, tol)
    assert len(report) > 0
    # every found shift has one-sided fractional part below tol (n=0 pins it)
    for k in report.shifts:
        assert (k * GOLDEN) % 1.0 < tol
    # continued-fraction oracle: denominators are Fibonacci; the smallest
    # one-sided hit is the first Fibonacci number with {F*theta} < tol
    fibs = [1, 2]
    while fibs[-1] <= 10_000:
        fibs.append(fibs[-1] + fibs[-2])
    first = next(f for f in fibs if (f * GOLDEN) % 1.0 < tol)
    assert report.shifts[0] == first == 89


def test_search_validates_inputs():
    s = preperiodic([], [1.0])
    with pytest.raises(ValidationError):
        renascent_shift_search(s, 0, 10, 0.1)
    with pytest.raises(ValidationError):
        renascent_shift_search(s, 5, 5, 0.1)
    with pytest.raises(ValidationError):
        renascent_shift_search(s, 5, 10, -0.1)
    with pytest.raises(ValidationError):  # not an empty report
        renascent_shift_search(s, 3, 30, math.nan)


def test_search_caps_refuse_before_reading():
    def unread(ks):
        raise AssertionError("the stream was read")

    s = CoeffStream("unread", unread, 1.0)
    with pytest.raises(CapExceeded):
        renascent_shift_search(s, 10, SEARCH_K_CAP + 1, 0.1)
    # one block read of SEARCH_BLOCK + W values is already over the cells cap
    w = SEARCH_CELLS_CAP - SEARCH_BLOCK + 1
    with pytest.raises(CapExceeded):
        renascent_shift_search(s, w, w + 1, 0.1)


def test_search_windows_cap():
    # every shift is a hit: SEARCH_BLOCK + W + 2 * hits passes the cells cap
    # at the first hit past (SEARCH_CELLS_CAP - SEARCH_BLOCK - W) / 2
    w = 20
    hits = (SEARCH_CELLS_CAP - SEARCH_BLOCK - w) // 2 + 1
    with pytest.raises(CapExceeded, match="over the cap"):
        renascent_shift_search(preperiodic([], [1.0]), w, w + hits, math.inf)


def test_monotonicity_in_tol_and_width():
    s = hecke_stream(GOLDEN)
    loose = set(renascent_shift_search(s, 8, 3000, 2e-2).shifts)
    tight = set(renascent_shift_search(s, 8, 3000, 5e-3).shifts)
    assert tight <= loose
    wide = set(renascent_shift_search(s, 16, 3000, 2e-2).shifts)
    assert wide <= loose


def test_cluster_unique_continuation_for_rotation():
    report = renascent_shift_search(hecke_stream(GOLDEN), 10, 20_000, 5e-3)
    clusters = window_cluster(report, 5e-3 * 2)
    assert len(clusters) == 1


def test_cluster_two_continuations_for_shifted_rotation():
    # a_k = {(k+1) theta}: the index -1 entry bifurcates to 0 and 1
    stream = hecke_stream(GOLDEN, gamma=GOLDEN)
    report = renascent_shift_search(stream, 10, 100_000, 5e-3)
    clusters = window_cluster(report, 2 * 5e-3)
    assert len(clusters) == 2
    r0, r1 = windows(report)[clusters.leaders]
    diff = np.abs(r0 - r1)
    assert abs(diff[10 - 1] - 1.0) <= 2 * 5e-3  # index n = -1
    mask = np.ones(21, dtype=bool)
    mask[10 - 1] = False
    assert np.max(diff[mask]) <= 2 * 5e-3


def test_cluster_constant_stream():
    report = renascent_shift_search(preperiodic([], [1.0]), 3, 30, 0.0)
    clusters = window_cluster(report, 1e-12)
    assert len(clusters) == 1
    assert np.all(windows(report)[clusters.leaders[0]] == 1.0)
    assert clusters.labels.tolist() == [0] * len(report)


def test_cluster_empty_report_has_no_clusters():
    report = renascent_shift_search(preperiodic([5.0], [0.0]), 2, 50, 1e-9)
    clusters = window_cluster(report, 0.1)
    assert len(report) == 0 and len(clusters) == 0
    assert clusters.labels.size == clusters.distances.size == 0


def test_generating_functions_constant_window():
    # the outer series of b_{-W..-1} = 1 is -sum_{k<=W} z^(-k), which stops
    # short of -1/(z - 1) by the tail bound |z|^(-W)/(|z| - 1) exactly at z = 2
    report = renascent_shift_search(preperiodic([], [1.0]), 6, 20, 0.0)
    w = 6
    value = outer_sum(windows(report)[0][:w].tolist(), w, 2.0)
    assert value == -(1.0 - 2.0**-w)
    assert outer_tail_bound(2.0, w) == 2.0**-w == value - -1.0
    assert outer_tail_bound(-3j, w) == 3.0**-w / 2.0
    assert math.isinf(outer_tail_bound(1.0, w)) and math.isinf(outer_tail_bound(0.5j, w))


def test_generating_functions_alternating_window():
    # b_{-k} = (-1)^k: geometric oracle -sum_k (-1/z)^k = 1/(1 + z)
    report = renascent_shift_search(preperiodic([], [1.0, -1.0]), 8, 40, 0.0)
    value = outer_sum(windows(report)[0][:8].tolist(), 8, 2.0)
    assert abs(value - 1.0 / 3.0) <= outer_tail_bound(2.0, 8) + 1e-15


@st.composite
def small_measures(draw):
    """1 to 6 atoms, each at an exact angle p/q (q <= 24) or a float one."""
    atoms = {}
    for _ in range(draw(st.integers(1, 6))):
        pt = draw(st.builds(CirclePoint.exact, st.integers(0, 23), st.integers(1, 24))
                  | st.builds(CirclePoint.real, st.floats(0.0, 1.0, exclude_max=True)))
        part = st.floats(-2.0, 2.0)
        atoms[pt.angle] = (pt, draw(st.builds(complex, part, part)))
    return PoleMeasure(list(atoms.values()))


# rounding allowed per unit of mass: over 3000 seeded draws like these the
# error exceeded the tail bound by at most 2.3e-15 per unit of mass
OUTER_ROUNDING = 1e-12


def underflow_allowance(w: int, atoms: int) -> float:
    """Rounding below the smallest normal float, which no share of the mass
    covers: there a rounded product or quotient errs by a fixed step of at
    most math.ulp(0.0) / 2, counted here as a whole step, and sums of
    subnormals are exact.  Per part (real or imaginary):
    - each b_{-k} takes two rounded products per atom, W * atoms * 2 steps;
      outer_sum weighs its errors by |z|^-k < 1;
    - outer_sum takes two rounded products per term, W * 2 steps;
    - psp_eval's Smith division takes one rounded product per atom, divided
      by a denominator of modulus at least |z - lambda| / sqrt(2) >= 0.2 /
      sqrt(2) > 1/8 (|z| >= 1.2), then one rounded quotient: 9 steps.
    The complex error is at most twice the larger part's."""
    return 2 * (2 * w * atoms + 2 * w + 9 * atoms) * math.ulp(0.0)


@settings(max_examples=200, deadline=None)
@given(small_measures(), st.integers(1, 200), st.floats(1.2, 8.0),
       st.floats(0.0, 2 * math.pi))
# a subnormal weight: one step of math.ulp(0.0) past the mass-scaled bound
@example(PoleMeasure([(CirclePoint.exact(0, 1), 2.2250738585e-313)]), 22, 2.0, 0.0)
def test_generating_functions_match_pole_series(m, w, r, phase):
    # a pole series' outer series, read from its negative side b_{-k} = -M(k - 1),
    # is the pole series outside the disc within its tail bound
    z = r * complex(math.cos(phase), math.sin(phase))
    neg = -moments(m, [0], range(w - 1, -1, -1))[0]  # b_{-W} .. b_{-1}
    error = abs(outer_sum(neg.tolist(), w, z) - psp_eval(m, z))
    assert error <= (m.total_mass * (outer_tail_bound(z, w) + OUTER_ROUNDING)
                     + underflow_allowance(w, len(m.atoms)))


def test_verify_rrl_roots_of_unity_exact_zero():
    m = uniform_roots_measure(4)
    rows = verify_rrl_on_psp(m, [math.factorial(4), math.factorial(5)], 8)
    for _, res_pos, res_neg in rows:
        assert res_pos == 0.0 and res_neg == 0.0


def test_verify_rrl_constant_any_shift():
    m = PoleMeasure([(CirclePoint.exact(0, 1), 1.0)])
    rows = verify_rrl_on_psp(m, [3, 7, 10], 5)
    assert all(rp == 0.0 and rn == 0.0 for _, rp, rn in rows)


def test_verify_rrl_pigeonhole_bound():
    from rrl_lab.diophantine import pigeonhole_shift

    theta = math.sqrt(2) - 1
    m = PoleMeasure([(CirclePoint.real(theta), 1.0 + 0.5j)])
    for j in (2, 3, 4, 5):
        k = pigeonhole_shift(m.points, j)
        rows = verify_rrl_on_psp(m, [k], 6)
        _, rp, rn = rows[0]
        assert max(rp, rn) <= m.total_mass * 2 * math.pi / j


def test_verify_rrl_orders_dividing_q_property():
    rng = np.random.default_rng(31)
    for _ in range(10):
        orders = rng.choice([1, 2, 3, 4, 6, 12], size=3, replace=False)
        atoms = {}
        for q in orders:
            p = int(rng.integers(0, q))
            pt = CirclePoint.exact(p, int(q))
            atoms[pt.angle] = (pt, complex(rng.normal(), rng.normal()))
        m = PoleMeasure(list(atoms.values()))
        rows = verify_rrl_on_psp(m, [12, 24], 6)
        assert all(rp == 0.0 and rn == 0.0 for _, rp, rn in rows)


def test_verify_rrl_requires_increasing_shifts():
    with pytest.raises(ValidationError):
        verify_rrl_on_psp(uniform_roots_measure(2), [5, 5], 3)


def test_verify_rrl_rejects_empty_shifts_and_width():
    m = uniform_roots_measure(2)
    with pytest.raises(ValidationError):
        verify_rrl_on_psp(m, [], 3)
    with pytest.raises(ValidationError):
        verify_rrl_on_psp(m, [2, 4], 0)


def test_report_csv_bytes_unchanged_by_shift_lookup():
    # rendering the batch oracle's clusters with a linear scan for each
    # member gives the same bytes as the per-hit arrays on a two-cluster report
    report = renascent_shift_search(hecke_stream(GOLDEN, gamma=GOLDEN), 10, 30_000, 5e-3)
    hits = oracle_search(report.stream, 10, 30_000, 5e-3)
    clusters = window_cluster(report, 5e-3)
    assert len(clusters) == 2 and len(report) > 100
    lines = ["shift,residual_pos,residual_neg_vs_cluster,cluster_id"]
    expected = oracle_clusters(hits, 10, 5e-3)
    for shift, residual, _ in hits:
        cid = next(c for c, (_, ks, _) in enumerate(expected) if shift in ks)
        d = expected[cid][2][expected[cid][1].index(shift)]
        lines.append(f"{shift},{residual!r},{d!r},{cid}")
    assert csv_text(report, clusters) == "\n".join(lines) + "\n"


def test_report_csv_shape():
    report = renascent_shift_search(preperiodic([], [0.0, 1.0]), 3, 12, 0.0)
    text = csv_text(report, window_cluster(report, 0.0))
    lines = text.strip().split("\n")
    assert lines[0] == "shift,residual_pos,residual_neg_vs_cluster,cluster_id"
    assert len(lines) == 1 + len(report)
    first = lines[1].split(",")
    assert first[0] == "4" and first[3] == "0"


def test_report_csv_rows_span_writer_blocks():
    # the writer renders SEARCH_BLOCK rows at a time: the even shifts up to
    # 4 SEARCH_BLOCK + 7 are three blocks of rows, the last one partial
    k_max = 4 * SEARCH_BLOCK + 7
    report = renascent_shift_search(preperiodic([], [0.0, 1.0]), 2, k_max, 0.0)
    assert SEARCH_BLOCK * 2 < len(report) < SEARCH_BLOCK * 3
    rows = "".join(f"{k},0.0,0.0,0\n" for k in range(4, k_max + 1, 2))
    assert csv_text(report, window_cluster(report, 0.0)) == \
        "shift,residual_pos,residual_neg_vs_cluster,cluster_id\n" + rows


def test_report_csv_empty_report():
    report = renascent_shift_search(preperiodic([5.0], [0.0]), 2, 40, 1e-9)
    text = csv_text(report, window_cluster(report, 1e-9))
    assert text.strip() == "shift,residual_pos,residual_neg_vs_cluster,cluster_id"


def test_report_csv_writes_the_clusters_it_is_given():
    # negative sides a_1, a_2, a_3 = 0, 0.15 and -0.15: three clusters at tol
    # 0.1, one at 2 * tol
    report = ShiftReport(half_width=1, shifts=np.array([2, 3, 4]), residuals=np.zeros(3),
                         stream=preperiodic([0.0, 0.0, 0.15, -0.15], [0.0]))
    header = "shift,residual_pos,residual_neg_vs_cluster,cluster_id\n"
    assert csv_text(report, window_cluster(report, 0.1)) == \
        header + "2,0.0,0.0,0\n3,0.0,0.0,1\n4,0.0,0.0,2\n"
    assert csv_text(report, window_cluster(report, 0.2)) == \
        header + "2,0.0,0.0,0\n3,0.0,0.15,0\n4,0.0,0.15,0\n"


def test_cluster_rejects_bad_tol():
    report = renascent_shift_search(preperiodic([], [1.0]), 3, 30, 0.0)
    for tol in (-1.0, -1e-300, math.nan):
        with pytest.raises(ValidationError):
            window_cluster(report, tol)


def test_cluster_nan_window_forms_its_own_cluster():
    # negative sides (a_1, a_2), (a_4, a_5), (a_7, a_8) with a_4 = inf: the
    # window of 6 is inf away from the first and a NaN distance from itself
    stream = CoeffStream("inf", lambda ks: np.where(ks == 4, np.inf, 0.0) + 0j, math.inf)
    report = ShiftReport(half_width=2, shifts=np.array([3, 6, 9]), residuals=np.zeros(3),
                         stream=stream)
    clusters = window_cluster(report, 0.1)
    assert clusters.leaders.tolist() == [0, 1] and clusters.labels.tolist() == [0, 1, 0]
    assert np.isinf(windows(report)[clusters.leaders[1]][0])
    assert math.isnan(clusters.distances[1])


def as_complex(stream):
    """The same rule with its output cast to complex."""
    return CoeffStream(stream.name, lambda ks: stream.rule(ks).astype(complex),
                       stream.bound)


def traced_min(run):
    """(result, traced peak bytes) of ``run()``, the smaller peak of two runs:
    a one-off allocation of the interpreter can land in either (seen under
    pytest as a single 1.9 MB block, attributed to a small dict's creation)."""
    peaks = []
    for _ in range(2):
        tracemalloc.start()
        try:
            result = run()
            peaks.append(tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
    return result, min(peaks, key=lambda cp: cp[1])


def traced_search(stream, w, k_max, tol):
    """(report, traced peak bytes) of the search."""
    report, (_, peak) = traced_min(lambda: renascent_shift_search(stream, w, k_max, tol))
    return report, peak


def search_peak(stream, w, k_max):
    return traced_search(stream, w, k_max, 1e-2)[1]


@pytest.mark.parametrize("w", [10, 40])
def test_search_memory_is_linear_in_k_max_only(w):
    # the full n = 0 pass holds the stream prefix and its difference with
    # a_0 before the abs: about 3 x 8 k_max bytes for a real stream whatever
    # W is (a (k_max+1) x (W+1) difference matrix would be 8 (W+1) k_max)
    k_max = 200_000
    assert search_peak(hecke_stream(GOLDEN), w, k_max) <= 4 * 8 * k_max
    # the same rule cast to complex: 16-byte prefix and difference
    assert search_peak(as_complex(hecke_stream(GOLDEN)), w, k_max) <= 5 * 16 * k_max


# -- oracle: the difference-matrix search and the first-match leader loop ----


def oracle_search(stream, w, k_max, tol):
    arr = stream.take(k_max + w + 1)
    sliding = np.lib.stride_tricks.sliding_window_view(arr, w + 1)
    residuals = np.max(np.abs(sliding - arr[: w + 1]), axis=1)
    return [(k, float(residuals[k]), arr[k - w : k + w + 1])
            for k in range(w + 1, k_max + 1) if residuals[k] <= tol]


def oracle_clusters(hits, w, tol):
    """(representative shift, member shifts, member distances) per cluster."""
    reps, members = [], []
    with np.errstate(invalid="ignore"):  # inf - inf: a NaN distance
        for k, _, values in hits:
            neg = values[:w]
            for i, rep in enumerate(reps):
                if np.max(np.abs(neg - rep[:w])) <= tol:
                    members[i].append((k, values))
                    break
            else:
                reps.append(values)
                members.append([(k, values)])
        return [(ms[0][0], [k for k, _ in ms],
                 [float(np.max(np.abs(v[:w] - rep[:w]))) for _, v in ms])
                for rep, ms in zip(reps, members)]


SMALL_VALUES = st.lists(st.sampled_from([0.0, 1.0, -1.0, 1j, 0.5 + 0.5j, 0.25]),
                        min_size=1, max_size=5)
REAL_SEARCH_STREAMS = st.one_of(
    st.tuples(st.floats(-2.0, 2.0), st.floats(-1.0, 1.0)).map(lambda tg: hecke_stream(*tg)),
    st.just(hecke_stream(GOLDEN, gamma=GOLDEN)),
)
SEARCH_STREAMS = st.one_of(
    SMALL_VALUES.map(lambda v: preperiodic(v, [0])),
    SMALL_VALUES.map(lambda c: preperiodic([], c)),
    REAL_SEARCH_STREAMS,
)
TOLS = st.one_of(st.just(0.0), st.floats(0.0, 0.5), st.just(math.inf))


def bits(x) -> np.ndarray:
    return np.asarray(x).view(np.uint64)


def clusters_match_oracle(report, hits, tol):
    """Assert that window_cluster(report, tol) is the oracle's leader
    clustering of ``hits``: leaders, labels and distance bits; return the
    clusters."""
    clusters = window_cluster(report, tol)
    expected = oracle_clusters(hits, report.half_width, tol)
    assert report.shifts[clusters.leaders].tolist() == [rep for rep, _, _ in expected]
    cluster_of = {k: (cid, d) for cid, (_, ks, ds) in enumerate(expected)
                  for k, d in zip(ks, ds)}
    labels, dists = zip(*(cluster_of[k] for k, _, _ in hits)) if hits else ((), ())
    assert clusters.labels.tolist() == list(labels)
    assert np.array_equal(bits(clusters.distances), bits(np.array(dists, dtype=float)))
    return clusters


@settings(max_examples=300, deadline=None)
@given(SEARCH_STREAMS, st.integers(1, 24), st.integers(1, 400), TOLS, TOLS)
def test_search_and_clusters_match_matrix_oracle(stream, w, extra, tol, group_tol):
    k_max = w + extra
    report = renascent_shift_search(stream, w, k_max, tol)
    hits = oracle_search(stream, w, k_max, tol)
    assert report.shifts.tolist() == [k for k, _, _ in hits]
    assert np.array_equal(bits(report.residuals), bits([r for _, r, _ in hits]))
    for row, (_, _, values) in zip(windows(report), hits):
        assert np.array_equal(bits(row), bits(values))
    clusters_match_oracle(report, hits, group_tol)


@settings(max_examples=200, deadline=None)
@given(REAL_SEARCH_STREAMS, st.integers(1, 6), st.integers(1, 400), TOLS, TOLS)
def test_real_stream_matches_its_complex_cast_bitwise(stream, w, extra, tol, group_tol):
    # |x + 0i| = |x| and max is exact, so keeping a real stream in float64
    # moves no bit of any residual, distance or CSV row
    twin = as_complex(stream)
    k_max = w + extra
    real, cplx = (renascent_shift_search(s, w, k_max, tol) for s in (stream, twin))
    real_windows, cplx_windows = windows(real), windows(cplx)
    assert real_windows.dtype == np.float64 and cplx_windows.dtype == np.complex128
    assert np.array_equal(real.shifts, cplx.shifts)
    assert np.array_equal(bits(real.residuals), bits(cplx.residuals))
    assert np.array_equal(bits(real_windows.astype(complex)), bits(cplx_windows))
    a, b = (window_cluster(r, group_tol) for r in (real, cplx))
    assert csv_text(real, a) == csv_text(cplx, b)
    assert np.array_equal(a.leaders, b.leaders) and np.array_equal(a.labels, b.labels)
    assert np.array_equal(bits(a.distances), bits(b.distances))


def test_online_clusters_across_blocks_match_batch_oracle():
    # a_k = (k // 10^4) % 2 at search tol inf: every shift is a hit, and the
    # negative sides step from 0 to 1 at 10^4 and back at 2 * 10^4, so new
    # clusters first appear several clustering blocks (SEARCH_BLOCK // W
    # hits each) in, and the windows past 2 * 10^4 join the first block's
    # leader again
    w, k_max = 4, 25_000
    stream = CoeffStream("steps", lambda ks: (ks // 10_000) % 2, 1.0)
    report = renascent_shift_search(stream, w, k_max, math.inf)
    clusters = clusters_match_oracle(report, oracle_search(stream, w, k_max, math.inf), 0.5)
    step = SEARCH_BLOCK // w
    assert len(report) > 5 * step and len(clusters) == 8
    assert report.shifts[clusters.leaders[1]] == 10_001 > report.shifts[step]
    assert report.shifts[clusters.labels == 0][-1] == k_max
    # the all-ones cluster spans several blocks too
    assert np.count_nonzero(clusters.labels == 4) > 2 * step


def test_online_clusters_keep_the_nan_rule():
    # a_k = inf at k = 7 mod 10 (bound inf): a window with inf on its negative
    # side is inf away from the zero windows and a NaN distance from any
    # window with inf at the same place, itself included, so each one is a
    # cluster of its own, as in the batch oracle
    w, k_max = 2, 200
    stream = CoeffStream("infs", lambda ks: np.where(ks % 10 == 7, np.inf, 0.0), math.inf)
    report = renascent_shift_search(stream, w, k_max, 0.0)
    clusters = clusters_match_oracle(report, oracle_search(stream, w, k_max, 0.0), 0.5)
    with_inf = [k for k in report.shifts.tolist() if k % 10 in (8, 9)]
    assert report.shifts[clusters.leaders[1:]].tolist() == with_inf
    assert np.bincount(clusters.labels)[1:].tolist() == [1] * len(with_inf)
    assert np.all(np.isnan(clusters.distances[clusters.leaders[1:]]))


def test_hecke_stream_is_float64():
    assert hecke_stream(GOLDEN).take(50).dtype == np.float64
    assert hecke_stream(0.3, gamma=0.1).take(1).dtype == np.float64


# -- block edges: hits on the first and last shift of a block ---------------


def search_matches_oracle(stream, w, k_max, tol):
    report = renascent_shift_search(stream, w, k_max, tol)
    hits = oracle_search(stream, w, k_max, tol)
    assert report.shifts.tolist() == [k for k, _, _ in hits]
    assert np.array_equal(bits(report.residuals), bits([r for _, r, _ in hits]))
    assert np.array_equal(bits(windows(report)), bits(np.array([v for _, _, v in hits])))
    return report


@pytest.mark.parametrize("cycle", [[0.0, 1.0, 0.5, -1.0], [1j, 0.25, -1.0, 0.5 + 0.5j]])
@pytest.mark.parametrize("w", [3, 4])
@pytest.mark.parametrize("blocks", [3, 3.5])
def test_search_across_blocks_matches_oracle(cycle, w, blocks):
    # period 4 divides SEARCH_BLOCK, and block j scans (W + j B, W + (j+1) B],
    # so the hits (the multiples of 4) land on the first shift of every
    # block when W = 3 and on the last when W = 4
    k_max = w + int(blocks * SEARCH_BLOCK)
    report = search_matches_oracle(preperiodic([], cycle), w, k_max, 0.0)
    edges = [w + 1 + j * SEARCH_BLOCK if w == 3 else w + (j + 1) * SEARCH_BLOCK
             for j in range(3)]
    assert set(edges) <= set(report.shifts)


def test_shifted_rotation_search_across_blocks_matches_oracle():
    report = search_matches_oracle(hecke_stream(GOLDEN, GOLDEN), 10, 3 * SEARCH_BLOCK + 500,
                                   5e-3)
    assert report.shifts[-1] > 2 * SEARCH_BLOCK
    assert len(window_cluster(report, 2 * 5e-3)) == 2


@pytest.mark.parametrize("bad", [math.nan, 2.0, -2.0])
def test_bad_coefficient_in_last_block_rejected(bad):
    w, k_max = 5, 3 * SEARCH_BLOCK + 100
    last = k_max + w  # the last index the search reads

    def rule(ks):
        return np.where(ks == last, bad, 0.0)

    with pytest.raises(ValidationError):
        renascent_shift_search(CoeffStream("late", rule, 1.0), w, k_max, 0.1)


# -- memory follows the block and the hits, not k_max -----------------------


# a hit holds its int64 shift and float64 residual twice: in its block's
# piece, then in the concatenation
PER_HIT = 2 * 2 * 8
# each block with hits keeps two small arrays until the concatenation: an
# ndarray object and its data block, about 140 traced bytes each
PER_PIECE = 2 * 200


def pieces(report) -> int:
    """Blocks of the search with at least one hit."""
    return len(np.unique((report.shifts - report.half_width - 1) // SEARCH_BLOCK))


@pytest.mark.parametrize("cast", [lambda s: s, as_complex], ids=["real", "complex"])
def test_search_memory_follows_block_and_hits(cast):
    w, tol = 10, 1e-4  # about one hit per 10^4 shifts
    stream = cast(hecke_stream(GOLDEN))
    small, peak_small = traced_search(stream, w, 200_000, tol)
    large, peak_large = traced_search(stream, w, 2_000_000, tol)
    size = stream.take(1).itemsize
    assert len(small) < len(large) < 1000
    assert peak_large <= (5 * size * SEARCH_BLOCK + PER_HIT * len(large)
                          + PER_PIECE * pieces(large))
    assert peak_large - peak_small <= (PER_HIT * (len(large) - len(small))
                                       + PER_PIECE * (pieces(large) - pieces(small)))


@pytest.mark.parametrize("cast", [lambda s: s, as_complex], ids=["real", "complex"])
def test_search_holds_no_windows(cast):
    # one hit per 100 shifts, 18 000 more at 2e6 than at 2e5: each extra hit
    # may hold its shift and residual twice; keeping its window b_{-W..W}
    # as well would break this by 3 MB real and 6 MB complex
    w, tol = 10, 1e-2
    stream = cast(hecke_stream(GOLDEN))
    small, peak_small = traced_search(stream, w, 200_000, tol)
    large, peak_large = traced_search(stream, w, 2_000_000, tol)
    hits = len(large) - len(small)
    assert hits > 15_000
    assert peak_large - peak_small <= (PER_HIT * hits
                                       + PER_PIECE * (pieces(large) - pieces(small)))


def traced_cluster_transient(report, tol) -> int:
    """Traced peak of window_cluster less what its result still holds."""
    clusters, (current, peak) = traced_min(lambda: window_cluster(report, tol))
    assert clusters
    return peak - current


@pytest.mark.parametrize("cast", [lambda s: s, as_complex], ids=["real", "complex"])
def test_cluster_memory_does_not_follow_the_hits(cast):
    # window_cluster reads one block of negative sides at a time, and its
    # output (a label and a distance per hit) is allocated once, so past it
    # 10 times the hits take no more memory.  The peak comes at a block's
    # read, and the small report's last block is partial, so a full block's
    # temporaries may add up to 16 B a hit of one block.  Holding every hit's
    # negative side would add 80 B (real) or 160 B (complex) for each of the
    # 18 000 extra hits.
    w, tol = 10, 1e-2
    stream = cast(hecke_stream(GOLDEN))
    small = renascent_shift_search(stream, w, 200_000, tol)
    large = renascent_shift_search(stream, w, 2_000_000, tol)
    assert len(large) > 9 * len(small) > 9 * SEARCH_BLOCK // w
    assert traced_cluster_transient(large, tol) <= (traced_cluster_transient(small, tol)
                                                    + SEARCH_BLOCK // w * 16)


def search_under_512_mb(stream: str, w: int, k_max: int, tol: str
                        ) -> subprocess.CompletedProcess:
    """The search and its clustering at tol 0 in a subprocess capped at 512 MB
    of address space, so a regression is a MemoryError, not a machine-wide
    out-of-memory.  A CapExceeded exits 3 with its message; a run that ends
    prints one JSON line: the hit count, the largest residual, the cluster
    sizes and each representative's window."""
    script = textwrap.dedent(f"""
        import json, math, resource, sys
        limit = 1 << 29  # 512 MB
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        import numpy as np
        from rrl_lab.dynamics import hecke_stream
        from rrl_lab.errors import CapExceeded
        from rrl_lab.right_limits import renascent_shift_search, window_cluster
        from rrl_lab.streams import CoeffStream
        try:
            report = renascent_shift_search({stream}, {w}, {k_max}, {tol})
            clusters = window_cluster(report, 0.0)
        except CapExceeded as exc:
            print(exc)
            sys.exit(3)
        print(json.dumps({{
            "hits": len(report),
            "max_residual": float(report.residuals.max(initial=0.0)),
            "sizes": np.bincount(clusters.labels, minlength=len(clusters)).tolist(),
            "windows": report.stream.take(2 * {w} + 1,
                                          start=report.shifts[clusters.leaders] - {w}).tolist()}}))
    """)
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)


def test_every_shift_a_hit_exits_3_under_a_memory_limit():
    # at tol = inf all 5e6 shifts are hits: 1.7e9 bytes of complex windows
    # without the cells cap
    stream = ("CoeffStream('c', lambda ks: hecke_stream(0.5 ** 0.5).rule(ks)"
              ".astype(complex), 1.0)")
    proc = search_under_512_mb(stream, 10, 5_000_000, "math.inf")
    assert proc.returncode == 3, proc.stderr
    assert "over the cap" in proc.stdout


def test_window_cluster_cap_exits_3_under_a_memory_limit():
    # W = 10^6 at tol inf: 12 hits, each window its own cluster at tol 0, read
    # one hit per block.  Before the tenth hit's block the count is 2 * 12
    # labels and distances plus W * (9 representatives + 1 hit) =
    # 10 000 024 values, over the cells cap
    proc = search_under_512_mb("hecke_stream(0.5 ** 0.5)", 10**6, 10**6 + 12, "math.inf")
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout.startswith(f"the clusters hold 10000024 values, over the cap "
                                  f"{SEARCH_CELLS_CAP}")


def test_window_cluster_passes_cap_exits_3():
    # golden rotation, W = 10, k_max = 2 * 10^4 at search tol inf: 19 990
    # hits, each its own cluster at tol 0.  Every block of SEARCH_BLOCK // W
    # hits is compared with every earlier representative, about 1.5e5 passes
    # and 12 s in all, so the passes pass the cap in the sixth block
    proc = search_under_512_mb("hecke_stream((5 ** 0.5 - 1) / 2)", 10, 20_000, "math.inf")
    assert proc.returncode == 3, proc.stderr
    assert f"takes over {CLUSTER_PASSES_CAP} passes" in proc.stdout


def test_thue_morse_search_at_w_64_keeps_two_clusters_under_a_memory_limit():
    # the sign stream (-1)^tau(k) at W = 64 and k_max = 2^24: every hit is
    # exact and the negative sides are a read backwards or its negation
    # (b_{-n} = +-a_{n-1}); holding the hits' windows passed the cells cap
    w = 64
    stream = "CoeffStream('tm', lambda ks: 1.0 - 2.0 * (np.bitwise_count(ks) & 1), 1.0)"
    proc = search_under_512_mb(stream, w, 1 << 24, "0.0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = json.loads(proc.stdout)
    assert out["hits"] == 87_381 and out["max_residual"] == 0.0
    assert out["sizes"] == [43_691, 43_690]
    a = 1.0 - 2.0 * (np.bitwise_count(np.arange(w)) & 1)
    backwards = [np.array(values[:w])[::-1] for values in out["windows"]]
    assert sorted(int(b[0]) for b in backwards) == [-1, 1]
    for b in backwards:
        assert np.array_equal(b, a) or np.array_equal(b, -a)
