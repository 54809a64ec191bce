import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GOLDEN
from rrl_lab.circle import CirclePoint
from rrl_lab.dynamics import hecke_stream
from rrl_lab.errors import CapExceeded, ValidationError
from rrl_lab.psp import PoleMeasure, psp_eval, uniform_roots_measure
from rrl_lab.right_limits import (
    SEARCH_BLOCK,
    SEARCH_CELLS_CAP,
    SEARCH_K_CAP,
    generating_functions,
    renascent_shift_search,
    report_to_csv,
    verify_rrl_on_psp,
    window_cluster,
)
from rrl_lab.streams import CoeffStream, preperiodic

SRC = str(Path(__file__).resolve().parents[1] / "src")


def test_periodic_search_finds_exact_multiples():
    report = renascent_shift_search(preperiodic([], [0.0, 1.0]), 5, 20, 0.0)
    assert report.shifts == [6, 8, 10, 12, 14, 16, 18, 20]
    w = report.window(0)
    for n in range(-5, 6):
        assert w[n] == (n % 2)


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
    # one block read of SEARCH_BLOCK + 2W values is already over the cells cap
    w = (SEARCH_CELLS_CAP - SEARCH_BLOCK) // 2 + 1
    with pytest.raises(CapExceeded):
        renascent_shift_search(s, w, w + 1, 0.1)


def test_search_windows_cap():
    # every shift is a hit: the windows pass the cells cap after a few blocks
    w = 20
    with pytest.raises(CapExceeded):
        renascent_shift_search(preperiodic([], [1.0]), w, SEARCH_CELLS_CAP // (2 * w + 1) + w,
                               math.inf)


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
    r0 = clusters[0].representative
    r1 = clusters[1].representative
    diff = np.abs(r0.values - r1.values)
    assert abs(diff[10 - 1] - 1.0) <= 2 * 5e-3  # index n = -1
    mask = np.ones(21, dtype=bool)
    mask[10 - 1] = False
    assert np.max(diff[mask]) <= 2 * 5e-3


def test_cluster_constant_stream():
    report = renascent_shift_search(preperiodic([], [1.0]), 3, 30, 0.0)
    clusters = window_cluster(report, 1e-12)
    assert len(clusters) == 1
    assert np.all(clusters[0].representative.values == 1.0)
    assert len(clusters[0].member_shifts) == len(report)


def test_cluster_empty_report_has_no_clusters():
    report = renascent_shift_search(preperiodic([5.0], [0.0]), 2, 50, 1e-9)
    assert len(report) == 0 and window_cluster(report, 0.1) == []


def test_generating_functions_constant_window():
    report = renascent_shift_search(preperiodic([], [1.0]), 6, 20, 0.0)
    inner, outer = generating_functions(report.window(0))
    w = 6
    assert abs(inner(0.5) - (2.0 - 2.0 * 0.5 ** (w + 1))) < 1e-15
    assert abs(outer(2.0) - -(1.0 - 2.0**-w)) < 1e-15
    # tail bounds: B |z|^(W+1)/(1-|z|) inner, B |z|^(-W-1)/(1-1/|z|) outer
    assert abs(inner.truncation_bound(0.5) - 0.5**7 / 0.5) < 1e-18
    assert abs(outer.truncation_bound(2.0) - 2.0**-7 / 0.5) < 1e-18
    assert math.isinf(inner.truncation_bound(2.0))
    assert math.isinf(outer.truncation_bound(0.5))


def test_generating_functions_alternating_window():
    report = renascent_shift_search(preperiodic([], [1.0, -1.0]), 8, 40, 0.0)
    inner, _ = generating_functions(report.window(0))
    # geometric oracle: 1/(1+z) at z = 0.5
    assert abs(inner(0.5) - 2.0 / 3.0) <= inner.truncation_bound(0.5) + 1e-15


def test_generating_functions_match_pole_series():
    m = PoleMeasure([(CirclePoint.exact(0, 1), -1.0)])  # -1/(z-1) = 1/(1-z)
    from rrl_lab.psp import taylor_coefficient
    from rrl_lab.right_limits import Window

    w = 12
    values = np.array([taylor_coefficient(m, n) for n in range(-w, w + 1)])
    window = Window(half_width=w, values=values)
    inner, outer = generating_functions(window)
    assert abs(inner(0.5) - psp_eval(m, 0.5)) <= inner.truncation_bound(0.5) + 1e-12
    assert abs(outer(2.0) - psp_eval(m, 2.0)) <= outer.truncation_bound(2.0) + 1e-12


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
    # rendering with the linear scan for each cluster member, as before the
    # dict lookup, gives the same bytes on a two-cluster report
    report = renascent_shift_search(hecke_stream(GOLDEN, gamma=GOLDEN), 10, 30_000, 5e-3)
    clusters = window_cluster(report, 5e-3)
    assert len(clusters) == 2 and len(report) > 100
    lines = ["shift,residual_pos,residual_neg_vs_cluster,cluster_id"]
    rows = list(zip(report.shifts, report.residuals.tolist(), report.values))
    assignment = {}
    for cid, cl in enumerate(clusters):
        rep_neg = cl.representative.values[:10]
        for shift in cl.member_shifts:
            values = next(v for k, _, v in rows if k == shift)
            assignment[shift] = (cid, float(np.max(np.abs(values[:10] - rep_neg))))
    for shift, residual, _ in rows:
        cid, d = assignment[shift]
        lines.append(f"{shift},{residual!r},{d!r},{cid}")
    assert report_to_csv(report, clusters) == "\n".join(lines) + "\n"


def test_report_csv_shape():
    report = renascent_shift_search(preperiodic([], [0.0, 1.0]), 3, 12, 0.0)
    text = report_to_csv(report, window_cluster(report, 0.0))
    lines = text.strip().split("\n")
    assert lines[0] == "shift,residual_pos,residual_neg_vs_cluster,cluster_id"
    assert len(lines) == 1 + len(report)
    first = lines[1].split(",")
    assert first[0] == "4" and first[3] == "0"


def test_report_csv_empty_report():
    report = renascent_shift_search(preperiodic([5.0], [0.0]), 2, 40, 1e-9)
    text = report_to_csv(report, window_cluster(report, 1e-9))
    assert text.strip() == "shift,residual_pos,residual_neg_vs_cluster,cluster_id"


def test_report_csv_writes_the_clusters_it_is_given():
    # negative sides 0, 0.15 and -0.15: three clusters at tol 0.1, one at 2 * tol
    from rrl_lab.right_limits import ShiftReport

    report = ShiftReport(half_width=1, shifts=[2, 3, 4], residuals=np.zeros(3),
                         values=np.array([[x, 0.0, 0.0] for x in (0.0, 0.15, -0.15)]))
    header = "shift,residual_pos,residual_neg_vs_cluster,cluster_id\n"
    assert report_to_csv(report, window_cluster(report, 0.1)) == \
        header + "2,0.0,0.0,0\n3,0.0,0.0,1\n4,0.0,0.0,2\n"
    assert report_to_csv(report, window_cluster(report, 0.2)) == \
        header + "2,0.0,0.0,0\n3,0.0,0.15,0\n4,0.0,0.15,0\n"


def test_cluster_rejects_bad_tol():
    report = renascent_shift_search(preperiodic([], [1.0]), 3, 30, 0.0)
    for tol in (-1.0, -1e-300, math.nan):
        with pytest.raises(ValidationError):
            window_cluster(report, tol)


def test_cluster_nan_window_forms_its_own_cluster():
    from rrl_lab.right_limits import ShiftReport

    negs = [[0, 0], [math.nan, 0], [0, 0]]
    report = ShiftReport(half_width=2, shifts=[3, 4, 5], residuals=np.zeros(3),
                         values=np.array([[*neg, 0, 0, 0] for neg in negs], dtype=complex))
    clusters = window_cluster(report, 0.1)
    assert [c.member_shifts for c in clusters] == [[3, 5], [4]]
    assert np.isnan(clusters[1].representative.values[0])
    assert math.isnan(clusters[1].distances[0])


def as_complex(stream):
    """The same rule with its output cast to complex."""
    return CoeffStream(stream.name, lambda ks: stream.rule(ks).astype(complex),
                       stream.bound)


def traced_search(stream, w, k_max, tol):
    """(report, traced peak bytes) of one search."""
    tracemalloc.start()
    try:
        report = renascent_shift_search(stream, w, k_max, tol)
        return report, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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


@settings(max_examples=300, deadline=None)
@given(SEARCH_STREAMS, st.integers(1, 6), st.integers(1, 400), TOLS, TOLS)
def test_search_and_clusters_match_matrix_oracle(stream, w, extra, tol, group_tol):
    k_max = w + extra
    report = renascent_shift_search(stream, w, k_max, tol)
    hits = oracle_search(stream, w, k_max, tol)
    assert report.shifts == [k for k, _, _ in hits]
    assert np.array_equal(bits(report.residuals), bits([r for _, r, _ in hits]))
    for i, (_, _, values) in enumerate(hits):
        assert np.array_equal(bits(report.window(i).values), bits(values))
    clusters = window_cluster(report, group_tol)
    expected = oracle_clusters(hits, w, group_tol)
    assert [c.member_shifts for c in clusters] == [ks for _, ks, _ in expected]
    assert [c.member_shifts[0] for c in clusters] == [rep for rep, _, _ in expected]
    for c, (rep, _, dists) in zip(clusters, expected):
        values = hits[[k for k, _, _ in hits].index(rep)][2]
        assert np.array_equal(bits(c.representative.values), bits(values))
        assert np.array_equal(bits(c.distances), bits(dists))


@settings(max_examples=200, deadline=None)
@given(REAL_SEARCH_STREAMS, st.integers(1, 6), st.integers(1, 400), TOLS, TOLS)
def test_real_stream_matches_its_complex_cast_bitwise(stream, w, extra, tol, group_tol):
    # |x + 0i| = |x| and max is exact, so keeping a real stream in float64
    # moves no bit of any residual, distance or CSV row
    twin = as_complex(stream)
    k_max = w + extra
    real, cplx = (renascent_shift_search(s, w, k_max, tol) for s in (stream, twin))
    assert real.values.dtype == np.float64 and cplx.values.dtype == np.complex128
    assert real.shifts == cplx.shifts
    assert np.array_equal(bits(real.residuals), bits(cplx.residuals))
    assert np.array_equal(bits(real.values.astype(complex)), bits(cplx.values))
    clusters = [window_cluster(r, group_tol) for r in (real, cplx)]
    assert report_to_csv(real, clusters[0]) == report_to_csv(cplx, clusters[1])
    for a, b in zip(*clusters):
        assert a.member_shifts == b.member_shifts
        assert np.array_equal(bits(a.distances), bits(b.distances))


def test_hecke_stream_is_float64():
    assert hecke_stream(GOLDEN).take(50).dtype == np.float64
    assert hecke_stream(0.3, gamma=0.1).take(1).dtype == np.float64


def test_window_index_outside_half_width_rejected():
    report = renascent_shift_search(preperiodic([], [0.0, 1.0, 2.0, 3.0, 4.0]), 2, 20, 0.0)
    w = report.window(0)
    assert [w[n] for n in range(-2, 3)] == [3, 4, 0, 1, 2]
    for n in (-3, 3, -100):
        with pytest.raises(ValidationError):
            w[n]


# -- block edges: hits on the first and last shift of a block ---------------


def search_matches_oracle(stream, w, k_max, tol):
    report = renascent_shift_search(stream, w, k_max, tol)
    hits = oracle_search(stream, w, k_max, tol)
    assert report.shifts == [k for k, _, _ in hits]
    assert np.array_equal(bits(report.residuals), bits([r for _, r, _ in hits]))
    assert np.array_equal(bits(report.values), bits(np.array([v for _, _, v in hits])))
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


@pytest.mark.parametrize("cast", [lambda s: s, as_complex], ids=["real", "complex"])
def test_search_memory_follows_block_and_hits(cast):
    w, tol = 10, 1e-4  # about one hit per 10^4 shifts
    stream = cast(hecke_stream(GOLDEN))
    small, peak_small = traced_search(stream, w, 200_000, tol)
    large, peak_large = traced_search(stream, w, 2_000_000, tol)
    size = large.values.itemsize
    # a hit holds its window, residual and shift twice (per block, then
    # concatenated) and a Python int in the shift list
    per_hit = 2 * ((2 * w + 1) * size + 16) + 40
    assert len(small) < len(large) < 1000
    assert peak_large <= 5 * size * SEARCH_BLOCK + per_hit * len(large)
    assert peak_large - peak_small <= per_hit * (len(large) - len(small))


@pytest.mark.parametrize("cast", [lambda s: s, as_complex], ids=["real", "complex"])
def test_search_holds_its_windows_once(cast):
    # one hit per 100 shifts, 18 000 more at 2e6 than at 2e5: each extra hit
    # may hold its window once, its residual and shift twice and a Python
    # int; a second copy of the windows (the blocks' arrays next to their
    # concatenation) would break this by 3 MB real and 6 MB complex
    w, tol = 10, 1e-2
    stream = cast(hecke_stream(GOLDEN))
    small, peak_small = traced_search(stream, w, 200_000, tol)
    large, peak_large = traced_search(stream, w, 2_000_000, tol)
    hits = len(large) - len(small)
    per_hit = (2 * w + 1) * large.values.itemsize + 2 * 16 + 40
    assert hits > 15_000
    assert peak_large - peak_small <= per_hit * hits


def search_under_512_mb(stream: str, w: int, k_max: int, tol: str
                        ) -> subprocess.CompletedProcess:
    """The search in a subprocess capped at 512 MB of address space, so a
    regression is a MemoryError, not a machine-wide out-of-memory."""
    script = textwrap.dedent(f"""
        import math, resource, sys
        limit = 1 << 29  # 512 MB
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        from rrl_lab.dynamics import hecke_stream
        from rrl_lab.errors import CapExceeded
        from rrl_lab.right_limits import renascent_shift_search
        from rrl_lab.streams import CoeffStream
        try:
            renascent_shift_search({stream}, {w}, {k_max}, {tol})
        except CapExceeded as exc:
            print(exc)
            sys.exit(3)
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
