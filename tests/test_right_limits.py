import math

import numpy as np
import pytest

from conftest import GOLDEN
from rrl_lab.circle import CirclePoint
from rrl_lab.dynamics import hecke_stream
from rrl_lab.errors import ValidationError
from rrl_lab.psp import PoleMeasure, psp_eval, uniform_roots_measure
from rrl_lab.right_limits import (
    generating_functions,
    renascent_shift_search,
    report_to_csv,
    verify_rrl_on_psp,
    window_cluster,
)
from rrl_lab.streams import periodic, preperiodic


def test_periodic_search_finds_exact_multiples():
    report = renascent_shift_search(periodic([0.0, 1.0]), 5, 20, 0.0)
    assert report.shifts == [6, 8, 10, 12, 14, 16, 18, 20]
    w = report.windows[0]
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
    s = periodic([1.0])
    with pytest.raises(ValidationError):
        renascent_shift_search(s, 0, 10, 0.1)
    with pytest.raises(ValidationError):
        renascent_shift_search(s, 5, 5, 0.1)
    with pytest.raises(ValidationError):
        renascent_shift_search(s, 5, 10, -0.1)


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
    report = renascent_shift_search(periodic([1.0]), 3, 30, 0.0)
    clusters = window_cluster(report, 1e-12)
    assert len(clusters) == 1
    assert np.all(clusters[0].representative.values == 1.0)
    assert clusters[0].count == len(report)


def test_cluster_empty_report_rejected():
    report = renascent_shift_search(preperiodic([5.0], [0.0]), 2, 50, 1e-9)
    with pytest.raises(ValidationError):
        window_cluster(report, 0.1)


def test_generating_functions_constant_window():
    report = renascent_shift_search(periodic([1.0]), 6, 20, 0.0)
    inner, outer = generating_functions(report.windows[0])
    w = 6
    assert abs(inner(0.5) - (2.0 - 2.0 * 0.5 ** (w + 1))) < 1e-15
    assert abs(outer(2.0) - -(1.0 - 2.0**-w)) < 1e-15
    # tail bounds: B |z|^(W+1)/(1-|z|) inner, B |z|^(-W-1)/(1-1/|z|) outer
    assert abs(inner.truncation_bound(0.5) - 0.5**7 / 0.5) < 1e-18
    assert abs(outer.truncation_bound(2.0) - 2.0**-7 / 0.5) < 1e-18
    assert math.isinf(inner.truncation_bound(2.0))
    assert math.isinf(outer.truncation_bound(0.5))


def test_generating_functions_alternating_window():
    report = renascent_shift_search(periodic([1.0, -1.0]), 8, 40, 0.0)
    inner, _ = generating_functions(report.windows[0])
    # geometric oracle: 1/(1+z) at z = 0.5
    assert abs(inner(0.5) - 2.0 / 3.0) <= inner.truncation_bound(0.5) + 1e-15


def test_generating_functions_match_pole_series():
    m = PoleMeasure([(CirclePoint.exact(0, 1), -1.0)])  # -1/(z-1) = 1/(1-z)
    from rrl_lab.psp import taylor_coefficient
    from rrl_lab.right_limits import Window

    w = 12
    values = np.array([taylor_coefficient(m, n) for n in range(-w, w + 1)])
    window = Window(half_width=w, values=values, shift=0, residual=0.0)
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
    clusters = window_cluster(report, report.tol)
    assert len(clusters) == 2 and len(report) > 100
    lines = ["shift,residual_pos,residual_neg_vs_cluster,cluster_id"]
    assignment = {}
    for cid, cl in enumerate(clusters):
        rep_neg = cl.representative.negative_side()
        for shift in cl.member_shifts:
            w = next(x for x in report.windows if x.shift == shift)
            assignment[shift] = (cid, float(np.max(np.abs(w.negative_side() - rep_neg))))
    for w in report.windows:
        cid, d = assignment[w.shift]
        lines.append(f"{w.shift},{w.residual!r},{d!r},{cid}")
    assert report_to_csv(report) == "\n".join(lines) + "\n"


def test_report_csv_shape():
    report = renascent_shift_search(periodic([0.0, 1.0]), 3, 12, 0.0)
    text = report_to_csv(report)
    lines = text.strip().split("\n")
    assert lines[0] == "shift,residual_pos,residual_neg_vs_cluster,cluster_id"
    assert len(lines) == 1 + len(report)
    first = lines[1].split(",")
    assert first[0] == "4" and first[3] == "0"


def test_report_csv_empty_report():
    report = renascent_shift_search(preperiodic([5.0], [0.0]), 2, 40, 1e-9)
    text = report_to_csv(report)
    assert text.strip() == "shift,residual_pos,residual_neg_vs_cluster,cluster_id"
