"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines;
tolerances and runtime limits are asserted, not just reported.
"""

import cmath
import math
import time

import numpy as np

from conftest import GOLDEN, SQRT2_M1, SQRT3_M1
from rrl_lab.circle import CirclePoint, roots_of_unity
from rrl_lab.diophantine import (
    balance_completion,
    dirichlet_approx,
    factorial_shifts,
    is_eps_balanced,
    moment_sequence,
    pigeonhole_shift,
    q_poly,
)
from rrl_lab.dynamics import (
    UnimodalMap,
    feigenbaum_product,
    hecke_outer_eval,
    hecke_stream,
    kneading_determinant,
    kneading_sequence,
    occurrence_times,
    smallest_real_zero,
    thue_morse,
)
from rrl_lab.psp import PoleMeasure
from rrl_lab.right_limits import renascent_shift_search, verify_rrl_on_psp, window_cluster


def _report(num: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_01_root_of_unity_exactness():
    t0 = time.perf_counter()
    atoms = {}
    weights_4 = [0.25, -0.5, 0.125, 1.0]
    weights_6 = [1.0 / 3.0, 0.2, -0.4, 2.0 / 7.0, 0.6, -0.75]
    for q, ws in ((4, weights_4), (6, weights_6)):
        for p, w in zip(range(q), ws):
            pt = CirclePoint.exact(p, q)
            prev = atoms.get(pt.angle, (pt, 0.0))[1]
            atoms[pt.angle] = (pt, prev + w)
    m = PoleMeasure(list(atoms.values()))
    shifts = factorial_shifts(8)[3:]  # 4!, 5!, 6!, 7!, 8!
    rows = verify_rrl_on_psp(m, shifts, 32)
    elapsed = time.perf_counter() - t0
    ok = all(rp == 0.0 and rn == 0.0 for _, rp, rn in rows) and elapsed < 1.0
    _report(1, "psp root-of-unity rrl exactness", ok)


def test_criterion_02_general_support_pigeonhole_bound():
    t0 = time.perf_counter()
    m = PoleMeasure(
        [
            (CirclePoint.real(SQRT2_M1), 1.0),
            (CirclePoint.real(SQRT3_M1), 0.5j),
        ]
    )
    ok = True
    for j in range(2, 7):
        k = pigeonhole_shift(m.points, j)
        rows = verify_rrl_on_psp(m, [k], 32)
        _, rp, rn = rows[0]
        ok = ok and max(rp, rn) <= m.total_mass * 2.0 * math.pi / j
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    _report(2, "psp general-support rrl residual bound", ok)


def test_criterion_03_hecke_unique_continuation_identity():
    n = 200
    ok = True
    for theta in (GOLDEN, SQRT2_M1):
        for z in (2.0 + 0j, 3.0 * cmath.exp(1j * math.pi / 5.0), 1.5 + 1.5j):
            lhs = -sum(
                ((theta * nn) % 1.0) * z**nn for nn in range(-n, 0)
            )
            rhs = hecke_outer_eval(theta, z, n)
            ok = ok and abs(lhs - rhs) <= 1e-8
    _report(3, "hecke continuation identity", ok)


def test_criterion_04_hecke_two_continuations():
    theta = GOLDEN
    tol = 5e-3
    stream = hecke_stream(theta, gamma=theta)  # a_k = {(k+1) theta}
    report = renascent_shift_search(stream, 10, 100_000, tol)
    clusters = window_cluster(report, tol)
    ok = len(clusters) == 2
    if ok:
        r0, r1 = stream.take(21, start=report.shifts[clusters.leaders] - 10)
        d = np.abs(r0 - r1)
        ok = abs(d[10 - 1] - 1.0) <= 2 * tol  # entry n = -1
        others = np.delete(d, 10 - 1)
        ok = ok and np.max(others) <= 2 * tol
    _report(4, "hecke two-continuation detection", ok)


def test_criterion_05_occurrence_times_identity():
    theta = SQRT2_M1
    g1, g2 = 0.2, 0.7
    n = 10_000
    times = set(int(k) for k in occurrence_times(theta, g1, g2, n))
    ok = True
    for k in range(n + 1):
        f = (k * theta) % 1.0
        if min(abs(f - (1 - g2)), abs(f - (1 - g1))) < 1e-9:
            continue  # boundary indices excluded
        coeff = ((g1 + k * theta) % 1.0) - ((g2 + k * theta) % 1.0) + (g2 - g1)
        ok = ok and abs(coeff - (1.0 if k in times else 0.0)) <= 1e-10
    _report(5, "occurrence-times coefficient identity", ok)


def test_criterion_06_thue_morse_product():
    prod = feigenbaum_product(1023)
    signs = (-1) ** thue_morse(1023)
    ok = bool(np.array_equal(prod, signs))
    _report(6, "thue-morse lacunary product", ok)


def test_criterion_07_entropy():
    t0 = time.perf_counter()
    eps = kneading_sequence(UnimodalMap.tent(), 64)
    d = kneading_determinant(eps).astype(float)
    tent = smallest_real_zero(d, tol=1e-7)
    ok = (
        tent.status == "zero"
        and abs(tent.root - 0.5) <= 1e-6
        and abs(tent.entropy - math.log(2.0)) <= 2e-6
    )
    feig = smallest_real_zero(feigenbaum_product(2047).astype(float), tol=1e-6)
    ok = ok and feig.status == "no-zero" and feig.r_max >= 0.99
    ok = ok and feig.entropy == 0.0
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _report(7, "kneading entropy (tent exact, period-doubling zero)", ok)


def test_criterion_08_balancedness_suite():
    t0 = time.perf_counter()
    ok = True
    for m in range(1, 65):
        balanced, defect = is_eps_balanced(roots_of_unity(m), 0.5)
        ok = ok and balanced and defect == 0.0
    bs = balance_completion([CirclePoint.real(SQRT2_M1)], eps=0.5)
    ok = ok and bs.defect <= 0.5 and bs.n_roots <= 100_000
    m_size = len(bs.points)
    grid = np.exp(2j * np.pi * np.arange(4096) / 4096)
    for lam in bs.points:
        q = q_poly(lam, bs.points)
        ok = ok and np.max(np.abs(q(grid))) <= m_size * (2.0 + bs.epsilon) + 1e-9
        ok = ok and abs(q(lam.value())) >= m_size * (1.0 - bs.epsilon) - 1e-9
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _report(8, "eps-balancedness suite", ok)


def test_criterion_09_dirichlet_oracle():
    rng = np.random.default_rng(2024)
    ok = True
    count = 0
    for m in (1, 2):
        for big_m in (10, 100):
            for _ in range(25):
                thetas = [float(t) for t in rng.random(m)]
                n, ps = dirichlet_approx(thetas, big_m)
                bound = big_m ** (-1.0 / m) + 1e-12
                ok = ok and 1 <= n <= big_m
                for t, p in zip(thetas, ps):
                    ok = ok and abs(n * t - p) <= bound
                witnesses = [
                    nn
                    for nn in range(1, big_m + 1)
                    if all(abs(nn * t - round(nn * t)) <= bound for t in thetas)
                ]
                ok = ok and n in witnesses
                count += 1
    ok = ok and count == 100
    _report(9, "dirichlet bounds vs exhaustive oracle", ok)


def test_criterion_10_moment_injectivity():
    rng = np.random.default_rng(77)
    ok = True
    trials = 0
    while trials < 1000:
        d = int(rng.integers(1, 9))
        angles = np.sort(rng.random(d))
        if d > 1 and np.min(np.diff(angles)) < 1e-3:
            continue
        w = rng.normal(size=d) + 1j * rng.normal(size=d)
        w /= np.max(np.abs(w))
        m = PoleMeasure(
            [(CirclePoint.real(float(a)), complex(x)) for a, x in zip(angles, w)]
        )
        ok = ok and np.max(np.abs(moment_sequence(m, d - 1))) > 1e-9
        trials += 1
    _report(10, "moment operator injectivity at desk scale", ok)
