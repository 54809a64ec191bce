import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import QC, rational_function_of_measure, series_divide
from rrl_lab.circle import CirclePoint
from rrl_lab.errors import DuplicatePoint, PoleCollision, ValidationError
from rrl_lab.psp import (
    EVAL_BLOCK,
    PoleMeasure,
    fourier_psp,
    moments,
    psp_eval,
    taylor_coefficient,
    taylor_inner,
    uniform_roots_measure,
)

ATOM_1 = PoleMeasure([(CirclePoint.exact(0, 1), 1.0)])
ATOM_HALF = PoleMeasure([(CirclePoint.exact(1, 2), 1.0)])


def test_eval_single_pole_at_two():
    assert psp_eval(ATOM_1, 2.0) == 1.0


def test_eval_pole_at_minus_one_from_origin():
    assert abs(psp_eval(ATOM_HALF, 0.0) - 1.0) < 1e-15


def test_eval_fourth_roots_exact_rational_oracle():
    # exact arithmetic: sum over i^k of (1/4)/(2 - i^k)
    i = QC(0, 1)
    one = QC(1)
    z = QC(2)
    quarter = QC(Fraction(1, 4))
    lam = one
    total = QC(0)
    for _ in range(4):
        total = total + quarter / (z - lam)
        lam = lam * i
    assert total.re == Fraction(8, 15) and total.im == 0
    got = psp_eval(uniform_roots_measure(4), 2.0)
    assert abs(got - float(Fraction(8, 15))) < 1e-15


def test_eval_pole_collision():
    with pytest.raises(PoleCollision):
        psp_eval(ATOM_1, 1.0 + 1e-14)
    with pytest.raises(PoleCollision):
        psp_eval(ATOM_1, 1.0)


def eval_peak(m, z) -> int:
    """Traced peak bytes of psp_eval(m, z), the smaller of two runs (an
    interpreter allocation can land in either)."""
    peaks = []
    for _ in range(2):
        tracemalloc.start()
        try:
            psp_eval(m, z)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return min(peaks)


def test_eval_memory_bounded_by_output_and_block_temporaries():
    # the complex output takes 16 B a point; the accumulators and the rest
    # are a fixed set of temporaries over one block of points, whatever the
    # number of points or atoms
    n = 2 * 10**5
    z = 0.5 * np.exp(1j * np.linspace(0.0, 6.0, n))
    block_temps = 16 * 8 * EVAL_BLOCK
    peak = eval_peak(uniform_roots_measure(46), z)
    assert peak < 16 * n + block_temps
    assert eval_peak(uniform_roots_measure(92), z) - peak < block_temps


def moments_peak(fn) -> int:
    """Traced peak bytes of fn(), the smaller of two runs."""
    peaks = []
    for _ in range(2):
        tracemalloc.start()
        try:
            fn()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return min(peaks)


def test_moments_memory_bounded_whatever_the_atoms():
    # rows are built a block at a time and residues kept within
    # max(cells, ROW_BLOCK) entries: 2000 atoms with rows of up to 4000
    # entries (71 MB of rows at once) hold under 4 MB, and 399 orders
    # 2 .. 400 at 20001 cells (one residue row each) under 12 MB
    m = uniform_roots_measure(2000)
    assert moments_peak(lambda: moments(m, [0, 1], range(-2000, 2001))) <= 4 * 10**6
    m = PoleMeasure([(CirclePoint.exact(1, q), 1.0) for q in range(2, 401)])
    assert moments_peak(lambda: taylor_inner(m, 20000)) <= 12 * 10**6


def test_taylor_inner_single_pole():
    assert np.all(taylor_inner(ATOM_1, 10) == -1.0)


def test_taylor_inner_alternating():
    # 1/(z+1) = sum (-1)^n z^n on |z|<1 (geometric oracle)
    b = taylor_inner(ATOM_HALF, 10)
    assert np.allclose(b, [(-1.0) ** n for n in range(11)], atol=0, rtol=0)


def test_taylor_inner_consistency_with_eval():
    rng = np.random.default_rng(3)
    for _ in range(5):
        d = int(rng.integers(1, 5))
        atoms = []
        angles = rng.choice(60, size=d, replace=False)
        for a in angles:
            atoms.append(
                (CirclePoint.exact(int(a), 60),
                 complex(rng.normal(), rng.normal()))
            )
        m = PoleMeasure(atoms)
        n = 200
        b = taylor_inner(m, n)
        val = sum(b[k] * 0.5**k for k in range(n + 1))
        tail = m.total_mass * 0.5**n
        assert abs(val - psp_eval(m, 0.5)) < 1e-10 + tail


def test_outer_series_consistency_with_eval():
    # outer coefficients b_{-k} = -M(k - 1), k = 1 .. n
    m = PoleMeasure(
        [(CirclePoint.exact(0, 3), 0.5), (CirclePoint.exact(1, 3), -1.0j)]
    )
    n = 120
    b = -moments(m, [0], range(n))[0]
    val = -sum(b[k - 1] * 3.0 ** (-k) for k in range(1, n + 1))
    tail = m.total_mass * 3.0 ** (-n)
    assert abs(val - psp_eval(m, 3.0)) < 1e-10 + tail


def test_taylor_against_long_division_oracle():
    rng = np.random.default_rng(17)
    for _ in range(10):
        d = int(rng.integers(1, 4))
        ks = rng.choice(24, size=d, replace=False)
        atoms = [
            (CirclePoint.exact(int(k), 24), complex(rng.normal(), rng.normal()))
            for k in ks
        ]
        m = PoleMeasure(atoms)
        pairs = [(p.value(), w) for p, w in m.atoms]
        p_poly, q_poly = rational_function_of_measure(pairs)
        oracle = series_divide(list(p_poly), list(q_poly), 30)
        assert np.allclose(taylor_inner(m, 29), oracle, atol=1e-12)


def test_inner_outer_geometric_error_bound():
    m = uniform_roots_measure(6)
    for n in (10, 20, 40):
        b = taylor_inner(m, n)
        val = sum(b[k] * 0.5**k for k in range(n + 1))
        err = abs(val - psp_eval(m, 0.5))
        assert err <= m.total_mass * 0.5**n / (1 - 0.5) * 2.0


def test_fourier_constant_observable():
    m = fourier_psp([(0, 2.5)], theta=0.123)
    assert len(m) == 1
    pt, w = m.atoms[0]
    assert pt.angle == 0.0 and w == -2.5
    assert np.allclose(taylor_inner(m, 5), 2.5)


def test_fourier_cosine_observable():
    theta = math.sqrt(2) - 1
    m = fourier_psp([(1, 0.5), (-1, 0.5)], theta)
    b = taylor_inner(m, 40)
    expect = [math.cos(2 * math.pi * n * theta) for n in range(41)]
    assert np.allclose(b, expect, atol=1e-12)


def test_fourier_rational_theta_single_pole():
    m = fourier_psp([(1, 1.0)], theta=0.25)
    assert m.points[0].angle == 0.75


def test_fourier_duplicate_pole():
    with pytest.raises(DuplicatePoint):
        fourier_psp([(0, 1.0), (4, 1.0)], theta=0.25)


def test_moment_vector_nonzero_small_sample():
    # desk-scale injectivity: d <= 8 atoms, moments 0..d-1 never all vanish
    from rrl_lab.diophantine import moment_sequence

    rng = np.random.default_rng(23)
    for _ in range(200):
        d = int(rng.integers(1, 9))
        angles = np.sort(rng.random(d))
        if d > 1 and np.min(np.diff(angles)) < 1e-3:
            continue
        weights = rng.normal(size=d) + 1j * rng.normal(size=d)
        weights /= np.max(np.abs(weights))
        m = PoleMeasure(
            [(CirclePoint.real(float(a)), complex(w))
             for a, w in zip(angles, weights)]
        )
        assert np.max(np.abs(moment_sequence(m, d - 1))) > 1e-9


def test_measure_rejects_duplicates_and_bad_tail():
    with pytest.raises(DuplicatePoint):
        PoleMeasure([(CirclePoint.exact(0, 1), 1.0), (CirclePoint.exact(2, 2), 2.0)])
    with pytest.raises(ValidationError):
        PoleMeasure([(CirclePoint.exact(0, 1), 1.0)], tail_mass=-1.0)


def test_measure_sorted_and_mass():
    m = PoleMeasure([(CirclePoint.exact(3, 4), 2.0), (CirclePoint.exact(1, 4), -1.0)])
    assert [p.angle for p in m.points] == [Fraction(1, 4), Fraction(3, 4)]
    assert m.total_mass == 3.0


def test_serialization_roundtrip():
    m = PoleMeasure(
        [(CirclePoint.exact(1, 3), 1.5 - 2.0j), (CirclePoint.real(0.1234), 0.25j)],
        tail_mass=0.01,
    )
    back = PoleMeasure.loads(m.dumps())
    assert back.tail_mass == 0.01
    assert [p.angle for p in back.points] == [p.angle for p in m.points]
    assert [w for _, w in back.atoms] == [w for _, w in m.atoms]
    # exact finite measures serialize as a bare JSON array
    flat = uniform_roots_measure(2)
    assert flat.dumps().startswith("[")
    assert PoleMeasure.loads(flat.dumps()).total_mass == 1.0


def test_taylor_coefficient_exact_shift_identity():
    # shifting by the lcm of the orders reproduces coefficients bitwise
    m = PoleMeasure(
        [(CirclePoint.exact(1, 4), 0.3 + 0.1j), (CirclePoint.exact(1, 6), -0.7)]
    )
    for n in range(-5, 6):
        a = taylor_coefficient(m, n)
        b = taylor_coefficient(m, n + 12)
        assert a.real == b.real and a.imag == b.imag
