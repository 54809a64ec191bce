import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from rrl_lab.circle import CirclePoint, frac_part, roots_of_unity, turn_to_complex
from rrl_lab.errors import ValidationError


def test_quarter_turn_values_are_exact():
    assert turn_to_complex(Fraction(0)) == 1.0 + 0.0j
    assert turn_to_complex(Fraction(1, 4)) == 1j
    assert turn_to_complex(Fraction(1, 2)).real == -1.0
    assert turn_to_complex(Fraction(1, 2)).imag == 0.0
    assert turn_to_complex(Fraction(3, 4)) == -1j
    assert turn_to_complex(0.5).real == -1.0
    assert turn_to_complex(0.5).imag == 0.0


def test_turn_matches_exp():
    rng = np.random.default_rng(7)
    for t in rng.random(200):
        ref = cmath.exp(2j * math.pi * t)
        assert abs(turn_to_complex(float(t)) - ref) < 2e-15


def test_identical_angles_identical_bits():
    for t in (Fraction(1, 3), Fraction(5, 7), 0.1234567, 0.9999):
        a = turn_to_complex(t)
        b = turn_to_complex(t)
        assert a.real == b.real and a.imag == b.imag


def test_exact_power_is_modular():
    rng = np.random.default_rng(11)
    for _ in range(200):
        q = int(rng.integers(1, 50))
        p = int(rng.integers(0, q))
        k = int(rng.integers(-10**9, 10**9))
        pt = CirclePoint.exact(p, q)
        pk = pt.power(k)
        assert pk.is_exact
        assert pk.angle == Fraction((p * k) % q, q)


def test_exact_power_handles_factorial_exponents():
    pt = CirclePoint.exact(1, 12)
    assert pt.power(math.factorial(20)).angle == 0


def test_power_matches_complex_power():
    pt = CirclePoint.real(0.1234)
    for k in (1, 2, 5, -3):
        assert abs(pt.power(k).value() - pt.value() ** k) < 1e-12


def test_angle_normalization():
    assert CirclePoint(Fraction(7, 4)).angle == Fraction(3, 4)
    assert CirclePoint.exact(6, 4).angle == Fraction(1, 2)
    assert CirclePoint.real(1.25).angle == 0.25
    assert CirclePoint.real(-0.25).angle == 0.75


def test_exact_and_float_same_point_compare_equal():
    assert CirclePoint(Fraction(1, 2)) == CirclePoint(0.5)
    assert CirclePoint(Fraction(1, 3)) != CirclePoint(1.0 / 3.0)


def test_roots_of_unity_sorted_distinct():
    pts = roots_of_unity(12)
    angles = [p.angle for p in pts]
    assert angles == sorted(angles)
    assert len(set(angles)) == 12
    assert all(p.power(12).angle == 0 for p in pts)


def test_frac_part_snap():
    assert frac_part(0.9999999999999999) == 0.0
    assert frac_part(3.0) == 0.0
    assert frac_part(-0.25) == 0.75


def test_bad_angle_type_rejected():
    with pytest.raises(TypeError):
        CirclePoint("0.5")


def test_non_finite_angle_rejected():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError):
            CirclePoint.real(bad)
