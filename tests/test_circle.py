import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rrl_lab.circle import (
    CirclePoint,
    frac_part,
    roots_of_unity,
    sorted_distinct,
    turn_to_complex,
)
from rrl_lab.errors import DuplicatePoint, ValidationError
from rrl_lab.psp import PoleMeasure


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


def _fraction_turn_reference(t: Fraction) -> complex:
    """turn_to_complex with its quadrant reduction done in Fraction arithmetic."""
    q, r = divmod(4 * t, 1)
    quadrant = int(q) % 4
    r_f = float(r) / 4.0
    if r_f <= 0.125:
        x = math.cos(2.0 * math.pi * r_f)
        y = math.sin(2.0 * math.pi * r_f)
    else:
        s = 0.25 - r_f
        x = math.sin(2.0 * math.pi * s)
        y = math.cos(2.0 * math.pi * s)
    return (complex(x, y), complex(-y, x), complex(-x, -y), complex(y, -x))[quadrant]


@given(st.integers(-3 * 10**18, 3 * 10**18), st.integers(1, 10**18))
@example(1, 4)
@example(3, 8)
@example(-1, 997)
@example(163, 164506)
def test_fraction_turn_matches_fraction_reduction_bitwise(p, q):
    t = Fraction(p, q)
    got, ref = turn_to_complex(t), _fraction_turn_reference(t)
    # hex tells the signed zeros apart
    assert (got.real.hex(), got.imag.hex()) == (ref.real.hex(), ref.imag.hex())


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
    # a negative denominator denotes the same rational
    assert CirclePoint.exact(1, -3) == CirclePoint.exact(2, 3)
    with pytest.raises(ValidationError, match="denominator must be nonzero"):
        CirclePoint.exact(1, 0)


def test_exact_and_float_same_point_compare_equal():
    assert CirclePoint(Fraction(1, 2)) == CirclePoint(0.5)
    assert CirclePoint(Fraction(1, 3)) != CirclePoint(1.0 / 3.0)


def test_roots_of_unity_sorted_distinct():
    pts = roots_of_unity(12)
    angles = [p.angle for p in pts]
    assert angles == sorted(angles)
    assert len(set(angles)) == 12
    assert all(p.power(12).angle == 0 for p in pts)


# angles whose floats tie: distinct Fractions with q > 2^53 that round to one
# float, and floats equal to exact angles
TIED_ANGLES = [Fraction(1, 2**60), Fraction(1, 2**60 + 1), Fraction(2, 2**61 + 1),
               float(Fraction(1, 2**60)), Fraction(1, 2), 0.5, Fraction(1, 4), 0.25,
               Fraction(1, 3), 1.0 / 3.0, Fraction(3, 2**62), 0.0, Fraction(0)]
ANGLES = st.one_of(
    st.sampled_from(TIED_ANGLES),
    st.builds(lambda q, p: Fraction(p % q, q), st.integers(1, 2**64), st.integers(0, 2**64)),
    st.floats(0.0, 1.0, exclude_max=True),
)


@given(st.lists(ANGLES, max_size=12))
@example([Fraction(1, 2**60), Fraction(1, 2**60 + 1)])
@example([0.5, Fraction(1, 2)])
def test_sorted_distinct_is_the_angle_sort(angles):
    points = [CirclePoint(a) for a in angles]
    oracle = sorted(points, key=lambda p: p.angle)
    if any(a.angle == b.angle for a, b in zip(oracle, oracle[1:])):
        with pytest.raises(DuplicatePoint):
            sorted_distinct(points)
        with pytest.raises(DuplicatePoint):
            PoleMeasure([(p, 1.0) for p in points])
        return
    assert [id(p) for p in sorted_distinct(points)] == [id(p) for p in oracle]
    # a measure keeps each weight with its point, in the same order
    atoms = PoleMeasure([(p, complex(i)) for i, p in enumerate(points)]).atoms
    assert [(id(p), w) for p, w in atoms] == [(id(p), complex(points.index(p))) for p in oracle]


def test_frac_part_snap():
    assert frac_part(0.9999999999999999) == 0.0
    assert frac_part(3.0) == 0.0
    assert frac_part(-0.25) == 0.75


def test_bad_angle_type_rejected():
    with pytest.raises(TypeError):
        CirclePoint("0.5")


def test_non_finite_angle_rejected():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError, match=f"got {bad!r}$"):
            CirclePoint.real(bad)
