import math

import numpy as np
import pytest

from rrl_lab.boundary import arc_l1_growth
from rrl_lab.circle import CirclePoint
from rrl_lab.errors import ValidationError
from rrl_lab.psp import PoleMeasure, uniform_roots_measure
from rrl_lab.recipes import parse_list, recipe_defaults, recipe_probe_arc

# 1/(1 - z) as a pole series: the one atom -1 at z = 1
ONE_OVER_ONE_MINUS_Z = PoleMeasure([(CirclePoint.exact(0, 1), -1.0)])


def test_default_radius_schedule():
    # probe-arc's default text reads as 1 - 10^(-k/2), k = 2..6, bit for bit
    radii = parse_list(recipe_defaults(recipe_probe_arc)["radii"], float)
    assert radii == [1.0 - 10.0 ** (-k / 2.0) for k in range(2, 7)]


def test_single_pole_off_arc_is_bounded():
    # 1/(1-z) probed on an arc away from z = 1; closed-form integrand oracle
    radii = [0.9, 0.99, 0.999]
    probe = arc_l1_growth(ONE_OVER_ONE_MINUS_Z, math.pi / 2, math.pi, radii, quadrature_n=256)
    assert probe.ratio < 2.0
    omegas = np.linspace(math.pi / 2, math.pi, 257)
    for r, integral in zip(radii, probe.integrals):
        closed_form = 1.0 / np.sqrt(1.0 - 2.0 * r * np.cos(omegas) + r * r)
        oracle = np.trapezoid(closed_form, omegas)
        assert abs(integral - oracle) < 1e-12


def test_dense_pole_arc_blows_up():
    m = uniform_roots_measure(16)
    probe = arc_l1_growth(
        m, 0.0, math.pi / 4,
        [0.9, 0.968, 0.99, 0.9968, 0.999], quadrature_n=2048,
    )
    assert probe.ratio > 5.0
    assert np.all(np.diff(probe.integrals) > 0)


def test_analytic_across_arc_stays_below_threshold():
    # poles confined to the far side of the circle; probe the clean side
    m = PoleMeasure(
        [(CirclePoint.exact(1, 2), 1.0), (CirclePoint.exact(7, 12), -0.5j)]
    )
    probe = arc_l1_growth(
        m, -math.pi / 8, math.pi / 8,
        [0.9, 0.99, 0.999], quadrature_n=256,
    )
    assert probe.ratio < 3.0


def test_quadrature_refinement_stability():
    cases = [
        (ONE_OVER_ONE_MINUS_Z, math.pi / 2, math.pi),
        (uniform_roots_measure(4), 1.0, 2.0),
    ]
    for m, w1, w2 in cases:
        a = arc_l1_growth(m, w1, w2, [0.9, 0.95], quadrature_n=128)
        b = arc_l1_growth(m, w1, w2, [0.9, 0.95], quadrature_n=256)
        assert np.all(np.abs(b.integrals - a.integrals) < 0.01 * np.abs(b.integrals))


def test_probe_validations():
    m = ONE_OVER_ONE_MINUS_Z
    with pytest.raises(ValidationError):
        arc_l1_growth(m, 1.0, 0.5, [0.9], 256)
    with pytest.raises(ValidationError):  # longer than one turn
        arc_l1_growth(m, 0.0, 2.0 * math.pi + 1e-9, [0.9], 256)
    with pytest.raises(ValidationError):
        arc_l1_growth(m, 0.0, 1.0, [0.9, 0.5], 256)
    with pytest.raises(ValidationError):
        arc_l1_growth(m, 0.0, 1.0, [0.9, 1.5], 256)
    for radii in ([math.nan], [0.5, math.nan], [math.nan, 0.5]):
        with pytest.raises(ValidationError):
            arc_l1_growth(m, 0.0, 1.0, radii, 256)
    with pytest.raises(ValidationError):
        arc_l1_growth(m, 0.0, 1.0, [0.5, 0.9], quadrature_n=32)

