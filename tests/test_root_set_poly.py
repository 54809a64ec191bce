"""The root-set polynomial P_F against the generic angle-order expansion.

poly_from_roots builds P_F from X^N - 1 by synthetic division and
multiplication when more than half of F lies on the N-th roots of unity
R_N.  The oracles here expand prod (X - mu) over all of F in angle order:
in Z[zeta_L] for exact sets (compared bit for bit) and in mpmath for float
and mixed sets.  The float angle-order np.convolve expansion is no oracle
past N ~ 20: on R_40 its coefficients are off by 7e-8, because its partial
products reach 5e4.  Float and mixed sets are also compared bit for bit
with the float plan restated here, on both routes and for q_poly.
"""

import math
import subprocess
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cli_under_512_mb
from rrl_lab import cyclotomic as cyc
from rrl_lab import diophantine
from rrl_lab.circle import CirclePoint, roots_of_unity, turn_to_complex
from rrl_lab.diophantine import (
    balance_completion,
    is_eps_balanced,
    poly_from_roots,
    q_poly,
)
from rrl_lab.errors import RrlLabError
from rrl_lab.recipes import NAMED_THETAS

SETTINGS = settings(max_examples=40, deadline=None)


def bits(values) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(values, dtype=complex)).view(np.uint64)


def in_angle_order(points):
    return sorted(points, key=lambda p: p.angle)


def exact_oracle(points) -> np.ndarray:
    exps, lcm = cyc.exact_exponents(in_angle_order(points))
    return cyc.to_complex(cyc.product_from_roots(exps, lcm), lcm)


def convolve_oracle(points) -> np.ndarray:
    coeffs = np.array([1.0 + 0j])
    for p in in_angle_order(points):
        coeffs = np.convolve(coeffs, np.array([-p.value(), 1.0 + 0j]))
    return coeffs


def mp_oracle(points, dps: int) -> list:
    """prod (X - mu) in angle order with mpmath at dps digits, ascending."""
    with mpmath.workdps(dps):
        coeffs = [mpmath.mpc(1)]
        for p in in_angle_order(points):
            turns = (mpmath.mpf(p.angle.numerator) / p.angle.denominator if p.is_exact
                     else mpmath.mpf(p.angle))
            mu = mpmath.expjpi(2 * turns)
            nxt = [mpmath.mpc(0)] * (len(coeffs) + 1)
            for k, c in enumerate(coeffs):
                nxt[k + 1] += c
                nxt[k] -= mu * c
            coeffs = nxt
        return coeffs


@st.composite
def division_path_sets(draw, exact_only, max_missing):
    """R_N minus m < N/2 roots, plus m points off R_N: exact ones p/q (one q,
    so that L = lcm(N, q) stays small) and, unless exact_only, floats."""
    n = draw(st.integers(1, 40))
    q = draw(st.integers(2, 12).filter(lambda q: n % q and math.lcm(n, q) <= 240))
    pool = sorted({Fraction(p, q) for p in range(1, q)} - {Fraction(r, n) for r in range(n)})
    m_max = min((n - 1) // 2, max_missing, len(pool) if exact_only else n)
    m = draw(st.integers(0, m_max))
    missing = draw(st.sets(st.integers(0, n - 1), min_size=m, max_size=m))
    points = [CirclePoint(Fraction(r, n)) for r in range(n) if r not in missing]
    n_exact = m if exact_only else draw(st.integers(0, min(m, len(pool))))
    points += [CirclePoint(a) for a in draw(st.lists(
        st.sampled_from(pool), min_size=n_exact, max_size=n_exact, unique=True))]
    angles = {p.angle for p in points}
    points += draw(st.lists(
        st.floats(0.0, 1.0, exclude_max=True).map(CirclePoint.real).filter(
            lambda p: p.angle not in angles),
        min_size=m - n_exact, max_size=m - n_exact, unique_by=lambda p: p.angle))
    return points


@SETTINGS
@given(division_path_sets(exact_only=True, max_missing=19))
def test_exact_division_path_is_bitwise_the_generic_product(points):
    assert np.array_equal(bits(poly_from_roots(points).coeffs), bits(exact_oracle(points)))


@SETTINGS
@given(division_path_sets(exact_only=False, max_missing=3))
def test_float_and_mixed_division_path_matches_the_expansion(points):
    got = poly_from_roots(points).coeffs
    want = mp_oracle(points, 30)
    assert max(abs(complex(g) - w) for g, w in zip(got, want)) <= 1e-12


def divide_root(coeffs, root) -> np.ndarray:
    """Quotient of P(X) / (X - root), remainder dropped."""
    out = np.zeros(len(coeffs) - 1, dtype=complex)
    carry = coeffs[-1]
    for k in range(len(coeffs) - 2, -1, -1):
        out[k] = carry
        carry = coeffs[k] + root * carry
    return out


def float_plan(points, divisor=None) -> np.ndarray:
    """The float plan for P_F (or P_F / (X - divisor)), restated: X^N - 1
    divided by each missing N-th root in ascending r, then times (X - mu)
    for each point off R_N in angle order, when more than half of F is on
    R_N; the angle-order product otherwise."""
    pts = in_angle_order(points)
    n = len(pts)
    on = {int(p.angle * n) for p in pts if p.is_exact and (p.angle * n).denominator == 1}
    if 2 * len(on) > n:
        coeffs = np.zeros(n + 1, dtype=complex)
        coeffs[0], coeffs[n] = -1.0, 1.0
        for r in range(n):
            if r not in on:
                coeffs = divide_root(coeffs, turn_to_complex(Fraction(r, n)))
        off = [p for p in pts if not (p.is_exact and (p.angle * n).denominator == 1)]
    else:
        coeffs, off = np.array([1.0 + 0j]), pts
    for p in off:
        coeffs = np.convolve(coeffs, np.array([-p.value(), 1.0 + 0j]))
    return coeffs if divisor is None else divide_root(coeffs, divisor.value())


@st.composite
def generic_mixed_sets(draw):
    """Up to 10 distinct points, exact p/q (q <= 12) or float, at least one float."""
    points = draw(st.lists(st.one_of(
        st.builds(Fraction, st.integers(0, 11), st.integers(1, 12)).map(CirclePoint),
        st.floats(0.0, 1.0, exclude_max=True).map(CirclePoint.real)),
        min_size=1, max_size=10, unique_by=lambda p: p.angle))
    if all(p.is_exact for p in points):
        points.append(draw(st.floats(0.0, 1.0, exclude_max=True).map(CirclePoint.real)
                           .filter(lambda p: all(p.angle != q.angle for q in points))))
    return points


@SETTINGS
@given(st.one_of(division_path_sets(exact_only=False, max_missing=3), generic_mixed_sets())
       .filter(lambda pts: not all(p.is_exact for p in pts)), st.data())
def test_float_and_mixed_routes_are_bitwise_the_plan(points, data):
    assert np.array_equal(bits(poly_from_roots(points).coeffs), bits(float_plan(points)))
    lam = data.draw(st.sampled_from(points))
    assert np.array_equal(bits(q_poly(lam, points).coeffs), bits(float_plan(points, lam)))


@SETTINGS
@given(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=12,
                unique=True))
def test_generic_float_sets_keep_the_angle_order_product(angles):
    points = [CirclePoint.real(a) for a in angles]
    if len({p.angle for p in points}) < len(points):
        return
    assert np.array_equal(bits(poly_from_roots(points).coeffs),
                          bits(convolve_oracle(points)))


def test_q_poly_exact_division_path_is_bitwise_the_generic_quotient():
    points = [p for p in roots_of_unity(12) if p.angle != Fraction(1, 4)]
    points.append(CirclePoint.exact(1, 5))
    lam = CirclePoint.exact(1, 5)
    exps, lcm = cyc.exact_exponents(in_angle_order(points))
    quotient = cyc.synthetic_div_root(cyc.product_from_roots(exps, lcm),
                                      lcm // 5, lcm)
    want = cyc.to_complex(quotient, lcm)
    assert np.array_equal(bits(q_poly(lam, points).coeffs), bits(want))


def mp_completion_defect(points, n: int) -> float:
    """||P_F - (X^N - 1)||_1 by expanding prod (X - mu) at 50 digits."""
    coeffs = mp_oracle(points, 50)
    with mpmath.workdps(50):
        coeffs[0] += 1
        coeffs[n] -= 1
        return float(mpmath.fsum(abs(c) for c in coeffs))


def test_three_irrational_points_certify_at_n_123():
    g = [CirclePoint.real(NAMED_THETAS[k]) for k in ("sqrt2", "sqrt3", "golden")]
    bs = balance_completion(g)
    assert bs.n_roots == 123 and len(bs.points) == 123
    assert bs.defect <= 0.5
    assert abs(bs.defect - mp_completion_defect(bs.points, 123)) <= 1e-12


def test_exact_completion_keeps_its_defect():
    # 2/11, 5/13 completes at N = 44, L = 572: within one rounding of the
    # 50-digit defect (the Phi_572 remainder basis was off by 3.4e-15)
    g = [CirclePoint.exact(2, 11), CirclePoint.exact(5, 13)]
    bs = balance_completion(g)
    assert (bs.n_roots, bs.defect) == (44, 0.48331951678431584)
    assert abs(bs.defect - mp_completion_defect(bs.points, 44)) <= 1e-15


def test_a_full_root_set_with_a_large_composite_order_certifies_exactly():
    bs = balance_completion([CirclePoint.exact(1, 97), CirclePoint.exact(1, 89)])
    assert (bs.n_roots, bs.defect) == (8633, 0.0)


def test_two_roots_of_large_coprime_orders_multiply_out():
    points = [CirclePoint.exact(1, 997), CirclePoint.exact(1, 991)]  # L = 988027
    got = poly_from_roots(points).coeffs
    assert np.max(np.abs(got - convolve_oracle(points))) <= 1e-15


def test_ladder_certifies_each_rung_once(monkeypatch):
    seen = []
    certify = diophantine.is_eps_balanced

    def counting(points, eps):
        seen.append(len(points))
        return certify(points, eps)

    monkeypatch.setattr(diophantine, "is_eps_balanced", counting)
    g = [CirclePoint.real(NAMED_THETAS[k]) for k in ("sqrt2", "sqrt3", "golden")]
    assert balance_completion(g).n_roots == 123
    assert seen == [5, 26, 34, 123]


def test_non_finite_defect_is_an_error(monkeypatch):
    monkeypatch.setattr(diophantine, "poly_from_roots",
                        lambda pts: diophantine.CPoly(np.full(len(pts) + 1, np.nan + 0j)))
    with pytest.raises(RrlLabError, match="nan"):
        is_eps_balanced(roots_of_unity(3), 0.5)


def balance_under_512_mb(angles: str) -> subprocess.CompletedProcess:
    """`rrl-lab balance --angles ...` under a 512 MB address-space limit."""
    return cli_under_512_mb("balance", "--angles", angles)


def test_huge_exact_completion_exits_3_under_a_memory_limit():
    # the rung N = 54836 (L = 54179448572) has two points off R_N, and its
    # second division would store about N^2/2 = 1.5e9 terms without the terms
    # cap
    proc = balance_under_512_mb("1/997,3/991")
    lines = proc.stdout.strip().splitlines()
    assert proc.returncode == 3, proc.stderr
    assert len(lines) == 1 and '"CapExceeded"' in lines[0]


def test_huge_reduction_exits_3_under_a_memory_limit():
    # L = 997 * 991 * 983 and the numerator makes every CRT digit of the
    # point's exponent top (p - 1), so the canonical form of a single term
    # would hold 996 * 990 * 982 = 9.7e8 terms without the terms cap
    proc = balance_under_512_mb("968288310/971230541")
    lines = proc.stdout.strip().splitlines()
    assert proc.returncode == 3, proc.stderr
    assert len(lines) == 1 and '"CapExceeded"' in lines[0]
    assert "stored terms" in lines[0]
