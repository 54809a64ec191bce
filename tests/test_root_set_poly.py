"""The root-set polynomial P_F against the generic angle-order expansion.

poly_from_roots builds P_F from X^N - 1 by synthetic division and
multiplication when more than half of F lies on the N-th roots of unity
R_N.  The oracles here expand prod (X - mu) over all of F in angle order:
in Z[zeta_L] for exact sets (compared bit for bit) and in mpmath for float
and mixed sets.  The float angle-order np.convolve expansion is no oracle
past N ~ 20: on R_40 its coefficients are off by 7e-8, because its partial
products reach 5e4.
"""

import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrl_lab import cyclotomic as cyc
from rrl_lab import diophantine
from rrl_lab.circle import CirclePoint, roots_of_unity
from rrl_lab.diophantine import (
    balance_completion,
    is_eps_balanced,
    poly_from_roots,
    q_poly,
)
from rrl_lab.errors import RrlLabError
from rrl_lab.recipes import NAMED_THETAS

SRC = str(Path(__file__).resolve().parents[1] / "src")
SETTINGS = settings(max_examples=40, deadline=None)


def bits(values) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(values, dtype=complex)).view(np.uint64)


def in_angle_order(points):
    return sorted(points, key=lambda p: p.angle)


def exact_oracle(points) -> np.ndarray:
    exps, lcm = cyc.exact_exponents(in_angle_order(points))
    return np.array([cyc.to_complex(e) for e in cyc.product_from_roots(exps, lcm)])


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


@SETTINGS
@given(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=12,
                unique=True))
def test_generic_float_sets_keep_the_angle_order_product(angles):
    points = [CirclePoint.real(a) for a in angles]
    if len({p.angle for p in points}) < len(points):
        return
    assert np.array_equal(bits(poly_from_roots(points).coeffs),
                          bits(convolve_oracle(points)))


def test_exact_completion_keeps_its_defect():
    bs = balance_completion([CirclePoint.exact(2, 11), CirclePoint.exact(5, 13)])
    assert (bs.n_roots, bs.defect) == (44, 0.48331951678431234)


def test_q_poly_exact_division_path_is_bitwise_the_generic_quotient():
    points = [p for p in roots_of_unity(12) if p.angle != Fraction(1, 4)]
    points.append(CirclePoint.exact(1, 5))
    lam = CirclePoint.exact(1, 5)
    exps, lcm = cyc.exact_exponents(in_angle_order(points))
    quotient = cyc.synthetic_div_root(cyc.product_from_roots(exps, lcm),
                                      lcm // 5, lcm)
    want = np.array([cyc.to_complex(e) for e in quotient])
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


def test_huge_exact_completion_exits_3_under_a_memory_limit():
    # without the slot cap this completion would allocate ~2.7e13 list slots;
    # the address-space limit turns a regression into a MemoryError, not a
    # machine-wide out-of-memory
    script = textwrap.dedent("""
        import resource, sys
        limit = 1 << 29  # 512 MB
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        from rrl_lab.cli import main
        sys.exit(main(["balance", "--angles", "1/997,2/991"]))
    """)
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    lines = proc.stdout.strip().splitlines()
    assert proc.returncode == 3, proc.stderr
    assert len(lines) == 1 and '"CapExceeded"' in lines[0]
