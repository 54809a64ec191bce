import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import SQRT2_M1, SQRT3_M1
from rrl_lab import diophantine
from rrl_lab.circle import (
    FRAC_SNAP,
    CirclePoint,
    frac_array,
    frac_part,
    power_turns,
    roots_of_unity,
)
from rrl_lab.diophantine import (
    FACTORIAL_J_CAP,
    balance_completion,
    balance_target,
    dirichlet_approx,
    factorial_shifts,
    is_eps_balanced,
    moment_sequence,
    pigeonhole_shift,
    poly_from_roots,
    q_poly,
)
from rrl_lab.errors import CapExceeded, DuplicatePoint, NotARoot, ValidationError
from rrl_lab.psp import PoleMeasure


# ---------------------------------------------------------------- shifts

def test_factorial_shifts_values():
    assert factorial_shifts(4) == [1, 2, 6, 24]
    assert factorial_shifts(1) == [1]
    with pytest.raises(ValidationError):
        factorial_shifts(0)
    assert len(str(factorial_shifts(FACTORIAL_J_CAP)[-1])) == 2568
    with pytest.raises(CapExceeded):
        factorial_shifts(FACTORIAL_J_CAP + 1)


def test_factorial_shift_kills_roots_of_unity():
    # modular oracle: q <= j implies p * j! = 0 mod q
    for q in range(1, 9):
        for p in range(q):
            k = factorial_shifts(8)[q - 1]  # k = q!
            assert (p * k) % q == 0
            assert CirclePoint.exact(p, q).power(k).angle == 0


def test_pigeonhole_j1_returns_one():
    assert pigeonhole_shift([CirclePoint.real(0.777)], 1) == 1


def test_pigeonhole_rational_fifth():
    # {k/5} in [0, 1/5) iff 5 | k (exhaustive oracle)
    k = pigeonhole_shift([CirclePoint.exact(1, 5)], 5)
    assert k % 5 == 0
    valid = [kk for kk in range(1, 50) if (kk * 1) % 5 == 0]
    assert k in valid


def test_pigeonhole_two_irrationals_brute_force_oracle():
    pts = [CirclePoint.real(SQRT2_M1), CirclePoint.real(SQRT3_M1)]
    k = pigeonhole_shift(pts, 5)
    assert (k * SQRT2_M1) % 1.0 < 0.2
    assert (k * SQRT3_M1) % 1.0 < 0.2
    valid = [
        kk for kk in range(1, k + 1)
        if (kk * SQRT2_M1) % 1.0 < 0.2 and (kk * SQRT3_M1) % 1.0 < 0.2
    ]
    assert k in valid


def test_pigeonhole_cell_condition_posthoc_property():
    rng = np.random.default_rng(41)
    for _ in range(20):
        j = int(rng.integers(1, 6))
        pts = [CirclePoint.real(float(a)) for a in rng.random(j)]
        k = pigeonhole_shift(pts, j)
        assert k >= 1
        for p in pts[:j]:
            assert (float(p.angle) * k) % 1.0 < 1.0 / j


def two_sided_corner(angle: float, ks: np.ndarray, j: int) -> np.ndarray:
    """The corner mask as it was written before ``power_turns``: the unsnapped
    fractional part is below 1/j, or within FRAC_SNAP of 1."""
    f = frac_array(angle * ks)
    return (f < 1.0 / j) | (f > 1.0 - FRAC_SNAP)


# angles whose multiples k * angle land near 0 and near 1 - FRAC_SNAP
CORNER_ANGLES = st.one_of(
    st.floats(0.0, 1e-11),
    st.floats(1e-15, 1e-11).map(lambda d: 1.0 - d),
    st.floats(0.0, 1.0, exclude_max=True),
)


@settings(max_examples=300, deadline=None)
@given(CORNER_ANGLES, st.lists(st.integers(1, 1 << 27), min_size=1, max_size=64),
       st.integers(1, 8))
@example(1.0 - 1e-13, [1, 2, 3], 8)
@example(1.0 - 2e-14, [1, 5, 10], 2)
def test_corner_mask_is_the_two_sided_mask_bitwise(angle, ks, j):
    ks = np.array(ks, dtype=np.int64)
    want = two_sided_corner(angle, ks, j)
    assert np.array_equal(power_turns(angle, ks) < 1.0 / j, want)
    p = CirclePoint.real(angle)
    assert np.array_equal(diophantine._in_corner(p, ks, j), two_sided_corner(p.angle, ks, j))


@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
def test_corner_mask_of_a_non_finite_product_is_false_on_both_sides(angle):
    ks = np.arange(1, 9)
    with np.errstate(invalid="ignore"):  # inf - floor(inf) is NaN
        for j in range(1, 9):
            assert not np.any(power_turns(angle, ks) < 1.0 / j)
            assert not np.any(two_sided_corner(angle, ks, j))


def test_pigeonhole_caps():
    with pytest.raises(CapExceeded):
        pigeonhole_shift([CirclePoint.real(0.3)], 9)
    with pytest.raises(ValidationError):
        pigeonhole_shift([], 2)


def _one_sided(angle, k: int, j: int) -> bool:
    """{k * angle} < 1/j: Fraction arithmetic for exact angles, the float
    fractional part with its 1e-13 snap to 0 otherwise."""
    if isinstance(angle, Fraction):
        return (k * angle) % 1 < Fraction(1, j)
    f = (angle * k) % 1.0
    return (0.0 if f > 1.0 - 1e-13 else f) < 1.0 / j


@settings(max_examples=80, deadline=None)
@given(st.lists(st.one_of(
           st.builds(Fraction, st.integers(0, 11), st.integers(1, 12)).map(CirclePoint),
           st.floats(0.0, 1.0, exclude_max=True).map(CirclePoint.real)),
       min_size=1, max_size=4),
       st.integers(1, 5))
def test_pigeonhole_returns_the_smallest_one_sided_shift(points, j):
    angles = [p.angle for p in points[:j]]
    # a float angle near a rational can push the first shift past any scan
    # this oracle can afford; such draws are skipped, not truncated
    k = next((k for k in range(1, 20_000)
              if all(_one_sided(a, k, j) for a in angles)), None)
    assume(k is not None)
    assert pigeonhole_shift(points, j) == k


# exact angles on both sides of the int64 residue path (q <= 2**36), and floats
MIXED_POINTS = st.lists(st.one_of(
    st.builds(Fraction, st.integers(0, 2**64), st.integers(2**36 - 3, 2**64)).map(CirclePoint),
    st.builds(Fraction, st.integers(0, 11), st.integers(1, 12)).map(CirclePoint),
    st.floats(-1e6, 1e6).map(CirclePoint.real)),
    min_size=1, max_size=5)
Q_BIG = 3 * 2**60 + 1


@settings(max_examples=80, deadline=None)
@given(MIXED_POINTS, st.integers(1, 5))
# first shift 5; (k mod q) * p passes 2**63 from k = 3 on
@example([CirclePoint(Fraction(9 * Q_BIG // 10, Q_BIG))], 2)
# 7 * angle is 1 - 2**-52, which the snap reads as 0
@example([CirclePoint.real(math.nextafter(1 / 7, 0.0))], 8)
def test_blocked_pigeonhole_scan_returns_the_first_one_sided_shift(points, j):
    angles = [p.angle for p in points[:j]]
    k = next((k for k in range(1, 20_000)
              if all(_one_sided(a, k, j) for a in angles)), None)
    assume(k is not None)
    assert pigeonhole_shift(points, j) == k


@pytest.mark.parametrize("first, block", [(1, 1), (1, 4), (3, 5)])
def test_pigeonhole_blocks_and_cap_keep_every_shift(monkeypatch, first, block):
    # {k (q-1)/q} < 1/8 first holds at k = floor(7q/8) + 1: with tiny blocks
    # these first shifts land on every position of a block, and a cap just
    # above or at the first shift must return or refuse it
    monkeypatch.setattr(diophantine, "PIGEONHOLE_FIRST_BLOCK", first)
    monkeypatch.setattr(diophantine, "PIGEONHOLE_BLOCK", block)
    for q in range(2, 60):
        for pt in (CirclePoint.exact(q - 1, q), CirclePoint.real((q - 1) / q)):
            k = next(k for k in range(1, q + 1) if _one_sided(pt.angle, k, 8))
            monkeypatch.setattr(diophantine, "PIGEONHOLE_MAX_SCAN", k + 1)
            assert pigeonhole_shift([pt], 8) == k
            monkeypatch.setattr(diophantine, "PIGEONHOLE_MAX_SCAN", k)
            with pytest.raises(CapExceeded):
                pigeonhole_shift([pt], 8)


def test_pigeonhole_j8_on_eight_square_roots():
    # the corner cell has measure 8^-8: the first shift lies past 5 * 10**6
    angles = [CirclePoint.real(math.sqrt(p)).angle for p in (2, 3, 5, 7, 11, 13, 17, 19)]
    k = pigeonhole_shift([CirclePoint.real(a) for a in angles], 8)
    assert k == 22_286_098
    assert all(_one_sided(a, k, 8) for a in angles)
    assert not all(_one_sided(a, k - 1, 8) for a in angles)


# ---------------------------------------------------------------- dirichlet

def test_dirichlet_rational_hit():
    n, ps = dirichlet_approx([1.0 / 3.0], 3)
    assert n == 3 and ps == [1]
    assert abs(n * (1.0 / 3.0) - ps[0]) < 1e-12


def test_dirichlet_single_irrational():
    n, ps = dirichlet_approx([SQRT2_M1], 10)
    assert 1 <= n <= 10
    assert abs(n * SQRT2_M1 - ps[0]) <= 0.1 + 1e-12


def test_dirichlet_pair():
    n, ps = dirichlet_approx([SQRT2_M1, SQRT3_M1], 100)
    bound = 100 ** (-0.5)
    assert 1 <= n <= 100
    for t, p in zip((SQRT2_M1, SQRT3_M1), ps):
        assert abs(n * t - p) <= bound + 1e-12


def test_dirichlet_fallback_scan_returns_the_first_witness():
    # M = 2 on two thetas: 4 cells of side 2^(-1/2) for the 3 points
    # N' = 0, 1, 2, and no two share a cell, so the fallback scan answers
    thetas, big_m = [SQRT2_M1, SQRT3_M1], 2
    side = big_m ** -0.5
    cells = {tuple(int(frac_part(n * t) / side) for t in thetas) for n in range(big_m + 1)}
    assert len(cells) == big_m + 1
    first = next(n for n in range(1, big_m + 1)
                 if all(abs(n * t - round(n * t)) <= side for t in thetas))
    assert dirichlet_approx(thetas, big_m) == (first, [round(first * t) for t in thetas])
    assert (first, [round(first * t) for t in thetas]) == (1, [0, 1])


def test_dirichlet_exhaustive_oracle_property():
    rng = np.random.default_rng(43)
    for _ in range(40):
        m = int(rng.integers(1, 3))
        big_m = int(rng.choice([10, 100]))
        thetas = [float(t) for t in rng.random(m)]
        n, ps = dirichlet_approx(thetas, big_m)
        bound = big_m ** (-1.0 / m) + 1e-12
        assert 1 <= n <= big_m
        for t, p in zip(thetas, ps):
            assert abs(n * t - p) <= bound
        # independent exhaustive scan: some N <= M satisfies the bound
        witnesses = [
            nn for nn in range(1, big_m + 1)
            if all(abs(nn * t - round(nn * t)) <= bound for t in thetas)
        ]
        assert n in witnesses


# ---------------------------------------------------------------- polynomials

def test_poly_from_cube_roots_exact():
    p = poly_from_roots(roots_of_unity(3))
    assert list(p.coeffs) == [-1.0, 0.0, 0.0, 1.0]
    assert len(p.coeffs) == 4 and p.one_norm == 2.0


def test_poly_single_root():
    p = poly_from_roots([CirclePoint.exact(0, 1)])
    assert list(p.coeffs) == [-1.0, 1.0]


def test_poly_quarter_pair_is_x_squared_plus_one():
    # (X - i)(X + i) oracle
    p = poly_from_roots([CirclePoint.exact(1, 4), CirclePoint.exact(3, 4)])
    assert list(p.coeffs) == [1.0, 0.0, 1.0]


def test_poly_duplicate_root_rejected():
    with pytest.raises(DuplicatePoint):
        poly_from_roots([CirclePoint.exact(1, 4), CirclePoint.exact(2, 8)])


def test_poly_float_path_matches_exact_path():
    pts_exact = roots_of_unity(5)
    pts_float = [CirclePoint.real(k / 5 + 1e-17) for k in range(5)]
    a = poly_from_roots(pts_exact).coeffs
    b = poly_from_roots(pts_float).coeffs
    assert np.allclose(a, b, atol=1e-12)


def test_q_poly_cube_roots():
    q = q_poly(CirclePoint.exact(0, 1), roots_of_unity(3))
    assert list(q.coeffs) == [1.0, 1.0, 1.0]


def test_q_poly_single():
    q = q_poly(CirclePoint.exact(0, 1), [CirclePoint.exact(0, 1)])
    assert list(q.coeffs) == [1.0]


def test_q_poly_requires_membership():
    with pytest.raises(NotARoot):
        q_poly(CirclePoint.exact(1, 8), roots_of_unity(3))


def test_q_poly_float_lambda_divides_as_its_exact_member():
    # 0.5 == 1/2, so lambda is in F; the exact plan divides by the member
    exact = [CirclePoint(Fraction(0)), CirclePoint(Fraction(1, 2))]
    q = q_poly(CirclePoint.real(0.5), exact)
    assert list(q.coeffs) == list(q_poly(exact[1], exact).coeffs) == [-1.0, 1.0]


def test_q_poly_equals_derivative_at_root():
    rng = np.random.default_rng(47)
    for _ in range(10):
        d = int(rng.integers(2, 8))
        pts = [CirclePoint.real(float(a)) for a in np.sort(rng.random(d))]
        p = poly_from_roots(pts)
        lam = pts[int(rng.integers(0, d))]
        q = q_poly(lam, pts)
        # derivative oracle
        dp = np.polyder(np.poly1d(p.coeffs[::-1]))
        assert abs(q(lam.value()) - dp(lam.value())) < 1e-10


def test_q_poly_norm_inequality_property():
    rng = np.random.default_rng(53)
    for _ in range(30):
        d = int(rng.integers(1, 13))
        angles = np.sort(rng.random(d))
        pts = [CirclePoint.real(float(a)) for a in angles]
        try:
            p = poly_from_roots(pts)
        except DuplicatePoint:
            continue
        for lam in pts:
            q = q_poly(lam, pts)
            assert q.one_norm <= d * p.one_norm + 1e-9


# ---------------------------------------------------------------- balance

def test_full_root_sets_are_perfectly_balanced():
    for m in range(1, 361):
        assert is_eps_balanced(roots_of_unity(m), 0.5) == (True, 0.0)


def test_perturbed_root_set_nearly_balanced():
    delta = 1e-4
    pts = [CirclePoint.real(delta)] + [
        CirclePoint.exact(k, 3) for k in range(1, 3)
    ]
    ok, defect = is_eps_balanced(pts, 0.5)
    assert ok
    assert 0 < defect < 1e-2
    # defect shrinks with the perturbation (expansion oracle: -> 0 as delta -> 0)
    _, defect_smaller = is_eps_balanced(
        [CirclePoint.real(delta / 10)]
        + [CirclePoint.exact(k, 3) for k in range(1, 3)],
        0.5,
    )
    assert defect_smaller < defect


def test_incomplete_root_set_unbalanced():
    ok, defect = is_eps_balanced(
        [CirclePoint.exact(0, 1), CirclePoint.exact(1, 3)], 0.5
    )
    assert not ok
    assert defect >= 1.0


def test_balance_completion_trivial_root_of_unity():
    bs = balance_completion([CirclePoint.exact(0, 1)])
    assert bs.defect == 0.0
    assert CirclePoint.exact(0, 1) in bs.points


def test_balance_completion_rational_angle_exact():
    bs = balance_completion([CirclePoint.exact(1, 3)])
    assert bs.defect == 0.0
    assert len(bs.points) == bs.n_roots
    angles = {p.angle for p in bs.points}
    assert Fraction(1, 3) in angles


def test_balance_completion_irrational_certified():
    bs = balance_completion([CirclePoint.real(SQRT2_M1)])
    assert bs.defect <= 0.5
    assert len(bs.points) == bs.n_roots
    # collision guard: all points distinct by construction, min gap >= spacing
    angles = sorted(float(p.angle) for p in bs.points)
    gaps = np.diff(angles + [angles[0] + 1.0])
    assert np.min(gaps) > 0.0
    ok, defect = is_eps_balanced(bs.points, 0.5)
    assert ok and abs(defect - bs.defect) < 1e-12


def test_balance_completion_bounds_from_certificate():
    # on a certified set: max_grid |Q| <= m(2+eps), |Q(lambda)| >= m(1-eps)
    bs = balance_completion([CirclePoint.real(SQRT2_M1)])
    m = len(bs.points)
    eps = bs.epsilon
    grid = np.exp(2j * np.pi * np.arange(4096) / 4096)
    for lam in bs.points:
        q = q_poly(lam, bs.points)
        assert np.max(np.abs(q(grid))) <= m * (2 + eps) + 1e-9
        assert abs(q(lam.value())) >= m * (1 - eps) - 1e-9


def test_balance_ladder_pin():
    # the ladder's rung for 1/97, 1/89, fixed before any change to the ladder
    bs = balance_completion([CirclePoint.exact(1, 97), CirclePoint.exact(1, 89)])
    assert (bs.n_roots, bs.defect) == (8633, 0.0)


def test_large_balance_ladder_pin():
    # the rung for 1/997, 2/991, as the ladder gave it before the batched
    # reduction and conversion of P_F's coefficients
    bs = balance_completion([CirclePoint.exact(1, 997), CirclePoint.exact(2, 991)])
    assert (bs.n_roots, bs.defect) == (164506, 0.0063020912511815835)


def test_balance_completion_caps():
    pts = [CirclePoint.real(t) for t in (0.11, 0.23, 0.37, 0.41)]
    with pytest.raises(CapExceeded):
        balance_completion(pts)  # |G| = 4 > BALANCE_M_CAP = 3
    with pytest.raises(ValidationError):
        balance_completion([])
    with pytest.raises(ValidationError):
        balance_completion([CirclePoint.real(0.3)], eps=1.5)


# ---------------------------------------------------------------- moments

def test_moment_sequence_single_atom():
    m = PoleMeasure([(CirclePoint.exact(0, 1), 0.5 + 1.0j)])
    assert np.allclose(moment_sequence(m, 6), 0.5 + 1.0j)


def test_moment_sequence_two_atoms():
    m = PoleMeasure(
        [(CirclePoint.exact(0, 1), 1.0), (CirclePoint.exact(1, 2), -1.0)]
    )
    moments = moment_sequence(m, 5)
    assert np.allclose(moments, [0, 2, 0, 2, 0, 2])


def test_near_null_measure_satisfies_inversion_identity():
    # construct d+1 atoms whose moments 0..d-1 vanish, then check
    # alpha(lam) = -sum_{mu not in F} Q_{lam,F}(mu)/Q_{lam,F}(lam) alpha(mu)
    rng = np.random.default_rng(61)
    for _ in range(10):
        d = int(rng.integers(2, 6))
        angles = np.sort(rng.random(d + 1))
        if np.min(np.diff(angles)) < 1e-2:
            continue
        pts = [CirclePoint.real(float(a)) for a in angles]
        lam_vals = np.array([p.value() for p in pts])
        vand = np.vander(lam_vals, N=d, increasing=True).T  # moments 0..d-1
        _, _, vh = np.linalg.svd(vand)
        alpha = vh[-1].conj()
        m = PoleMeasure(list(zip(pts, alpha)))
        assert np.max(np.abs(moment_sequence(m, d - 1))) < 1e-10
        f_size = int(rng.integers(1, d + 1))
        f_pts = pts[:f_size]
        for lam, a_lam in zip(f_pts, alpha[:f_size]):
            q = q_poly(lam, f_pts)
            rest = -sum(
                q(p.value()) / q(lam.value()) * a
                for p, a in zip(pts[f_size:], alpha[f_size:])
            )
            assert abs(a_lam - rest) < 1e-8


def test_vandermonde_injectivity_with_conditioning_floor():
    rng = np.random.default_rng(67)
    floor_failures = 0
    for _ in range(300):
        d = int(rng.integers(1, 9))
        angles = np.sort(rng.random(d))
        if d > 1 and np.min(np.diff(angles)) < 1e-3:
            continue
        w = rng.normal(size=d) + 1j * rng.normal(size=d)
        w /= np.max(np.abs(w))
        m = PoleMeasure(
            [(CirclePoint.real(float(a)), complex(x)) for a, x in zip(angles, w)]
        )
        top = np.max(np.abs(moment_sequence(m, d - 1)))
        assert top > 1e-9
        if d > 1:
            lam = np.array([p.value() for p in m.points])
            gap = min(
                abs(a - b) for i, a in enumerate(lam) for b in lam[i + 1 :]
            )
            if top <= gap**d / math.factorial(d):
                floor_failures += 1  # flagged, not asserted
    assert floor_failures <= 300  # informational; the hard bound is 1e-9 above


def test_balance_target():
    assert list(balance_target(3)) == [-1.0, 0.0, 0.0, 1.0]
