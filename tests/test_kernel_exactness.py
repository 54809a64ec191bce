"""Bitwise agreement of the vectorised moment and evaluation kernels with
the scalar loops they replaced.

The oracles below are the scalar per-atom sums, written out in plain Python
on CirclePoint powers and turn_to_complex.  The kernels must agree with them
in every bit, so results are compared through ``.view(np.uint64)``, which
also tells 0.0 from -0.0.  The zero scan's values are pinned the same way
against its blocked product with no power flushed.  The last tests pin the
facts about this host's numpy that the kernels rely on.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rrl_lab.boundary import arc_l1_growth
from rrl_lab import circle, dynamics, psp
from rrl_lab.circle import CirclePoint, frac_array, turn_to_complex
from rrl_lab.diophantine import PIGEONHOLE_J_CAP, moment_sequence
from rrl_lab.errors import PoleCollision, ValidationError
from rrl_lab.psp import (
    PoleMeasure,
    _smith_quot,
    moments,
    psp_eval,
    taylor_coefficient,
    taylor_inner,
)
from rrl_lab.recipes import kneading_coeffs
from rrl_lab.right_limits import verify_rrl_on_psp

SETTINGS = settings(max_examples=60, deadline=None)


# -- scalar oracles ------------------------------------------------------------


def moment_oracle(m: PoleMeasure, e: int) -> complex:
    total = 0j
    for p, w in m.atoms:
        total += w * turn_to_complex(p.power(e).angle)
    return total


def eval_oracle(m: PoleMeasure, z: complex, exclusion: float = 1e-12) -> complex:
    z = complex(z)
    total = 0j
    for p, w in m.atoms:
        d = z - p.value()
        if abs(d) <= exclusion:
            raise PoleCollision(str(z))
        total += w / d
    return total


def verify_oracle(m: PoleMeasure, shifts, w: int):
    base = {n: -moment_oracle(m, -n - 1) for n in range(-w, w + 1)}
    rows = []
    for k in shifts:
        diffs = {n: abs(-moment_oracle(m, -(n + k) - 1) - base[n]) for n in range(-w, w + 1)}
        rows.append((k, max(diffs[n] for n in range(0, w + 1)),
                     max(diffs[n] for n in range(-w, 0))))
    return rows


def bits(values) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(values, dtype=complex)).view(np.uint64)


def same_bits(got, want) -> bool:
    return np.array_equal(bits(got), bits(want))


# -- strategies ----------------------------------------------------------------

signed = st.floats(-2.0, 2.0, allow_nan=False) | st.sampled_from([0.0, -0.0, 1.0, -1.0])
weights = st.builds(complex, signed, signed)
exact_angles = st.builds(Fraction, st.integers(0, 59), st.integers(1, 60))
float_angles = st.floats(0.0, 1.0, exclude_max=True) | st.sampled_from(
    [0.0, 0.125, 0.25, 0.375, 0.5, 0.75, 1.0 - 1e-14, 0.1 + 1e-15])


@st.composite
def measures(draw, max_atoms=8):
    atoms = {}
    for _ in range(draw(st.integers(0, max_atoms))):
        angle = draw(exact_angles | float_angles)
        pt = CirclePoint(angle) if isinstance(angle, Fraction) else CirclePoint.real(angle)
        atoms[pt.angle] = (pt, draw(weights))
    return PoleMeasure(list(atoms.values()))


FACTORIALS = [math.factorial(j) for j in range(12, 31)]
exponents = st.integers(-400, 400) | st.builds(
    lambda k, n, sign: sign * k + n, st.sampled_from(FACTORIALS), st.integers(-3, 3),
    st.sampled_from([1, -1]))
# shifts are any ints, past int64 too; exponents fill int64 to both ends
shift_ints = exponents | st.sampled_from([2**63 - 1, 2**63, -(2**63) - 1, 2**64 + 5, -(10**40)])
int64_exponents = st.integers(-400, 400) | st.integers(-(2**63), 2**63 - 1) | st.sampled_from(
    [2**63 - 1, -(2**63 - 1), -(2**63)])
points = st.builds(complex, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)) | st.sampled_from(
    [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 0.5, -0.5j,
     2.0, complex(0.0, 1.5), complex(-1.2, -0.9)])


# -- the octant rule on arrays ---------------------------------------------------


def assert_parts_are_turn_to_complex(parts, turns) -> None:
    want = np.array([turn_to_complex(t) for t in turns])
    assert np.array_equal(parts[0].view(np.uint64), want.real.view(np.uint64))
    assert np.array_equal(parts[1].view(np.uint64), want.imag.view(np.uint64))


@settings(max_examples=200, deadline=None)
@given(st.lists(float_angles, min_size=1, max_size=40))
@example([k / 8 for k in range(8)] + [math.nextafter(k / 8, 0.0) for k in range(1, 9)]
         + [math.nextafter(k / 8, 1.0) for k in range(8)])
def test_turns_to_parts_of_float_turns_is_turn_to_complex(ts):
    assert_parts_are_turn_to_complex(circle.turns_to_parts(np.array(ts)), ts)


orders = st.integers(1, 10**6) | st.sampled_from([8, 8 * 10**9, 2**53 - 1, 2**53, 2**53 + 1,
                                                  2**61 - 1, 10**40 + 7])


@settings(max_examples=200, deadline=None)
@given(orders, st.lists(st.integers(0, 2**140), max_size=20))
@example(2**53 + 1, [2**53, 2**52 + 3])
@example(2**61 - 1, [2**61 - 2, 2**59 + 1])
def test_turns_to_parts_of_exact_residues_is_turn_to_complex(q, draws):
    # the octant edges k*q/8 and their neighbours, then residues at random
    edges = [k * q // 8 + d for k in range(8) for d in (-1, 0, 1)]
    js = [j for j in edges if 0 <= j < q] + [j % q for j in draws]
    turns = [Fraction(j, q) for j in js]
    assert_parts_are_turn_to_complex(circle.turns_to_parts(np.array(js, dtype=object), q), turns)
    if q < 2**63:
        assert_parts_are_turn_to_complex(circle.turns_to_parts(np.array(js, dtype=np.int64), q),
                                         turns)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(orders.filter(lambda q: q < 2**53), st.integers(0, 2**140)),
                min_size=1, max_size=20))
@example([(1, 0), (8, 3), (2**53 - 1, 2**52), (10**6, 999_999), (7, 10**40)])
def test_turns_to_parts_of_mixed_orders_is_turn_to_complex(draws):
    # one int64 order per element below 2^53, elementwise and broadcast as
    # a column against each order's octant edges
    qs = [q for q, _ in draws]
    js = [j % q for q, j in draws]
    assert_parts_are_turn_to_complex(
        circle.turns_to_parts(np.array(js, dtype=np.int64), np.array(qs, dtype=np.int64)),
        [Fraction(j, q) for j, q in zip(js, qs)])
    edges = np.array([[k * q // 8 % q for k in range(8)] for q in qs], dtype=np.int64)
    parts = circle.turns_to_parts(edges, np.array(qs, dtype=np.int64)[:, None])
    assert_parts_are_turn_to_complex(
        (parts[0].ravel(), parts[1].ravel()),
        [Fraction(int(j), q) for q, row in zip(qs, edges) for j in row])


# -- moments and Taylor coefficients -------------------------------------------


def moments_oracle(m: PoleMeasure, shifts, exps) -> np.ndarray:
    return np.array([[moment_oracle(m, s + e) for e in exps] for s in shifts],
                    dtype=complex).reshape(len(shifts), len(exps))


@SETTINGS
@given(measures(), st.lists(shift_ints, max_size=5), st.lists(int64_exponents, max_size=12))
def test_moments_bitwise_equal_to_scalar_loop(m, ss, exps):
    got = moments(m, ss, exps)
    assert got.shape == (len(ss), len(exps))
    assert same_bits(got, moments_oracle(m, ss, exps))


@SETTINGS
@given(measures(), exponents)
def test_taylor_coefficient_is_length_one_kernel_call(m, n):
    got = taylor_coefficient(m, n)
    assert type(got) is complex
    assert same_bits([got], [-moment_oracle(m, -n - 1)])


@SETTINGS
@given(measures(), st.integers(0, 60))
def test_taylor_series_and_moment_sequence_bitwise(m, n):
    assert same_bits(taylor_inner(m, n), [-moment_oracle(m, -k - 1) for k in range(n + 1)])
    assert same_bits(moment_sequence(m, n), [moment_oracle(m, k) for k in range(n + 1)])


@SETTINGS
@given(measures(max_atoms=5), st.lists(exponents, min_size=1, max_size=4, unique=True),
       st.integers(1, 6))
def test_verify_rrl_bitwise(m, shifts, w):
    shifts = sorted(shifts)
    got = verify_rrl_on_psp(m, shifts, w)
    want = verify_oracle(m, shifts, w)
    assert [k for k, _, _ in got] == [k for k, _, _ in want]
    assert same_bits([v for r in got for v in r[1:]], [v for r in want for v in r[1:]])


def test_huge_denominator_and_shift_stay_exact():
    # 3/qa and 1/qb (2^62 <= q < 2^63), like every order above the cells,
    # take c + p*e, c = p*s mod q, in int64 up to the exponent E with p*E + q
    # < 2^63 and on Python ints from E + 1 on; the shifts sa and -1 give
    # c = q - 1, so c + p*E is within 4 of 2^63 and c + p*(E + 2) would
    # wrap, by 2^64, which is 2^60 - 9 mod qa and 2^62 + 2 mod qb.  Orders
    # of 2^63 and above always take Python ints
    qa, qb = 5 * 2**60 + 3, 3 * 2**61 - 1
    ea, eb = (2**63 - 1 - qa) // 3, 2**63 - 1 - qb
    sa = (qa - 1) * pow(3, -1, qa) % qa
    primes = [1009, 1013, 1019, 1021, 1031, 1033, 1039]
    m = PoleMeasure([(CirclePoint(Fraction(7, 10**12 + 39)), 1 - 2j),
                     (CirclePoint(Fraction(3, 2**61 - 1)), 0.5j),
                     (CirclePoint(Fraction(2**52 + 7, 2**53 + 1)), -1.5),
                     (CirclePoint(Fraction(2**30 - 2, 2**30 - 1)), 2 + 0.5j),
                     (CirclePoint(Fraction(3, qa)), 0.25 - 1j),
                     (CirclePoint(Fraction(1, qb)), -0.5 + 0.5j),
                     (CirclePoint(Fraction(7, 10**40 + 7)), 1.25j),
                     (CirclePoint.exact(1, 5), -0.25),
                     (CirclePoint.exact(3, 7), 0.75 + 1j),
                     (CirclePoint.exact(23, 24), -1j),
                     *[(CirclePoint.exact(j, q), complex(j, -q) / q) for j, q in
                       enumerate(primes, 1)]])
    for ss, exps in [
        # small shifts and exponents: rows for 5 and 7, the others at their
        # own residues in int64 below 2^63
        ([0, 1, -3], [-1, 0, 3, 1500, -2040, 7, -8]),
        # exponents at the int64 edges
        ([0, 1], [2**63 - 1, -(2**63 - 1), 0, 1, -1, 2, 5]),
        ([5, -2], [-(2**63), 0, 1, 3, -5, 6, 2**62]),
        # the exponents E, E + 1 and E + 2 of qa and qb, with c = q - 1 at
        # the shifts sa and -1
        ([0, sa, 2**62, -(2**62) + 1], [ea, -ea, 0, 1]),
        ([sa, 2**62], [ea + 1, ea + 2, -ea - 2, 0, 1]),
        ([0, -1, 2**63 - 1], [eb, -eb, 2, -2]),
        ([-1, 2**63 - 1], [eb + 1, eb + 2, -eb - 2, 0]),
        # shifts beyond int64
        ([math.factorial(30) + 1, -(10**40), 10**100 + 7, -(3**200), 2**64, -(2**64) - 1,
          math.factorial(25)], [-1, 0, 3, 1500, -2040, 5]),
        ([10**100 + 7, -(3**200)], [2**63 - 1, -(2**63), ea, -ea - 1, eb + 1]),
    ]:
        assert same_bits(moments(m, ss, exps), moments_oracle(m, ss, exps)), (ss, exps)


# weights with signed zero parts; angles in angle order: 1/(2^61 - 1)
# never has a row, 11/25 has none in a 24-cell result (q = cells + 1) and
# one in a 25-cell result (q = cells); 6/13 has a row longer than either
# result (2q = 26), 5/12 and 7/12 one as long as the 24-cell result
# (2q = 24); 1/3, 2/5, 3/7, 1/2 and 5/8 always have a row
ROW_EDGE_ATOMS = [(CirclePoint.exact(0, 1), complex(-0.0, 0.0)),
                  (CirclePoint(Fraction(1, 2**61 - 1)), complex(1.0, -0.0)),
                  (CirclePoint.exact(1, 3), complex(-0.0, -0.0)),
                  (CirclePoint.exact(2, 5), 1.5 - 0.25j),
                  (CirclePoint.exact(5, 12), complex(-0.0, 2.0)),
                  (CirclePoint.exact(3, 7), -2.0 + 1j),
                  (CirclePoint.exact(6, 13), complex(-1.25, -0.0)),
                  (CirclePoint.exact(11, 25), 0.5j),
                  (CirclePoint.exact(1, 2), complex(0.0, -0.0)),
                  (CirclePoint.exact(7, 12), 0.75),
                  (CirclePoint.exact(5, 8), complex(-0.5, 0.125))]
INT64_EDGES = [-(2**63), 2**63 - 1, -(2**63 - 1)]


@pytest.mark.parametrize("block", [psp.ROW_BLOCK, 48, 1])
def test_row_rule_edges_bitwise_equal_to_scalar_loop(monkeypatch, block):
    # blocks of every size down to one atom each, rows with and without a
    # halved build, and residues kept or taken afresh
    monkeypatch.setattr(psp, "ROW_BLOCK", block)
    row_block = psp._row_block
    with_rows = set()

    def spy(atoms, row_q, k, tables):
        rows = row_block(atoms, row_q, k, tables)
        with_rows.update(atoms[i][0] for i in rows)
        return rows

    monkeypatch.setattr(psp, "_row_block", spy)
    exact = PoleMeasure(ROW_EDGE_ATOMS)
    floats = PoleMeasure(ROW_EDGE_ATOMS + [(CirclePoint.real(0.1), complex(0.0, -0.0)),
                                           (CirclePoint.real(0.45), -1.0 + 0.5j),
                                           (CirclePoint.real(0.9), complex(-0.0, 1.0))])
    seen = {}
    for m, ss, exps in [
        # 24 cells: q = cells + 1 for 11/25; shifts past int64 reach the rows
        # through s mod q
        (exact, [0, math.factorial(1000), -(10**40)], INT64_EDGES + [0, 1, -1, 5, 7]),
        # 24 cells, small shifts and exponents: 11/25 and 1/(2^61 - 1) take
        # their residues in int64
        (exact, [0, 1, -1], [0, 1, -1, 2, -3, 5, 8, -13]),
        # 25 cells: q = cells for 11/25
        (exact, [0, math.factorial(1000), -(10**40), 2**63, -1], INT64_EDGES + [0, 3]),
        # float atoms among them: s + e must fit a float
        (floats, [0, -(10**40), 2**63], INT64_EDGES + [0, 1, -1, 5, 7]),
        (floats, [0, -(10**40), 2**63, -1, 1], INT64_EDGES + [0, 3]),
    ]:
        with_rows.clear()
        assert same_bits(moments(m, ss, exps), moments_oracle(m, ss, exps)), (ss, exps)
        cells = len(ss) * len(exps)
        assert with_rows == {p for p, _ in m.atoms if p.is_exact and p.angle.denominator
                             <= cells}, cells
        seen[cells] = set(with_rows)
    assert CirclePoint.exact(11, 25) not in seen[24]  # q = cells + 1
    assert CirclePoint.exact(11, 25) in seen[25]  # q = cells


def test_float_atom_exponent_overflow_is_validation_error():
    m = PoleMeasure([(CirclePoint.real(0.3), 1.0)])
    with pytest.raises(ValidationError):
        moments(m, [math.factorial(171)], [0])
    with pytest.raises(ValidationError):
        verify_rrl_on_psp(m, [math.factorial(171)], 4)
    # exact atoms take any shift, and no atom an exponent past int64
    exact = PoleMeasure([(CirclePoint.exact(1, 3), 1.0)])
    assert moments(exact, [math.factorial(171)], [0])[0, 0] == 1
    for e in (2**63, -(2**63) - 1):
        with pytest.raises(ValidationError):
            moments(exact, [0], [e])


# -- pole-series evaluation ------------------------------------------------------


@SETTINGS
@given(measures(), st.lists(points, min_size=1, max_size=20))
def test_psp_eval_array_bitwise_equal_to_scalar(m, zs):
    want = []
    for z in zs:
        try:
            want.append(eval_oracle(m, z))
        except PoleCollision:
            with pytest.raises(PoleCollision):
                psp_eval(m, zs)
            return
    got = psp_eval(m, np.array(zs, dtype=complex))
    assert got.shape == (len(zs),)
    assert same_bits(got, want)
    scalars = [psp_eval(m, z) for z in zs]
    assert all(type(v) is complex for v in scalars)
    assert same_bits(scalars, want)


@SETTINGS
@given(measures(), st.lists(points, min_size=1, max_size=40), st.integers(1, 7),
       st.none() | st.integers(0, 10**6))
# 7 points a block: the point on the pole 1 is in block 8
@example(PoleMeasure([(CirclePoint.exact(j, 3), 1.0) for j in range(3)]),
         [0.5j] * 49 + [1.0], 7, None)
# more atoms than points in a block
@example(PoleMeasure([(CirclePoint.exact(j, 7), complex(j, -1.0)) for j in range(7)]
                     + [(CirclePoint.real(0.05 + j / 5), -0.5j) for j in range(5)]),
         [0.5j, -0.0, complex(-0.0, -0.0), 2.0, complex(-1.2, -0.9), 0.25, 1.5j], 3, None)
def test_psp_eval_in_small_blocks_bitwise_equal_to_scalar(m, zs, block, hit):
    # blocks of a few points: one draw spans several blocks, most with a
    # partial last one, and a point put on a pole may sit in any block
    if hit is not None and m.atoms:
        zs[hit % len(zs)] = m.atoms[hit % len(m.atoms)][0].value()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(psp, "EVAL_BLOCK", block)
        try:
            want = [eval_oracle(m, z) for z in zs]
        except PoleCollision:
            with pytest.raises(PoleCollision):
                psp_eval(m, np.array(zs, dtype=complex))
            return
        assert same_bits(psp_eval(m, np.array(zs, dtype=complex)), want)


def test_psp_eval_keeps_shape_and_collides_like_scalar():
    m = PoleMeasure([(CirclePoint.exact(0, 1), 1.0), (CirclePoint.real(0.3), -0.5j)])
    zs = np.array([[0.5, -0.0], [2.0, 0.25j]])
    got = psp_eval(m, zs)
    assert got.shape == (2, 2)
    assert same_bits(got.ravel(), [eval_oracle(m, z) for z in zs.ravel()])
    with pytest.raises(PoleCollision):
        psp_eval(m, np.array([0.5, 1.0 + 1e-14]))
    with pytest.raises(PoleCollision):
        psp_eval(m, 1.0)


def test_psp_eval_collision_message_does_not_depend_on_block():
    # point 4 is within 1e-12 of the poles 0.1 and 0.1 + 1e-13, 6.3e-13
    # apart, and point 11 is on the pole 1, first in angle order: at blocks
    # of 1, 2 and 7 points they sit in different blocks, at the default in one
    near = CirclePoint.real(0.1), CirclePoint.real(0.1 + 1e-13)
    m = PoleMeasure([(CirclePoint.exact(0, 1), 1.0), (near[0], 0.5j), (near[1], -0.5j),
                     (CirclePoint.exact(1, 2), 2.0)])
    zs = np.full(15, 0.5j)
    zs[4] = (near[0].value() + near[1].value()) / 2
    zs[11] = 1.0
    messages = set()
    for block in (1, 2, 7, psp.EVAL_BLOCK):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(psp, "EVAL_BLOCK", block)
            with pytest.raises(PoleCollision) as err:
                psp_eval(m, zs)
        messages.add(str(err.value))
    assert messages == {f"z = {complex(zs[4])} within 1e-12 of pole {near[0]}"}


@settings(max_examples=15, deadline=None)
@given(measures(max_atoms=6), st.floats(-4.0, 4.0), st.floats(0.05, 2.0))
def test_boundary_probes_bitwise_equal_to_scalar_loops(m, omega1, span):
    radii = [0.5, 0.9, 0.99]
    omegas = np.linspace(omega1, omega1 + span, 65)
    try:
        want = [np.trapezoid(np.array([abs(eval_oracle(m, r * complex(np.cos(o), np.sin(o))))
                                       for o in omegas]), omegas) for r in radii]
    except PoleCollision:
        return
    got = arc_l1_growth(m, omega1, omega1 + span, radii, 64)
    assert np.array_equal(got.integrals.view(np.uint64), np.array(want).view(np.uint64))


def test_probe_evaluator_receives_points_of_scalar_product(monkeypatch):
    # one psp_eval call, looked up on rrl_lab.psp at run time, with a
    # (radii, quadrature_n + 1) array whose row i is bit-equal to
    # r_i * complex(cos, sin), zero signs included (the last omega is -0.0,
    # where sin gives -0.0)
    seen = []

    def spy(m, z):
        seen.append(np.array(z))
        return psp_eval(m, z)

    monkeypatch.setattr(psp, "psp_eval", spy)
    radii = np.array([0.5, 0.9])
    arc_l1_growth(PoleMeasure([]), -1.0, -0.0, radii, quadrature_n=64)
    assert len(seen) == 1 and seen[0].shape == (2, 65)
    omegas = np.linspace(-1.0, -0.0, 65)
    for r, z in zip(radii, seen[0]):
        assert same_bits(z, [r * complex(np.cos(o), np.sin(o)) for o in omegas])


# -- the zero scan's flushed powers -------------------------------------------


def series_values_oracle(c: np.ndarray, rs: np.ndarray) -> np.ndarray:
    # the blocked product with every power kept, subnormals included
    n = len(c) - 1
    b = math.isqrt(n) + 1
    j = -(-(n + 1) // b)
    blocks = np.zeros(j * b)
    blocks[: n + 1] = c
    powers = np.vander(rs, b, increasing=True)
    parts = blocks.reshape(j, b) @ powers.T
    big_r = powers[:, -1] * rs
    vals = parts[-1]
    for i in range(j - 2, -1, -1):
        vals = vals * big_r + parts[i]
    return vals


@pytest.mark.parametrize("spec", ["feigenbaum-product", "tent", "quadratic:-1.75"])
def test_flushed_series_values_bitwise_equal_to_unflushed(monkeypatch, spec):
    # on the scan's own 770-point grid at n = 2e5, setting the powers below
    # tiny to 0 moves no bit of the values
    calls = []
    series_values = dynamics._series_values

    def spy(c, rs):
        vals, k = series_values(c, rs)
        calls.append((c, rs, vals))
        return vals, k

    monkeypatch.setattr(dynamics, "_series_values", spy)
    dynamics.smallest_real_zero(kneading_coeffs(spec, 200_000), 1e-6)
    [(c, rs, vals)] = calls
    assert rs.size == 770 and rs[1] ** (math.isqrt(200_000)) < np.finfo(float).tiny
    assert np.array_equal(vals.view(np.uint64), series_values_oracle(c, rs).view(np.uint64))


# -- host facts the kernels rely on -------------------------------------------


def test_numpy_trig_equals_math_on_first_octant():
    x = np.concatenate([np.linspace(0.0, math.pi / 4, 200_001),
                        np.random.default_rng(0).random(200_000) * (math.pi / 4)])
    for np_fn, math_fn in ((np.cos, math.cos), (np.sin, math.sin)):
        want = np.array([math_fn(v) for v in x.tolist()])
        assert np.array_equal(np_fn(x).view(np.uint64), want.view(np.uint64))


def test_float_below_one_over_j_stays_in_cell_zero():
    # pigeonhole_shift scans {k * omega} < 1.0 / j, which equals the cell
    # scan's corner cell floor(j * {k * omega}) = 0 only if j * f rounds
    # below 1 for every float f < 1.0 / j; rounded products are monotone in
    # f, so the largest such f decides
    for j in range(1, PIGEONHOLE_J_CAP + 1):
        assert int(j * math.nextafter(1.0 / j, 0.0)) == 0


FRAC_EXAMPLES = [0.0, -0.0, -1.0, -3.0, -2.0**60, -5e-324, 5e-324, -1e-20, 1e-20,
                 2.0**52, -(2.0**52), 2.0**52 + 1.0, 2.0**53, -(2.0**53) - 2.0, 1e300,
                 -1e300, 2.0**-1022, -(2.0**-1022), 2.0**-1030, -(2.0**-1030), -0.5,
                 -1.0 - 2.0**-52, 1.0 - 2.0**-53, -(1.0 - 2.0**-53)]


def assert_frac_is_mod(xs: list[float]) -> None:
    got = frac_array(np.array(xs))
    assert np.array_equal(got.view(np.uint64), np.mod(np.array(xs), 1.0).view(np.uint64))
    assert np.array_equal(got.view(np.uint64), np.array([x % 1.0 for x in xs]).view(np.uint64))


def test_frac_array_is_np_mod_and_python_mod_on_edge_cases():
    assert_frac_is_mod(FRAC_EXAMPLES)
    got = frac_array(np.array([-0.0, -3.0, -1e-20, -5e-324]))
    assert np.array_equal(got.view(np.uint64), np.array([0.0, 0.0, 1.0, 1.0]).view(np.uint64))
    rng = np.random.default_rng(3)
    x = rng.normal(size=200_000) * 10.0 ** rng.integers(-320, 300, 200_000)
    assert_frac_is_mod(x.tolist())
    with np.errstate(invalid="ignore"):
        assert np.isnan(frac_array(np.array([np.inf, -np.inf, np.nan]))).all()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
@example(FRAC_EXAMPLES)
def test_frac_array_is_np_mod_and_python_mod(xs):
    assert_frac_is_mod(xs)


@SETTINGS
@given(measures(), st.lists(shift_ints, max_size=5), st.lists(int64_exponents, max_size=12))
def test_float_atom_moments_unchanged_from_np_mod(m, ss, exps):
    want = moments(m, ss, exps)
    orig = circle.frac_array
    circle.frac_array = lambda x: np.mod(x, 1.0)
    try:
        assert same_bits(moments(m, ss, exps), want)
    finally:
        circle.frac_array = orig


def test_numpy_hypot_equals_complex_abs():
    rng = np.random.default_rng(1)
    re = rng.normal(size=100_000) * 10.0 ** rng.integers(-200, 200, 100_000)
    im = rng.normal(size=100_000) * 10.0 ** rng.integers(-200, 200, 100_000)
    want = np.array([abs(complex(a, b)) for a, b in zip(re.tolist(), im.tolist())])
    assert np.array_equal(np.hypot(re, im).view(np.uint64), want.view(np.uint64))


def test_smith_division_equals_python_division():
    rng = np.random.default_rng(2)
    n = 100_000
    br = rng.normal(size=n) * 10.0 ** rng.integers(-150, 150, n)
    bi = rng.normal(size=n) * 10.0 ** rng.integers(-150, 150, n)
    br[:100], bi[100:200] = 0.0, -0.0  # both branches at an exact zero part
    # ties |br| = |bi| in all four sign pairs, signed zeros in either part,
    # and infinite parts
    ties = np.abs(br[200:300])
    signs = np.array([(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)])[np.arange(100) % 4]
    br[200:300], bi[200:300] = signs[:, 0] * ties, signs[:, 1] * ties
    edge = [0.0, -0.0, 1.5, -1.5, 1e-300, -1e300, math.inf, -math.inf]
    pairs = [(x, y) for x in edge for y in edge if abs(x) + abs(y)]  # no zero divisor
    br[300:300 + len(pairs)], bi[300:300 + len(pairs)] = np.array(pairs).T
    for a in (complex(0.7, -1.3), complex(-0.0, 2.5), complex(1e200, 1e-200),
              complex(0.0, -0.0), complex(-0.0, 0.0), complex(-2.0, -0.0), complex(1.0, 1.0),
              complex(math.inf, 1.0)):
        qr, qi = _smith_quot(a.real, a.imag, br, bi)
        want = [a / complex(x, y) for x, y in zip(br.tolist(), bi.tolist())]
        assert np.array_equal(qr.view(np.uint64), np.array([v.real for v in want]).view(np.uint64))
        assert np.array_equal(qi.view(np.uint64), np.array([v.imag for v in want]).view(np.uint64))
