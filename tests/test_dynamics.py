import json
import math
from decimal import Decimal, localcontext

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import GOLDEN, SQRT2_M1, cli_under_512_mb, substitution_thue_morse
from rrl_lab import dynamics, recipes
from rrl_lab.cli import THUE_MORSE_TOOL_N_CAP
from rrl_lab.circle import frac_part
from rrl_lab.dynamics import (
    FEIGENBAUM_C,
    PRODUCT_N_CAP,
    UnimodalMap,
    _series_values,
    feigenbaum_product,
    hecke_negative_side,
    hecke_outer_eval,
    hecke_stream,
    itinerary,
    kneading_determinant,
    kneading_sequence,
    occurrence_times,
    smallest_real_zero,
    thue_morse,
)
from rrl_lab.errors import InsufficientDepth, ResonantGamma, ValidationError
from rrl_lab.recipes import THUE_MORSE_BLOCK, kneading_coeffs, recipe_thue_morse_product
from rrl_lab.right_limits import SEARCH_BLOCK, outer_sum, outer_tail_bound



# ---------------------------------------------------------------- streams

def test_hecke_stream_period_two():
    s = hecke_stream(0.5)
    assert np.allclose(s.take(6).real, [0, 0.5, 0, 0.5, 0, 0.5])


def test_hecke_stream_first_values():
    s = hecke_stream(GOLDEN)
    a = s.take(2)
    assert a[0] == 0.0
    assert abs(a[1] - 0.6180339887) < 1e-9


def test_hecke_stream_gamma_periodicity():
    a = hecke_stream(SQRT2_M1, gamma=0.3).take(500)
    b = hecke_stream(SQRT2_M1, gamma=1.3).take(500)
    assert np.max(np.abs(a - b)) < 1e-12


@pytest.mark.parametrize("theta", [GOLDEN, -GOLDEN, 0.7548776662466927])
@pytest.mark.parametrize("gamma", [0.0, None, -0.3])
def test_hecke_stream_bitwise_np_mod(theta, gamma):
    # the floor kernel gives np.mod's bits on a read spanning 3 search blocks
    gamma = theta if gamma is None else gamma
    start, n = 12_345, 3 * SEARCH_BLOCK
    want = np.mod(gamma + np.arange(start, start + n) * theta, 1.0)
    got = hecke_stream(theta, gamma).take(n, start)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_hecke_stream_overflow_reads_nan_and_is_rejected():
    # k * 1e300 is finite up to k = 1e8 and inf from 2e8 on, where {x} is NaN
    assert np.array_equal(hecke_stream(1e300).take(3), np.zeros(3))
    with pytest.raises(ValidationError):
        hecke_stream(1e300).take(4, start=2 * 10**8)


# ---------------------------------------------------------------- outer identities

def _direct_outer(theta: float, gamma: float, z: complex, n: int) -> complex:
    return -sum(((gamma + theta * nn) % 1.0) * z**nn for nn in range(-n, 0))


@pytest.mark.parametrize("theta", [GOLDEN, SQRT2_M1])
def test_outer_identity_irrational(theta):
    z = 2.0 + 0j
    n = 60
    lhs = _direct_outer(theta, 0.0, z, n)
    rhs = hecke_outer_eval(theta, z, n)
    assert abs(lhs - rhs) < 1e-12 + 2 * outer_tail_bound(z, n)


def test_outer_vanishes_at_large_z():
    v = hecke_outer_eval(GOLDEN, 1000.0, 80)
    assert abs(v) < 2.0 / 1000.0


@pytest.mark.parametrize("theta", [GOLDEN, SQRT2_M1])
def test_outer_identity_on_sample_ring(theta):
    # five sample points with 1.5 <= |z| <= 4
    import cmath

    zs = [1.5 + 0j, 2.0 * cmath.exp(0.7j), -2.5 + 1.0j, 3.5j, 4.0 + 0j]
    n = 120
    for z in zs:
        lhs = _direct_outer(theta, 0.0, z, n)
        rhs = hecke_outer_eval(theta, z, n)
        assert abs(lhs - rhs) <= 1e-12 + 2 * outer_tail_bound(z, n)


def test_outer_rational_theta_known_discrepancy():
    # for theta = 1/2 the continuation formula differs from the direct outer
    # sum by exactly -1/(z^2-1): the fractional-part reflection
    # {-x} = 1 - {x} fails on the integers hit by even k
    theta = 0.5
    z = 2.0 + 0j
    n = 200
    lhs = _direct_outer(theta, 0.0, z, n)
    rhs = hecke_outer_eval(theta, z, n)
    assert abs((rhs - lhs) + 1.0 / (z * z - 1.0)) < 1e-12


def test_outer_requires_outside_disc():
    with pytest.raises(ValidationError):
        hecke_outer_eval(GOLDEN, 1.0, 10)


def test_gamma_outer_identity():
    z = 2.0 + 0j
    n = 60
    lhs = _direct_outer(SQRT2_M1, 0.3, z, n)
    rhs = hecke_outer_eval(SQRT2_M1, z, n, 0.3)
    assert abs(lhs - rhs) < 1e-10


def test_gamma_outer_multiple_sample_points():
    for z in (3.0 + 0j, 1.5 + 1.5j, -2.5 + 0.5j):
        lhs = _direct_outer(GOLDEN, 0.25, z, 80)
        rhs = hecke_outer_eval(GOLDEN, z, 80, 0.25)
        assert abs(lhs - rhs) < 1e-10 + 2 * outer_tail_bound(z, 80)


def test_gamma_outer_resonant_rejected():
    # gamma = 0 is the plain continuation, bit for bit; an offset on the
    # orbit lattice is refused
    got, plain = hecke_outer_eval(GOLDEN, 2.0, 40, 0.0), hecke_outer_eval(GOLDEN, 2.0, 40)
    assert np.array_equal(np.array([got]).view(np.uint64), np.array([plain]).view(np.uint64))
    with pytest.raises(ResonantGamma):
        hecke_outer_eval(GOLDEN, 2.0, 40, (5 * GOLDEN) % 1.0)


def _bits(value: complex) -> tuple[int, int]:
    return tuple(np.array([value.real, value.imag]).view(np.uint64).tolist())


def test_outer_sum_of_the_negative_side_is_the_python_direct_sum(monkeypatch):
    # bit for bit against the direct sum as a Python loop over (theta*k + gamma)
    # % 1.0, with the reader's blocks cut to 7 values so most sums span several
    monkeypatch.setattr(dynamics, "HECKE_BLOCK", 7)
    rng = np.random.default_rng(2701)
    for _ in range(3000):
        theta = float(rng.uniform(-1.0, 1.0) * rng.choice([1.0, 1e6]))
        gamma = float(rng.choice([0.0, rng.uniform(-2.0, 2.0)]))
        z = complex(np.exp(rng.uniform(0.001, 7.0) + 1j * rng.uniform(0.0, 2 * math.pi)))
        n = int(rng.integers(1, 60))
        zinv = 1.0 / complex(z)
        want = -sum(((theta * k + gamma) % 1.0) * zinv**-k for k in range(-n, 0))
        neg = [b for block in hecke_negative_side(theta, gamma, n) for b in block.tolist()]
        assert _bits(outer_sum(neg, n, z)) == _bits(want)


def test_resonance_verdict_is_the_snapped_loops(monkeypatch):
    # the check reads the unsnapped negative side; the reference takes
    # frac_part (snapped within FRAC_SNAP of 1) of gamma + n*theta.  Both name
    # the same first n, offsets straddling FRAC_SNAP and the 1e-10 test included
    monkeypatch.setattr(dynamics, "HECKE_BLOCK", 7)
    rng = np.random.default_rng(2702)
    resonant = 0
    for _ in range(4000):
        theta, n = float(rng.uniform(0.0, 1.0)), int(rng.integers(1, 40))
        offset = float(rng.choice([0.0, 1e-16, 5e-14, 1e-13, 2e-13, 5e-11, 1e-10, 2e-10, 1e-3]))
        j, sign = int(rng.integers(1, 2 * n + 1)), float(rng.choice([-1.0, 1.0]))
        gamma = (j * theta + sign * offset) % 1.0  # n = -j resonates when j <= N
        want = next((k for k in range(-n, 0)
                     if min(f := frac_part(gamma + k * theta), 1.0 - f) <= 1e-10), None)
        if gamma == 0.0:
            want = None  # gamma = 0 is the plain continuation, never checked
        try:
            hecke_outer_eval(theta, 2.0, n, gamma)
            got = None
        except ResonantGamma as exc:
            got = int(str(exc).split("*")[0].removeprefix("gamma + "))
        assert got == want, (theta, gamma, n)
        resonant += want is not None
    assert resonant > 1000


@pytest.mark.parametrize("j", [39_990, 20_000, 3])
def test_resonance_named_in_first_middle_and_last_block(j):
    # N = 40000 reads three blocks of HECKE_BLOCK = 2^14 from the far end:
    # n = -39990, -20000 and -3 fall in the first, the middle and the last.
    # The named n is the first in -N .. -1 order by the scalar rule.
    theta, n_terms = SQRT2_M1, 40_000
    gamma = (j * theta + 3e-11) % 1.0
    want = next(k for k in range(-n_terms, 0)
                if min(f := (theta * k + gamma) % 1.0, 1.0 - f) <= 1e-10)
    assert want == -j
    with pytest.raises(ResonantGamma, match=rf"^gamma \+ {want}\*theta is within 1e-10"):
        hecke_outer_eval(theta, 2.0, n_terms, gamma)


# ---------------------------------------------------------------- occurrence times

def test_occurrence_times_identity():
    theta = SQRT2_M1
    g1, g2 = 0.2, 0.7
    n = 10_000
    times = set(int(k) for k in occurrence_times(theta, g1, g2, n))
    for k in range(n + 1):
        f = (k * theta) % 1.0
        if min(abs(f - (1 - g2)), abs(f - (1 - g1))) < 1e-9:
            continue  # endpoint membership undecidable in float
        coeff = ((g1 + k * theta) % 1.0) - ((g2 + k * theta) % 1.0) + (g2 - g1)
        indicator = 1.0 if k in times else 0.0
        assert abs(coeff - indicator) < 1e-12


@pytest.mark.parametrize("theta", [SQRT2_M1, -GOLDEN, 1e6 + GOLDEN])
def test_occurrence_times_bitwise_np_mod(theta):
    ks = np.arange(50_001)
    f = np.mod(ks * theta, 1.0)
    want = ks[(f >= 1.0 - 0.7) & (f < 1.0 - 0.2)]
    assert np.array_equal(occurrence_times(theta, 0.2, 0.7, 50_000), want)


def test_occurrence_times_wide_interval_covers_almost_all():
    times = occurrence_times(SQRT2_M1, 0.001, 0.999, 2000)
    assert len(times) > 1990


def test_occurrence_times_validates_interval():
    with pytest.raises(ValidationError):
        occurrence_times(SQRT2_M1, 0.5, 0.5, 10)
    with pytest.raises(ValidationError):
        occurrence_times(SQRT2_M1, -0.1, 0.5, 10)


# ---------------------------------------------------------------- kneading

def test_itinerary_identity_like_map():
    fixed = UnimodalMap(fn=lambda x: x, critical=0.5, increasing_side="left")
    assert np.all(itinerary(fixed, 0.1, 20) == 1)


def test_itinerary_tent_critical_orbit():
    # orbit 1/2 -> 1 -> 0 -> 0 ...
    signs = itinerary(UnimodalMap.tent(), 0.5, 5)
    assert list(signs) == [1, -1, 1, 1, 1, 1]


def test_itinerary_rejects_escaping_orbit():
    # x^2 + 2.5 sends the critical orbit to inf in a few steps
    escaping = UnimodalMap(fn=lambda x: x * x + 2.5, critical=0.0, increasing_side="right")
    with pytest.raises(ValidationError):
        kneading_sequence(escaping, 200)
    nan_map = UnimodalMap(fn=lambda x: math.nan, critical=0.0, increasing_side="left")
    with pytest.raises(ValidationError):
        itinerary(nan_map, 0.0, 3)
    assert itinerary(nan_map, 0.0, 0).tolist() == [1]


@pytest.mark.parametrize("c", [-2.0000001, 0.3, 2.5, math.nan])
def test_quadratic_rejects_c_outside_range(c):
    # outside -2 <= c <= 1/4 no interval is mapped to itself; the critical
    # orbit of x^2 + 0.3 still stays finite for 20 steps, so the itinerary's
    # escape check alone would give it twenty +1 signs
    with pytest.raises(ValidationError, match="quadratic c must be in"):
        UnimodalMap.quadratic(c)


def test_itinerary_values_are_signs():
    rng = np.random.default_rng(71)
    for x0 in rng.random(5):
        signs = itinerary(UnimodalMap.tent(), float(x0), 50)
        assert set(np.unique(signs)) <= {-1, 1}


def plain_itinerary(umap, x0, n_max):
    """Reference: the sign rule and the map looked up afresh at every step."""
    out, x = [], float(x0)
    for k in range(n_max + 1):
        if not math.isfinite(x):
            raise ValidationError(f"not finite at step {k}")
        if umap.increasing_side == "left":
            out.append(1 if x <= umap.critical else -1)
        else:
            out.append(1 if x >= umap.critical else -1)
        x = umap.fn(x)
    return out


@settings(max_examples=150, deadline=None)
@given(c=st.one_of(st.none(), st.floats(-2.0, 0.25)), u=st.one_of(st.none(), st.floats(0.0, 1.0)),
       n=st.integers(0, 300))
@example(c=None, u=None, n=300)
@example(c=-2.0, u=None, n=300)
@example(c=-1.75, u=None, n=300)
def test_itinerary_is_the_plain_loop(c, u, n):
    # c None: the tent map (increasing on the left); else x^2 + c, on
    # [-beta, beta]; u None starts at the critical point
    if c is None:
        umap, x0 = UnimodalMap.tent(), u
    else:
        umap = UnimodalMap.quadratic(c)
        beta = (1.0 + math.sqrt(1.0 - 4.0 * c)) / 2.0
        x0 = None if u is None else beta * (2.0 * u - 1.0)
    x0 = umap.critical if x0 is None else x0
    try:
        want = plain_itinerary(umap, x0, n)
    except ValidationError:
        with pytest.raises(ValidationError):
            itinerary(umap, x0, n)
        return
    got = itinerary(umap, x0, n)
    assert got.dtype == np.int64 and got.tolist() == want


def test_kneading_determinant_all_plus():
    d = kneading_determinant([1] * 8)
    assert np.all(d == 1)


def test_kneading_determinant_tent():
    eps = kneading_sequence(UnimodalMap.tent(), 8)
    d = kneading_determinant(eps)
    assert list(d) == [1, -1, -1, -1, -1, -1, -1, -1, -1]


def test_kneading_determinant_rejects_bad_signs():
    with pytest.raises(ValidationError):
        kneading_determinant([1, 0, -1])


def test_feigenbaum_kneading_matches_thue_morse():
    eps = kneading_sequence(UnimodalMap.quadratic(FEIGENBAUM_C), 64)
    d = kneading_determinant(eps)
    tm = thue_morse(64)
    assert np.array_equal(d, (-1) ** tm)


@pytest.mark.parametrize("spec", ["tent", "quadratic:-1.75", "feigenbaum-product"])
def test_kneading_coeffs_are_int8_for_every_map(spec):
    d = kneading_coeffs(spec, 300)
    assert d.dtype == np.int8 and d[0] == 1 and np.all(np.abs(d) == 1)


def test_kneading_coefficients_unimodular():
    rng = np.random.default_rng(73)
    eps = rng.choice([-1, 1], size=200)
    d = kneading_determinant(eps)
    assert np.all(np.abs(d) == 1)


def test_thue_morse_two_renascent_completions_evidence():
    # exact finite-window search on the sign stream finds exactly two
    # negative-side completions, one the negation of the other (evidence
    # at this window size, not an enumeration proof)
    from rrl_lab.right_limits import renascent_shift_search, window_cluster
    from rrl_lab.streams import preperiodic

    n = 1 << 14
    signs = ((-1.0) ** thue_morse(n)).astype(complex)
    report = renascent_shift_search(preperiodic(signs, [0]), 8, n - 9, 0.0)
    clusters = window_cluster(report, 0.0)
    assert len(clusters) == 2
    a, b = report.stream.take(8, start=report.shifts[clusters.leaders] - 8)  # b_{-8..-1}
    assert np.array_equal(a, -b)


# ---------------------------------------------------------------- real zero

def test_tent_entropy_log_two():
    eps = kneading_sequence(UnimodalMap.tent(), 64)
    d = kneading_determinant(eps).astype(float)
    res = smallest_real_zero(d, tol=1e-7)
    assert res.status == "zero"
    # closed-form oracle: the full series is (1-2z)/(1-z), zero at 1/2
    assert abs(res.root - 0.5) < 1e-6
    assert abs(res.entropy - math.log(2.0)) < 2e-6


def test_all_ones_has_no_zero():
    res = smallest_real_zero(np.ones(64), tol=1e-6)
    assert res.status == "no-zero"
    assert res.entropy == 0.0


def test_feigenbaum_product_no_zero_below_099():
    d = feigenbaum_product(2047).astype(float)
    res = smallest_real_zero(d, tol=1e-6)
    assert res.status == "no-zero"
    assert res.r_max >= 0.99
    assert res.entropy == 0.0


def test_zero_bracket_monotone_under_depth():
    # deepening the truncation moves the root by at most the shallower tail
    prev = None
    for n in (32, 64, 128):
        eps = kneading_sequence(UnimodalMap.tent(), n)
        d = kneading_determinant(eps).astype(float)
        res = smallest_real_zero(d, tol=1e-7)
        if prev is not None:
            (lo, hi), tail = prev
            assert lo - tail <= res.root <= hi + tail
        prev = (res.bracket, res.root ** (n + 1) / (1.0 - res.root))


def _kneading_zero(umap, n, tol):
    eps = kneading_sequence(umap, n)
    return smallest_real_zero(kneading_determinant(eps).astype(float), tol)


with localcontext() as ctx:
    ctx.prec = 50
    INV_PHI = (Decimal(5).sqrt() - 1) / 2


@pytest.mark.parametrize("tol", [1e-2, 1e-6])
@pytest.mark.parametrize("umap,zero", [(UnimodalMap.tent(), Decimal("0.5")),
                                       (UnimodalMap.quadratic(-1.75), INV_PHI)],
                         ids=["tent", "quadratic:-1.75"])
def test_bracket_contains_full_series_zero(umap, zero, tol):
    # closed forms: (1 - 2z)/(1 - z) and (1 - z - z^2)/(1 - z^3), zeros 1/2
    # and 1/phi; compared exactly, on the decimal expansions of the floats
    zeros = 0
    for n in range(8, 65):
        try:
            res = _kneading_zero(umap, n, tol)
        except InsufficientDepth:
            continue
        # both maps have positive entropy: only a bracket or too little depth
        assert res.status != "no-zero", n
        if res.status == "zero":
            zeros += 1
            a, b = res.bracket
            assert Decimal(a) <= zero <= Decimal(b), (n, res.bracket)
            lo, hi = res.entropy_interval
            assert lo <= res.entropy <= hi
    assert zeros >= 30


def test_shallow_brackets_that_excluded_the_zero():
    # the truncated polynomials' zeros, 0.500061 and 0.618286, are not the
    # full series' zeros 1/2 and 1/phi
    tent = _kneading_zero(UnimodalMap.tent(), 12, 1e-2)
    assert tent.status == "zero" and tent.bracket[0] <= 0.5 <= tent.bracket[1]
    quad = _kneading_zero(UnimodalMap.quadratic(-1.75), 15, 1e-2)
    assert quad.status == "zero"
    assert Decimal(quad.bracket[0]) <= INV_PHI <= Decimal(quad.bracket[1])


@settings(max_examples=100, deadline=None)
@given(st.floats(-2.0, -1.4), st.integers(8, 64))
# shallow no-zero results that a deep zero below their r_max contradicted
@example(-1.4323005452484807, 38)
@example(-1.423045351502617, 55)
def test_shallow_and_deep_results_agree(c, n):
    umap = UnimodalMap.quadratic(c)
    try:
        shallow = _kneading_zero(umap, n, 1e-2)
        deep = _kneading_zero(umap, 4 * n, 1e-6)
    except InsufficientDepth:
        assume(False)
    assume(deep.status == "zero")
    if shallow.status == "no-zero":
        # no zero of the full series on (0, shallow r_max]
        assert deep.bracket[0] > shallow.r_max
    else:
        # both brackets hold a zero of the same full series
        (a1, b1), (a2, b2) = shallow.bracket, deep.bracket
        assert a1 <= b2 and a2 <= b1


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3000), st.booleans(), st.integers(0, 2**32 - 1),
       st.lists(st.floats(0.0, 1.0 - 1e-9), min_size=1, max_size=4))
@example(0, False, 0, [0.0, 0.5, 1.0 - 1e-9])  # K = 0: the value must be c_0 exactly
@example(3000, True, 1, [0.999, 1.0 - 1e-9])
@example(2, False, 2, [0.7])
# r^173 < tiny: rows of powers and R = r^174 are set to 0
@example(30000, True, 3, [0.0, 0.001, 0.01, 0.5])
def test_series_values_within_gamma_k(n, unimodular, seed, rs):
    # against 60-digit mpmath: |p_hat(r) - p(r)| <= gamma_K / (1 - r) for |c_k| <= 1
    rng = np.random.default_rng(seed)
    c = rng.choice([-1.0, 1.0], n + 1) if unimodular else rng.uniform(-1.0, 1.0, n + 1)
    vals, k = _series_values(c, np.array(rs))
    b = math.isqrt(n) + 1
    assert k == 2 * b - 2 + (-(-(n + 1) // b) - 1) * (b + 1)
    with mpmath.workdps(60):
        u = mpmath.mpf(2) ** -53
        gamma = k * u / (1 - k * u)
        for r, v in zip(rs, vals):
            exact = mpmath.polyval([mpmath.mpf(x) for x in c[::-1]], mpmath.mpf(r))
            assert abs(mpmath.mpf(v) - exact) <= gamma / (1 - mpmath.mpf(r)), (n, r)


# status and bracket as a plain Horner scan (np.polyval on all n + 1 terms) gives them, tol 1e-6
@pytest.mark.parametrize("spec,n,status,bracket", [
    ("tent", 2000, "zero", (0.49999999999999384, 0.5000000000000062)),
    ("tent", 20000, "zero", (0.4999999999999939, 0.5000000000000061)),
    ("quadratic:-1.75", 2000, "zero", (0.6180339887498792, 0.6180339887499104)),
    ("quadratic:-1.75", 20000, "zero", (0.6180339887498794, 0.6180339887499103)),
    ("quadratic", 2000, "no-zero", None),
    ("quadratic", 20000, "no-zero", None),
    ("feigenbaum-product", 2000, "no-zero", None),
    ("feigenbaum-product", 20000, "no-zero", None),
    ("feigenbaum-product", 200000, "no-zero", None),
])
def test_deep_scan_keeps_horner_results(spec, n, status, bracket):
    res = smallest_real_zero(kneading_coeffs(spec, n).astype(float), 1e-6)
    assert (res.status, res.bracket) == (status, bracket)


def test_zero_hidden_by_tail_is_insufficient_depth():
    # 0.064 - r is certified + below about 0.06 and - beyond r_max = 0.0683;
    # between them |p| is under the tail bound, so the sign change is found
    # but cannot be certified for the full series
    with pytest.raises(InsufficientDepth):
        smallest_real_zero(np.array([0.064, -1.0]), tol=1e-2)


def test_insufficient_depth_detected():
    # 1 - z^20 - ... - z^40 crosses zero near 0.97, beyond the certified zone
    c = np.zeros(41)
    c[0] = 1.0
    c[20:] = -1.0
    with pytest.raises(InsufficientDepth):
        smallest_real_zero(c, tol=1e-3)


def test_real_zero_validates_inputs():
    with pytest.raises(ValidationError):
        smallest_real_zero(np.array([2.0, 0.0]), tol=1e-6)
    with pytest.raises(ValidationError):
        smallest_real_zero(np.ones(4), tol=0.0)
    with pytest.raises(ValidationError):
        smallest_real_zero(np.array([1.0, math.nan, -1.0]), tol=1e-6)
    with pytest.raises(ValidationError):
        smallest_real_zero(np.ones(4), tol=math.nan)
    with pytest.raises(ValidationError):
        smallest_real_zero(np.array([]), tol=1e-6)


# ---------------------------------------------------------------- thue-morse

def test_thue_morse_first_eight():
    assert list(thue_morse(7)) == [0, 1, 1, 0, 1, 0, 0, 1]


def test_thue_morse_recurrence():
    n = 400
    tm = thue_morse(2 * n + 1)
    for k in range(n + 1):
        assert tm[2 * k] == tm[k]
        if 2 * k + 1 <= 2 * n + 1:
            assert tm[2 * k + 1] == 1 - tm[k]


def test_thue_morse_matches_substitution_oracle():
    word = substitution_thue_morse(10)  # length 1024
    tm = thue_morse(1023)
    assert tm.dtype == np.int8 and list(tm) == word


def test_feigenbaum_product_small():
    assert list(feigenbaum_product(7)) == [1, -1, -1, 1, -1, 1, 1, -1]
    assert feigenbaum_product(0)[0] == 1
    for n in (1, 5, 12):
        assert feigenbaum_product(n)[0] == 1


def test_feigenbaum_product_matches_convolution_oracle():
    for n in range(1101):
        poly = np.array([1], dtype=np.int64)
        step = 1
        while step <= n:
            factor = np.zeros(step + 1, dtype=np.int64)
            factor[0] = 1
            factor[step] = -1
            poly = np.convolve(poly, factor)
            step *= 2
        assert np.array_equal(feigenbaum_product(n), poly[: n + 1]), n


def test_feigenbaum_product_equals_thue_morse_signs():
    n = 1023
    assert np.array_equal(feigenbaum_product(n), (-1) ** thue_morse(n))


@pytest.mark.parametrize("start,n_max", [(0, 0), (5, 5), (3, 100), (1 << 16, 3 << 16)])
def test_thue_morse_from_start_is_a_slice(start, n_max):
    tm = thue_morse(n_max, start)
    assert tm.dtype == np.int8 and np.array_equal(tm, thue_morse(n_max)[start:])


# uint32 indices up to 2^32 - 1, int64 from n_max = 2^32 on
@pytest.mark.parametrize("start,n_max", [(2**32 - 8, 2**32 - 1), (2**32 - 3, 2**32 + 3)])
def test_thue_morse_on_both_sides_of_the_index_switch(start, n_max):
    tm = thue_morse(n_max, start)
    assert tm.dtype == np.int8
    assert tm.tolist() == [bin(k).count("1") & 1 for k in range(start, n_max + 1)]


@pytest.mark.parametrize("start,n_max", [(-1, 5), (6, 5), (0, -1)])
def test_thue_morse_rejects_a_bad_start(start, n_max):
    with pytest.raises(ValidationError):
        thue_morse(n_max, start)


# the check runs in blocks: sizes n + 1 on and around the block edges
@pytest.mark.parametrize("size", [THUE_MORSE_BLOCK - 1, THUE_MORSE_BLOCK, THUE_MORSE_BLOCK + 1,
                                  3 * THUE_MORSE_BLOCK + 5])
def test_thue_morse_product_recipe_matches_across_blocks(size):
    assert recipe_thue_morse_product(n=size - 1)[0] == {"n": size - 1, "match": True}


@pytest.mark.parametrize("index", [0, THUE_MORSE_BLOCK, None], ids=["first", "block", "last"])
def test_thue_morse_product_recipe_sees_one_wrong_sign(monkeypatch, index):
    n = 3 * THUE_MORSE_BLOCK + 4
    index = n if index is None else index
    blocks = []

    def wrong_product(n_max):
        c = feigenbaum_product(n_max)
        c[index] = -c[index]
        return c

    def counted_thue_morse(n_max, start):
        blocks.append(start)
        return thue_morse(n_max, start)

    monkeypatch.setattr(recipes, "feigenbaum_product", wrong_product)
    monkeypatch.setattr(recipes, "thue_morse", counted_thue_morse)
    assert recipe_thue_morse_product(n=n)[0]["match"] is False
    # the check stops at the block holding the first mismatch
    assert blocks == list(range(0, index + 1, THUE_MORSE_BLOCK))


def test_thue_morse_product_at_1e8_runs_under_a_memory_limit(tmp_path):
    # two whole int64 arrays would need 1.6 GB; the int8 product and one
    # block of the check need about 100 MB
    out = tmp_path / "tm.json"
    proc = cli_under_512_mb("run", "--recipe", "thue-morse-product", "--n", "100000000",
                            "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text()) == {"match": True, "n": 100_000_000,
                                           "recipe": "thue-morse-product"}


@pytest.mark.parametrize("argv", [
    ["run", "--recipe", "thue-morse-product", "--n", str(PRODUCT_N_CAP + 1)],
    ["kneading", "--map", "feigenbaum-product", "-n", str(PRODUCT_N_CAP + 1)],
    ["thue-morse", "-n", str(THUE_MORSE_TOOL_N_CAP + 1)],
], ids=["recipe", "kneading", "tool"])
def test_thue_morse_caps_exit_3_under_a_memory_limit(tmp_path, argv):
    if argv[0] == "run":
        argv = [*argv, "--out", str(tmp_path / "tm.json")]
    proc = cli_under_512_mb(*argv)
    lines = proc.stdout.strip().splitlines()
    assert proc.returncode == 3, proc.stderr
    assert len(lines) == 1 and json.loads(lines[0])["error"]["type"] == "CapExceeded"
