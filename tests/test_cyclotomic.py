import math
from fractions import Fraction
from unittest.mock import patch

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rrl_lab import cyclotomic as cyc
from rrl_lab.circle import CirclePoint, turn_to_complex
from rrl_lab.errors import CapExceeded

SETTINGS = settings(max_examples=200, deadline=None)


def reduce_element(a: dict, L: int) -> dict:
    """The canonical form by the dict loop the library ran before its array
    reduction, one prime power and one term at a time: the oracle."""
    for p, pk, inv in cyc._prime_powers(L):
        top, step = pk - pk // p, L // p
        out: dict[int, int] = {}
        for e, c in a.items():
            if e * inv % pk >= top:  # top base-p digit of j_p is p - 1
                for s in range(1, p):
                    f = (e - s * step) % L
                    out[f] = out.get(f, 0) - c
            else:
                out[e] = out.get(e, 0) + c
        for e in [e for e, c in out.items() if not c]:
            del out[e]
        a = out
    return a


def scalar_to_complex(a: dict, L: int) -> complex:
    """The element's value by the scalar loop the library ran before its
    batched conversion: the oracle, summed in ascending exponent order."""
    red = reduce_element(a, L)
    if red.keys() <= {0}:
        return complex(red.get(0, 0))
    z = 0j
    for e in sorted(red):
        z += red[e] * turn_to_complex(Fraction(e, L))
    return z


def canonical(a: dict, L: int) -> dict:
    """reduce_terms of one element, as a dict {exponent: coefficient}."""
    owner, exps, coefs = cyc.reduce_terms([a], L)
    assert not owner.any() and list(exps) == sorted(exps)
    return dict(zip(exps.tolist(), coefs.tolist()))


def bits(values) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(values, dtype=complex)).view(np.uint64)


def primes_dividing(n: int) -> list[int]:
    return [p for p in range(2, n + 1) if n % p == 0 and all(p % d for d in range(2, p))]


def add_relation(a: dict, p: int, e: int, c: int, L: int) -> dict:
    """a + c * sum_{s<p} zeta^{e + s*L/p}, an element equal to a."""
    out = dict(a)
    for s in range(p):
        f = (e + s * (L // p)) % L
        out[f] = out.get(f, 0) + c
    return {f: v for f, v in out.items() if v}


def mp_value(a: dict, L: int):
    with mpmath.workdps(50):
        return mpmath.fsum(c * mpmath.expjpi(mpmath.mpf(2 * e) / L) for e, c in a.items())


@st.composite
def elements(draw, moduli=st.integers(2, 360)):
    L = draw(moduli)
    a = draw(st.dictionaries(st.integers(0, L - 1), st.integers(-3, 3).filter(bool),
                             max_size=6))
    return L, a


@st.composite
def relations(draw, L):
    """(p, e, c) for one relation sum_{s<p} zeta^{e + s*L/p} = 0 scaled by c."""
    p = draw(st.sampled_from(primes_dividing(L)))
    return p, draw(st.integers(0, L - 1)), draw(st.integers(-3, 3).filter(bool))


@SETTINGS
@given(st.data())
def test_a_relation_does_not_change_the_canonical_form(data):
    L, a = data.draw(elements())
    p, e, c = data.draw(relations(L))
    assert canonical(a, L) == canonical(add_relation(a, p, e, c, L), L) == reduce_element(a, L)


@SETTINGS
@given(st.data())
def test_reduces_to_empty_iff_a_50_digit_evaluation_vanishes(data):
    L, a = data.draw(elements())
    if data.draw(st.booleans()):  # drop the random part: a sum of relations is zero
        a = {}
    for p, e, c in data.draw(st.lists(relations(L), max_size=4)):
        a = add_relation(a, p, e, c, L)
    value = mp_value(a, L)
    assert (not canonical(a, L)) == (abs(value) < 1e-40)
    assert abs(cyc.to_complex([a], L)[0] - complex(value)) <= 1e-12


PRIME_POWERS = [q for q in range(2, 361) if len(primes_dividing(q)) == 1]


@SETTINGS
@given(elements(st.sampled_from(PRIME_POWERS)))
def test_prime_power_moduli_reduce_to_exponents_below_phi(element):
    L, a = element
    p = primes_dividing(L)[0]
    assert all(e < L - L // p for e in canonical(a, L))


def test_zero_detection_uses_cyclotomic_relations():
    # 1 + zeta_2 = 0 even though the element has two terms
    assert canonical({0: 1, 1: 1}, 2) == {}
    # 1 + zeta_3 + zeta_3^2 = 0
    assert canonical({0: 1, 1: 1, 2: 1}, 3) == {}
    assert canonical({1: 1}, 3)


def test_product_of_all_third_roots_is_x_cubed_minus_one():
    elements = cyc.product_from_roots([0, 1, 2], 3)
    values = list(cyc.to_complex(elements, 3))
    assert values == [-1.0, 0.0, 0.0, 1.0]


def test_synthetic_division_by_root():
    elements = cyc.product_from_roots([0, 1, 2], 3)  # X^3 - 1
    quotient = cyc.synthetic_div_root(elements, 0, 3)  # / (X - 1)
    assert list(cyc.to_complex(quotient, 3)) == [1.0, 1.0, 1.0]
    with pytest.raises(ArithmeticError):
        cyc.synthetic_div_root(quotient, 0, 3)


def test_to_complex_exact_integers():
    assert cyc.to_complex([{2: 1, 0: -1}], 4)[0] == -2.0  # zeta_4^2 - 1 = -2
    assert cyc.to_complex([{1: 1, 5: 1, 3: 1}], 6)[0] == 0.0  # the primitive 6th roots and -1


# moduli whose digit test needs Python ints (L * p^k >= 2^63): below 2^53,
# between 2^53 and 2^63 (exponents int64, angles on Python ints) and above
# 2^63 (exponents on Python ints); 1001 rewrites one term into up to 720
BIG_MODULI = [1001, 3 * 2**40, 5**25, 3 * 2**64]
COEFFICIENTS = st.one_of(st.integers(-3, 3), st.integers(-2**70, 2**70),
                         st.sampled_from([2**62, -2**62, 2**62 - 1, 2**53 + 1]))


@st.composite
def element_lists(draw):
    L = draw(st.one_of(st.integers(1, 400), st.sampled_from(BIG_MODULI)))
    one = st.one_of(st.just({}), st.builds(lambda c: {0: c}, COEFFICIENTS),
                    st.dictionaries(st.integers(0, L - 1), COEFFICIENTS, max_size=6))
    return L, draw(st.lists(one, max_size=8))


@settings(max_examples=300, deadline=None)
@given(element_lists(), st.integers(1, 64))
@example((2, [{0: 2**62, 1: -2**62}]), 1)  # 1 - zeta_2 = 2: a sum of 2^63
def test_batched_conversion_is_the_scalar_loop_bit_for_bit(case, chunk):
    # chunk: REDUCE_CHUNK, so that runs and chunks end at every place
    L, elements = case
    with patch.object(cyc, "REDUCE_CHUNK", chunk):
        got = cyc.to_complex(elements, L)
    assert got.dtype == complex and got.shape == (len(elements),)
    assert np.array_equal(bits(got), bits([scalar_to_complex(a, L) for a in elements]))


def test_builds_over_the_terms_cap_are_refused(monkeypatch):
    # the terms held by a step are its input's plus its output's
    monkeypatch.setattr(cyc, "EXACT_TERMS_CAP", 9)
    with pytest.raises(CapExceeded, match="stored terms"):
        cyc.product_from_roots([1, 2, 3], 77)  # 4 terms in, 8 out at the last step
    x8_minus_1 = [{0: -1}] + [{} for _ in range(7)] + [{0: 1}]
    with pytest.raises(CapExceeded, match="stored terms"):
        cyc.synthetic_div_root(x8_minus_1, 1, 8)  # 2 + 8 terms


def test_reductions_over_the_terms_cap_are_refused(monkeypatch):
    # zeta^e with top digits for 7, 11 and 13 rewrites into 6 * 10 * 12 terms
    e = next(e for e in range(1001) if all(
        e * pow(1001 // p, -1, p) % p == p - 1 for p in (7, 11, 13)))
    assert len(cyc.reduce_terms([{e: 1}], 1001)[1]) == 720
    monkeypatch.setattr(cyc, "EXACT_TERMS_CAP", 100)
    with pytest.raises(CapExceeded, match="stored terms"):
        cyc.reduce_terms([{e: 1}], 1001)


def test_prime_powers_factor_l_and_refuse_what_trial_division_cannot_split():
    for L in (1, 2, 12, 360, 572, 997 * 991, 2**5 * 3**4 * 1000000007):
        pps = cyc._prime_powers(L)
        assert math.prod(pk for _, pk, _ in pps) == L
        assert [p for p, _, _ in pps] == sorted(p for p, _, _ in pps)
        for p, pk, inv in pps:
            assert pk % p == 0 and (L // pk) * inv % pk == 1
    with pytest.raises(CapExceeded, match="no prime factor up to"):
        cyc._prime_powers(1000000007 * 998244353)
    with pytest.raises(CapExceeded):
        cyc.exact_exponents([CirclePoint(Fraction(1, 1000000007)),
                             CirclePoint(Fraction(1, 998244353))])


def test_exact_exponents():
    pts = [CirclePoint(Fraction(1, 4)), CirclePoint(Fraction(1, 6))]
    exps, lcm = cyc.exact_exponents(pts)
    assert lcm == 12
    assert exps == [3, 2]
    assert cyc.exact_exponents([CirclePoint.real(0.3)]) is None
