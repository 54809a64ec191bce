"""Exact integer arithmetic in Z[zeta_L], zeta_L = e^{2*pi*i/L}.

An element is a length-L list of Python ints c with value sum(c[e] * zeta^e).
The representation is redundant (1 + zeta_2 = 0 does not vanish entrywise),
so zero testing reduces the polynomial sum(c[e] x^e) modulo the L-th
cyclotomic polynomial, under which the representation of 0 is canonical.

Used for building polynomials from root-of-unity root sets with exact
coefficients; everything here is plain-int and overflow-free.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .circle import CirclePoint, Fraction, turn_to_complex


def zeta_power(L: int, e: int) -> list[int]:
    c = [0] * L
    c[e % L] = 1
    return c


def add(a: list[int], b: list[int]) -> list[int]:
    return [x + y for x, y in zip(a, b)]


def sub(a: list[int], b: list[int]) -> list[int]:
    return [x - y for x, y in zip(a, b)]


def shift_mul(a: list[int], e: int) -> list[int]:
    """Multiply by zeta^e: cyclic shift of the exponent vector."""
    L = len(a)
    e %= L
    return a[-e:] + a[:-e] if e else list(a)


@lru_cache(maxsize=None)
def cyclotomic_coeffs(n: int) -> tuple[int, ...]:
    """Integer coefficients (ascending) of the n-th cyclotomic polynomial.

    Computed as (x^n - 1) / prod_{d | n, d < n} Phi_d via exact division.
    """
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _exact_div(poly, list(cyclotomic_coeffs(d)))
    return tuple(poly)


def _exact_div(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials (ascending coefficients)."""
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + dd] // den[dd]
        out[i] = c
        if c:
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    if any(num):
        raise ArithmeticError("division was not exact")
    return out


def reduce_element(a: list[int]) -> list[int]:
    """Canonical form: remainder of sum(a[e] x^e) modulo Phi_L."""
    L = len(a)
    phi = cyclotomic_coeffs(L)
    d = len(phi) - 1
    rem = list(a)
    for i in range(L - 1, d - 1, -1):
        c = rem[i]
        if c:
            rem[i] = 0
            for j in range(d):
                rem[i - d + j] -= c * phi[j]
    return rem


def is_zero(a: list[int]) -> bool:
    return not any(reduce_element(a))


def to_complex(a: list[int]) -> complex:
    """Float value of the element; exact 0.0 / exact ints survive exactly."""
    red = reduce_element(a)
    L = len(a)
    if not any(red[1:]):
        return complex(red[0])
    z = 0j
    for e, c in enumerate(red):
        if c:
            z += c * turn_to_complex(Fraction(e, L))
    return z


def mul_root(coeffs: list[list[int]], e: int) -> list[list[int]]:
    """Multiply a polynomial (Z[zeta_L] coefficients, ascending) by (X - zeta_L^e)."""
    zero = [0] * len(coeffs[0])
    return [sub(a, shift_mul(b, e))
            for a, b in zip([zero] + coeffs, coeffs + [zero])]


def product_from_roots(exponents: list[int], L: int) -> list[list[int]]:
    """Coefficients (ascending) of prod_e (X - zeta_L^e), each a Z[zeta_L] element.

    Multiplication order follows the given exponent order.
    """
    coeffs = [zeta_power(L, 0)]
    for e in exponents:
        coeffs = mul_root(coeffs, e)
    return coeffs


def synthetic_div_root(coeffs: list[list[int]], e: int, L: int) -> list[list[int]]:
    """Divide a monic polynomial (Z[zeta_L] coefficients) by (X - zeta_L^e).

    Requires zeta_L^e to be a root; raises if the remainder is nonzero.
    """
    d = len(coeffs) - 1
    out: list[list[int]] = [None] * d  # type: ignore[list-item]
    carry = coeffs[d]
    for k in range(d - 1, -1, -1):
        out[k] = carry
        carry = add(coeffs[k], shift_mul(carry, e))
    if not is_zero(carry):
        raise ArithmeticError("point is not a root of the polynomial")
    return out


def exact_exponents(points: list[CirclePoint]) -> tuple[list[int], int] | None:
    """Common-denominator exponents for exact points, or None if any is float.

    Returns (exponents, L) with point r = zeta_L^{exponents[r]}.
    """
    L = 1
    for p in points:
        if not p.is_exact:
            return None
        L = math.lcm(L, p.angle.denominator)
    exps = [p.angle.numerator * (L // p.angle.denominator) for p in points]
    return exps, L
