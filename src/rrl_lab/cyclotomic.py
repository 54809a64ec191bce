"""Exact integer arithmetic in Z[zeta_L], zeta_L = e^{2*pi*i/L}.

An element is a sparse dict {e mod L: nonzero int} with value sum(c * zeta^e).
Termwise it is redundant (1 + zeta_2 = 0), so zero tests and rounding first
reduce it to a canonical form, one prime power p^k || L at a time: a term
whose CRT digit j_p = e * (L/p^k)^-1 mod p^k has top base-p digit p - 1 is
rewritten by sum_{s<p} zeta^{e + s*L/p} = 0, which lowers that digit and
leaves the other primes' digits alone.  The reduced exponents index the
tensor product of the power bases of the Z[zeta_{p^k}], an integral basis,
so equal elements reduce to equal dicts; for prime-power L this is the
remainder modulo Phi_L.  Everything here is plain-int and overflow-free.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .circle import CirclePoint, Fraction, turn_to_complex
from .errors import CapExceeded

# terms one build step (or one pass of a reduction) may hold in its input
# and output together; a dict term costs about 80 B
EXACT_TERMS_CAP = 2 * 10**6
# L is factored by trial division up to this bound; an L whose rest still has
# two or more prime factors above it (or one above its square) is refused
FACTOR_TRIAL_CAP = 10**5


@lru_cache(maxsize=64)
def _prime_powers(L: int) -> tuple[tuple[int, int, int], ...]:
    """(p, p^k, (L/p^k)^-1 mod p^k) for each prime power p^k || L."""
    out, rest, p = [], L, 2
    while p * p <= rest:
        if p > FACTOR_TRIAL_CAP:
            raise CapExceeded(f"L = {L} has a factor {rest} with no prime "
                              f"factor up to {FACTOR_TRIAL_CAP}")
        if rest % p == 0:
            pk = 1
            while rest % p == 0:
                rest, pk = rest // p, pk * p
            out.append((p, pk, pow(L // pk, -1, pk)))
        p += 1
    if rest > 1:
        out.append((rest, rest, pow(L // rest, -1, rest)))
    return tuple(out)


def _counted(terms: int, L: int) -> int:
    if terms > EXACT_TERMS_CAP:
        raise CapExceeded(f"exact Z[zeta_{L}] arithmetic needs more than "
                          f"{EXACT_TERMS_CAP} stored terms")
    return terms


def reduce_element(a: dict[int, int], L: int) -> dict[int, int]:
    """Canonical form of a: its coordinates in the prime-by-prime basis.

    A rewritten term can leave p - 1 in its place, so each rewrite is counted
    against EXACT_TERMS_CAP before it is stored.
    """
    for p, pk, inv in _prime_powers(L):
        top, step = pk - pk // p, L // p
        out: dict[int, int] = {}
        for e, c in a.items():
            if e * inv % pk >= top:  # top base-p digit of j_p is p - 1
                _counted(len(a) + len(out) + p - 1, L)
                for s in range(1, p):
                    f = (e - s * step) % L
                    out[f] = out.get(f, 0) - c
            else:
                out[e] = out.get(e, 0) + c
        for e in [e for e, c in out.items() if not c]:
            del out[e]
        a = out
    return a


def to_complex(a: dict[int, int], L: int) -> complex:
    """Float value of the element; exact 0.0 / exact ints survive exactly.

    The reduced terms are summed in ascending exponent order.
    """
    red = reduce_element(a, L)
    if red.keys() <= {0}:
        return complex(red.get(0, 0))
    z = 0j
    for e in sorted(red):
        z += red[e] * turn_to_complex(Fraction(e, L))
    return z


def _add_shifted(acc: dict[int, int], a: dict[int, int], e: int, L: int,
                 sign: int) -> dict[int, int]:
    """acc += sign * zeta^e * a, in place, dropping terms that cancel."""
    for f, c in a.items():
        g = (f + e) % L
        s = acc.get(g, 0) + sign * c
        if s:
            acc[g] = s
        else:
            del acc[g]
    return acc


def mul_root(coeffs: list[dict[int, int]], e: int, L: int) -> list[dict[int, int]]:
    """Multiply a polynomial (Z[zeta_L] coefficients, ascending) by (X - zeta_L^e)."""
    out: list[dict[int, int]] = []
    terms = sum(map(len, coeffs))
    for lo, hi in zip([{}] + coeffs, coeffs + [{}]):
        out.append(_add_shifted(dict(lo), hi, e, L, -1))
        terms = _counted(terms + len(out[-1]), L)
    return out


def product_from_roots(exponents: list[int], L: int) -> list[dict[int, int]]:
    """Coefficients (ascending) of prod_e (X - zeta_L^e), each a Z[zeta_L] element.

    Multiplication order follows the given exponent order.
    """
    coeffs: list[dict[int, int]] = [{0: 1}]
    for e in exponents:
        coeffs = mul_root(coeffs, e, L)
    return coeffs


def synthetic_div_root(coeffs: list[dict[int, int]], e: int, L: int
                       ) -> list[dict[int, int]]:
    """Divide a monic polynomial (Z[zeta_L] coefficients) by (X - zeta_L^e).

    Requires zeta_L^e to be a root; raises if the remainder is nonzero.  The
    quotient's terms are counted as they are stored, because one division
    can multiply the number of terms by the degree.
    """
    d = len(coeffs) - 1
    out: list[dict[int, int]] = [{}] * d
    carry, terms = coeffs[d], sum(map(len, coeffs))
    for k in range(d - 1, -1, -1):
        out[k] = carry
        terms = _counted(terms + len(carry), L)
        carry = _add_shifted(dict(coeffs[k]), carry, e, L, 1)
    if reduce_element(carry, L):
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
    _prime_powers(L)  # an L too large to factor is refused before any build
    exps = [p.angle.numerator * (L // p.angle.denominator) for p in points]
    return exps, L
