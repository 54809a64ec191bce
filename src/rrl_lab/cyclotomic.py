"""Exact integer arithmetic in Z[zeta_L], zeta_L = e^{2*pi*i/L}.

An element is a sparse dict {e mod L: nonzero int} with value sum(c * zeta^e).
Termwise it is redundant (1 + zeta_2 = 0), so zero tests and rounding first
reduce it to a canonical form, one prime power p^k || L at a time: a term
whose CRT digit j_p = e * (L/p^k)^-1 mod p^k has top base-p digit p - 1 is
rewritten by sum_{s<p} zeta^{e + s*L/p} = 0, which lowers that digit and
leaves the other primes' digits alone.  The reduced exponents index the
tensor product of the power bases of the Z[zeta_{p^k}], an integral basis,
so equal elements reduce to equal terms; for prime-power L this is the
remainder modulo Phi_L.  Products are built on dicts of plain ints; the
reduction runs on int64 arrays of (element, exponent, coefficient) terms,
on Python ints where int64 could overflow, so nothing here overflows.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import chain
from typing import Iterable, Iterator

import numpy as np

from .circle import CirclePoint, turns_to_parts
from .circle import turn_to_complex  # noqa: F401  (perfbench/tracing.py wraps it here)
from .errors import CapExceeded

# terms one build step, or one reduction pass over one element, may hold in
# its input and output together (a pass counts its output before equal
# exponents merge); a dict term costs about 80 B, an array term 24 B
EXACT_TERMS_CAP = 2 * 10**6
# terms to_complex reads at a time, and reduces and evaluates at a time as
# counted after every rewrite (an element that alone has more goes alone)
REDUCE_CHUNK = 2**14
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


def _hits(exps: np.ndarray, L: int, p: int, pk: int, inv: int) -> np.ndarray:
    """Mask of the exponents whose CRT digit e * inv mod p^k has top base-p
    digit p - 1; the product runs on Python ints where L * p^k >= 2^63."""
    prod = exps * inv if L * pk < 2**63 else exps.astype(object) * inv
    return np.asarray(prod % pk >= pk - pk // p, dtype=bool)


def _flatten(elements: list[dict[int, int]], L: int
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The elements' terms as arrays (owner, exponent, coefficient).

    Exponents are int64 below L = 2^63 and coefficients int64 while each
    element's sum of |c| stays below 2^62: every coefficient a reduction
    forms, and every partial sum of one, is a signed sum of distinct input
    coefficients of its element, so int64 cannot overflow.  Otherwise the
    column holds Python ints.
    """
    sizes = np.fromiter(map(len, elements), dtype=np.int64, count=len(elements))
    n = int(sizes.sum())
    owner = np.repeat(np.arange(len(elements)), sizes)
    exps = np.fromiter(chain.from_iterable(elements),
                       dtype=np.int64 if L < 2**63 else object, count=n)

    def values(dtype) -> np.ndarray:
        return np.fromiter(chain.from_iterable(map(dict.values, elements)),
                           dtype=dtype, count=n)

    try:
        coefs = values(np.int64)
    except OverflowError:  # a coefficient beyond int64
        return owner, exps, values(object)
    if n and np.bincount(owner, np.abs(coefs.astype(float))).max() >= 2**62:
        coefs = values(object)
    return owner, exps, coefs


def _merge(owner: np.ndarray, exps: np.ndarray, coefs: np.ndarray
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The terms sorted by (owner, exponent), equal pairs summed and zero
    sums dropped."""
    order = np.lexsort((exps, owner))
    owner, exps, coefs = owner[order], exps[order], coefs[order]
    del order  # a whole term array, not needed past here
    new = np.ones(len(exps), dtype=bool)
    new[1:] = (exps[1:] != exps[:-1]) | (owner[1:] != owner[:-1])
    starts = np.flatnonzero(new)
    if starts.size:
        coefs = np.add.reduceat(coefs, starts)
    nonzero = coefs != 0
    return owner[starts[nonzero]], exps[starts[nonzero]], coefs[nonzero]


def _reduce(owner: np.ndarray, exps: np.ndarray, coefs: np.ndarray, L: int
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical forms of the elements given by their terms: sorted by
    (owner, exponent), equal exponents merged, no zero coefficient.

    A pass over p^k holds its input terms and the terms it writes (p - 1
    for each rewritten term, before equal exponents merge); each element's
    sum of the two is counted against EXACT_TERMS_CAP before the pass
    writes anything.
    """
    merged = False
    for p, pk, inv in _prime_powers(L):
        hit = _hits(exps, L, p, pk, inv)
        n_hit = int(np.count_nonzero(hit))
        if not n_hit:
            continue
        merged = True
        if 2 * len(exps) + (p - 2) * n_hit > EXACT_TERMS_CAP:
            held = (2.0 * np.bincount(owner)
                    + float(p - 2) * np.bincount(owner[hit], minlength=owner.max() + 1))
            _counted(held.max(), L)
        new = np.repeat(exps[hit], p - 1)
        new -= np.tile(np.arange(1, p, dtype=exps.dtype) * (L // p), n_hit)
        new %= L
        exps = np.concatenate([exps[~hit], new])
        del new
        owner = np.concatenate([owner[~hit], np.repeat(owner[hit], p - 1)])
        coefs = np.concatenate([coefs[~hit], -np.repeat(coefs[hit], p - 1)])
        owner, exps, coefs = _merge(owner, exps, coefs)
    return (owner, exps, coefs) if merged else _merge(owner, exps, coefs)


def reduce_terms(elements: list[dict[int, int]], L: int
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical forms of the elements, as terms (index into elements,
    exponent, coefficient) sorted by index and then exponent."""
    return _reduce(*_flatten(elements, L), L)


def _runs(sizes: Iterable[float]) -> Iterator[tuple[int, int]]:
    """Index ranges [a, b) of consecutive sizes that sum to at most
    REDUCE_CHUNK, or of one index whose size alone is more."""
    a = total = end = 0
    for end, n in enumerate(sizes, 1):
        if total and total + n > REDUCE_CHUNK:
            yield a, end - 1
            a, total = end - 1, 0
        total += n
    if end > a:
        yield a, end


def _values(owner: np.ndarray, exps: np.ndarray, coefs: np.ndarray, L: int,
            n: int) -> np.ndarray:
    """sum c * zeta^e over each owner's terms in the order given, for owners
    0 .. n - 1, as ``z += c * zeta`` from z = 0j forms and adds them: with
    zeta = x + i*y, the term is (c*x - 0*y) + i*(c*y + 0*x), and np.bincount
    adds in input order.  zeta^e is taken REDUCE_CHUNK terms at a time."""
    parts = np.empty((2, len(exps)))
    for i in range(0, len(exps), REDUCE_CHUNK):
        block = slice(i, i + REDUCE_CHUNK)
        x, y = turns_to_parts(exps[block], L)
        c = coefs[block].astype(float)
        parts[0, block] = c * x - 0.0 * y
        parts[1, block] = c * y + 0.0 * x
    out = np.empty(n, dtype=complex)
    out.real = np.bincount(owner, parts[0], minlength=n)
    out.imag = np.bincount(owner, parts[1], minlength=n)
    return out


def to_complex(elements: list[dict[int, int]], L: int) -> np.ndarray:
    """Float values of the elements; exact 0.0 / exact ints survive exactly.

    Each element's reduced terms are summed in ascending exponent order,
    bit for bit as ``z += c * turn_to_complex(Fraction(e, L))`` from z = 0j
    would.  The elements are read in runs of about REDUCE_CHUNK terms, and
    each run is reduced and evaluated in chunks of about REDUCE_CHUNK terms
    as counted after every rewrite (an element that alone has more is a
    run or a chunk of its own).
    """
    out = np.empty(len(elements), dtype=complex)
    for a0, b0 in _runs(map(len, elements)):
        owner, exps, coefs = _flatten(elements[a0:b0], L)
        size = np.ones(len(exps))  # terms after every rewrite, before any merge
        for p, pk, inv in _prime_powers(L):
            size[_hits(exps, L, p, pk, inv)] *= p - 1
        for a, b in _runs(np.bincount(owner, size, minlength=b0 - a0).tolist()):
            lo, hi = np.searchsorted(owner, [a, b])
            terms = _reduce(owner[lo:hi] - a, exps[lo:hi], coefs[lo:hi], L)
            out[a0 + a:a0 + b] = _values(*terms, L, b - a)
    return out


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
    if reduce_terms([carry], L)[0].size:
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
