"""Coefficient streams generated by dynamical systems.

Circle rotations with the fractional-part observable (the Hecke family),
itineraries of unimodal interval maps, kneading determinants with the
smallest-real-zero entropy reading, and the Thue-Morse / lacunary-product
pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .circle import frac_array, frac_part
from .errors import CapExceeded, InsufficientDepth, ResonantGamma, ValidationError
from .streams import CoeffStream

FEIGENBAUM_C = -1.401155189  # quadratic parameter at the period-doubling limit
# largest degree of the lacunary product: its int8 coefficients stay near
# 200 MB, well inside 512 MB of address space with the interpreter
PRODUCT_N_CAP = 2 * 10**8
# longest itinerary: the Python loop keeps a list and then an int64 array,
# about 18 B a step, 2 s and 190 MB at the cap
ITINERARY_N_CAP = 10**7
# largest degree of the smallest-real-zero scan, which holds the coefficients
# as floats and as Horner blocks, about 20 B each: 5 s and 240 MB at the cap
ZERO_N_CAP = 10**7
# deepest Hecke continuation: hecke_outer_eval and the direct sum it is
# checked against are Python loops, about 0.4 s and 0.2 s per 10^6 terms
HECKE_N_CAP = 10**7


def hecke_stream(theta: float, gamma: float = 0.0) -> CoeffStream:
    """Real stream a_k = {gamma + k*theta} (``circle.frac_array``, unsnapped), bound 1.

    An overflowing k*theta reads as NaN, quietly: the bound check rejects it.
    """
    th = float(theta)
    ga = float(gamma)

    def rule(ks: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            x = ks * th
            x += ga
            return frac_array(x)

    return CoeffStream(f"hecke(theta={th!r}, gamma={ga!r})", rule, 1.0)


def hecke_outer_eval(theta: float, z: complex, n_terms: int, gamma: float = 0.0) -> complex:
    """Continuation formula 1/(1-z) + sum_{k<=N} {k*theta - gamma} z^(-k) on |z| > 1.

    For irrational theta this equals the direct partial sum
    -sum_{-N<=n<0} {gamma + n*theta} z^n up to the geometric truncation
    tails (termwise: -{-x} = {x} - 1 off the integers).  Truncation bound:
    |z|^(-N) / (|z| - 1).  A nonzero gamma must stay off the orbit lattice
    Z + theta*Z at the offsets the sum reads: gamma + n*theta is checked to
    1e-10 for -N <= n <= -1, and a violated offset raises ResonantGamma.
    A depth above HECKE_N_CAP is CapExceeded, before any loop runs.
    """
    if n_terms < 1:
        raise ValidationError(f"Hecke depth must be >= 1, got {n_terms}")
    if n_terms > HECKE_N_CAP:
        raise CapExceeded(f"Hecke depth {n_terms} exceeds cap {HECKE_N_CAP}")
    z = complex(z)
    if abs(z) < 1.0 + 1e-6:
        raise ValidationError("need |z| >= 1 + 1e-6")
    th, ga = float(theta), float(gamma)
    if ga != 0.0:
        for n in range(-n_terms, 0):
            f = frac_part(ga + n * th)
            if min(f, 1.0 - f) <= 1e-10:
                raise ResonantGamma(
                    f"gamma + {n}*theta is within 1e-10 of an integer"
                )
    zinv = 1.0 / z
    total = 1.0 / (1.0 - z)
    for k in range(1, n_terms + 1):
        total += frac_part(k * th - ga) * zinv**k
    return total


def hecke_outer_truncation_bound(z: complex, n_terms: int) -> float:
    r = abs(z)
    return r ** (-n_terms) / (r - 1.0)


def occurrence_times(theta: float, g1: float, g2: float, n_max: int) -> np.ndarray:
    """All k <= n_max with {k*theta} in [1-g2, 1-g1), ascending.

    These are exactly the wrap times where {g1+k*theta} and {g2+k*theta}
    disagree by 1 - (g2-g1) instead of -(g2-g1), which yields the
    coefficientwise identity

        gHe_{g1}(z) - gHe_{g2}(z) + (g2-g1)/(1-z) = sum_{k in set} z^k.
    """
    if not (0 <= g1 < g2 < 1):
        raise ValidationError("need 0 <= g1 < g2 < 1")
    ks = np.arange(n_max + 1)
    f = frac_array(ks * float(theta))
    return ks[(f >= 1.0 - g2) & (f < 1.0 - g1)]


@dataclass(frozen=True)
class UnimodalMap:
    """Continuous unimodal self-map of an interval with one critical point.

    ``increasing_side`` names the branch on which the map increases; the
    itinerary observable is +1 on the closed increasing side (including
    the critical point) and -1 on the other side.  Critical orbits are
    assumed non-periodic by the caller; periodicity is not detected here.
    """

    fn: Callable[[float], float]
    critical: float
    increasing_side: str  # "left" | "right"
    name: str = "unimodal"

    @classmethod
    def tent(cls) -> "UnimodalMap":
        return cls(
            fn=lambda x: 2.0 * x if x <= 0.5 else 2.0 - 2.0 * x,
            critical=0.5,
            increasing_side="left",
            name="tent",
        )

    @classmethod
    def quadratic(cls, c: float = FEIGENBAUM_C) -> "UnimodalMap":
        return cls(
            fn=lambda x: x * x + c,
            critical=0.0,
            increasing_side="right",
            name=f"quadratic:{c!r}",
        )


def itinerary(umap: UnimodalMap, x0: float, n_max: int) -> np.ndarray:
    """Signs (phi(T^k(x0)))_{0<=k<=n_max} as a +-1 integer array.

    An orbit point that is not finite (the map does not keep the orbit in
    its interval) is a ``ValidationError``: its sign means nothing.
    """
    if n_max < 0:
        raise ValidationError("n_max must be >= 0")
    if n_max > ITINERARY_N_CAP:
        raise CapExceeded(f"itinerary length n = {n_max} exceeds cap {ITINERARY_N_CAP}")
    fn, critical, isfinite = umap.fn, umap.critical, math.isfinite
    left = umap.increasing_side == "left"
    signs = []
    x = float(x0)
    for k in range(n_max + 1):
        if not isfinite(x):
            raise ValidationError(f"{umap.name}: orbit of {x0!r} is not finite at step {k}")
        signs.append((1 if x <= critical else -1) if left else (1 if x >= critical else -1))
        x = fn(x)
    return np.array(signs, dtype=np.int64)


def kneading_sequence(umap: UnimodalMap, n_max: int) -> np.ndarray:
    """eps_1 .. eps_N: itinerary of the critical point, first entry dropped."""
    return itinerary(umap, umap.critical, n_max)[1:]


def kneading_determinant(eps: Sequence[int]) -> np.ndarray:
    """Coefficients d_0 .. d_N of D(z) = 1 + sum eps_1...eps_k z^k, an int8 array."""
    e = np.asarray(eps, dtype=np.int64)
    if not np.all(np.abs(e) == 1):
        raise ValidationError("kneading signs must be +-1")
    d = np.ones(len(e) + 1, dtype=np.int8)
    np.cumprod(e, out=d[1:])
    return d


@dataclass(frozen=True)
class RealZeroResult:
    """Outcome of the certified smallest-real-zero search on [0, r_max].

    For a bracket (a, b), ``entropy_interval`` is [-log b, -log a], with
    None for the unbounded upper end when a = 0."""

    status: str  # "zero" | "no-zero"
    root: float | None
    entropy: float
    bracket: tuple[float, float] | None
    r_max: float
    entropy_interval: tuple[float, float | None] | None = None


_UNIT_ROUNDOFF = np.finfo(float).eps / 2


def _tail_bound(r: float, n: int) -> float:
    return r ** (n + 1) / (1.0 - r)


def _series_values(c: np.ndarray, rs: np.ndarray) -> tuple[np.ndarray, int]:
    """Values p(rs) = sum c_k rs^k, and K, the most roundings any term goes through.

    Blocked Horner (Paterson & Stockmeyer, SIAM J. Comput. 1973): c is cut
    into J blocks of B = ceil(sqrt(n+1)) terms, every block polynomial
    P_j(r) = sum_i c_{jB+i} r^i comes from one matrix product with the
    Vandermonde columns r^0 .. r^(B-1), and the blocks are summed by Horner
    in R = r^B.  A term meets at most B - 2 roundings in its power, B in the
    dot product (any summation order, with or without FMA), B - 1 in R and 2
    per outer step, so K = 2B - 2 + (J - 1)(B + 1) and, for rs >= 0,
    |error| <= gamma_K * sum |c_k| rs^k.  The dot products run in BLAS, whose
    last bits may differ between builds; only the bound is relied on.
    """
    n = len(c) - 1
    B = math.isqrt(n) + 1  # ceil(sqrt(n + 1))
    J = -(-(n + 1) // B)
    blocks = np.zeros(J * B)
    blocks[: n + 1] = c
    powers = np.vander(rs, B, increasing=True)
    parts = blocks.reshape(J, B) @ powers.T
    big_r = powers[:, -1] * rs
    vals = parts[-1]
    for j in range(J - 2, -1, -1):
        vals = vals * big_r + parts[j]
    return vals, 2 * B - 2 + (J - 1) * (B + 1)


def _certified_signs(vals: np.ndarray, rs: np.ndarray, roundings: int,
                     tail: np.ndarray | float) -> np.ndarray:
    """Signs of the computed values vals = p_n(rs), 0 where |vals| is within the bound.

    A value whose terms each meet at most ``roundings`` roundings is off by
    at most gamma_roundings / (1 - r) for |c_k| <= 1 (Higham, Accuracy and
    Stability of Numerical Algorithms, eq. 5.3, for Horner's 2n);
    ``tail / (1 - r)`` bounds the terms left out of the series, so with
    tail = r^(n+1) the sign holds for the full series.
    """
    nu = roundings * _UNIT_ROUNDOFF
    return np.where(np.abs(vals) > (nu / (1.0 - nu) + tail) / (1.0 - rs), np.sign(vals), 0.0)


def _first_flip(signs: np.ndarray) -> tuple[int, int] | None:
    """Indices of the first adjacent pair of nonzero signs that differ."""
    idx = np.flatnonzero(signs)
    flips = np.flatnonzero(signs[idx[1:]] != signs[idx[:-1]])
    return (int(idx[flips[0]]), int(idx[flips[0] + 1])) if flips.size else None


def smallest_real_zero(coeffs: Sequence[float], tol: float) -> RealZeroResult:
    """Smallest zero of sum c_n z^n on (0, r_max], coefficients bounded by 1.

    r_max is the largest radius where the truncation tail r^(N+1)/(1-r)
    stays below tol/2.  One blocked pass (``_series_values``) covers 513
    points on [0, r_max], where the first sign change certified for the
    full series brackets its zero, and 257 on [r_max, 1 - 1e-9].  Without
    such a bracket, a sign change certified against roundoff alone within
    either grid raises InsufficientDepth; with neither, the result is
    NoZero (entropy 0).  The bracket (a, b) is narrowed by rescanning 65
    points inside it until it stops shrinking, on the prefix c_0 .. c_m
    with b^(m+1) <= u, the unit roundoff: the tail term bounds the dropped
    coefficients.  These short rescans use Horner's rule (``np.polyval``,
    2m roundings), whose bits set the reported bracket.  A degree above
    ZERO_N_CAP is CapExceeded, before the coefficients are copied.
    """
    if len(coeffs) - 1 > ZERO_N_CAP:
        raise CapExceeded(f"zero scan degree {len(coeffs) - 1} exceeds cap {ZERO_N_CAP}")
    c = np.asarray(coeffs, dtype=float)
    if not (c.size and np.all(np.abs(c) <= 1.0 + 1e-12)):
        raise ValidationError("coefficients must be finite and bounded by 1")
    if not tol > 0:
        raise ValidationError("tol must be positive")
    n = len(c) - 1

    # largest r with tail(r) < tol/2, by bisection on the monotone tail
    lo, hi = 0.0, 1.0 - 1e-9
    if _tail_bound(hi, n) < tol / 2.0:
        r_max = hi
    else:
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if _tail_bound(mid, n) < tol / 2.0:
                lo = mid
            else:
                hi = mid
        r_max = lo

    inner = np.linspace(0.0, r_max, 513)
    rs = np.concatenate((inner, np.linspace(r_max, 1.0 - 1e-9, 257)))
    vals, roundings = _series_values(c, rs)
    flip = _first_flip(_certified_signs(vals[: inner.size], inner, roundings, inner ** (n + 1)))
    if flip is None:
        # a sign change of the truncated series alone, on [0, r_max] where the
        # tail hides it or beyond r_max, is a zero this depth cannot place
        bare = _certified_signs(vals, rs, roundings, 0.0)
        if any(_first_flip(part) is not None for part in (bare[: inner.size], bare[inner.size :])):
            raise InsufficientDepth(
                f"uncertified sign change (r_max = {r_max}); deepen the truncation")
        return RealZeroResult("no-zero", None, 0.0, None, r_max)
    a, b = float(inner[flip[0]]), float(inner[flip[1]])
    m = min(n, math.ceil(math.log(_UNIT_ROUNDOFF) / math.log(b)))
    while True:
        rs = np.linspace(a, b, 65)
        vals = np.polyval(c[: m + 1][::-1], rs)
        flip = _first_flip(_certified_signs(vals, rs, 2 * m, rs ** (m + 1)))
        if flip is None or (rs[flip[0]], rs[flip[1]]) == (a, b):
            break
        a, b = float(rs[flip[0]]), float(rs[flip[1]])
    root = 0.5 * (a + b)
    return RealZeroResult("zero", root, -math.log(root), (a, b), r_max,
                          (-math.log(b), -math.log(a) if a > 0 else None))


def thue_morse(n_max: int, start: int = 0) -> np.ndarray:
    """Bits tau_start .. tau_N: parity of the binary popcount of n, int64."""
    if not 0 <= start <= n_max:
        raise ValidationError(f"need 0 <= start <= n_max, got start {start}, n_max {n_max}")
    tau = np.arange(start, n_max + 1)
    # in place: one int64 array, no uint8 temporaries
    return np.bitwise_and(np.bitwise_count(tau, out=tau), 1, out=tau)


def feigenbaum_product(n_max: int) -> np.ndarray:
    """Coefficients 0..N of prod_m (1 - z^(2^m)), factors with 2^m <= N.

    Exact in int8, one byte a coefficient: coefficient n equals
    (-1)^{tau_n} for the Thue-Morse bits tau.  N above PRODUCT_N_CAP is
    CapExceeded, before anything is allocated.
    """
    if n_max < 0:
        raise ValidationError("n_max must be >= 0")
    if n_max > PRODUCT_N_CAP:
        raise CapExceeded(f"n = {n_max} exceeds cap {PRODUCT_N_CAP}")
    coeffs = np.zeros(n_max + 1, dtype=np.int8)
    coeffs[0] = 1
    step = 1
    while step <= n_max:
        # the product so far has degree step - 1: (1 - z^step) appends its negative
        np.negative(coeffs[: min(step, n_max + 1 - step)], out=coeffs[step : 2 * step])
        step *= 2
    return coeffs
