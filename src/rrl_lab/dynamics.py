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

from .circle import frac_part
from .errors import InsufficientDepth, ResonantGamma, ValidationError
from .streams import CoeffStream

FEIGENBAUM_C = -1.401155189  # quadratic parameter at the period-doubling limit


def hecke_stream(theta: float, gamma: float = 0.0,
                 prefix_len: int | None = None) -> CoeffStream:
    """Stream a_k = {gamma + k*theta}, bound 1."""
    th = float(theta)
    ga = float(gamma)

    def fn(k: int) -> complex:
        return complex(frac_part(ga + k * th))

    def vec_fn(ks: np.ndarray) -> np.ndarray:
        return np.mod(ga + ks * th, 1.0).astype(complex)

    s = CoeffStream(f"hecke(theta={th!r}, gamma={ga!r})", fn, 1.0, vec_fn=vec_fn)
    if prefix_len is not None:
        s = s.materialize(prefix_len)
    return s


def hecke_outer_eval(theta: float, z: complex, n_terms: int) -> complex:
    """Continuation formula sum_{k<=N} {k*theta} z^(-k) + 1/(1-z) on |z| > 1.

    For irrational theta this equals the direct partial sum
    -sum_{-N<=n<0} {n*theta} z^n up to the geometric truncation tails
    (termwise: -{-x} = {x} - 1 off the integers).  Truncation bound:
    |z|^(-N) / (|z| - 1).
    """
    z = complex(z)
    if abs(z) < 1.0 + 1e-6:
        raise ValidationError("need |z| >= 1 + 1e-6")
    zinv = 1.0 / z
    total = 1.0 / (1.0 - z)
    for k in range(1, n_terms + 1):
        total += frac_part(k * theta) * zinv**k
    return total


def hecke_outer_truncation_bound(z: complex, n_terms: int) -> float:
    r = abs(z)
    return r ** (-n_terms) / (r - 1.0)


def hecke_gamma_outer(theta: float, gamma: float, z: complex,
                      n_terms: int) -> complex:
    """Offset continuation: sum_{k<=N} {-gamma + k*theta} z^(-k) + z/(1-z) + {gamma}.

    Matches the direct partial sum -sum_{-N<=n<0} {gamma + n*theta} z^n
    within truncation bounds, provided gamma stays off the orbit lattice
    Z + theta*Z; that precondition is checked to 1e-10 over |n| <= N and
    violated offsets raise ResonantGamma.
    """
    z = complex(z)
    if abs(z) < 1.0 + 1e-6:
        raise ValidationError("need |z| >= 1 + 1e-6")
    th, ga = float(theta), float(gamma)
    for n in range(-n_terms, n_terms + 1):
        f = frac_part(ga + n * th)
        if min(f, 1.0 - f) <= 1e-10:
            raise ResonantGamma(
                f"gamma + {n}*theta is within 1e-10 of an integer"
            )
    zinv = 1.0 / z
    total = z / (1.0 - z) + frac_part(ga)
    for k in range(n_terms + 1):  # k = 0 contributes the constant {-gamma}
        total += frac_part(-ga + k * th) * zinv**k
    return total


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
    f = np.mod(ks * float(theta), 1.0)
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

    def observable(self, x: float) -> int:
        if self.increasing_side == "left":
            return 1 if x <= self.critical else -1
        return 1 if x >= self.critical else -1

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
    """Signs (phi(T^k(x0)))_{0<=k<=n_max} as a +-1 integer array."""
    if n_max < 0:
        raise ValidationError("n_max must be >= 0")
    out = np.empty(n_max + 1, dtype=np.int64)
    x = float(x0)
    for k in range(n_max + 1):
        out[k] = umap.observable(x)
        x = umap.fn(x)
    return out


def kneading_sequence(umap: UnimodalMap, n_max: int) -> np.ndarray:
    """eps_1 .. eps_N: itinerary of the critical point, first entry dropped."""
    return itinerary(umap, umap.critical, n_max)[1:]


@dataclass(frozen=True)
class KneadingData:
    """Kneading signs and the cumulative-product determinant coefficients."""

    epsilons: np.ndarray  # eps_1 .. eps_N
    d_coeffs: np.ndarray  # d_0 = 1, d_k = eps_1 * ... * eps_k


def kneading_determinant(eps: Sequence[int], n_max: int | None = None
                         ) -> KneadingData:
    """Coefficients d_0 .. d_N of D(z) = 1 + sum eps_1...eps_k z^k."""
    e = np.asarray(eps, dtype=np.int64)
    if not np.all(np.abs(e) == 1):
        raise ValidationError("kneading signs must be +-1")
    if n_max is not None:
        if n_max > len(e):
            raise ValidationError("not enough signs for requested depth")
        e = e[:n_max]
    d = np.concatenate(([1], np.cumprod(e)))
    return KneadingData(epsilons=e, d_coeffs=d)


@dataclass(frozen=True)
class RealZeroResult:
    """Outcome of the certified smallest-real-zero search on [0, r_max]."""

    status: str  # "zero" | "no-zero"
    root: float | None
    entropy: float
    bracket: tuple[float, float] | None
    r_max: float
    tail_at_root: float | None


def _tail_bound(r: float, n: int, bound: float = 1.0) -> float:
    return bound * r ** (n + 1) / (1.0 - r)


def smallest_real_zero(coeffs: Sequence[float], tol: float,
                       grid_n: int = 512) -> RealZeroResult:
    """Smallest zero of sum c_n z^n on (0, r_max], coefficients bounded by 1.

    r_max is the largest radius where the truncation tail r^(N+1)/(1-r)
    stays below tol/2, so a sign change of the truncated series inside
    [0, r_max] certifies a zero of the full series within the bracket.
    With no certified sign change the result is NoZero (entropy 0); a sign
    change beyond r_max, where the tail bound explodes, raises
    InsufficientDepth.
    """
    c = np.asarray(coeffs, dtype=float)
    if np.max(np.abs(c)) > 1.0 + 1e-12:
        raise ValidationError("coefficients must be bounded by 1")
    if tol <= 0:
        raise ValidationError("tol must be positive")
    n = len(c) - 1
    # Horner roundoff ceiling: computed values within +-noise of the true
    # truncated polynomial, so smaller magnitudes carry no sign information
    noise = 16.0 * n * np.finfo(float).eps * float(np.sum(np.abs(c)))

    def trunc(r: float) -> float:
        return float(np.polyval(c[::-1], r))

    def first_determined_flip(vals: np.ndarray):
        """First adjacent pair of sign-determined values with opposite signs."""
        idx = np.nonzero(np.abs(vals) > noise)[0]
        for i, j in zip(idx, idx[1:]):
            if (vals[i] < 0) != (vals[j] < 0):
                return int(i), int(j)
        return None

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

    rs = np.linspace(0.0, r_max, grid_n + 1)
    vals = np.polyval(c[::-1], rs)
    flip = first_determined_flip(vals)
    if flip is not None:
        i, j = flip
        a, b = float(rs[i]), float(rs[j])
        fa = vals[i]
        for _ in range(200):
            mid = 0.5 * (a + b)
            fm = trunc(mid)
            if fm == 0.0:
                a = b = mid
                break
            if (fm < 0) == (fa < 0):
                a, fa = mid, fm
            else:
                b = mid
            if b - a < 1e-15:
                break
        root = 0.5 * (a + b)
        tail = _tail_bound(root, n)
        return RealZeroResult(
            status="zero",
            root=root,
            entropy=-math.log(root),
            bracket=(a, b),
            r_max=r_max,
            tail_at_root=tail,
        )
    # no certified zero; look for trouble in the uncertified zone
    rs_hi = np.linspace(r_max, 1.0 - 1e-9, 257)
    vals_hi = np.polyval(c[::-1], rs_hi)
    if first_determined_flip(vals_hi) is not None:
        raise InsufficientDepth(
            f"sign change beyond r_max = {r_max}; deepen the truncation"
        )
    return RealZeroResult(
        status="no-zero",
        root=None,
        entropy=0.0,
        bracket=None,
        r_max=r_max,
        tail_at_root=None,
    )


def thue_morse(n_max: int) -> np.ndarray:
    """Bits tau_0 .. tau_N: parity of the binary popcount of n."""
    if n_max < 0:
        raise ValidationError("n_max must be >= 0")
    return np.array([int(n).bit_count() & 1 for n in range(n_max + 1)],
                    dtype=np.int64)


def feigenbaum_product(n_max: int) -> np.ndarray:
    """Coefficients 0..N of prod_m (1 - z^(2^m)), factors with 2^m <= N.

    Exact integers; coefficient n equals (-1)^{tau_n} for the Thue-Morse
    bits tau.
    """
    if n_max < 0:
        raise ValidationError("n_max must be >= 0")
    coeffs = np.zeros(n_max + 1, dtype=np.int64)
    coeffs[0] = 1
    step = 1
    while step <= n_max:
        nxt = coeffs.copy()
        nxt[step:] -= coeffs[:-step]
        coeffs = nxt
        step *= 2
    return coeffs
