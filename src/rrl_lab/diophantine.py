"""Constructive shift sequences, simultaneous Diophantine approximation,
and the polynomial balancedness machinery behind uniqueness of completion.

Two constructions produce shifts k with lambda^k ~ 1 for all points of a
finite set: factorials (roots of unity, exact) and the first shift into
the pigeonhole corner cell of the torus (general points).  The polynomial
side measures how close a finite root set F is to a full set of roots of
unity through the coefficient 1-norm of P_F(X) - (X^|F| - 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import cyclotomic as cyc
from .circle import CirclePoint, frac_part, power_turns, sorted_distinct
from .errors import CapExceeded, NotARoot, RrlLabError, ValidationError
from .psp import PoleMeasure, moments

PIGEONHOLE_J_CAP = 8
# 1000! has 2568 digits, inside CPython's 4300-digit int -> str limit
FACTORIAL_J_CAP = 1000
# the one-sided corner cell has measure j^-j: 2**27 is 8 times 8^8, the
# expected first shift at j = 8 on 8 generic float points
PIGEONHOLE_MAX_SCAN = 1 << 27
# shifts per block of the pigeonhole scan: the first, and the cap of the doubling
PIGEONHOLE_FIRST_BLOCK = 1 << 5
PIGEONHOLE_BLOCK = 1 << 15
BALANCE_M_CAP = 3
BALANCE_N_CAP = 10**6


def factorial_shifts(j_max: int) -> list[int]:
    """Exact big-integer shifts k_j = j! for j = 1 .. j_max.

    If lambda is a root of unity of order q <= j, then lambda^{j!} = 1
    exactly, so these shifts work for any measure supported on roots of
    unity.
    """
    if j_max < 1:
        raise ValidationError("j_max must be >= 1")
    if j_max > FACTORIAL_J_CAP:
        raise CapExceeded(f"j_max = {j_max} exceeds cap {FACTORIAL_J_CAP}")
    out = [1]
    for j in range(2, j_max + 1):
        out.append(out[-1] * j)
    return out


def _in_corner(p: CirclePoint, ks: np.ndarray, j: int) -> np.ndarray:
    """Mask of the shifts k in ks with {k * omega} in [0, 1/j).

    Exact points test the residue (k * p) mod q, in int64 when
    q * PIGEONHOLE_MAX_SCAN <= 2**63 (the scan's k < PIGEONHOLE_MAX_SCAN and
    p < q, so k * p fits) and in Python ints otherwise; float points test the
    fractional part as CirclePoint.power snaps it (``power_turns``).
    """
    if p.is_exact:
        pp, q = p.angle.numerator, p.angle.denominator
        r = (ks if q * PIGEONHOLE_MAX_SCAN <= 2**63 else ks.astype(object)) * pp % q
        return j * r < q
    return power_turns(p.angle, ks) < 1.0 / j


def pigeonhole_shift(lambdas: Sequence[CirclePoint], j: int) -> int:
    """Smallest shift k >= 1 with {k * omega_r} in [0, 1/j) for the first min(j, len) points.

    This is the k a pigeonhole scan over the cells (floor(j*{m*omega_r}))_r
    returns when it verifies each same-cell pair m < m' as k = m' - m: every
    k it returns passes the one-sided check, and the smallest passing k lies
    in the corner cell of m = 0, so it is found there first.  For float
    angles that rests on int(j * f) = 0 for every f < 1.0 / j, which holds
    for j <= PIGEONHOLE_J_CAP.

    The shifts k < PIGEONHOLE_MAX_SCAN are scanned in blocks that double
    from PIGEONHOLE_FIRST_BLOCK to PIGEONHOLE_BLOCK; each point in turn keeps
    the block's shifts that pass for it, so the first survivor is the answer.
    """
    if j < 1:
        raise ValidationError("j must be >= 1")
    if j > PIGEONHOLE_J_CAP:
        raise CapExceeded(f"j = {j} exceeds cap {PIGEONHOLE_J_CAP}")
    if not lambdas:
        raise ValidationError("need at least one point")
    pts = list(lambdas)[: min(j, len(lambdas))]
    lo, size = 1, PIGEONHOLE_FIRST_BLOCK
    while lo < PIGEONHOLE_MAX_SCAN:
        ks = np.arange(lo, min(lo + size, PIGEONHOLE_MAX_SCAN))
        for p in pts:
            ks = ks[_in_corner(p, ks, j)]
        if ks.size:
            return int(ks[0])
        lo += size
        size = min(2 * size, PIGEONHOLE_BLOCK)
    raise CapExceeded(f"no one-sided shift found within {PIGEONHOLE_MAX_SCAN} scan steps")


def dirichlet_approx(thetas: Sequence[float], big_m: int
                     ) -> tuple[int, list[int]]:
    """Simultaneous approximation: N in [1, big_m], |theta_r - p_r/N| <= 1/(N*M^(1/m)).

    Pigeonhole on the points ({N'theta_1}, ..., {N'theta_m}), N' = 0..M,
    over cells of side M^(-1/m); a same-cell pair differences to a
    candidate N that is verified against the bound.  The short exhaustive
    fallback scan never fails: a qualifying N always exists.  The scan keeps
    up to M cells, so M is capped at BALANCE_N_CAP, the largest M the
    balance ladder asks for.
    """
    ths = [float(t) for t in thetas]
    if not ths:
        raise ValidationError("need at least one theta")
    if big_m < 1:
        raise ValidationError("big_m must be >= 1")
    if big_m > BALANCE_N_CAP:
        raise CapExceeded(f"M = {big_m} exceeds cap {BALANCE_N_CAP}")
    m = len(ths)
    side = big_m ** (-1.0 / m)

    def bound_ok(n: int) -> bool:
        return all(abs(n * t - round(n * t)) <= side * (1 + 1e-12) for t in ths)

    seen: dict[tuple[int, ...], int] = {}
    for n_try in range(big_m + 1):
        key = tuple(int(frac_part(n_try * t) / side) for t in ths)
        if key in seen:
            k = n_try - seen[key]
            if bound_ok(k):
                return k, [round(k * t) for t in ths]
        else:
            seen[key] = n_try
    for n in range(1, big_m + 1):  # guaranteed fallback
        if bound_ok(n):
            return n, [round(n * t) for t in ths]
    raise AssertionError("unreachable: Dirichlet bound has no witness <= M")


@dataclass(frozen=True)
class CPoly:
    """Dense complex polynomial, ascending coefficients."""

    coeffs: np.ndarray

    @property
    def one_norm(self) -> float:
        return float(np.sum(np.abs(self.coeffs)))

    def __call__(self, z) -> complex | np.ndarray:
        zs = np.asarray(z, dtype=complex)
        out = np.zeros_like(zs)
        for c in self.coeffs[::-1]:
            out = out * zs + c
        return complex(out) if out.ndim == 0 else out


def _divide_root(coeffs: np.ndarray, root: complex) -> np.ndarray:
    """Quotient of P(X) / (X - root) by synthetic division (remainder dropped)."""
    d = len(coeffs) - 1
    out = np.zeros(d, dtype=complex)
    carry = coeffs[d]
    for k in range(d - 1, -1, -1):
        out[k] = carry
        carry = coeffs[k] + root * carry
    return out


def _coeffs(pts: list[CirclePoint], divisor: CirclePoint | None = None) -> np.ndarray:
    """Coefficients of P_F, or of P_F / (X - divisor), for sorted distinct F.

    A point lies on R_N (N = |F|) only if it is exact and its order divides
    N.  When more than half of F does, the plan is X^N - 1 divided by
    (X - zeta) for each root of R_N missing from F, in ascending order, then
    multiplied by (X - mu) for each point of F off R_N (as many), in angle
    order; any other set is multiplied out in angle order.  The plan runs in
    Z[zeta_L] when every angle is exact, in complex floats otherwise.
    """
    n = len(pts)
    on = bytearray(n)  # on[r] = 1 when zeta_N^r is in F
    off = []
    for p in pts:
        if p.is_exact and n % p.angle.denominator == 0:
            on[p.angle.numerator * (n // p.angle.denominator)] = 1
        else:
            off.append(p)
    split = 2 * len(off) < n
    missing = [CirclePoint.exact(r, n) for r in range(n) if not on[r]] if split else []
    exact = cyc.exact_exponents(pts)
    if exact is None:
        def div(c, p): return _divide_root(c, p.value())
        def mul(c, p): return np.convolve(c, np.array([-p.value(), 1.0 + 0j]))
        def values(c): return c
        coeffs = balance_target(n) if split else np.array([1.0 + 0j])
        off = off if split else pts
    else:
        exps, lcm = exact
        def e(p): return p.angle.numerator * (lcm // p.angle.denominator)
        def div(c, p): return cyc.synthetic_div_root(c, e(p), lcm)
        def mul(c, p): return cyc.mul_root(c, e(p), lcm)
        def values(c): return cyc.to_complex(c, lcm)
        if split:  # the orders on R_N have lcm N, so N | L
            coeffs = [{0: -1}] + [{} for _ in range(n - 1)] + [{0: 1}]  # X^N - 1
        else:
            coeffs, off = cyc.product_from_roots(exps, lcm), []
        del exact, exps  # N ints that no later step reads
    for p in missing:
        coeffs = div(coeffs, p)
    for p in off:
        coeffs = mul(coeffs, p)
    if divisor is not None:
        coeffs = div(coeffs, divisor)
    return values(coeffs)


def poly_from_roots(points: Sequence[CirclePoint]) -> CPoly:
    """Monic P_F(X) = prod (X - mu) over the root set F, |F| = N.

    When more than half of F lies on the N-th roots of unity R_N, P_F is
    built as (X^N - 1) / prod_{R_N - F} (X - zeta) * prod_{F - R_N} (X - mu):
    m synthetic divisions and m multiplications, O(N*m), and each division
    of X^N - 1 by a root gives unit-modulus coefficients, so nothing grows.
    Any other set is multiplied out in angle order.  When every root has an
    exact rational angle the arithmetic is carried out in Z[zeta_L] (L = lcm
    of the orders), so coefficients that cancel are exactly 0.0, rational
    coefficients are exact, and either route gives the same bits.
    """
    return CPoly(_coeffs(sorted_distinct(points)))


def q_poly(point: CirclePoint, points: Sequence[CirclePoint]) -> CPoly:
    """Q(X) = P_F(X) / (X - lambda) for lambda in F (synthetic division).

    Exact root sets divide in Z[zeta_L]; Q(lambda) then equals P_F'(lambda)
    up to float rounding (exactly, for exact sets).  The divisor is the
    member of F at lambda's angle, so a float lambda equal to an exact
    member divides as that member.
    """
    pts = sorted_distinct(points)
    member = next((p for p in pts if p.angle == point.angle), None)
    if member is None:
        raise NotARoot(f"{point} is not in the root set")
    return CPoly(_coeffs(pts, member))


def balance_target(m: int) -> np.ndarray:
    """Coefficients of X^m - 1."""
    t = np.zeros(m + 1, dtype=complex)
    t[0] = -1.0
    t[m] = 1.0
    return t


def is_eps_balanced(points: Sequence[CirclePoint], eps: float
                    ) -> tuple[bool, float]:
    """(defect <= eps, defect) with defect = ||P_F - (X^|F| - 1)||_1.

    For complete root-of-unity sets the exact path makes the defect
    exactly 0.0.  A defect that is not finite raises RrlLabError rather than
    reading as "not balanced".
    """
    if not (0 < eps < 1):
        raise ValidationError("eps must be in (0, 1)")
    p = poly_from_roots(points)
    defect = float(np.sum(np.abs(p.coeffs - balance_target(len(points)))))
    if not math.isfinite(defect):
        raise RrlLabError(f"defect of a {len(points)}-point root set is {defect!r}")
    return defect <= eps, defect


@dataclass(frozen=True)
class BalancedSet:
    """A certified eps-balanced root set F = G union H, H inside some R_N."""

    points: list[CirclePoint]
    epsilon: float
    defect: float
    n_roots: int  # the N of the R_N the completion was carved from


def balance_completion(points_g: Sequence[CirclePoint], eps: float = 0.5) -> BalancedSet:
    """Complete G to a certified eps-balanced F = G + (R_N minus replaced roots).

    For each scale M, Dirichlet approximation aligns every point of G with
    a distinct N-th root of unity; those roots are swapped out for the
    points of G.  M grows geometrically until the is_eps_balanced
    certificate passes (the worst-case M from the existence proof is
    astronomically larger than what the certificate needs).  A rung that
    repeats an (N, replaced roots) pair already tried is skipped.
    """
    g = sorted_distinct(points_g)
    if not g:
        raise ValidationError("G must be nonempty")
    if len(g) > BALANCE_M_CAP:
        raise CapExceeded(f"|G| = {len(g)} exceeds cap {BALANCE_M_CAP}")
    if not (0 < eps < 1):
        raise ValidationError("eps must be in (0, 1)")
    m = len(g)
    thetas = [float(p.angle) for p in g]
    big_m = max(2**m + 1, 4)
    tried: set[tuple[int, tuple[int, ...]]] = set()  # rungs that failed
    while big_m <= BALANCE_N_CAP:
        n, ps = dirichlet_approx(thetas, big_m)
        big_m *= 2
        replaced = tuple(p % n for p in ps)
        if (n, replaced) in tried or len(set(replaced)) < m:
            continue
        tried.add((n, replaced))
        f = g + [CirclePoint.exact(i, n) for i in range(n) if i not in replaced]
        ok, defect = is_eps_balanced(f, eps)
        if ok:
            return BalancedSet(
                points=sorted_distinct(f),
                epsilon=float(eps),
                defect=defect,
                n_roots=n,
            )
    raise CapExceeded(f"no certified completion with N <= {BALANCE_N_CAP}")


def moment_sequence(measure: PoleMeasure, n_max: int) -> np.ndarray:
    """Moments M(n) = sum weight * lambda^n for n = 0 .. n_max."""
    if n_max < 0:
        raise ValidationError("n_max must be >= 0")
    return moments(measure, [0], range(n_max + 1))[0]
