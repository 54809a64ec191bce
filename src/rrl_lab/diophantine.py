"""Constructive shift sequences, simultaneous Diophantine approximation,
and the polynomial balancedness machinery behind uniqueness of completion.

Two constructions produce shifts k with lambda^k ~ 1 for all points of a
finite set: factorials (roots of unity, exact) and a pigeonhole search on
cell indices of the torus (general points).  The polynomial side measures
how close a finite root set F is to a full set of roots of unity through
the coefficient 1-norm of P_F(X) - (X^|F| - 1).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import cyclotomic as cyc
from .circle import CirclePoint, frac_part, turn_to_complex
from .errors import CapExceeded, DuplicateRoot, NotARoot, RrlLabError, ValidationError
from .psp import PoleMeasure, moments

PIGEONHOLE_J_CAP = 8
# 1000! has 2568 digits, inside CPython's 4300-digit int -> str limit
FACTORIAL_J_CAP = 1000
PIGEONHOLE_MAX_SCAN = 5_000_000
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


def _cell_index(point: CirclePoint, m: int, j: int) -> int:
    """floor(j * {m * omega}) computed exactly for rational angles."""
    if point.is_exact:
        p, q = point.angle.numerator, point.angle.denominator
        return (j * ((m * p) % q)) // q
    return int(j * frac_part(point.angle * m))


def _one_sided_ok(points: Sequence[CirclePoint], k: int, j: int) -> bool:
    """Check {k * omega_r} in [0, 1/j) for every point."""
    for p in points:
        if p.is_exact:
            pp, q = p.angle.numerator, p.angle.denominator
            if j * ((k * pp) % q) >= q:
                return False
        else:
            if frac_part(p.angle * k) >= 1.0 / j:
                return False
    return True


def pigeonhole_shift(lambdas: Sequence[CirclePoint], j: int) -> int:
    """Shift k >= 1 with {k * omega_r} in [0, 1/j) for the first min(j, len) points.

    Scans m = 0, 1, 2, ... hashing the cell multi-index
    (floor(j*{m*omega_r}))_r; every collision m' > m proposes k = m' - m,
    which is returned once the one-sided cell condition verifies.  A raw
    collision only guarantees the two-sided |{k*omega}| < 1/j, so the scan
    keeps going past failing pairs; any valid k eventually collides with
    m = 0 in the corner cell, which passes by construction.
    """
    if j < 1:
        raise ValidationError("j must be >= 1")
    if j > PIGEONHOLE_J_CAP:
        raise CapExceeded(f"j = {j} exceeds cap {PIGEONHOLE_J_CAP}")
    if not lambdas:
        raise ValidationError("need at least one point")
    pts = list(lambdas)[: min(j, len(lambdas))]
    seen: dict[tuple[int, ...], int] = {}
    for m in range(PIGEONHOLE_MAX_SCAN):
        key = tuple(_cell_index(p, m, j) for p in pts)
        if key in seen:
            k = m - seen[key]
            if _one_sided_ok(pts, k, j):
                return k
        else:
            seen[key] = m
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
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def one_norm(self) -> float:
        return float(np.sum(np.abs(self.coeffs)))

    def __call__(self, z) -> complex | np.ndarray:
        zs = np.asarray(z, dtype=complex)
        out = np.zeros_like(zs)
        for c in self.coeffs[::-1]:
            out = out * zs + c
        return complex(out) if out.ndim == 0 else out

    def to_json_obj(self):
        return [{"re": c.real, "im": c.imag} for c in self.coeffs]

    @classmethod
    def from_json_obj(cls, obj) -> "CPoly":
        return cls(np.array([complex(r["re"], r["im"]) for r in obj]))

    def dumps(self) -> str:
        return json.dumps(self.to_json_obj())

    @classmethod
    def loads(cls, text: str) -> "CPoly":
        return cls.from_json_obj(json.loads(text))


def _sorted_distinct(points: Sequence[CirclePoint]) -> list[CirclePoint]:
    pts = sorted(points, key=lambda p: p.angle)
    for a, b in zip(pts, pts[1:]):
        if a.angle == b.angle:
            raise DuplicateRoot(f"repeated root at angle {a.angle}")
    return pts


def _divide_root(coeffs: np.ndarray, root: complex) -> np.ndarray:
    """Quotient of P(X) / (X - root) by synthetic division (remainder dropped)."""
    d = len(coeffs) - 1
    out = np.zeros(d, dtype=complex)
    carry = coeffs[d]
    for k in range(d - 1, -1, -1):
        out[k] = carry
        carry = coeffs[k] + root * carry
    return out


def _split_on_unit_roots(pts: list[CirclePoint]
                         ) -> tuple[list[int], list[CirclePoint]] | None:
    """(r of the N-th roots zeta_N^r missing from F, points of F off R_N), N = |F|,
    when more than half of F lies on R_N; None otherwise.

    A point lies on R_N only if it is exact and its order divides N.  Both
    lists have the same length, because |F| = |R_N|.
    """
    n = len(pts)
    on: set[int] = set()
    off = []
    for p in pts:
        if p.is_exact and n % p.angle.denominator == 0:
            on.add(p.angle.numerator * (n // p.angle.denominator))
        else:
            off.append(p)
    if 2 * len(on) <= n:
        return None
    return [r for r in range(n) if r not in on], off


def _exact_coeffs(pts: list[CirclePoint]) -> tuple[list[dict[int, int]], int] | None:
    """Z[zeta_L] coefficients of P_F and L, or None if some root is a float."""
    exact = cyc.exact_exponents(pts)
    if exact is None:
        return None
    exps, lcm = exact
    split = _split_on_unit_roots(pts)
    if split is None:
        return cyc.product_from_roots(exps, lcm), lcm
    # more than half of F is on R_N, so the orders on it have lcm N and N | L
    missing, off = split
    n = len(pts)
    step = lcm // n
    coeffs = [{0: -1}] + [{} for _ in range(n - 1)] + [{0: 1}]  # X^N - 1
    for r in missing:
        coeffs = cyc.synthetic_div_root(coeffs, r * step, lcm)
    for p in off:
        coeffs = cyc.mul_root(coeffs, p.angle.numerator * (lcm // p.angle.denominator), lcm)
    return coeffs, lcm


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
    pts = _sorted_distinct(points)
    exact = _exact_coeffs(pts)
    if exact is not None:
        elements, lcm = exact
        return CPoly(np.array([cyc.to_complex(e, lcm) for e in elements]))
    split = _split_on_unit_roots(pts)
    if split is None:
        coeffs = np.array([1.0 + 0j])
        off = pts
    else:
        missing, off = split
        n = len(pts)
        coeffs = balance_target(n)
        for r in missing:
            coeffs = _divide_root(coeffs, turn_to_complex(Fraction(r, n)))
    for p in off:
        coeffs = np.convolve(coeffs, np.array([-p.value(), 1.0 + 0j]))
    return CPoly(coeffs)


def q_poly(point: CirclePoint, points: Sequence[CirclePoint]) -> CPoly:
    """Q(X) = P_F(X) / (X - lambda) for lambda in F (synthetic division).

    Exact root sets divide in Z[zeta_L]; Q(lambda) then equals P_F'(lambda)
    up to float rounding (exactly, for exact sets).
    """
    pts = _sorted_distinct(points)
    if all(point.angle != p.angle for p in pts):
        raise NotARoot(f"{point} is not in the root set")
    exact = _exact_coeffs(pts)
    if exact is not None:
        elements, lcm = exact
        e_lam = point.angle.numerator * (lcm // point.angle.denominator)
        quotient = cyc.synthetic_div_root(elements, e_lam, lcm)
        return CPoly(np.array([cyc.to_complex(e, lcm) for e in quotient]))
    return CPoly(_divide_root(poly_from_roots(pts).coeffs, point.value()))


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
    pts = _sorted_distinct(points)
    p = poly_from_roots(pts)
    defect = float(np.sum(np.abs(p.coeffs - balance_target(len(pts)))))
    if not math.isfinite(defect):
        raise RrlLabError(f"defect of a {len(pts)}-point root set is {defect!r}")
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
    g = _sorted_distinct(points_g)
    if not g:
        raise ValidationError("G must be nonempty")
    if len(g) > BALANCE_M_CAP:
        raise CapExceeded(f"|G| = {len(g)} exceeds cap {BALANCE_M_CAP}")
    if not (0 < eps < 1):
        raise ValidationError("eps must be in (0, 1)")
    m = len(g)
    thetas = [p.angle_float() for p in g]
    big_m = max(2**m + 1, 4)
    tried: set[tuple[int, tuple[int, ...]]] = set()  # rungs that failed
    while big_m <= BALANCE_N_CAP:
        n, ps = dirichlet_approx(thetas, big_m)
        big_m *= 2
        replaced = tuple(p % n for p in ps)
        if (n, replaced) in tried or len(set(replaced)) < m:
            continue
        tried.add((n, replaced))
        keep = [CirclePoint(Fraction(i, n)) for i in range(n) if i not in replaced]
        angles_kept = {p.angle for p in keep}
        if any(p.angle in angles_kept for p in g):
            continue
        f = g + keep
        ok, defect = is_eps_balanced(f, eps)
        if ok:
            return BalancedSet(
                points=sorted(f, key=lambda p: p.angle),
                epsilon=float(eps),
                defect=defect,
                n_roots=n,
            )
    raise CapExceeded(f"no certified completion with N <= {BALANCE_N_CAP}")


def moment_sequence(measure: PoleMeasure, n_max: int) -> np.ndarray:
    """Moments M(n) = sum weight * lambda^n for n = 0 .. n_max."""
    if n_max < 0:
        raise ValidationError("n_max must be >= 0")
    return moments(measure, range(n_max + 1))
