"""Points on the unit circle, stored as angles in turns.

An angle is either an exact ``Fraction`` p/q in lowest terms (roots of
unity) or a plain ``float``.  All integer powers are computed on the angle:
exact points use modular arithmetic on p*k mod q, so exponents as large as
j! stay exact; float points use (k*angle) mod 1.

Complex values are produced by :func:`turn_to_complex`, which reduces the
angle to the first octant before calling cos/sin.  This module owns that
octant rule, in its two forms: the scalar :func:`turn_to_complex` and the
array form :func:`turns_to_parts`, bit-equal to it, which the moment kernel
reads.  Two consequences the rest of the library relies on:

* identical angles always map to bit-identical complex values, so sums
  over a fixed atom list cancel exactly when the reduced angles match;
* quarter-turn points (1, i, -1, -i) are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import DuplicatePoint, ValidationError

Angle = Union[Fraction, float]

# float fractional parts this close to 1 are snapped to 0 (cell boundary fuzz)
FRAC_SNAP = 1e-13


def frac_part(x: float) -> float:
    """Fractional part in [0, 1), snapping values within FRAC_SNAP of 1 to 0."""
    f = x % 1.0
    if f > 1.0 - FRAC_SNAP:
        return 0.0
    return f


def frac_array(x: np.ndarray) -> np.ndarray:
    """Overwrite a float64 array with its fractional parts x - floor(x); return it.

    Unsnapped, and bit-equal to ``np.mod(x, 1.0)`` and to Python's
    ``x % 1.0`` for every finite x, at a fraction of np.mod's cost.  Both
    of those take m = fmod(x, 1) = x - trunc(x), which is exact, then:

    * x >= 0: the result is m.  Here x - floor(x) = x - trunc(x) is exact
      too (Sterbenz: floor(x) is 0 or within [x/2, x]).
    * x < 0, not an integer: the result is fl(m + 1), one rounding of the
      real x - trunc(x) + 1 = x - floor(x), which the subtraction here
      also rounds once.
    * x an integer (zero included): m = 0 becomes +0.0, and x - x is +0.0
      under round-to-nearest, also for x = -0.0.

    A non-finite x gives NaN on every path (floor(+-inf) = +-inf).
    ``tests/test_kernel_exactness.py`` pins the equality.
    """
    x -= np.floor(x)
    return x


def power_turns(angle: float, ks: np.ndarray) -> np.ndarray:
    """{k * angle} for each k of ks, snapped to 0 within FRAC_SNAP of 1 as
    ``frac_part`` snaps: the angles of ``CirclePoint(angle).power(k)``."""
    u = frac_array(angle * ks)
    u[u > 1.0 - FRAC_SNAP] = 0.0
    return u


def turn_to_complex(t: Angle) -> complex:
    """e^{2*pi*i*t} for t in [0, 1), via quadrant reduction.

    Deterministic in the angle: equal t (exact or float) give bit-equal
    results.  Angles that are multiples of 1/4 are exact.
    """
    if isinstance(t, Fraction):
        # int true division rounds correctly, as float(Fraction) does
        q, r = divmod(4 * t.numerator, t.denominator)
        quadrant = q % 4
        r_f = r / t.denominator / 4.0
    else:
        u = t % 1.0
        quadrant = int(4.0 * u) % 4
        r_f = u - quadrant * 0.25
    if r_f <= 0.125:
        x = math.cos(2.0 * math.pi * r_f)
        y = math.sin(2.0 * math.pi * r_f)
    else:
        s = 0.25 - r_f
        x = math.sin(2.0 * math.pi * s)
        y = math.cos(2.0 * math.pi * s)
    if quadrant == 0:
        return complex(x, y)
    if quadrant == 1:
        return complex(-y, x)
    if quadrant == 2:
        return complex(-x, -y)
    return complex(y, -x)


def turns_to_parts(t: np.ndarray, q: int | np.ndarray | None = None
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of e^{2*pi*i*t}: turn_to_complex on arrays.

    ``t`` holds float turns in [0, 1) when q is None, else the residues j
    in [0, q) of the exact angles j/q, as int64 or as Python ints in an
    object array.  q is one int, or an int64 array of orders below 2^53
    that broadcasts against t.  Each element takes turn_to_complex's steps,
    so the parts are bit-equal to it: below q = 2^53, 4*j and j/q stay
    exact in int64 and float64 and the one division rounds as int true
    division does; from 2^53 on, that arithmetic runs on Python ints.
    np.cos/np.sin equal math.cos/math.sin on [0, pi/4], the only range they
    are passed, and np.choose only selects.
    """
    if q is None:
        quadrant = np.floor(4.0 * t)
        r = t - quadrant * 0.25
    else:
        if np.ndim(q) == 0 and q >= 2**53:
            t = t.astype(object)
        four = 4 * t
        quadrant = four // q
        r = np.asarray(four % q / q / 4.0, dtype=float)
    low = r <= 0.125
    a = 2.0 * math.pi * np.where(low, r, 0.25 - r)
    c, s = np.cos(a), np.sin(a)
    x, y = np.where(low, c, s), np.where(low, s, c)
    quadrant = quadrant.astype(np.intp)
    return np.choose(quadrant, [x, -y, -x, y]), np.choose(quadrant, [y, x, -y, -x])


@dataclass(frozen=True, slots=True)
class CirclePoint:
    """A point lambda = e^{2*pi*i*angle} on the unit circle."""

    angle: Angle

    def __post_init__(self):
        a = self.angle
        if isinstance(a, Fraction):
            if not 0 <= a.numerator < a.denominator:
                object.__setattr__(self, "angle", a % 1)
        elif isinstance(a, float):
            if not math.isfinite(a):
                raise ValidationError(f"angle must be finite, got {a!r}")
            object.__setattr__(self, "angle", frac_part(a))
        elif isinstance(a, int):
            object.__setattr__(self, "angle", Fraction(0))
        else:
            raise TypeError(f"angle must be Fraction or float, got {type(a)!r}")

    @classmethod
    def exact(cls, p: int, q: int) -> "CirclePoint":
        """Root-of-unity point at p/q turns (reduced to lowest terms); a
        negative q denotes the same rational, q = 0 is a ValidationError."""
        if q == 0:
            raise ValidationError(f"angle {p}/{q}: denominator must be nonzero")
        if q < 0:
            p, q = -p, -q
        return cls(Fraction(p % q, q))

    @classmethod
    def real(cls, t: float) -> "CirclePoint":
        return cls(float(t))

    @property
    def is_exact(self) -> bool:
        return isinstance(self.angle, Fraction)

    def power(self, k: int) -> "CirclePoint":
        """lambda^k as a circle point; exact points stay exact for any int k."""
        if self.is_exact:
            p, q = self.angle.numerator, self.angle.denominator
            return CirclePoint.exact((p * k) % q, q)
        return CirclePoint(frac_part(self.angle * k))

    def value(self) -> complex:
        return turn_to_complex(self.angle)

    def __repr__(self) -> str:
        if self.is_exact:
            return f"CirclePoint({self.angle.numerator}/{self.angle.denominator})"
        return f"CirclePoint({self.angle!r})"


def angle_order(points: Sequence[CirclePoint]) -> list[int]:
    """Indices of the points in angle order; DuplicatePoint when two share
    an angle.  An exact p/q and a float equal to it are the same angle.

    The sort key is (float(angle), angle).  float() is monotone on exact and
    float angles alike, so the order is the angle order, and the exact
    angle is compared only to break a tie of floats: distinct ``Fraction``s
    that round to one float, or a float equal to an exact angle.
    """
    keys = [(float(p.angle), p.angle) for p in points]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    for i, j in zip(order, order[1:]):
        if keys[i] == keys[j]:
            raise DuplicatePoint(f"repeated point at angle {points[i].angle}")
    return order


def sorted_distinct(points: Iterable[CirclePoint]) -> list[CirclePoint]:
    """The points in angle order; DuplicatePoint when two share an angle."""
    pts = list(points)
    return [pts[i] for i in angle_order(pts)]


def roots_of_unity(q: int) -> list[CirclePoint]:
    """All q-th roots of unity, sorted by angle."""
    return [CirclePoint.exact(p, q) for p in range(q)]
