"""Numeric natural-boundary diagnostics: arc L1 growth.

A strong natural boundary means the arc integrals of |g| blow up as the
radius approaches 1 on every arc.  Finite radius schedules can only
collect evidence for or against that; results carry the schedule and a
ratio indicator, never a divergence claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import psp
from .errors import CapExceeded, ValidationError

# evaluation points of one probe, (quadrature_n + 1) per radius: the probe
# holds about 60 B a point, and psp_eval on 16 atoms takes 0.19-0.28 s per
# 10^6 points on a 2-CPU x86_64 host
ARC_POINTS_CAP = 10**6


@dataclass(frozen=True)
class ArcProbeResult:
    """Trapezoid estimates of int_{w1}^{w2} |g(r e^{i w})| dw per radius."""

    radii: np.ndarray
    integrals: np.ndarray
    quadrature_n: int

    @property
    def ratio(self) -> float | None:
        """integrals[last] / integrals[first]; the blow-up indicator, None
        when the first integral is 0."""
        first = self.integrals[0]
        return float(self.integrals[-1] / first) if first else None


def _scale(r: float | np.ndarray, c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """r * (c + s*i) as the complex product (r + 0i) * (c + s*i), zero signs
    included, in the shape that r and c broadcast to."""
    z = np.empty(np.broadcast_shapes(np.shape(r), np.shape(c)), dtype=complex)
    z.real = r * c - 0.0 * s
    z.imag = r * s + 0.0 * c
    return z


def arc_l1_growth(
    m: psp.PoleMeasure,
    omega1: float,
    omega2: float,
    radii: Sequence[float],
    quadrature_n: int,
) -> ArcProbeResult:
    """Composite-trapezoid arc integrals of |g| over an increasing radius
    grid, g the pole series of ``m``.

    |g(r e^{iw})| has period 2*pi, so the arc needs omega1 < omega2 <= omega1
    + 2*pi; a longer one, or one whose length overflows, is a ValidationError.
    ``quadrature_n`` is the panel count (>= 64); a panel narrower than the
    smallest normal float is a ValidationError.  ``psp.psp_eval`` is called
    once, on a (radii, quadrature_n + 1) array whose row i holds the
    quadrature points of radius i, and raises PoleCollision for a point
    too near a pole.  The returned ratio of the last to the first integral
    indicates blow-up; it is evidence only.  More than ARC_POINTS_CAP points
    in all is CapExceeded, before any is built.
    """
    if not 0.0 < omega2 - omega1 <= 2.0 * np.pi:
        raise ValidationError(f"the arc ({omega1!r}, {omega2!r}) needs omega1 < omega2 and "
                              f"at most one turn")
    rs = np.asarray(list(radii), dtype=float)
    # checked positively: a NaN radius fails every comparison
    if not (rs.size and np.all((rs > 0) & (rs < 1)) and np.all(np.diff(rs) > 0)):
        raise ValidationError("radii must be a nonempty increasing list inside (0, 1)")
    if quadrature_n < 64:
        raise ValidationError("quadrature_n must be >= 64")
    if (omega2 - omega1) / quadrature_n < np.finfo(float).tiny:
        raise ValidationError(f"a panel of the arc ({omega1!r}, {omega2!r}) is below the "
                              f"smallest normal float")
    points = (quadrature_n + 1) * len(rs)
    if points > ARC_POINTS_CAP:
        raise CapExceeded(f"(quadrature_n + 1) * len(radii) = {points} points, over the "
                          f"cap {ARC_POINTS_CAP}")
    omegas = np.linspace(omega1, omega2, quadrature_n + 1)
    cos, sin = np.cos(omegas), np.sin(omegas)
    vals = psp.psp_eval(m, _scale(rs[:, None], cos, sin))
    # np.hypot is bit-equal to abs() of a Python complex; np.abs is not
    ints = np.trapezoid(np.hypot(vals.real, vals.imag), omegas, axis=-1)
    return ArcProbeResult(radii=rs, integrals=ints, quadrature_n=int(quadrature_n))

