"""Simple pole series: finitely many simple poles on the unit circle.

A measure is a finite list of (circle point, complex weight) atoms plus a
declared tail mass for truncated infinite supports.  The series

    g(z) = sum_atoms  weight / (z - lambda)

restricts to an inner function on |z| < 1 and an outer function on |z| > 1;
both have Taylor coefficients

    b_n = - sum_atoms  weight * lambda^(-n-1),   n in Z,

computed here through the angle representation so that equal reduced
angles contribute bit-identical summands (atoms are summed in a fixed
angle-sorted order).
"""

from __future__ import annotations

import cmath
import json
import math
from typing import Sequence

import numpy as np

from .circle import CirclePoint, power_turns, sorted_distinct, turns_to_parts
from .circle import turn_to_complex  # noqa: F401  (perfbench/tracing.py wraps it here)
from .errors import PoleCollision, ValidationError

DEFAULT_EXCLUSION = 1e-12
# points of one psp_eval block: its dozen float64 temporaries stay near
# 1 MB, whatever the number of points or atoms
EVAL_BLOCK = 2**13
# base of the int64 digits that moments splits the exponents into, once a
# call, when p*e passes int64: lcm(1, ..., 24), so every order up to 24
# divides it and reads the last digit alone
DIGIT_BASE = math.lcm(*range(1, 25))


class PoleMeasure:
    """Finite weighted set of distinct unit-circle poles.

    Atoms are kept sorted by angle; ``tail_mass`` records the weight of the
    discarded tail when the measure truncates an infinite one (0 for exact
    finite measures).
    """

    def __init__(self, atoms: Sequence[tuple[CirclePoint, complex]],
                 tail_mass: float = 0.0):
        if not 0 <= tail_mass < math.inf:
            raise ValidationError(f"tail_mass must be finite and nonnegative, got {tail_mass!r}")
        weights = {p.angle: complex(w) for p, w in atoms}
        self.atoms: list[tuple[CirclePoint, complex]] = [
            (p, weights[p.angle]) for p in sorted_distinct(p for p, _ in atoms)]
        for p, w in self.atoms:
            if not cmath.isfinite(w):
                raise ValidationError(f"weight at {p} must be finite, got {w!r}")
        self.tail_mass = float(tail_mass)

    @property
    def total_mass(self) -> float:
        return sum(abs(w) for _, w in self.atoms)

    @property
    def points(self) -> list[CirclePoint]:
        return [p for p, _ in self.atoms]

    def __len__(self) -> int:
        return len(self.atoms)

    def __repr__(self) -> str:
        return f"PoleMeasure({len(self.atoms)} atoms, tail_mass={self.tail_mass})"

    # -- serialization: JSON array of atom objects, angle either {p, q} or float

    def dumps(self) -> str:
        arr = []
        for p, w in self.atoms:
            if p.is_exact:
                ang = {"p": p.angle.numerator, "q": p.angle.denominator}
            else:
                ang = p.angle
            arr.append({"angle": ang, "re": w.real, "im": w.imag})
        if self.tail_mass == 0.0:
            return json.dumps(arr, sort_keys=True)
        return json.dumps({"atoms": arr, "tail_mass": self.tail_mass}, sort_keys=True)

    @classmethod
    def loads(cls, text: str) -> "PoleMeasure":
        try:
            obj = json.loads(text)
        except ValueError as exc:
            raise ValidationError(f"measure is not JSON: {exc}") from exc
        tail = 0.0
        try:
            if isinstance(obj, dict):
                tail = _json_number(obj.get("tail_mass", 0.0), float)
                obj = obj["atoms"]
            atoms = []
            for rec in obj:
                ang = rec["angle"]
                if isinstance(ang, dict):
                    pt = CirclePoint.exact(*(_json_number(ang[k], int) for k in "pq"))
                else:
                    pt = CirclePoint.real(_json_number(ang, float))
                atoms.append((pt, complex(_json_number(rec["re"], float),
                                          _json_number(rec.get("im", 0.0), float))))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"malformed measure: {type(exc).__name__}: {exc}") from exc
        return cls(atoms, tail_mass=tail)


def _json_number(x, kind: type):
    """x as ``kind`` if it is a JSON integer (kind int) or number (kind
    float), else ValidationError: a bool or a string is neither."""
    if isinstance(x, bool) or not isinstance(x, int if kind is int else (int, float)):
        raise ValidationError(f"malformed measure: expected a JSON "
                              f"{'integer' if kind is int else 'number'}, got {x!r}")
    return kind(x)


def uniform_roots_measure(q: int) -> PoleMeasure:
    """Uniform measure on the q-th roots of unity, weight 1/q each."""
    return PoleMeasure([(CirclePoint.exact(p, q), 1.0 / q) for p in range(q)])


def _smith_quot(ar, ai, br: np.ndarray, bi: np.ndarray):
    """(ar + ai*i) / (br + bi*i) elementwise, as CPython divides complex numbers.

    Smith's algorithm spelled out on real arrays (CPython's ``_Py_c_quot``),
    so every quotient is bit-equal to the scalar ``/``; numpy's own complex
    division rounds differently.  Each element runs the one branch that
    ``|br| >= |bi|`` picks, with its operands selected by ``np.where``:
    sums whose operands are swapped are exact, and each difference keeps
    the branch's own operand order, so signs of zero carry.  The dividend
    parts broadcast against the divisor.  Zero divisors are excluded by the
    caller.
    """
    by_real = np.abs(br) >= np.abs(bi)
    big, small = np.where(by_real, br, bi), np.where(by_real, bi, br)
    with np.errstate(all="ignore"):
        ratio = small / big
        denom = small
        denom *= ratio
        denom += big
        ar_r, ai_r = ar * ratio, ai * ratio
        qr = np.where(by_real, ar, ar_r)
        qr += np.where(by_real, ai_r, ai)
        qr /= denom
        qi = np.where(by_real, ai, ai_r)
        qi -= np.where(by_real, ar_r, ar)
        qi /= denom
    return qr, qi


def _collision_message(m: PoleMeasure, z: np.ndarray) -> str:
    """PoleCollision's message for the first point of z within
    DEFAULT_EXCLUSION of an atom, naming the first such atom in angle order."""
    first = None
    for k, (p, _) in enumerate(m.atoms):
        lam = p.value()
        hit = np.flatnonzero(np.hypot(z.real - lam.real, z.imag - lam.imag)
                             <= DEFAULT_EXCLUSION)
        if hit.size and (first is None or hit[0] < first[0]):
            first = hit[0], k
    j, k = first
    return f"z = {complex(z[j])} within {DEFAULT_EXCLUSION} of pole {m.atoms[k][0]}"


def psp_eval(m: PoleMeasure, z) -> complex | np.ndarray:
    """Evaluate the pole series at z (a scalar or an array), atoms in angle order.

    A scalar z goes through the same code as a length-1 array and comes
    back as a complex; an array comes back as a complex array of its shape.
    The points are taken in blocks of at most EVAL_BLOCK, and each block
    runs the atoms in angle order: numpy passes over the block form
    z - lambda, divide the weight by it and add the quotient to the block's
    accumulators, so each point sees the float operations of the scalar
    sum ``total += w / (z - lambda)`` and results are bit-equal to it.  The
    accumulators are written into the output at the end of their block, so
    the whole evaluation holds 16 B a point besides one block's temporaries.
    Raises PoleCollision, before returning any sum, when a point is within
    DEFAULT_EXCLUSION of an atom, naming the first such point in
    ``z.ravel()`` order and its first such atom.  The distance is taken
    only where both parts of z - lambda are within DEFAULT_EXCLUSION, as
    they are at every colliding point.
    """
    zs = np.asarray(z, dtype=complex)
    out = np.empty(zs.shape, dtype=complex)
    flat, flat_out = zs.ravel(), out.reshape(-1)
    atoms = [(p.value(), w) for p, w in m.atoms]
    for lo in range(0, flat.size, EVAL_BLOCK):
        block = slice(lo, lo + EVAL_BLOCK)
        zr, zi = flat.real[block], flat.imag[block]
        acc_r, acc_i = np.zeros(zr.size), np.zeros(zr.size)
        for lam, w in atoms:
            dr, di = zr - lam.real, zi - lam.imag
            near = np.abs(dr) <= DEFAULT_EXCLUSION
            near &= np.abs(di) <= DEFAULT_EXCLUSION
            if near.any() and np.any(np.hypot(dr[near], di[near]) <= DEFAULT_EXCLUSION):
                raise PoleCollision(_collision_message(m, flat[block]))
            qr, qi = _smith_quot(w.real, w.imag, dr, di)
            acc_r += qr
            acc_i += qi
        flat_out.real[block], flat_out.imag[block] = acc_r, acc_i
    return complex(out) if zs.ndim == 0 else out


def _digits(e: np.ndarray, big: int) -> list[np.ndarray]:
    """The exponents ``e`` (int64, or Python ints in an object array) as
    int64 rows of base-DIGIT_BASE digits, top first and at least two: the
    top row is signed, the others lie in [0, DIGIT_BASE).  ``big`` is max|e|."""
    rows = []
    while not rows or big >= 2**63:
        rows.append((e % DIGIT_BASE).astype(np.int64, copy=False))
        e, big = e // DIGIT_BASE, big // DIGIT_BASE
    return [e.astype(np.int64, copy=False), *rows[::-1]]


def _residues(digits: list[np.ndarray], p: int, q: int) -> np.ndarray:
    """(p*e) mod q in int64 from the exponents' ``_digits``, for q < 2^30.

    Horner's rule mod q runs over every digit but the last, which then
    enters times p; no step passes (DIGIT_BASE + q) * q < 2^63.
    """
    j = digits[-1] * (p % q)
    if DIGIT_BASE % q:
        high = digits[0] % q
        for row in digits[1:-1]:
            high *= DIGIT_BASE % q
            high += row
            high %= q
        high *= DIGIT_BASE * p % q
        j += high
    j %= q
    return j


def moments(m: PoleMeasure, exps: Sequence[int]) -> np.ndarray:
    """sum_atoms weight * lambda^e for each integer exponent e.

    The one kernel behind every moment and Taylor coefficient.  Atoms are
    summed in angle order with separate real and imaginary accumulators
    and the textbook complex product, so each entry is bit-equal to the
    scalar loop ``total += w * lambda**e`` over CirclePoint powers.
    Exponents may be arbitrarily large Python ints for exact atoms; float
    atoms need e to fit a float (else ValidationError).

    An exact atom p/q reads lambda^e at the residue (p*e) mod q: one int64
    product when p*max|e| < 2^63, else from the exponents' base-DIGIT_BASE
    digits (made once a call) when q < 2^30, else on Python ints.  An
    order no longer than the exponent list is tabulated once a call, a
    longer one is evaluated at this atom's residues.  A float atom rounds
    angle*e as Python's float * int does.
    """
    exps = [int(e) for e in exps]
    tr, ti = np.zeros(len(exps)), np.zeros(len(exps))
    big = max(map(abs, exps), default=0)
    ints = np.array(exps, dtype=np.int64 if big < 2**63 else object)
    digits = None
    tables: dict = {}
    exps_f = None
    for pt, w in m.atoms:
        if pt.is_exact:
            p, q = pt.angle.numerator, pt.angle.denominator
            if p * big < 2**63:
                j = ints * p
                j %= q
            elif q < 2**30:
                if digits is None:
                    digits = _digits(ints, big)
                j = _residues(digits, p, q)
            else:
                j = ints.astype(object) * p % q
            if q <= len(exps):
                if q not in tables:
                    tables[q] = turns_to_parts(np.arange(q), q)
                j = j.astype(np.intp, copy=False)
                lr, li = tables[q][0][j], tables[q][1][j]
            else:
                lr, li = turns_to_parts(j, q)
            del j  # 8 B an exponent, not held through the sums
        else:
            if exps_f is None:
                try:
                    exps_f = np.array([float(e) for e in exps])
                except OverflowError as exc:
                    raise ValidationError(
                        "exponent too large for a float-angle atom") from exc
            lr, li = turns_to_parts(power_turns(pt.angle, exps_f))
        tr = tr + (w.real * lr - w.imag * li)
        ti = ti + (w.real * li + w.imag * lr)
    out = np.empty(len(exps), dtype=complex)
    out.real, out.imag = tr, ti
    return out


def taylor_coefficient(m: PoleMeasure, n: int) -> complex:
    """b_n = -sum weight * lambda^(-n-1), valid for any integer n."""
    return -complex(moments(m, [-n - 1])[0])


def taylor_inner(m: PoleMeasure, n_max: int) -> np.ndarray:
    """Inner coefficients b_0 .. b_{n_max}."""
    if n_max < 0:
        raise ValidationError("n_max must be >= 0")
    return -moments(m, range(-1, -n_max - 2, -1))


def fourier_psp(fhat: Sequence[tuple[int, complex]], theta: float) -> PoleMeasure:
    """Pole measure whose inner coefficients are b_n = sum_j fhat_j e^{2 pi i j n theta}.

    Pole for frequency j sits at angle {-j*theta} with weight
    -lambda_j * fhat_j.  Raises DuplicatePoint when two supplied frequencies
    collide on the circle (rational theta).
    """
    atoms = []
    for j, c in fhat:
        pt = CirclePoint.real(-j * theta)
        atoms.append((pt, -pt.value() * complex(c)))
    return PoleMeasure(atoms)
