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
from collections import Counter
from typing import Sequence

import numpy as np

from .circle import CirclePoint, angle_order, power_turns, turns_to_parts
from .circle import turn_to_complex  # noqa: F401  (perfbench/tracing.py wraps it here)
from .errors import PoleCollision, ValidationError

DEFAULT_EXCLUSION = 1e-12
# points of one psp_eval block: its dozen float64 temporaries stay near
# 1 MB, whatever the number of points or atoms
EVAL_BLOCK = 2**13
# entries of one block of weighted rows in moments: the rows and their
# build temporaries stay near 1 MB, whatever the number of atoms (an atom
# whose row alone is longer, up to 2*cells entries, has a block of its
# own); the residues s mod q, e mod q kept for reuse fill at most
# max(cells, ROW_BLOCK)
ROW_BLOCK = 2**14


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
        atoms = [(p, complex(w)) for p, w in atoms]
        self.atoms: list[tuple[CirclePoint, complex]] = [
            atoms[i] for i in angle_order([p for p, _ in atoms])]
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


def _mod(x: np.ndarray, q) -> np.ndarray:
    """x mod q for an int64 array x and q > 0, an int or an int64 array that
    broadcasts against x, as x - q*(x // q): numpy divides by a divisor
    constant along the inner axis through libdivide, about three times as
    fast as its remainder.  Near -2^63 the product may wrap past int64 and
    the difference wraps back: int64 arithmetic is exact mod 2^64, and the
    result lies in [0, q)."""
    d = x // q
    d *= q
    return np.subtract(x, d, out=d)


def _residues(orders: list[int], ss: list[int], s64, es: np.ndarray):
    """s mod q and e mod q, int64, one row for each order q of ``orders``:
    s mod q on ``s64``, the shifts as int64, or on Python ints once a
    shift when they pass int64 (``s64`` None)."""
    q = np.array(orders, dtype=np.int64)[:, None]
    if s64 is not None:
        sm = _mod(s64, q)
    else:
        sm = np.array([[s % x for s in ss] for x in orders], dtype=np.int64)
    return sm.reshape(len(orders), len(ss)), _mod(es, q)


def _row_block(atoms, row_q: list[int], k: int, tables: dict) -> dict:
    """The weighted rows of the atoms with a row, from atoms[k] on.

    ``row_q`` holds each atom's order q when moments reads it from a row,
    else 0.  Atoms are taken in angle order, skipping those without a row,
    while their rows, each 2Q long for the block's largest order Q, stay
    within ROW_BLOCK entries; the first atom is always taken.  Returns a
    dict from an atom's index to the real and imaginary parts of its row
    R[j] = w * lambda^(p*j mod q), j in [0, 2Q).  The orders not yet in
    ``tables`` are tabulated there by one ``turns_to_parts`` call with
    per-element orders; the rows read their orders' tables at p*j mod q
    (Q <= cells, so a row is at most 2*cells entries and p*j < 2*cells^2
    fits int64 for any result that fits in memory) and take the weight's
    textbook product, one numpy pass over the block each.  When every
    order divides Q the rows have period Q, and their second half is a
    copy of the first.
    """
    picked = []
    top = 0
    for i in range(k, len(atoms)):
        q = row_q[i]
        if not q:
            continue
        if picked and (len(picked) + 1) * 2 * max(top, q) > ROW_BLOCK:
            break
        picked.append(i)
        top = max(top, q)
    q = [row_q[i] for i in picked]
    orders = list(dict.fromkeys(q))
    new = np.array([x for x in orders if x not in tables], dtype=np.int64)
    if new.size:
        hi = np.cumsum(new)
        cr, ci = turns_to_parts(np.arange(hi[-1]) - np.repeat(hi - new, new), np.repeat(new, new))
        for x, h in zip(new.tolist(), hi.tolist()):
            tables[x] = cr[h - x:h], ci[h - x:h]
    base = dict(zip(orders, np.cumsum([0] + orders).tolist()))
    cr = np.concatenate([tables[x][0] for x in orders])
    ci = np.concatenate([tables[x][1] for x in orders])

    def col(v):
        return np.array(v)[:, None]

    half = all(top % x == 0 for x in orders)
    j = _mod(col([atoms[i][0].angle.numerator for i in picked])
             * np.arange(top if half else 2 * top), col(q))
    j += col([base[x] for x in q])
    lr, li = cr.take(j), ci.take(j)
    wr, wi = col([atoms[i][1].real for i in picked]), col([atoms[i][1].imag for i in picked])
    rr, ri = wr * lr - wi * li, wr * li + wi * lr
    if half:
        rr, ri = np.concatenate((rr, rr), axis=1), np.concatenate((ri, ri), axis=1)
    return dict(zip(picked, zip(rr, ri)))


def moments(m: PoleMeasure, shifts: Sequence[int], exps: Sequence[int]) -> np.ndarray:
    """sum_atoms weight * lambda^(s + e), one row per shift s and one column
    per exponent e.

    The one kernel behind every moment and Taylor coefficient.  Atoms are
    summed in angle order with separate real and imaginary accumulators
    and the textbook complex product, so each entry is bit-equal to the
    scalar loop ``total += w * lambda**(s + e)`` over CirclePoint powers.
    Shifts may be arbitrarily large Python ints; exponents must fit int64
    (else ValidationError), and float atoms need s + e to fit a float.

    An exact atom p/q takes one of two routes.  With q <= rows * columns
    it reads its weighted row R[j] = w * lambda^(p*j mod q), j in [0, 2q),
    at j = (s mod q) + (e mod q), which is below 2q, so no second modulo
    is needed: one index add, two gathers and two adds over the cells.  R
    holds the products the scalar loop forms, so the sums keep their bits.
    ``_row_block`` builds the rows of a run of such atoms at a time, within
    ROW_BLOCK entries or one atom's row.  s mod q is taken on an int64
    array of the shifts, or on Python ints once a shift when they pass
    int64, and s mod q, e mod q are kept for the orders with the most such
    atoms, within max(cells, ROW_BLOCK) entries.  A larger order is
    evaluated at the atom's own residues j = ((p*s mod q) + p*e) mod q,
    p*s mod q taken on Python ints once a shift and the rest in int64 when
    p*max|e| + q < 2^63, on Python ints otherwise.  A float atom rounds
    angle*float(s + e) as Python's float * int does, the sum s + e taken
    in int64 when max|s| + max|e| < 2^63 and on Python ints otherwise.
    """
    ss = [int(s) for s in shifts]
    try:
        es = np.array(exps, dtype=np.int64)
    except OverflowError as exc:
        raise ValidationError("exponents must fit int64") from exc
    shape = (len(ss), len(es))
    cells = len(ss) * len(es)
    tr, ti = np.zeros(shape), np.zeros(shape)
    big_e = max(-int(es.min()), int(es.max())) if es.size else 0
    try:
        s64 = np.array(ss, dtype=np.int64)
    except OverflowError:
        s64 = None
    # the order of each atom read from a weighted row (q <= cells), else 0;
    # s mod q and e mod q are kept for the orders with the most such atoms,
    # as many as fit in max(cells, ROW_BLOCK) entries (most_common()[:k] is
    # most_common(k), ties included, without the heapq import)
    row_q = [pt.angle.denominator if pt.is_exact and pt.angle.denominator <= cells else 0
             for pt, _ in m.atoms]
    keep = [q for q, _ in Counter(q for q in row_q if q).most_common()[
        : max(cells, ROW_BLOCK) // (len(ss) + len(es) or 1)]]
    residues = {q: (sm[:, None], em) for q, sm, em in zip(keep, *_residues(keep, ss, s64, es))}
    rows: dict = {}
    tables: dict = {}
    exps_f = None
    for k, (pt, w) in enumerate(m.atoms):
        q = row_q[k]
        if q:
            if k not in rows:
                # the last block's rows are freed before the next are built,
                # and no view of them outlives its atom: the blocks then
                # reuse one stretch of the heap, where a heap grown anew
                # each block page-faulted ~50 times an atom at 2q ~ cells
                rows = None
                rows = _row_block(m.atoms, row_q, k, tables)
            if q in residues:
                sm, em = residues[q]
            else:
                sm, em = _residues([q], ss, s64, es)
                sm, em = sm.T, em[0]
            # (s mod q) + (e mod q) < 2q: no second modulo
            j = sm + em
            tr += rows[k][0].take(j)
            ti += rows[k][1].take(j)
            continue
        if pt.is_exact:
            p, q = pt.angle.numerator, pt.angle.denominator
            small = p * big_e + q < 2**63
            c = np.array([p * s % q for s in ss], dtype=np.int64 if small else object)
            j = c[:, None] + (es * p if small else es.astype(object) * p)
            j %= q
            lr, li = turns_to_parts(j, q)
            del j  # 8 B a cell, not held through the sums
        else:
            if exps_f is None:
                exps_f = np.empty(shape)
                try:
                    if max(map(abs, ss), default=0) + big_e < 2**63:
                        exps_f[:] = np.add.outer(s64, es)
                    else:
                        el = es.tolist()
                        for row, s in zip(exps_f, ss):
                            row[:] = [float(s + e) for e in el]
                except OverflowError as exc:
                    raise ValidationError(
                        "exponent too large for a float-angle atom") from exc
            lr, li = turns_to_parts(power_turns(pt.angle, exps_f))
        tr = tr + (w.real * lr - w.imag * li)
        ti = ti + (w.real * li + w.imag * lr)
    out = np.empty(shape, dtype=complex)
    out.real, out.imag = tr, ti
    return out


def taylor_coefficient(m: PoleMeasure, n: int) -> complex:
    """b_n = -sum weight * lambda^(-n-1), valid for any integer n."""
    return -complex(moments(m, [-n - 1], [0])[0, 0])


def taylor_inner(m: PoleMeasure, n_max: int) -> np.ndarray:
    """Inner coefficients b_0 .. b_{n_max}."""
    if n_max < 0:
        raise ValidationError("n_max must be >= 0")
    return -moments(m, [0], range(-1, -n_max - 2, -1))[0]


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
