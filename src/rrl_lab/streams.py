"""Bounded one-sided coefficient sequences backed by named generators."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import ValidationError

# slack allowed when checking |a_k| <= bound on values read
BOUND_SLACK = 1e-12


class CoeffStream:
    """A bounded sequence {a_k}, k >= 0, with a named generating rule.

    ``rule`` maps an integer index array to the coefficients at those
    indices, elementwise, so a slice read by ``take`` from any start is
    bit-identical to the same entries of a prefix.
    A real rule's output is read as float64 (ints and bools cast), a
    complex one as complex128.  Every value read is checked against the
    declared bound; a NaN fails the check.
    """

    def __init__(self, name: str, rule: Callable[[np.ndarray], np.ndarray],
                 bound: float):
        if bound < 0:
            raise ValidationError("bound must be nonnegative")
        self.name = name
        self.rule = rule
        self.bound = float(bound)

    def _read(self, ks: np.ndarray) -> np.ndarray:
        arr = np.asarray(self.rule(ks))
        arr = arr.astype(complex if np.iscomplexobj(arr) else float, copy=False)
        if not arr.size:
            worst = 0.0
        elif arr.dtype == complex:
            worst = float(np.max(np.abs(arr)))
        else:
            # no |arr| temporary for a real read; a NaN still propagates
            worst = float(np.maximum(arr.max(), -arr.min()))
        if not worst <= self.bound + BOUND_SLACK:
            raise ValidationError(
                f"stream {self.name!r}: |a_k| = {worst} exceeds bound {self.bound}"
            )
        return arr

    def take(self, n: int, start: int | np.ndarray = 0) -> np.ndarray:
        """a_start .. a_{start+n-1}, or for an array of starts a row per start."""
        if np.any(np.asarray(start) < 0):
            raise ValidationError("stream index must be >= 0")
        ks = np.add.outer(start, np.arange(n))
        return self._read(ks.ravel()).reshape(ks.shape)

    def __repr__(self) -> str:
        return f"CoeffStream({self.name!r}, bound={self.bound})"


def preperiodic(head: Sequence[complex], cycle: Sequence[complex],
                name: str = "preperiodic") -> CoeffStream:
    """head, then cycle repeated forever; the one stream backed by a table.

    A finite sequence v is ``preperiodic(v, [0])``, a periodic one c is
    ``preperiodic([], c)``.  The table is float64 when every value is real
    (ints and bools cast), else complex128; the bound is the largest |value|.
    """
    both = np.asarray([*head, *cycle])
    both = both.astype(complex if np.iscomplexobj(both) else float)
    h, cyc = both[:len(head)], both[len(head):]
    if cyc.size == 0:
        raise ValidationError("cycle must be nonempty")

    def rule(ks: np.ndarray) -> np.ndarray:
        out = cyc[np.mod(ks - len(h), len(cyc))]
        small = ks < len(h)
        out[small] = h[ks[small]]
        return out

    return CoeffStream(name, rule, float(np.max(np.abs(both))))

