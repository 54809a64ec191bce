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
    indices, elementwise.  ``take`` and ``a`` both read through it, so a
    single coefficient is bit-identical to the same entry of a prefix.
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
        worst = float(np.max(np.abs(arr))) if arr.size else 0.0
        if not worst <= self.bound + BOUND_SLACK:
            raise ValidationError(
                f"stream {self.name!r}: |a_k| = {worst} exceeds bound {self.bound}"
            )
        return arr

    def a(self, k: int) -> complex:
        """Single coefficient a_k (k >= 0)."""
        if k < 0:
            raise ValidationError("stream index must be >= 0")
        return complex(self._read(np.array([k]))[0])

    def take(self, n: int) -> np.ndarray:
        """Materialize a_0 .. a_{n-1} (float64 for a real rule, else complex)."""
        return self._read(np.arange(n))

    def __repr__(self) -> str:
        return f"CoeffStream({self.name!r}, bound={self.bound})"


def _table(values: Sequence[complex]) -> np.ndarray:
    """values as float64 when all are real (ints and bools cast), else complex128."""
    arr = np.asarray(values)
    return arr.astype(complex if np.iscomplexobj(arr) else float)


def from_values(values: Sequence[complex], name: str = "values") -> CoeffStream:
    """Finite sequence, implicitly zero past the end."""
    vals = _table(values)
    bound = float(np.max(np.abs(vals))) if vals.size else 0.0

    def rule(ks: np.ndarray) -> np.ndarray:
        out = np.zeros(len(ks), dtype=vals.dtype)
        inside = ks < len(vals)
        out[inside] = vals[ks[inside]]
        return out

    return CoeffStream(name, rule, bound)


def periodic(cycle: Sequence[complex], name: str = "periodic") -> CoeffStream:
    cyc = _table(cycle)
    if cyc.size == 0:
        raise ValidationError("cycle must be nonempty")
    bound = float(np.max(np.abs(cyc)))
    return CoeffStream(name, lambda ks: cyc[np.mod(ks, len(cyc))], bound)


def preperiodic(head: Sequence[complex], cycle: Sequence[complex],
                name: str = "preperiodic") -> CoeffStream:
    both = _table([*head, *cycle])  # one dtype: complex if any value is
    h, cyc = both[:len(head)], both[len(head):]
    if cyc.size == 0:
        raise ValidationError("cycle must be nonempty")
    bound = float(max(np.max(np.abs(h)) if h.size else 0.0, np.max(np.abs(cyc))))

    def rule(ks: np.ndarray) -> np.ndarray:
        out = cyc[np.mod(ks - len(h), len(cyc))]
        small = ks < len(h)
        out[small] = h[ks[small]]
        return out

    return CoeffStream(name, rule, bound)


def partial_sum(stream: CoeffStream, z: complex, n_terms: int) -> tuple[complex, float]:
    """(sum_{k<n_terms} a_k z^k, geometric tail bound) for |z| < 1.

    The bound is B*|z|^n/(1-|z|); +inf when |z| >= 1.
    """
    ks = np.arange(n_terms)
    coeffs = stream.take(n_terms)
    value = complex(np.sum(coeffs * np.power(complex(z), ks)))
    r = abs(z)
    tail = stream.bound * r**n_terms / (1.0 - r) if r < 1.0 else float("inf")
    return value, tail
