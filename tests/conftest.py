"""Shared oracles for the test suite.

These are independent computation paths (exact rational-complex
arithmetic, power-series long division, substitution expansion) used to
freeze expected values; they deliberately avoid the library code paths
they check.  ``cli_under_512_mb`` runs the command line in a child
process with a memory limit.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import numpy as np

SRC = str(Path(__file__).resolve().parents[1] / "src")
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SQRT2_M1 = math.sqrt(2.0) - 1.0
SQRT3_M1 = math.sqrt(3.0) - 1.0


class QC:
    """Exact complex rationals a + b*i with Fraction components."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, other):
        return QC(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return QC(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        return QC(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other):
        d = other.re * other.re + other.im * other.im
        return QC(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))


def series_divide(p: list[complex], q: list[complex], n_terms: int) -> np.ndarray:
    """Taylor coefficients of P(z)/Q(z) at 0 by long division; needs q[0] != 0."""
    c = np.zeros(n_terms, dtype=complex)
    for n in range(n_terms):
        acc = p[n] if n < len(p) else 0j
        for i in range(n):
            if n - i < len(q):
                acc -= c[i] * q[n - i]
        c[n] = acc / q[0]
    return c


def rational_function_of_measure(atoms):
    """(P, Q) with sum w/(z - lam) = P(z)/Q(z), coefficients ascending."""
    qpoly = np.array([1.0 + 0j])
    for lam, _ in atoms:
        qpoly = np.convolve(qpoly, np.array([-lam, 1.0 + 0j]))
    ppoly = np.zeros(len(atoms), dtype=complex)
    for i, (_, w) in enumerate(atoms):
        part = np.array([1.0 + 0j])
        for j, (lam, _) in enumerate(atoms):
            if j != i:
                part = np.convolve(part, np.array([-lam, 1.0 + 0j]))
        ppoly[: len(part)] += w * part
    return ppoly, qpoly


def substitution_thue_morse(depth: int) -> list[int]:
    """Thue-Morse prefix of length 2**depth via the substitution 0->01, 1->10."""
    word = [0]
    for _ in range(depth):
        word = [b for a in word for b in ((0, 1) if a == 0 else (1, 0))]
    return word


def cli_under_512_mb(*argv: str) -> subprocess.CompletedProcess:
    """`rrl-lab ARGV` in a subprocess capped at 512 MB of address space, so
    a regression is a MemoryError, not a machine-wide out-of-memory."""
    script = textwrap.dedent(f"""
        import resource, sys
        limit = 1 << 29  # 512 MB
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        from rrl_lab.cli import main
        sys.exit(main({list(argv)!r}))
    """)
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
