"""Finite-window right-limit machinery.

A right limit of a bounded sequence {a_k} is a two-sided sequence {b_n}
arising as coordinatewise limits a_{n+k_j} -> b_n along increasing shifts
k_j; it is renascent when b_n = a_n for all n >= 0.  At desk scale the
infinite condition is replaced by a finite window and a tolerance, so
every output here is evidence quantified by residuals, not proof.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .psp import PoleMeasure, moments
from .psp import taylor_coefficient  # noqa: F401  (perfbench/tracing.py wraps it here)
from .streams import CoeffStream


@dataclass(frozen=True)
class Window:
    """Two-sided candidate window b_{-W..W} induced by one shift k.

    ``values[n + half_width]`` holds b_n = a_{n+k}; ``residual`` is the
    max of |a_{n+k} - a_n| over the fitted range 0 <= n <= W.
    """

    half_width: int
    values: np.ndarray
    shift: int
    residual: float

    def __getitem__(self, n: int) -> complex:
        return complex(self.values[n + self.half_width])

    def negative_side(self) -> np.ndarray:
        """b_{-W} .. b_{-1}."""
        return self.values[: self.half_width]


@dataclass(frozen=True)
class ShiftReport:
    """All shifts in (W, K_max] whose nonnegative side reproduces the stream."""

    half_width: int
    k_max: int
    tol: float
    windows: list[Window]

    @property
    def shifts(self) -> list[int]:
        return [w.shift for w in self.windows]

    def __len__(self) -> int:
        return len(self.windows)


def renascent_shift_search(a: CoeffStream, half_width: int, k_max: int,
                           tol: float) -> ShiftReport:
    """Find every shift k in (W, K_max] with |a_{n+k} - a_n| <= tol for 0 <= n <= W.

    Each hit carries its induced two-sided window b_n := a_{n+k},
    -W <= n <= W.  An empty report is a valid outcome: it is evidence (not
    proof) that no renascent right limit exists.
    """
    w = int(half_width)
    if w < 1:
        raise ValidationError("half_width must be >= 1")
    if k_max <= w:
        raise ValidationError("k_max must exceed half_width")
    if tol < 0:
        raise ValidationError("tol must be >= 0")
    arr = a.take(k_max + w + 1)
    head = arr[: w + 1]
    # residual[k] = max_{0<=n<=W} |a_{n+k} - a_n| for k = 0 .. k_max
    sliding = np.lib.stride_tricks.sliding_window_view(arr, w + 1)
    residuals = np.max(np.abs(sliding - head), axis=1)
    windows = []
    for k in range(w + 1, k_max + 1):
        if residuals[k] <= tol:
            windows.append(
                Window(
                    half_width=w,
                    values=arr[k - w : k + w + 1].copy(),
                    shift=int(k),
                    residual=float(residuals[k]),
                )
            )
    return ShiftReport(half_width=w, k_max=int(k_max), tol=float(tol),
                       windows=windows)


@dataclass(frozen=True)
class WindowCluster:
    representative: Window
    count: int
    member_shifts: list[int]


def window_cluster(report: ShiftReport, tol: float) -> list[WindowCluster]:
    """Group windows by sup-distance <= tol on the negative side only.

    The nonnegative side is pinned to the stream by the search, so
    multiplicity of completions shows up purely in b_{-W..-1}.  The
    representative of each cluster is the first window seen (ascending
    shift); clusters are returned in first-seen order.
    """
    if not report.windows:
        raise ValidationError("report is empty")
    reps: list[Window] = []
    members: list[list[int]] = []
    for w in report.windows:
        neg = w.negative_side()
        for i, rep in enumerate(reps):
            if np.max(np.abs(neg - rep.negative_side())) <= tol:
                members[i].append(w.shift)
                break
        else:
            reps.append(w)
            members.append([w.shift])
    return [
        WindowCluster(representative=r, count=len(ms), member_shifts=ms)
        for r, ms in zip(reps, members)
    ]


@dataclass(frozen=True)
class WindowSeries:
    """Truncated one-sided generating function of a window, with tail bound."""

    coeffs: np.ndarray
    side: str  # "inner" | "outer"
    bound: float

    def __call__(self, z: complex) -> complex:
        z = complex(z)
        if self.side == "inner":
            powers = z ** np.arange(len(self.coeffs))
            return complex(np.sum(self.coeffs * powers))
        powers = z ** (-np.arange(1, len(self.coeffs) + 1))
        return complex(-np.sum(self.coeffs * powers))

    def truncation_bound(self, z: complex) -> float:
        """Geometric bound on the discarded tail at z (inf off-domain)."""
        r = abs(z)
        n = len(self.coeffs)
        if self.side == "inner":
            return self.bound * r**n / (1.0 - r) if r < 1.0 else float("inf")
        return self.bound * r ** (-n - 1) / (1.0 - 1.0 / r) if r > 1.0 else float("inf")


def generating_functions(w: Window, bound: float | None = None
                         ) -> tuple[WindowSeries, WindowSeries]:
    """(inner, outer) truncated generating functions of a window.

    inner(z)  = sum_{0<=n<=W} b_n z^n          on |z| < 1,
    outer(z)  = -sum_{-W<=n<0} b_n z^n         on |z| > 1.

    ``bound`` defaults to the window's own sup-norm.
    """
    b = float(bound) if bound is not None else float(np.max(np.abs(w.values)))
    inner = WindowSeries(coeffs=w.values[w.half_width :].copy(), side="inner", bound=b)
    # outer stores b_{-1}, b_{-2}, ... so coeffs[k-1] multiplies z^{-k}
    outer = WindowSeries(coeffs=w.values[: w.half_width][::-1].copy(),
                         side="outer", bound=b)
    return inner, outer


def verify_rrl_on_psp(m: PoleMeasure, shifts: Sequence[int],
                      half_width: int) -> list[tuple[int, float, float]]:
    """Residuals max_n |b_{n+k} - b_n| of a pole measure's coefficients.

    Returns one row (shift, residual on n in [0, W], residual on n in
    [-W, -1]) per shift.  When every atom is a root of unity and the shift
    is divisible by all orders, both residuals are exactly 0: the shifted
    exponents reduce to identical angles, so the sums agree bitwise.
    """
    ks = [int(k) for k in shifts]
    if not ks:
        raise ValidationError("shifts must be non-empty")
    if any(b <= a for a, b in zip(ks, ks[1:])):
        raise ValidationError("shifts must be strictly increasing")
    w = int(half_width)
    if w < 1:
        raise ValidationError("half_width must be >= 1")
    # b_n = -moment(-n-1) for n in [-W, W], unshifted and then for each shift
    exps = [-(n + k) - 1 for k in [0] + ks for n in range(-w, w + 1)]
    b = -moments(m, exps).reshape(len(ks) + 1, 2 * w + 1)
    diff = b[1:] - b[0]
    dist = np.hypot(diff.real, diff.imag).tolist()
    return [(k, max(row[w:]), max(row[:w])) for k, row in zip(ks, dist)]


def report_to_csv(report: ShiftReport, cluster_tol: float | None = None) -> str:
    """CSV rendering: shift, residual_pos, residual_neg_vs_cluster, cluster_id.

    ``residual_neg_vs_cluster`` is the sup-distance of the window's negative
    side to its cluster representative (0 for the representative itself).
    Cluster tolerance defaults to the search tolerance.
    """
    tol = report.tol if cluster_tol is None else float(cluster_tol)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["shift", "residual_pos", "residual_neg_vs_cluster", "cluster_id"])
    if report.windows:
        clusters = window_cluster(report, tol)
        by_shift = {w.shift: w for w in report.windows}
        assignment: dict[int, tuple[int, float]] = {}
        for cid, cl in enumerate(clusters):
            rep_neg = cl.representative.negative_side()
            for shift in cl.member_shifts:
                d = float(np.max(np.abs(by_shift[shift].negative_side() - rep_neg)))
                assignment[shift] = (cid, d)
        for w in report.windows:
            cid, d = assignment[w.shift]
            writer.writerow([w.shift, repr(w.residual), repr(d), cid])
    return out.getvalue()
