"""Finite-window right-limit machinery.

A right limit of a bounded sequence {a_k} is a two-sided sequence {b_n}
arising as coordinatewise limits a_{n+k_j} -> b_n along increasing shifts
k_j; it is renascent when b_n = a_n for all n >= 0.  At desk scale the
infinite condition is replaced by a finite window and a tolerance, so
every output here is evidence quantified by residuals, not proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import CapExceeded, ValidationError
from .psp import PoleMeasure, moments
from .psp import taylor_coefficient  # noqa: F401  (perfbench/tracing.py wraps it here)
from .streams import CoeffStream

# shifts per block of the search: one stream read of SEARCH_BLOCK + 2W values
SEARCH_BLOCK = 1 << 16
# largest k_max searched: about 30 s of n = 0 passes on a desk machine
SEARCH_K_CAP = 10**9
# values the search may hold at once, one block read plus the hits' windows
# (8 B each for a real stream, 16 B for a complex one)
SEARCH_CELLS_CAP = 10**7


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
        if abs(n) > self.half_width:
            raise ValidationError(f"window index {n} outside [-{self.half_width}, "
                                  f"{self.half_width}]")
        return complex(self.values[n + self.half_width])


@dataclass(frozen=True)
class ShiftReport:
    """All shifts in (W, K_max] whose nonnegative side reproduces the stream.

    Row i of ``values`` is the window b_{-W..W} of ``shifts[i]``, and
    ``residuals[i]`` its residual; ``window(i)`` views row i as a ``Window``.
    """

    half_width: int
    k_max: int
    tol: float
    shifts: list[int]
    residuals: np.ndarray
    values: np.ndarray

    def window(self, i: int) -> Window:
        return Window(half_width=self.half_width, values=self.values[i],
                      shift=self.shifts[i], residual=float(self.residuals[i]))

    def __len__(self) -> int:
        return len(self.shifts)


def renascent_shift_search(a: CoeffStream, half_width: int, k_max: int,
                           tol: float) -> ShiftReport:
    """Find every shift k in (W, K_max] with |a_{n+k} - a_n| <= tol for 0 <= n <= W.

    Each hit carries its induced two-sided window b_n := a_{n+k},
    -W <= n <= W.  An empty report is a valid outcome: it is evidence (not
    proof) that no renascent right limit exists.

    Shifts are scanned in blocks of SEARCH_BLOCK, each read from the stream
    with its 2W neighbours, so the search holds one block plus the hits'
    windows: SEARCH_BLOCK + 2W + hits*(2W+1) values, whatever K_max is.
    K_max above SEARCH_K_CAP, or a count above SEARCH_CELLS_CAP (checked
    before the scan and before each block's windows are kept), is
    CapExceeded.
    """
    w = int(half_width)
    if w < 1:
        raise ValidationError("half_width must be >= 1")
    if k_max <= w:
        raise ValidationError("k_max must exceed half_width")
    if not tol >= 0:
        raise ValidationError("tol must be >= 0")
    if k_max > SEARCH_K_CAP:
        raise CapExceeded(f"k_max = {k_max} exceeds cap {SEARCH_K_CAP}")
    span = 2 * w + 1
    cells = SEARCH_BLOCK + 2 * w
    if cells > SEARCH_CELLS_CAP:
        raise CapExceeded(f"a block of the search holds {cells} values, over the "
                          f"cap {SEARCH_CELLS_CAP}")
    head = a.take(w + 1)
    shifts, residuals = [], []
    # one hits x (2W+1) array, grown in place block by block (ndarray.resize
    # reallocates it; no view of it lives across a resize), so the windows
    # are never held twice
    values = np.empty((0, span), dtype=head.dtype)
    for lo in range(w + 1, k_max + 1, SEARCH_BLOCK):
        size = min(SEARCH_BLOCK, k_max + 1 - lo)
        block = a.take(size + 2 * w, start=lo - w)  # block[i + W + n] = a_{lo+i+n}
        # n = 0 over every shift of the block, then the survivors only, c
        # values of n at a time with c * survivors <= size (one pass per n
        # would cost blocks * W numpy calls): the residual
        # max_n |a_{n+k} - a_n| is the same in any order
        res = np.abs(block[w : w + size] - head[0])
        cand = np.flatnonzero(res <= tol)
        res = res[cand]
        n = 1
        while n <= w and cand.size:
            c = min(w + 1 - n, max(1, size // cand.size))
            d = np.abs(sliding_window_view(block, c)[cand + (w + n)] - head[n : n + c])
            d = d.max(axis=1)
            keep = d <= tol
            cand, res = cand[keep], np.maximum(res[keep], d[keep])
            n += c
        cells += cand.size * span
        if cells > SEARCH_CELLS_CAP:
            raise CapExceeded(f"the windows of the shifts up to {lo + size - 1} "
                              f"bring the search to {cells} values, over the cap "
                              f"{SEARCH_CELLS_CAP}")
        shifts.append(cand + lo)
        residuals.append(res)
        hits = len(values)
        values.resize((hits + cand.size, span), refcheck=False)
        values[hits:] = sliding_window_view(block, span)[cand]
    return ShiftReport(half_width=w, k_max=int(k_max), tol=float(tol),
                       shifts=np.concatenate(shifts).tolist(),
                       residuals=np.concatenate(residuals), values=values)


@dataclass(frozen=True)
class WindowCluster:
    """Windows grouped under a representative; ``distances[i]`` is the
    negative-side sup-distance of ``member_shifts[i]`` to the representative."""

    representative: Window
    count: int
    member_shifts: list[int]
    distances: list[float]


def window_cluster(report: ShiftReport, tol: float) -> list[WindowCluster]:
    """Group windows by sup-distance <= tol on the negative side only.

    The nonnegative side is pinned to the stream by the search, so
    multiplicity of completions shows up purely in b_{-W..-1}.  Leader
    clustering: the first unassigned window (ascending shift) represents a
    new cluster of itself and every unassigned window within tol of it;
    clusters are returned in first-seen order; an empty report has none.
    """
    if not tol >= 0:
        raise ValidationError("tol must be >= 0")
    neg = report.values[:, : report.half_width]
    unassigned = np.ones(len(neg), dtype=bool)
    clusters = []
    while (idx := np.flatnonzero(unassigned)).size:
        dist = np.max(np.abs(neg[idx] - neg[idx[0]]), axis=1)
        # the representative joins even when its own distance is NaN
        joins = dist <= tol
        joins[0] = True
        members = idx[joins]
        unassigned[members] = False
        clusters.append(WindowCluster(
            representative=report.window(idx[0]), count=len(members),
            member_shifts=[report.shifts[i] for i in members],
            distances=dist[joins].tolist()))
    return clusters


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


def report_to_csv(report: ShiftReport, clusters: Sequence[WindowCluster]) -> str:
    """CSV rendering: shift, residual_pos, residual_neg_vs_cluster, cluster_id.

    ``clusters`` is a clustering of the report's windows (``window_cluster``
    at any tol), numbered in its order; ``residual_neg_vs_cluster`` is the
    sup-distance of the window's negative side to its cluster representative
    (0 for the representative itself).
    """
    assignment = {
        shift: (cid, d)
        for cid, cl in enumerate(clusters)
        for shift, d in zip(cl.member_shifts, cl.distances)
    }
    rows = ["shift,residual_pos,residual_neg_vs_cluster,cluster_id\n"]
    # ints and float reprs never need CSV quoting
    for shift, residual in zip(report.shifts, report.residuals.tolist()):
        cid, d = assignment[shift]
        rows.append(f"{shift},{residual!r},{d!r},{cid}\n")
    return "".join(rows)
