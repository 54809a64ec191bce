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

# values per block of the search and of window_cluster: 2^14 float64 are
# 128 KB, glibc's default mmap threshold, so a block's temporaries come from
# the heap, not from a fresh mmap and its page faults each time
SEARCH_BLOCK = 1 << 14
# largest k_max searched: about 30 s of n = 0 passes on a desk machine
SEARCH_K_CAP = 10**9
# values held at once: one block plus 2 per hit (shift, residual) for the
# search; 2 per hit, 2W + 1 per cluster and W per hit of one block for
# window_cluster (8 B each for a real stream, 16 B for a complex one)
SEARCH_CELLS_CAP = 10**7
# exponents verify_rrl_on_psp may sum at once, (shifts + 1) * (2W + 1): about
# 130 B each on one order of roots of unity, 1 s and 290 MB at the cap
VERIFY_CELLS_CAP = 2 * 10**6


@dataclass(frozen=True)
class Window:
    """Two-sided candidate window b_{-W..W} induced by one shift k.

    ``values[n + half_width]`` holds b_n = a_{n+k}.
    """

    half_width: int
    values: np.ndarray

    def __getitem__(self, n: int) -> complex:
        if abs(n) > self.half_width:
            raise ValidationError(f"window index {n} outside [-{self.half_width}, "
                                  f"{self.half_width}]")
        return complex(self.values[n + self.half_width])


@dataclass(frozen=True)
class ShiftReport:
    """Shifts in (W, K_max] (int64, ascending) whose nonnegative side reproduces
    the stream, and residuals; window i is stream.take(2W + 1, start=shifts[i] - W)."""

    half_width: int
    shifts: np.ndarray
    residuals: np.ndarray
    stream: CoeffStream

    def __len__(self) -> int:
        return len(self.shifts)


def renascent_shift_search(a: CoeffStream, half_width: int, k_max: int,
                           tol: float) -> ShiftReport:
    """Find every shift k in (W, K_max] with |a_{n+k} - a_n| <= tol for 0 <= n <= W.

    A hit's window b_n := a_{n+k}, -W <= n <= W, stays in the stream.  An
    empty report is a valid outcome: it is evidence (not proof) that no
    renascent right limit exists.

    Shifts are scanned in blocks of SEARCH_BLOCK, each read from the stream
    with the W values past its last shift, so the search holds
    SEARCH_BLOCK + W + 2*hits values, whatever K_max is.  K_max above
    SEARCH_K_CAP, or a count above SEARCH_CELLS_CAP (checked before the
    scan and after each block), is CapExceeded.
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
    cells = SEARCH_BLOCK + w
    if cells > SEARCH_CELLS_CAP:
        raise CapExceeded(f"a block of the search holds {cells} values, over the "
                          f"cap {SEARCH_CELLS_CAP}")
    head = a.take(w + 1)
    shifts, residuals = [np.empty(0, dtype=np.int64)], [np.empty(0)]  # + one per block with hits
    for lo in range(w + 1, k_max + 1, SEARCH_BLOCK):
        size = min(SEARCH_BLOCK, k_max + 1 - lo)
        block = a.take(size + w, start=lo)  # block[i + n] = a_{lo+i+n}
        # n = 0 over every shift of the block, then the survivors only, c
        # values of n at a time with c * survivors <= size + W, the block's
        # length (one pass per n would cost blocks * W numpy calls): the
        # residual max_n |a_{n+k} - a_n| is the same in any order
        res = np.abs(block[:size] - head[0])
        cand = np.flatnonzero(res <= tol)
        res = res[cand]
        n = 1
        while n <= w and cand.size:
            c = min(w + 1 - n, max(1, (size + w) // cand.size))
            d = np.abs(sliding_window_view(block, c)[cand + n] - head[n : n + c]).max(axis=1)
            keep = d <= tol
            cand, res = cand[keep], np.maximum(res[keep], d[keep])
            n += c
        cells += 2 * cand.size
        if cells > SEARCH_CELLS_CAP:
            raise CapExceeded(f"the hits up to shift {lo + size - 1} hold {cells} values, "
                              f"over the cap {SEARCH_CELLS_CAP}")
        if cand.size:
            shifts.append(cand + lo)
            residuals.append(res)
    return ShiftReport(half_width=w, shifts=np.concatenate(shifts),
                       residuals=np.concatenate(residuals), stream=a)


@dataclass(frozen=True)
class WindowCluster:
    """Windows grouped under a representative, the window of
    ``member_shifts[0]``; ``distances[i]`` is the negative-side sup-distance
    of ``member_shifts[i]`` to the representative."""

    representative: Window
    member_shifts: list[int]
    distances: list[float]


def window_cluster(report: ShiftReport, tol: float) -> list[WindowCluster]:
    """Group windows by sup-distance <= tol on the negative side only.

    The nonnegative side is pinned to the stream by the search, so
    multiplicity of completions shows up purely in b_{-W..-1}.  In ascending
    shift, a window joins the first cluster whose representative is within
    tol (a NaN distance joins none), else it represents a new one.  The
    negative sides are read back SEARCH_BLOCK // W hits at a time; holding
    over SEARCH_CELLS_CAP values is CapExceeded.
    """
    if not tol >= 0:
        raise ValidationError("tol must be >= 0")
    w = report.half_width
    step = max(1, SEARCH_BLOCK // w)
    clusters: list[WindowCluster] = []
    for lo in range(0, len(report), step):
        ks = report.shifts[lo : lo + step]
        cells = 2 * len(report) + (2 * w + 1) * len(clusters) + w * ks.size
        if cells > SEARCH_CELLS_CAP:
            raise CapExceeded(f"the clusters hold {cells} values, over the cap {SEARCH_CELLS_CAP}")
        neg = report.stream.take(w, start=ks - w)  # neg[i] = b_{-W..-1} of ks[i]
        left, j = np.arange(ks.size), 0  # the block's windows not yet assigned
        while left.size:
            if new := j == len(clusters):
                rep = report.stream.take(2 * w + 1, start=ks[left[0]] - w)
                clusters.append(WindowCluster(Window(w, rep), [], []))
            cl = clusters[j]
            with np.errstate(invalid="ignore"):  # inf - inf: a NaN distance
                dist = np.max(np.abs(neg[left] - cl.representative.values[:w]), axis=1)
            joins = dist <= tol
            joins[0] |= new  # a new representative joins even at a NaN distance
            cl.member_shifts.extend(ks[left[joins]].tolist())
            cl.distances.extend(dist[joins].tolist())
            left, j = left[~joins], j + 1
        del neg  # before the next block's read, so one block is held at a time
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
    More than VERIFY_CELLS_CAP exponents is CapExceeded, before any is built.
    """
    ks = [int(k) for k in shifts]
    if not ks:
        raise ValidationError("shifts must be non-empty")
    if any(b <= a for a, b in zip(ks, ks[1:])):
        raise ValidationError("shifts must be strictly increasing")
    w = int(half_width)
    if w < 1:
        raise ValidationError("half_width must be >= 1")
    cells = (len(ks) + 1) * (2 * w + 1)
    if cells > VERIFY_CELLS_CAP:
        raise CapExceeded(f"{len(ks)} shifts at W = {w} need {cells} exponents, over the "
                          f"cap {VERIFY_CELLS_CAP}")
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
    for shift, residual in zip(report.shifts.tolist(), report.residuals.tolist()):
        cid, d = assignment[shift]
        rows.append(f"{shift},{residual!r},{d!r},{cid}\n")
    return "".join(rows)
