"""Finite-window right-limit machinery.

A right limit of a bounded sequence {a_k} is a two-sided sequence {b_n}
arising as coordinatewise limits a_{n+k_j} -> b_n along increasing shifts
k_j; it is renascent when b_n = a_n for all n >= 0.  At desk scale the
infinite condition is replaced by a finite window and a tolerance, so
every output here is evidence quantified by residuals, not proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, TextIO

import numpy as np

from .errors import CapExceeded, ValidationError
from .psp import PoleMeasure, moments
from .psp import taylor_coefficient  # noqa: F401  (perfbench/tracing.py wraps it here)
from .streams import CoeffStream

# values per block of the search and of window_cluster: 2^14 float64 are
# 128 KB, glibc's default mmap threshold, so a block's temporaries come from
# the heap, not from a fresh mmap and its page faults each time
SEARCH_BLOCK = 1 << 14
# largest k_max searched: about 2.5 s of n = 0 passes on a desk machine
SEARCH_K_CAP = 10**9
# values held at once: one block plus 2 per hit (shift, residual) for the
# search; 2 per hit (label, distance), W per cluster and W per hit of one
# block for window_cluster (8 B each for a real stream, 16 B for a complex one)
SEARCH_CELLS_CAP = 10**7
# window_cluster's passes, one block's unassigned windows against one
# representative: up to about 90 us each (SEARCH_BLOCK values), 3 s in all
CLUSTER_PASSES_CAP = 3 * 10**4
# exponents verify_rrl_on_psp may sum at once, (shifts + 1) * (2W + 1): about
# 70 B each on one order of roots of unity, 0.8 s and 172 MB at the cap
VERIFY_CELLS_CAP = 2 * 10**6


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
            # one (c, survivors) gather, row j holding block[cand + n + j]: d is
            # c elementwise maxima across rows, not one short reduction per survivor
            d = np.abs(block[np.add.outer(np.arange(n, n + c), cand)]
                       - head[n : n + c, None]).max(axis=0)
            keep = d <= tol
            cand, res = cand[keep], np.maximum(res[keep], d[keep])
            n += c
        # freed before the next read, so at most three arrays of a block's
        # length are alive at once.  With the old block held through the read
        # there are four, and in some heap layouts glibc trims the heap top
        # after each block and faults it back in on the next (about 4100
        # minor faults per 2*10^6 shifts)
        del block
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
class Clusters:
    """A clustering of a report's hits: ``leaders`` (int64) holds the hit
    index of each cluster's representative, in first-seen order, ``labels``
    (int64) the cluster of each hit and ``distances`` (float64) each hit's
    negative-side sup-distance to its representative."""

    leaders: np.ndarray
    labels: np.ndarray
    distances: np.ndarray

    def __len__(self) -> int:
        return len(self.leaders)


def window_cluster(report: ShiftReport, tol: float) -> Clusters:
    """Group windows by sup-distance <= tol on the negative side only.

    The nonnegative side is pinned to the stream by the search, so
    multiplicity of completions shows up purely in b_{-W..-1}.  In ascending
    shift, a window joins the first cluster whose representative is within
    tol (a NaN distance joins none), else it represents a new one.  The
    negative sides are read back SEARCH_BLOCK // W hits at a time, and a
    representative's is copied from its block.  Holding over SEARCH_CELLS_CAP
    values, or more than CLUSTER_PASSES_CAP passes, is CapExceeded.
    """
    if not tol >= 0:
        raise ValidationError("tol must be >= 0")
    w = report.half_width
    step = max(1, SEARCH_BLOCK // w)
    labels = np.empty(len(report), dtype=np.int64)
    distances = np.empty(len(report))
    leaders: list[int] = []
    reps: list[np.ndarray] = []  # reps[j] = b_{-W..-1} of leader j
    passes = 0
    for lo in range(0, len(report), step):
        ks = report.shifts[lo : lo + step]
        cells = 2 * len(report) + w * (len(reps) + ks.size)
        if cells > SEARCH_CELLS_CAP:
            raise CapExceeded(f"the clusters hold {cells} values, over the cap {SEARCH_CELLS_CAP}")
        neg = report.stream.take(w, start=ks - w)  # neg[i] = b_{-W..-1} of ks[i]
        left, j = np.arange(ks.size), 0  # the block's windows not yet assigned
        while left.size:
            if (passes := passes + 1) > CLUSTER_PASSES_CAP:
                raise CapExceeded(f"clustering the hits up to shift {ks[-1]} takes over "
                                  f"{CLUSTER_PASSES_CAP} passes")
            if new := j == len(reps):
                leaders.append(lo + left[0])
                reps.append(neg[left[0]].copy())
            with np.errstate(invalid="ignore"):  # inf - inf: a NaN distance
                dist = np.max(np.abs(neg[left] - reps[j]), axis=1)
            joins = dist <= tol
            joins[0] |= new  # a new representative joins even at a NaN distance
            labels[lo + left[joins]] = j
            distances[lo + left[joins]] = dist[joins]
            left, j = left[~joins], j + 1
        del neg  # before the next block's read, so one block is held at a time
    return Clusters(np.array(leaders, dtype=np.int64), labels, distances)


def outer_sum(neg: Iterable[complex], n: int, z: complex) -> complex:
    """Outer series -sum_{k=1..N} b_{-k} z^(-k) of a window, on |z| > 1.

    ``neg`` yields the N values b_{-N} .. b_{-1}, in that order, and the sum
    runs in that order, in powers of 1/z (CPython's z**-k is NaN once z**k
    overflows); Python floats and complexes give Python complex arithmetic.  On a pole series' own negative side, b_{-k} = -M(k - 1),
    this is the pole series outside the disc (its rrl-continuation),
    truncated at N; ``outer_tail_bound`` bounds the rest.
    """
    zinv = 1.0 / complex(z)
    return -sum(b * zinv**k for b, k in zip(neg, range(n, 0, -1)))


def outer_tail_bound(z: complex, n: int) -> float:
    """|z|^(-N) / (|z| - 1), the tail sum_{k>N} |z|^(-k) that ``outer_sum``
    leaves out when every |b_{-k}| <= 1 (inf for |z| <= 1); coefficients
    bounded by B leave out at most B times this."""
    r = abs(z)
    return r ** (-n) / (r - 1.0) if r > 1.0 else math.inf


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
    # b_{n+k} = -moment(-k - 1 - n) for n in [-W, W], unshifted and then for each shift
    b = -moments(m, [-k - 1 for k in [0] + ks], range(w, -w - 1, -1))
    diff = b[1:] - b[0]
    dist = np.hypot(diff.real, diff.imag).tolist()
    return [(k, max(row[w:]), max(row[:w])) for k, row in zip(ks, dist)]


def report_to_csv(report: ShiftReport, clusters: Clusters, out: TextIO) -> None:
    """Write the CSV rows shift, residual_pos, residual_neg_vs_cluster,
    cluster_id to ``out``, SEARCH_BLOCK rows at a time.

    ``clusters`` is a clustering of the report's windows (``window_cluster``
    at any tol); ``residual_neg_vs_cluster`` is a window's negative-side
    sup-distance to its representative (0 for the representative itself).
    """
    out.write("shift,residual_pos,residual_neg_vs_cluster,cluster_id\n")
    for lo in range(0, len(report), SEARCH_BLOCK):
        part = slice(lo, lo + SEARCH_BLOCK)
        columns = (report.shifts[part].tolist(), report.residuals[part].tolist(),
                   clusters.distances[part].tolist(), clusters.labels[part].tolist())
        # ints and float reprs never need CSV quoting
        out.writelines(f"{k},{r!r},{d!r},{c}\n" for k, r, d, c in zip(*columns))
