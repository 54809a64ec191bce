"""Coefficient streams generated by dynamical systems.

Circle rotations with the fractional-part observable (the Hecke family),
itineraries of unimodal interval maps, kneading determinants with the
smallest-real-zero entropy reading, and the Thue-Morse / lacunary-product
pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterator, Sequence

import numpy as np

from .circle import frac_array, frac_part
from .errors import CapExceeded, InsufficientDepth, ResonantGamma, ValidationError
from .streams import CoeffStream

FEIGENBAUM_C = -1.401155189  # quadratic parameter at the period-doubling limit
# largest degree of the lacunary product: its int8 coefficients stay near
# 200 MB, well inside 512 MB of address space with the interpreter
PRODUCT_N_CAP = 2 * 10**8
# longest itinerary: the signs are one int64 array, 8 B a step (80 MB at the
# cap); an orbit with no exact float cycle calls the Python map at every
# step, 0.1-0.2 us a step (1.2-1.8 s at the cap), one that cycles stops there
ITINERARY_N_CAP = 10**7
# most orbit points read in one chunk by itinerary (128 KB of float64); the
# chunks double from 64 points up to it, so each ends at a power of two or
# inside the stretch that one Brent anchor covers
ITINERARY_CHUNK = 2**14
# largest degree of the smallest-real-zero scan, which holds the coefficients
# as int8 and as floats, 9 B each: memory binds it (140 MB at the cap), not
# time (under 0.5 s on feigenbaum-product)
ZERO_N_CAP = 10**7
# deepest Hecke continuation: hecke_outer_eval and the outer_sum it is
# checked against are Python loops, about 0.4 s and 0.3 s per 10^6 terms
HECKE_N_CAP = 10**7
# values per block of hecke_negative_side (128 KB of float64)
HECKE_BLOCK = 1 << 14


def hecke_stream(theta: float, gamma: float = 0.0) -> CoeffStream:
    """Real stream a_k = {gamma + k*theta} (``circle.frac_array``, unsnapped), bound 1.

    An overflowing k*theta reads as NaN, quietly: the bound check rejects it.
    """
    th = float(theta)
    ga = float(gamma)

    def rule(ks: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            x = ks * th
            x += ga
            return frac_array(x)

    return CoeffStream(f"hecke(theta={th!r}, gamma={ga!r})", rule, 1.0)


def hecke_negative_side(theta: float, gamma: float, n: int) -> Iterator[np.ndarray]:
    """{gamma + k*theta} for k = -N .. -1, in that order, as float64 blocks.

    Read from ``hecke_stream(-theta, gamma)``, HECKE_BLOCK values at a time
    from the far end, so one block is held at once.  Its a_j = {gamma - j*theta}
    is bit-equal to Python's ``(theta*k + gamma) % 1.0`` at k = -j: negation
    and the int-to-float conversion are exact, and ``frac_array`` gives
    ``% 1.0``'s bits.
    """
    stream = hecke_stream(-float(theta), gamma)
    for hi in range(n, 0, -HECKE_BLOCK):
        lo = max(1, hi - HECKE_BLOCK + 1)
        yield stream.take(hi + 1 - lo, start=lo)[::-1]


def hecke_outer_eval(theta: float, z: complex, n_terms: int, gamma: float = 0.0) -> complex:
    """Continuation formula 1/(1-z) + sum_{k<=N} {k*theta - gamma} z^(-k) on |z| > 1.

    For irrational theta this equals the direct partial sum
    -sum_{-N<=n<0} {gamma + n*theta} z^n up to the geometric truncation
    tails (termwise: -{-x} = {x} - 1 off the integers).  Truncation bound:
    |z|^(-N) / (|z| - 1).  A nonzero gamma must stay off the orbit lattice
    Z + theta*Z at the offsets the sum reads: gamma + n*theta is checked to
    1e-10 for -N <= n <= -1, a block of ``hecke_negative_side`` at a time,
    and the first violated offset raises ResonantGamma.  A depth above
    HECKE_N_CAP is CapExceeded, and a theta whose N*theta overflows is a
    ValidationError, before any loop runs.
    """
    if n_terms < 1:
        raise ValidationError(f"Hecke depth must be >= 1, got {n_terms}")
    if n_terms > HECKE_N_CAP:
        raise CapExceeded(f"Hecke depth {n_terms} exceeds cap {HECKE_N_CAP}")
    z = complex(z)
    if abs(z) < 1.0 + 1e-6:
        raise ValidationError("need |z| >= 1 + 1e-6")
    th, ga = float(theta), float(gamma)
    # ga - N*th is exactly -(N*th - ga), so one check covers ga + n*th at n = -N
    if not math.isfinite(n_terms * th - ga):
        raise ValidationError(f"{n_terms}*theta overflows for theta = {th!r}")
    if ga != 0.0:
        # unsnapped: a value FRAC_SNAP would snap to 0 is within 1e-10 of 1
        n = -n_terms
        for f in hecke_negative_side(th, ga, n_terms):
            hits = np.flatnonzero(np.minimum(f, 1.0 - f) <= 1e-10)
            if hits.size:
                raise ResonantGamma(
                    f"gamma + {n + int(hits[0])}*theta is within 1e-10 of an integer"
                )
            n += len(f)
    zinv = 1.0 / z
    total = 1.0 / (1.0 - z)
    for k in range(1, n_terms + 1):
        total += frac_part(k * th - ga) * zinv**k
    return total


def occurrence_times(theta: float, g1: float, g2: float, n_max: int) -> np.ndarray:
    """All k <= n_max with {k*theta} in [1-g2, 1-g1), ascending.

    These are exactly the wrap times where {g1+k*theta} and {g2+k*theta}
    disagree by 1 - (g2-g1) instead of -(g2-g1), which yields the
    coefficientwise identity

        gHe_{g1}(z) - gHe_{g2}(z) + (g2-g1)/(1-z) = sum_{k in set} z^k.
    """
    if not (0 <= g1 < g2 < 1):
        raise ValidationError("need 0 <= g1 < g2 < 1")
    ks = np.arange(n_max + 1)
    f = frac_array(ks * float(theta))
    return ks[(f >= 1.0 - g2) & (f < 1.0 - g1)]


@dataclass(frozen=True)
class UnimodalMap:
    """Continuous unimodal self-map of an interval with one critical point.

    ``increasing_side`` names the branch on which the map increases; the
    itinerary observable is +1 on the closed increasing side (including
    the critical point) and -1 on the other side.  ``fn`` maps a float to a
    float and depends on its argument alone, so a float orbit that meets a
    point it has met before repeats from there on: ``itinerary`` reads the
    signs of such an orbit up to its first exact float cycle and repeats
    them.  The cycle is one of the float orbit, not a claim that the true
    orbit is periodic.
    """

    fn: Callable[[float], float]
    critical: float
    increasing_side: str  # "left" | "right"
    name: str = "unimodal"

    @classmethod
    def tent(cls) -> "UnimodalMap":
        return cls(
            fn=lambda x: 2.0 * x if x <= 0.5 else 2.0 - 2.0 * x,
            critical=0.5,
            increasing_side="left",
            name="tent",
        )

    @classmethod
    def quadratic(cls, c: float = FEIGENBAUM_C) -> "UnimodalMap":
        """x^2 + c on [-beta, beta], -2 <= c <= 1/4."""
        if not -2.0 <= c <= 0.25:
            # outside this range x^2 + c maps no interval to itself
            raise ValidationError(f"quadratic c must be in [-2, 1/4], got {c!r}")
        return cls(
            fn=lambda x: x * x + c,
            critical=0.0,
            increasing_side="right",
            name=f"quadratic:{c!r}",
        )


def itinerary(umap: UnimodalMap, x0: float, n_max: int) -> np.ndarray:
    """Signs (phi(T^k(x0)))_{0<=k<=n_max} as a +-1 int64 array.

    The float orbit x_0 = float(x0), x_{k+1} = fn(x_k) is read in chunks of
    up to ITINERARY_CHUNK points, each chunk's signs from one comparison.
    An orbit point that is not finite (the map does not keep the orbit in
    its interval) is a ``ValidationError``: its sign means nothing, and fn
    is never called on it.  Brent's cycle check (BIT 20, 1980) compares
    each anchor x_s, s = 2^i - 1, with every x_t, 2^i <= t < 2^(i+1), on
    their uint64 bit patterns, so that +0.0 and -0.0 stay apart.  At the
    first t whose bits equal x_s's, x_(t+j) = x_(s+j) for every j, because
    fn reads x alone: the signs from t on are signs[s:t] repeated, copied
    in place, and fn is not called again.  So an orbit that cycles after
    mu steps costs O(mu) calls whatever n_max is, and the signs are the
    step-by-step loop's, bit for bit.
    """
    if n_max < 0:
        raise ValidationError("n_max must be >= 0")
    if n_max > ITINERARY_N_CAP:
        raise CapExceeded(f"itinerary length n = {n_max} exceeds cap {ITINERARY_N_CAP}")
    fn, critical, isfinite = umap.fn, umap.critical, math.isfinite
    # -1 off the closed increasing side
    off_side = np.greater if umap.increasing_side == "left" else np.less

    def orbit():
        x = float(x0)
        while isfinite(x):
            yield x
            x = fn(x)

    points = orbit()
    signs = np.empty(n_max + 1, dtype=np.int64)
    lo = 0
    while lo <= n_max:
        want = min(max(lo, 64), ITINERARY_CHUNK, n_max + 1 - lo)
        x = np.fromiter(islice(points, want), dtype=float)
        hi = lo + x.size
        if x.size < want:
            raise ValidationError(f"{umap.name}: orbit of {x0!r} is not finite at step {hi}")
        signs[lo:hi] = np.where(off_side(x, critical), -1, 1)
        bits = x.view(np.uint64)
        t = max(lo, 1)
        while t < hi:
            s = (1 << (t.bit_length() - 1)) - 1  # the anchor of t: s < t <= 2s + 1
            if s >= lo:
                anchor = bits[s - lo]
            end = min(hi, 2 * s + 2)
            hit = np.flatnonzero(bits[t - lo:end - lo] == anchor)
            if hit.size:
                # signs[t:] repeats signs[s:t]: copy the known stretch
                # signs[s:t], doubled each time, after itself
                t += int(hit[0])
                while t <= n_max:
                    m = min(t - s, n_max + 1 - t)
                    signs[t:t + m] = signs[s:s + m]
                    t += m
                return signs
            t = end
        if hi & (hi - 1) == 0:
            anchor = bits[-1]  # x_(hi-1), the anchor of the next chunk
        lo = hi
    return signs


def kneading_sequence(umap: UnimodalMap, n_max: int) -> np.ndarray:
    """eps_1 .. eps_N: itinerary of the critical point, first entry dropped."""
    return itinerary(umap, umap.critical, n_max)[1:]


def kneading_determinant(eps: Sequence[int]) -> np.ndarray:
    """Coefficients d_0 .. d_N of D(z) = 1 + sum eps_1...eps_k z^k, an int8 array."""
    e = np.asarray(eps, dtype=np.int64)
    # three reductions and an int8 product: no temporary of e's size in int64
    if e.size and (e.min() < -1 or e.max() > 1 or not e.all()):
        raise ValidationError("kneading signs must be +-1")
    d = np.ones(len(e) + 1, dtype=np.int8)
    np.cumprod(e, dtype=np.int8, out=d[1:])
    return d


@dataclass(frozen=True)
class RealZeroResult:
    """Outcome of the certified smallest-real-zero search on [0, r_max].

    For a bracket (a, b), ``entropy_interval`` is [-log b, -log a], with
    None for the unbounded upper end when a = 0."""

    status: str  # "zero" | "no-zero"
    root: float | None
    entropy: float
    bracket: tuple[float, float] | None
    r_max: float
    entropy_interval: tuple[float, float | None] | None = None


_UNIT_ROUNDOFF = np.finfo(float).eps / 2
_TINY = np.finfo(float).tiny


def _tail_bound(r: float, n: int) -> float:
    return r ** (n + 1) / (1.0 - r)


def _blocks_read(rs: np.ndarray, n: int) -> np.ndarray:
    """Blocks of B = ceil(sqrt(n+1)) terms that each r in rs (0 <= r < 1) sums: the
    fewest past which every r^k < tiny, at least 1 and at most all J of c."""
    B = math.isqrt(n) + 1
    # r below tiny reads its first block only: log(tiny) / (B log(tiny)) = 1/B
    cut = np.ceil(math.log(_TINY) / (B * np.log(np.maximum(rs, _TINY))))
    return np.clip(cut, 1, -(-(n + 1) // B)).astype(np.int64)


def _series_values(c: np.ndarray, rs: np.ndarray) -> tuple[np.ndarray, int]:
    """Values p(rs) = sum c_k rs^k, and K, the most roundings any term goes through.

    Blocked Horner (Paterson & Stockmeyer, SIAM J. Comput. 1973): c is cut
    into J blocks of B = ceil(sqrt(n+1)) terms, every block polynomial
    P_j(r) = sum_i c_{jB+i} r^i comes from one matrix product with the
    (B, points) powers r^0 .. r^(B-1), and the blocks are summed by Horner
    in R = r^B.  Only the first ``_blocks_read`` blocks of the largest r are
    summed; a last block shorter than B is its own product.  A term meets at
    most B - 2 roundings in its power, B in the dot product (any summation
    order, with or without FMA), B - 1 in R and 2 per outer step, so
    K = 2B - 2 + (J - 1)(B + 1) whatever the blocks read.  Powers and R below
    ``_TINY``, the smallest normal float, are set to 0 first: subnormal
    operands slow the matrix product several times over.  Each term dropped
    so, or by the blocks left unread, is below tiny for |c_k| <= 1 (log's
    rounding can move the cut one block only where r^k exceeds tiny by about
    1e-12 of it, which the spare tiny covers), so for 0 <= rs < 1
    |error| <= gamma_K * sum |c_k| rs^k + (n + 2) tiny / (1 - rs).  The dot
    products run in BLAS, whose last bits may differ between builds and
    between shapes; only the bound is relied on.
    """
    n = len(c) - 1
    B = math.isqrt(n) + 1  # ceil(sqrt(n + 1))
    J = -(-(n + 1) // B)
    read = int(_blocks_read(rs, n).max())
    powers = np.empty((B, rs.size))
    powers[0] = 1.0
    powers[1:] = rs
    # r^i = r^(i-1) * r, the roundings of np.vander, down contiguous rows
    np.multiply.accumulate(powers[1:], axis=0, out=powers[1:])
    powers[powers < _TINY] = 0.0
    whole = min(read, (n + 1) // B)  # blocks wholly inside c, read in place
    parts = [*c[: whole * B].reshape(whole, B) @ powers]
    if whole < read:
        parts.append(c[whole * B :] @ powers[: n + 1 - whole * B])
    big_r = powers[-1] * rs
    big_r[big_r < _TINY] = 0.0
    vals = parts[-1]
    for part in parts[-2::-1]:
        vals = vals * big_r + part
    return vals, 2 * B - 2 + (J - 1) * (B + 1)


def _runs(rs: np.ndarray, n: int) -> Iterator[slice]:
    """Runs of consecutive points of rs whose ``_blocks_read`` round up to one power of two."""
    # the exponent frexp gives count - 1 is ceil(log2(count))
    rank = np.frexp(_blocks_read(rs, n) - 1)[1]
    edges = [0, *(np.flatnonzero(rank[1:] != rank[:-1]) + 1).tolist(), rs.size]
    return (slice(lo, hi) for lo, hi in zip(edges, edges[1:]))


def _certified_signs(vals: np.ndarray, rs: np.ndarray, roundings: int,
                     tail: np.ndarray | float) -> np.ndarray:
    """Signs of the computed values vals = p_n(rs), 0 where |vals| is within the bound.

    A value whose terms each meet at most ``roundings`` roundings is off by
    at most gamma_roundings / (1 - r) for |c_k| <= 1 (Higham, Accuracy and
    Stability of Numerical Algorithms, eq. 5.3, for Horner's 2n);
    ``tail / (1 - r)`` bounds the terms left out of the series, so with
    tail = r^(n+1) the sign holds for the full series.  The (n + 2) tiny of
    ``_series_values``' flushed powers and unread blocks goes into tail as
    well.
    """
    nu = roundings * _UNIT_ROUNDOFF
    return np.where(np.abs(vals) > (nu / (1.0 - nu) + tail) / (1.0 - rs), np.sign(vals), 0.0)


def _first_flip(signs: np.ndarray) -> tuple[int, int] | None:
    """Indices of the first adjacent pair of nonzero signs that differ."""
    idx = np.flatnonzero(signs)
    flips = np.flatnonzero(signs[idx[1:]] != signs[idx[:-1]])
    return (int(idx[flips[0]]), int(idx[flips[0] + 1])) if flips.size else None


def smallest_real_zero(coeffs: Sequence[float], tol: float) -> RealZeroResult:
    """Smallest zero of sum c_n z^n on (0, r_max], coefficients bounded by 1.

    r_max is the largest radius where the truncation tail r^(N+1)/(1-r)
    stays below tol/2.  Blocked passes (``_series_values``) cover 513
    points on [0, r_max], where the first sign change certified for the
    full series brackets its zero, one ascending run of points at a time
    (``_runs``), and stop at the run that certifies it.  Without such a
    bracket, 257 points on [r_max, 1 - 1e-9] are evaluated too, and a sign
    change certified against roundoff alone within either grid raises
    InsufficientDepth; with neither, the result is NoZero (entropy 0).
    The bracket (a, b) is narrowed by rescanning 65
    points inside it until it stops shrinking, on the prefix c_0 .. c_m
    with b^(m+1) <= u, the unit roundoff: the tail term bounds the dropped
    coefficients.  These short rescans use Horner's rule (``np.polyval``,
    2m roundings), whose bits set the reported bracket.  A degree above
    ZERO_N_CAP is CapExceeded, before the coefficients are copied.
    """
    if len(coeffs) - 1 > ZERO_N_CAP:
        raise CapExceeded(f"zero scan degree {len(coeffs) - 1} exceeds cap {ZERO_N_CAP}")
    c = np.asarray(coeffs, dtype=float)
    # min and max, not abs: no float temporary the size of c (a NaN fails both)
    if not (c.size and -1.0 - 1e-12 <= c.min() and c.max() <= 1.0 + 1e-12):
        raise ValidationError("coefficients must be finite and bounded by 1")
    if not tol > 0:
        raise ValidationError("tol must be positive")
    n = len(c) - 1

    # largest r with tail(r) < tol/2, by bisection on the monotone tail
    lo, hi = 0.0, 1.0 - 1e-9
    if _tail_bound(hi, n) < tol / 2.0:
        r_max = hi
    else:
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if _tail_bound(mid, n) < tol / 2.0:
                lo = mid
            else:
                hi = mid
        r_max = lo

    flushed = (n + 2) * _TINY
    inner = np.linspace(0.0, r_max, 513)
    tail = inner ** (n + 1) + flushed
    vals, signs = np.empty(inner.size), np.zeros(inner.size)
    # ascending runs: the first flip of a prefix is the first flip of the grid
    for run in _runs(inner, n):
        vals[run], roundings = _series_values(c, inner[run])
        signs[run] = _certified_signs(vals[run], inner[run], roundings, tail[run])
        flip = _first_flip(signs[: run.stop])
        if flip is not None:
            break
    else:
        # a sign change of the truncated series alone, on [0, r_max] where the
        # tail hides it or beyond r_max, is a zero this depth cannot place
        if _first_flip(_certified_signs(vals, inner, roundings, flushed)) is None:
            outer = np.linspace(r_max, 1.0 - 1e-9, 257)
            vals = np.concatenate([_series_values(c, outer[run])[0] for run in _runs(outer, n)])
            if _first_flip(_certified_signs(vals, outer, roundings, flushed)) is None:
                return RealZeroResult("no-zero", None, 0.0, None, r_max)
        raise InsufficientDepth(
            f"uncertified sign change (r_max = {r_max}); deepen the truncation")
    a, b = float(inner[flip[0]]), float(inner[flip[1]])
    m = min(n, math.ceil(math.log(_UNIT_ROUNDOFF) / math.log(b)))
    while True:
        rs = np.linspace(a, b, 65)
        vals = np.polyval(c[: m + 1][::-1], rs)
        flip = _first_flip(_certified_signs(vals, rs, 2 * m, rs ** (m + 1)))
        if flip is None or (rs[flip[0]], rs[flip[1]]) == (a, b):
            break
        a, b = float(rs[flip[0]]), float(rs[flip[1]])
    root = 0.5 * (a + b)
    return RealZeroResult("zero", root, -math.log(root), (a, b), r_max,
                          (-math.log(b), -math.log(a) if a > 0 else None))


def thue_morse(n_max: int, start: int = 0) -> np.ndarray:
    """Bits tau_start .. tau_N: parity of the binary popcount of n, int8."""
    if not 0 <= start <= n_max:
        raise ValidationError(f"need 0 <= start <= n_max, got start {start}, n_max {n_max}")
    ns = np.arange(start, n_max + 1, dtype=np.uint32 if n_max < 2**32 else np.int64)
    # one uint8 popcount, its parity taken in place
    tau = np.bitwise_count(ns)
    return np.bitwise_and(tau, 1, out=tau).view(np.int8)


def feigenbaum_product(n_max: int) -> np.ndarray:
    """Coefficients 0..N of prod_m (1 - z^(2^m)), factors with 2^m <= N.

    Exact in int8, one byte a coefficient: coefficient n equals
    (-1)^{tau_n} for the Thue-Morse bits tau.  N above PRODUCT_N_CAP is
    CapExceeded, before anything is allocated.
    """
    if n_max < 0:
        raise ValidationError("n_max must be >= 0")
    if n_max > PRODUCT_N_CAP:
        raise CapExceeded(f"n = {n_max} exceeds cap {PRODUCT_N_CAP}")
    coeffs = np.zeros(n_max + 1, dtype=np.int8)
    coeffs[0] = 1
    step = 1
    while step <= n_max:
        # the product so far has degree step - 1: (1 - z^step) appends its negative
        np.negative(coeffs[: min(step, n_max + 1 - step)], out=coeffs[step : 2 * step])
        step *= 2
    return coeffs
