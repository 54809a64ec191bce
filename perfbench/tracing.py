"""Span tracer installed from outside the library.

The library has no tracing of its own, so the benchmark wraps public
functions at the name their caller looks up (``rrl_lab.recipes.
renascent_shift_search`` rather than the definition in ``right_limits``).
Each wrapped call records a span (name, start, end, parent) in memory;
a few wrappers also add work counts computed from the call's inputs and
outputs, which repeat exactly from run to run.  Nothing is installed in an
untraced run, so end-to-end timings carry no tracing cost.
"""

from __future__ import annotations

import functools
import importlib
import os
from collections import Counter
from time import perf_counter

# counts merged across ops by max rather than sum
MAX_COUNTS = {"diophantine.max_n"}


class Tracer:
    """In-memory spans and counters of one worker process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.certified: set[tuple[int, int]] = set()  # (balance span, N)

    def span(self, name: str, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.spans)
            rec = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1]
            tracer.spans.append(rec)
            tracer.stack.append(idx)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                tracer.stack.pop()
            if count is not None:
                count(tracer, args, result)
            return result

        return wrapper

    def counter(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def inside(self, name: str) -> int | None:
        """Index of the innermost open span called ``name``, if any."""
        for idx in reversed(self.stack):
            if self.spans[idx][0] == name:
                return idx
        return None

    def take_counts(self) -> dict:
        """Counts since the last call, then reset."""
        counts = dict(self.counts)
        counts["diophantine.distinct_n"] = len(self.certified)
        self.counts.clear()
        self.certified.clear()
        return counts

    def install(self) -> None:
        for target, span_name, count in WRAPPED:
            module_name, _, attr_path = target.rpartition(":")
            owner = importlib.import_module(module_name)
            *parents, attr = attr_path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
            if span_name is None:
                setattr(owner, attr, self.counter(count, fn))
            else:
                setattr(owner, attr, self.span(span_name, fn, count))


# -- work counts, computed at the wrapped boundary ------------------------------


def _add(increments: dict):
    """Count that adds fn(args, result) to each key."""
    def count(tracer, args, result):
        for key, fn in increments.items():
            tracer.counts[key] += fn(args, result)
    return count


def _certify(tracer, args, result):
    balance = tracer.inside("diophantine.balance")
    if balance is None:
        return
    n = len(args[0])
    tracer.counts["diophantine.certify_calls"] += 1
    tracer.counts["diophantine.max_n"] = max(tracer.counts["diophantine.max_n"], n)
    tracer.certified.add((balance, n))


def _rung(tracer, args, result):
    if tracer.inside("diophantine.balance") is not None:
        tracer.counts["diophantine.rungs"] += 1


def _artifact(tracer, args, result):
    tracer.counts["recipes.artifact_bytes"] += os.path.getsize(args[0].out)


_taylor = _add({"psp.taylor_calls": lambda a, r: 1,
                "psp.atom_terms": lambda a, r: len(a[0].atoms)})
_search = _add({
    "right_limits.shifts_scanned": lambda a, r: a[2] - a[1],
    "right_limits.windows_kept": lambda a, r: len(r),
    # complex difference matrix (k_max + 1) x (W + 1), 16 bytes per entry
    "right_limits.diff_bytes_computed": lambda a, r: 16 * (a[2] + 1) * (a[1] + 1),
})
_cluster = _add({"right_limits.clusters": lambda a, r: len(r)})

# (module:attribute looked up by the caller, span name or None, count)
# A span name of None wraps with a call counter only (count is its key).
WRAPPED = [
    ("rrl_lab.recipes:run_recipe", "recipes.run", _artifact),
    ("rrl_lab.circle:turn_to_complex", None, "circle.turn_to_complex_calls"),
    ("rrl_lab.psp:turn_to_complex", None, "circle.turn_to_complex_calls"),
    ("rrl_lab.cyclotomic:turn_to_complex", None, "circle.turn_to_complex_calls"),
    ("rrl_lab.psp:taylor_inner", "psp.taylor", None),
    ("rrl_lab.psp:taylor_coefficient", "psp.taylor", _taylor),
    ("rrl_lab.right_limits:taylor_coefficient", "psp.taylor", _taylor),
    ("rrl_lab.psp:psp_eval", "psp.eval",
     _add({"psp.eval_calls": lambda a, r: 1,
           "psp.atom_terms": lambda a, r: len(a[0].atoms)})),
    ("rrl_lab.recipes:verify_rrl_on_psp", "right_limits.verify", None),
    ("rrl_lab.streams:CoeffStream.take", "streams.take",
     _add({"streams.bytes_computed": lambda a, r: r.nbytes})),
    ("rrl_lab.recipes:renascent_shift_search", "right_limits.search", _search),
    ("rrl_lab.recipes:window_cluster", "right_limits.cluster", _cluster),
    ("rrl_lab.right_limits:window_cluster", "right_limits.cluster", _cluster),
    ("rrl_lab.recipes:report_to_csv", "right_limits.csv", None),
    ("rrl_lab.recipes:arc_l1_growth", "boundary.arc",
     _add({"boundary.points": lambda a, r: (r.quadrature_n + 1) * len(r.radii)})),
    ("rrl_lab.recipes:balance_completion", "diophantine.balance", None),
    ("rrl_lab.diophantine:dirichlet_approx", "diophantine.dirichlet", _rung),
    ("rrl_lab.diophantine:is_eps_balanced", "diophantine.certify", _certify),
    ("rrl_lab.diophantine:poly_from_roots", "diophantine.poly", None),
    ("rrl_lab.diophantine:moment_sequence", "diophantine.moment", None),
    ("rrl_lab.recipes:pigeonhole_shift", "diophantine.pigeonhole", None),
    ("rrl_lab.cyclotomic:product_from_roots", "cyclotomic.product",
     _add({"cyclotomic.product_degree": lambda a, r: len(a[0])})),
    ("rrl_lab.cyclotomic:to_complex", "cyclotomic.to_complex", None),
    ("rrl_lab.recipes:kneading_sequence", "dynamics.kneading", None),
    ("rrl_lab.recipes:kneading_determinant", "dynamics.kneading", None),
    ("rrl_lab.recipes:smallest_real_zero", "dynamics.zero", None),
    ("rrl_lab.recipes:feigenbaum_product", "dynamics.product", None),
    ("rrl_lab.recipes:thue_morse", "dynamics.thue_morse", None),
    ("rrl_lab.recipes:hecke_outer_eval", "dynamics.hecke_outer", None),
]

# per-layer time metrics: name -> (span names summed, inclusive or self)
TIMES = {
    "psp.taylor_s": ("psp.taylor", "incl"),
    "psp.eval_s": ("psp.eval", "incl"),
    "right_limits.verify_s": ("right_limits.verify", "incl"),
    "diophantine.moment_s": ("diophantine.moment", "incl"),
    "boundary.arc_s": ("boundary.arc", "incl"),
    "boundary.self_s": ("boundary.arc", "self"),
    "streams.take_s": ("streams.take", "incl"),
    "right_limits.search_s": ("right_limits.search", "incl"),
    "right_limits.cluster_s": ("right_limits.cluster", "incl"),
    "right_limits.csv_s": ("right_limits.csv", "incl"),
    "diophantine.balance_s": ("diophantine.balance", "incl"),
    "diophantine.poly_s": ("diophantine.poly", "incl"),
    "cyclotomic.product_s": ("cyclotomic.product", "incl"),
    "cyclotomic.to_complex_s": ("cyclotomic.to_complex", "incl"),
    "diophantine.pigeonhole_s": ("diophantine.pigeonhole", "incl"),
    "dynamics.kneading_s": ("dynamics.kneading", "incl"),
    "dynamics.zero_s": ("dynamics.zero", "incl"),
    "dynamics.product_s": ("dynamics.product", "incl"),
    "dynamics.thue_morse_s": ("dynamics.thue_morse", "incl"),
    "dynamics.hecke_outer_s": ("dynamics.hecke_outer", "incl"),
    "recipes.self_s": ("recipes.run", "self"),
}

COUNTS = [
    "circle.turn_to_complex_calls",
    "psp.taylor_calls",
    "psp.atom_terms",
    "psp.eval_calls",
    "boundary.points",
    "streams.bytes_computed",
    "right_limits.diff_bytes_computed",
    "right_limits.shifts_scanned",
    "right_limits.windows_kept",
    "right_limits.clusters",
    "diophantine.rungs",
    "diophantine.certify_calls",
    "diophantine.max_n",
    "cyclotomic.product_degree",
    "recipes.artifact_bytes",
]

# main kernels also reported per size, from the ops tagged small or large
SCALING = [
    "psp.taylor_s", "right_limits.verify_s", "diophantine.moment_s",
    "psp.eval_s", "boundary.arc_s",
    "streams.take_s", "right_limits.search_s", "right_limits.csv_s",
    "cyclotomic.product_s", "dynamics.zero_s", "dynamics.thue_morse_s",
]


def span_times(spans: list[list]) -> dict[str, float]:
    """Inclusive and self time per span name.

    Inclusive time counts only the outermost span of a name, so nested
    calls of one function (``taylor_inner`` calling ``taylor_coefficient``)
    are not counted twice.  Self time is a span's duration minus the
    durations of its direct children.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: Counter = Counter()
    for i, (name, start, end, parent) in enumerate(spans):
        out[("self", name)] += (end - start) - child[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            out[("incl", name)] += end - start
    return {f"{kind}:{name}": value for (kind, name), value in out.items()}


def layer_metrics(times: dict[str, float], counts: dict) -> dict[str, float]:
    """Per-layer metrics of a set of ops from their span times and counts."""
    metrics = {m: times.get(f"{kind}:{name}", 0.0) for m, (name, kind) in TIMES.items()}
    metrics.update({c: counts.get(c, 0) for c in COUNTS})
    scanned = counts.get("right_limits.shifts_scanned", 0)
    metrics["right_limits.hit_ratio"] = (
        counts.get("right_limits.windows_kept", 0) / scanned if scanned else 0.0)
    certify = counts.get("diophantine.certify_calls", 0)
    metrics["diophantine.distinct_n_ratio"] = (
        counts.get("diophantine.distinct_n", 0) / certify if certify else 0.0)
    return metrics


def merge_counts(parts: list[dict]) -> dict:
    total: Counter = Counter()
    for part in parts:
        for key, value in part.items():
            total[key] = max(total[key], value) if key in MAX_COUNTS else total[key] + value
    return dict(total)
