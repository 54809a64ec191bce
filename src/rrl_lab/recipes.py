"""Named batch experiments driven by the CLI.

Every recipe is a function of its parameter dict that returns a summary
dict and a zero-argument callable rendering its CSV table.  ``run_recipe``
is the one writer: sorted-key JSON of the summary, or the table.  Fixed
summation orders and no timestamps make reruns with one config
byte-identical.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .boundary import DEFAULT_RADII, arc_l1_growth
from .circle import CirclePoint
from .diophantine import balance_completion, factorial_shifts, pigeonhole_shift
from .dynamics import (
    FEIGENBAUM_C,
    UnimodalMap,
    feigenbaum_product,
    hecke_outer_eval,
    hecke_outer_truncation_bound,
    hecke_stream,
    kneading_determinant,
    kneading_sequence,
    smallest_real_zero,
    thue_morse,
)
from .errors import ValidationError
from .psp import PoleMeasure, uniform_roots_measure
from .right_limits import renascent_shift_search, report_to_csv, verify_rrl_on_psp, window_cluster

NAMED_THETAS = {
    "golden": (math.sqrt(5.0) - 1.0) / 2.0,
    "sqrt2": math.sqrt(2.0) - 1.0,
    "sqrt3": math.sqrt(3.0) - 1.0,
}


def parse_theta(text: str) -> float:
    """A named theta (golden, sqrt2, sqrt3) or a finite float."""
    if text in NAMED_THETAS:
        return NAMED_THETAS[text]
    try:
        theta = float(text)
    except ValueError as exc:
        raise ValidationError(f"bad theta {text!r}: {exc}") from exc
    if not math.isfinite(theta):
        raise ValidationError(f"theta must be finite, got {text!r}")
    return theta


def parse_angle(text: str) -> CirclePoint:
    """Angle in turns: 'p/q' gives an exact point, otherwise float."""
    text = text.strip()
    try:
        if "/" in text:
            p, q = text.split("/")
            return CirclePoint(Fraction(int(p), int(q)))
        if text in NAMED_THETAS:
            return CirclePoint.real(NAMED_THETAS[text])
        return CirclePoint.real(float(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"bad angle {text!r}: {exc}") from exc


def parse_angles(text: str) -> list[CirclePoint]:
    return [parse_angle(part) for part in text.split(",") if part.strip()]


def parse_shift_spec(text: str, points: list[CirclePoint]) -> list[int]:
    """'factorial:J' -> 1!..J! ('factorial:LO:HI' -> LO!..HI!, 1 <= LO <= HI);
    'pigeonhole:J' -> pigeonhole shifts for j = 1..J (J >= 1).

    Every accepted spec gives at least one shift."""
    kind, _, arg = text.partition(":")
    try:
        if kind == "factorial":
            lo, _, hi = arg.partition(":")
            if not hi:
                return factorial_shifts(int(lo) if lo else 6)
            lo_j, hi_j = int(lo), int(hi)
            if not 1 <= lo_j <= hi_j:
                raise ValidationError(f"shift spec {text!r} needs 1 <= LO <= HI")
            return factorial_shifts(hi_j)[lo_j - 1 :]
        if kind == "pigeonhole":
            j = int(arg) if arg else 6
            if j < 1:
                raise ValidationError(f"shift spec {text!r} needs J >= 1")
            return sorted({pigeonhole_shift(points, jj) for jj in range(1, j + 1)})
    except ValueError as exc:
        raise ValidationError(f"bad shift spec {text!r}: {exc}") from exc
    raise ValidationError(f"unknown shift spec {text!r}")


def parse_number(kind: type, raw: Any, name: str):
    """``raw`` as an int, float or complex; floats and complexes must be finite."""
    try:
        value = complex(str(raw)) if kind is complex else kind(raw)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"bad {name} {raw!r}: {exc}") from exc
    if kind is not int and not cmath.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {raw!r}")
    return value


def _param(params: dict, key: str, kind: type, default):
    return parse_number(kind, params.get(key, default), key)


def hecke_direct_sum(theta: float, z: complex, n: int, gamma: float = 0.0) -> complex:
    """Direct partial sum -sum_{-N<=n<0} {gamma + n*theta} z^n, unsnapped mod 1."""
    return -sum(((theta * nn + gamma) % 1.0) * z**nn for nn in range(-n, 0))


def kneading_coeffs(map_spec: str, n: int) -> np.ndarray:
    """Kneading determinant coefficients d_0 .. d_n of a map spec: 'tent',
    'quadratic[:c]' (x^2 + c, -2 <= c <= 1/4) or 'feigenbaum-product'; n >= 1."""
    if n < 1:
        # d_0 = 1 alone carries no entropy information
        raise ValidationError(f"kneading depth must be >= 1, got {n}")
    if map_spec == "feigenbaum-product":
        return feigenbaum_product(n)
    name, _, c_text = map_spec.partition(":")
    if map_spec == "tent":
        umap = UnimodalMap.tent()
    elif name == "quadratic":
        c = parse_number(float, c_text, "quadratic c") if c_text else FEIGENBAUM_C
        if not -2.0 <= c <= 0.25:
            # outside this range x^2 + c maps no interval to itself
            raise ValidationError(f"quadratic c must be in [-2, 1/4], got {c!r}")
        umap = UnimodalMap.quadratic(c)
    else:
        raise ValidationError(
            f"unknown map spec {map_spec!r} (tent | quadratic:c | feigenbaum-product)")
    return kneading_determinant(kneading_sequence(umap, n)).d_coeffs


@dataclass
class RecipeConfig:
    """One experiment: a recipe name, its parameters, and an output target."""

    recipe: str
    out: Path
    fmt: str = "json"
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.recipe not in RECIPES:
            raise ValidationError(
                f"unknown recipe {self.recipe!r}; known: {sorted(RECIPES)}"
            )
        if self.fmt not in ("json", "csv"):
            raise ValidationError("format must be json or csv")


def _rows_csv(header: list[str], rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _read_measure(path: str) -> PoleMeasure:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read measure file {path!r}: {exc}") from exc
    return PoleMeasure.loads(text)


def _load_measure(params: dict, default_order: int) -> PoleMeasure:
    path = params.get("measure")
    return _read_measure(path) if path else uniform_roots_measure(default_order)


Table = Callable[[], str]


def recipe_psp_rrl(params: dict) -> tuple[dict, Table]:
    m = _load_measure(params, 4)
    w = _param(params, "w", int, 32)
    shifts = parse_shift_spec(str(params.get("shifts", "factorial:6")), m.points)
    rows = verify_rrl_on_psp(m, shifts, w)
    summary = {
        "half_width": w,
        "rows": [
            {"shift": k, "residual_pos": rp, "residual_neg": rn}
            for k, rp, rn in rows
        ],
        "max_residual": max((max(rp, rn) for _, rp, rn in rows), default=0.0),
    }
    return summary, lambda: _rows_csv(["shift", "residual_pos", "residual_neg"], rows)


def recipe_hecke_unique(params: dict) -> tuple[dict, Table]:
    theta = parse_theta(str(params.get("theta", "golden")))
    n = _param(params, "n", int, 200)
    w = _param(params, "w", int, 10)
    k_max = _param(params, "k_max", int, 10_000)
    tol = _param(params, "tol", float, 1e-2)
    z = _param(params, "z", complex, "2+0j")
    formula = hecke_outer_eval(theta, z, n)
    residual = abs(formula - hecke_direct_sum(theta, z, n))
    bound = 2.0 * hecke_outer_truncation_bound(z, n)
    report = renascent_shift_search(hecke_stream(theta), w, k_max, tol)
    clusters = window_cluster(report, tol) if len(report) else []
    summary = {
        "theta": theta,
        "n_terms": n,
        "shift_count": len(report),
        "shifts_head": report.shifts[:16],
        "cluster_count": len(clusters),
        "identity_residual": residual,
        "identity_bound": bound,
        "status": "ok" if residual <= max(bound, 1e-10) else "mismatch",
    }
    return summary, lambda: report_to_csv(report)


def recipe_hecke_two(params: dict) -> tuple[dict, Table]:
    theta = parse_theta(str(params.get("theta", "golden")))
    w = _param(params, "w", int, 10)
    k_max = _param(params, "k_max", int, 100_000)
    tol = _param(params, "tol", float, 5e-3)
    stream = hecke_stream(theta, gamma=theta)  # a_k = {(k+1) theta}
    report = renascent_shift_search(stream, w, k_max, tol)
    clusters = window_cluster(report, tol) if len(report) else []
    diff_at_minus_1 = None
    if len(clusters) == 2:
        r0, r1 = clusters[0].representative, clusters[1].representative
        diff_at_minus_1 = abs(r0[-1] - r1[-1])
    summary = {
        "theta": theta,
        "shift_count": len(report),
        "cluster_count": len(clusters),
        "cluster_sizes": [c.count for c in clusters],
        "diff_at_minus_1": diff_at_minus_1,
        "status": "ok" if len(clusters) == 2 else "unexpected-cluster-count",
    }
    return summary, lambda: report_to_csv(report)


def recipe_kneading_entropy(params: dict) -> tuple[dict, Table]:
    map_spec = str(params.get("map", "tent"))
    n = _param(params, "n", int, 2047)
    tol = _param(params, "tol", float, 1e-6)
    res = smallest_real_zero(kneading_coeffs(map_spec, n).astype(float), tol)
    summary = {
        "map": map_spec,
        "depth": n,
        "status": res.status,
        "root": res.root,
        "entropy": res.entropy,
        "entropy_interval": res.entropy_interval,
        "r_max": res.r_max,
    }
    row = [map_spec, res.status, "" if res.root is None else res.root, res.entropy,
           *("" if v is None else v for v in res.entropy_interval or (None, None)), res.r_max]
    return summary, lambda: _rows_csv(
        ["map", "status", "root", "entropy", "entropy_lo", "entropy_hi", "r_max"], [row])


def recipe_thue_morse_product(params: dict) -> tuple[dict, Table]:
    n = _param(params, "n", int, 1023)
    product = feigenbaum_product(n)
    signs = thue_morse(n)
    signs *= -2  # (-1)^tau = 1 - 2 tau, built in place
    signs += 1
    match = bool(np.array_equal(product, signs))
    return {"n": n, "match": match}, lambda: _rows_csv(["n", "match"], [[n, match]])


def recipe_balance(params: dict) -> tuple[dict, Table]:
    angles = parse_angles(str(params.get("angles", "sqrt2")))
    bs = balance_completion(angles, _param(params, "eps", float, 0.5))
    summary = {
        "epsilon": bs.epsilon,
        "defect": bs.defect,
        "n_roots": bs.n_roots,
        "set_size": len(bs.points),
        "status": "certified",
    }
    header = ["epsilon", "defect", "n_roots", "set_size"]
    return summary, lambda: _rows_csv(header, [[summary[key] for key in header]])


def recipe_probe_arc(params: dict) -> tuple[dict, Table]:
    m = _load_measure(params, 16)
    omega1 = _param(params, "omega1", float, 0.0)
    omega2 = _param(params, "omega2", float, math.pi / 4.0)
    qn = _param(params, "quadrature_n", int, 512)
    radii = params.get("radii")
    rs = ([parse_number(float, x, "radii") for x in str(radii).split(",")] if radii
          else list(DEFAULT_RADII))

    from .psp import psp_eval  # looked up per run, so a wrapper on rrl_lab.psp is seen

    probe = arc_l1_growth(lambda z: psp_eval(m, z), omega1, omega2, rs, qn)
    radii, integrals = list(map(float, probe.radii)), list(map(float, probe.integrals))
    summary = {
        "omega1": omega1,
        "omega2": omega2,
        "quadrature_n": qn,
        "radii": radii,
        "integrals": integrals,
        "ratio": probe.ratio,
    }
    rows = [[r, v, v / integrals[0]] for r, v in zip(radii, integrals)]
    return summary, lambda: _rows_csv(["radius", "integral", "ratio_to_first"], rows)


RECIPES: dict[str, Callable[[dict], tuple[dict, Table]]] = {
    "psp-rrl": recipe_psp_rrl,
    "hecke-unique": recipe_hecke_unique,
    "hecke-two": recipe_hecke_two,
    "kneading-entropy": recipe_kneading_entropy,
    "thue-morse-product": recipe_thue_morse_product,
    "balance": recipe_balance,
    "probe-arc": recipe_probe_arc,
}


def run_recipe(cfg: RecipeConfig) -> dict:
    """Run one recipe and write ``cfg.out``: sorted-key JSON of its summary,
    or its CSV table.  Returns the summary, with the recipe name."""
    summary, table = RECIPES[cfg.recipe](cfg.params)
    result = {"recipe": cfg.recipe, **summary}
    text = table() if cfg.fmt == "csv" else json.dumps(result, sort_keys=True, indent=2) + "\n"
    cfg.out.parent.mkdir(parents=True, exist_ok=True)
    cfg.out.write_text(text)
    return result
