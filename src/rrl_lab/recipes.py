"""Named batch experiments driven by the CLI.

Every recipe is a pure function of its parameter dict and writes
deterministic artifacts: fixed summation orders, no timestamps, sorted
JSON keys, so reruns with one config are byte-identical.
"""

from __future__ import annotations

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


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _write_rows_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _read_measure(path: str) -> PoleMeasure:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read measure file {path!r}: {exc}") from exc
    return PoleMeasure.loads(text)


def _load_measure(params: dict) -> PoleMeasure:
    path = params.get("measure")
    return _read_measure(path) if path else uniform_roots_measure(4)


def recipe_psp_rrl(cfg: RecipeConfig) -> dict:
    m = _load_measure(cfg.params)
    w = int(cfg.params.get("w", 32))
    spec = str(cfg.params.get("shifts", "factorial:6"))
    shifts = parse_shift_spec(spec, m.points)
    rows = verify_rrl_on_psp(m, shifts, w)
    result = {
        "recipe": cfg.recipe,
        "half_width": w,
        "rows": [
            {"shift": k, "residual_pos": rp, "residual_neg": rn}
            for k, rp, rn in rows
        ],
        "max_residual": max((max(rp, rn) for _, rp, rn in rows), default=0.0),
    }
    if cfg.fmt == "csv":
        _write_rows_csv(
            cfg.out,
            ["shift", "residual_pos", "residual_neg"],
            [[k, rp, rn] for k, rp, rn in rows],
        )
    else:
        _write_json(cfg.out, result)
    return result


def recipe_hecke_unique(cfg: RecipeConfig) -> dict:
    theta = parse_theta(str(cfg.params.get("theta", "golden")))
    n = int(cfg.params.get("n", 200))
    w = int(cfg.params.get("w", 10))
    k_max = int(cfg.params.get("k_max", 10_000))
    tol = float(cfg.params.get("tol", 1e-2))
    z = complex(str(cfg.params.get("z", "2+0j")))
    report = renascent_shift_search(hecke_stream(theta), w, k_max, tol)
    direct = -sum(
        ((theta * nn) % 1.0) * z**nn for nn in range(-n, 0)
    )
    formula = hecke_outer_eval(theta, z, n)
    residual = abs(formula - direct)
    bound = 2.0 * hecke_outer_truncation_bound(z, n)
    clusters = window_cluster(report, tol) if report.windows else []
    result = {
        "recipe": cfg.recipe,
        "theta": theta,
        "n_terms": n,
        "shift_count": len(report),
        "shifts_head": report.shifts[:16],
        "cluster_count": len(clusters),
        "identity_residual": residual,
        "identity_bound": bound,
        "status": "ok" if residual <= max(bound, 1e-10) else "mismatch",
    }
    if cfg.fmt == "csv":
        cfg.out.write_text(report_to_csv(report))
    else:
        _write_json(cfg.out, result)
    return result


def recipe_hecke_two(cfg: RecipeConfig) -> dict:
    theta = parse_theta(str(cfg.params.get("theta", "golden")))
    w = int(cfg.params.get("w", 10))
    k_max = int(cfg.params.get("k_max", 100_000))
    tol = float(cfg.params.get("tol", 5e-3))
    stream = hecke_stream(theta, gamma=theta)  # a_k = {(k+1) theta}
    report = renascent_shift_search(stream, w, k_max, tol)
    clusters = window_cluster(report, tol) if report.windows else []
    diff_at_minus_1 = None
    if len(clusters) == 2:
        r0, r1 = clusters[0].representative, clusters[1].representative
        diff_at_minus_1 = abs(r0[-1] - r1[-1])
    result = {
        "recipe": cfg.recipe,
        "theta": theta,
        "shift_count": len(report),
        "cluster_count": len(clusters),
        "cluster_sizes": [c.count for c in clusters],
        "diff_at_minus_1": diff_at_minus_1,
        "status": "ok" if len(clusters) == 2 else "unexpected-cluster-count",
    }
    if cfg.fmt == "csv":
        cfg.out.write_text(report_to_csv(report))
    else:
        _write_json(cfg.out, result)
    return result


def recipe_kneading_entropy(cfg: RecipeConfig) -> dict:
    map_spec = str(cfg.params.get("map", "tent"))
    n = int(cfg.params.get("n", 2047))
    tol = float(cfg.params.get("tol", 1e-6))
    if map_spec == "tent":
        umap = UnimodalMap.tent()
        eps = kneading_sequence(umap, n)
        d = kneading_determinant(eps).d_coeffs
    elif map_spec.startswith("quadratic"):
        _, _, c_text = map_spec.partition(":")
        c = float(c_text) if c_text else FEIGENBAUM_C
        umap = UnimodalMap.quadratic(c)
        eps = kneading_sequence(umap, n)
        d = kneading_determinant(eps).d_coeffs
    elif map_spec == "feigenbaum-product":
        d = feigenbaum_product(n)
    else:
        raise ValidationError(f"unknown map spec {map_spec!r}")
    res = smallest_real_zero(d.astype(float), tol)
    result = {
        "recipe": cfg.recipe,
        "map": map_spec,
        "depth": n,
        "status": res.status,
        "root": res.root,
        "entropy": res.entropy,
        "r_max": res.r_max,
    }
    if cfg.fmt == "csv":
        _write_rows_csv(
            cfg.out,
            ["map", "status", "root", "entropy", "r_max"],
            [[map_spec, res.status, res.root if res.root is not None else "",
              res.entropy, res.r_max]],
        )
    else:
        _write_json(cfg.out, result)
    return result


def recipe_thue_morse_product(cfg: RecipeConfig) -> dict:
    n = int(cfg.params.get("n", 1023))
    prod = feigenbaum_product(n)
    tm = thue_morse(n)
    match = bool(np.array_equal(prod, (-1) ** tm))
    result = {"recipe": cfg.recipe, "n": n, "match": match}
    if cfg.fmt == "csv":
        _write_rows_csv(cfg.out, ["n", "match"], [[n, match]])
    else:
        _write_json(cfg.out, result)
    return result


def recipe_balance(cfg: RecipeConfig) -> dict:
    angles = parse_angles(str(cfg.params.get("angles", "sqrt2")))
    eps = float(cfg.params.get("eps", 0.5))
    bs = balance_completion(angles, eps)
    result = {
        "recipe": cfg.recipe,
        "epsilon": bs.epsilon,
        "defect": bs.defect,
        "n_roots": bs.n_roots,
        "set_size": len(bs.points),
        "status": "certified",
    }
    if cfg.fmt == "csv":
        _write_rows_csv(
            cfg.out,
            ["epsilon", "defect", "n_roots", "set_size"],
            [[bs.epsilon, bs.defect, bs.n_roots, len(bs.points)]],
        )
    else:
        _write_json(cfg.out, result)
    return result


def recipe_probe_arc(cfg: RecipeConfig) -> dict:
    path = cfg.params.get("measure")
    m = _read_measure(path) if path else uniform_roots_measure(16)
    omega1 = float(cfg.params.get("omega1", 0.0))
    omega2 = float(cfg.params.get("omega2", math.pi / 4.0))
    qn = int(cfg.params.get("quadrature_n", 512))
    radii = cfg.params.get("radii")
    rs = [float(x) for x in str(radii).split(",")] if radii else list(DEFAULT_RADII)

    from .psp import psp_eval

    probe = arc_l1_growth(lambda z: psp_eval(m, z), omega1, omega2, rs, qn)
    result = {
        "recipe": cfg.recipe,
        "omega1": omega1,
        "omega2": omega2,
        "quadrature_n": qn,
        "radii": list(map(float, probe.radii)),
        "integrals": list(map(float, probe.integrals)),
        "ratio": probe.ratio,
    }
    if cfg.fmt == "csv":
        cfg.out.write_text(probe.to_csv())
    else:
        _write_json(cfg.out, result)
    return result


RECIPES: dict[str, Callable[[RecipeConfig], dict]] = {
    "psp-rrl": recipe_psp_rrl,
    "hecke-unique": recipe_hecke_unique,
    "hecke-two": recipe_hecke_two,
    "kneading-entropy": recipe_kneading_entropy,
    "thue-morse-product": recipe_thue_morse_product,
    "balance": recipe_balance,
    "probe-arc": recipe_probe_arc,
}


def run_recipe(cfg: RecipeConfig) -> dict:
    """Execute one recipe; returns the result summary it wrote."""
    cfg.out.parent.mkdir(parents=True, exist_ok=True)
    return RECIPES[cfg.recipe](cfg)
