"""Named batch experiments driven by the CLI.

Every recipe is a function of keyword parameters with defaults that returns
a summary dict and a callable writing its CSV table to an open text file;
``RecipeConfig`` parses each given value by the type of its default.
``run_recipe`` is the one writer: sorted-key JSON of the summary, or the
table.  Fixed summation orders and no timestamps make reruns with one
config byte-identical.
"""

from __future__ import annotations

import cmath
import inspect
import json
import math
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Any, Callable, TextIO

import numpy as np

from .boundary import arc_l1_growth
from .circle import CirclePoint
from .diophantine import balance_completion, factorial_shifts, pigeonhole_shift
from .dynamics import (
    ZERO_N_CAP,
    UnimodalMap,
    feigenbaum_product,
    hecke_negative_side,
    hecke_outer_eval,
    hecke_stream,
    kneading_determinant,
    kneading_sequence,
    smallest_real_zero,
    thue_morse,
)
from .errors import CapExceeded, ValidationError
from .psp import PoleMeasure, uniform_roots_measure
from .right_limits import (outer_sum, outer_tail_bound, renascent_shift_search, report_to_csv,
                           verify_rrl_on_psp, window_cluster)

# Thue-Morse bits per block of the thue-morse-product check (64 KB of int8)
THUE_MORSE_BLOCK = 1 << 16
# largest Q of a uniform:Q measure; psp-rrl takes about 1 s at the cap
UNIFORM_Q_CAP = 10**4

NAMED_THETAS = {
    "golden": (math.sqrt(5.0) - 1.0) / 2.0,
    "sqrt2": math.sqrt(2.0) - 1.0,
    "sqrt3": math.sqrt(3.0) - 1.0,
}


def parse_theta(text: str) -> float:
    """A named theta (golden, sqrt2, sqrt3) or a finite float."""
    text = text.strip()
    return parse_number(float, NAMED_THETAS.get(text, text), "theta")


def parse_angle(text: str) -> CirclePoint:
    """Angle in turns: 'p/q' gives an exact point, otherwise a named theta
    or a finite float."""
    if "/" not in text:
        return CirclePoint.real(parse_theta(text))
    p, _, q = text.partition("/")
    return CirclePoint.exact(parse_number(int, p, "angle numerator"),
                             parse_number(int, q, "angle denominator"))


def parse_list(text: str, read: Callable[[str], Any]) -> list:
    """The comma-separated items of ``text``, each stripped and read by
    ``read``; empty items are skipped."""
    return [read(item) for item in map(str.strip, text.split(",")) if item]


def parse_shift_spec(text: str, points: list[CirclePoint]) -> list[int]:
    """'factorial:LO:HI' -> LO!..HI! (1 <= LO <= HI), 'factorial:J' is
    'factorial:1:J'; 'pigeonhole:J' -> the pigeonhole shifts for j = 1..J
    (J >= 1), scanned from j = J down, so J's cap is checked first.

    Every accepted spec gives at least one shift."""
    kind, _, arg = text.partition(":")
    if kind not in ("factorial", "pigeonhole"):
        raise ValidationError(f"unknown shift spec {text!r}")
    js = [parse_number(int, j, f"integer in shift spec {text!r}") for j in arg.split(":")]
    if kind == "pigeonhole" and len(js) == 1 and js[0] >= 1:
        return sorted({pigeonhole_shift(points, j) for j in range(js[0], 0, -1)})
    if kind == "factorial" and len(js) <= 2:
        lo, hi = [1, *js][-2:]
        if 1 <= lo <= hi:
            return factorial_shifts(hi)[lo - 1 :]
    raise ValidationError(f"shift spec {text!r} is not factorial:J, factorial:LO:HI "
                          f"(1 <= LO <= HI) or pigeonhole:J (J >= 1)")


def parse_number(kind: type, raw: Any, name: str):
    """``raw`` as an int, float or complex; floats and complexes must be finite."""
    try:
        value = complex(str(raw)) if kind is complex else kind(raw)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"bad {name} {raw!r}: {exc}") from exc
    if kind is not int and not cmath.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {raw!r}")
    return value


def hecke_identity(theta: float, z: complex, n: int, gamma: float = 0.0
                   ) -> tuple[complex, float, float, float, str]:
    """(value, residual, bound, tol, status) of the continuation formula at z.

    The residual is its distance to the direct sum, ``outer_sum`` of the
    stream's negative side {gamma + k*theta}, k = -N .. -1, unsnapped mod 1.
    Both truncations are within ``bound`` = ``outer_tail_bound(z, N)``, so
    the status is "ok" when the residual is at most tol = max(2 * bound,
    1e-10), else "mismatch".
    """
    value = hecke_outer_eval(theta, z, n, gamma)
    neg = chain.from_iterable(block.tolist() for block in hecke_negative_side(theta, gamma, n))
    residual = abs(value - outer_sum(neg, n, z))
    bound = outer_tail_bound(z, n)
    tol = max(2.0 * bound, 1e-10)
    return value, residual, bound, tol, "ok" if residual <= tol else "mismatch"


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
        umap = (UnimodalMap.quadratic(parse_number(float, c_text, "quadratic c")) if c_text
                else UnimodalMap.quadratic())
    else:
        raise ValidationError(
            f"unknown map spec {map_spec!r} (tent | quadratic:c | feigenbaum-product)")
    return kneading_determinant(kneading_sequence(umap, n))


def recipe_defaults(recipe: Callable) -> dict[str, Any]:
    """The keyword parameters a recipe function takes, with their defaults."""
    return {key: p.default for key, p in inspect.signature(recipe).parameters.items()}


def recipe_kwargs(recipe: str, params: dict) -> dict:
    """``params`` parsed by the types of the recipe's defaults (str, int,
    float or complex); a key the recipe does not take is a ValidationError."""
    defaults = recipe_defaults(RECIPES[recipe])
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise ValidationError(f"recipe {recipe!r} takes no parameter {', '.join(unknown)}; "
                              f"its parameters: {', '.join(defaults)}")
    return {key: str(raw) if isinstance(defaults[key], str)
            else parse_number(type(defaults[key]), raw, key)
            for key, raw in params.items()}


@dataclass
class RecipeConfig:
    """One experiment: a recipe name, its parsed parameters, and an output target."""

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
        self.params = recipe_kwargs(self.recipe, self.params)


def _rows_csv(out: TextIO, header: list[str], rows) -> None:
    out.write(",".join(header) + "\n")
    for row in rows:
        out.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n")


def load_measure(text: str) -> PoleMeasure:
    """'uniform:Q' -> the Q-th roots of unity, weight 1/Q each (1 <= Q <=
    UNIFORM_Q_CAP, checked before any atom is built); any other text is the
    path of a measure file, so a file named 'uniform:...' is './uniform:...'."""
    if text.startswith("uniform:"):
        q = parse_number(int, text[len("uniform:"):], f"order in measure spec {text!r}")
        if q < 1:
            raise ValidationError(f"measure spec {text!r} needs Q >= 1")
        if q > UNIFORM_Q_CAP:
            raise CapExceeded(f"measure spec {text!r}: Q exceeds cap {UNIFORM_Q_CAP}")
        return uniform_roots_measure(q)
    try:
        data = Path(text).read_text()
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path, or not UTF-8
        raise ValidationError(f"cannot read measure file {text!r}: {exc}") from exc
    return PoleMeasure.loads(data)


Table = Callable[[TextIO], None]


def recipe_psp_rrl(measure: str = "uniform:4", w: int = 32, shifts: str = "factorial:6"
                   ) -> tuple[dict, Table]:
    m = load_measure(measure)
    rows = verify_rrl_on_psp(m, parse_shift_spec(shifts, m.points), w)
    summary = {
        "half_width": w,
        "rows": [
            {"shift": k, "residual_pos": rp, "residual_neg": rn}
            for k, rp, rn in rows
        ],
        "max_residual": max((max(rp, rn) for _, rp, rn in rows), default=0.0),
    }
    return summary, lambda out: _rows_csv(out, ["shift", "residual_pos", "residual_neg"], rows)


def _hecke_search(theta: float, gamma: float, w: int, k_max: int, tol: float):
    """Right-limit windows of the Hecke stream {gamma + k*theta}, clustered
    once at the search tol: (report, clusters, CSV table)."""
    report = renascent_shift_search(hecke_stream(theta, gamma), w, k_max, tol)
    clusters = window_cluster(report, tol)
    return report, clusters, lambda out: report_to_csv(report, clusters, out)


def recipe_hecke_unique(theta: str = "golden", n: int = 200, w: int = 10,
                        k_max: int = 10_000, tol: float = 1e-2, z: complex = 2 + 0j
                        ) -> tuple[dict, Table]:
    theta = parse_theta(theta)
    _, residual, _, identity_tol, status = hecke_identity(theta, z, n)
    report, clusters, table = _hecke_search(theta, 0.0, w, k_max, tol)
    summary = {
        "theta": theta,
        "n_terms": n,
        "shift_count": len(report),
        "shifts_head": report.shifts[:16].tolist(),
        "cluster_count": len(clusters),
        "identity_residual": residual,
        "identity_bound": identity_tol,
        "status": status,
    }
    return summary, table


def recipe_hecke_two(theta: str = "golden", w: int = 10, k_max: int = 100_000,
                     tol: float = 5e-3) -> tuple[dict, Table]:
    theta = parse_theta(theta)
    report, clusters, table = _hecke_search(theta, theta, w, k_max, tol)  # a_k = {(k+1) theta}
    diff_at_minus_1 = None
    if len(clusters) == 2:  # b_{-1} of the two representatives
        b = report.stream.take(1, start=report.shifts[clusters.leaders] - 1)
        diff_at_minus_1 = float(abs(b[0, 0] - b[1, 0]))
    summary = {
        "theta": theta,
        "shift_count": len(report),
        "cluster_count": len(clusters),
        "cluster_sizes": np.bincount(clusters.labels, minlength=len(clusters)).tolist(),
        "diff_at_minus_1": diff_at_minus_1,
        "status": "ok" if len(clusters) == 2 else "unexpected-cluster-count",
    }
    return summary, table


def recipe_kneading_entropy(map: str = "tent", n: int = 2047, tol: float = 1e-6
                            ) -> tuple[dict, Table]:
    if n > ZERO_N_CAP:  # the zero scan's cap, checked before the coefficients are built
        raise CapExceeded(f"zero scan degree {n} exceeds cap {ZERO_N_CAP}")
    res = smallest_real_zero(kneading_coeffs(map, n), tol)
    summary = {
        "map": map,
        "depth": n,
        "status": res.status,
        "root": res.root,
        "entropy": res.entropy,
        "entropy_interval": res.entropy_interval,
        "r_max": res.r_max,
    }
    row = [map, res.status, "" if res.root is None else res.root, res.entropy,
           *("" if v is None else v for v in res.entropy_interval or (None, None)), res.r_max]
    return summary, lambda out: _rows_csv(
        out, ["map", "status", "root", "entropy", "entropy_lo", "entropy_hi", "r_max"], [row])


def recipe_thue_morse_product(n: int = 1023) -> tuple[dict, Table]:
    """Coefficients of prod_m (1 - z^(2^m)) against (-1)^tau, compared one
    block of THUE_MORSE_BLOCK bits at a time, so the run holds the int8
    product and one block; the first mismatch ends the check."""
    product = feigenbaum_product(n)

    def signs(lo: int) -> np.ndarray:
        # (-1)^tau = 1 - 2 tau, formed in place in the int8 bits
        tau = thue_morse(min(lo + THUE_MORSE_BLOCK - 1, n), lo)
        tau *= -2
        tau += 1
        return tau

    match = all(np.array_equal(product[lo : lo + THUE_MORSE_BLOCK], signs(lo))
                for lo in range(0, n + 1, THUE_MORSE_BLOCK))
    return {"n": n, "match": match}, lambda out: _rows_csv(out, ["n", "match"], [[n, match]])


def recipe_balance(angles: str = "sqrt2", eps: float = 0.5) -> tuple[dict, Table]:
    bs = balance_completion(parse_list(angles, parse_angle), eps)
    summary = {
        "epsilon": bs.epsilon,
        "defect": bs.defect,
        "n_roots": bs.n_roots,
        "set_size": len(bs.points),
        "status": "certified",
    }
    header = ["epsilon", "defect", "n_roots", "set_size"]
    return summary, lambda out: _rows_csv(out, header, [[summary[key] for key in header]])


# radii 1 - 10^(-k/2), k = 2..6, each written as its repr
def recipe_probe_arc(measure: str = "uniform:16", omega1: float = 0.0,
                     omega2: float = math.pi / 4.0, quadrature_n: int = 512,
                     radii: str = "0.9,0.9683772233983162,0.99,0.9968377223398316,0.999"
                     ) -> tuple[dict, Table]:
    m = load_measure(measure)
    rs = parse_list(radii, lambda x: parse_number(float, x, "radii"))
    probe = arc_l1_growth(m, omega1, omega2, rs, quadrature_n)
    rs, integrals = list(map(float, probe.radii)), list(map(float, probe.integrals))
    summary = {
        "omega1": omega1,
        "omega2": omega2,
        "quadrature_n": quadrature_n,
        "radii": rs,
        "integrals": integrals,
        "ratio": probe.ratio,
    }
    rows = [[r, v, "" if probe.ratio is None else v / integrals[0]] for r, v in zip(rs, integrals)]
    return summary, lambda out: _rows_csv(out, ["radius", "integral", "ratio_to_first"], rows)


RECIPES: dict[str, Callable[..., tuple[dict, Table]]] = {
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
    or its CSV table.  Returns the summary, with the recipe name.  An output
    path that cannot be made or written is a ValidationError: a parent that
    cannot be made, or a target that is a directory, before the recipe runs;
    the file itself is opened only once the recipe returns.  A path with a
    NUL, which no file system call takes, is refused before the recipe runs
    too."""
    unwritable = f"cannot write {str(cfg.out)!r}"
    if "\0" in str(cfg.out):
        raise ValidationError(f"{unwritable}: it contains a NUL")
    try:
        cfg.out.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"{unwritable}: {exc}") from exc
    if cfg.out.is_dir():
        raise ValidationError(f"{unwritable}: it is a directory")
    summary, table = RECIPES[cfg.recipe](**cfg.params)
    result = {"recipe": cfg.recipe, **summary}
    try:
        with cfg.out.open("w") as out:
            if cfg.fmt == "csv":
                table(out)
            else:
                out.write(json.dumps(result, sort_keys=True, indent=2) + "\n")
    except OSError as exc:
        raise ValidationError(f"{unwritable}: {exc}") from exc
    return result
