"""Seeded workloads: input generation, the ops a user would run, and oracles.

Each workload is a list of ops run one after another by one caller.  An op
calls a recipe through ``rrl_lab.recipes.run_recipe`` or a public library
function, always through the module attribute the library itself looks up,
so the tracer's wrappers see the call.  Every op has an oracle that checks
its output independently of the code under test:

* exact results must match exactly (zero residuals, zero defects, bitwise
  periodic coefficient sequences, equal shift and cluster counts);
* float results with a closed form are compared to it (entropies);
* other float results are compared to an independent numpy reference to
  1e-12 relative to the problem's scale, which admits the 1-ulp moves a
  vectorised kernel may cause but nothing larger.

Input sizes are fixed per workload and only the values come from the seed,
so the work per run is the same for every seed.
"""

from __future__ import annotations

import csv
import io
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import numpy as np

from rrl_lab import circle, diophantine, psp, recipes

# relative tolerance of float results against their numpy reference
REL_TOL = 1e-12


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass
class Op:
    """One call a user would make, with the oracle for its output.

    ``size`` tags the op as the small or large instance of its workload's
    main kernel, so per-layer rows can be reported at both sizes.
    """

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    params: dict
    size: str | None = None
    scaled: bool = False


def recipe_op(workdir: Path, name: str, recipe: str, check, fmt: str = "json",
              size: str | None = None, scaled: bool = False, **params) -> Op:
    out = workdir / f"{name}.{fmt}"

    def run():
        cfg = recipes.RecipeConfig(recipe=recipe, out=out, fmt=fmt, params=dict(params))
        return recipes.run_recipe(cfg)

    return Op(name, run, lambda result: check(result, out),
              {"recipe": recipe, "format": fmt, **params}, size, scaled)


def call_op(name: str, fn, args: tuple, check, params: dict,
            size: str | None = None) -> Op:
    """``fn`` must look the library function up when called (not when the
    op is built), so that it reaches the tracer's wrapper."""
    return Op(name, lambda: fn(*args), check, params, size)


# -- inputs -----------------------------------------------------------------


def reduced_fractions(orders) -> list[Fraction]:
    return sorted({Fraction(p, q) for q in orders for p in range(q)})


def random_weight(rng: random.Random) -> complex:
    return complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))


def write_measure(path: Path, atoms: list[tuple[Fraction | float, complex]]
                  ) -> psp.PoleMeasure:
    pts = [(circle.CirclePoint(a) if isinstance(a, Fraction) else circle.CirclePoint.real(a),
            w) for a, w in atoms]
    measure = psp.PoleMeasure(pts)
    path.write_text(measure.dumps())
    return measure


def noble_theta(rng: random.Random) -> float:
    """[0; a1, a2, a3, a4, 1, 1, ...] with a_i in {1, 2, 3}: badly approximable,
    so every seed gives about the same number of right-limit windows."""
    quotients = [rng.choice((1, 2, 3)) for _ in range(4)] + [1] * 40
    x = 0.0
    for a in reversed(quotients):
        x = 1.0 / (a + x)
    return x


# -- references ---------------------------------------------------------------


def atom_arrays(measure: psp.PoleMeasure):
    """(numerators, denominators or 0, float angles, weights) of a measure."""
    nums, dens, angles, weights = [], [], [], []
    for p, w in measure.atoms:
        a = p.angle
        exact = isinstance(a, Fraction)
        nums.append(a.numerator if exact else 0)
        dens.append(a.denominator if exact else 0)
        angles.append(float(a))
        weights.append(w)
    return nums, dens, angles, np.array(weights)


def power_angles(measure: psp.PoleMeasure, exps: np.ndarray) -> np.ndarray:
    """Angles (turns) of lambda^e for every atom (rows) and exponent (columns)."""
    nums, dens, angles, _ = atom_arrays(measure)
    rows = []
    for p, q, a in zip(nums, dens, angles):
        if q:
            rows.append(np.array([(p * int(e)) % q for e in exps], dtype=float) / q)
        else:
            rows.append(np.array([(a * int(e)) % 1.0 for e in exps]))
    return np.array(rows)


def moments_ref(measure: psp.PoleMeasure, exps) -> np.ndarray:
    """sum_atoms w * lambda^e, via numpy exp."""
    _, _, _, weights = atom_arrays(measure)
    ang = power_angles(measure, np.asarray(exps))
    return weights @ np.exp(2j * np.pi * ang)


def taylor_ref(measure: psp.PoleMeasure, ns) -> np.ndarray:
    """b_n = -sum w * lambda^(-n-1)."""
    return -moments_ref(measure, [-int(n) - 1 for n in ns])


def close(got, ref, scale: float) -> bool:
    got = np.asarray(got, dtype=complex)
    ref = np.asarray(ref, dtype=complex)
    return got.shape == ref.shape and bool(np.all(np.abs(got - ref) <= REL_TOL * scale))


def bitwise_periodic(values: np.ndarray, period: int) -> bool:
    if period >= len(values):
        return True
    raw = np.ascontiguousarray(values).view(np.uint64)
    return bool(np.array_equal(raw[2 * period:], raw[: -2 * period]))


def rrl_rows_ref(measure: psp.PoleMeasure, shifts: list[int], w: int):
    base = taylor_ref(measure, range(-w, w + 1))
    rows = []
    for k in shifts:
        diff = np.abs(taylor_ref(measure, range(k - w, k + w + 1)) - base)
        rows.append((k, float(np.max(diff[w:])), float(np.max(diff[:w]))))
    return rows


def arc_ref(measure: psp.PoleMeasure, omega1: float, omega2: float,
            qn: int, radii) -> list[float]:
    _, _, angles, weights = atom_arrays(measure)
    lam = np.exp(2j * np.pi * np.array(angles))
    omegas = np.linspace(omega1, omega2, qn + 1)
    out = []
    for r in radii:
        z = r * (np.cos(omegas) + 1j * np.sin(omegas))
        vals = np.abs(weights @ (1.0 / (z[None, :] - lam[:, None])))
        out.append(float(np.trapezoid(vals, omegas)))
    return out


def hecke_hits(theta: float, gamma: float, w: int, k_max: int, tol: float,
               chunk: int = 1 << 17) -> list[int]:
    """Every shift k in (W, k_max] with max_n |a_{n+k} - a_n| <= tol, scanned
    in chunks, a_k = (gamma + k*theta) mod 1 as the stream defines it."""
    def a(lo: int, hi: int) -> np.ndarray:
        return np.mod(gamma + np.arange(lo, hi) * theta, 1.0)

    head = a(0, w + 1)
    hits = []
    for lo in range(w + 1, k_max + 1, chunk):
        hi = min(lo + chunk, k_max + 1)
        win = np.lib.stride_tricks.sliding_window_view(a(lo, hi + w), w + 1)
        res = np.max(np.abs(win - head), axis=1)
        hits.extend((np.nonzero(res <= tol)[0] + lo).tolist())
    return hits


def completion_defect_ref(angles: list[float], n: int) -> float:
    """||P_F - (X^N - 1)||_1 for F = G + (R_N minus the roots G replaced),
    via P_F = (X^N - 1) * prod_G (X - mu) / prod_replaced (X - zeta^r).

    Dividing X^N - 1 by a root factor gives unit-modulus coefficients, so
    this is stable at any N, unlike expanding the product over F.
    """
    poly = np.zeros(n + 1, dtype=complex)
    poly[0], poly[n] = -1.0, 1.0
    target = poly.copy()
    for t in angles:
        zeta = np.exp(2j * np.pi * ((round(n * t) % n) / n))
        quotient = np.zeros(len(poly) - 1, dtype=complex)
        carry = poly[-1]
        for i in range(len(poly) - 2, -1, -1):
            quotient[i] = carry
            carry = poly[i] + zeta * carry
        poly = quotient
    for t in angles:
        poly = np.convolve(poly, np.array([-np.exp(2j * np.pi * t), 1.0]))
    return float(np.sum(np.abs(poly - target)))


# -- checks -------------------------------------------------------------------


def check_balance(angles: list[Fraction | float], eps: float):
    def check(result, out):
        expect(result["status"] == "certified", "balance not certified")
        n = result["n_roots"]
        expect(result["set_size"] == n, f"|F| = {result['set_size']} but N = {n}")
        expect(result["defect"] <= eps, f"defect {result['defect']} > eps {eps}")
        if all(isinstance(a, Fraction) and n % a.denominator == 0 for a in angles):
            expect(result["defect"] == 0.0, "full root set with nonzero defect")
        ref = completion_defect_ref([float(a) for a in angles], n)
        expect(abs(result["defect"] - ref) <= REL_TOL * max(1.0, ref),
               f"defect {result['defect']!r} vs reference {ref!r}")
    return check


def check_entropy(status: str, entropy: float):
    def check(result, out):
        expect(result["status"] == status, f"status {result['status']} != {status}")
        expect(abs(result["entropy"] - entropy) <= 1e-9,
               f"entropy {result['entropy']!r} vs closed form {entropy!r}")
    return check


def check_rrl(measure: psp.PoleMeasure, w: int, exact_zero: bool):
    def check(result, out):
        rows = [(r["shift"], r["residual_pos"], r["residual_neg"]) for r in result["rows"]]
        if exact_zero:
            expect(result["max_residual"] == 0.0,
                   f"max_residual {result['max_residual']!r} != 0")
        ref = rrl_rows_ref(measure, [k for k, _, _ in rows], w)
        expect(all(k == kr and abs(rp - rpr) <= REL_TOL * measure.total_mass
                   and abs(rn - rnr) <= REL_TOL * measure.total_mass
                   for (k, rp, rn), (kr, rpr, rnr) in zip(rows, ref)),
               "residual rows differ from the reference")
    return check


def read_csv(path: Path) -> list[dict]:
    return list(csv.DictReader(io.StringIO(path.read_text())))


# -- workloads ----------------------------------------------------------------


def pole_moments(seed: int, workdir: Path) -> list[Op]:
    """Moment sums over an exact measure: all time in psp/circle/diophantine."""
    rng = random.Random(seed)
    # orders dividing 360, so the period of every coefficient sequence shows
    # within n <= 2000 and 12! (a factorial:12 shift) kills every atom
    pool = reduced_fractions(q for q in range(1, 41) if 360 % q == 0)
    angles = sorted(rng.sample(pool, 46))
    measure = write_measure(workdir / "exact.json", [(a, random_weight(rng)) for a in angles])
    period = math.lcm(*(a.denominator for a in angles))
    mpath = str(workdir / "exact.json")
    mass = measure.total_mass

    def check_series(ref_fn, n):
        def check(values):
            expect(len(values) == n + 1, "wrong length")
            expect(bitwise_periodic(values, period),
                   f"not bitwise periodic with period {period}")
            expect(close(values, ref_fn(measure, range(n + 1)), mass),
                   "values differ from reference")
        return check

    def check_psp(w):
        base = check_rrl(measure, w, exact_zero=True)

        def check(result, out):
            expect([r["shift"] for r in result["rows"]]
                   == [math.factorial(j) for j in range(12, 17)], "wrong factorial shifts")
            base(result, out)
        return check

    ops = [recipe_op(workdir, f"psp-rrl-w{w}", "psp-rrl", check_psp(w), size=size,
                     scaled=(w == 200), measure=mpath, w=w, shifts="factorial:12:16")
           for w, size in ((32, "small"), (200, "large"))]
    for n, size in ((400, "small"), (2000, "large")):
        ops.append(call_op(f"taylor_inner-{n}", lambda m, k: psp.taylor_inner(m, k),
                           (measure, n), check_series(taylor_ref, n),
                           {"fn": "taylor_inner", "n_max": n}, size))
        ops.append(call_op(f"moment_sequence-{n}",
                           lambda m, k: diophantine.moment_sequence(m, k),
                           (measure, n), check_series(moments_ref, n),
                           {"fn": "moment_sequence", "n_max": n}, size))
    return ops


def arc_probe(seed: int, workdir: Path) -> list[Op]:
    """Pole-series evaluation along arcs: psp evaluation and boundary."""
    rng = random.Random(seed)
    exact = rng.sample(reduced_fractions(range(1, 13)), 23)
    floats = [rng.random() for _ in range(23)]
    measure = write_measure(workdir / "mixed.json",
                            [(a, random_weight(rng)) for a in exact + floats])
    mpath = str(workdir / "mixed.json")
    omega1, omega2 = 0.0, math.pi / 4.0
    radii = tuple(1.0 - 10.0 ** (-k / 2.0) for k in range(2, 7))

    def check(qn, fmt):
        def run_check(result, out):
            ref = arc_ref(measure, omega1, omega2, qn, radii)
            if fmt == "csv":
                got = [float(row["integral"]) for row in read_csv(out)]
            else:
                got = result["integrals"]
                expect(result["quadrature_n"] == qn, "wrong quadrature_n")
            expect(len(got) == len(ref)
                   and all(abs(g - r) <= REL_TOL * abs(r) for g, r in zip(got, ref)),
                   f"arc integrals {got} vs reference {ref}")
        return run_check

    return [
        recipe_op(workdir, f"probe-arc-{qn}", "probe-arc", check(qn, fmt), fmt=fmt, size=size,
                  scaled=(qn == 1024), measure=mpath, quadrature_n=qn)
        for qn, fmt, size in ((128, "json", "small"), (512, "csv", None),
                              (1024, "json", "large"))
    ]


def rotation_search(seed: int, workdir: Path) -> list[Op]:
    """Right-limit window searches on rotation streams: streams/right_limits."""
    rng = random.Random(seed)
    theta = noble_theta(rng)
    tol = {"hecke-unique": 1e-2, "hecke-two": 5e-3}
    clusters = {"hecke-unique": 1, "hecke-two": 2}

    def check(recipe, k_max, fmt):
        def run_check(result, out):
            gamma = theta if recipe == "hecke-two" else 0.0
            hits = hecke_hits(theta, gamma, 10, k_max, tol[recipe])
            if fmt == "csv":
                rows = read_csv(out)
                expect([int(r["shift"]) for r in rows] == hits,
                       "csv shifts differ from reference")
                expect(len({r["cluster_id"] for r in rows}) == clusters[recipe],
                       "wrong number of clusters in csv")
            else:
                expect(result["shift_count"] == len(hits),
                       f"{result['shift_count']} shifts, reference {len(hits)}")
                expect(result["cluster_count"] == clusters[recipe],
                       f"{result['cluster_count']} clusters")
            expect(result["status"] == "ok", f"status {result['status']}")
            if "shifts_head" in result:
                expect(result["shifts_head"] == hits[:16],
                       "shifts_head differs from reference")
        return run_check

    specs = [
        ("hecke-unique", 300_000, "json", "small", False),
        ("hecke-unique", 2_000_000, "json", "large", True),
        ("hecke-two", 1_000_000, "json", None, False),
        # CSV rendering is quadratic in the windows: 2k windows vs 10k
        ("hecke-two", 200_000, "csv", "small", False),
        ("hecke-unique", 1_000_000, "csv", "large", False),
    ]
    return [
        recipe_op(workdir, f"{recipe}-{k_max}-{fmt}", recipe, check(recipe, k_max, fmt),
                  fmt=fmt, size=size, scaled=scaled, theta=repr(theta), k_max=k_max)
        for recipe, k_max, fmt, size, scaled in specs
    ]


def certificates(seed: int, workdir: Path) -> list[Op]:
    """Balancedness certificates, cyclotomic products, kneading, pigeonhole."""
    rng = random.Random(seed)
    ops = []
    for i in range(3):
        x = rng.random()
        ops.append(recipe_op(workdir, f"balance-float-{i}", "balance",
                             check_balance([x], 0.5), angles=repr(x)))
    # fixed: the cost of an exact pair swings 100x with its numerators
    for text in ("1/7,3/11", "2/11,5/13"):
        name = "balance-" + text.replace("/", "_").replace(",", "-")
        ops.append(recipe_op(workdir, name, "balance",
                             check_balance([Fraction(t) for t in text.split(",")], 0.5),
                             angles=text))

    def check_full_set(result):
        expect(result == (True, 0.0), f"R_q defect {result!r} != exactly 0")

    for q, size in ((36, "small"), (120, None), (180, "large")):
        ops.append(call_op(f"is_eps_balanced-R{q}",
                           lambda k: diophantine.is_eps_balanced(circle.roots_of_unity(k),
                                                                 0.5),
                           (q,), check_full_set,
                           {"fn": "is_eps_balanced", "q": q, "eps": 0.5}, size))
    # raises CapExceeded at this commit after ~5 s: counted as failed, kept
    # so that a certificate that starts to succeed (or fail faster) shows
    irrational = [recipes.NAMED_THETAS[k] for k in ("sqrt2", "sqrt3", "golden")]
    ops.append(recipe_op(workdir, "balance-3pt", "balance", check_balance(irrational, 0.5),
                         scaled=True, angles="sqrt2,sqrt3,golden"))
    log_phi = math.log((1.0 + math.sqrt(5.0)) / 2.0)
    for name, spec, n, expected, size in (
        ("tent-2000", "tent", 2000, ("zero", math.log(2.0)), "small"),
        ("tent-20000", "tent", 20000, ("zero", math.log(2.0)), "large"),
        ("quadratic-1.75", "quadratic:-1.75", 20000, ("zero", log_phi), None),
        ("feigenbaum", "quadratic", 20000, ("no-zero", 0.0), None),
        ("feigenbaum-product", "feigenbaum-product", 200_000, ("no-zero", 0.0), None),
    ):
        ops.append(recipe_op(workdir, f"kneading-{name}", "kneading-entropy",
                             check_entropy(*expected), size=size, map=spec, n=n))

    def check_tm(n):
        def check(result, out):
            expect(result["match"] is True and result["n"] == n,
                   "Thue-Morse product mismatch")
        return check

    for n, size in ((400_000, "small"), (4_000_000, "large")):
        ops.append(recipe_op(workdir, f"thue-morse-{n}", "thue-morse-product", check_tm(n),
                             size=size, n=n))

    # fixed angles, seeded weights: the pigeonhole scan's cost swings 6x with
    # the angles and not at all with the weights
    fixed = random.Random(0)
    measure = write_measure(workdir / "float6.json",
                            [(fixed.random(), random_weight(rng)) for _ in range(6)])
    rrl_check = check_rrl(measure, 32, exact_zero=False)

    def check_pigeonhole(result, out):
        shifts = [r["shift"] for r in result["rows"]]
        # one-sided cells as the library snaps them: within 1e-13 of 1 is 0
        expect(any(all((p.angle * k) % 1.0 < 1.0 / 6.0 or (p.angle * k) % 1.0 > 1.0 - 1e-13
                       for p in measure.points) for k in shifts),
               "no shift puts all six points within 1/6 turn of 1")
        rrl_check(result, out)

    ops.append(recipe_op(workdir, "psp-rrl-pigeonhole", "psp-rrl", check_pigeonhole,
                         measure=str(workdir / "float6.json"), w=32, shifts="pigeonhole:6"))
    return ops


WORKLOADS = {
    "pole-moments": pole_moments,
    "arc-probe": arc_probe,
    "rotation-search": rotation_search,
    "certificates": certificates,
}
