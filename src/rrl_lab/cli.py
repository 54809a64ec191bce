"""Command line driver.

``rrl-lab run`` executes a named recipe and writes its artifact file;
the remaining subcommands are direct single-shot tools.  Exit codes:
0 ok, 2 validation failure, 3 computation failure.  Errors are reported
as one-line JSON objects on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .diophantine import dirichlet_approx, factorial_shifts, pigeonhole_shift
from .dynamics import hecke_outer_eval, thue_morse
from .errors import CapExceeded, RrlLabError, ValidationError
from .recipes import (
    RECIPES,
    RecipeConfig,
    hecke_identity,
    kneading_coeffs,
    parse_angles,
    parse_number,
    parse_theta,
    recipe_balance,
    recipe_defaults,
    recipe_kneading_entropy,
    recipe_kwargs,
    run_recipe,
)
from .right_limits import outer_tail_bound

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_COMPUTATION = 3

# largest n of the thue-morse tool, which prints every bit as a JSON list:
# about 15 MB and 0.15 s per 10^6 bits
THUE_MORSE_TOOL_N_CAP = 10**7

# recipe parameters that may arrive from the config file or flags
PARAM_KEYS = sorted({key for recipe in RECIPES for key in recipe_defaults(recipe)})


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _read_config(path: str | None) -> dict:
    """key=value sections; [run] holds recipe/out/format, [params] the rest.

    A file that configparser cannot parse, or that is not UTF-8, is a
    ValidationError."""
    if not path:
        return {}
    import configparser  # here, not at the top: no other command pays its import

    parser = configparser.ConfigParser()
    try:
        read = parser.read(path, encoding="utf-8")
        merged = {key: value for section in parser.sections()
                  for key, value in parser.items(section)}
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ValidationError(f"bad config file {path!r}: {exc}") from exc
    if not read:
        raise ValidationError(f"config file {path!r} not found")
    return merged


def _cmd_run(args: argparse.Namespace) -> dict:
    conf = _read_config(args.config)
    recipe = args.recipe or conf.get("recipe")
    if not recipe:
        raise ValidationError("no recipe given (flag --recipe or config)")
    out = args.out or conf.get("out")
    if not out:
        raise ValidationError("no output path given (flag --out or config)")
    fmt = args.format or conf.get("format", "json")
    params = {k: v for k, v in conf.items() if k not in ("recipe", "out", "format")}
    for key in PARAM_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            params[key] = flag
    cfg = RecipeConfig(recipe=recipe, out=Path(out), fmt=fmt, params=params)
    result = run_recipe(cfg)
    return {"recipe": recipe, "out": str(out), "status": result.get("status", "ok")}


def _cmd_shifts(args: argparse.Namespace) -> dict:
    if args.factorial is not None:
        return {"mode": "factorial", "shifts": factorial_shifts(args.factorial),
                "status": "ok"}
    if args.pigeonhole is None:
        raise ValidationError("need --factorial J or --pigeonhole J")
    if args.pigeonhole < 1:
        raise ValidationError(f"--pigeonhole needs J >= 1, got {args.pigeonhole}")
    if not args.angles:
        raise ValidationError("--pigeonhole needs --angles")
    points = parse_angles(args.angles)
    ks = [pigeonhole_shift(points, j) for j in range(1, args.pigeonhole + 1)]
    return {"mode": "pigeonhole", "shifts": ks, "status": "ok"}


def _cmd_balance(args: argparse.Namespace) -> dict:
    summary, _ = recipe_balance(**recipe_kwargs(
        "balance", {"angles": args.angles, "eps": args.eps}))
    return summary


def _cmd_dirichlet(args: argparse.Namespace) -> dict:
    thetas = [parse_theta(t) for t in args.thetas.split(",") if t.strip()]
    n, ps = dirichlet_approx(thetas, args.big_m)
    return {
        "N": n,
        "p": ps,
        "errors": [abs(n * t - p) for t, p in zip(thetas, ps)],
        "bound": args.big_m ** (-1.0 / len(thetas)),
        "status": "ok",
    }


def _cmd_hecke(args: argparse.Namespace) -> dict:
    theta = parse_theta(args.theta)
    gamma = parse_number(float, args.gamma, "gamma")
    z = parse_number(complex, args.z, "z")
    if not args.check_identity:
        value = hecke_outer_eval(theta, z, args.n, gamma)
        return {"value": [value.real, value.imag],
                "bound": outer_tail_bound(z, args.n), "status": "ok"}
    value, residual, bound, _, status = hecke_identity(theta, z, args.n, gamma)
    return {
        "value": [value.real, value.imag],
        "bound": bound,
        "identity_residual": residual,
        "status": status,
    }


def _cmd_kneading(args: argparse.Namespace) -> dict:
    if not args.entropy:
        d = kneading_coeffs(args.map, args.n)
        return {"value": [int(x) for x in d[:32]], "bound": 1.0, "status": "ok"}
    summary, _ = recipe_kneading_entropy(**recipe_kwargs(
        "kneading-entropy", {"map": args.map, "n": args.n, "tol": args.tol}))
    return {
        "value": summary["entropy"],
        "bound": args.tol,
        "status": summary["status"],
        "root": summary["root"],
        "r_max": summary["r_max"],
    }


def _cmd_thue_morse(args: argparse.Namespace) -> dict:
    if args.n > THUE_MORSE_TOOL_N_CAP:
        raise CapExceeded(f"n = {args.n} exceeds cap {THUE_MORSE_TOOL_N_CAP}")
    return {"value": thue_morse(args.n).tolist(), "bound": 1.0, "status": "ok"}


class _Parser(argparse.ArgumentParser):
    """Usage errors follow the exit-2, one-JSON-line contract too."""

    def error(self, message):
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rrl-lab",
        description="generalized analytic continuation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a named recipe")
    p_run.add_argument("--recipe")
    p_run.add_argument("--out")
    p_run.add_argument("--format", choices=("json", "csv"))
    p_run.add_argument("--config")
    for key in PARAM_KEYS:
        p_run.add_argument(f"--{key.replace('_', '-')}", dest=key)
    p_run.set_defaults(handler=_cmd_run)

    p_shifts = sub.add_parser("shifts", help="factorial or pigeonhole shifts")
    p_shifts.add_argument("--factorial", type=int)
    p_shifts.add_argument("--pigeonhole", type=int)
    p_shifts.add_argument("--angles")
    p_shifts.set_defaults(handler=_cmd_shifts)

    p_bal = sub.add_parser("balance", help="complete angles to a balanced set")
    p_bal.add_argument("--angles", required=True)
    p_bal.add_argument("--eps", type=float, default=0.5)
    p_bal.set_defaults(handler=_cmd_balance)

    p_dir = sub.add_parser("dirichlet", help="simultaneous approximation")
    p_dir.add_argument("--thetas", required=True)
    p_dir.add_argument("-M", "--big-m", dest="big_m", type=int, required=True)
    p_dir.set_defaults(handler=_cmd_dirichlet)

    p_hecke = sub.add_parser("hecke", help="rotation-stream continuation values")
    p_hecke.add_argument("--theta", default="golden")
    p_hecke.add_argument("--gamma", default="0.0")
    p_hecke.add_argument("--check-identity", action="store_true")
    p_hecke.add_argument("-n", type=int, default=200)
    p_hecke.add_argument("-z", default="2+0j")
    p_hecke.set_defaults(handler=_cmd_hecke)

    p_knead = sub.add_parser("kneading", help="kneading determinant and entropy")
    p_knead.add_argument("--map", default="tent")
    p_knead.add_argument("--entropy", action="store_true")
    p_knead.add_argument("-n", type=int, default=2047)
    p_knead.add_argument("--tol", type=float, default=1e-6)
    p_knead.set_defaults(handler=_cmd_kneading)

    p_tm = sub.add_parser("thue-morse", help="Thue-Morse bits")
    p_tm.add_argument("-n", type=int, default=31)
    p_tm.set_defaults(handler=_cmd_thue_morse)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _emit(args.handler(args))
        return EXIT_OK
    except RrlLabError as exc:
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}})
        return EXIT_VALIDATION if isinstance(exc, ValidationError) else EXIT_COMPUTATION


if __name__ == "__main__":
    sys.exit(main())
