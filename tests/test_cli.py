import contextlib
import io
import json
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cli_under_512_mb
from rrl_lab import diophantine, recipes, right_limits
from rrl_lab.boundary import ARC_POINTS_CAP
from rrl_lab.circle import CirclePoint
from rrl_lab.cli import PARAM_KEYS, build_parser, main
from rrl_lab.dynamics import HECKE_N_CAP, ITINERARY_N_CAP, ZERO_N_CAP
from rrl_lab.errors import ValidationError
from rrl_lab.psp import PoleMeasure, uniform_roots_measure
from rrl_lab.recipes import (hecke_identity, parse_angle, parse_list, parse_shift_spec,
                             recipe_balance, recipe_defaults, recipe_hecke_unique,
                             recipe_kneading_entropy)
from rrl_lab.right_limits import outer_sum


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, json.loads(out.splitlines()[-1]) if out else None


# ---------------------------------------------------------------- recipes

def test_run_requires_recipe_and_out(capsys):
    code, obj = run_cli(capsys, "run", "--out", "x.json")
    assert code == 2 and "error" in obj
    code, obj = run_cli(capsys, "run", "--recipe", "balance")
    assert code == 2 and "no output path" in obj["error"]["message"]


def test_unknown_recipe_rejected(tmp_path, capsys):
    code, obj = run_cli(
        capsys, "run", "--recipe", "nope", "--out", str(tmp_path / "x.json")
    )
    assert code == 2
    assert obj["error"]["type"] == "ValidationError"


def test_psp_rrl_recipe_exact_zero_residuals(tmp_path, capsys):
    measure = tmp_path / "r4.json"
    measure.write_text(uniform_roots_measure(4).dumps())
    out = tmp_path / "out.json"
    code, obj = run_cli(
        capsys, "run", "--recipe", "psp-rrl", "--out", str(out),
        "--measure", str(measure), "--shifts", "factorial:4:6",
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["max_residual"] == 0.0
    assert [r["shift"] for r in data["rows"]] == [24, 120, 720]
    # j! with j below the largest atom order cannot zero the residual
    code, obj = run_cli(
        capsys, "run", "--recipe", "psp-rrl", "--out", str(out),
        "--measure", str(measure), "--shifts", "factorial:6",
    )
    assert code == 0
    data = json.loads(out.read_text())
    by_shift = {r["shift"]: r for r in data["rows"]}
    assert by_shift[24]["residual_pos"] == 0.0
    assert by_shift[720]["residual_neg"] == 0.0
    assert by_shift[1]["residual_pos"] == 1.0


def _psp_rrl_error(tmp_path, capsys, measure, spec):
    path = tmp_path / "m.json"
    path.write_text(measure.dumps())
    code = main(["run", "--recipe", "psp-rrl", "--out", str(tmp_path / "out.json"),
                 "--measure", str(path), "--shifts", spec])
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    return code, json.loads(lines[0])


def test_psp_rrl_float_atom_huge_shift_is_validation_error(tmp_path, capsys):
    # 171! does not fit a float, so a float-angle atom cannot be shifted by it
    m = PoleMeasure([(CirclePoint.exact(1, 4), 1.0), (CirclePoint.real(0.3), 0.5j)])
    code, obj = _psp_rrl_error(tmp_path, capsys, m, "factorial:171:172")
    assert code == 2
    assert obj["error"]["type"] == "ValidationError"


def test_psp_rrl_non_finite_angle_is_validation_error(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text('[{"angle": NaN, "re": 1.0, "im": 0.0}]')
    code, obj = run_cli(capsys, "run", "--recipe", "psp-rrl", "--measure", str(path),
                        "--out", str(tmp_path / "out.json"))
    assert code == 2
    assert obj["error"]["type"] == "ValidationError"


def test_psp_rrl_rejects_specs_that_verify_nothing(tmp_path, capsys):
    m = uniform_roots_measure(4)
    # J is never implied: a spec with no J, or an empty LO or HI, is refused
    for spec in ("factorial:0:3", "factorial:3:2", "factorial:0", "pigeonhole:0",
                 "pigeonhole:-2", "factorial:x", "factorial:2:y", "factorial", "factorial:",
                 "factorial:3:", "factorial::3", "factorial:1:2:3", "pigeonhole",
                 "pigeonhole:", "pigeonhole:1:2"):
        with pytest.raises(ValidationError):
            parse_shift_spec(spec, m.points)
        code, obj = _psp_rrl_error(tmp_path, capsys, m, spec)
        assert code == 2, spec
        assert obj["error"]["type"] == "ValidationError"
    assert parse_shift_spec("factorial:1:1", m.points) == [1]
    assert parse_shift_spec("factorial:3", m.points) == [1, 2, 6]
    assert parse_shift_spec("factorial:3:4", m.points) == [6, 24]
    assert parse_shift_spec("pigeonhole:1", m.points) == [1]


def one_json_line(capsys, *argv):
    code = main(list(argv))
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1, lines
    return code, json.loads(lines[0])


def test_psp_rrl_order_past_int64_exits_0(tmp_path, capsys):
    # p*e fits int64 at the default W, the order 10^40 + 7 does not
    path = tmp_path / "huge.json"
    path.write_text('[{"angle": {"p": 7, "q": %d}, "re": 1.0}]' % (10**40 + 7))
    code, obj = one_json_line(capsys, "run", "--recipe", "psp-rrl", "--measure", str(path),
                              "--out", str(tmp_path / "out.json"))
    assert code == 0 and obj["status"] == "ok"


@pytest.mark.parametrize("argv", [
    ["balance", "--angles", "1/0"],
    ["balance", "--angles", "1/2/3"],
    ["balance", "--angles", "0.1,abc"],
    ["shifts", "--pigeonhole", "2", "--angles", "x/7"],
    ["hecke", "--theta", "abc"],
    ["hecke", "--theta", "nan"],
    ["dirichlet", "--thetas", "sqrt2,abc", "-M", "10"],
    ["balance", "--angles"],
    ["hecke", "-n", "x"],
    ["nope"],
    ["hecke", "-z", "x"],
    ["hecke", "--gamma", "nan", "--check-identity"],
    ["run", "--recipe", "hecke-unique", "--n", "x"],
    ["run", "--recipe", "hecke-unique", "--w", "x"],
    ["run", "--recipe", "hecke-unique", "--k-max", "x"],
    ["run", "--recipe", "hecke-unique", "--tol", "x"],
    ["run", "--recipe", "hecke-unique", "--tol", "nan"],
    ["run", "--recipe", "hecke-unique", "--z", "x"],
    ["run", "--recipe", "hecke-unique", "--z", "inf"],
    ["run", "--recipe", "probe-arc", "--quadrature-n", "x"],
    ["run", "--recipe", "probe-arc", "--radii", "0.5,x"],
    ["run", "--recipe", "probe-arc", "--omega2", "1e999"],
    ["run", "--recipe", "balance", "--eps", "x"],
    ["run", "--recipe", "kneading-entropy", "--map", "quadratic:x"],
    ["run", "--recipe", "thue-morse-product", "--n", "1.5"],
    ["run", "--recipe", "psp-rrl", "--w", "x"],
    ["run", "--recipe", "thue-morse-product", "--gamma", "0.3"],
    # parsable but out of range: a Hecke depth below 1, a quadratic map
    # x^2 + c with c outside [-2, 1/4]
    ["hecke", "-n", "-5"],
    ["hecke", "-n", "0", "--check-identity"],
    ["hecke", "-n", "-5", "--gamma", "0.3", "--check-identity"],
    ["run", "--recipe", "hecke-unique", "--n", "-5"],
    ["kneading", "--map", "quadratic:2.5", "--entropy"],
    ["kneading", "--map", "quadratic:-2.01"],
    ["run", "--recipe", "kneading-entropy", "--map", "quadratic:2.5"],
    # map specs that name no known map
    ["kneading", "--map", "logistic"],
    ["run", "--recipe", "kneading-entropy", "--map", "tent:3"],
    # a pigeonhole count or a kneading depth below 1
    ["shifts", "--pigeonhole", "0", "--angles", "sqrt2"],
    ["shifts", "--pigeonhole", "-3", "--angles", "sqrt2"],
    ["shifts", "--pigeonhole", "3"],
    ["run", "--recipe", "psp-rrl", "--shifts", "bogus:3"],
    ["kneading", "-n", "0"],
    ["kneading", "-n", "0", "--entropy"],
    ["run", "--recipe", "kneading-entropy", "--n", "0"],
    ["run", "--recipe", "kneading-entropy", "--map", "feigenbaum-product", "--n", "-1"],
    # k * theta overflows to inf, so the stream reads NaN past a_1
    ["run", "--recipe", "hecke-unique", "--theta", "1e308"],
    ["run", "--recipe", "hecke-two", "--theta", "1e308"],
    # the continuation loop's k * theta overflows: refused before it runs
    ["hecke", "--theta", "1e308"],
    ["hecke", "--theta", "1e308", "--check-identity"],
    # an arc whose panels are below the smallest normal float
    ["run", "--recipe", "probe-arc", "--omega2", "1e-320"],
    # a radius list with no item, and two shift modes at once
    ["run", "--recipe", "probe-arc", "--radii", ","],
    ["shifts", "--factorial", "3", "--pigeonhole", "2", "--angles", "sqrt2"],
    # arcs longer than one turn, whose integrals used to be NaN or inf
    ["run", "--recipe", "probe-arc", "--omega1=-1e308", "--omega2=1e308", "--quadrature-n", "64"],
    ["run", "--recipe", "probe-arc", "--omega1=0", "--omega2=1e308", "--quadrature-n", "64"],
    ["run", "--recipe", "probe-arc", "--omega1=-1e308", "--omega2=0", "--quadrature-n", "64"],
    # empty text is no default, and uniform:Q needs an integer Q >= 1
    ["run", "--recipe", "probe-arc", "--radii", ""],
    ["run", "--recipe", "probe-arc", "--measure", ""],
    ["run", "--recipe", "psp-rrl", "--measure", ""],
    ["run", "--recipe", "psp-rrl", "--measure", "uniform:0"],
    ["run", "--recipe", "psp-rrl", "--measure", "uniform:-4"],
    ["run", "--recipe", "probe-arc", "--measure", "uniform:x"],
    ["run", "--recipe", "probe-arc", "--measure", "uniform:1.5"],
    ["run", "--recipe", "psp-rrl", "--measure", "uniform:"],
])
def test_unparsable_arguments_exit_2(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    if argv[0] == "run":
        argv = [*argv, "--out", "out.json"]
    code, obj = one_json_line(capsys, *argv)
    assert code == 2
    assert obj["error"]["type"] == "ValidationError"
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("argv", [
    # M + 1 scan steps and up to M cells: refused before the scan starts
    ["dirichlet", "--thetas", "sqrt2", "-M", "1000000000"],
    # 1700! has more digits than CPython converts to str (4300)
    ["shifts", "--factorial", "1700"],
    ["run", "--recipe", "psp-rrl", "--shifts", "factorial:1700"],
    # L is a product of two primes near 1e9: trial division stops at 1e5
    ["balance", "--angles", "1/1000000007,499122177/998244353"],
    # the right-limit search: k_max over SEARCH_K_CAP, and a block read of
    # SEARCH_BLOCK + W values over SEARCH_CELLS_CAP
    ["run", "--recipe", "hecke-unique", "--k-max", "1000000000000"],
    ["run", "--recipe", "hecke-two", "--w", "100000000", "--k-max", "100000001"],
    # the itinerary loop (ITINERARY_N_CAP + 1 steps)
    ["kneading", "--map", "tent", "-n", str(ITINERARY_N_CAP + 1)],
    # the zero scan (degree ZERO_N_CAP + 1), checked before the coefficients are built
    ["kneading", "--map", "feigenbaum-product", "--entropy", "-n", str(ZERO_N_CAP + 1)],
    ["run", "--recipe", "kneading-entropy", "--map", "feigenbaum-product",
     "--n", str(ZERO_N_CAP + 1)],
    ["run", "--recipe", "kneading-entropy", "--n", str(ZERO_N_CAP + 1)],
    # verify_rrl_on_psp: 3 rows (2 shifts and the unshifted) of 2W + 1 = 666667
    # exponents are VERIFY_CELLS_CAP + 1
    ["run", "--recipe", "psp-rrl", "--shifts", "factorial:1:2", "--w", "333333"],
    # arc_l1_growth: one radius of quadrature_n + 1 = ARC_POINTS_CAP + 1 points
    ["run", "--recipe", "probe-arc", "--radii", "0.5", "--quadrature-n", str(ARC_POINTS_CAP)],
    # the Hecke depth, checked before the continuation loop and the direct sum
    ["hecke", "-n", str(HECKE_N_CAP + 1)],
    ["hecke", "--check-identity", "-n", str(HECKE_N_CAP + 1)],
    ["run", "--recipe", "hecke-unique", "--n", str(HECKE_N_CAP + 1)],
])
def test_caps_exit_3(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    if argv[0] == "run":
        argv = [*argv, "--out", "out.json"]
    # every cap is checked before the work it bounds allocates anything
    tracemalloc.start()
    try:
        code, obj = one_json_line(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert obj["error"]["type"] == "CapExceeded"
    assert not (tmp_path / "out.json").exists()
    assert peak < 1 << 20


@pytest.mark.parametrize("argv", [
    ["kneading", "--map", "tent", "-n", str(ITINERARY_N_CAP)],
    ["run", "--recipe", "kneading-entropy", "--map", "feigenbaum-product",
     "--n", str(ZERO_N_CAP)],
    # default shifts factorial:6, 7 rows of 2W + 1 = 285713: 1999991 exponents
    ["run", "--recipe", "psp-rrl", "--w", "142856"],
    ["run", "--recipe", "probe-arc", "--radii", "0.5", "--quadrature-n", str(ARC_POINTS_CAP - 1)],
    # 26 rows of 2W + 1 = 76923: 1999998 exponents past 2^63 (25!), each row
    # at p*s mod 29 taken once on Python ints plus p*e in int64
    ["run", "--recipe", "psp-rrl", "--measure", "uniform:29", "--shifts", "factorial:1:25",
     "--w", "38461"],
    # 1001 rows of 2W + 1 = 1997: 1998997 exponents, shifts of up to 2568 digits
    ["run", "--recipe", "psp-rrl", "--measure", "uniform:4", "--shifts", "factorial:1:1000",
     "--w", "998"],
], ids=["itinerary", "zero-scan", "psp-rrl", "probe-arc", "psp-rrl-past-int64",
        "psp-rrl-factorial-1000"])
def test_runs_at_the_caps_fit_in_512_mb(tmp_path, argv):
    if argv[0] == "run":
        argv = [*argv, "--out", str(tmp_path / "out.json")]
    proc = cli_under_512_mb(*argv)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["status"] in ("ok", "no-zero")


def test_balance_on_the_large_ladder_fits_in_512_mb():
    # 1/997, 2/991 certifies at N = 164506, L = 2 * 83 * 991 * 997: one
    # rewritten term of P_F's coefficients becomes 990 or 996
    proc = cli_under_512_mb("balance", "--angles", "1/997,2/991")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["n_roots"] == 164506


def test_psp_rrl_on_many_orders_fits_in_512_mb(tmp_path):
    # all 128 reduced fractions of order <= 20 at the verify cap: the moment
    # kernel's memory must not grow with the number of distinct orders
    m = PoleMeasure([(CirclePoint.exact(p, q), complex(1.0 / q**2, 0.5 / q))
                     for q in range(1, 21) for p in range(q) if math.gcd(p, q) == 1])
    assert len(m) == 128
    path = tmp_path / "orders20.json"
    path.write_text(m.dumps())
    proc = cli_under_512_mb("run", "--recipe", "psp-rrl", "--measure", str(path),
                            "--w", "142856", "--out", str(tmp_path / "out.json"))
    assert proc.returncode in (0, 3), proc.stderr
    assert len(proc.stdout.strip().splitlines()) == 1


def test_psp_rrl_on_300_long_orders_fits_in_512_mb(tmp_path):
    # 7 rows of 2W + 1 = 14401: 100807 cells, so each atom 1/q reads a
    # weighted row from its own cos/sin table of q entries, 1.6 MB; the 300
    # tables together would pass 512 MB if none were dropped before the end
    m = PoleMeasure([(CirclePoint.exact(1, q), 1.0) for q in range(100_000, 100_300)])
    path = tmp_path / "orders300.json"
    path.write_text(m.dumps())
    proc = cli_under_512_mb("run", "--recipe", "psp-rrl", "--measure", str(path),
                            "--w", "7200", "--out", str(tmp_path / "out.json"))
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.strip().splitlines()) == 1


def test_psp_rrl_on_the_longest_rows_fits_in_512_mb(tmp_path):
    # 7 rows of 2W + 1 = 285713: 1999991 cells; 1/1999991 (q = cells) has
    # the moment kernel's longest weighted row, 2q entries, and 3/1999989
    # (1/666663 reduced) one of 1333326, each a block of its own
    m = PoleMeasure([(CirclePoint.exact(1, 1999991), 0.5 + 0.25j),
                     (CirclePoint.exact(3, 1999989), -0.75)])
    path = tmp_path / "longest_rows.json"
    path.write_text(m.dumps())
    proc = cli_under_512_mb("run", "--recipe", "psp-rrl", "--measure", str(path),
                            "--w", "142856", "--out", str(tmp_path / "out.json"))
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.strip().splitlines()) == 1


def test_hecke_two_with_every_shift_a_hit_fits_in_512_mb(tmp_path):
    # at tol 1 every one of the 4 899 990 shifts is a hit, just under the
    # cells cap, and all fall in one cluster: the clustering may hold only
    # the 2 values per hit that the cap counts (a label and a distance)
    out = tmp_path / "two.json"
    proc = cli_under_512_mb("run", "--recipe", "hecke-two", "--tol", "1", "--k-max", "4900000",
                            "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    data = json.loads(out.read_text())
    assert data["shift_count"] == 4_899_990 and data["cluster_sizes"] == [4_899_990]


def test_hecke_unique_csv_of_every_shift_fits_in_512_mb(tmp_path):
    # 1 999 990 rows, written SEARCH_BLOCK rows at a time
    out = tmp_path / "unique.csv"
    proc = cli_under_512_mb("run", "--recipe", "hecke-unique", "--format", "csv", "--tol", "1",
                            "--k-max", "2000000", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    with out.open() as lines:
        assert next(lines) == "shift,residual_pos,residual_neg_vs_cluster,cluster_id\n"
        assert sum(1 for _ in lines) == 1_999_990


def test_quadratic_range_ends_accepted(capsys):
    for c in ("-2", "0.25"):
        code, obj = run_cli(capsys, "kneading", "--map", f"quadratic:{c}", "-n", "40")
        assert code == 0 and obj["status"] == "ok"


def test_kneading_tool_takes_feigenbaum_product(capsys):
    code, obj = run_cli(capsys, "kneading", "--map", "feigenbaum-product", "-n", "7")
    assert code == 0
    assert obj["value"] == [1, -1, -1, 1, -1, 1, 1, -1]
    code, obj = run_cli(capsys, "kneading", "--map", "feigenbaum-product", "--entropy",
                        "-n", "2047")
    assert code == 0
    assert obj["status"] == "no-zero" and obj["value"] == 0.0


@pytest.mark.parametrize("recipe", ["psp-rrl", "probe-arc"])
@pytest.mark.parametrize("text", [
    None,  # the file does not exist
    "{not json",
    '[{"angle": {"p": 1, "q": 0}, "re": 1.0}]',
    '[{"angle": {"p": "x", "q": 3}, "re": 1.0}]',
    '[{"angle": {"p": 1.9, "q": 3}, "re": 1.0}]',
    '[{"angle": {"p": true, "q": 3.7}, "re": 1.0}]',
    '[{"angle": 0.25}]',
    '{"tail_mass": 0.1}',
    "[1, 2]",
    '[{"angle": 0.25, "re": NaN}]',
    '[{"angle": 0.25, "re": 1.0, "im": Infinity}]',
    '[{"angle": {"p": 1, "q": 4}, "re": -Infinity}]',
    '{"atoms": [{"angle": 0.25, "re": 1.0}], "tail_mass": NaN}',
    # every number must be a JSON number, and p and q JSON integers: a bool
    # or a string is neither
    '[{"angle": true, "re": 1.0}]',
    '[{"angle": "0.25", "re": 1.0}]',
    '[{"angle": 0.25, "re": true}]',
    '[{"angle": 0.25, "re": 1.0, "im": "0.5"}]',
    '[{"angle": {"p": 1, "q": false}, "re": 1.0}]',
    '{"atoms": [{"angle": 0.25, "re": 1.0}], "tail_mass": "0.5"}',
    '{"atoms": [{"angle": 0.25, "re": 1.0}], "tail_mass": true}',
    # an integer that no float holds
    '[{"angle": 0.25, "re": 1%s}]' % ("0" * 400),
])
def test_bad_measure_files_exit_2(tmp_path, capsys, recipe, text):
    path = tmp_path / "m.json"
    if text is not None:
        path.write_text(text)
    code, obj = one_json_line(capsys, "run", "--recipe", recipe, "--measure", str(path),
                              "--out", str(tmp_path / "out.json"))
    assert code == 2
    assert obj["error"]["type"] == "ValidationError"
    assert not (tmp_path / "out.json").exists()


def test_measure_spec_and_path(tmp_path, monkeypatch, capsys):
    # uniform:Q is a spec; a file named uniform:4 is reached as ./uniform:4
    monkeypatch.chdir(tmp_path)
    (tmp_path / "uniform:4").write_text(uniform_roots_measure(6).dumps())
    artifacts = []
    for measure in ("uniform:4", "./uniform:4", "uniform:6"):
        code, _ = one_json_line(capsys, "run", "--recipe", "probe-arc", "--measure", measure,
                                "--quadrature-n", "64", "--out", "out.json")
        assert code == 0
        artifacts.append((tmp_path / "out.json").read_bytes())
    assert artifacts[0] != artifacts[1] == artifacts[2]


@pytest.mark.parametrize("recipe", ["psp-rrl", "probe-arc"])
def test_over_cap_uniform_measure_builds_nothing(tmp_path, monkeypatch, capsys, recipe):
    def never_called(q):
        raise AssertionError("an atom was built before the cap check")

    monkeypatch.setattr(recipes, "uniform_roots_measure", never_called)
    out = tmp_path / "out.json"
    code, obj = one_json_line(capsys, "run", "--recipe", recipe, "--measure",
                              f"uniform:{recipes.UNIFORM_Q_CAP + 1}", "--out", str(out))
    assert code == 3 and obj["error"]["type"] == "CapExceeded"
    assert not out.exists()


def test_nul_in_measure_path_exits_2(tmp_path, capsys):
    # a config value may hold a NUL, which no path can
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("[run]\nrecipe = psp-rrl\n[params]\nmeasure = a\0b\n")
    out = tmp_path / "out.json"
    code, obj = one_json_line(capsys, "run", "--config", str(cfg), "--out", str(out))
    assert code == 2 and obj["error"]["type"] == "ValidationError"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["balance", "--angles", "1/3,1/3"],
    ["balance", "--angles", "1/2,0.5"],
    ["run", "--recipe", "psp-rrl", "--measure", "dup.json"],
])
def test_repeated_point_exits_2(tmp_path, monkeypatch, capsys, argv):
    # 1/3 and 2/6 are one pole; an exact 1/2 and the float 0.5 one root
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dup.json").write_text(
        '[{"angle": {"p": 1, "q": 3}, "re": 1.0}, {"angle": {"p": 2, "q": 6}, "re": 1.0}]')
    if argv[0] == "run":
        argv = [*argv, "--out", "out.json"]
    code, obj = one_json_line(capsys, *argv)
    assert code == 2
    assert obj["error"]["type"] == "DuplicatePoint"
    assert not (tmp_path / "out.json").exists()


# Malformed angle text or float angles only, with at most one finite float, so
# that no case starts a large exact completion, or a long ladder for two
# nearly equal points.
BAD_ANGLES = st.sampled_from(["1/0", "0/0", "1/2/3", "/", "1/", "/7", "a/b", "abc", "nan",
                              "inf", "-inf", "1e999", "--1", "0x10", "1.5.2", "\u00bd"])
FLOAT_ANGLE = st.floats(allow_nan=True, allow_infinity=True).map(repr)
NO_SLASH_TEXT = st.text(st.sampled_from("0123456789.-+eE naif_"), max_size=8)


def finite_floats(parts) -> int:
    count = 0
    for part in parts:
        try:
            count += math.isfinite(float(part))
        except ValueError:
            pass
    return count


@settings(max_examples=60, deadline=None)
@given(st.lists(BAD_ANGLES | NO_SLASH_TEXT | FLOAT_ANGLE, max_size=4)
       .filter(lambda parts: finite_floats(parts) <= 1),
       st.sampled_from([",", ", ", ",,"]))
def test_fuzzed_balance_angles_exit_0_2_or_3_with_one_json_line(parts, sep):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["balance", "--angles=" + sep.join(parts)])
    lines = buf.getvalue().strip().splitlines()
    assert code in (0, 2, 3)
    assert len(lines) == 1
    obj = json.loads(lines[0])
    assert ("error" in obj) == (code != 0)


def test_byte_identical_reruns(tmp_path, capsys):
    for recipe, extra in (
        ("thue-morse-product", ["--n", "255"]),
        ("kneading-entropy", ["--map", "tent", "--n", "64"]),
        ("hecke-unique", ["--theta", "golden", "--k-max", "2000"]),
    ):
        out1 = tmp_path / f"{recipe}-1.json"
        out2 = tmp_path / f"{recipe}-2.json"
        code1, _ = run_cli(capsys, "run", "--recipe", recipe, "--out", str(out1), *extra)
        code2, _ = run_cli(capsys, "run", "--recipe", recipe, "--out", str(out2), *extra)
        assert code1 == code2 == 0
        assert out1.read_bytes() == out2.read_bytes()


def test_thue_morse_product_recipe(tmp_path, capsys):
    out = tmp_path / "tm.json"
    code, _ = run_cli(
        capsys, "run", "--recipe", "thue-morse-product", "--out", str(out),
        "--n", "1023",
    )
    assert code == 0
    assert json.loads(out.read_text())["match"] is True


def test_hecke_two_recipe(tmp_path, capsys):
    out = tmp_path / "two.json"
    code, _ = run_cli(
        capsys, "run", "--recipe", "hecke-two", "--out", str(out),
        "--k-max", "30000",
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["cluster_count"] == 2
    assert abs(data["diff_at_minus_1"] - 1.0) <= 2 * 5e-3


def test_hecke_two_csv_clusters_once(tmp_path, monkeypatch):
    calls = []
    for module in (recipes, right_limits):
        def counted(*args, _cluster=module.window_cluster):
            calls.append(args)
            return _cluster(*args)

        monkeypatch.setattr(module, "window_cluster", counted)
    out = tmp_path / "two.csv"
    recipes.run_recipe(recipes.RecipeConfig("hecke-two", out, "csv", {"k_max": 30000}))
    assert len(calls) == 1
    assert {line.rsplit(",", 1)[1] for line in out.read_text().split()[1:]} == {"0", "1"}


def test_balance_recipe_and_computation_error(tmp_path, capsys):
    out = tmp_path / "bal.json"
    code, _ = run_cli(
        capsys, "run", "--recipe", "balance", "--out", str(out),
        "--angles", "sqrt2",
    )
    assert code == 0
    assert json.loads(out.read_text())["defect"] <= 0.5
    # four angles exceed the completion cap -> computation error, exit 3
    code, obj = run_cli(
        capsys, "run", "--recipe", "balance", "--out", str(out),
        "--angles", "0.11,0.23,0.37,0.41",
    )
    assert code == 3
    assert obj["error"]["type"] == "CapExceeded"


def test_probe_arc_recipe_csv(tmp_path, capsys):
    out = tmp_path / "arc.csv"
    code, _ = run_cli(
        capsys, "run", "--recipe", "probe-arc", "--out", str(out),
        "--format", "csv", "--quadrature-n", "128",
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "radius,integral,ratio_to_first"
    assert len(lines) == 6


def test_probe_arc_on_zero_integrals_writes_no_ratio(tmp_path, capsys):
    # g = 0 on the empty measure: the ratio to the first integral is None
    measure = tmp_path / "empty.json"
    measure.write_text("[]")
    args = ["run", "--recipe", "probe-arc", "--measure", str(measure), "--quadrature-n", "64"]
    code, _ = run_cli(capsys, *args, "--out", str(tmp_path / "arc.json"))
    assert code == 0
    data = json.loads((tmp_path / "arc.json").read_text(), parse_constant=reject_constant)
    assert data["ratio"] is None and data["integrals"] == [0.0] * 5
    code, _ = run_cli(capsys, *args, "--format", "csv", "--out", str(tmp_path / "arc.csv"))
    assert code == 0
    lines = (tmp_path / "arc.csv").read_text().strip().split("\n")
    assert lines[1:] == [f"{r!r},0.0," for r in data["radii"]]


def test_probe_arc_point_on_a_pole_exits_3(tmp_path, monkeypatch, capsys):
    # the default measure has a pole at z = 1, and the probe point at omega 0
    # of radius 1 - 5e-13 lies within psp_eval's exclusion radius of it
    monkeypatch.chdir(tmp_path)
    code, obj = one_json_line(capsys, "run", "--recipe", "probe-arc",
                              "--radii", "0.9,0.9999999999995", "--out", "arc.json")
    assert code == 3 and obj["error"]["type"] == "PoleCollision"
    assert not (tmp_path / "arc.json").exists()


def test_kneading_entropy_recipe_feigenbaum(tmp_path, capsys):
    out = tmp_path / "ent.json"
    code, _ = run_cli(
        capsys, "run", "--recipe", "kneading-entropy", "--out", str(out),
        "--map", "feigenbaum-product", "--n", "2047",
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["status"] == "no-zero" and data["entropy"] == 0.0


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "[run]\nrecipe = thue-morse-product\nout = {}\nformat = json\n"
        "[params]\nn = 63\n".format(tmp_path / "from-config.json")
    )
    code, _ = run_cli(capsys, "run", "--config", str(cfg))
    assert code == 0
    assert json.loads((tmp_path / "from-config.json").read_text())["n"] == 63
    # flag overrides the config value
    out2 = tmp_path / "override.json"
    code, _ = run_cli(
        capsys, "run", "--config", str(cfg), "--out", str(out2), "--n", "31"
    )
    assert code == 0
    assert json.loads(out2.read_text())["n"] == 31


@pytest.mark.parametrize("line", ["k-max = 50", "thetaa = 0.3", "gamma = 0.1",
                                  "angles = 1/3", "format = xml"])
def test_unknown_config_key_exits_2(tmp_path, capsys, line):
    # a misspelt key used to be dropped, and the run went on at the defaults
    out = tmp_path / "typo.json"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"[run]\nrecipe = hecke-unique\nout = {out}\n[params]\n{line}\n")
    code = main(["run", "--config", str(cfg)])
    lines = capsys.readouterr().out.splitlines()
    obj = json.loads(lines[0])
    assert code == 2 and len(lines) == 1 and obj["error"]["type"] == "ValidationError"
    assert line.split(" = ")[0] in obj["error"]["message"]
    assert not out.exists()


@pytest.mark.parametrize("recipe, flags, message", [
    ("hecke-two", ["--n", "5", "--eps", "0.1", "--angles", "1/3"],
     "recipe 'hecke-two' takes no parameter angles, eps, n; "
     "its parameters: theta, w, k_max, tol"),
    ("thue-morse-product", ["--theta", "sqrt2", "--k-max", "9"],
     "recipe 'thue-morse-product' takes no parameter k_max, theta; its parameters: n"),
], ids=["hecke-two", "thue-morse-product"])
def test_flag_the_recipe_does_not_take_exits_2(tmp_path, capsys, recipe, flags, message):
    # such a flag used to be dropped, and the run went on at the defaults
    out = tmp_path / "unread.json"
    code, obj = run_cli(capsys, "run", "--recipe", recipe, *flags, "--out", str(out))
    assert code == 2 and obj["error"] == {"type": "ValidationError", "message": message}
    assert not out.exists()


def test_flag_keys_are_the_recipe_keywords():
    assert sorted(PARAM_KEYS) == sorted(["theta", "n", "w", "k_max", "tol", "eps", "z", "map",
                                         "measure", "shifts", "angles", "omega1",
                                         "omega2", "quadrature_n", "radii"])


def test_missing_config_file(capsys):
    code, obj = run_cli(capsys, "run", "--config", "/nonexistent.cfg")
    assert code == 2 and "error" in obj


@pytest.mark.parametrize("text", [
    b"recipe = balance\n",
    b"[run]\nrecipe = balance\nrecipe = psp-rrl\n",
    b"[run]\nrecipe balance\n",
    b"[run]\nrecipe = bal\xe9nce\n",
], ids=["no-section-header", "repeated-key", "no-equals", "not-utf-8"])
def test_malformed_config_exits_2(tmp_path, capsys, text):
    # configparser's errors and a non-UTF-8 file exit 2, not with a traceback
    cfg = tmp_path / "exp.cfg"
    cfg.write_bytes(text)
    code, obj = one_json_line(capsys, "run", "--config", str(cfg), "--out",
                              str(tmp_path / "out.json"))
    assert code == 2 and obj["error"]["type"] == "ValidationError"
    assert "bad config file" in obj["error"]["message"]


@pytest.mark.parametrize("target", ["directory", "under-a-file", "nul-in-parent", "nul-in-name"])
def test_unwritable_out_exits_2(tmp_path, monkeypatch, capsys, target):
    # a directory target, a parent under a file and a NUL in the parent or
    # the file name exit 2, not with a traceback, and before the recipe runs
    def never_called(**params):
        raise AssertionError("the recipe ran before --out was checked")

    monkeypatch.setitem(recipes.RECIPES, "balance", never_called)
    (tmp_path / "file").write_text("")
    out = {"directory": tmp_path, "under-a-file": tmp_path / "file" / "a.json",
           "nul-in-parent": tmp_path / "o\0" / "a.json",
           "nul-in-name": tmp_path / "o\0.json"}[target]
    code, obj = one_json_line(capsys, "run", "--recipe", "balance", "--out", str(out))
    assert code == 2 and obj["error"]["type"] == "ValidationError"
    assert obj["error"]["message"].startswith(f"cannot write {str(out)!r}")


# ---------------------------------------------------------------- tools

def test_shifts_factorial(capsys):
    code, obj = run_cli(capsys, "shifts", "--factorial", "5")
    assert code == 0
    assert obj["shifts"] == [1, 2, 6, 24, 120]


def test_shifts_pigeonhole(capsys):
    code, obj = run_cli(
        capsys, "shifts", "--pigeonhole", "4", "--angles", "sqrt2,sqrt3"
    )
    assert code == 0
    points = parse_list("sqrt2,sqrt3", parse_angle)
    assert obj["shifts"] == [diophantine.pigeonhole_shift(points, j) for j in range(1, 5)]


@pytest.mark.parametrize("argv", [
    ["shifts", "--pigeonhole", str(diophantine.PIGEONHOLE_J_CAP + 1), "--angles", "sqrt2,0.3"],
    ["run", "--recipe", "psp-rrl", "--shifts", f"pigeonhole:{diophantine.PIGEONHOLE_J_CAP + 1}"],
])
def test_over_cap_pigeonhole_scans_nothing(tmp_path, monkeypatch, capsys, argv):
    # j = J is scanned first, so its cap refuses the run before any scan
    def never_called(*args):
        raise AssertionError("a pigeonhole scan ran before the cap check")

    monkeypatch.setattr(diophantine, "_in_corner", never_called)
    monkeypatch.chdir(tmp_path)
    if argv[0] == "run":
        argv = [*argv, "--out", "out.json"]
    code, obj = one_json_line(capsys, *argv)
    assert code == 3 and obj["error"]["type"] == "CapExceeded"


@pytest.mark.parametrize("gappy, plain", [
    (["balance", "--angles", "1/3,,sqrt2"], ["balance", "--angles", "1/3,sqrt2"]),
    (["dirichlet", "--thetas", "sqrt2,,sqrt3", "-M", "100"],
     ["dirichlet", "--thetas", "sqrt2,sqrt3", "-M", "100"]),
    (["run", "--recipe", "probe-arc", "--radii", "0.9,,0.99"],
     ["run", "--recipe", "probe-arc", "--radii", "0.9,0.99"]),
    (["run", "--recipe", "probe-arc", "--radii", " 0.9 , 0.99 ,"],
     ["run", "--recipe", "probe-arc", "--radii", "0.9,0.99"]),
])
def test_comma_lists_skip_empty_items(tmp_path, capsys, gappy, plain):
    # --angles, --thetas and --radii share one list reader
    out = tmp_path / "out.json"
    results = []
    for argv in (gappy, plain):
        if argv[0] == "run":
            argv = [*argv, "--out", str(out)]
        code, obj = one_json_line(capsys, *argv)
        assert code == 0
        results.append((obj, out.read_bytes() if argv[0] == "run" else None))
    assert results[0] == results[1]


def test_tool_defaults_are_the_recipe_defaults():
    parser = build_parser()
    for argv, recipe, keys in (
        (["balance", "--angles", "sqrt2"], recipe_balance, ["eps"]),
        (["kneading"], recipe_kneading_entropy, ["map", "n", "tol"]),
        (["hecke"], recipe_hecke_unique, ["theta", "n", "z"]),
        (["hecke"], hecke_identity, ["gamma"]),
    ):
        args = vars(parser.parse_args(argv))
        defaults = recipe_defaults(recipe)
        assert {key: args[key] for key in keys} == {key: defaults[key] for key in keys}


def test_shifts_needs_mode(capsys):
    code, obj = run_cli(capsys, "shifts")
    assert code == 2


def test_hecke_tool_uses_gamma_without_the_identity_check(capsys):
    argv = ["hecke", "--theta", "golden", "--gamma", "0.3", "-n", "60"]
    code, plain = run_cli(capsys, *argv)
    assert code == 0
    code, checked = run_cli(capsys, *argv, "--check-identity")
    assert code == 0
    assert plain["value"] == checked["value"] == [-0.49135236562285434, 0.0]


def test_balance_tool(capsys):
    code, obj = run_cli(capsys, "balance", "--angles", "1/3")
    assert code == 0
    assert obj["defect"] == 0.0 and obj["status"] == "certified"


def test_dirichlet_tool(capsys):
    code, obj = run_cli(capsys, "dirichlet", "--thetas", "sqrt2,sqrt3", "-M", "100")
    assert code == 0
    assert 1 <= obj["N"] <= 100
    assert all(e <= obj["bound"] + 1e-12 for e in obj["errors"])


@pytest.mark.parametrize("spaced, plain", [
    (["dirichlet", "--thetas", "golden, sqrt2", "-M", "100"],
     ["dirichlet", "--thetas", "golden,sqrt2", "-M", "100"]),
    (["dirichlet", "--thetas", " 0.25 ,sqrt3 ", "-M", "100"],
     ["dirichlet", "--thetas", "0.25,sqrt3", "-M", "100"]),
    (["hecke", "--theta", " golden"], ["hecke", "--theta", "golden"]),
    (["hecke", "--theta", "sqrt3 ", "--check-identity"],
     ["hecke", "--theta", "sqrt3", "--check-identity"]),
])
def test_theta_text_is_stripped_as_angle_text_is(capsys, spaced, plain):
    # parse_theta strips its text, as parse_angle does for --angles
    code, obj = one_json_line(capsys, *spaced)
    assert code == 0 and obj["status"] == "ok"
    assert one_json_line(capsys, *plain) == (code, obj)


def test_hecke_tool_identity(capsys):
    code, obj = run_cli(
        capsys, "hecke", "--theta", "golden", "--check-identity", "-n", "120"
    )
    assert code == 0
    assert obj["status"] == "ok"
    assert obj["identity_residual"] < 1e-9


@pytest.mark.parametrize("offset, status", [(5e-11, "ok"), (5e-10, "mismatch")])
def test_hecke_identity_floor_is_the_recipes(tmp_path, monkeypatch, capsys, offset, status):
    # the tool and the hecke-unique recipe read one verdict, recipes.hecke_identity,
    # which accepts a residual up to the floor 1e-10
    def off(*args):
        return outer_sum(*args) + offset

    monkeypatch.setattr(recipes, "outer_sum", off)
    code, tool = run_cli(capsys, "hecke", "--check-identity")
    assert code == 0 and tool["identity_residual"] < 1e-9
    out = tmp_path / "unique.json"
    code, _ = run_cli(capsys, "run", "--recipe", "hecke-unique", "--k-max", "100",
                      "--out", str(out))
    assert code == 0
    artifact = json.loads(out.read_text())
    assert tool["status"] == artifact["status"] == status
    # the artifact's identity_bound is the tolerance the verdict compared against
    assert (artifact["identity_residual"] <= artifact["identity_bound"]) == (status == "ok")


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@settings(max_examples=60, deadline=None)
@given(st.floats(math.log(2.0), math.log(1e300)), st.floats(0.0, 2 * math.pi),
       st.booleans())
def test_hecke_identity_prints_strict_json_for_large_z(log_r, phase, real):
    # the direct sum runs in powers of 1/z: z**n for n < 0 used to be NaN once
    # |z|^|n| overflowed (z = 1e5 at the default depth 200)
    z = complex(math.exp(log_r)) if real else math.exp(log_r) * complex(
        math.cos(phase), math.sin(phase))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["hecke", f"-z={z!r}", "--check-identity"]) == 0
    obj = json.loads(buf.getvalue(), parse_constant=reject_constant)
    assert obj["status"] == "ok"


def test_hecke_unique_artifact_at_z_1e5_is_strict_json(tmp_path, capsys):
    out = tmp_path / "unique.json"
    code, _ = run_cli(capsys, "run", "--recipe", "hecke-unique", "--z", "1e5",
                      "--k-max", "100", "--out", str(out))
    assert code == 0
    obj = json.loads(out.read_text(), parse_constant=reject_constant)
    assert obj["status"] == "ok"


def test_hecke_tool_gamma_resonant_exits_3(capsys):
    # gamma = {5 theta}: gamma - 5 theta is an integer, and n = -5 enters the sum
    code, obj = run_cli(
        capsys, "hecke", "--theta", "golden", "--gamma", "0.09016994374947451",
        "--check-identity", "-n", "40",
    )
    assert code == 3
    assert obj["error"]["type"] == "ResonantGamma"


@pytest.mark.parametrize("gamma", ["1.0", "0.9098300562505255"])
def test_hecke_tool_gamma_resonant_only_off_the_sum_exits_0(capsys, gamma):
    # gamma + n theta is an integer only at n = 0 (gamma = 1) or n = +5
    # (gamma = {-5 theta}); the sum reads n <= -1, so the identity holds
    code, obj = run_cli(
        capsys, "hecke", "--theta", "golden", "--gamma", gamma,
        "--check-identity", "-n", "40",
    )
    assert code == 0
    assert obj["status"] == "ok"
    assert obj["identity_residual"] <= 2.0 * obj["bound"]


def test_kneading_tool_entropy(capsys):
    code, obj = run_cli(
        capsys, "kneading", "--map", "tent", "--entropy", "-n", "64", "--tol", "1e-7"
    )
    assert code == 0
    assert obj["status"] == "zero"
    assert abs(obj["value"] - 0.6931471805599453) < 2e-6


def test_kneading_tool_coefficients(capsys):
    code, obj = run_cli(capsys, "kneading", "--map", "quadratic:-1.401155189", "-n", "31")
    assert code == 0
    assert obj["value"][0] == 1 and set(obj["value"]) <= {-1, 1}


def test_thue_morse_tool(capsys):
    code, obj = run_cli(capsys, "thue-morse", "-n", "7")
    assert code == 0
    assert obj["value"] == [0, 1, 1, 0, 1, 0, 0, 1]
