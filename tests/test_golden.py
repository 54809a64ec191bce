"""Golden bytes: every recipe artifact and the direct tools' JSON lines.

The pins were taken before the recipes moved onto one output pipeline, so
they prove that no artifact byte moved.  They pin last bits of floats, so
they hold on the reference platform (CPython 3.11, numpy 2.x, x86-64 libm).
The two kneading-entropy pins were retaken when the zero search became
certified for the full series and the artifact gained the entropy interval,
and the hecke-unique JSON pin when its ``identity_bound`` became the
tolerance the identity verdict compares against.  The three Hecke pins off
z = 2 were taken before the continuation's direct sum and tail bound moved
into ``right_limits.outer_sum`` and ``outer_tail_bound``.
"""

import contextlib
import hashlib
import io

import pytest

from rrl_lab.cli import main

RECIPE_ARGS = {
    "psp-rrl": ["--shifts", "factorial:6", "--w", "16"],
    "hecke-unique": ["--theta", "golden", "--k-max", "3000", "--n", "60"],
    "hecke-two": ["--theta", "sqrt2", "--k-max", "20000"],
    "kneading-entropy": ["--map", "quadratic:-1.75", "--n", "200"],
    "thue-morse-product": ["--n", "255"],
    "balance": ["--angles", "1/3,sqrt2"],
    "probe-arc": ["--quadrature-n", "64"],
}

ARTIFACT_SHA256 = {
    ("psp-rrl", "json"): "cdd8148e9ced043ffe55b7950f23a4c840eebc58f5e47f4b5fa0a1ea4c8eefd3",
    ("psp-rrl", "csv"): "9bbd088f81a871fb239c8aca94f11d928611cd340f36651d06d3635c4a635b0a",
    ("hecke-unique", "json"): "f618e66f0a7c681a680d15fa3eff5839007cb5badd513fc2fdb5ed643c438f60",
    ("hecke-unique", "csv"): "9c0aded90a1cfe9d2d311d94827d98c28c4b7cb21836df9db513c518537aeb13",
    ("hecke-two", "json"): "21cd0aea06c2f4ebd89f7d4bc14c6ba1552fb75d8dfd457f0a473a68d43defc0",
    ("hecke-two", "csv"): "94e722e4fc1711268ab24b659e191735257991b5de37ac9371818935c8283759",
    ("kneading-entropy", "json"): "8ac546497799d7c66da1dd27746103923be5604fa3cff9c2981b798e20276f07",
    ("kneading-entropy", "csv"): "c4cf001238acb0b31eafcd6b66aba1dfefa8fa8090ac101a6e06562e535a65ef",
    ("thue-morse-product", "json"): "f01cdf48c6047c68decd7ffbd0c754002fc3f713c00d64abd95c16d6e1176ac3",
    ("thue-morse-product", "csv"): "b28dbb322ee6d1320cb7f10993cb3335efdf9b42655c14901c49e5986367c86d",
    ("balance", "json"): "9ccea13b47c59c4a7603447693e6d50c242a99794017a98a5cd37bc83a401c86",
    ("balance", "csv"): "339357fb11df60643346a159074f3caa47363e9bcfa4769fef3c0329dd99b486",
    ("probe-arc", "json"): "43d18217e8c506f42b6f2dd6d12681dc7f53d8b9002954f122bf0310c202b322",
    ("probe-arc", "csv"): "766b14ffaee372a984d768d94b5e42a263e8c5b712a4aa1714966b5b8ad7424e",
}

TOOL_LINES = [
    (["balance", "--angles", "1/3,sqrt2"],
     '{"defect": 0.18495787538702524, "epsilon": 0.5, "n_roots": 12, "set_size": 12, '
     '"status": "certified"}'),
    (["hecke", "--theta", "golden", "--check-identity", "-n", "60"],
     '{"bound": 8.673617379884035e-19, "identity_residual": 1.6653345369377348e-16, '
     '"status": "ok", "value": [-0.47373546536150135, 0.0]}'),
    (["hecke", "--theta", "golden", "--gamma", "0.3", "--check-identity", "-n", "60"],
     '{"bound": 8.673617379884035e-19, "identity_residual": 0.0, "status": "ok", '
     '"value": [-0.49135236562285434, 0.0]}'),
    # off z = 2, where powers of 1/z and the bound round; 40000 terms span
    # several blocks of the negative-side reader
    (["hecke", "--theta", "golden", "--gamma", "0.3", "--check-identity", "-n", "40000",
      "-z=1.5+0.5j"],
     '{"bound": 0.0, "identity_residual": 3.236828524569469e-16, "status": "ok", '
     '"value": [-0.46580509119600283, 0.460876073069207]}'),
    (["hecke", "-n", "80", "-z=-3+1j"],
     '{"bound": 4.624752955742621e-41, "status": "ok", '
     '"value": [0.05448185960052092, -0.00614516868929951]}'),
    (["hecke", "--check-identity", "-n", "80", "-z=-3+1j"],
     '{"bound": 4.624752955742621e-41, "identity_residual": 8.182674270850422e-18, '
     '"status": "ok", "value": [0.05448185960052092, -0.00614516868929951]}'),
    (["kneading", "--map", "quadratic:-1.75", "-n", "64"],
     '{"bound": 1.0, "status": "ok", "value": [1, -1, -1, 1, -1, -1, 1, -1, -1, 1, -1, -1, '
     '1, -1, -1, 1, -1, -1, 1, -1, -1, 1, -1, -1, 1, -1, -1, 1, -1, -1, 1, -1]}'),
    (["kneading", "--map", "tent", "--entropy", "-n", "64"],
     '{"bound": 1e-06, "r_max": 0.7814485071846189, "root": 0.5000000000000001, '
     '"status": "zero", "value": 0.6931471805599451}'),
]


def cli_stdout(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


@pytest.mark.parametrize("recipe,fmt", sorted(ARTIFACT_SHA256))
def test_recipe_artifact_bytes(tmp_path, recipe, fmt):
    out = tmp_path / f"{recipe}.{fmt}"
    code, _ = cli_stdout(["run", "--recipe", recipe, "--format", fmt, "--out", str(out),
                          *RECIPE_ARGS[recipe]])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == ARTIFACT_SHA256[recipe, fmt]


@pytest.mark.parametrize("argv,line", TOOL_LINES, ids=[" ".join(a) for a, _ in TOOL_LINES])
def test_tool_json_line(argv, line):
    assert cli_stdout(argv) == (0, line + "\n")
