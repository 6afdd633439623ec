"""Command-line surface: modes, formats, exit codes, batch ingestion."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

import seifertlab
from helpers import coprime_triples
from seifertlab.cli import main
from seifertlab.errors import ConsistencyError
from seifertlab.reports import parse_poly
from seifertlab.exact import LaurentPoly
from seifertlab.seifert import brieskorn_seifert_data
from seifertlab.singularity import _check_lattice_limit, verify_identity_chain


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_brieskorn_json_report(capsys):
    code, out = run(capsys, "brieskorn", "2", "3", "7", "--json")
    assert code == 0
    report = json.loads(out)
    inv = report["invariants"]
    assert inv["pg"] == 1
    assert inv["milnor"] == 12
    assert inv["signature"] == -8
    assert inv["casson"] == -1
    assert inv["euler_sl2c"] == 3
    assert report["polynomials"]["excess"] == "1"
    assert report["polynomials"]["sl2c_partial"] is True
    assert [z["kind"] for z in report["z_components"]] == ["su2", "cpe"]
    assert all(report["checks"].values())
    assert report["singularity"] == {
        "milnor": 12,
        "pg": 1,
        "signature": -8,
        "casson": -1,
        "euler_sl2c": 3,
        "checks": {"pg_routes": True, "sigma_routes": True, "milnor_quarter": True},
    }


def test_brieskorn_table_empty_excess(capsys):
    code, out = run(capsys, "brieskorn", "2", "3", "5")
    assert code == 0
    assert "excess poly      0" in out
    assert "euler_sl2c       2" in out


def test_brieskorn_rejects_non_coprime(capsys):
    code, out = run(capsys, "brieskorn", "2", "4", "6")
    assert code == 2
    assert "coprime" in json.loads(out)["error"]["message"]


def test_output_is_byte_identical_across_runs(capsys):
    _, first = run(capsys, "brieskorn", "3", "4", "5", "--json")
    _, second = run(capsys, "brieskorn", "3", "4", "5", "--json")
    assert first == second


def test_seifert_matches_brieskorn(capsys):
    _, brieskorn_out = run(capsys, "brieskorn", "2", "3", "7", "--json")
    _, seifert_out = run(
        capsys,
        "seifert", "--b", "-1",
        "--fiber", "2/1", "--fiber", "3/1", "--fiber", "7/1",
        "--json",
    )
    a, b = json.loads(brieskorn_out), json.loads(seifert_out)
    for key in ("invariants", "z_components", "polynomials", "seifert", "checks"):
        assert a[key] == b[key]


def test_seifert_rejects_non_homology_sphere(capsys):
    code, out = run(capsys, "seifert", "--b", "-1", "--fiber", "2/1", "--fiber", "4/1")
    assert code == 2
    assert "A*e(Y) = -2" in json.loads(out)["error"]["message"]


def test_seifert_four_fibers_without_casson(capsys):
    code, out = run(
        capsys,
        "seifert", "--b", "-2",
        "--fiber", "2/1", "--fiber", "3/2", "--fiber", "5/2", "--fiber", "7/3",
        "--json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["invariants"]["euler_sl2c"] is None
    assert report["invariants"]["milnor"] is None
    assert report["polynomials"]["sl2c_partial"] is True
    assert any("complete intersection" in n for n in report["invariants"]["notes"])


def test_casson_override_enables_euler(capsys):
    code, out = run(
        capsys,
        "seifert", "--b", "-2",
        "--fiber", "2/1", "--fiber", "3/2", "--fiber", "5/2", "--fiber", "7/3",
        "--casson", "-9", "--json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["invariants"]["euler_sl2c"] == 18 + 31  # -2*(-9) + pg


def test_su2_poly_assembles_sl2c(capsys):
    code, out = run(capsys, "brieskorn", "2", "3", "5", "--su2-poly", "2", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["polynomials"]["sl2c"] == "2"
    assert report["polynomials"]["sl2c_partial"] is False
    assert report["checks"]["su2_euler"] is True


def test_su2_poly_contradiction_fails(capsys):
    # lambda(Sigma(2,3,7)) = -1, so the SU(2) summand must have Euler characteristic 2
    code, out = run(capsys, "brieskorn", "2", "3", "7", "--su2-poly", "5", "--json")
    assert code == 1
    report = json.loads(out)
    assert report["checks"]["su2_euler"] is False
    assert report["polynomials"]["sl2c"] == "6"
    # no lambda known, nothing to hold the summand to
    code, out = run(
        capsys,
        "seifert", "--b", "-2",
        "--fiber", "2/1", "--fiber", "3/2", "--fiber", "5/2", "--fiber", "7/3",
        "--su2-poly", "5", "--json",
    )
    assert code == 0
    assert "su2_euler" not in json.loads(out)["checks"]


def test_lattice_limit_checked_before_moduli_work(capsys, monkeypatch):
    import seifertlab.moduli as moduli

    calls = []
    monkeypatch.setattr(moduli, "enumerate_e_vectors", lambda C: calls.append(C))
    S = brieskorn_seifert_data((97, 101, 103))
    fibers = [arg for a, g in S.fibers for arg in ("--fiber", f"{a}/{g}")]
    # the reversed orientation (b; gamma_i) -> (-b - 3; alpha_i - gamma_i) has the same alphas
    reversed_fibers = [arg for a, g in S.fibers for arg in ("--fiber", f"{a}/{a - g}")]
    six = brieskorn_seifert_data((3, 5, 7, 11, 13, 17))
    six_fibers = [arg for a, g in six.fibers for arg in ("--fiber", f"{a}/{g}")]
    for argv, name, size in (
        (["brieskorn", "103", "97", "101"], "p*q*r", 1009091),
        (["seifert", "--b", str(S.b), *fibers], "p*q*r", 1009091),
        (["seifert", "--b", str(-S.b - 3), *reversed_fibers, "--json"], "p*q*r", 1009091),
        # n >= 4: the vector count is below A*deg K < A*(n-2)
        (["brieskorn", "3", "5", "7", "11", "13", "17", "--json"], "A*(n-2)", 1021020),
        (["seifert", "--b", str(six.b), *six_fibers], "A*(n-2)", 1021020),
    ):
        code, out = run(capsys, *argv)
        assert code == 2
        message = json.loads(out)["error"]["message"]
        assert message == f"{name} = {size} exceeds the desk-scale limit 1000000"
    with pytest.raises(ValueError, match="exceeds the desk-scale limit"):
        verify_identity_chain(101, 97, 103)
    assert calls == []
    _check_lattice_limit(3, 5, 7, 11, 13, 16)  # A*(n-2) = 960960 still fits


def test_bad_fiber_syntax(capsys):
    code, out = run(capsys, "seifert", "--b", "-1", "--fiber", "2:1")
    assert code == 2


def test_verify_small_sweep(capsys):
    code, out = run(capsys, "verify", "--max", "7", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["all_ok"] is True
    triples = [tuple(row["triple"]) for row in report["triples"]]
    assert (2, 3, 5) in triples and (3, 4, 5) in triples and (4, 5, 7) in triples


def test_verify_empty_sweep_passes(capsys):
    code, out = run(capsys, "verify", "--max", "2", "--json")
    assert code == 0
    assert json.loads(out)["count"] == 0


def test_verify_rejects_large_sweep(capsys):
    code, _ = run(capsys, "verify", "--max", "40")
    assert code == 2


def test_perturb_circle(capsys):
    code, out = run(
        capsys, "perturb", "--scenario", "circle", "--eps", "0.1,0.01", "--json", "--assert"
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["reports"]) == 2
    for rep in payload["reports"]:
        assert rep["signed_count"] == 0
        assert rep["ok"] is True


def test_perturb_sphere_signed_count(capsys):
    code, out = run(capsys, "perturb", "--scenario", "sphere", "--eps", "0.05", "--json")
    assert code == 0
    rep = json.loads(out)["reports"][0]
    assert rep["signed_count"] == 2


def test_perturb_unknown_scenario(capsys):
    code, out = run(capsys, "perturb", "--scenario", "nosuch", "--eps", "0.1")
    assert code == 2
    message = json.loads(out)["error"]["message"]
    for name in ("circle", "linear", "sphere"):
        assert name in message


def test_perturb_csv_dump(capsys, tmp_path):
    csv_path = tmp_path / "rows.csv"
    code, _ = run(
        capsys, "perturb", "--scenario", "circle", "--eps", "0.1", "--csv", str(csv_path)
    )
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "epsilon,x0,x1,x2,value,index"
    assert len(lines) == 3  # header + two critical points


def test_batch_valid_lines(capsys, tmp_path):
    path = tmp_path / "requests.ndjson"
    path.write_text(
        '{"mode": "brieskorn", "exponents": [2, 3, 7]}\n'
        '{"mode": "seifert", "b": -1, "fibers": [[2, 1], [3, 1], [7, 1]]}\n'
        '{"mode": "verify", "max": 5}\n'
    )
    code, out = run(capsys, "batch", str(path))
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    first, second, third = (json.loads(line) for line in lines)
    assert first["invariants"] == second["invariants"]
    assert third["all_ok"] is True


def test_batch_malformed_line(capsys, tmp_path):
    path = tmp_path / "requests.ndjson"
    path.write_text(
        '{"mode": "brieskorn", "exponents": [2, 3, 7]}\n'
        "not json at all\n"
        '{"mode": "brieskorn", "exponents": [2, 3, 5]}\n'
    )
    code, out = run(capsys, "batch", str(path))
    assert code == 1
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert "error" in json.loads(lines[1])
    assert json.loads(lines[1])["error"]["message"].startswith("line 2")


def test_batch_empty_file(capsys, tmp_path):
    path = tmp_path / "empty.ndjson"
    path.write_text("")
    code, out = run(capsys, "batch", str(path))
    assert code == 0
    assert out == ""


def test_batch_unreadable_file(capsys, tmp_path):
    code, out = run(capsys, "batch", str(tmp_path / "missing.ndjson"))
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "validation"  # bad input, not a failed write


def test_out_flag_writes_file(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out = run(capsys, "brieskorn", "2", "3", "7", "--json", "--out", str(out_path))
    assert code == 0
    assert out == ""
    assert json.loads(out_path.read_text())["invariants"]["milnor"] == 12


@pytest.mark.parametrize(
    "argv",
    [
        ("brieskorn", "2", "3", "5", "--out", "{missing}"),
        ("brieskorn", "2", "4", "5", "--out", "{missing}"),  # the error object too
        ("perturb", "--scenario", "circle", "--eps", "0.1", "--csv", "{missing}"),
        ("batch", "{batch}", "--out", "{missing}"),
    ],
)
def test_unwritable_output_path_gives_error_object(capsys, tmp_path, argv):
    batch = tmp_path / "requests.ndjson"
    batch.write_text('{"mode": "brieskorn", "exponents": [2, 3, 7]}\n')
    missing = tmp_path / "missing" / "out"
    argv = [a.format(missing=missing, batch=batch) for a in argv]
    code, out = run(capsys, *argv)
    assert code == 2
    error = json.loads(out)["error"]
    assert error["kind"] == "io"
    assert str(missing) in error["message"]
    assert not missing.parent.exists()


def test_parse_poly_roundtrip():
    for text, expected in [
        ("2", LaurentPoly({0: 2})),
        ("1 + T^2", LaurentPoly({0: 1, 2: 1})),
        ("T^-2 + 1", LaurentPoly({-2: 1, 0: 1})),
        ("3*T^4", LaurentPoly({4: 3})),
        ("-T^2", LaurentPoly({2: -1})),
        ("T", LaurentPoly({1: 1})),
        ("0", LaurentPoly.zero()),
    ]:
        assert parse_poly(text) == expected
        assert parse_poly(str(expected)) == expected
    with pytest.raises(ValueError):
        parse_poly("T^^2")
    with pytest.raises(ValueError):
        parse_poly("")
    with pytest.raises(ValueError):
        parse_poly("2*")


def test_empty_su2_poly_is_rejected(capsys):
    for text in ("", " "):
        code, out = run(capsys, "brieskorn", "2", "3", "7", "--su2-poly", text, "--json")
        assert code == 2
        assert json.loads(out)["error"] == {
            "kind": "validation", "message": "empty polynomial text"
        }


def test_default_output_matches_recorded_bytes(capsys):
    # sha256 of the output before the moduli kernel kept its exponents in integers
    for argv, exit_code, digest in [
        (
            ("verify", "--max", "12", "--json"),
            0,
            "883526ce6db15bf9c71bca1c719d41aea5e52fccf947c720b6d793302c94111a",
        ),
        (
            ("brieskorn", "2", "3", "5", "7", "11", "--json"),
            0,
            "ef93ccb7da7b05ed666a5275d76f0b967fc632a98f18fe9110b6e978b0e1c0fb",
        ),
        # before the two p_g routes carried their per-l data from one l to the next
        (
            ("verify", "--max", "16", "--json"),
            0,
            "20fe69436a20e42f00d4732cd06bce6243cc719f3169bb48201318502c2d16ae",
        ),
        # before the report recognised a link from A*e(Y) < 0 and its three alphas:
        # Sigma(3,5,7) with its fibers shuffled, its reversal, four fibers with a
        # supplied Casson invariant, and an override its own chain contradicts
        (
            ("seifert", "--b", "-2", "--fiber", "7/6", "--fiber", "3/1", "--fiber", "5/4",
             "--json"),
            0,
            "eb2c83e7686057e3e9ab631bcac3f317124103e5d362b1e87bb5c4732d7bf051",
        ),
        (
            ("seifert", "--b", "-1", "--fiber", "7/1", "--fiber", "3/2", "--fiber", "5/1",
             "--json"),
            0,
            "bc997c99a3a8f725d87f76dc7e220fd74be58486c04b4c0fd1b09221f1b7cb10",
        ),
        (
            ("seifert", "--b", "-2", "--fiber", "2/1", "--fiber", "3/2", "--fiber", "5/2",
             "--fiber", "7/3", "--casson", "-9", "--json"),
            0,
            "739d0f62390f8dce0f439d39f1df77fe6c413cb31f562b787216725db48519bc",
        ),
        (
            ("brieskorn", "2", "3", "7", "--casson", "5", "--json"),
            1,
            "2ecd4022bbc58c16eb5649fec441c438b6a148c0c3cbaa0ff17b054581ff1b2b",
        ),
        # before the residue scan was shared by the vector and count paths:
        # one fiber (no fiber before the last), two fibers, and the default
        # tables of a report and of a sweep
        (
            ("seifert", "--b", "0", "--fiber", "2/1", "--json"),
            0,
            "994ea4377978508c05fa37c3cc8b7e584c22775e6255bf1d57136bc0506dca69",
        ),
        (
            ("seifert", "--b", "-1", "--fiber", "2/1", "--fiber", "3/1", "--json"),
            0,
            "2fd8a49e3ef2615c9262fada1876ab98f96ae06e93be8697b31fc4e7300c344e",
        ),
        (
            ("brieskorn", "2", "3", "7"),
            0,
            "f198f1d008ac268e0badb5702330165fcde7bb36820c6616f1d8c94ca86e248f",
        ),
        (
            ("verify", "--max", "9"),
            0,
            "1646999e8bf0d51e74a46c0cde5a9ce6144890932264d7810669c32b504d0fff",
        ),
        # before each CP^e component was written from one integer record:
        # Sigma(23,29,31) (2902 components, negative l0_power), the reversal
        # of Sigma(17,19,23) (968 components) indented, and the default
        # table of Sigma(3,5,7,11) (301 component rows)
        (
            ("brieskorn", "23", "29", "31", "--json"),
            0,
            "8eaeb95ad568ee4eec261c1dc4d4d0f787c32e6e5f574dcbcf2bc8de9a2bc998",
        ),
        (
            ("seifert", "--b", "-1", "--fiber", "17/10", "--fiber", "19/7", "--fiber", "23/1",
             "--json"),
            0,
            "641eeecb4965c17997dae4fb115718a0c4410aaba29d35e881bf73b2819cad9d",
        ),
        (
            ("brieskorn", "3", "5", "7", "11"),
            0,
            "1a838697a7d551c64592d8e0c53b136a73dadebf02abde782fa98625f356ae90",
        ),
        # before a sweep's rows were written from one template: no row, and
        # the largest sweep (1037 rows)
        (
            ("verify", "--max", "2", "--json"),
            0,
            "464799fb62d42364abb726fff580d3146545454d4c7d13c2b4333708beaba83e",
        ),
        (
            ("verify", "--max", "30", "--json"),
            0,
            "668c302350066aadd2df934c81cefe10853d412d0f7739e38c96a5fce0474d28",
        ),
    ]:
        code, out = run(capsys, *argv)
        assert code == exit_code
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_batch_output_matches_recorded_bytes(capsys, tmp_path):
    # sha256 of the output before the moduli walk stopped at A*deg K powers and
    # fed the divisor p_g: Sigma(17,19,23) (968 vectors) from its exponents and
    # as raw Seifert data, five and four fibers, the reversal of Sigma(17,19,23)
    # and a sweep
    path = tmp_path / "requests.ndjson"
    path.write_text(
        '{"mode": "brieskorn", "exponents": [19, 23, 17]}\n'
        '{"mode": "seifert", "b": -2, "fibers": [[23, 22], [17, 7], [19, 12]]}\n'
        '{"mode": "brieskorn", "exponents": [2, 3, 5, 7, 11]}\n'
        '{"mode": "seifert", "b": -2, "fibers": [[7, 3], [2, 1], [5, 2], [3, 2]],'
        ' "casson": -14, "su2_poly": "28"}\n'
        '{"mode": "seifert", "b": -1, "fibers": [[17, 10], [19, 7], [23, 1]]}\n'
        '{"mode": "verify", "max": 9}\n'
    )
    code, out = run(capsys, "batch", str(path))
    assert code == 0
    assert len(out.splitlines()) == 6
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "2645665d20f5c65b84fe2f875761abd641142e4a2a5a62070573bb5e87cae06e"
    )


def test_batch_of_sweeps_matches_recorded_bytes(capsys, tmp_path):
    # sha256 of the output before an indented sweep's rows were written from
    # one template; batch lines stay on json's compact encoder
    path = tmp_path / "sweeps.ndjson"
    path.write_text(
        "".join(f'{{"mode": "verify", "max": {m}}}\n' for m in (2, 16, 31, 30, 16))
    )
    code, out = run(capsys, "batch", str(path))
    assert code == 1  # --max 31 is an error line
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "32a61f6eb23bb719e268f45e6f60c0e6a3071d2ab9ccb53913badfb9d0f27ed6"
    )


def test_perturb_output_matches_recorded_bytes(capsys):
    # sha256 of the output before the lab's tolerances became module constants;
    # linear covers the skipped eps < 0 signed count, sphere at 1e-12 the
    # singular-Hessian note (its digest re-recorded when the note lost its gap)
    eps = "--eps=0.1,-0.1,0.01,-0.01,1e-3,-1e-3"
    for argv, digest in [
        (("circle", eps), "895be78aa4a5e4d5d985ec7e582ecbb705631c7e36473f64d0e686e7f03dc258"),
        (("circle", eps, "--json"),
         "e467d38033832f95a02a382140ea3f8f101715b9eb26bfcc00876c2dfbee918a"),
        (("sphere", eps), "894d9bf74a9cf70520e1b1420489da8b042aa1765b2a633e5fa46cba988ff3a3"),
        (("sphere", eps, "--json"),
         "1c02b8347417766c1dec3d818a58baae8df313177c451eb11ed53ad6997e69e6"),
        (("linear", eps), "ef488a275066f49ca1c3bdec7e7517490b7b03de50b0bf79cbedb1cd9b377a60"),
        (("linear", eps, "--json"),
         "c69b296927af483aad811a6d8f521e5501976dcc2ee3e60bb7701bb7caf0b21e"),
        (("sphere", "--eps", "1e-12"),
         "28defa2c1ffe3be1ccaee6e628e211a18fd765b44a7e4fcfc5949fdfea00e093"),
    ]:
        code, out = run(capsys, "perturb", "--scenario", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


# 30 eps per scenario, |eps| log-uniform in [1e-3, 0.2] with a random sign and
# three digits, as a benchmark batch file draws them (random.Random(97))
WORKLOAD_EPS = {
    "circle": [
        -0.0028, 0.129, 0.021, -0.00109, 0.00703, -0.0292, -0.0353, -0.00361, -0.00263,
        0.0171, 0.0967, 0.0203, 0.00141, 0.00178, -0.0176, 0.122, -0.0513, 0.0015, 0.00261,
        0.0147, 0.00688, 0.00106, 0.176, -0.0138, 0.00113, -0.019, 0.0492, 0.00127, 0.0848,
        0.0169,
    ],
    "sphere": [
        -0.0182, 0.00668, -0.0103, -0.0244, 0.0061, 0.183, -0.0809, 0.00478, 0.0212, 0.0599,
        -0.106, -0.00111, 0.0155, 0.0173, -0.00169, 0.00852, 0.00724, 0.0159, 0.00775, -0.099,
        -0.00295, 0.00102, -0.00275, 0.00255, -0.0837, 0.0549, 0.0027, 0.121, 0.105, 0.0444,
    ],
    "linear": [
        -0.0605, 0.00416, -0.00137, 0.02, 0.00187, -0.00998, 0.00194, 0.124, 0.0686, 0.00232,
        0.00224, -0.0126, -0.0195, -0.158, -0.0909, -0.121, -0.00936, 0.0168, -0.0708,
        0.00471, -0.182, -0.0139, 0.00234, -0.00301, 0.00332, 0.00322, -0.00674, 0.00212,
        0.0289, 0.1,
    ],
}


def test_perturb_batch_at_workload_scale_matches_recorded_bytes(capsys, tmp_path):
    # sha256 of the output before S_eps combined its parts inside `at()` and
    # the LU and Jacobi loops stopped rebuilding their slices and pairs
    path = tmp_path / "requests.ndjson"
    path.write_text("".join(
        json.dumps({"mode": "perturb", "scenario": name, "eps": eps}) + "\n"
        for name, eps in WORKLOAD_EPS.items()
    ))
    code, out = run(capsys, "batch", str(path))
    assert code == 0
    assert len(out.splitlines()) == 3
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "9a47f7a8a5efdae8226e0cb4a9b99b127b71ed9fabafc3dbd2645b5ff31f3b29"
    )


def test_exact_only_calls_do_not_load_numpy():
    src = os.path.dirname(os.path.dirname(seifertlab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    script = (
        "import sys\n"
        "from seifertlab.cli import main\n"
        "main(sys.argv[1:])\n"
        "sys.stderr.write('loaded: %s' % [m for m in ('numpy', 'dataclasses', 'csv')"
        " if m in sys.modules])\n"
    )
    for argv in (["brieskorn", "2", "3", "7", "--json"], ["verify", "--max", "5"]):
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.endswith("loaded: []"), proc.stderr


EXACT_SIDE = (
    "seifertlab.exact",
    "seifertlab.orbifold",
    "seifertlab.seifert",
    "seifertlab.moduli",
    "seifertlab.singularity",
    "seifertlab.reports",
    "fractions",
    "dataclasses",
    "numpy",
)


def test_perturb_calls_do_not_load_the_exact_side(tmp_path):
    src = os.path.dirname(os.path.dirname(seifertlab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    batch = tmp_path / "requests.ndjson"
    batch.write_text(
        '{"mode": "perturb", "scenario": "circle", "eps": [0.1]}\n'
        '{"mode": "perturb", "scenario": "linear", "eps": [0.05, -0.05]}\n'
        # the lab never reads su2_poly, so a perturb line only type-checks it
        '{"mode": "perturb", "scenario": "circle", "eps": [0.1], "su2_poly": "1"}\n'
    )
    report = f"sys.stderr.write('loaded: %s' % [m for m in {EXACT_SIDE!r} if m in sys.modules])\n"
    run_cli = "import sys\nfrom seifertlab.cli import main\nmain(sys.argv[1:])\n" + report
    for script, argv in (
        (run_cli, ["perturb", "--scenario", "circle", "--eps", "0.1,-0.02"]),
        (run_cli, ["batch", str(batch)]),
        ("import sys\nimport seifertlab.perturb\n" + report, []),
    ):
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.endswith("loaded: []"), proc.stderr


def test_verify_calls_load_only_the_identity_chain(tmp_path):
    src = os.path.dirname(os.path.dirname(seifertlab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    batch = tmp_path / "requests.ndjson"
    batch.write_text('{"mode": "verify", "max": 5}\n{"mode": "verify", "max": 7}\n')
    unused = (
        "seifertlab.reports",
        "seifertlab.moduli",
        "seifertlab.exact",
        "seifertlab.perturb",
        "fractions",
        "decimal",
        "numbers",
    )
    # a table call writes no JSON, so it does not load json either
    for argv, extra in (
        (["verify", "--max", "5"], ("json",)),
        (["verify", "--max", "5", "--json"], ()),
        (["batch", str(batch)], ()),
    ):
        script = (
            "import sys\nfrom seifertlab.cli import main\nmain(sys.argv[1:])\n"
            f"sys.stderr.write('loaded: %s' % [m for m in {unused + extra!r} if m in sys.modules])\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.endswith("loaded: []"), proc.stderr


def test_perturb_calls_load_only_the_standard_library_and_seifertlab(tmp_path):
    src = os.path.dirname(os.path.dirname(seifertlab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    batch = tmp_path / "requests.ndjson"
    batch.write_text(
        '{"mode": "perturb", "scenario": "sphere", "eps": [0.1, -0.02]}\n'
        '{"mode": "perturb", "scenario": "linear", "eps": [1e-5]}\n'
    )
    # modules the interpreter loaded before the package (site hooks) do not count
    report = (
        "new = set(sys.modules) - before\n"
        "foreign = sorted(m for m in new if m.split('.')[0] not in sys.stdlib_module_names"
        " and m.split('.')[0] != 'seifertlab')\n"
        "sys.stderr.write('foreign: %s' % foreign)\n"
    )
    run_cli = "import sys\nbefore = set(sys.modules)\nfrom seifertlab.cli import main\nmain(sys.argv[1:])\n"
    for script, argv in (
        (run_cli + report, ["perturb", "--scenario", "circle", "--eps", "0.1,-0.02", "--json"]),
        (run_cli + report, ["perturb", "--scenario", "linear", "--eps=1e-5", "--csv", str(tmp_path / "x.csv")]),
        (run_cli + report, ["batch", str(batch)]),
        ("import sys\nbefore = set(sys.modules)\nimport seifertlab.perturb\n" + report, []),
    ):
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.endswith("foreign: []"), proc.stderr


def test_overflowing_eps_keeps_its_messages_and_checks():
    # recorded with the numpy-backed lab: at these eps Newton fails with "no
    # progress", and it must fail the same way, with no warning on stderr
    # (an overflowing trial itself is covered in tests/test_perturb.py)
    src = os.path.dirname(os.path.dirname(seifertlab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    failed = {"bijection": False, "indices": True, "signed_count": False}
    for argv, expected in (
        (["circle", "--eps=3"], [(failed, ["newton failed from prediction 0: no progress"])]),
        (
            ["sphere", "--eps=5,-5"],
            [
                (failed, ["newton failed from prediction 0: no progress"]),
                (failed, ["newton failed from prediction 1: no progress"]),
            ],
        ),
    ):
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "seifertlab.cli", "perturb", "--scenario", *argv, "--json"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        reports = json.loads(proc.stdout)["reports"]
        assert [(rep["checks"], rep["messages"]) for rep in reports] == expected
        assert [len(rep["found"]) for rep in reports] == [1] * len(expected)


def _cli_env(unbuffered: bool) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(seifertlab.__file__)))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def _assert_stdout_failure(returncode: int, stderr: str, message: str) -> None:
    """Exit 2 and one "io" error object on stderr, no traceback."""
    assert returncode == 2, stderr
    assert "Traceback" not in stderr and "Exception ignored" not in stderr, stderr
    line, = stderr.splitlines()
    error = json.loads(line)["error"]
    assert error["kind"] == "io" and message in error["message"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("argv", [("brieskorn", "2", "3", "7"), ("batch", "{batch}")])
def test_full_stdout_gives_error_object_on_stderr(tmp_path, argv, unbuffered):
    batch = tmp_path / "requests.ndjson"
    batch.write_text('{"mode": "brieskorn", "exponents": [2, 3, 7]}\n')
    argv = [a.format(batch=batch) for a in argv]
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "seifertlab.cli", *argv],
            stdout=full, stderr=subprocess.PIPE, text=True,
            env=_cli_env(unbuffered), timeout=60,
        )
    _assert_stdout_failure(proc.returncode, proc.stderr, "No space left on device")


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_gives_error_object_on_stderr(tmp_path, unbuffered):
    # a pipe closed before the first write: a short report stays in the
    # buffer until the final flush unless stdout is unbuffered
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "seifertlab.cli", "brieskorn", "2", "3", "7"],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env=_cli_env(unbuffered), timeout=60,
        )
    finally:
        os.close(write_end)
    _assert_stdout_failure(proc.returncode, proc.stderr, "Broken pipe")
    # a pipe closed after 10 bytes of an output far larger than its capacity
    batch = tmp_path / "requests.ndjson"
    batch.write_text('{"mode": "brieskorn", "exponents": [2, 3, 7]}\n' * 1000)
    proc = subprocess.Popen(
        [sys.executable, "-m", "seifertlab.cli", "batch", str(batch)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=_cli_env(unbuffered),
    )
    try:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        stderr = proc.stderr.read()
        returncode = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.stderr.close()
    _assert_stdout_failure(returncode, stderr, "Broken pipe")


def test_perturb_calls_exit_0_without_loading_numpy(tmp_path):
    src = os.path.dirname(os.path.dirname(seifertlab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    path = tmp_path / "requests.ndjson"
    path.write_text('{"mode": "perturb", "scenario": "sphere", "eps": [0.05]}\n')
    script = (
        "import sys\n"
        "from seifertlab.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "sys.stderr.write('%d %s' % (code, 'numpy' in sys.modules))\n"
    )
    # --assert: the linear scenario's O(eps^2) eigenvalue must read as index 0
    perturb = ["perturb", "--scenario", "linear", "--eps=1e-5,-1e-5", "--assert"]
    for argv in (["batch", str(path)], perturb):
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.endswith("0 False"), proc.stderr


def test_perturb_rejects_non_finite_numbers(capsys):
    # and non-positive limits, which no point could meet
    for options, message in (
        (["--eps=nan"], "must be a finite number, got nan"),
        (["--eps=0.1", "--basin-radius=nan"], "must be a finite number, got nan"),
        (["--eps=0.1", "--basin-radius=-1"], "field 'basin_radius' must be positive, got -1.0"),
        (["--eps=0.1", "--c-bound=-1"], "field 'c_bound' must be positive, got -1.0"),
        (["--eps=0.1", "--basin-radius=0"], "field 'basin_radius' must be positive, got 0.0"),
        (["--eps=0.1,,0.2"], "bad --eps list"),
        (["--eps="], "field 'eps' must be a non-empty list"),
    ):
        code, out = run(capsys, "perturb", "--scenario", "circle", *options)
        assert code == 2
        error = json.loads(out)["error"]
        assert error["kind"] == "validation" and message in error["message"]


@pytest.mark.parametrize("eps", ["0.1,,0.2", ",0.1", "0.1,"])
def test_perturb_rejects_an_empty_eps_entry(capsys, eps):
    code, out = run(capsys, "perturb", "--scenario", "circle", f"--eps={eps}")
    assert code == 2
    error = json.loads(out)["error"]
    assert error["kind"] == "validation" and f"bad --eps list {eps!r}" in error["message"]


def test_eps_whose_square_overflows_is_a_validation_error(capsys, tmp_path):
    # S_eps carries eps^2: 1e200 is a finite float, its square is not
    message = "field 'eps' must square to a finite float, got 1e+200"
    code, out = run(capsys, "perturb", "--scenario", "circle", "--eps=1e200")
    assert code == 2
    error = json.loads(out)["error"]
    assert error["kind"] == "validation" and message in error["message"]
    code, outputs = _batch(
        capsys, tmp_path,
        '{"mode": "brieskorn", "exponents": [2, 3, 7]}',
        '{"mode": "perturb", "scenario": "circle", "eps": [0.1, 1e200]}',
        '{"mode": "verify", "max": 5}',
    )
    assert code == 1
    assert len(outputs) == 3
    assert outputs[0]["invariants"]["casson"] == -1
    assert outputs[1]["error"]["kind"] == "validation"
    assert outputs[1]["error"]["message"] == "line 2: each entry of " + message
    assert outputs[2]["all_ok"] is True


def test_large_eps_runs_quietly(capsys):
    # Newton overflows on the way to divergence; that is no progress, not a warning
    for scenario in ("circle", "sphere", "linear"):
        code, out = run(capsys, "perturb", "--scenario", scenario, "--eps=1e100,1e150", "--json")
        assert code == 0
        for rep in json.loads(out)["reports"]:
            for message in rep["messages"]:
                known = ("newton failed", "singular Hessian", "non-finite Hessian")
                assert message.startswith(known), message


def test_casson_override_contradiction_fails(capsys):
    code, out = run(capsys, "brieskorn", "2", "3", "7", "--casson", "5", "--json")
    assert code == 1
    report = json.loads(out)
    assert report["checks"]["casson_override"] is False
    assert report["singularity"]["casson"] == -1
    code, out = run(capsys, "brieskorn", "2", "3", "7", "--casson", "-1", "--json")
    assert code == 0
    assert json.loads(out)["checks"]["casson_override"] is True
    _, out = run(capsys, "brieskorn", "2", "3", "7", "--json")
    assert "casson_override" not in json.loads(out)["checks"]


def _batch(capsys, tmp_path, *lines):
    path = tmp_path / "requests.ndjson"
    path.write_text("".join(line + "\n" for line in lines))
    code, out = run(capsys, "batch", str(path))
    return code, [json.loads(line) for line in out.strip().splitlines()]


@pytest.mark.parametrize(
    "bad_line",
    [
        "[1,2]",
        '"brieskorn"',
        '{"mode": "brieskorn", "exponents": [2, 3, 7], "su2_poly": 5}',
        '{"mode": "brieskorn", "exponents": [2, 3, 7], "su2_poly": ""}',
        '{"mode": "brieskorn", "exponents": [2, 3, 7], "casson": "5"}',
        '{"mode": "brieskorn", "exponents": [2, 3.5, 7]}',
        '{"mode": "seifert", "b": "-1", "fibers": [[2, 1], [3, 1], [7, 1]]}',
        '{"mode": "seifert", "b": -1, "fibers": [[2.9, 1], [3, 1], [7, 1]]}',
        '{"mode": "seifert", "b": -1, "fibers": [[2, 1, 1], [3, 1], [7, 1]]}',
        '{"mode": "verify", "max": null}',
        '{"mode": "perturb", "scenario": "circle", "eps": []}',
        '{"mode": "perturb", "scenario": "circle", "eps": [true]}',
        '{"mode": "perturb", "scenario": "circle", "eps": ["0.1"]}',
        '{"mode": "perturb", "scenario": "circle", "eps": [NaN]}',
        '{"mode": "perturb", "scenario": "circle", "eps": [0.1, -Infinity]}',
        '{"mode": "perturb", "scenario": "circle", "eps": [0.1], "basin_radius": NaN}',
        '{"mode": "perturb", "scenario": "circle", "eps": [0.1], "c_bound": Infinity}',
        '{"mode": "perturb", "scenario": "circle", "eps": [0.1], "basin_radius": -1}',
        '{"mode": "perturb", "scenario": "circle", "eps": [0.1], "c_bound": -1}',
    ],
)
def test_batch_wrong_shape_gives_error_object(capsys, tmp_path, bad_line):
    code, outputs = _batch(
        capsys, tmp_path, '{"mode": "brieskorn", "exponents": [2, 3, 7]}', bad_line
    )
    assert code == 1
    assert len(outputs) == 2
    assert outputs[0]["invariants"]["casson"] == -1
    assert outputs[1]["error"]["kind"] == "validation"
    assert outputs[1]["error"]["message"].startswith("line 2")


def test_perturb_line_only_type_checks_su2_poly(capsys, tmp_path):
    # the lab never reads su2_poly: a perturb line does not parse it, but a
    # value that is no string is still bad input
    code, outputs = _batch(
        capsys,
        tmp_path,
        '{"mode": "perturb", "scenario": "circle", "eps": [0.1], "su2_poly": "T^^2"}',
        '{"mode": "perturb", "scenario": "circle", "eps": [0.1], "su2_poly": 5}',
    )
    assert code == 1
    assert outputs[0]["input"] == {"mode": "perturb", "scenario": "circle", "eps": [0.1]}
    assert outputs[1]["error"] == {
        "kind": "validation",
        "message": "line 2: field 'su2_poly' must be of type str, got 5",
    }


@pytest.mark.parametrize(
    "line, field",
    [
        ('{"mode": "brieskorn"}', "exponents"),
        ('{"mode": "seifert", "b": -1}', "fibers"),
        ('{"mode": "seifert", "fibers": [[2, 1], [3, 1], [7, 1]]}', "b"),
        ('{"mode": "verify"}', "max"),
        ('{"mode": "perturb", "eps": [0.1]}', "scenario"),
        ('{"mode": "perturb", "scenario": "circle"}', "eps"),
    ],
)
def test_batch_line_without_a_required_field_names_it(capsys, tmp_path, line, field):
    code, outputs = _batch(capsys, tmp_path, '{"mode": "verify", "max": 5}', line)
    assert code == 1
    assert outputs[0]["all_ok"] is True
    assert outputs[1] == {
        "error": {"kind": "validation", "message": f"line 2: missing field {field!r}"}
    }


@pytest.mark.parametrize("fiber", [[2, 1, 0], [2], []])
def test_batch_fiber_that_is_not_a_pair_names_the_field(capsys, tmp_path, fiber):
    line = json.dumps({"mode": "seifert", "b": -1, "fibers": [[3, 1], fiber]})
    code, outputs = _batch(capsys, tmp_path, line)
    assert code == 1
    assert outputs == [
        {
            "error": {
                "kind": "validation",
                "message": f"line 1: each fiber must be a pair [alpha, gamma], got {fiber}",
            }
        }
    ]


def test_batch_file_with_a_byte_order_mark_reads_as_without(capsys, tmp_path):
    lines = b'{"mode": "verify", "max": 3}\n{"mode": "brieskorn", "exponents": [2, 3, 7]}\n'
    outputs = []
    for name, data in (("plain.ndjson", lines), ("bom.ndjson", b"\xef\xbb\xbf" + lines)):
        (tmp_path / name).write_bytes(data)
        outputs.append(run(capsys, "batch", str(tmp_path / name)))
    assert outputs[0][0] == 0 and outputs[1] == outputs[0]


def test_batch_consistency_error_gives_error_object(capsys, tmp_path, monkeypatch):
    def failing(max_exponent):
        raise ConsistencyError("routes disagree")

    monkeypatch.setattr("seifertlab.singularity.verify_sweep_report", failing)
    code, outputs = _batch(
        capsys, tmp_path,
        '{"mode": "brieskorn", "exponents": [2, 3, 7]}',
        '{"mode": "verify", "max": 5}',
        '{"mode": "brieskorn", "exponents": [2, 3, 5]}',
    )
    assert code == 1
    assert len(outputs) == 3
    assert outputs[1]["error"] == {"kind": "consistency", "message": "line 2: routes disagree"}
    assert outputs[2]["invariants"]["pg"] == 0


def test_batch_deeply_nested_line_gives_error_object(tmp_path):
    path = tmp_path / "requests.ndjson"
    path.write_text(
        '{"mode": "brieskorn", "exponents": [2, 3, 7]}\n'
        + "[" * 100000 + "]" * 100000 + "\n"
        + '{"mode": "brieskorn", "exponents": [2, 3, 5]}\n'
    )
    proc = subprocess.run(
        [sys.executable, "-m", "seifertlab.cli", "batch", str(path)],
        capture_output=True, text=True, env=_cli_env(False), timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr == ""
    outputs = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(outputs) == 3
    assert outputs[0]["invariants"]["casson"] == -1
    assert outputs[1]["error"]["kind"] == "validation"
    assert outputs[1]["error"]["message"].startswith("line 2: ")
    assert outputs[2]["invariants"]["pg"] == 0


def test_batch_exit_status_follows_cli(capsys, tmp_path):
    code, outputs = _batch(
        capsys, tmp_path, '{"mode": "brieskorn", "exponents": [2, 3, 7], "casson": 5}'
    )
    assert code == 1
    assert outputs[0]["checks"]["casson_override"] is False
    # as on the CLI without --assert, a failing perturb check does not fail the run
    code, outputs = _batch(
        capsys,
        tmp_path,
        '{"mode": "perturb", "scenario": "circle", "eps": [0.1], "basin_radius": 1e-9}',
    )
    assert code == 0
    assert outputs[0]["reports"][0]["checks"]["bijection"] is False


def test_batch_runs_each_repeated_line_once(capsys, tmp_path, monkeypatch):
    from seifertlab import cli

    brieskorn = '{"mode": "brieskorn", "exponents": [2, 3, 7]}'
    perturb = '{"mode": "perturb", "scenario": "circle", "eps": [0.1, -0.05]}'
    error = '{"mode": "verify", "max": 31}'
    spaced = '{"mode": "brieskorn",  "exponents": [2, 3, 7]}'  # another text: runs again
    lines = [brieskorn, perturb, error, "", brieskorn, spaced, error, perturb, brieskorn]
    path = tmp_path / "requests.ndjson"
    path.write_text("".join(line + "\n" for line in lines))
    ran: list[str] = []
    run_request = cli.run_request

    def counting(req):
        result = run_request(req)
        ran.append(json.dumps(req))
        return result

    monkeypatch.setattr(cli, "run_request", counting)
    code, out = run(capsys, "batch", str(path))
    assert code == 1
    # sha256 of the output before repeated lines reused their first run's bytes
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "9435d775e3e3a3cd19e1aa2f5608f54729c766dbaf12008c236d4b08f39e18fb"
    )
    printed = out.splitlines()
    assert len(printed) == 8
    assert printed[0] == printed[3] == printed[4] == printed[7]
    assert printed[1] == printed[6]
    for i, number in ((2, 3), (5, 7)):
        assert json.loads(printed[i])["error"] == {
            "kind": "validation", "message": f"line {number}: sweep limit is 30 (desk scale)"
        }
    # one successful run per distinct text; an error line fails on its own each time
    distinct = (brieskorn, perturb, spaced)
    assert sorted(ran) == sorted(json.dumps(json.loads(line)) for line in distinct)


def test_batch_splits_lines_at_newlines_only(capsys, tmp_path):
    # a JSON string may hold U+2028, U+2029 and U+0085 raw; str.splitlines breaks
    # at each of them, which turned this file's line 3 into "line 6"
    path = tmp_path / "requests.ndjson"
    path.write_bytes(
        "\r\n".join([
            '{"mode": "perturb", "scenario": "circle\u2028\u2029\u0085", "eps": [0.1]}',
            '{"mode": "brieskorn", "exponents": [2, 3, 7]}',
            '{"mode": "verify", "max": 31}',
            "",
        ]).encode()
    )
    code, out = run(capsys, "batch", str(path))
    assert code == 1
    outputs = [json.loads(line) for line in out.splitlines()]
    assert len(outputs) == 3
    assert outputs[0]["error"]["message"].startswith(
        "line 1: unknown scenario 'circle\\u2028\\u2029\\x85'"
    )
    assert outputs[1]["invariants"]["casson"] == -1
    assert outputs[2]["error"]["message"] == "line 3: sweep limit is 30 (desk scale)"


def _call(*argv):
    """(exit code, stdout) of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


_TRIPLES = coprime_triples(13)


@st.composite
def _request(draw):
    """A batch request whose every field the CLI can express; its values may be bad."""
    mode = draw(st.sampled_from(["brieskorn", "seifert", "verify", "perturb"]))
    if mode == "verify":
        return {"mode": mode, "max": draw(st.integers(-1, 7))}
    if mode == "perturb":
        req = {
            "mode": mode,
            "scenario": draw(st.sampled_from(["circle", "sphere", "linear", "nosuch"])),
            "eps": draw(
                st.lists(st.sampled_from([0.1, -0.05, 1, 1e-5]), max_size=3)
                | st.lists(st.sampled_from([0.1, 0.0, math.nan]), min_size=1, max_size=2)
            ),
        }
        if draw(st.booleans()):
            req["basin_radius"] = draw(st.sampled_from([0.3, 1e-9, math.inf]))
        return req
    exponents = draw(
        st.sampled_from(_TRIPLES).flatmap(st.permutations)
        | st.lists(st.integers(0, 13), min_size=2, max_size=3)
    )
    if mode == "brieskorn":
        req = {"mode": mode, "exponents": exponents}
    else:
        try:
            S = brieskorn_seifert_data(exponents)
            b, fibers = S.b, [[a, g] for a, g in S.fibers]
            if draw(st.booleans()):  # the reversed orientation
                b, fibers = -b - len(fibers), [[a, a - g] for a, g in fibers]
        except ValueError:
            b, fibers = draw(st.integers(-3, 1)), [[a, 1] for a in exponents]
        req = {"mode": mode, "b": b, "fibers": fibers}
    if draw(st.booleans()):
        req["casson"] = draw(st.integers(-3, 3))
    if draw(st.booleans()):
        req["su2_poly"] = draw(st.sampled_from(["2", "1 + T^2", "T^^2"]))
    return req


def _cli_argv(req: dict) -> list[str]:
    """The CLI call, with --json, that stands for the batch request req."""
    mode = req["mode"]
    if mode == "brieskorn":
        argv = [mode] + [str(a) for a in req["exponents"]]
    elif mode == "seifert":
        argv = [mode, f"--b={req['b']}"] + [f"--fiber={a}/{g}" for a, g in req["fibers"]]
    elif mode == "verify":
        argv = [mode, f"--max={req['max']}"]
    else:
        argv = [mode, "--scenario", req["scenario"], "--eps=" + ",".join(map(repr, req["eps"]))]
        if "basin_radius" in req:
            argv.append(f"--basin-radius={req['basin_radius']!r}")
    for key in ("casson", "su2_poly"):
        if key in req:
            argv.append(f"--{key.replace('_', '-')}={req[key]}")
    return argv + ["--json"]


_JUNK_LINES = ["", "   ", "not json", "[1,2]", '"brieskorn"', "{}", '{"mode": "verify"}']


@settings(max_examples=50, deadline=None)
@given(st.lists(st.one_of(_request(), st.sampled_from(_JUNK_LINES)), min_size=1, max_size=4))
def test_batch_lines_match_cli_calls(items):
    lines = [json.dumps(x) if isinstance(x, dict) else x for x in items]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "requests.ndjson")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(line + "\n" for line in lines))
        code, out = _call("batch", path)
    numbered = [(i, x) for i, (x, line) in enumerate(zip(items, lines), 1) if line.strip()]
    outputs = out.splitlines()
    assert len(outputs) == len(numbered)
    failed = False
    for (i, x), text in zip(numbered, outputs):
        got = json.loads(text)
        if "error" in got:
            assert set(got["error"]) == {"kind", "message"}
            assert got["error"]["kind"] in ("validation", "consistency")
            assert got["error"]["message"].startswith(f"line {i}: ")
        else:
            assert "input" in got
        if isinstance(x, str):
            assert "error" in got
            failed = True
            continue
        cli_code, cli_out = _call(*_cli_argv(x))
        want = json.loads(cli_out)
        if "error" in want:
            want["error"]["message"] = f"line {i}: " + want["error"]["message"]
        assert text == json.dumps(want, sort_keys=True, separators=(",", ":"))
        failed = failed or cli_code != 0
    assert code == (1 if failed else 0)


@pytest.mark.parametrize("dump", ["_dump_line", "_dump"])
def test_dumping_a_report_allocates_a_few_times_its_text(dump):
    # Sigma(11,25,29) has 1024 CP^e components; each is written straight from its
    # record, so the dump holds about the text and its pieces, not a tree of
    # dicts or the encoder's chunks
    import tracemalloc

    from seifertlab import cli
    from seifertlab.reports import brieskorn_report

    report = brieskorn_report((11, 25, 29))
    tracemalloc.start()
    try:
        text = getattr(cli, dump)(report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(json.loads(text)["z_components"]) == 1 + 1024
    assert peak < 5 * len(text), (peak, len(text))


@pytest.mark.parametrize(
    "S",
    [
        brieskorn_seifert_data((2, 3, 5)),
        brieskorn_seifert_data((7, 2, 3)),
        brieskorn_seifert_data((3, 5, 7, 11)),
        brieskorn_seifert_data((2, 3, 5, 7, 11)),
        seifertlab.SeifertData(-1, ((2, 1), (5, 1), (13, 4))),  # Sigma(2,5,13) reversed
    ],
)
def test_components_are_written_as_json_writes_their_dicts(S):
    from seifertlab import cli
    from seifertlab.reports import seifert_report

    report = seifert_report(S, {"mode": "seifert"})
    keys = ("ambient_dim_c", "e", "k", "l0_power", "morse_index")
    tree = dict(
        report,
        z_components=[{"kind": "su2"}]
        + [dict(zip(keys, r), kind="cpe", vector=list(r[5:])) for r in report["z_components"]],
    )
    assert cli._dump(report) == json.dumps(tree, sort_keys=True, indent=2)
    assert cli._dump_line(report) == json.dumps(tree, sort_keys=True, separators=(",", ":"))


def test_component_placeholder_must_occur_once():
    from seifertlab import cli

    report = {"input": {"mode": "brieskorn"}, "z_components": [], "note": "\0z_components"}
    for dump in (cli._dump, cli._dump_line):
        with pytest.raises(ConsistencyError, match="placeholder found 2 times"):
            dump(report)


@pytest.mark.parametrize("max_exponent", [2, 5, 11])
def test_sweep_rows_are_written_as_json_writes_them(max_exponent):
    from seifertlab import cli
    from seifertlab.singularity import verify_sweep_report

    report = verify_sweep_report(max_exponent)
    assert cli._dump(report) == json.dumps(report, sort_keys=True, indent=2)
    if report["triples"]:  # a failed check is written false, a negative value signed
        row = report["triples"][-1]
        row["checks"]["sigma_routes"] = row["ok"] = report["all_ok"] = False
        row["pg_pd"] = -row["pg_pd"] - 1
        assert cli._dump(report) == json.dumps(report, sort_keys=True, indent=2)


def test_sweep_placeholder_must_occur_once():
    from seifertlab import cli

    report = {"input": {"mode": "verify"}, "triples": [], "note": "\0triples"}
    with pytest.raises(ConsistencyError, match="placeholder found 2 times"):
        cli._dump(report)
