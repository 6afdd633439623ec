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
import seifertlab.cli as cli
from helpers import coprime_triples
from seifertlab.cli import main
from seifertlab.errors import ConsistencyError
from seifertlab.reports import parse_poly
from seifertlab.exact import LaurentPoly
from seifertlab.seifert import brieskorn_seifert_data
from seifertlab.singularity import verify_identity_chain


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
    for argv in (["brieskorn", "103", "97", "101"], ["seifert", "--b", str(S.b), *fibers]):
        code, out = run(capsys, *argv)
        assert code == 2
        message = json.loads(out)["error"]["message"]
        assert message == "p*q*r = 1009091 exceeds the desk-scale limit 1000000"
    with pytest.raises(ValueError, match="exceeds the desk-scale limit"):
        verify_identity_chain(101, 97, 103)
    assert calls == []


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
    code, _ = run(capsys, "batch", str(tmp_path / "missing.ndjson"))
    assert code == 2


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
    assert error["kind"] == "validation"
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


def test_default_output_matches_recorded_bytes(capsys):
    # sha256 of the output before the moduli kernel kept its exponents in integers
    for argv, digest in [
        (
            ("verify", "--max", "12", "--json"),
            "883526ce6db15bf9c71bca1c719d41aea5e52fccf947c720b6d793302c94111a",
        ),
        (
            ("brieskorn", "2", "3", "5", "7", "11", "--json"),
            "ef93ccb7da7b05ed666a5275d76f0b967fc632a98f18fe9110b6e978b0e1c0fb",
        ),
        # before the two p_g routes carried their per-l data from one l to the next
        (
            ("verify", "--max", "16", "--json"),
            "20fe69436a20e42f00d4732cd06bce6243cc719f3169bb48201318502c2d16ae",
        ),
    ]:
        _, out = run(capsys, *argv)
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_exact_only_calls_do_not_load_numpy():
    src = os.path.dirname(os.path.dirname(seifertlab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    script = (
        "import sys\n"
        "from seifertlab.cli import main\n"
        "main(sys.argv[1:])\n"
        "sys.stderr.write('numpy loaded: %s' % ('numpy' in sys.modules))\n"
    )
    for argv in (["brieskorn", "2", "3", "7", "--json"], ["verify", "--max", "5"]):
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.endswith("numpy loaded: False"), proc.stderr


def test_perturb_lines_validate_without_numpy_random(tmp_path):
    src = os.path.dirname(os.path.dirname(seifertlab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    path = tmp_path / "requests.ndjson"
    path.write_text('{"mode": "perturb", "scenario": "sphere", "eps": [0.05]}\n')
    script = (
        "import sys\n"
        "from seifertlab.cli import main\n"
        "import seifertlab.perturb.scenarios as scenarios\n"
        "calls = []\n"
        "validate = scenarios.Scenario.validate\n"
        "scenarios.Scenario.validate = lambda self: calls.append(self.name) or validate(self)\n"
        "code = main(sys.argv[1:])\n"
        "sys.stderr.write('%d %s %s' % (code, calls, 'numpy.random' in sys.modules))\n"
    )
    # --assert: the linear scenario's O(eps^2) eigenvalue must read as index 0
    perturb = ["perturb", "--scenario", "linear", "--eps=1e-5,-1e-5", "--assert"]
    for argv in (["batch", str(path)], perturb):
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        name = "sphere" if argv[0] == "batch" else "linear"
        assert proc.stderr.endswith(f"0 ['{name}'] False"), proc.stderr


def test_batch_perturb_reports_invalid_scenario(capsys, tmp_path, monkeypatch):
    from seifertlab.perturb import Scenario

    monkeypatch.setattr(Scenario, "validate", lambda self: ["declared Z1 point is not critical"])
    code, outputs = _batch(
        capsys, tmp_path, '{"mode": "perturb", "scenario": "circle", "eps": [0.1]}'
    )
    assert code == 1
    assert outputs[0]["error"]["kind"] == "consistency"
    assert "declared Z1 point is not critical" in outputs[0]["error"]["message"]


def test_perturb_rejects_non_finite_numbers(capsys):
    for options in (["--eps=nan"], ["--eps=0.1", "--basin-radius=nan"]):
        code, out = run(capsys, "perturb", "--scenario", "circle", *options)
        assert code == 2
        assert "must be a finite number, got nan" in json.loads(out)["error"]["message"]


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


def test_batch_consistency_error_gives_error_object(capsys, tmp_path, monkeypatch):
    def failing(max_exponent):
        raise ConsistencyError("routes disagree")

    monkeypatch.setattr(cli, "verify_sweep_report", failing)
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
