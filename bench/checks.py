"""Check one program call against the oracle and the program's promises.

A request is a plain dict (see ``workloads.py``).  ``check`` returns the
list of problems found in one call's exit code, stdout and stderr; an empty
list means the call is correct.  Table output is parsed back into values, so
both renderings are held to the same oracle.  Nothing here imports seifertlab.
"""

from __future__ import annotations

import json
import re

import oracle

POINT_TOL = 1e-6  # table points print 6 decimals; Newton stops at |grad| 1e-10
VALUE_TOL = 1e-9


def argv(req: dict, batch_path: str | None = None) -> list[str]:
    """The command line of one request, after ``python -m seifertlab.cli``."""
    kind = req["kind"]
    if kind == "brieskorn":
        out = ["brieskorn"] + [str(a) for a in req["alphas"]]
        if req.get("casson") is not None:
            out += ["--casson", str(req["casson"])]
    elif kind == "seifert":
        out = ["seifert", "--b", str(req["b"])]
        for a, g in req["fibers"]:
            out += ["--fiber", f"{a}/{g}"]
    elif kind == "verify":
        out = ["verify", "--max", str(req["max"])]
    elif kind == "perturb":
        # "=" keeps a leading minus sign from reading as an option
        out = ["perturb", "--scenario", req["scenario"], "--eps=" + ",".join(req["eps"])]
        if req.get("assert"):
            out.append("--assert")
    elif kind == "batch":
        out = ["batch", batch_path]
    else:
        raise ValueError(kind)
    if req.get("json"):
        out.append("--json")
    return out


def batch_request(line: str) -> dict | None:
    """The request a batch line stands for, or None for a line that is not one."""
    obj = json.loads(line)
    if not isinstance(obj, dict):
        return None
    mode = obj["mode"]
    if mode == "brieskorn":
        return {"kind": "brieskorn", "alphas": obj["exponents"], "casson": obj.get("casson")}
    if mode == "seifert":
        return {"kind": "seifert", "b": obj["b"], "fibers": obj["fibers"]}
    if mode == "verify":
        return {"kind": "verify", "max": obj["max"]}
    if mode == "perturb":
        return {"kind": "perturb", "scenario": obj["scenario"], "eps": [repr(float(e)) for e in obj["eps"]]}
    raise ValueError(mode)


def check(req: dict, code: int, stdout: str, stderr: str) -> list[str]:
    problems = []
    if code not in (0, 1, 2):
        problems.append(f"exit code {code} outside {{0,1,2}}")
    if "Traceback" in stderr:
        problems.append("traceback on stderr: " + stderr.strip().splitlines()[-1])
    try:
        problems += CHECKERS[req["kind"]](req, code, stdout)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        problems.append(f"unparsable output: {type(exc).__name__}: {exc}")
    return problems


# ------------------------------------------------------------------ fibrations


def _fibration_expect(req: dict) -> dict:
    if req["kind"] == "brieskorn":
        b, fibers = oracle.brieskorn_fibers(tuple(req["alphas"]))
    else:
        b, fibers = req["b"], req["fibers"]
    return oracle.fibration(b, fibers, req.get("casson"))


def _override_contradicts(req: dict, exp: dict) -> bool:
    sing = exp["singularity"]
    return req.get("casson") is not None and sing is not None and req["casson"] != sing["casson"]


def _compare(problems: list, label: str, got, want) -> None:
    if got != want:
        text = f"{label}: got {got!r}, want {want!r}"
        problems.append(text if len(text) < 300 else text[:300] + "...")


def _check_fibration(req: dict, code: int, stdout: str) -> list[str]:
    exp = _fibration_expect(req)
    problems: list[str] = []
    if not exp["chain_holds"]:
        problems.append("oracle: identity chain fails (oracle bug)")
    got = json.loads(stdout) if req.get("json") else _parse_fibration_table(stdout)
    if req.get("json"):
        want_input = (
            {"mode": "brieskorn", "exponents": list(req["alphas"])}
            if req["kind"] == "brieskorn"
            else {"mode": "seifert", "b": req["b"], "fibers": [list(f) for f in req["fibers"]]}
        )
        if req.get("casson") is not None:
            want_input["casson"] = req["casson"]
        _compare(problems, "input", got["input"], want_input)
        _compare(problems, "orbifold", got["orbifold"], exp["orbifold"])
        _compare(problems, "homology_sphere", got["homology_sphere"], exp["homology_sphere"])
        _compare(problems, "polynomials", got["polynomials"], exp["polynomials"])
        sing = got["singularity"]
        if exp["singularity"] is None:
            _compare(problems, "singularity", sing, None)
        else:
            for key, value in exp["singularity"].items():
                _compare(problems, f"singularity.{key}", sing[key], value)
            _require_ok(problems, "singularity.checks", sing["checks"])
    else:
        for key in ("alphas", "euler_char", "canonical_degree"):
            _compare(problems, f"orbifold.{key}", got["orbifold"][key], exp["orbifold"][key])
        _compare(problems, "a_times_e", got["a_times_e"], exp["homology_sphere"]["a_times_e"])
        for key in ("excess", "hp_excess"):
            _compare(problems, key, got["polynomials"][key], exp["polynomials"][key])
    _compare(problems, "seifert", got["seifert"], exp["seifert"])
    _compare(problems, "z_components", got["z_components"], exp["z_components"])
    for key, value in exp["invariants"].items():
        _compare(problems, f"invariants.{key}", got["invariants"].get(key), value)
    checks = got["checks"]
    if _override_contradicts(req, exp):
        # the report states a Casson value the singularity block contradicts;
        # a consistent report flags that in a failing check and exits 1
        if all(checks.values()):
            problems.append(
                f"casson override {req['casson']} contradicts lambda = "
                f"{exp['singularity']['casson']} while every check reads ok"
            )
        _compare(problems, "exit code", code, 1)
    else:
        _require_ok(problems, "checks", checks)
        if exp["link"]:
            _compare(problems, "pg_routes check", "pg_routes" in checks, True)
        if exp["triple"]:
            _compare(problems, "chain checks", {"sigma_routes", "milnor_quarter", "hp_euler"} <= set(checks), True)
        _compare(problems, "exit code", code, 0)
    return problems


def _require_ok(problems: list, label: str, checks: dict) -> None:
    failing = sorted(k for k, v in checks.items() if v is not True)
    if failing:
        problems.append(f"{label}: failing {failing}")


_Z_LINE = re.compile(
    r"CP\^(\d+) \[vector \((\d+);([\d,]+)\), index (\d+), ambient_dim_C (\d+), "
    r"L0 = N\^(-?\d+), k = (\d+)\]$"
)


def _parse_fibration_table(text: str) -> dict:
    fields: dict[str, list[str]] = {}
    for line in text.splitlines():
        key, value = line[:16].strip(), line[17:]
        fields.setdefault(key, []).append(value)
    seif = re.fullmatch(r"b = (-?\d+), fibers = (.*)", fields["seifert data"][0])
    fibers = [[int(a), int(g)] for a, g in re.findall(r"\((\d+),(\d+)\)", seif.group(2))]
    orb = re.fullmatch(r"S\^2\(([\d,]+)\), chi = (\S+), deg K = (\S+)", fields["orbifold"][0])
    components = []
    for value in fields["z component"]:
        if value == "SU(2) locus (index 0)":
            components.append({"kind": "su2"})
            continue
        m = _Z_LINE.match(value)
        e, e2, vec, idx, amb, l0, k = m.groups()
        if e != e2:
            raise ValueError(f"CP^{e} labels vector with e = {e2}")
        components.append(
            {
                "kind": "cpe",
                "e": int(e),
                "vector": [int(x) for x in vec.split(",")],
                "morse_index": int(idx),
                "ambient_dim_c": int(amb),
                "l0_power": int(l0),
                "k": int(k),
            }
        )
    invariants = {
        key: int(fields[key][0]) if key in fields else None
        for key in ("pg", "milnor", "signature", "b_plus", "casson", "euler_sl2c")
    }
    checks = {}
    if "checks" in fields:
        for item in fields["checks"][0].split(", "):
            name, state = item.split("=")
            checks[name] = state == "ok"
    return {
        "seifert": {"b": int(seif.group(1)), "fibers": fibers},
        "orbifold": {
            "alphas": [int(a) for a in orb.group(1).split(",")],
            "euler_char": orb.group(2),
            "canonical_degree": orb.group(3),
        },
        "a_times_e": int(fields["homology sphere"][0].split("=")[1]),
        "invariants": invariants,
        "z_components": components,
        "polynomials": {"excess": fields["excess poly"][0], "hp_excess": fields["hp excess"][0]},
        "checks": checks,
    }


# ---------------------------------------------------------------------- verify

_VERIFY_LINE = re.compile(
    r"\(\s*(\d+),\s*(\d+),\s*(\d+)\)  (pass|FAIL)  mu=\s*(-?\d+)  pg=\s*(-?\d+)  "
    r"sigma=\s*(-?\d+)  lambda=\s*(-?\d+)  chi\(M\*\)=\s*(-?\d+)$"
)


def _check_verify(req: dict, code: int, stdout: str) -> list[str]:
    problems: list[str] = []
    triples = oracle.coprime_triples(req["max"])
    if req.get("json"):
        got = json.loads(stdout)
        _compare(problems, "input", got["input"], {"mode": "verify", "max": req["max"]})
        _compare(problems, "count", got["count"], len(triples))
        _compare(problems, "all_ok", got["all_ok"], True)
        rows = got["triples"]
        _compare(problems, "triples", [tuple(r["triple"]) for r in rows], triples)
        for row, t in zip(rows, triples):
            c = oracle.chain(*t)
            want = {
                "milnor": c.milnor,
                "pg_pd": c.pg,
                "pg_divisors": c.pg,
                "excess_euler": c.pg,
                "sigma_durfee": c.signature,
                "sigma_lattice": c.signature,
                "casson": c.casson,
                "euler_sl2c": c.euler_sl2c,
                "ok": True,
            }
            _compare(problems, f"{t}", {k: row[k] for k in want}, want)
            _require_ok(problems, f"{t} checks", row["checks"])
            if not c.holds:
                problems.append(f"oracle: identity chain fails on {t} (oracle bug)")
    else:
        lines = stdout.splitlines()
        _compare(problems, "summary", lines[-1], f"{len(triples)} triples, all pass")
        got_rows = [_VERIFY_LINE.match(line).groups() for line in lines[:-1]]
        _compare(problems, "triples", [tuple(int(x) for x in g[:3]) for g in got_rows], triples)
        for g, t in zip(got_rows, triples):
            c = oracle.chain(*t)
            want = ("pass", c.milnor, c.pg, c.signature, c.casson, c.euler_sl2c)
            _compare(problems, f"{t}", (g[3],) + tuple(int(x) for x in g[4:]), want)
    _compare(problems, "exit code", code, 0)
    return problems


# --------------------------------------------------------------------- perturb

_SCEN_LINE = re.compile(r"scenario (\S+)  eps = (\S+)$")
_POINT_LINE = re.compile(
    r"  point \[(.*)\]  value\s+(\S+)  index (\S+) \(predicted (\S+)\)  \|grad\| (\S+)$"
)
_COUNT_LINE = re.compile(r"  signed count (-?\d+) \(expected (-?\d+)\)$")


def _parse_perturb_table(text: str) -> list[dict]:
    reports: list[dict] = []
    for line in text.splitlines():
        if m := _SCEN_LINE.match(line):
            reports.append({"scenario": m.group(1), "epsilon": float(m.group(2)), "found": []})
        elif m := _POINT_LINE.match(line):
            idx = None if m.group(3) == "None" else int(m.group(3))
            pred = None if m.group(4) == "None" else int(m.group(4))
            reports[-1]["found"].append(
                {
                    "point": [float(x) for x in m.group(1).split(",")],
                    "value": float(m.group(2)),
                    "index": idx,
                    "predicted_index": pred,
                    "outside_basin": False,
                }
            )
        elif m := _COUNT_LINE.match(line):
            reports[-1]["signed_count"] = int(m.group(1))
            reports[-1]["expected_signed_count"] = int(m.group(2))
        elif line.startswith("  checks: "):
            states = dict(item.split("=") for item in line[len("  checks: "):].split(", "))
            reports[-1]["checks"] = {
                k: None if v == "skipped" else v == "ok" for k, v in states.items()
            }
    return reports


def _check_perturb(req: dict, code: int, stdout: str) -> list[str]:
    problems: list[str] = []
    scenario = req["scenario"]
    if req.get("json"):
        got = json.loads(stdout)
        _compare(problems, "input", got["input"], {"mode": "perturb", "scenario": scenario, "eps": [float(e) for e in req["eps"]]})
        reports = got["reports"]
        point_tol, value_tol = 1e-7, VALUE_TOL
    else:
        reports = _parse_perturb_table(stdout)
        point_tol, value_tol = POINT_TOL, 1e-6
    problems += _check_perturb_reports(scenario, req["eps"], reports, point_tol, value_tol)
    if req.get("assert"):
        _compare(problems, "exit code", code, 0)
    return problems


def _check_perturb_reports(scenario, eps_list, reports, point_tol, value_tol) -> list[str]:
    problems: list[str] = []
    _compare(problems, "report count", len(reports), len(eps_list))
    chi, chi_c = oracle.Z0_CHI[scenario]
    for eps_text, rep in zip(eps_list, reports):
        eps = float(eps_text)
        label = f"{scenario} eps={eps_text}"
        _compare(problems, f"{label} epsilon", rep["epsilon"], eps)
        want = oracle.critical_points(scenario, eps_text)
        found = [f for f in rep["found"] if not f["outside_basin"]]
        _compare(problems, f"{label} point count", len(found), len(want))
        for f, w in zip(found, want):
            dist = max(abs(a - b) for a, b in zip(f["point"], w.point))
            if dist > point_tol:
                problems.append(f"{label}: point {f['point']} is {dist:.2e} from {w.point}")
            if abs(f["value"] - w.value) > value_tol:
                problems.append(f"{label}: value {f['value']!r}, want {w.value!r}")
            _compare(problems, f"{label} index", f["index"], w.index)
            _compare(problems, f"{label} predicted index", f["predicted_index"], w.index)
        signed = sum((-1) ** w.index for w in want)
        _compare(problems, f"{label} signed count", rep["signed_count"], signed)
        # the count equals chi(Z0); for eps < 0 the compact-support chi is the
        # promised identity, which the w-axis does not satisfy (S1|Z0 is not proper)
        _compare(problems, f"{label} expected count", rep["expected_signed_count"], chi if eps > 0 else chi_c)
        if eps > 0 or scenario != "linear":
            _compare(problems, f"{label} chi(Z0)", signed, chi)
        want_checks = {
            "bijection": True,
            "indices": True,
            "signed_count": None if (eps < 0 and scenario == "linear") else True,
        }
        _compare(problems, f"{label} checks", rep["checks"], want_checks)
    return problems


# ----------------------------------------------------------------------- batch


def _check_batch(req: dict, code: int, stdout: str) -> list[str]:
    problems: list[str] = []
    lines = [line for line in req["lines"] if line.strip()]
    out = stdout.splitlines()
    _compare(problems, "output line count", len(out), len(lines))
    first_output: dict[str, str] = {}
    any_error = False
    for i, (line, text) in enumerate(zip(lines, out), start=1):
        if line in first_output and first_output[line] != text:
            problems.append(f"line {i}: repeated request gave different bytes")
        first_output.setdefault(line, text)
        sub = batch_request(line)
        if sub is None:
            any_error = True
            err = json.loads(text).get("error") if text.startswith("{") else None
            if not (isinstance(err, dict) and {"kind", "message"} <= set(err)):
                problems.append(f"line {i}: no structured error object for {line!r}")
            continue
        sub["json"] = True
        problems += [f"line {i}: {p}" for p in CHECKERS[sub["kind"]](sub, 0, text)]
    _compare(problems, "exit code", code, 1 if any_error else 0)
    return problems


CHECKERS = {
    "brieskorn": _check_fibration,
    "seifert": _check_fibration,
    "verify": _check_verify,
    "perturb": _check_perturb,
    "batch": _check_batch,
}
