"""Command-line interface: single requests, sweeps, perturbation runs, batch files.

Every request, a CLI call or a batch line, goes through :func:`run_request`.
Exit codes: 0 on success, 1 when a cross-check fails (a perturb check only
under --assert; in a batch, also any error line), 2 on input-validation
failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys

from .errors import ConsistencyError
from .reports import (
    brieskorn_report,
    parse_poly,
    report_table,
    seifert_report,
    verify_sweep_report,
)
from .seifert import SeifertData

__all__ = ["main", "build_parser", "run_request"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seifertlab",
        description=(
            "Invariants of Seifert-fibered homology 3-spheres "
            "and localisation experiments for perturbed Morse-Bott functions."
        ),
    )
    sub = parser.add_subparsers(dest="mode", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    common.add_argument("--table", action="store_true", help="emit a table (default)")
    common.add_argument("--out", metavar="FILE", help="write output to FILE")

    p_b = sub.add_parser("brieskorn", parents=[common], help="invariants of Sigma(a1,...,an)")
    p_b.add_argument("exponents", type=int, nargs="+", metavar="A")
    p_b.add_argument("--casson", type=int, default=None, help="override the Casson invariant")
    p_b.add_argument("--su2-poly", default=None, metavar="POLY",
                     help="SU(2) Poincare polynomial, e.g. '2' or '1 + T^2'")

    p_s = sub.add_parser("seifert", parents=[common], help="invariants from raw Seifert data")
    p_s.add_argument("--b", type=int, required=True)
    p_s.add_argument("--fiber", action="append", required=True, metavar="A/G",
                     help="exceptional fiber alpha/gamma; repeatable")
    p_s.add_argument("--casson", type=int, default=None)
    p_s.add_argument("--su2-poly", default=None, metavar="POLY")

    p_v = sub.add_parser("verify", parents=[common], help="identity-chain sweep over triples")
    p_v.add_argument("--max", type=int, required=True, help="largest exponent (<= 30)")

    p_p = sub.add_parser("perturb", parents=[common], help="run a localisation scenario")
    p_p.add_argument("--scenario", required=True)
    p_p.add_argument("--eps", required=True, metavar="E1,E2,...",
                     help="comma-separated nonzero perturbation strengths")
    p_p.add_argument("--assert", dest="assert_checks", action="store_true",
                     help="exit 1 if any check fails")
    # unset, they are absent from the request and run_localisation's defaults apply
    p_p.add_argument("--basin-radius", type=float, default=argparse.SUPPRESS)
    p_p.add_argument("--c-bound", type=float, default=argparse.SUPPRESS)
    p_p.add_argument("--csv", metavar="FILE", help="dump (eps, point, value, index) rows")

    p_batch = sub.add_parser("batch", parents=[common], help="newline-delimited JSON requests")
    p_batch.add_argument("path", metavar="FILE")

    return parser


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _dump(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2)


def _dump_line(report: dict) -> str:
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


def _error(exc: Exception, where: str = "") -> tuple[dict, int]:
    """The error object of a failed request and its exit code.

    A failed internal cross-check (ConsistencyError) is kind "consistency",
    exit 1; anything else is bad input, kind "validation", exit 2.
    """
    kind, code = ("consistency", 1) if isinstance(exc, ConsistencyError) else ("validation", 2)
    return {"error": {"kind": kind, "message": f"{where}{exc}"}}, code


def _parse_fiber(text: str) -> tuple[int, int]:
    try:
        a, g = text.split("/")
        return int(a), int(g)
    except Exception:
        raise ValueError(f"fiber {text!r} is not of the form alpha/gamma") from None


def _verify_table(report: dict) -> str:
    lines = []
    for row in report["triples"]:
        p, q, r = row["triple"]
        status = "pass" if row["ok"] else "FAIL"
        lines.append(
            f"({p:>2},{q:>2},{r:>2})  {status}  mu={row['milnor']:>5}  "
            f"pg={row['pg_pd']:>3}  sigma={row['sigma_lattice']:>6}  "
            f"lambda={row['casson']:>4}  chi(M*)={row['euler_sl2c']:>5}"
        )
    lines.append(
        f"{report['count']} triples, "
        + ("all pass" if report["all_ok"] else "FAILURES above")
    )
    return "\n".join(lines)


def _perturb_table(reports: list[dict]) -> str:
    lines = []
    for rep in reports:
        lines.append(f"scenario {rep['scenario']}  eps = {rep['epsilon']:g}")
        if rep["degenerate_abstained"]:
            lines.append("  degenerate family (S1 = S2 = 0): abstained")
            continue
        for f in rep["found"]:
            pt = ", ".join(f"{v: .6f}" for v in f["point"])
            lines.append(
                f"  point [{pt}]  value {f['value']: .6e}  "
                f"index {f['index']} (predicted {f['predicted_index']})  "
                f"|grad| {f['grad_residual']:.2e}"
            )
        lines.append(
            f"  signed count {rep['signed_count']} "
            f"(expected {rep['expected_signed_count']})"
        )
        checks = rep["checks"]
        rendered = ", ".join(
            f"{name}={'skipped' if val is None else ('ok' if val else 'FAIL')}"
            for name, val in sorted(checks.items())
        )
        lines.append(f"  checks: {rendered}")
        for msg in rep["messages"]:
            lines.append(f"  note: {msg}")
    return "\n".join(lines)


def _write_csv(path: str, reports: list[dict]) -> None:
    dims = max((len(f["point"]) for rep in reports for f in rep["found"]), default=0)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epsilon"] + [f"x{i}" for i in range(dims)] + ["value", "index"])
        for rep in reports:
            for f in rep["found"]:
                writer.writerow([rep["epsilon"]] + list(f["point"]) + [f["value"], f["index"]])


def _typed(obj: dict, key: str, kind: type, required: bool = True):
    """obj[key] checked to be a kind (a bool is no int); None when optional and absent."""
    value = obj[key] if required else obj.get(key)
    if value is None and not required:
        return None
    if not isinstance(value, kind) or isinstance(value, bool):
        raise TypeError(f"field {key!r} must be of type {kind.__name__}, got {value!r}")
    return value


def _ints(values, what: str) -> list:
    if not isinstance(values, list) or any(
        not isinstance(v, int) or isinstance(v, bool) for v in values
    ):
        raise TypeError(f"{what} must be a list of integers, got {values!r}")
    return values


def _finite(value, what: str) -> float:
    """value as a float, checked to be a number (a bool is none) of finite float size."""
    if (
        not isinstance(value, (int, float))
        or isinstance(value, bool)
        or not abs(value) <= sys.float_info.max  # also false for nan
    ):
        raise ValueError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def run_request(req: dict) -> tuple[dict, bool]:
    """Run one request, a CLI call or a batch line: (report, every check passed).

    ``req`` holds the fields of a batch line, which are the CLI's options:
    ``mode``; ``exponents``, or ``b`` and ``fibers`` as [alpha, gamma] pairs,
    with optional ``casson`` and ``su2_poly``; ``max``; or ``scenario``,
    ``eps`` as a list and optional ``basin_radius`` and ``c_bound``.  Bad
    input raises ValueError, KeyError or TypeError; a failed internal
    cross-check raises ConsistencyError.
    """
    if not isinstance(req, dict):
        raise TypeError(f"request must be a JSON object, got {type(req).__name__}")
    mode = req.get("mode")
    su2_text = _typed(req, "su2_poly", str, required=False)
    su2 = parse_poly(su2_text) if su2_text else None
    casson = _typed(req, "casson", int, required=False)
    if mode == "brieskorn":
        report = brieskorn_report(_ints(req["exponents"], "exponents"), casson=casson, su2_poly=su2)
        return report, all(report["checks"].values())
    if mode == "seifert":
        pairs = [_ints(f, "each fiber") for f in _typed(req, "fibers", list)]
        fibers = tuple((a, g) for a, g in pairs)  # unpacking rejects a non-pair
        S = SeifertData(_typed(req, "b", int), fibers)
        echo = {"mode": "seifert", "b": S.b, "fibers": [list(f) for f in fibers]}
        if casson is not None:
            echo["casson"] = casson
        report = seifert_report(S, echo, casson=casson, su2_poly=su2)
        return report, all(report["checks"].values())
    if mode == "verify":
        report = verify_sweep_report(_typed(req, "max", int))
        return report, report["all_ok"]
    if mode == "perturb":
        name = _typed(req, "scenario", str)
        eps = _typed(req, "eps", list)
        if not eps:
            raise ValueError("field 'eps' must be a non-empty list")
        eps = [_finite(e, "each entry of field 'eps'") for e in eps]
        # absent limits take run_localisation's defaults
        limits = {
            key: _finite(req[key], f"field {key!r}")
            for key in ("basin_radius", "c_bound")
            if key in req
        }
        # imported here so that exact-only calls never load numpy
        from .perturb import run_localisation, scenario_by_name

        scenario = scenario_by_name(name)
        problems = scenario.validate()
        if problems:
            raise ConsistencyError("scenario failed validation: " + "; ".join(problems))
        reports = run_localisation(scenario, eps, **limits)
        payload = {
            "input": {"mode": "perturb", "scenario": name, "eps": eps},
            "reports": [rep.as_dict() for rep in reports],
        }
        return payload, all(rep.ok for rep in reports)
    raise ValueError(f"unknown mode {mode!r}")


def _run_batch(args) -> int:
    try:
        with open(args.path, encoding="utf-8") as fh:
            raw_lines = fh.read().splitlines()
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8
        error, code = _error(exc)
        _emit(_dump_line(error), args.out)
        return code
    failed = False
    # each line is written as soon as it is done, so a later line never loses it
    with (
        open(args.out, "w", encoding="utf-8") if args.out else contextlib.nullcontext(sys.stdout)
    ) as sink:
        for i, line in enumerate(raw_lines, start=1):
            if not line.strip():
                continue
            try:
                req = json.loads(line)
                report, ok = run_request(req)
            except (ValueError, KeyError, TypeError, ConsistencyError) as exc:
                report, ok = _error(exc, f"line {i}: ")[0], False
            else:
                # perturb has no --assert here, so its checks never fail the run
                ok = ok or req["mode"] == "perturb"
            failed = failed or not ok
            print(_dump_line(report), file=sink)
    return 1 if failed else 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.mode == "batch":
        return _run_batch(args)
    req = vars(args)
    try:
        if args.mode == "seifert":
            req["fibers"] = [list(_parse_fiber(f)) for f in args.fiber]
        elif args.mode == "perturb":
            try:
                req["eps"] = [float(e) for e in args.eps.split(",") if e != ""]
            except ValueError:
                raise ValueError(f"bad --eps list {args.eps!r}") from None
        report, ok = run_request(req)
    except (ValueError, KeyError, TypeError, ConsistencyError) as exc:
        error, code = _error(exc)
        _emit(_dump(error), args.out)
        return code
    if args.mode == "perturb":
        if args.csv:
            _write_csv(args.csv, report["reports"])
        ok = ok or not args.assert_checks
    if args.json:
        text = _dump(report)
    elif args.mode == "verify":
        text = _verify_table(report)
    elif args.mode == "perturb":
        text = _perturb_table(report["reports"])
    else:
        text = report_table(report)
    _emit(text, args.out)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
