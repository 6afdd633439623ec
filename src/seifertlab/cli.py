"""Command-line interface: single requests, sweeps, perturbation runs, batch files.

Every request, a CLI call or a batch line, goes through :func:`run_request`.
Exit codes: 0 on success, 1 when a cross-check fails (a perturb check only
under --assert; in a batch, also any error line), 2 on input-validation
failure or an --out or --csv path that cannot be written.  When stdout itself
cannot be written (a closed pipe, a full disk), the error object goes to
stderr as one line and the exit code is 2.

Each mode imports only its own side: ``brieskorn`` and ``seifert`` load the
exact stack (reports, seifert, moduli, exact, ...), ``verify`` only the
identity chain (singularity, seifert, orbifold; no reports, moduli, exact or
fractions), and ``perturb`` loads ``seifertlab.perturb`` and never the exact
stack.  Neither side needs anything beyond the standard library.

JSON goes out indented (``--json``) or one line per request (``batch``).
``json`` is imported where JSON is read or written, so a call that prints a
table never loads it.  It encodes every report but a fibration report's
components, which are written straight from their integer records, and the
rows of an indented sweep, which its encoder would write in pure Python:
one template per CP^e component or per row, spliced in at a placeholder
that must occur exactly once.  Compact sweep lines stay on its C encoder.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from collections import Counter

from .errors import ConsistencyError

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
    if "triples" in report:  # a sweep
        return _splice(report, "triples", _rows, indent=2)
    return _splice(report, "z_components", _components, indent=2)


def _dump_line(report: dict) -> str:
    # reports are trees built fresh per request, so no cycle check is needed
    return _splice(
        report, "z_components", lambda records: _components(records, _COMPACT),
        separators=(",", ":"), check_circular=False,
    )


# the components list at depth 1, indented: its head (the SU(2) piece), a
# CP^e record's start, one residue, the residue separator, the record's end,
# and the list's tail
_INDENTED = (
    '[\n    {\n      "kind": "su2"\n    }',
    ',\n    {\n      "ambient_dim_c": %d,\n      "e": %d,\n      "k": %d,\n'
    '      "kind": "cpe",\n      "l0_power": %d,\n      "morse_index": %d,\n'
    '      "vector": [\n',
    "        %d",
    ",\n",
    "\n      ]\n    }",
    "\n  ]",
)
# the same list on one line: no string in a component holds whitespace
_COMPACT = tuple("".join(part.split()) for part in _INDENTED)


def _components(records: list, template: tuple = _INDENTED) -> str:
    """The components list: the SU(2) piece, then one record template per CP^e
    record (see ``moduli._components``) with n residues."""
    head, start, residue, separator, end, tail = template
    n = len(records[0]) - 5 if records else 0
    record = start + separator.join([residue] * n) + end
    return "".join([head, *map(record.__mod__, records), tail])


# one sweep row, ``IdentityChainReport.as_dict``, indented at depth 2
_ROW = (
    '\n    {\n      "casson": %d,\n      "checks": {\n        "milnor_quarter": %s,\n'
    '        "pg_routes": %s,\n        "sigma_routes": %s\n      },\n'
    '      "euler_sl2c": %d,\n      "excess_euler": %d,\n      "milnor": %d,\n'
    '      "ok": %s,\n      "pg_divisors": %d,\n      "pg_pd": %d,\n'
    '      "sigma_durfee": %d,\n      "sigma_lattice": %d,\n'
    '      "triple": [\n        %d,\n        %d,\n        %d\n      ]\n    }'
)
_JSON_BOOL = {True: "true", False: "false"}


def _rows(rows: list) -> str:
    """The indented rows list of a sweep at depth 1, each row from ``_ROW``."""
    if not rows:
        return "[]"
    texts = []
    for row in rows:
        checks = row["checks"]
        texts.append(
            _ROW
            % (
                row["casson"],
                _JSON_BOOL[checks["milnor_quarter"]],
                _JSON_BOOL[checks["pg_routes"]],
                _JSON_BOOL[checks["sigma_routes"]],
                row["euler_sl2c"],
                row["excess_euler"],
                row["milnor"],
                _JSON_BOOL[row["ok"]],
                row["pg_divisors"],
                row["pg_pd"],
                row["sigma_durfee"],
                row["sigma_lattice"],
                *row["triple"],
            )
        )
    return "[" + ",".join(texts) + "\n  ]"


def _splice(report: dict, key: str, write, **options) -> str:
    """json.dumps(report, sort_keys=True, **options), with ``report[key]``
    written by ``write`` where a placeholder for it lands, exactly once."""
    import json

    records = report.get(key)
    if records is None:
        return json.dumps(report, sort_keys=True, **options)
    slot = "\0" + key  # stands in for report[key]; json writes it as one token
    parts = json.dumps({**report, key: slot}, sort_keys=True, **options).split(json.dumps(slot))
    if len(parts) != 2:
        raise ConsistencyError(f"{key} placeholder found {len(parts) - 1} times, not once")
    return write(records).join(parts)


def _error(exc: Exception, where: str = "", kind: str = "validation") -> tuple[dict, int]:
    """The error object of a failed request and its exit code.

    A failed internal cross-check (ConsistencyError) is kind "consistency",
    exit 1; anything else exits 2 as ``kind``: "validation" for bad input, "io" for a failed write.
    """
    kind, code = ("consistency", 1) if isinstance(exc, ConsistencyError) else (kind, 2)
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
    import csv  # only perturb --csv writes CSV

    dims = max((len(f["point"]) for rep in reports for f in rep["found"]), default=0)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epsilon"] + [f"x{i}" for i in range(dims)] + ["value", "index"])
        for rep in reports:
            for f in rep["found"]:
                writer.writerow([rep["epsilon"]] + list(f["point"]) + [f["value"], f["index"]])


def _field(obj: dict, key: str):
    """obj[key]; a ValueError naming the field when it is absent."""
    try:
        return obj[key]
    except KeyError:
        raise ValueError(f"missing field {key!r}") from None


def _typed(obj: dict, key: str, kind: type, required: bool = True):
    """obj[key] checked to be a kind (a bool is no int); None when optional and absent."""
    value = _field(obj, key) if required else obj.get(key)
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
    input, a missing field included, raises ValueError or TypeError; a
    failed internal cross-check raises ConsistencyError.
    """
    if not isinstance(req, dict):
        raise TypeError(f"request must be a JSON object, got {type(req).__name__}")
    mode = req.get("mode")
    su2_text = _typed(req, "su2_poly", str, required=False)  # typed in every mode
    su2 = None
    if su2_text is not None and mode != "perturb":  # the lab never reads it
        from .reports import parse_poly

        su2 = parse_poly(su2_text)
    casson = _typed(req, "casson", int, required=False)
    # each branch imports its own side: exact calls never load the perturb
    # lab, and perturb calls never load the exact stack
    if mode == "brieskorn":
        from .reports import brieskorn_report

        exponents = _ints(_field(req, "exponents"), "exponents")
        report = brieskorn_report(exponents, casson=casson, su2_poly=su2)
        return report, all(report["checks"].values())
    if mode == "seifert":
        from .reports import seifert_report
        from .seifert import SeifertData

        pairs = [_ints(f, "each fiber") for f in _typed(req, "fibers", list)]
        for pair in pairs:
            if len(pair) != 2:
                raise ValueError(f"each fiber must be a pair [alpha, gamma], got {pair!r}")
        fibers = tuple(map(tuple, pairs))
        S = SeifertData(_typed(req, "b", int), fibers)
        echo = {"mode": "seifert", "b": S.b, "fibers": [list(f) for f in fibers]}
        if casson is not None:
            echo["casson"] = casson
        report = seifert_report(S, echo, casson=casson, su2_poly=su2)
        return report, all(report["checks"].values())
    if mode == "verify":
        from .singularity import verify_sweep_report

        report = verify_sweep_report(_typed(req, "max", int))
        return report, report["all_ok"]
    if mode == "perturb":
        name = _typed(req, "scenario", str)
        eps = _typed(req, "eps", list)
        if not eps:
            raise ValueError("field 'eps' must be a non-empty list")
        eps = [_finite(e, "each entry of field 'eps'") for e in eps]
        for e in eps:
            if math.isinf(e * e):  # S_eps has an eps^2 term, which must stay a float
                raise ValueError(
                    f"each entry of field 'eps' must square to a finite float, got {e!r}"
                )
        # absent limits take run_localisation's defaults
        limits = {
            key: _finite(req[key], f"field {key!r}")
            for key in ("basin_radius", "c_bound")
            if key in req
        }
        for key, value in limits.items():
            if value <= 0:
                raise ValueError(f"field {key!r} must be positive, got {value!r}")
        from .perturb import run_localisation, scenario_by_name

        reports = run_localisation(scenario_by_name(name), eps, **limits)
        payload = {
            "input": {"mode": "perturb", "scenario": name, "eps": eps},
            "reports": [rep.as_dict() for rep in reports],
        }
        return payload, all(rep.ok for rep in reports)
    raise ValueError(f"unknown mode {mode!r}")


def _parse_line(line: str):
    import json

    try:
        return json.loads(line)
    except RecursionError:  # json's decoder recurses once per nesting level
        raise ValueError("JSON nesting too deep to parse") from None


def _run_batch(args) -> int:
    """Run a batch file, one JSON request a line; exit 1 if any line fails.

    Lines break at newlines only (read as universal newlines), since a JSON
    string may hold U+2028, U+2029 or U+0085 raw; a leading UTF-8 byte-order
    mark is dropped.  A line whose exact text comes again later runs once:
    its printed line and its ok flag are kept until its last occurrence, and
    the copies print the same bytes.  Error lines are not kept, because
    their message names their own line number.
    """
    try:
        with open(args.path, encoding="utf-8-sig") as fh:
            raw_lines = fh.read().split("\n")
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8
        error, code = _error(exc)
        _emit(_dump_line(error), args.out)
        return code
    left = Counter(raw_lines)  # occurrences of each text not yet reached
    kept: dict[str, tuple[str, bool]] = {}
    failed = False
    # each line is written as soon as it is done, so a later line never loses it
    with (
        open(args.out, "w", encoding="utf-8") if args.out else contextlib.nullcontext(sys.stdout)
    ) as sink:
        for i, line in enumerate(raw_lines, start=1):
            if not line.strip():
                continue
            left[line] -= 1
            if line in kept:
                text, ok = kept[line] if left[line] else kept.pop(line)
            else:
                try:
                    req = _parse_line(line)
                    report, ok = run_request(req)
                except (ValueError, KeyError, TypeError, ConsistencyError) as exc:
                    text, ok = _dump_line(_error(exc, f"line {i}: ")[0]), False
                else:
                    # perturb has no --assert here, so its checks never fail the run
                    ok = ok or req["mode"] == "perturb"
                    text = _dump_line(report)
                    if left[line]:
                        kept[line] = text, ok
            failed = failed or not ok
            print(text, file=sink)
    return 1 if failed else 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            code = _run_batch(args) if args.mode == "batch" else _run_single(args)
        except OSError as exc:  # --out, --csv or stdout cannot be written
            error, code = _error(exc, kind="io")
            print((_dump_line if args.mode == "batch" else _dump)(error))  # fails on stdout
        sys.stdout.flush()  # a buffered stdout fails here, not at interpreter exit
    except OSError as exc:  # stdout itself cannot be written
        # what is left in its buffer would fail again at the exit-time flush
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        error, code = _error(exc, kind="io")
        print(_dump_line(error), file=sys.stderr)
    return code


def _run_single(args) -> int:
    req = vars(args)
    try:
        if args.mode == "seifert":
            req["fibers"] = [list(_parse_fiber(f)) for f in args.fiber]
        elif args.mode == "perturb":
            try:
                # an empty --eps is the empty list, rejected as a batch line's "eps": [] is
                req["eps"] = [float(e) for e in args.eps.split(",")] if args.eps else []
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
        from .reports import report_table

        text = report_table(report)
    _emit(text, args.out)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
