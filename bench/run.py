#!/usr/bin/env python3
"""Benchmark of the seifertlab command line, run as a user runs it.

    python3 bench/run.py --workload interactive --seed 1 --seconds 30 --trace 0

Each timed call is ``python -m seifertlab.cli ...`` in a fresh interpreter
against ``src/`` of this checkout.  One client runs a closed loop: the next
call starts when the previous one has returned.  The workload's round of
requests (see workloads.py) repeats whole until ``--seconds`` have passed
(and, on ``interactive``, until 100 calls, so that p90 has ten calls beyond
it).  Times are scaled to a reference speed of the CPU (``Speed``), which on
a shared machine drifts by more than any bound worth setting.  Every output
is checked against the independent oracle (checks.py, oracle.py); the last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and the metrics.

``--trace 1`` replays the same requests in this process instead, untraced
and then traced, and reports the per-layer metrics (spans.py).  Without
``--workload`` every workload runs in turn, one JSON line each.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402

SETUPS = 9  # set-up repeats; setup_s is their median
REFERENCE_MS = 7.0  # nominal time of reference_loop() here; times are scaled to it
REFERENCE_REPEATS = 3  # reference loops after each call
TAIL_CALLS = 100  # p90 needs ten calls beyond it
PROBE_REPEATS = 7
CALL_TIMEOUT_S = 60

# Runs in a fresh interpreter; prints whether one request left numpy loaded.
NUMPY_PROBE = """\
import contextlib, io, sys
from seifertlab import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        cli.main(sys.argv[1:])
    except BaseException:
        pass
print("numpy" in sys.modules)
"""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Workload:
    """One workload's requests, written out under a private work directory."""

    def __init__(self, name: str, seed: int, work: str):
        self.name = name
        self.work = work
        self.requests = workloads.WORKLOADS[name](seed)
        self.argvs = [self._argv(i, req) for i, req in enumerate(self.requests)]
        self.warm_up = workloads.WARM_UP[name]
        self.warm_up_argv = self._argv("warm-up", self.warm_up)

    def _argv(self, tag, req: dict) -> list[str]:
        path = None
        if req["kind"] == "batch":
            path = os.path.join(self.work, f"batch-{tag}.ndjson")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(req["lines"]) + "\n")
        return checks.argv(req, path)


class Tally:
    """Attempted and failed operations, and problems outside the known faults."""

    def __init__(self, workload: str):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self._first: dict[object, tuple] = {}

    def record(self, key, req: dict, code: int, out: str, err: str) -> None:
        """Check one call; a repeat of the call under ``key`` is held to the bytes of its first run."""
        units = workloads.units(self.workload, req)
        self.attempted += units
        if key in self._first and self._first[key][0] == (code, out, err):
            problems = self._first[key][1]
        else:
            problems = checks.check(req, code, out, err)
            if key in self._first:
                problems = problems + ["output differs from the first run of this request"]
            self._first.setdefault(key, ((code, out, err), problems))
        if problems:
            self.failed += units
            if not req.get("fault"):
                self.unexpected.append(f"{checks.argv(req, 'FILE')}: {problems[:3]}")


def _call(argv: list[str], env: dict, work: str) -> tuple[float, int, str, str, int]:
    """One CLI call: (seconds, exit code, stdout, stderr, peak RSS in KiB).

    Output goes to files in ``work``; the process is reaped with ``os.wait4``,
    which gives the resource usage of that process alone.
    """
    with open(os.path.join(work, "stdout"), "w+") as out, open(os.path.join(work, "stderr"), "w+") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "seifertlab.cli", *argv], stdout=out, stderr=err, env=env, cwd=ROOT
        )
        pidfd = os.pidfd_open(proc.pid)
        try:
            exited = select.select([pidfd], [], [], CALL_TIMEOUT_S)[0]
            if not exited:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        dt = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    if not exited:
        return dt, -1, "", f"killed after {CALL_TIMEOUT_S} s", usage.ru_maxrss
    return dt, proc.returncode, stdout, stderr, usage.ru_maxrss


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python computation: Fraction sums and dict updates."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 1500):
        acc += Fraction(i % 7, i)
    counts: dict[int, int] = {}
    for i in range(20000):
        counts[i % 1000] = counts.get(i % 1000, 0) + i
    return time.perf_counter() - t0


class Speed:
    """Scales measured times to the reference speed of the CPU.

    The machine this benchmark was built on changes speed by up to half
    within minutes, and the program's calls slow down with it.  The
    reference loop, run on the same CPU just before and just after a
    measured interval, tracks that speed: the interval is scaled by
    REFERENCE_MS over the mean of the two loop times, giving the time it
    would take while the loop takes REFERENCE_MS.
    """

    def __init__(self):
        self.last = self._sample()
        self.samples = [self.last]

    @staticmethod
    def _sample() -> float:
        return statistics.median(reference_loop() for _ in range(REFERENCE_REPEATS))

    def scale(self, seconds: float) -> float:
        """``seconds`` measured since the previous sample, at the reference speed."""
        now = self._sample()
        self.samples.append(now)
        factor = REFERENCE_MS / 1000 / ((self.last + now) / 2)
        self.last = now
        return seconds * factor

    def summary(self) -> str:
        return f"reference loop median {statistics.median(self.samples) * 1000:.2f} ms"


def _pin_to_one_cpu() -> None:
    """Run this process and every call it makes on one CPU, so that the
    reference loop measures the CPU the calls ran on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _setup(name: str, seed: int, work: str, env: dict, speed: Speed) -> tuple[Workload, float]:
    """Generate the inputs and make one untimed warm-up call, SETUPS times.

    Returns the workload and the median set-up time at the reference speed.
    """
    times = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        wl = Workload(name, seed, work)
        _, code, out, err, _ = _call(wl.warm_up_argv, env, work)
        times.append(speed.scale(time.perf_counter() - t0))
        problems = checks.check(wl.warm_up, code, out, err)
        if problems:
            raise SystemExit(f"warm-up call failed: {problems[:3]}")
    return wl, statistics.median(times)


def timed_run(wl: Workload, seconds: float, env: dict, speed: Speed) -> tuple[Tally, dict]:
    """Repeat whole rounds until ``seconds`` have passed (and, on interactive,
    TAIL_CALLS calls).  Figures are medians of times at the reference speed."""
    tally = Tally(wl.name)
    durations, round_times, raw, rss_kb = [], [], [], []
    units = sum(workloads.units(wl.name, req) for req in wl.requests)
    min_calls = TAIL_CALLS if wl.name == "interactive" else 1
    t_start = time.perf_counter()
    while True:
        round_time = 0.0
        for i, (req, argv) in enumerate(zip(wl.requests, wl.argvs)):
            dt, code, out, err, rss = _call(argv, env, wl.work)
            rss_kb.append(rss)
            raw.append(dt)
            durations.append(speed.scale(dt))
            round_time += durations[-1]
            tally.record(i, req, code, out, err)
        round_times.append(round_time)
        if time.perf_counter() - t_start >= seconds and len(durations) >= min_calls:
            break
    ordered = sorted(durations)
    if len(ordered) >= TAIL_CALLS:
        tail, label = ordered[math.ceil(0.9 * len(ordered)) - 1], "p90"  # nearest rank
    else:
        tail, label = statistics.median(ordered), "median (under 40 calls, no tail)"
    metrics = {
        "cli_call_ms_p50": (statistics.median(durations) * 1000, "ms"),
        "cli_call_ms_tail": (tail * 1000, "ms"),
        "work_items_per_s": (units / statistics.median(round_times), "1/s"),
        "peak_rss_mb": (max(rss_kb) / 1024, "MB"),
    }
    print(
        f"{wl.name}: {len(durations)} calls in {len(round_times)} rounds, tail = {label}; "
        f"unscaled p50 {statistics.median(raw) * 1000:.1f} ms; {speed.summary()}",
        file=sys.stderr,
    )
    return tally, metrics


# ------------------------------------------------------------------ traced run


def replay(cli, argv: list[str]) -> tuple[int, str, str]:
    """Run one request through ``cli.main`` in this process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def _probe_ms(code: str, env: dict, speed: Speed) -> float:
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, env=env, cwd=ROOT, capture_output=True)
        times.append(speed.scale(time.perf_counter() - t0))
    return statistics.median(times) * 1000


def _exact_only(req: dict) -> bool:
    if req["kind"] == "batch":
        return not any('"perturb"' in line for line in req["lines"])
    return req["kind"] != "perturb"


def _cli_probes(wl: Workload, env: dict, speed: Speed) -> dict:
    start = _probe_ms("pass", env, speed)
    imported = _probe_ms("import seifertlab.cli", env, speed)
    numpy_loaded = 0
    for req, argv in zip(wl.requests, wl.argvs):
        if _exact_only(req):
            proc = subprocess.run(
                [sys.executable, "-c", NUMPY_PROBE, *argv],
                capture_output=True, text=True, env=env, cwd=ROOT, check=True,
            )
            numpy_loaded += proc.stdout.strip() == "True"
    return {
        "cli.python_start_ms": (start, "ms"),
        "cli.import_ms": (imported - start, "ms"),
        "cli.numpy_loaded_exact": (numpy_loaded, "count"),
    }


def _layer_metrics(snap: dict, json_bytes: int) -> dict:
    calls, outer, self_s = snap["calls"], snap["outer_calls"], snap["self_s"]
    group_s, counters = snap["group_s"], snap["counters"]

    def ms(name):
        return (group_s.get(name, 0.0) * 1000, "ms")

    def self_ms(name):
        return (self_s.get(name, 0.0) * 1000, "ms")

    def n(value):
        return (value, "count")

    laurent_calls = sum(v for k, v in calls.items() if k.startswith("exact.LaurentPoly.")) + sum(
        calls[f"exact.{f}"] for f in ("cp_poincare", "hat_normalize", "euler_eval")
    )
    return {
        "cli.main_ms": ms("cli.main"),
        "reports.seifert_report_self_ms": self_ms("reports.seifert_report"),
        "reports.verify_sweep_report_self_ms": self_ms("reports.verify_sweep_report"),
        "reports.json_bytes": (json_bytes, "bytes"),
        "moduli.enumerate_e_vectors_calls": n(calls["moduli.enumerate_e_vectors"]),
        "moduli.enumerate_e_vectors_ms": ms("moduli.enumerate_e_vectors"),
        "moduli.vectors_enumerated": n(counters.get("moduli.vectors_enumerated", 0)),
        "moduli.exponent_closed_form_calls": n(calls["moduli.exponent_closed_form"]),
        "moduli.exponent_closed_form_ms": ms("moduli.exponent_closed_form"),
        "moduli.exponent_via_bundles_ms": ms("moduli.exponent_via_bundles"),
        "moduli.excess_poincare_calls": n(calls["moduli.excess_poincare"]),
        "moduli.excess_poincare_ms": ms("moduli.excess_poincare"),
        "moduli.z_decomposition_self_ms": self_ms("moduli.z_decomposition"),
        "moduli.solve_L0_k_ms": ms("moduli.solve_L0_k"),
        "moduli.hp_poincare_ms": ms("moduli.hp_poincare"),
        "singularity.geometric_genus_pd_ms": ms("singularity.geometric_genus_pd"),
        "singularity.geometric_genus_divisors_ms": ms("singularity.geometric_genus_divisors"),
        "singularity.signature_lattice_oracle_ms": ms("singularity.signature_lattice_oracle"),
        "singularity.lattice_points": n(counters.get("singularity.lattice_points", 0)),
        "singularity.verify_identity_chain_calls": n(calls["singularity.verify_identity_chain"]),
        "singularity.verify_identity_chain_self_ms": self_ms("singularity.verify_identity_chain"),
        "orbifold.power_calls": n(calls["orbifold.power"]),
        "orbifold.tensor_calls": n(calls["orbifold.tensor"]),
        "orbifold.h0_calls": n(calls["orbifold.h0"]),
        "orbifold.orbifold_euler_char_calls": n(calls["orbifold.orbifold_euler_char"]),
        "orbifold.bundle_ops_ms": ms("orbifold.bundle_ops"),
        "seifert.bundle_log_calls": n(calls["seifert.bundle_log"]),
        "seifert.bundle_log_ms": ms("seifert.bundle_log"),
        "exact.laurent_ops_calls": n(laurent_calls),
        "exact.laurent_ops_ms": ms("exact.laurent_ops"),
        "perturb.lab.eps_solved": n(counters.get("perturb.lab.eps_solved", 0)),
        "perturb.lab.run_localisation_ms": ms("perturb.lab.run_localisation"),
        "perturb.lab.newton_calls": n(calls["perturb.lab.newton_critical_point"]),
        "perturb.lab.newton_iterations": n(counters.get("perturb.lab.newton_iterations", 0)),
        "perturb.lab.newton_ms": ms("perturb.lab.newton_critical_point"),
        "perturb.lab.morse_index_ms": ms("perturb.lab.morse_index"),
        "perturb.linalg.pinv_solve_calls": n(calls["perturb.linalg.pinv_solve"]),
        "perturb.fields.gradient_calls": n(outer["perturb.fields.gradient"]),
        "perturb.fields.hessian_calls": n(outer["perturb.fields.hessian"]),
        "trace.spans": n(snap["spans"]),
    }


def _replay_round(cli, wl: Workload, tally: Tally, label: str, tracer, speed: Speed):
    """One round through ``cli.main``.

    Returns the summed request seconds, the same at the reference speed, and
    the JSON bytes written.
    """
    raw = scaled = 0.0
    json_bytes = 0
    for i, (req, argv) in enumerate(zip(wl.requests, wl.argvs)):
        if tracer is not None:
            tracer.request_id = i
        t0 = time.perf_counter()
        code, out, err = replay(cli, argv)
        dt = time.perf_counter() - t0
        raw += dt
        scaled += speed.scale(dt)
        tally.record((label, i), req, code, out, err)
        if req.get("json") or req["kind"] == "batch":
            json_bytes += len(out.encode())
    return raw, scaled, json_bytes


def traced_run(wl: Workload, seconds: float, env: dict, speed: Speed) -> tuple[Tally, dict]:
    """Replay the round in this process: untraced, then traced, until time is up.

    Times are medians over the rounds at the reference speed (each traced
    round's layer times scaled by that round's factor); counts must repeat
    exactly from round to round.
    """
    probes = _cli_probes(wl, env, speed)
    sys.path.insert(0, SRC)
    from seifertlab import cli
    import spans

    tally = Tally(wl.name)
    untraced, traced, rounds = [], [], []
    t_start = time.perf_counter()
    while not rounds or time.perf_counter() - t_start < seconds:
        untraced.append(_replay_round(cli, wl, tally, "untraced", None, speed)[1])
        tracer = spans.Tracer()
        tracer.install()
        try:
            raw, scaled, json_bytes = _replay_round(cli, wl, tally, "traced", tracer, speed)
        finally:
            tracer.uninstall()
        traced.append(scaled)
        layers = _layer_metrics(tracer.snapshot(), json_bytes)
        rounds.append({k: (v * scaled / raw if u == "ms" else v, u) for k, (v, u) in layers.items()})

    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    tracer.dump(os.path.join(ROOT, ".bench_work", f"spans-{wl.name}.bin"))

    metrics = dict(probes)
    for key, (value, unit) in rounds[0].items():
        values = [r[key][0] for r in rounds]
        if unit == "ms":
            metrics[key] = (statistics.median(values), unit)
        else:
            if len(set(values)) != 1:
                tally.unexpected.append(f"count {key} differs between traced rounds: {values}")
            metrics[key] = (values[0], unit)
    metrics["trace.untraced_round_ms"] = (statistics.median(untraced) * 1000, "ms")
    metrics["trace.traced_round_ms"] = (statistics.median(traced) * 1000, "ms")
    metrics["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(untraced), "ratio")
    print(f"{wl.name}: {len(rounds)} traced rounds; {speed.summary()}", file=sys.stderr)
    return tally, metrics


# ------------------------------------------------------------------------ main


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    env = _env()
    work = os.path.join(ROOT, ".bench_work", f"run-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        speed = Speed()
        wl, setup_s = _setup(name, seed, work, env, speed)
        tally, metrics = (traced_run if trace else timed_run)(wl, seconds, env, speed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not trace:
        metrics["setup_s"] = (setup_s, "s")
    for problem in tally.unexpected:
        print(f"{name}: UNEXPECTED {problem}", file=sys.stderr)
    return {
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "seifertlab", "cli.py")):
        print(f"no seifertlab sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    _pin_to_one_cpu()
    if args.workload:
        print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace))))
        return 0
    for name in workloads.WORKLOADS:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps({"workload": name, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
