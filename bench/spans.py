"""In-process tracer: spans and counts at every seifertlab layer boundary.

``Tracer.install`` wraps each public function of each seifertlab module in
every ``seifertlab.*`` namespace that binds it (``from .orbifold import
power`` makes ``moduli.power`` a second binding), plus the arithmetic methods
of ``LaurentPoly`` and the derivative methods of ``ScalarField``.  Each call
becomes a span (name, start, end, parent, request id) kept in flat arrays and
written out by ``Tracer.dump``.  Self time is a span's duration minus the
time its child spans cover; calls are single-threaded, so children never
overlap and that cover is the sum of their durations.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array

MODULES = (
    "cli",
    "reports",
    "moduli",
    "singularity",
    "orbifold",
    "seifert",
    "exact",
    "perturb.lab",
    "perturb.linalg",
    "perturb.scenarios",
)
LAURENT_METHODS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
    "__mul__", "__rmul__", "__pow__", "shift", "__str__",
)
FIELD_METHODS = ("gradient", "hessian")

# Spans whose time and calls are reported as one group; the time of a group
# counts only its outermost spans, so nested members are not counted twice.
GROUPS = {
    "orbifold": "orbifold.bundle_ops",
    "exact.LaurentPoly": "exact.laurent_ops",
    "exact.cp_poincare": "exact.laurent_ops",
    "exact.hat_normalize": "exact.laurent_ops",
    "exact.euler_eval": "exact.laurent_ops",
}


def _group(name: str) -> str:
    for prefix, group in GROUPS.items():
        if name == prefix or name.startswith(prefix + "."):
            return group
    return name


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.request_id = -1
        self._stack: list[list] = []  # [span index, seconds covered by children]
        self._depth: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.outer_calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.group_s: dict[str, float] = {}
        self.counters: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -------------------------------------------------------------- recording

    def _name(self, name: str) -> int:
        self.names.append(name)
        self.calls.setdefault(name, 0)
        self.outer_calls.setdefault(name, 0)
        self.self_s.setdefault(name, 0.0)
        self.group_s.setdefault(_group(name), 0.0)
        return len(self.names) - 1

    def wrap(self, name: str, fn, after=None):
        nid = self._name(name)
        group = _group(name)
        stack, depth = self._stack, self._depth
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.start)
            self.start.append(0.0)
            self.end.append(0.0)
            self.name_id.append(nid)
            self.parent.append(stack[-1][0] if stack else -1)
            self.request.append(self.request_id)
            outer = depth.get(group, 0) == 0
            depth[group] = depth.get(group, 0) + 1
            frame = [index, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                depth[group] -= 1
                duration = t1 - t0
                if stack:
                    stack[-1][1] += duration
                self.start[index] = t0
                self.end[index] = t1
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                if outer:
                    self.outer_calls[name] += 1
                    self.group_s[group] += duration
            if after is not None:
                after(self.counters, args, result)
            return result

        return traced

    # --------------------------------------------------------------- patching

    def install(self) -> None:
        pkg = "seifertlab"
        for short in MODULES:
            mod = importlib.import_module(f"{pkg}.{short}")
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapped = self.wrap(f"{short}.{attr}", fn, AFTER.get(f"{short}.{attr}"))
                for other_name, other in list(sys.modules.items()):
                    if other_name == pkg or other_name.startswith(pkg + "."):
                        for bound, value in list(vars(other).items()):
                            if value is fn:
                                self._patch(other, bound, wrapped)
        exact = importlib.import_module(f"{pkg}.exact")
        for meth in LAURENT_METHODS:
            fn = vars(exact.LaurentPoly)[meth]
            self._patch(exact.LaurentPoly, meth, self.wrap(f"exact.LaurentPoly.{meth}", fn))
        fields = importlib.import_module(f"{pkg}.perturb.fields")
        for meth in FIELD_METHODS:
            fn = vars(fields.ScalarField)[meth]
            self._patch(fields.ScalarField, meth, self.wrap(f"perturb.fields.{meth}", fn))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ---------------------------------------------------------------- results

    def snapshot(self) -> dict:
        """Totals so far: calls, outermost calls, self and group seconds, counters."""
        return {
            "calls": dict(self.calls),
            "outer_calls": dict(self.outer_calls),
            "self_s": dict(self.self_s),
            "group_s": dict(self.group_s),
            "counters": dict(self.counters),
            "spans": len(self.start),
        }

    def dump(self, path: str) -> None:
        """Write every span: one JSON header line, then the five columns as raw arrays.

        ``load`` reads the file back.  Parent and request are span and request
        indices; -1 means none.
        """
        columns = [(c, getattr(self, c)) for c in COLUMNS]
        header = {
            "names": self.names,
            "spans": len(self.start),
            "columns": [[c, arr.typecode, arr.itemsize] for c, arr in columns],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _, arr in columns:
                arr.tofile(fh)


COLUMNS = ("name_id", "start", "end", "parent", "request")


def load(path: str) -> tuple[list[str], dict[str, array]]:
    """Read a file written by ``Tracer.dump``: (names, column arrays)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        columns = {}
        for name, typecode, _ in header["columns"]:
            arr = array(typecode)
            arr.fromfile(fh, header["spans"])
            columns[name] = arr
    return header["names"], columns


def _after_enumerate(counters, args, result):
    counters["moduli.vectors_enumerated"] = counters.get("moduli.vectors_enumerated", 0) + len(result)


def _after_lattice(counters, args, result):
    p, q, r = args[:3]
    counters["singularity.lattice_points"] = (
        counters.get("singularity.lattice_points", 0) + (p - 1) * (q - 1) * (r - 1)
    )


def _after_newton(counters, args, result):
    counters["perturb.lab.newton_iterations"] = (
        counters.get("perturb.lab.newton_iterations", 0) + result.iterations
    )


def _after_localisation(counters, args, result):
    counters["perturb.lab.eps_solved"] = counters.get("perturb.lab.eps_solved", 0) + len(result)


AFTER = {
    "moduli.enumerate_e_vectors": _after_enumerate,
    "singularity.signature_lattice_oracle": _after_lattice,
    "perturb.lab.newton_critical_point": _after_newton,
    "perturb.lab.run_localisation": _after_localisation,
}
