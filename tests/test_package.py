"""The package namespaces: their public names, the README library example, and
which functions under src/ a request runs."""

from __future__ import annotations

import ast
import contextlib
import copy
import importlib
import io
import json
import os
import pickle
import re
import subprocess
import sys

import pytest

import seifertlab

# the names `seifertlab` exports, by the submodule that defines them
EXPORTS = {
    "exact": ("LaurentPoly", "cp_poincare", "euler_eval", "hat_normalize"),
    "orbifold": (
        "LineBundleData", "Orbifold", "h0", "normalize", "orbifold_euler_char", "power",
        "tensor",
    ),
    "seifert": (
        "SeifertData", "brieskorn_seifert_data", "bundle_log", "n_bundle",
    ),
    "moduli": (
        "EVector", "enumerate_e_vectors", "excess_poincare", "exponent_closed_form",
        "moduli_report",
    ),
    "singularity": (
        "geometric_genus_divisors", "geometric_genus_pd", "signature_durfee",
        "signature_lattice_oracle", "verify_identity_chain",
    ),
    "errors": ("ConsistencyError",),
}
# the names `seifertlab.perturb` exports, by the submodule that defines them
PERTURB_EXPORTS = {
    "fields": ("ScalarField", "PerturbationFamily"),
    "scenarios": (
        "Scenario", "Z0Component", "Z1Site", "circle_scenario", "linear_scenario",
        "scenario_by_name", "scenario_names", "sphere_scenario",
    ),
    "lab": (
        "DegenerateCriticalPointError", "ExperimentReport", "FoundPoint", "MultiplierError",
        "NewtonResult", "PredictedPoint", "lagrange_multiplier", "leading_term",
        "newton_critical_point", "predicted_critical_points", "run_localisation",
    ),
}
SRC = os.path.dirname(os.path.dirname(seifertlab.__file__))
README = os.path.join(os.path.dirname(SRC), "README.md")


def test_public_names_are_the_exported_set():
    names = [name for names in EXPORTS.values() for name in names]
    assert len(names) == 26
    assert sorted(seifertlab.__all__) == sorted(names)


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_public_names_resolve_to_their_submodule_objects(module):
    defining = importlib.import_module(f"seifertlab.{module}")
    for name in EXPORTS[module]:
        assert getattr(seifertlab, name) is getattr(defining, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        seifertlab.no_such_name
    assert not hasattr(seifertlab, "no_such_name")


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from seifertlab import *", namespace)
    assert set(seifertlab.__all__) <= set(namespace)


def test_perturb_public_names_are_the_exported_set():
    import seifertlab.perturb as perturb

    names = [name for names in PERTURB_EXPORTS.values() for name in names]
    assert len(names) == 21
    assert sorted(perturb.__all__) == sorted(names)


@pytest.mark.parametrize("module", sorted(PERTURB_EXPORTS))
def test_perturb_public_names_resolve_to_their_submodule_objects(module):
    import seifertlab.perturb as perturb

    defining = importlib.import_module(f"seifertlab.perturb.{module}")
    for name in PERTURB_EXPORTS[module]:
        assert getattr(perturb, name) is getattr(defining, name)


def test_perturb_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from seifertlab.perturb import *", namespace)
    assert {name for names in PERTURB_EXPORTS.values() for name in names} <= set(namespace)


def test_readme_library_example_prints_its_documented_values():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    example = re.search(r"## Library example\s+```python\n(.*?)```", text, re.S).group(1)
    proc = subprocess.run(
        [sys.executable, "-c", example],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["2", "-2 6", "6", "0"]


def _private_definitions_and_references():
    """Module-level private functions and classes under src/seifertlab, and
    every name the package's code reads, each with the definition it sits in."""
    definitions, references = [], []
    package = os.path.join(SRC, "seifertlab")
    for folder, _, files in os.walk(package):
        for file in sorted(files):
            if not file.endswith(".py"):
                continue
            path = os.path.relpath(os.path.join(folder, file), package)
            with open(os.path.join(folder, file), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), path)
            for statement in tree.body:
                owner = None
                if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    owner = (path, statement.name)
                    if statement.name.startswith("_") and not statement.name.startswith("__"):
                        definitions.append(owner)
                for node in ast.walk(statement):
                    if isinstance(node, ast.Name):
                        references.append((node.id, owner))
                    elif isinstance(node, ast.Attribute):
                        references.append((node.attr, owner))
                    elif isinstance(node, ast.alias):
                        references.append((node.name, owner))
    return definitions, references


def test_every_private_definition_is_used_in_the_package():
    # a private helper that nothing else in src/ reads is dead code; a
    # reference from inside its own body (recursion) does not count
    definitions, references = _private_definitions_and_references()
    assert definitions
    unused = [
        f"{path}:{name}"
        for path, name in definitions
        if not any(ref == name and owner != (path, name) for ref, owner in references)
    ]
    assert unused == []


def test_no_module_imports_typing_named_tuple():
    # typing.NamedTuple compiles one ForwardRef per annotated field at import
    # time; the records are collections.namedtuple subclasses instead
    package = os.path.join(SRC, "seifertlab")
    found = []
    for folder, _, files in os.walk(package):
        for file in sorted(files):
            if not file.endswith(".py"):
                continue
            path = os.path.join(folder, file)
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), path)
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.module == "typing":
                    found += [
                        os.path.relpath(path, package)
                        for alias in node.names
                        if alias.name == "NamedTuple"
                    ]
                elif isinstance(node, ast.Attribute) and node.attr == "NamedTuple":
                    found.append(os.path.relpath(path, package))
    assert found == []


# each record: its module, its fields and its defaults by field
RECORDS = {
    ("seifertlab.singularity", "IdentityChainReport"): (
        (
            "p", "q", "r", "milnor", "pg_pd", "pg_divisors", "excess_euler", "sigma_durfee",
            "sigma_lattice", "casson", "euler_sl2c", "pg_routes_ok", "sigma_routes_ok",
            "milnor_quarter_ok",
        ),
        {},
    ),
    ("seifertlab.moduli", "EVector"): (("e", "betas", "exponent"), {"exponent": None}),
    ("seifertlab.moduli", "ModuliReport"): (
        ("z_components", "excess_poincare", "pg", "hp_excess", "pg_divisors"),
        {"pg_divisors": None},
    ),
    ("seifertlab.perturb.lab", "NewtonResult"): (
        ("point", "grad_norm", "value", "iterations", "converged", "message", "hessian"),
        {"message": "", "hessian": None},
    ),
    ("seifertlab.perturb.lab", "PredictedPoint"): (("point", "site", "indices"), {}),
    ("seifertlab.perturb.lab", "FoundPoint"): (
        (
            "point", "value", "grad_residual", "index", "predicted_index",
            "matched_prediction", "min_abs_hessian_eig", "outside_basin",
        ),
        {"outside_basin": False},
    ),
    ("seifertlab.perturb.scenarios", "Z0Component"): (
        ("name", "chi", "chi_c", "morse_bott_index"),
        {},
    ),
    ("seifertlab.orbifold", "Orbifold"): (("alphas", "scale", "cofactors", "scaled_deg_k"), {}),
    ("seifertlab.orbifold", "LineBundleData"): (("e", "betas", "orbifold"), {}),
    ("seifertlab.seifert", "SeifertData"): (("b", "fibers", "orbifold", "a_times_e"), {}),
    ("seifertlab.perturb.scenarios", "Z1Site"): (
        ("point", "component", "z0_chart", "z0_dim", "flat", "flat_seeds"),
        {"flat": False, "flat_seeds": ()},
    ),
    ("seifertlab.perturb.scenarios", "Scenario"): (
        ("name", "family", "components", "z1_sites", "chi_c_count_valid"),
        {"chi_c_count_valid": True},
    ),
    ("seifertlab.perturb.lab", "ExperimentReport"): (
        (
            "scenario", "epsilon", "degenerate_abstained", "found", "predicted_count",
            "bijection_ok", "indices_ok", "signed_count", "expected_signed_count",
            "signed_count_ok", "messages",
        ),
        {
            "found": (), "predicted_count": 0, "bijection_ok": None, "indices_ok": None,
            "signed_count": None, "expected_signed_count": None, "signed_count_ok": None,
            "messages": (),
        },
    ),
}
# the classes under src/ that carry behaviour and are no records
NOT_RECORDS = {
    ("exact.py", "LaurentPoly"),
    ("perturb/fields.py", "ScalarField"),
    ("perturb/fields.py", "PerturbationFamily"),
    ("errors.py", "ConsistencyError"),
    ("perturb/lab.py", "DegenerateCriticalPointError"),
    ("perturb/lab.py", "MultiplierError"),
    ("perturb/linalg.py", "LinAlgError"),
}


@pytest.mark.parametrize("module, name", sorted(RECORDS))
def test_records_keep_their_fields_and_defaults(module, name):
    cls = getattr(importlib.import_module(module), name)
    fields, defaults = RECORDS[module, name]
    assert cls._fields == fields
    assert cls._field_defaults == defaults
    assert cls.__slots__ == ()  # no per-instance dict
    required = [object()] * (len(fields) - len(defaults))
    # a record whose __new__ validates and derives fields is built unchecked
    record = cls._make(required) if "__new__" in vars(cls) else cls(*required)
    assert tuple(record) == (*required, *defaults.values())
    assert repr(record).startswith(f"{name}(")
    assert record._replace().__class__ is cls


def test_every_class_under_src_is_a_namedtuple_record():
    # a value class is a collections.namedtuple subclass with __slots__ = ();
    # only the classes that carry behaviour are written by hand
    package = os.path.join(SRC, "seifertlab")
    kept, hand_rolled = set(), []
    for folder, _, files in os.walk(package):
        for file in sorted(files):
            if not file.endswith(".py"):
                continue
            path = os.path.join(folder, file)
            rel = os.path.relpath(path, package).replace(os.sep, "/")
            parts = ["seifertlab", *rel.removesuffix(".py").split("/")]
            module = importlib.import_module(".".join(parts).removesuffix(".__init__"))
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), path)
            for node in ast.walk(tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                if (rel, node.name) in NOT_RECORDS:
                    kept.add((rel, node.name))
                    continue
                cls = getattr(module, node.name, None)  # None: a class nested in a body
                bases = getattr(cls, "__bases__", ())
                if not (
                    len(bases) == 1
                    and issubclass(bases[0], tuple)
                    and hasattr(bases[0], "_fields")
                    and vars(cls).get("__slots__") == ()
                ):
                    hand_rolled.append(f"{rel}:{node.name}")
    assert hand_rolled == []
    assert kept == NOT_RECORDS  # the allow-list names only classes that exist


@pytest.mark.parametrize(
    "route",
    [copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_records_and_polynomials_survive_copy_and_pickle(route):
    # a value whose constructor takes fewer arguments than it has fields is
    # rebuilt from those arguments, through the constructor's checks
    from seifertlab.moduli import moduli_report
    from seifertlab.seifert import brieskorn_seifert_data, n_bundle

    S = brieskorn_seifert_data((2, 3, 7))
    report = moduli_report(S)
    for value in (S.orbifold, S, n_bundle(S), report.hp_excess, report):
        twin = route(value)
        assert type(twin) is type(value) and twin == value


def test_record_defaults_read_as_before():
    from seifertlab.moduli import EVector
    from seifertlab.perturb.lab import FoundPoint, NewtonResult

    assert EVector(0, (1,)).exponent is None
    assert NewtonResult((0.0,), 0.0, 0.0, 0, True).message == ""
    assert FoundPoint((0.0,), 0.0, 0.0, 0, 0, 0, 1.0).outside_basin is False


def _function_definitions():
    """Every function and method under src/seifertlab, as (file, qualified name),
    keyed by (file, code-object name, first line) as a profiler sees it."""
    package = os.path.join(SRC, "seifertlab")
    found = {}
    for folder, _, files in os.walk(package):
        for file in sorted(files):
            if not file.endswith(".py"):
                continue
            path = os.path.join(folder, file)
            rel = os.path.relpath(path, package)
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), path)
            scopes = [("", tree.body)] + [
                (f"{s.name}.", s.body) for s in tree.body if isinstance(s, ast.ClassDef)
            ]
            for prefix, body in scopes:
                for s in body:
                    if isinstance(s, ast.FunctionDef):
                        first = min([s.lineno] + [d.lineno for d in s.decorator_list])
                        found[rel, s.name, first] = (rel, prefix + s.name)
    return found


# Functions under src/ that none of _AUDIT_CALLS runs, each with its reason.
# Every other function runs on some request: there is no library tier.
NEVER_RUN_ON_A_REQUEST = {
    # read by name by bench/run.py's layer metrics, through bench/spans.py
    ("moduli.py", "exponent_closed_form"),
    ("moduli.py", "_check_enumerated"),
    ("moduli.py", "excess_poincare"),
    ("orbifold.py", "tensor"),
    ("orbifold.py", "h0"),
    ("seifert.py", "bundle_log"),
    ("exact.py", "LaurentPoly.__sub__"),
    ("exact.py", "LaurentPoly.__rsub__"),
    ("exact.py", "LaurentPoly.__neg__"),
    ("exact.py", "LaurentPoly.__pow__"),
    ("exact.py", "LaurentPoly.one"),
    # value semantics: equality, hashing, repr, immutability, truth, copy and pickle
    ("exact.py", "LaurentPoly.__eq__"),
    ("exact.py", "LaurentPoly.__hash__"),
    ("exact.py", "LaurentPoly.__repr__"),
    ("exact.py", "LaurentPoly.__setattr__"),
    ("exact.py", "LaurentPoly.__bool__"),
    ("exact.py", "LaurentPoly.__reduce__"),
    ("orbifold.py", "Orbifold.__getnewargs__"),
    ("seifert.py", "SeifertData.__getnewargs__"),
    # the lazy name map of `from seifertlab import name`
    ("__init__.py", "__getattr__"),
    # runs only on a fault, to name the vector whose m is no non-negative integer
    ("orbifold.py", "_exponent"),
}

_AUDIT_BATCH = [
    {"mode": "brieskorn", "exponents": [2, 3, 7]},
    {"mode": "brieskorn", "exponents": [2, 3, 7]},  # a repeated line runs once
    {"mode": "seifert", "b": -1, "fibers": [[2, 1], [3, 1], [5, 1]], "su2_poly": "2"},
    {"mode": "verify", "max": 7},
    {"mode": "perturb", "scenario": "circle", "eps": [0.1]},
]
_AUDIT_CALLS = [
    *(
        argv + form
        for form in ([], ["--json"])
        for argv in (
            ["brieskorn", "2", "3", "13"],
            ["brieskorn", "3", "4", "5", "7"],
            ["seifert", "--b", "-2", "--fiber", "2/1", "--fiber", "3/2", "--fiber", "5/4"],
            ["seifert", "--b", "-1", "--fiber", "2/1", "--fiber", "3/1", "--fiber", "5/1"],
            ["verify", "--max", "7"],
            ["perturb", "--scenario", "circle", "--eps", "0.1,0.01"],
            ["perturb", "--scenario", "sphere", "--eps", "0.1"],
            ["perturb", "--scenario", "linear", "--eps", "0.1"],
        )
    ),
    ["batch", "{dir}/requests.jsonl"],
    ["perturb", "--scenario", "nope", "--eps", "0.1"],
    ["verify", "--max", "31"],
    ["brieskorn", "2", "4", "6"],
    ["brieskorn", "2", "3", "7", "--su2-poly", "2 + T^2"],
    ["brieskorn", "2", "3", "5", "7", "--casson", "-1"],
    ["perturb", "--scenario", "circle", "--eps", "0.1", "--csv", "{dir}/points.csv"],
    ["brieskorn", "2", "3", "7", "--out", "{dir}/report.txt"],
]


def test_every_function_under_src_runs_on_a_request_or_is_kept_by_name(tmp_path):
    from seifertlab import cli

    definitions = _function_definitions()
    package = os.path.join(SRC, "seifertlab")
    ran = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            rel = os.path.relpath(code.co_filename, package)
            ran.add((rel, code.co_name, code.co_firstlineno))

    (tmp_path / "requests.jsonl").write_text(
        "".join(json.dumps(line) + "\n" for line in _AUDIT_BATCH) + "not json\n"
    )
    codes = []
    for argv in _AUDIT_CALLS:
        argv = [arg.format(dir=tmp_path) for arg in argv]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            sys.setprofile(profile)
            try:
                codes.append(cli.main(argv))
            finally:
                sys.setprofile(None)
    # every exit code comes up: the error paths ran as well as the reports
    assert set(codes) == {0, 1, 2}
    never_run = {name for key, name in definitions.items() if key not in ran}
    assert never_run == NEVER_RUN_ON_A_REQUEST
