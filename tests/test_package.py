"""The package namespaces: their public names and the README library example."""

from __future__ import annotations

import ast
import importlib
import os
import re
import subprocess
import sys

import pytest

import seifertlab

# the names `seifertlab` exports, by the submodule that defines them
EXPORTS = {
    "exact": ("LaurentPoly", "Rational", "cp_poincare", "euler_eval", "hat_normalize"),
    "orbifold": (
        "LineBundleData", "Orbifold", "canonical_bundle", "dual", "h0", "normalize",
        "orbifold_euler_char", "power", "tensor", "trivial_bundle",
    ),
    "seifert": (
        "SeifertData", "brieskorn_seifert_data", "bundle_log", "n_bundle",
    ),
    "moduli": (
        "EVector", "enumerate_e_vectors", "excess_poincare", "exponent_closed_form",
        "exponent_via_bundles", "hp_poincare", "moduli_report", "sl2c_euler", "sl2c_poincare",
        "solve_L0_k",
    ),
    "singularity": (
        "casson_invariant", "geometric_genus_divisors", "geometric_genus_pd",
        "milnor_number", "signature_durfee", "signature_lattice_oracle",
        "verify_identity_chain",
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
        "NewtonResult", "PredictedPoint", "lagrange_multiplier", "leading_term", "morse_index",
        "newton_critical_point", "predicted_critical_points", "run_localisation",
        "spectral_gap",
    ),
}
SRC = os.path.dirname(os.path.dirname(seifertlab.__file__))
README = os.path.join(os.path.dirname(SRC), "README.md")


def test_public_names_are_the_exported_set():
    names = [name for names in EXPORTS.values() for name in names]
    assert len(names) == 37
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
    assert len(names) == 23
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
    ("seifertlab.moduli", "AssembledPoly"): (("poly", "partial"), {}),
    ("seifertlab.moduli", "ModuliReport"): (
        ("z_components", "excess_poincare", "pg", "hp_excess", "pg_divisors"),
        {"pg_divisors": None},
    ),
    ("seifertlab.perturb.lab", "NewtonResult"): (
        ("point", "grad_norm", "value", "iterations", "converged", "message"),
        {"message": ""},
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
}


@pytest.mark.parametrize("module, name", sorted(RECORDS))
def test_records_keep_their_fields_and_defaults(module, name):
    cls = getattr(importlib.import_module(module), name)
    fields, defaults = RECORDS[module, name]
    assert cls._fields == fields
    assert cls._field_defaults == defaults
    assert cls.__slots__ == ()  # no per-instance dict
    required = [object()] * (len(fields) - len(defaults))
    record = cls(*required)
    assert tuple(record) == (*required, *defaults.values())
    assert repr(record).startswith(f"{name}(")
    assert record._replace().__class__ is cls


def test_record_defaults_read_as_before():
    from seifertlab.moduli import EVector
    from seifertlab.perturb.lab import FoundPoint, NewtonResult

    assert EVector(0, (1,)).exponent is None
    assert NewtonResult((0.0,), 0.0, 0.0, 0, True).message == ""
    assert FoundPoint((0.0,), 0.0, 0.0, 0, 0, 0, 1.0).outside_basin is False
