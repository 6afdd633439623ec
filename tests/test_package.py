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
