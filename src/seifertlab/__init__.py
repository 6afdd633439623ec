"""Invariants of Seifert-fibered homology 3-spheres, plus a numerical lab for
second-order perturbations of finite-dimensional Morse-Bott functions.

Exact side (no floating point): orbifold line-bundle arithmetic on
S^2(alpha_1..alpha_n), Seifert data and homology-sphere validation, the
lattice-vector decomposition of the critical locus of the SL(2,C)
Chern-Simons moduli problem, Poincare-polynomial assembly, and the
singularity invariants (Milnor number, geometric genus, signature, Casson
invariant) with their cross-check chain.

Numerical side: Newton continuation of perturbed critical points, Lagrange
multipliers and the localisation leading term, Morse indices from Hessian
inertia, and signed-count verification on built-in scenarios.

The names below load on first use: ``from seifertlab import power`` imports
``seifertlab.orbifold`` then, and importing the package alone imports none of
its submodules, so a numerical run never loads the exact side.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULE_NAMES = {
    "exact": ("LaurentPoly", "cp_poincare", "euler_eval", "hat_normalize"),
    "orbifold": (
        "LineBundleData",
        "Orbifold",
        "h0",
        "normalize",
        "orbifold_euler_char",
        "power",
        "tensor",
    ),
    "seifert": (
        "SeifertData",
        "brieskorn_seifert_data",
        "bundle_log",
        "n_bundle",
    ),
    "moduli": (
        "EVector",
        "enumerate_e_vectors",
        "excess_poincare",
        "exponent_closed_form",
        "moduli_report",
    ),
    "singularity": (
        "geometric_genus_divisors",
        "geometric_genus_pd",
        "signature_durfee",
        "signature_lattice_oracle",
        "verify_identity_chain",
    ),
    "errors": ("ConsistencyError",),
}
_SUBMODULE = {name: module for module, names in _SUBMODULE_NAMES.items() for name in names}

__all__ = list(_SUBMODULE)


def __getattr__(name: str):
    try:
        module = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value
