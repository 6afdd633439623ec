"""Acceptance gate: one test per criterion, each printing its pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion lines.
Every numerical tolerance and time budget is pinned here; the exact-arithmetic
criteria use integer equality only.
"""

from __future__ import annotations

import random
import time

from helpers import (
    coprime_triples,
    coprime_tuples,
    degree,
    dual,
    exponent_via_bundles,
    random_bundle,
    random_orbifold,
    random_poly,
    trivial_bundle,
)
from seifertlab.exact import LaurentPoly, euler_eval
from seifertlab.moduli import (
    enumerate_e_vectors,
    excess_poincare,
    exponent_closed_form,
    moduli_report,
)
from seifertlab.orbifold import normalize, orbifold_euler_char, power, tensor
from seifertlab.perturb import (
    circle_scenario,
    run_localisation,
    sphere_scenario,
)
from seifertlab.seifert import brieskorn_seifert_data, n_bundle
from seifertlab.singularity import (
    geometric_genus_divisors,
    geometric_genus_pd,
    signature_durfee,
    signature_lattice_oracle,
    verify_identity_chain,
)


def _report(number: int, description: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {number}: {status} - {description}")
    assert not failures, f"criterion {number}: " + "; ".join(failures)


def _sweep_data():
    for n, limit in ((3, 12), (4, 12), (5, 12)):
        for alphas in coprime_tuples(n, limit):
            yield brieskorn_seifert_data(alphas)


def test_criterion_1_sigma_2_3_5():
    failures = []
    start = time.monotonic()
    S = brieskorn_seifert_data((2, 3, 5))
    if geometric_genus_pd(S) != 0 or geometric_genus_divisors(S) != 0:
        failures.append("p_g != 0")
    if excess_poincare(S) != LaurentPoly.zero():
        failures.append("excess polynomial != 0")
    chain = verify_identity_chain(2, 3, 5)
    if chain.milnor != 8:
        failures.append("mu != 8")
    if signature_lattice_oracle(2, 3, 5) != -8:
        failures.append("lattice sigma != -8")
    lam = chain.casson
    if lam != -1:
        failures.append(f"casson = {lam} != -1")
    if chain.euler_sl2c != 2:
        failures.append("chi(M*) != 2")
    elapsed = time.monotonic() - start
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.3f}s >= 1s")
    _report(1, "Sigma(2,3,5): pg 0, excess 0, mu 8, sigma -8, lambda -1, chi 2", failures)


def test_criterion_2_sigma_2_3_7():
    failures = []
    start = time.monotonic()
    S = brieskorn_seifert_data((2, 3, 7))
    C = S.orbifold
    vectors = enumerate_e_vectors(C)
    if [(v.e, v.betas) for v in vectors] != [(0, (0, 0, 0))]:
        failures.append(f"enumeration {vectors}")
    else:
        v = vectors[0]
        if exponent_closed_form(C, v) != 0 or exponent_via_bundles(C, v) != 0:
            failures.append("exponent routes != 0")
    if excess_poincare(S) != LaurentPoly.one():
        failures.append("excess polynomial != 1")
    if geometric_genus_pd(S) != 1 or geometric_genus_divisors(S) != 1:
        failures.append("p_g != 1 on both routes")
    chain = verify_identity_chain(2, 3, 7)
    mu = chain.milnor
    if mu != 12:
        failures.append("mu != 12")
    if signature_lattice_oracle(2, 3, 7) != -8 or signature_durfee(1, mu) != -8:
        failures.append("sigma != -8 on both routes")
    if chain.euler_sl2c != 3 or mu // 4 != 3:
        failures.append("chi(M*) != 3 = mu/4")
    elapsed = time.monotonic() - start
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.3f}s >= 1s")
    _report(2, "Sigma(2,3,7): vector (0;0,0,0), exponents 0, excess 1, chi 3", failures)


def test_criterion_3_identity_chain_sweep():
    failures = []
    start = time.monotonic()
    for p, q, r in coprime_triples(15):
        chain = verify_identity_chain(p, q, r)
        if not chain.pg_routes_ok:
            failures.append(f"({p},{q},{r}) pg routes")
        if not chain.sigma_routes_ok:
            failures.append(f"({p},{q},{r}) sigma routes")
        if not chain.milnor_quarter_ok:
            failures.append(f"({p},{q},{r}) -2*lambda + pg != mu/4")
    elapsed = time.monotonic() - start
    if elapsed >= 10.0:
        failures.append(f"took {elapsed:.3f}s >= 10s")
    _report(3, "identity chain exact on all pairwise-coprime triples <= 15", failures)


def test_criterion_4_enumeration_bijection():
    failures = []
    for S in _sweep_data():
        C = S.orbifold
        N = n_bundle(S)
        deg_k = -orbifold_euler_char(C)
        bundle_side = set()
        ell = 0
        while True:
            B = power(N, -ell)
            if degree(B) >= deg_k:
                break
            if B.e >= 0:
                bundle_side.add((B.e, B.betas))
            ell += 1
        enum_side = {(v.e, v.betas) for v in enumerate_e_vectors(C)}
        if enum_side != bundle_side:
            failures.append(f"{C.alphas}: {enum_side ^ bundle_side}")
    _report(4, "EVector set == effective powers of N^-1 below deg K (n <= 5, alpha <= 12)", failures)


def test_criterion_5_exponent_integrality_and_triple_degeneracy():
    failures = []
    for S in _sweep_data():
        C = S.orbifold
        for v in enumerate_e_vectors(C):
            try:
                m = exponent_closed_form(C, v)  # raises unless a non-negative integer
            except Exception as exc:
                failures.append(f"{C.alphas} {(v.e,) + v.betas}: {exc}")
                continue
            if m < 0:
                failures.append(f"{C.alphas} {(v.e,) + v.betas}: negative exponent")
        if C.n == 3:
            for ambient_dim_c, _, _, _, morse_index, *_ in moduli_report(S).z_components:
                if morse_index != 0 or ambient_dim_c != 0:
                    failures.append(f"{C.alphas}: non-degenerate triple component")
    _report(5, "exponents are non-negative integers; n = 3 gives a finite variety", failures)


def test_criterion_6_hp_consistency():
    failures = []
    for p, q, r in coprime_triples(15):
        S = brieskorn_seifert_data((p, q, r))
        chain = verify_identity_chain(p, q, r)
        lam, chi_m = chain.casson, chain.euler_sl2c
        assembled = LaurentPoly({0: -2 * lam}) + moduli_report(S).hp_excess
        if euler_eval(assembled) != chi_m:
            failures.append(f"({p},{q},{r})")
    _report(6, "euler of assembled hp polynomial equals chi(M*) on every triple <= 15", failures)


def test_criterion_7_circle_localisation():
    failures = []
    start = time.monotonic()
    reports = run_localisation(circle_scenario(), [1e-1, 1e-2, 1e-3])
    for rep in reports:
        if len(rep.found) != 2:
            failures.append(f"eps {rep.epsilon}: {len(rep.found)} points")
            continue
        if not rep.bijection_ok or not rep.indices_ok:
            failures.append(f"eps {rep.epsilon}: bijection/index mismatch")
        if sorted(f.index for f in rep.found) != [0, 1]:
            failures.append(f"eps {rep.epsilon}: indices")
        if rep.signed_count != 0:
            failures.append(f"eps {rep.epsilon}: signed count {rep.signed_count}")
        for f in rep.found:
            if not (f.grad_residual < 1e-10):
                failures.append(f"eps {rep.epsilon}: residual {f.grad_residual}")
            if not (f.min_abs_hessian_eig > 1e-8):
                failures.append(f"eps {rep.epsilon}: degenerate point")
    elapsed = time.monotonic() - start
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.3f}s >= 1s")
    _report(7, "circle: 2 nondegenerate points, predicted indices, signed count 0", failures)


def test_criterion_8_sphere_localisation():
    failures = []
    start = time.monotonic()
    reports = run_localisation(sphere_scenario(), [1e-1, 1e-2, 1e-3])
    for rep in reports:
        if len(rep.found) != 2:
            failures.append(f"eps {rep.epsilon}: {len(rep.found)} points")
            continue
        if sorted(f.index for f in rep.found) != [0, 2]:
            failures.append(f"eps {rep.epsilon}: indices")
        if rep.signed_count != 2 or not rep.ok:
            failures.append(f"eps {rep.epsilon}: signed count {rep.signed_count}")
        for f in rep.found:
            if not (f.grad_residual < 1e-10):
                failures.append(f"eps {rep.epsilon}: residual {f.grad_residual}")
            if not (f.min_abs_hessian_eig > 1e-8):
                failures.append(f"eps {rep.epsilon}: degenerate point")
    elapsed = time.monotonic() - start
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.3f}s >= 1s")
    _report(8, "sphere: 2 points, indices {0,2}, signed count 2 = chi(S^2)", failures)


def test_criterion_9_property_suites():
    failures = []
    cases = 10**4

    rng = random.Random(0xACCE97)
    zero, one = LaurentPoly.zero(), LaurentPoly.one()
    for i in range(cases):
        a, b, c = (random_poly(rng) for _ in range(3))
        ok = (
            (a + b) + c == a + (b + c)
            and a + b == b + a
            and (a * b) * c == a * (b * c)
            and a * b == b * a
            and a * (b + c) == a * b + a * c
            and a + zero == a
            and a * one == a
            and a - a == zero
        )
        if not ok:
            failures.append(f"ring axiom case {i}")
            break

    rng = random.Random(0xBEEF)
    for i in range(cases):
        C = random_orbifold(rng)
        L1, L2, L3 = (random_bundle(rng, C) for _ in range(3))
        ok = (
            tensor(tensor(L1, L2), L3) == tensor(L1, tensor(L2, L3))
            and tensor(L1, L2) == tensor(L2, L1)
            and tensor(L1, dual(L1)) == trivial_bundle(C)
            and degree(tensor(L1, L2)) == degree(L1) + degree(L2)
        )
        if not ok:
            failures.append(f"picard law case {i}")
            break

    rng = random.Random(0xCAFE)
    for i in range(cases):
        C = random_orbifold(rng)
        e = rng.randint(-20, 20)
        raw = [rng.randint(-40, 40) for _ in C.alphas]
        L = normalize(e, raw, C)
        ok = (
            normalize(L.e, L.betas, C) == L
            and degree(L) == e + sum(type(degree(L))(b, a) for b, a in zip(raw, C.alphas))
            and all(0 <= b < a for b, a in zip(L.betas, C.alphas))
        )
        if not ok:
            failures.append(f"normalize case {i}")
            break

    _report(9, "ring axioms, Picard laws, normalize idempotence (10^4 cases each)", failures)
