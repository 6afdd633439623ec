"""Lattice-vector enumeration, exponents, and polynomial assembly."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    canonical_bundle,
    coprime_tuples,
    degree,
    dual,
    excess_euler_per_leaf,
    exponent_via_bundles,
    solve_L0_k,
)
from seifertlab.errors import ConsistencyError
from seifertlab.exact import LaurentPoly, euler_eval
from seifertlab.moduli import (
    EVector,
    enumerate_e_vectors,
    excess_poincare,
    exponent_closed_form,
    moduli_report,
)
from seifertlab.orbifold import Orbifold, normalize, orbifold_euler_char, power, tensor
from seifertlab.seifert import brieskorn_seifert_data, n_bundle, SeifertData
from seifertlab.singularity import _excess_euler, verify_identity_chain


def vec(C: Orbifold, e: int, betas: tuple[int, ...]) -> EVector:
    return EVector(e=e, betas=betas)


def test_enumeration_examples():
    assert enumerate_e_vectors(Orbifold((2, 3, 5))) == []
    got = enumerate_e_vectors(Orbifold((2, 3, 7)))
    assert [(v.e, v.betas) for v in got] == [(0, (0, 0, 0))]
    C = Orbifold((2, 3, 13))
    got = enumerate_e_vectors(C)
    assert [(v.e, v.betas) for v in got] == [(0, (0, 0, 0)), (0, (0, 0, 1))]
    assert [degree(normalize(v.e, v.betas, C)) for v in got] == [0, Fraction(1, 13)]


def test_evector_built_by_hand():
    v = EVector(0, (1,))
    assert v.exponent is None
    assert repr(v) == "EVector(e=0, betas=(1,), exponent=None)"


def test_enumeration_sorted_by_degree_then_lex():
    C = Orbifold((3, 4, 5, 7))
    got = enumerate_e_vectors(C)
    keys = [(degree(normalize(v.e, v.betas, C)), (v.e,) + v.betas) for v in got]
    assert keys == sorted(keys)
    assert (1, (0, 0, 0, 0)) in [(v.e, v.betas) for v in got]


def test_exponent_closed_form_examples():
    C7 = Orbifold((2, 3, 7))
    assert exponent_closed_form(C7, vec(C7, 0, (0, 0, 0))) == 0
    C2357 = Orbifold((2, 3, 5, 7))
    assert exponent_closed_form(C2357, vec(C2357, 0, (0, 1, 0, 0))) == 1
    C345 = Orbifold((3, 4, 5))
    assert exponent_closed_form(C345, vec(C345, 0, (0, 0, 1))) == 0


def test_exponent_via_bundles_examples():
    C7 = Orbifold((2, 3, 7))
    v = vec(C7, 0, (0, 0, 0))
    # h0 of dual(L) K^2 with L trivial: K^2 = (-1; 0,1,5) has no sections
    K = canonical_bundle(C7)
    assert (tensor(K, K).e, tensor(K, K).betas) == (-1, (0, 1, 5))
    assert exponent_via_bundles(C7, v) == 0
    C2357 = Orbifold((2, 3, 5, 7))
    assert exponent_via_bundles(C2357, vec(C2357, 0, (0, 1, 0, 0))) == 1
    C13 = Orbifold((2, 3, 13))
    assert exponent_via_bundles(C13, vec(C13, 0, (0, 0, 1))) == 0


def test_exponent_rejects_non_enumerated_vectors():
    C = Orbifold((2, 3, 5))
    with pytest.raises(ValueError):
        exponent_closed_form(C, vec(C, 0, (0, 0, 0)))  # bound is negative
    C7 = Orbifold((2, 3, 7))
    with pytest.raises(ValueError):
        exponent_closed_form(C7, vec(C7, -1, (0, 0, 0)))
    with pytest.raises(ValueError):
        exponent_via_bundles(C7, vec(C7, 0, (0, 0, 9)))


def test_solve_L0_k_examples():
    S = brieskorn_seifert_data((2, 3, 7))
    C = S.orbifold
    N = n_bundle(S)
    K = canonical_bundle(C)
    triv = power(N, 0)
    assert solve_L0_k(triv, S) == (0, 1)  # N^1 K is trivial since K = N^-1
    assert solve_L0_k(dual(N), S) == (0, 0)  # L0 trivial, k = 0: K itself
    assert solve_L0_k(K, S) == (0, 0)


def test_solve_L0_k_postcondition_on_sweep():
    for alphas in coprime_tuples(3, 12)[:20] + coprime_tuples(4, 9):
        S = brieskorn_seifert_data(alphas)
        C = S.orbifold
        N = n_bundle(S)
        K = canonical_bundle(C)
        for v in enumerate_e_vectors(C):
            L = normalize(v.e, v.betas, C)
            m0, k = solve_L0_k(L, S)
            assert k in (0, 1)
            rebuilt = tensor(tensor(power(power(N, m0), -2), power(N, k)), K)
            assert rebuilt == L


def test_z_components_examples():
    # one record (ambient_dim_c, e, k, l0_power, morse_index, *betas) per CP^e
    # component; the SU(2) piece is the writers' to print
    assert moduli_report(brieskorn_seifert_data((2, 3, 5))).z_components == []

    comps = moduli_report(brieskorn_seifert_data((2, 3, 7))).z_components
    assert len(comps) == 1
    ambient_dim_c, e, _, _, morse_index, *_ = comps[0]
    assert e == 0 and morse_index == 0 and ambient_dim_c == 0

    comps = moduli_report(brieskorn_seifert_data((3, 4, 5, 7))).z_components
    cp1 = [z for z in comps if z[1] == 1 and set(z[5:]) == {0}]
    assert len(cp1) == 1
    ambient_dim_c, _, _, _, morse_index, *_ = cp1[0]
    assert morse_index == 0 and ambient_dim_c == 2


def test_z_components_reject_non_homology_sphere():
    with pytest.raises(ValueError):
        moduli_report(SeifertData(-1, ((2, 1), (4, 1))))


def test_excess_poincare_examples():
    assert excess_poincare(brieskorn_seifert_data((2, 3, 5))) == LaurentPoly.zero()
    assert excess_poincare(brieskorn_seifert_data((2, 3, 7))) == LaurentPoly.one()
    assert excess_poincare(brieskorn_seifert_data((2, 3, 13))) == LaurentPoly({0: 2})


def test_sl2c_euler_examples():
    # chi of the character variety is -2*casson + the excess Euler characteristic
    for alphas, casson, chi in (((2, 3, 5), -1, 2), ((2, 3, 7), -1, 3), ((2, 3, 13), -2, 6)):
        chain = verify_identity_chain(*alphas)
        assert (chain.casson, chain.euler_sl2c) == (casson, chi)
        assert -2 * casson + moduli_report(brieskorn_seifert_data(alphas)).pg == chi


def test_sl2c_poincare_assembly():
    from seifertlab.reports import brieskorn_report

    two_points = LaurentPoly({0: 2})
    full = brieskorn_report((2, 3, 5), su2_poly=two_points)["polynomials"]
    assert not full["sl2c_partial"] and full["sl2c"] == "2"
    assert brieskorn_report((2, 3, 7), su2_poly=two_points)["polynomials"]["sl2c"] == "3"
    partial = brieskorn_report((2, 3, 7))["polynomials"]
    assert partial["sl2c_partial"] and partial["sl2c"] is None and partial["excess"] == "1"


def test_hp_poincare_examples():
    S7 = brieskorn_seifert_data((2, 3, 7))
    assert moduli_report(S7).hp_excess == LaurentPoly.one()
    # a CP^1 component contributes T^-2 + 1 after normalization
    S_big = brieskorn_seifert_data((3, 4, 5, 7))
    hp = moduli_report(S_big).hp_excess.coefficients()
    assert hp.get(-2, 0) >= 1 and min(hp) == -2
    assert euler_eval(LaurentPoly({0: 2}) + moduli_report(S7).hp_excess) == 3


def test_hp_excess_euler_equals_pg_on_triples():
    for alphas in coprime_tuples(3, 15):
        S = brieskorn_seifert_data(alphas)
        hp = moduli_report(S).hp_excess
        assert euler_eval(hp) == euler_eval(excess_poincare(S))


def test_two_route_exponent_equality_sweep():
    for n, limit in ((3, 12), (4, 10), (5, 8)):
        for alphas in coprime_tuples(n, limit):
            C = Orbifold(alphas)
            for v in enumerate_e_vectors(C):
                closed = exponent_closed_form(C, v)
                assert closed == exponent_via_bundles(C, v)
                assert closed >= 0


def test_enumeration_bijection_with_bundle_powers():
    for n, limit in ((3, 10), (4, 8)):
        for alphas in coprime_tuples(n, limit):
            S = brieskorn_seifert_data(alphas)
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
            assert enum_side == bundle_side


def test_triples_have_finite_character_variety():
    # for n = 3 every exponent and ambient dimension vanishes
    for alphas in coprime_tuples(3, 15):
        for ambient_dim_c, e, _, _, morse_index, *_ in moduli_report(
            brieskorn_seifert_data(alphas)
        ).z_components:
            assert morse_index == 0
            assert ambient_dim_c == 0
            assert e == 0


def test_index_bounded_by_ambient_dimension():
    for alphas in coprime_tuples(4, 10) + coprime_tuples(5, 8):
        for ambient_dim_c, _, _, _, morse_index, *_ in moduli_report(
            brieskorn_seifert_data(alphas)
        ).z_components:
            assert 0 <= morse_index <= ambient_dim_c


def test_moduli_report_consistency():
    S = brieskorn_seifert_data((2, 3, 13))
    rep = moduli_report(S)
    assert rep.pg == 2
    assert euler_eval(rep.excess_poincare) == rep.pg
    assert len(rep.z_components) == 2  # two CP^0 components beside the SU(2) piece


def test_enumerated_exponent_matches_both_routes():
    sets = coprime_tuples(3, 15) + [
        (3, 5, 7, 11),
        (2, 7, 9, 11),
        (2, 5, 11, 13),
        (3, 5, 7, 13),
        (2, 7, 9, 13),
        (2, 3, 5, 7, 11),
    ]
    for alphas in sets:
        C = Orbifold(alphas)
        for v in enumerate_e_vectors(C):
            assert v.exponent == exponent_closed_form(C, v) == exponent_via_bundles(C, v)


def test_one_enumeration_per_request(monkeypatch):
    import seifertlab.moduli as moduli
    from seifertlab.reports import brieskorn_report
    from seifertlab.singularity import verify_identity_chain

    calls = []
    original = moduli.enumerate_e_vectors

    def counting(C):
        calls.append(C.alphas)
        return original(C)

    monkeypatch.setattr(moduli, "enumerate_e_vectors", counting)
    verify_identity_chain(2, 3, 13)  # reads the count-only scan, builds no vector
    assert calls == []
    brieskorn_report((13, 3, 2))
    assert calls == [(13, 3, 2)]
    calls.clear()
    brieskorn_report((2, 3, 5, 7))
    assert calls == [(2, 3, 5, 7)]


def test_components_check_every_vector(monkeypatch):
    import seifertlab.moduli as moduli

    S = brieskorn_seifert_data((2, 5, 13))
    vectors = enumerate_e_vectors(S.orbifold)
    assert len(vectors) > 3
    for i, v in enumerate(vectors):
        # a wrong exponent on any one vector is caught by the walk's h^0
        tampered = list(vectors)
        tampered[i] = v._replace(exponent=v.exponent + 1)
        with pytest.raises(ConsistencyError, match="exponent routes disagree"):
            moduli._components(S, tampered)
        # so is a dropped vector, or one residue changed
        with pytest.raises(ConsistencyError, match="walk and scan disagree"):
            moduli._components(S, vectors[:i] + vectors[i + 1 :])
        for j, a in enumerate(S.alphas):
            betas = v.betas[:j] + ((v.betas[j] + 1) % a,) + v.betas[j + 1 :]
            tampered[i] = v._replace(betas=betas)
            with pytest.raises(ConsistencyError, match="walk and scan disagree"):
                moduli._components(S, tampered)
    # one walk of A*deg K powers per request, and no power per vector
    walks, ops = [], []
    original_walk, original_power = moduli._walk, moduli.power
    monkeypatch.setattr(
        moduli,
        "_walk",
        lambda G, count, keep: walks.append((G, count, keep)) or original_walk(G, count, keep),
    )
    monkeypatch.setattr(moduli, "power", lambda L, m: ops.append(m) or original_power(L, m))
    components, degrees = moduli._components(S, vectors)
    assert len(components) == len(vectors)
    top = S.orbifold.scaled_deg_k
    assert walks == [(dual(n_bundle(S)), top, top)]
    assert len(degrees) == top
    assert ops == [-1]  # G = N^(A*e(Y)) = N^(-1) on the link orientation


def _counting(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)


def test_a_report_walks_the_powers_of_n_once(monkeypatch):
    import seifertlab.moduli as moduli
    import seifertlab.singularity as singularity
    from seifertlab.reports import brieskorn_report, seifert_report
    from seifertlab.singularity import verify_sweep_report

    calls = []
    _counting(monkeypatch, moduli, "_walk", calls)
    _counting(monkeypatch, singularity, "_walk", calls)
    _counting(monkeypatch, singularity, "geometric_genus_divisors", calls)
    report = brieskorn_report((13, 3, 2))
    assert report["checks"]["pg_routes"] and calls == ["_walk"]
    calls.clear()
    S = brieskorn_seifert_data((3, 2, 7, 5))
    report = seifert_report(S, {"mode": "seifert"})
    assert report["checks"] == {"pg_routes": True} and calls == ["_walk"]
    calls.clear()
    # a sweep builds no vector, so its divisor route keeps its own walk
    report = verify_sweep_report(7)
    assert report["all_ok"]
    assert calls == ["geometric_genus_divisors", "_walk"] * report["count"]


# 3, 4 and 5 fibers come up equally often; (2,3,5,7,11) has 1039 vectors
_BASES = st.one_of(
    st.sampled_from(coprime_tuples(3, 13)),
    st.sampled_from(coprime_tuples(4, 9)),
    st.just((2, 3, 5, 7, 11)),
)


@settings(max_examples=24, deadline=None)
@given(_BASES.flatmap(st.permutations), st.booleans())
def test_components_equal_single_vector_bundle_routes(alphas, reverse):
    S = brieskorn_seifert_data(alphas)
    if reverse:  # (b; gamma_i) -> (-b - n; alpha_i - gamma_i) negates e(Y)
        S = SeifertData(-S.b - len(S.fibers), tuple((a, a - g) for a, g in S.fibers))
    C = S.orbifold
    for _, e, k, l0_power, morse_index, *betas in moduli_report(S).z_components:
        v = EVector(e, tuple(betas))
        L = normalize(v.e, v.betas, C)
        assert morse_index // 2 == exponent_via_bundles(C, v)
        assert (l0_power, k) == solve_L0_k(L, S)


@settings(max_examples=40, deadline=None)
@given(_BASES.flatmap(st.permutations), st.booleans())
def test_count_only_scan_equals_the_excess_euler_characteristic(alphas, reverse):
    S = brieskorn_seifert_data(alphas)
    if reverse:
        S = SeifertData(-S.b - len(S.fibers), tuple((a, a - g) for a, g in S.fibers))
    vectors = enumerate_e_vectors(S.orbifold)
    assert _excess_euler(S) == euler_eval(excess_poincare(S)) == sum(v.e + 1 for v in vectors)


@settings(max_examples=60, deadline=None)
@given(_BASES.flatmap(st.permutations), st.booleans())
def test_count_only_scan_equals_its_per_leaf_reference(alphas, reverse):
    S = brieskorn_seifert_data(alphas)
    if reverse:
        S = SeifertData(-S.b - len(S.fibers), tuple((a, a - g) for a, g in S.fibers))
    assert _excess_euler(S) == excess_euler_per_leaf(S)


@settings(max_examples=30, deadline=None)
@given(_BASES.flatmap(st.permutations))
def test_report_divisor_pg_equals_the_standalone_route(alphas):
    from seifertlab.singularity import geometric_genus_divisors

    S = brieskorn_seifert_data(alphas)
    assert moduli_report(S).pg_divisors == geometric_genus_divisors(S) == moduli_report(S).pg
    # the reversed orientation is no singularity link: no divisor p_g
    reversed_S = SeifertData(-S.b - len(S.fibers), tuple((a, a - g) for a, g in S.fibers))
    assert moduli_report(reversed_S).pg_divisors is None


@pytest.mark.parametrize("alphas", [(13, 2, 5), (3, 2, 7, 5)])
def test_a_tampered_walk_degree_fails_pg_routes(monkeypatch, alphas):
    import seifertlab.moduli as moduli
    from seifertlab.reports import seifert_report

    original = moduli._walk

    def tampered(G, count, keep):
        degrees, residues = original(G, count, keep)
        # a power with no section gains one; the residues, and so the
        # vectors the walk matches against the scan, stay as they were
        l = degrees.index(-1)
        return degrees[:l] + [0] + degrees[l + 1 :], residues

    S = brieskorn_seifert_data(alphas)
    assert seifert_report(S, {})["checks"]["pg_routes"] is True
    monkeypatch.setattr(moduli, "_walk", tampered)
    report = seifert_report(S, {})
    assert report["checks"]["pg_routes"] is False
    assert all(ok for key, ok in report["checks"].items() if key != "pg_routes")
    if report["singularity"] is not None:  # the identity chain checks the same p_g
        assert report["singularity"]["checks"]["pg_routes"] is False


def _tampered(alphas, field, change):
    S = brieskorn_seifert_data(alphas)
    C = S.orbifold
    return S._replace(orbifold=C._replace(**{field: change(getattr(C, field))}))


@pytest.mark.parametrize(
    "S, message",
    [
        # m*A one off a multiple of A
        (_tampered((2, 3, 7), "scaled_deg_k", lambda k: k + 1), r"exponent 1/42 "),
        # a negated cofactor drives m below zero
        (_tampered((2, 5, 7), "cofactors", lambda c: (-c[0],) + c[1:]), r"exponent -1 "),
    ],
)
def test_count_only_scan_keeps_the_integrality_check(S, message):
    for route in (lambda: enumerate_e_vectors(S.orbifold), lambda: _excess_euler(S)):
        with pytest.raises(ConsistencyError, match=message + r".*not a non-negative integer"):
            route()


@pytest.mark.parametrize(
    "alphas, field, change, outcome",
    [
        # m*A off a multiple of A on the first leaf, by a raised or lowered A*deg K
        ((2, 3, 7), "scaled_deg_k", lambda k: k + 1, "exponent 1/42 for vector (0, 0, 0, 0)"),
        ((7, 3, 5), "scaled_deg_k", lambda k: k - 1, "exponent -1/105 for vector (0, 0, 0, 0)"),
        # a last cofactor one above A/alpha_n fails the closed form's test
        (
            (3, 5, 7, 11),
            "cofactors",
            lambda c: c[:-1] + (c[-1] + 1,),
            "exponent 1/1155 for vector (1, 0, 0, 0, 0)",
        ),
        # m < 0 first on a later prefix, after earlier prefixes took the closed form
        (
            (2, 3, 5, 7, 11),
            "cofactors",
            lambda c: (-c[0],) + c[1:],
            "exponent -1 for vector (0, 0, 0, 4, 0, 10)",
        ),
    ],
)
def test_count_only_scan_falls_back_to_its_per_leaf_loop(alphas, field, change, outcome):
    # a prefix whose leaves fail the closed form's test runs them one by one,
    # so the scan names the vector its per-leaf reference names
    for route in (_excess_euler, excess_euler_per_leaf):
        try:
            got = route(_tampered(alphas, field, change))
        except ConsistencyError as exc:
            got = str(exc).removesuffix(" is not a non-negative integer")
        assert got == outcome
