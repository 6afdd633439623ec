"""Lattice-vector enumeration, exponents, and polynomial assembly."""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import coprime_tuples
from seifertlab.errors import ConsistencyError
from seifertlab.exact import LaurentPoly, euler_eval
from seifertlab.moduli import (
    EVector,
    enumerate_e_vectors,
    excess_poincare,
    exponent_closed_form,
    exponent_via_bundles,
    hp_poincare,
    moduli_report,
    sl2c_euler,
    sl2c_poincare,
    solve_L0_k,
    z_decomposition,
)
from seifertlab.orbifold import (
    Orbifold,
    canonical_bundle,
    dual,
    normalize,
    orbifold_euler_char,
    power,
    tensor,
)
from seifertlab.seifert import brieskorn_seifert_data, n_bundle, SeifertData


def vec(C: Orbifold, e: int, betas: tuple[int, ...]) -> EVector:
    degree = e + sum(Fraction(b, a) for b, a in zip(betas, C.alphas))
    return EVector(e=e, betas=betas, degree=degree)


def test_enumeration_examples():
    assert enumerate_e_vectors(Orbifold((2, 3, 5))) == []
    got = enumerate_e_vectors(Orbifold((2, 3, 7)))
    assert [(v.e, v.betas) for v in got] == [(0, (0, 0, 0))]
    got = enumerate_e_vectors(Orbifold((2, 3, 13)))
    assert [(v.e, v.betas) for v in got] == [(0, (0, 0, 0)), (0, (0, 0, 1))]
    assert [v.degree for v in got] == [0, Fraction(1, 13)]


def test_enumeration_sorted_by_degree_then_lex():
    got = enumerate_e_vectors(Orbifold((3, 4, 5, 7)))
    keys = [(v.degree, v.as_tuple()) for v in got]
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


def test_z_decomposition_examples():
    only_su2 = z_decomposition(brieskorn_seifert_data((2, 3, 5)))
    assert [z.kind for z in only_su2] == ["su2"]

    comps = z_decomposition(brieskorn_seifert_data((2, 3, 7)))
    assert [z.kind for z in comps] == ["su2", "cpe"]
    cpe = comps[1]
    assert cpe.vector.e == 0 and cpe.morse_index == 0 and cpe.ambient_dim_c == 0

    comps = z_decomposition(brieskorn_seifert_data((3, 4, 5, 7)))
    cp1 = [
        z
        for z in comps
        if z.kind == "cpe" and z.vector.e == 1 and set(z.vector.betas) == {0}
    ]
    assert len(cp1) == 1
    assert cp1[0].morse_index == 0 and cp1[0].ambient_dim_c == 2


def test_z_decomposition_rejects_non_homology_sphere():
    with pytest.raises(ValueError):
        z_decomposition(SeifertData(-1, ((2, 1), (4, 1))))


def test_excess_poincare_examples():
    assert excess_poincare(brieskorn_seifert_data((2, 3, 5))) == LaurentPoly.zero()
    assert excess_poincare(brieskorn_seifert_data((2, 3, 7))) == LaurentPoly.one()
    assert excess_poincare(brieskorn_seifert_data((2, 3, 13))) == LaurentPoly({0: 2})


def test_sl2c_euler_examples():
    assert sl2c_euler(brieskorn_seifert_data((2, 3, 5)), casson=-1) == 2
    assert sl2c_euler(brieskorn_seifert_data((2, 3, 7)), casson=-1) == 3
    assert sl2c_euler(brieskorn_seifert_data((2, 3, 13)), casson=-2) == 6


def test_sl2c_poincare_assembly():
    S = brieskorn_seifert_data((2, 3, 5))
    two_points = LaurentPoly({0: 2})
    full = sl2c_poincare(S, su2_poly=two_points)
    assert not full.partial and full.poly == two_points
    S7 = brieskorn_seifert_data((2, 3, 7))
    assert sl2c_poincare(S7, su2_poly=two_points).poly == LaurentPoly({0: 3})
    partial = sl2c_poincare(S7)
    assert partial.partial and partial.poly == LaurentPoly.one()
    assert partial.note is not None


def test_hp_poincare_examples():
    S7 = brieskorn_seifert_data((2, 3, 7))
    assert hp_poincare(S7).poly == LaurentPoly.one()
    # a CP^1 component contributes T^-2 + 1 after normalization
    S_big = brieskorn_seifert_data((3, 4, 5, 7))
    hp = hp_poincare(S_big).poly
    assert hp.coefficient(-2) >= 1 and hp.min_exponent == -2
    with_su2 = hp_poincare(S7, su2_hat_poly=LaurentPoly({0: 2}))
    assert not with_su2.partial and euler_eval(with_su2.poly) == 3


def test_hp_excess_euler_equals_pg_on_triples():
    for alphas in coprime_tuples(3, 15):
        S = brieskorn_seifert_data(alphas)
        hp = hp_poincare(S).poly
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
                if B.degree >= deg_k:
                    break
                if B.e >= 0:
                    bundle_side.add((B.e, B.betas))
                ell += 1
            enum_side = {(v.e, v.betas) for v in enumerate_e_vectors(C)}
            assert enum_side == bundle_side


def test_triples_have_finite_character_variety():
    # for n = 3 every exponent and ambient dimension vanishes
    for alphas in coprime_tuples(3, 15):
        for z in z_decomposition(brieskorn_seifert_data(alphas)):
            if z.kind == "cpe":
                assert z.morse_index == 0
                assert z.ambient_dim_c == 0
                assert z.vector.e == 0


def test_index_bounded_by_ambient_dimension():
    for alphas in coprime_tuples(4, 10) + coprime_tuples(5, 8):
        for z in z_decomposition(brieskorn_seifert_data(alphas)):
            if z.kind == "cpe":
                assert 0 <= z.morse_index <= z.ambient_dim_c


def test_moduli_report_consistency():
    S = brieskorn_seifert_data((2, 3, 13))
    rep = moduli_report(S, casson=-2)
    assert rep.pg == 2
    assert rep.euler_sl2c == 6
    assert euler_eval(rep.excess_poincare) == rep.pg
    assert len(rep.z_components) == 3
    assert moduli_report(S).euler_sl2c is None


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
    verify_identity_chain(2, 3, 13)
    assert calls == [(2, 3, 13)]
    calls.clear()
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
        tampered[i] = dataclasses.replace(v, exponent=v.exponent + 1)
        with pytest.raises(ConsistencyError, match="exponent routes disagree"):
            moduli._components(S, tampered)
        # so is a dropped vector, or one residue changed
        with pytest.raises(ConsistencyError, match="walk and scan disagree"):
            moduli._components(S, vectors[:i] + vectors[i + 1 :])
        for j, a in enumerate(S.alphas):
            betas = v.betas[:j] + ((v.betas[j] + 1) % a,) + v.betas[j + 1 :]
            tampered[i] = dataclasses.replace(v, betas=betas)
            with pytest.raises(ConsistencyError, match="walk and scan disagree"):
                moduli._components(S, tampered)
    # one walk per request, and no tensor or power per vector
    walks, ops = [], []
    original_walk, original_power, original_tensor = moduli._walk, moduli.power, moduli.tensor
    monkeypatch.setattr(
        moduli, "_walk", lambda G, count, keep: walks.append(G) or original_walk(G, count, keep)
    )
    monkeypatch.setattr(moduli, "power", lambda L, m: ops.append(m) or original_power(L, m))
    monkeypatch.setattr(moduli, "tensor", lambda *a: ops.append(a) or original_tensor(*a))
    components = moduli._components(S, vectors)
    assert len(components) == len(vectors) + 1
    assert walks == [dual(n_bundle(S))]
    assert ops == [-1]  # G = N^(A*e(Y)) = N^(-1) on the link orientation


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
    for z in z_decomposition(S)[1:]:
        L = normalize(z.vector.e, z.vector.betas, C)
        assert z.divisor_bundle == L
        assert z.morse_index // 2 == exponent_via_bundles(C, z.vector)
        assert (z.l0_power, z.parity_k) == solve_L0_k(L, S)
