"""Picard-group arithmetic of orbifold line bundles on genus-zero bases."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import coprime_tuples, random_bundle, random_orbifold
from seifertlab.orbifold import (
    LineBundleData,
    Orbifold,
    _walk,
    canonical_bundle,
    dual,
    h0,
    normalize,
    orbifold_euler_char,
    power,
    tensor,
    trivial_bundle,
)
from seifertlab.seifert import SeifertData, brieskorn_seifert_data, bundle_log, n_bundle

S235 = Orbifold((2, 3, 5))
S237 = Orbifold((2, 3, 7))


def test_orbifold_euler_char_examples():
    assert orbifold_euler_char(S235) == Fraction(1, 30)
    assert orbifold_euler_char(S237) == Fraction(-1, 42)
    assert orbifold_euler_char(Orbifold((2,))) == Fraction(3, 2)


def test_orbifold_validation():
    with pytest.raises(ValueError):
        Orbifold(())
    with pytest.raises(ValueError):
        Orbifold((2, 1))


def test_canonical_bundle_examples():
    K = canonical_bundle(S237)
    assert (K.e, K.betas) == (-2, (1, 2, 6))
    assert K.degree == Fraction(1, 42)
    assert canonical_bundle(S235).degree == Fraction(-1, 30)
    K3 = canonical_bundle(Orbifold((3,)))
    assert (K3.e, K3.betas) == (-2, (2,))
    assert K3.degree == Fraction(-4, 3)


def test_normalize_examples():
    L = normalize(0, [2, 0, 0], S235)
    assert (L.e, L.betas) == (1, (0, 0, 0))
    KK = normalize(-4, [2, 4, 12], S237)
    assert (KK.e, KK.betas) == (-1, (0, 1, 5))
    assert normalize(0, [0, 0, 0], S235) == trivial_bundle(S235)


def test_constructor_requires_normalized_data():
    with pytest.raises(ValueError):
        LineBundleData(0, (2, 0, 0), S235)
    with pytest.raises(ValueError):
        LineBundleData(0, (0, 0), S235)
    for betas in [(0, -1, 0), (0, 0, 5), (1.0, 0, 0), (0, 3, 4)]:
        with pytest.raises(ValueError):
            LineBundleData(0, betas, S235)


def test_power_rejects_non_integer_exponent():
    with pytest.raises(ValueError):
        power(canonical_bundle(S237), 0.5)


def test_tensor_examples():
    K = canonical_bundle(S237)
    KK = tensor(K, K)
    assert (KK.e, KK.betas) == (-1, (0, 1, 5))
    L = normalize(3, [1, 2, 4], S237)
    assert tensor(L, trivial_bundle(S237)) == L
    assert tensor(L, dual(L)) == trivial_bundle(S237)


def test_tensor_rejects_mismatched_orbifolds():
    with pytest.raises(ValueError):
        tensor(trivial_bundle(S235), trivial_bundle(S237))


def test_power_examples():
    N = LineBundleData(-1, (1, 1, 1), S237)
    assert power(N, 0) == trivial_bundle(S237)
    sq = power(N, 2)
    assert (sq.e, sq.betas) == (-1, (0, 2, 2))
    assert power(N, -1) == dual(N)


def test_h0_examples():
    assert h0(trivial_bundle(S237)) == 1
    K = canonical_bundle(S237)
    assert h0(tensor(K, K)) == 0  # K^2 = (-1; 0,1,5)
    assert h0(normalize(2, [0, 0, 0], S235)) == 3


def test_picard_laws_randomized():
    rng = random.Random(31415)
    for _ in range(1500):
        C = random_orbifold(rng)
        L1, L2, L3 = (random_bundle(rng, C) for _ in range(3))
        assert tensor(L1, L2).degree == L1.degree + L2.degree
        assert tensor(L1, L2) == tensor(L2, L1)
        assert tensor(tensor(L1, L2), L3) == tensor(L1, tensor(L2, L3))
        assert tensor(L1, dual(L1)) == trivial_bundle(C)
        # normalize is idempotent on already-normalized data
        assert normalize(L1.e, L1.betas, C) == L1


def test_canonical_degree_is_minus_euler_char():
    rng = random.Random(777)
    for _ in range(500):
        C = random_orbifold(rng)
        assert canonical_bundle(C).degree == -orbifold_euler_char(C)


def test_power_degree_scaling_and_h0_positivity():
    rng = random.Random(4242)
    for _ in range(500):
        C = random_orbifold(rng)
        L = random_bundle(rng, C)
        for m in range(-10, 11):
            assert power(L, m).degree == m * L.degree
        assert (h0(L) > 0) == (L.e >= 0)
    assert h0(trivial_bundle(Orbifold((2, 3)))) == 1


@st.composite
def bundle_data(draw):
    """An orbifold, two bundles on it given by raw data, and a power."""
    C = Orbifold(tuple(draw(st.lists(st.integers(2, 12), min_size=1, max_size=4))))

    def bundle():
        raw = [draw(st.integers(-40, 40)) for _ in C.alphas]
        return normalize(draw(st.integers(-9, 9)), raw, C)

    return C, bundle(), bundle(), draw(st.integers(-12, 12))


@settings(max_examples=300, deadline=None)
@given(bundle_data())
def test_bundle_ops_equal_normalize_of_raw_data(data):
    C, L1, L2, m = data
    summed = normalize(L1.e + L2.e, [a + b for a, b in zip(L1.betas, L2.betas)], C)
    # a bundle on an equal orbifold that is another object
    L2_elsewhere = normalize(L2.e, L2.betas, Orbifold(C.alphas))
    pairs = [
        (tensor(L1, L2), summed),
        (tensor(L1, L2_elsewhere), summed),
        (power(L1, m), normalize(m * L1.e, [m * b for b in L1.betas], C)),
        (dual(L2), normalize(-L2.e, [-b for b in L2.betas], C)),
    ]
    for got, want in pairs:
        assert got == want
        assert got.orbifold == C
        assert type(got.e) is int
        assert all(type(b) is int and 0 <= b < a for b, a in zip(got.betas, C.alphas))
        # the result passes the constructor's validation
        assert LineBundleData(got.e, got.betas, C) == got


@settings(max_examples=300, deadline=None)
@given(bundle_data(), st.integers(0, 60), st.integers(0, 60))
def test_walk_equals_powers(data, count, keep):
    _, G, _, _ = data
    degrees, residues = _walk(G, count, keep)
    powers = [power(G, l) for l in range(count)]
    assert degrees == [P.e for P in powers]
    assert residues == {l: P.betas for l, P in enumerate(powers) if l < keep and P.e >= 0}


_HOMOLOGY_SPHERE_BASES = coprime_tuples(3, 13) + coprime_tuples(4, 11)


@st.composite
def homology_sphere_bundle(draw):
    """A Brieskorn fibration in either orientation and a bundle on its base."""
    alphas = list(draw(st.sampled_from(_HOMOLOGY_SPHERE_BASES)))
    S = brieskorn_seifert_data(draw(st.permutations(alphas)))
    if draw(st.booleans()):  # (b; gamma_i) -> (-b - n; alpha_i - gamma_i) negates e(Y)
        S = SeifertData(-S.b - len(S.fibers), tuple((a, a - g) for a, g in S.fibers))
    raw = [draw(st.integers(-60, 60)) for _ in alphas]
    return S, normalize(draw(st.integers(-9, 9)), raw, S.orbifold)


@settings(max_examples=300, deadline=None)
@given(homology_sphere_bundle())
def test_bundle_log_equals_degree_ratio(data):
    S, L = data
    ratio = L.degree / n_bundle(S).degree
    assert ratio.denominator == 1
    assert bundle_log(L, S) == ratio
