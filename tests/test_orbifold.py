"""Picard-group arithmetic of orbifold line bundles on genus-zero bases."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    canonical_bundle,
    coprime_tuples,
    degree,
    dual,
    random_bundle,
    random_orbifold,
    trivial_bundle,
)
from seifertlab.orbifold import (
    LineBundleData,
    Orbifold,
    _walk,
    h0,
    normalize,
    orbifold_euler_char,
    power,
    tensor,
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
    assert degree(K) == Fraction(1, 42)
    assert degree(canonical_bundle(S235)) == Fraction(-1, 30)
    K3 = canonical_bundle(Orbifold((3,)))
    assert (K3.e, K3.betas) == (-2, (2,))
    assert degree(K3) == Fraction(-4, 3)


def test_normalize_examples():
    L = normalize(0, [2, 0, 0], S235)
    assert (L.e, L.betas) == (1, (0, 0, 0))
    KK = normalize(-4, [2, 4, 12], S237)
    assert (KK.e, KK.betas) == (-1, (0, 1, 5))
    assert normalize(0, [0, 0, 0], S235) == trivial_bundle(S235)


@pytest.mark.parametrize("raw", [[1, 2], [1, 2, 3, 4]])
def test_normalize_requires_one_residue_per_cone_point(raw):
    # zip stops at the shorter input, so a fourth residue must not vanish unread
    with pytest.raises(ValueError, match="one raw residue per cone point"):
        normalize(0, raw, S235)


def test_constructor_requires_normalized_data():
    with pytest.raises(ValueError):
        LineBundleData(0, (2, 0, 0), S235)
    with pytest.raises(ValueError):
        LineBundleData(0, (0, 0), S235)
    for betas in [(0, -1, 0), (0, 0, 5), (1.0, 0, 0), (0, 3, 4)]:
        with pytest.raises(ValueError):
            LineBundleData(0, betas, S235)


def test_line_bundle_value_semantics():
    L = LineBundleData(-1, [1, 1, 1], S237)
    assert L.betas == (1, 1, 1)
    # the orbifold is part of equality and hashing
    M = LineBundleData(-1, (1, 1, 1), S235)
    assert M != L
    same = LineBundleData(-1, (1, 1, 1), Orbifold((2, 3, 7)))
    assert same == L and hash(same) == hash(L)
    assert L != None and not L == None


def test_power_rejects_non_integer_exponent():
    with pytest.raises(ValueError):
        power(canonical_bundle(S237), 0.5)
    with pytest.raises(ValueError, match="got True"):
        power(canonical_bundle(S237), True)  # a bool is no int


@pytest.mark.parametrize(
    "build, message",
    [
        # accepted before, and h0 of it read 1.5
        (lambda: LineBundleData(0.5, (0, 0, 0), S235), "degree e must be an integer, got 0.5"),
        (lambda: LineBundleData(True, (0, 0, 0), S235), "degree e must be an integer, got True"),
        (lambda: LineBundleData(0, (True, 0, 0), S235), "residue True not normalized"),
        # normalize carries the float e through to the record
        (lambda: normalize(0.5, [1, 2, 3], S235), "degree e must be an integer, got 0.5"),
        (lambda: normalize(0, [1.0, 2, 3], S235), "residue 1.0 not normalized"),
    ],
    ids=["float-e", "bool-e", "bool-residue", "normalize-float-e", "normalize-float-residue"],
)
def test_line_bundle_data_rejects_values_that_are_not_ints(build, message):
    with pytest.raises(ValueError, match=message):
        build()


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
        assert degree(tensor(L1, L2)) == degree(L1) + degree(L2)
        assert tensor(L1, L2) == tensor(L2, L1)
        assert tensor(tensor(L1, L2), L3) == tensor(L1, tensor(L2, L3))
        assert tensor(L1, dual(L1)) == trivial_bundle(C)
        # normalize is idempotent on already-normalized data
        assert normalize(L1.e, L1.betas, C) == L1


def test_canonical_degree_is_minus_euler_char():
    rng = random.Random(777)
    for _ in range(500):
        C = random_orbifold(rng)
        assert degree(canonical_bundle(C)) == -orbifold_euler_char(C)


def test_power_degree_scaling_and_h0_positivity():
    rng = random.Random(4242)
    for _ in range(500):
        C = random_orbifold(rng)
        L = random_bundle(rng, C)
        for m in range(-10, 11):
            assert degree(power(L, m)) == m * degree(L)
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


# G = N^(-1) of Sigma(2,3,5), where A*deg K = -1 and every sweep walks with
# count = keep = -1
_D235 = (S235, dual(n_bundle(brieskorn_seifert_data((2, 3, 5)))), None, None)
# G = N of Sigma(3,5,7) reversed, (-1; (3,2), (5,1), (7,1)), which has e = -1
# and A*deg K = 34, walked as a report walks it
_S357 = brieskorn_seifert_data((3, 5, 7))
_N357_REVERSED = (
    _S357.orbifold,
    n_bundle(SeifertData(-_S357.b - 3, tuple((a, a - g) for a, g in _S357.fibers))),
    None,
    None,
)


# count and keep run from negative through more than 12 periods of every alpha
@settings(max_examples=300, deadline=None)
@given(bundle_data(), st.integers(-3, 150), st.integers(-3, 150))
@example(_D235, -1, -1)
@example(_D235, 0, 5)
@example(_D235, 7, 150)
@example(_N357_REVERSED, 34, 34)
def test_walk_equals_powers(data, count, keep):
    _, G, _, _ = data
    degrees, residues = _walk(G, count, keep)
    powers = [power(G, l) for l in range(max(2 * count, 0))]
    assert degrees == [P.e for P in powers[:count]]
    walked = powers[: max(min(keep, count), 0)]
    assert residues == {l: P.betas for l, P in enumerate(walked) if P.e >= 0}
    # the dual degrees of a report's vectors, past the walk: G^j in closed form
    pairs = list(zip(G.orbifold.alphas, G.betas))
    for j, P in enumerate(powers):
        assert j * G.e + sum(j * b // a for a, b in pairs) == P.e


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
    ratio = degree(L) / degree(n_bundle(S))
    assert ratio.denominator == 1
    assert bundle_log(L, S) == ratio
