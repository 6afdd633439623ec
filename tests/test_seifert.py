"""Seifert data construction, homology-sphere validation, and the bundle N."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product
from math import gcd, prod

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import canonical_bundle, coprime_tuples, degree
from seifertlab.orbifold import Orbifold, orbifold_euler_char, power
from seifertlab.seifert import (
    SeifertData,
    brieskorn_seifert_data,
    bundle_log,
    n_bundle,
    require_homology_sphere,
)


def brute_force_brieskorn(alphas):
    """Exhaustive search oracle for the unique (b, gammas) with A*e(Y) = -1.

    Independent of the congruence solve: scans every residue combination and
    divides out A directly.  Usable whenever A = prod alphas <= 10^4.
    """
    A = 1
    for a in alphas:
        A *= a
    assert A <= 10**4
    solutions = []
    for gammas in product(*[range(1, a) for a in alphas]):
        weighted = sum(g * (A // a) for g, a in zip(gammas, alphas))
        if (-1 - weighted) % A == 0:
            solutions.append(((-1 - weighted) // A, gammas))
    assert len(solutions) == 1
    return solutions[0]


def test_brieskorn_235():
    S = brieskorn_seifert_data((2, 3, 5))
    assert S.b == -2 and S.gammas == (1, 2, 4)
    assert S.euler_number == Fraction(-1, 30)


def test_brieskorn_237():
    S = brieskorn_seifert_data((2, 3, 7))
    assert S.b == -1 and S.gammas == (1, 1, 1)
    assert S.euler_number == Fraction(-1, 42)


def test_brieskorn_2357_matches_brute_force():
    S = brieskorn_seifert_data((2, 3, 5, 7))
    b, gammas = brute_force_brieskorn((2, 3, 5, 7))
    assert (S.b, S.gammas) == (b, gammas) == (-2, (1, 2, 2, 3))
    assert S.orbifold.scale * S.euler_number == -1


def test_brieskorn_against_brute_force_small_products():
    for alphas in coprime_tuples(3, 9) + coprime_tuples(4, 7):
        A = 1
        for a in alphas:
            A *= a
        if A > 10**4:
            continue
        S = brieskorn_seifert_data(alphas)
        assert (S.b, S.gammas) == brute_force_brieskorn(alphas)


def test_brieskorn_input_validation():
    with pytest.raises(ValueError):
        brieskorn_seifert_data((2, 4, 6))
    with pytest.raises(ValueError):
        brieskorn_seifert_data((2, 3))
    with pytest.raises(ValueError):
        brieskorn_seifert_data((1, 2, 3))


def test_seifert_data_validation():
    with pytest.raises(ValueError):
        SeifertData(0, ((2, 1), (3, 3)))  # gamma out of range
    with pytest.raises(ValueError):
        SeifertData(0, ((4, 2),))  # not coprime
    with pytest.raises(ValueError):
        SeifertData(-1, ((2, 1), (2, 1)))  # e(Y) = 0


@pytest.mark.parametrize(
    "build, message",
    [
        # int() would truncate these to Sigma(2,3,7) and to Seifert data of it
        (lambda: brieskorn_seifert_data((2.9, 3, 7)), "multiplicity must be an integer, got 2.9"),
        (lambda: brieskorn_seifert_data((2, 3, "7")), "multiplicity must be an integer, got '7'"),
        (lambda: SeifertData(-1, ((2, 1), (3, 1.0), (7, 1))), "fiber invariant .* got 1.0"),
        (lambda: SeifertData(-1, ((2.0, 1), (3, 1), (7, 1))), "fiber multiplicity .* got 2.0"),
        (lambda: SeifertData(-1.5, ((2, 1), (3, 1), (7, 1))), "b must be an integer, got -1.5"),
        # a bool is no int, as on the command line and in a batch line
        (lambda: SeifertData(True, ((2, 1), (3, 1), (7, 1))), "b must be an integer, got True"),
        (lambda: SeifertData(-1, ((2, True), (3, 1), (7, 1))), "fiber invariant .* got True"),
    ],
    ids=["float", "str", "float-gamma", "float-alpha", "float-b", "bool-b", "bool-gamma"],
)
def test_seifert_data_rejects_values_that_are_not_ints(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_require_homology_sphere_examples():
    assert require_homology_sphere(brieskorn_seifert_data((2, 3, 5))) == -1
    with pytest.raises(ValueError, match=r"A\*e\(Y\) = -2$"):
        require_homology_sphere(SeifertData(-1, ((2, 1), (4, 1))))
    assert require_homology_sphere(SeifertData(-1, ((2, 1), (3, 1), (7, 1)))) == -1
    assert require_homology_sphere(SeifertData(0, ((2, 1),))) == 1


def test_n_bundle_examples():
    N7 = n_bundle(brieskorn_seifert_data((2, 3, 7)))
    assert (N7.e, N7.betas) == (-1, (1, 1, 1))
    assert degree(N7) == Fraction(-1, 42)
    S5 = brieskorn_seifert_data((2, 3, 5))
    N5 = n_bundle(S5)
    assert (N5.e, N5.betas) == (-2, (1, 2, 4))
    assert degree(N5) == Fraction(-1, 30)
    # for this orbifold K and N coincide: deg K = -chi = -1/30 = deg N
    assert N5 == canonical_bundle(Orbifold((2, 3, 5)))


def test_bundle_log_examples():
    S = brieskorn_seifert_data((2, 3, 7))
    N = n_bundle(S)
    assert bundle_log(power(N, 0), S) == 0
    assert bundle_log(canonical_bundle(S.orbifold), S) == -1
    assert bundle_log(N, S) == 1


def test_bundle_log_inverts_powers():
    S = brieskorn_seifert_data((3, 4, 5))
    N = n_bundle(S)
    for m in range(-20, 21):
        assert bundle_log(power(N, m), S) == m


def test_bundle_log_rejects_non_homology_sphere():
    bad = SeifertData(-1, ((2, 1), (4, 1)))
    with pytest.raises(ValueError):
        bundle_log(n_bundle(bad), bad)


def test_bundle_log_rejects_foreign_bundle():
    S = brieskorn_seifert_data((2, 3, 7))
    other = canonical_bundle(Orbifold((2, 3, 5)))
    with pytest.raises(ValueError):
        bundle_log(other, S)


def test_brieskorn_sweep_is_homology_sphere_with_negative_degree():
    for alphas in coprime_tuples(3, 15):
        S = brieskorn_seifert_data(alphas)
        assert require_homology_sphere(S) == S.a_times_e == -1
        assert S.euler_number < 0
        # deg K / deg N is the integer power expressing K through N
        K = canonical_bundle(S.orbifold)
        ratio = degree(K) / S.euler_number
        assert ratio.denominator == 1
        assert bundle_log(K, S) == ratio


def test_link_orientation_recognises_the_brieskorn_triple():
    # every three-fiber homology sphere with alpha_i <= 13, in every fiber order
    # and both orientations: A*e(Y) < 0 exactly when it is Sigma(alphas)
    count = 0
    for alphas in combinations_with_replacement(range(2, 14), 3):
        A = alphas[0] * alphas[1] * alphas[2]
        for gammas in product(*[range(1, a) for a in alphas]):
            if any(gcd(a, g) != 1 for a, g in zip(alphas, gammas)):
                continue
            weighted = sum(g * (A // a) for g, a in zip(gammas, alphas))
            for a_e in (-1, 1):
                if (a_e - weighted) % A:
                    continue
                b = (a_e - weighted) // A
                for fibers in permutations(zip(alphas, gammas)):
                    S = SeifertData(b, fibers)
                    assert require_homology_sphere(S) == S.a_times_e == a_e
                    reference = brieskorn_seifert_data(S.alphas)
                    is_link = reference.b == b and sorted(reference.fibers) == sorted(fibers)
                    assert (a_e < 0) == is_link
                    count += 1
    assert count == 948  # 79 sets of alphas, 6 fiber orders, 2 orientations


_FIBER = st.integers(2, 30).flatmap(
    lambda a: st.tuples(st.just(a), st.sampled_from([g for g in range(1, a) if gcd(a, g) == 1]))
)


@settings(max_examples=200, deadline=None)
@given(b=st.integers(-8, 4), fibers=st.lists(_FIBER, min_size=1, max_size=5))
@example(b=-1, fibers=[(2, 1), (4, 1)])  # A*e(Y) = -2
@example(b=-1, fibers=[(2, 1), (2, 1)])  # e(Y) = 0
def test_scale_matches_the_fraction_definitions(b, fibers):
    # any fibration with alpha <= 30: repeated and non-coprime alphas, and
    # non-homology spheres, are all in range
    fibers = tuple(fibers)
    alphas = tuple(a for a, _ in fibers)
    A = prod(alphas)
    e = b + sum((Fraction(g, a) for a, g in fibers), Fraction(0))
    if e == 0:
        with pytest.raises(ValueError, match="must be nonzero"):
            SeifertData(b, fibers)
        return
    S = SeifertData(b, fibers)
    assert S.a_times_e == e * A and S.euler_number == e
    if abs(S.a_times_e) == 1:
        assert require_homology_sphere(S) == S.a_times_e
    else:
        with pytest.raises(ValueError, match=rf"A\*e\(Y\) = {S.a_times_e}$"):
            require_homology_sphere(S)
    C = S.orbifold
    assert C is S.orbifold
    assert C.scale == A and C.cofactors == tuple(A // a for a in alphas)
    assert C.scaled_deg_k == -orbifold_euler_char(C) * A
    # the derived values follow from the alphas and (b, fibers), so equal
    # inputs give equal records with equal hashes
    assert C == Orbifold(alphas) and hash(C) == hash(Orbifold(alphas))
    assert S == SeifertData(b, fibers) and hash(S) == hash(SeifertData(b, fibers))


def test_one_orbifold_per_fibration(monkeypatch):
    from seifertlab.reports import brieskorn_report
    from seifertlab.singularity import verify_sweep_report

    built = []
    original = Orbifold.__new__

    def counted(cls, alphas):
        built.append(original(cls, alphas))
        return built[-1]

    monkeypatch.setattr(Orbifold, "__new__", counted)
    S = brieskorn_seifert_data((2, 3, 7))
    assert built == [S.orbifold] and built[0] is S.orbifold
    # the orbifold handed over equals the one the fibration builds itself
    fibers = ((2, 1), (3, 1), (7, 1))
    assert S == SeifertData(-1, fibers) and hash(S) == hash(SeifertData(-1, fibers))
    built.clear()
    brieskorn_report((2, 3, 7))  # the identity chain reads the report's own data
    assert len(built) == 1
    built.clear()
    sweep = verify_sweep_report(13)
    assert len(built) == sweep["count"]
