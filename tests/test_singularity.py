"""Milnor number, geometric genus, signature oracles, and the identity chain."""

from __future__ import annotations

import tracemalloc
from itertools import permutations, product
from math import ceil, floor, gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from helpers import coprime_triples, coprime_tuples, signature_per_point
import seifertlab.singularity as singularity
from seifertlab.errors import ConsistencyError
from seifertlab.orbifold import h0, orbifold_euler_char, power
from seifertlab.seifert import SeifertData, brieskorn_seifert_data, n_bundle
from seifertlab.singularity import (
    geometric_genus_divisors,
    geometric_genus_pd,
    signature_durfee,
    signature_lattice_oracle,
    verify_identity_chain,
)


def test_milnor_number_examples():
    assert verify_identity_chain(2, 3, 5).milnor == 8
    assert verify_identity_chain(2, 3, 7).milnor == 12
    assert verify_identity_chain(3, 4, 5).milnor == 24
    with pytest.raises(ValueError):
        verify_identity_chain(2, 4, 5)


def test_geometric_genus_pd_examples():
    assert geometric_genus_pd(brieskorn_seifert_data((2, 3, 5))) == 0
    assert geometric_genus_pd(brieskorn_seifert_data((2, 3, 7))) == 1
    assert geometric_genus_pd(brieskorn_seifert_data((2, 3, 13))) == 2


def test_geometric_genus_divisors_examples():
    assert geometric_genus_divisors(brieskorn_seifert_data((2, 3, 5))) == 0
    assert geometric_genus_divisors(brieskorn_seifert_data((2, 3, 7))) == 1
    assert geometric_genus_divisors(brieskorn_seifert_data((3, 4, 5))) == 2


def test_geometric_genus_rejects_wrong_inputs():
    not_hs = SeifertData(-1, ((2, 1), (4, 1)))
    with pytest.raises(ValueError):
        geometric_genus_pd(not_hs)
    # reversed orientation of Sigma(2,3,7): A*e(Y) = +1, deg N > 0
    reversed_237 = SeifertData(-2, ((2, 1), (3, 2), (7, 6)))
    with pytest.raises(ValueError):
        geometric_genus_pd(reversed_237)
    with pytest.raises(ValueError):
        geometric_genus_divisors(reversed_237)


# bound on A*(n - 2), about the number of l both routes step through; it keeps
# the per-l references below ~0.1 s an example
_STEPS_LIMIT = 15_000


def _link_bases(n: int, top: int = 40) -> list[tuple[int, ...]]:
    """Increasing pairwise-coprime n-tuples in [2, top] with A*(n - 2) <= _STEPS_LIMIT."""
    out = []

    def extend(prefix):
        if len(prefix) == n:
            out.append(prefix)
            return
        for a in range(prefix[-1] + 1 if prefix else 2, top + 1):
            if prod(prefix) * a * (n - 2) > _STEPS_LIMIT:
                break
            if all(gcd(a, b) == 1 for b in prefix):
                extend(prefix + (a,))

    extend(())
    return out


# one strategy per fiber count, so that 4 and 5 fibers come up as often as 3
_LINK_BASES = st.one_of(*(st.sampled_from(_link_bases(n)) for n in (3, 4, 5)))


def _per_l_definitions(S: SeifertData) -> tuple[int, int]:
    """Both p_g sums term by term: (divisor route, Pinkham-Dolgachev route)."""
    ratio = -orbifold_euler_char(S.orbifold) / -S.euler_number  # deg K / (-deg N)
    # divisor route: one bundle N^(-l) built from scratch per l of degree < deg K
    N = n_bundle(S)
    l_max = ceil(ratio) - 1
    divisors = sum(h0(power(N, -l)) for l in range(l_max + 1))
    return divisors, _pd_per_l(S, floor(ratio))


def _pd_per_l(S: SeifertData, bound: int) -> int:
    """The Pinkham-Dolgachev sum over l = 0, ..., bound, each ceiling by a floor division."""
    return sum(
        max(0, l * S.b + sum(-(-l * g // a) for a, g in S.fibers) - 1) for l in range(bound + 1)
    )


@settings(max_examples=60, deadline=None)
@given(_LINK_BASES.flatmap(st.permutations))
def test_pg_routes_equal_their_per_l_definitions(alphas):
    S = brieskorn_seifert_data(alphas)
    assert (geometric_genus_divisors(S), geometric_genus_pd(S)) == _per_l_definitions(S)
    # (b; gamma_i) -> (-b - n; alpha_i - gamma_i) reverses the orientation
    reversed_S = SeifertData(-S.b - len(S.fibers), tuple((a, a - g) for a, g in S.fibers))
    for route in (geometric_genus_pd, geometric_genus_divisors):
        with pytest.raises(ValueError, match="wrong orientation"):
            route(reversed_S)


@pytest.mark.parametrize(
    "S, bound",
    [(brieskorn_seifert_data((2, 3, 5)), -1), (SeifertData(-1, ((2, 1),)), -3)],
)
def test_pg_routes_on_non_positive_bounds(S, bound):
    assert S.orbifold.scaled_deg_k == bound  # A*deg K, the bound on l of both routes
    assert _per_l_definitions(S) == (0, 0)
    assert geometric_genus_divisors(S) == geometric_genus_pd(S) == 0


@pytest.mark.parametrize(
    "alphas, bound",
    [(order, 1) for order in permutations((2, 3, 7))]
    + [(order, 5) for order in permutations((2, 3, 11))]
    + [(order, 7) for order in permutations((2, 3, 13))],
)
def test_pg_routes_at_the_edge_of_the_merged_pd_table(alphas, bound):
    # the divisor route's walk merges the first two fibers' carry tables
    # into one of period alpha_1*alpha_2 only when that is below its count
    # A*deg K: never on (2,3,7); on (2,3,11) and (2,3,13) the period is one
    # above the count, or one below it, in the orders that lead with 2 and 3
    S = brieskorn_seifert_data(alphas)
    assert S.orbifold.scaled_deg_k == bound
    assert (geometric_genus_divisors(S), geometric_genus_pd(S)) == _per_l_definitions(S)


def _pd_classes(S: SeifertData) -> tuple[int, dict[int, tuple[int, int]]]:
    """P = A/alpha for the largest alpha, and (c0, K) of each residue class
    l0 < min(P, A*deg K + 1) of the PD route, from the per-l terms: c0 =
    alpha*T'(l0) + l0*gamma, T' the term without the largest fiber, and K
    the number of l <= A*deg K in the class."""
    alpha, gamma = max(S.fibers)
    P = S.orbifold.scale // alpha
    bound = S.orbifold.scaled_deg_k
    others = [(a, g) for a, g in S.fibers if a != alpha]

    def head(l):  # T'(l)
        return l * S.b + sum(-(-l * g // a) for a, g in others) - 1

    return P, {
        l0: (alpha * head(l0) + l0 * gamma, (bound - l0) // P + 1)
        for l0 in range(min(P, bound + 1))
    }


@pytest.mark.parametrize(
    "alphas, one_l_a_class",
    [(order, True) for order in permutations((2, 3, 7))]
    + [(order, True) for order in permutations((2, 3, 11))]
    + [(order, False) for order in permutations((2, 3, 13))],
)
def test_pd_route_when_a_class_holds_at_most_one_l(alphas, one_l_a_class):
    # P = 6 >= A*deg K + 1 on (2,3,7) and (2,3,11): each l <= A*deg K is its
    # own class, K = 1; on (2,3,13), A*deg K = 7, so classes 0 and 1 hold two
    S = brieskorn_seifert_data(alphas)
    P, classes = _pd_classes(S)
    assert (P >= S.orbifold.scaled_deg_k + 1) is one_l_a_class
    assert all(K == 1 for _, K in classes.values()) is one_l_a_class
    assert geometric_genus_pd(S) == _pd_per_l(S, S.orbifold.scaled_deg_k)


@settings(max_examples=60, deadline=None)
@given(_LINK_BASES.flatmap(st.permutations))
def test_pd_classes_end_within_the_bound_on_a_link(alphas):
    # T(l) <= deg K + 1 - l/A, so no term past A*deg K is positive: every
    # class has c0 <= K, and F(c0) is its whole sum
    S = brieskorn_seifert_data(alphas)
    _, classes = _pd_classes(S)
    assert all(c0 <= K for c0, K in classes.values())
    assert any(0 < c0 for c0, _ in classes.values()) is (geometric_genus_pd(S) > 0)
    assert geometric_genus_pd(S) == _pd_per_l(S, S.orbifold.scaled_deg_k)


@pytest.mark.parametrize("alphas", list(permutations((3, 5, 7, 11))))
def test_pd_route_with_the_largest_fiber_in_every_position(alphas):
    S = brieskorn_seifert_data(alphas)
    assert geometric_genus_pd(S) == _pd_per_l(S, S.orbifold.scaled_deg_k) == 306


@pytest.mark.parametrize("alphas", list(permutations((3, 5, 7))) + [(2, 5, 7), (7, 5, 2)])
def test_pd_route_truncates_each_class_at_a_lower_bound(alphas):
    # with the bound lowered below A*deg K, a class can hold fewer l than
    # its c0 positive terms, and the sum must stop at the bound: K = Q + 1
    # on the classes l0 <= R and Q above, for bound = Q*P + R
    truncated = set()
    for bound in range(brieskorn_seifert_data(alphas).orbifold.scaled_deg_k + 1):
        S = brieskorn_seifert_data(alphas)
        S = S._replace(orbifold=S.orbifold._replace(scaled_deg_k=bound))
        P, classes = _pd_classes(S)
        assert geometric_genus_pd(S) == _pd_per_l(S, bound)
        for l0 in (bound % P, bound % P + 1):
            c0, K = classes.get(l0, (0, 0))
            if 0 < K < c0:
                truncated.add(l0 - bound % P)
    assert truncated == {0, 1}  # at l0 = R, K = Q + 1 and at l0 = R + 1, K = Q


def test_pd_route_on_sigma_97_101_103():
    # the lattice count #{i, j, k >= 1 : i/p + j/q + k/r <= 1} by an O(pq)
    # loop of floor divisions gives the same p_g; the class sum takes
    # P = 97*101 steps where the per-l sum takes 978,901
    S = brieskorn_seifert_data((97, 101, 103))
    assert S.orbifold.scaled_deg_k == 978_900
    assert geometric_genus_pd(S) == 160_736


def test_pd_route_streams():
    # A*deg K = 46256 terms; a list of them would take ~400 KB
    S = brieskorn_seifert_data((29, 37, 47))
    tracemalloc.start()
    try:
        pg = geometric_genus_pd(S)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pg == geometric_genus_divisors(S)
    assert peak < 64 * 1024


def test_divisor_route_builds_one_bundle_power(monkeypatch):
    import seifertlab.singularity as singularity

    exponents = []
    original = singularity.power
    monkeypatch.setattr(singularity, "power", lambda L, m: exponents.append(m) or original(L, m))
    S = brieskorn_seifert_data((7, 11, 13))
    assert geometric_genus_divisors(S) == geometric_genus_pd(S) == 100
    assert exponents == [-1]


def test_signature_durfee_examples():
    assert signature_durfee(0, 8) == -8
    assert signature_durfee(1, 12) == -8
    assert signature_durfee(2, 24) == -16
    with pytest.raises(ValueError):
        signature_durfee(5, 8)


def test_signature_lattice_oracle_examples():
    assert signature_lattice_oracle(2, 3, 5) == -8
    assert signature_lattice_oracle(2, 3, 7) == -8
    assert signature_lattice_oracle(2, 3, 11) == -16


def test_signature_lattice_oracle_guards():
    with pytest.raises(ValueError):
        signature_lattice_oracle(2, 4, 5)
    with pytest.raises(ValueError):
        signature_lattice_oracle(101, 102, 103)  # product above desk scale


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(coprime_triples(25)).flatmap(st.permutations))
def test_lattice_oracle_equals_the_per_point_count(triple):
    assert signature_lattice_oracle(*triple) == signature_per_point(*triple)


@pytest.mark.parametrize("triple", [(2, 4, 4), (2, 3, 6), (4, 6, 6), (3, 3, 3)])
def test_lattice_counter_reports_the_first_boundary_point(triple):
    # a non-coprime triple puts lattice points on s = 1 or s = 2; the counter
    # names the same first point (in (i, j, k) order) as the per-point loop
    with pytest.raises(ConsistencyError, match="boundary lattice value") as fast:
        singularity._lattice_signature(*triple)
    with pytest.raises(ConsistencyError) as slow:
        signature_per_point(*triple)
    assert str(fast.value) == str(slow.value)


def test_lattice_counter_equals_the_per_point_count_off_the_boundary():
    # every exponent triple in [2, 7], coprime or not: both raise or both agree
    for triple in product(range(2, 8), repeat=3):
        try:
            expected = signature_per_point(*triple)
        except ConsistencyError:
            with pytest.raises(ConsistencyError, match="boundary lattice value"):
                singularity._lattice_signature(*triple)
        else:
            assert singularity._lattice_signature(*triple) == expected


def test_casson_invariant_examples():
    assert verify_identity_chain(2, 3, 5).casson == -1
    assert verify_identity_chain(2, 3, 7).casson == -1
    assert verify_identity_chain(2, 3, 11).casson == -2


def test_identity_chain_examples():
    rep = verify_identity_chain(2, 3, 5)
    assert rep.ok and rep.euler_sl2c == 2
    rep = verify_identity_chain(2, 3, 7)
    assert rep.ok and rep.euler_sl2c == 3
    rep = verify_identity_chain(3, 4, 5)
    assert rep.ok and rep.euler_sl2c == 6


def test_identity_chain_sweep_to_15():
    for p, q, r in coprime_triples(15):
        rep = verify_identity_chain(p, q, r)
        assert rep.ok, rep.as_dict()
        assert rep.milnor % 4 == 0
        assert rep.pg_pd == rep.pg_divisors == rep.excess_euler
        assert rep.sigma_durfee == rep.sigma_lattice
        assert -2 * rep.casson + rep.pg_pd == rep.milnor // 4 == rep.euler_sl2c


def test_report_chain_equals_the_standalone_chain_in_every_fiber_order(monkeypatch):
    import seifertlab.moduli as moduli
    import seifertlab.reports as reports

    expected = reports.singularity_block(verify_identity_chain(2, 5, 13))
    S = brieskorn_seifert_data((2, 5, 13))
    for order in permutations(range(3)):
        exponents = tuple(S.alphas[i] for i in order)
        assert reports.brieskorn_report(exponents)["singularity"] == expected
        raw = SeifertData(S.b, tuple(S.fibers[i] for i in order))
        assert reports.seifert_report(raw, {})["singularity"] == expected
    # a divisor-route p_g handed to the chain is checked like its own
    original = moduli.moduli_report  # looked up by the report when it runs

    def wrong_walk(S):
        mod = original(S)
        return mod._replace(pg_divisors=mod.pg_divisors + 1)

    monkeypatch.setattr(moduli, "moduli_report", wrong_walk)
    report = reports.seifert_report(S, {})
    assert report["checks"]["pg_routes"] is False
    assert report["singularity"]["checks"]["pg_routes"] is False
    assert report["singularity"]["checks"]["sigma_routes"] is True


def test_pg_two_routes_beyond_triples():
    for n, limit in ((4, 12), (5, 12)):
        for alphas in coprime_tuples(n, limit):
            S = brieskorn_seifert_data(alphas)
            assert geometric_genus_pd(S) == geometric_genus_divisors(S)


def test_identity_chain_runs_lattice_oracle_once(monkeypatch):
    import seifertlab.singularity as singularity

    calls = []
    original = singularity.signature_lattice_oracle

    def counting(p, q, r):
        calls.append((p, q, r))
        return original(p, q, r)

    monkeypatch.setattr(singularity, "signature_lattice_oracle", counting)
    chain = verify_identity_chain(2, 3, 13)
    assert calls == [(2, 3, 13)]
    assert chain.casson == -2 == chain.sigma_lattice // 8
    # the divisibility check still guards the derived lambda
    monkeypatch.setattr(singularity, "signature_lattice_oracle", lambda p, q, r: -12)
    with pytest.raises(ConsistencyError, match="not divisible by 8"):
        verify_identity_chain(2, 3, 7)
