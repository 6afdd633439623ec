"""Perturbation lab: fields, Newton continuation, multipliers, localisation."""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest
from helpers import part_by_part
from hypothesis import given, settings, strategies as st

from seifertlab.perturb import (
    DegenerateCriticalPointError,
    ExperimentReport,
    NewtonResult,
    Z0Component,
    Z1Site,
    MultiplierError,
    PerturbationFamily,
    ScalarField,
    circle_scenario,
    lagrange_multiplier,
    leading_term,
    linear_scenario,
    morse_index,
    newton_critical_point,
    predicted_critical_points,
    run_localisation,
    scenario_by_name,
    scenario_names,
    spectral_gap,
    sphere_scenario,
)
from seifertlab.perturb import lab, scenarios
from seifertlab.perturb.linalg import _norm, eigh, pinv_solve

ALL_SCENARIOS = [circle_scenario, sphere_scenario, linear_scenario]


def bisect_root(g, lo, hi, tol=1e-14):
    """Plain bisection; the 1-D oracle for reduced critical-point equations."""
    glo, ghi = g(lo), g(hi)
    assert glo * ghi < 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if abs(hi - lo) < tol:
            return mid
        if glo * gm <= 0:
            hi, ghi = mid, gm
        else:
            lo, glo = mid, gm
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------- fields


def test_fd_gradient_matches_analytic_on_scenarios():
    rng = np.random.default_rng(11)
    for build in ALL_SCENARIOS:
        sc = build()
        samples = list(sc.z0_sampler(8)) + [s.point for s in sc.z1_sites]
        samples += [
            np.asarray(x) + rng.normal(scale=0.3, size=sc.family.dim) for x in samples[:4]
        ]
        for s in (sc.family.s0, sc.family.s1, sc.family.s2):
            for x in samples:
                an = np.asarray(s.gradient(x))
                fd = np.asarray(s.fd_gradient(x))
                assert np.linalg.norm(fd - an) <= 1e-6 * max(1.0, np.linalg.norm(an))


def test_fd_hessian_matches_analytic_on_scenarios():
    for build in ALL_SCENARIOS:
        sc = build()
        for x in sc.z0_sampler(4):
            for s in (sc.family.s0, sc.family.s1, sc.family.s2):
                an = np.asarray(s.hessian(x))
                fd = np.asarray(s.fd_hessian(x))
                assert np.max(np.abs(fd - an)) <= 1e-4 * max(1.0, np.max(np.abs(an)))


def test_family_requires_matching_dimensions():
    with pytest.raises(ValueError):
        PerturbationFamily(ScalarField.zero(2), ScalarField.zero(3), ScalarField.zero(2))


def test_family_at_combines_terms():
    sc = linear_scenario()
    x = np.array([0.3, -0.2, 0.7])
    eps = 0.05
    S = sc.family.at(eps)
    expected = (
        sc.family.s0.value(x) + eps * sc.family.s1.value(x) + eps**2 * sc.family.s2.value(x)
    )
    assert S.value(x) == pytest.approx(expected, rel=1e-14)
    _, gradient, hessian = part_by_part(sc.family, eps)
    assert np.allclose(S.gradient(x), gradient(x))
    assert np.allclose(S.hessian(x), hessian(x))


def _bits(evaluate, x):
    """Every float of evaluate(x) as its bits, or the type of the exception it raises."""
    try:
        out = evaluate(x)
    except ArithmeticError as exc:
        return type(exc)
    rows = out if isinstance(out, tuple) else (out,)
    floats = [v for row in rows for v in (row if isinstance(row, tuple) else (row,))]
    return [struct.pack("<d", v) for v in floats]


def _assert_single_pass_equals_parts(family, x, eps):
    S = family.at(eps)
    routes = [
        S.value,
        S.gradient if S._grad is not None else None,
        S.hessian if S._hess is not None else None,
    ]
    for through_at, reference in zip(routes, part_by_part(family, eps)):
        if through_at is not None:  # else S_eps differences its own value instead
            assert _bits(through_at, x) == _bits(reference, x)


coordinates = st.one_of(
    st.floats(-3.0, 3.0), st.floats(-1e160, 1e160), st.sampled_from([0.0, -0.0, math.nan])
)
magnitudes = st.floats(1e-6, 1e150)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([circle_scenario, sphere_scenario, linear_scenario]),
    st.lists(coordinates, min_size=3, max_size=3),
    magnitudes,
    st.sampled_from([1.0, -1.0]),
)
def test_family_single_pass_equals_its_parts_bit_for_bit(build, x, magnitude, sign):
    _assert_single_pass_equals_parts(build().family, tuple(x), sign * magnitude)


def _mixed_family(analytic: bool = True) -> PerturbationFamily:
    """Parts whose callbacks return ints, lists, tuples and numpy arrays.

    Without ``analytic`` the last part has no gradient or Hessian callback,
    so it is differentiated by central differences.
    """
    s0 = ScalarField(
        2,
        lambda x: 3 * x[0] - 1,
        lambda x: [2, -x[1]],
        lambda x: np.array([[4, 1], [1, -1]]),
    )
    s1 = ScalarField(
        2,
        lambda x: np.float64(1e300) * x[0] + x[1],
        lambda x: np.array([1e300, x[1]]),
        lambda x: [[x[0], 1e300], [1e300, 2.0]],
    )
    s2 = ScalarField(
        2,
        lambda x: 7 * x[1] + x[0] + x[0] * x[1],
        (lambda x: (1 + x[1], 7 + x[0])) if analytic else None,
        (lambda x: ((0, 1), (1, np.float32(0.1)))) if analytic else None,
    )
    return PerturbationFamily(s0, s1, s2)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.one_of(st.floats(-3.0, 3.0), st.sampled_from([-0.0, math.nan])), min_size=2,
             max_size=2),
    magnitudes,
    st.sampled_from([1.0, -1.0]),
    st.booleans(),
)
def test_family_turns_int_list_and_array_parts_into_the_same_floats(x, magnitude, sign, analytic):
    # each part's output becomes floats before eps touches it, so a huge eps
    # gives the same inf and nan as the part-by-part sum, and no warning
    _assert_single_pass_equals_parts(_mixed_family(analytic), tuple(x), sign * magnitude)


def test_family_at_of_mixed_parts_on_a_fixed_point():
    S = _mixed_family().at(0.1)
    assert S.gradient((1.0, 2.0)) == (2 + 0.1 * 1e300 + 0.1**2 * 3.0, -2 + 0.1 * 2.0 + 0.1**2 * 8)
    float32_tenth = 0.10000000149011612
    assert S.hessian((1.0, 2.0))[1] == (
        1 + 0.1 * 1e300 + 0.1**2 * 1.0, -1 + 0.1 * 2.0 + 0.1**2 * float32_tenth
    )


# ---------------------------------------------------------------- newton


def test_newton_on_one_dimensional_quadratic():
    S = ScalarField(1, lambda x: x[0] ** 2 - 2 * x[0])
    res = newton_critical_point(S, [0.0])
    assert res.converged
    assert res.point[0] == pytest.approx(1.0, abs=1e-12)


def test_newton_matches_bisection_oracle_on_circle():
    sc = circle_scenario()
    eps = 0.01
    res = newton_critical_point(sc.family.at(eps), [-1.0, 0.0, 0.0])
    assert res.converged and res.grad_norm < 1e-10
    root = bisect_root(lambda x: 4 * x * (x * x - 1) + eps, -1.1, -1.0)
    assert res.point[0] == pytest.approx(root, abs=1e-10)
    assert res.point[0] == pytest.approx(-1.00125, abs=1e-5)
    assert abs(res.point[1]) < 1e-10 and abs(res.point[2]) < 1e-10


def test_newton_far_seed_fails_or_lands_outside_basin():
    sc = circle_scenario()
    res = newton_critical_point(sc.family.at(0.01), [10.0, 10.0, 10.0])
    if res.converged:
        dists = [np.linalg.norm(np.subtract(res.point, s.point)) for s in sc.z1_sites]
        assert min(dists) > 0.5
    else:
        assert res.message in ("diverged", "no progress", "max iterations")


def test_newton_reads_an_overflowing_trial_as_no_progress():
    # the first step lands near 3e219, where x**3 raises OverflowError; array
    # arithmetic read that as inf, and so does Newton: every halving fails
    S = ScalarField(
        1,
        lambda x: x[0] ** 4 / 4 - x[0],
        lambda x: (x[0] ** 3 - 1.0,),
        lambda x: ((3.0 * x[0] ** 2,),),
    )
    res = newton_critical_point(S, [1e-110])
    assert not res.converged and res.message == "no progress"
    assert res.iterations == 1 and res.point == (1e-110,)


def test_newton_backtracks_over_a_domain_error():
    # grad = sqrt(x) - 2: the full step from 100 lands at -60, where math.sqrt
    # raises ValueError; the halved step to 20 makes progress
    S = ScalarField(
        1,
        lambda x: 2.0 / 3.0 * x[0] ** 1.5 - 2.0 * x[0],
        lambda x: (math.sqrt(x[0]) - 2.0,),
        lambda x: ((0.5 / math.sqrt(x[0]),),),
    )
    res = newton_critical_point(S, [100.0])
    assert res.converged
    assert res.point[0] == pytest.approx(4.0, abs=1e-12)


def test_newton_steps_by_the_pseudo_inverse_on_a_singular_hessian(monkeypatch):
    # Hess S = diag(2, 12 y^2) is singular at y = 0: the first step is the
    # pseudo-inverse one, the second finds only a kernel gradient and descends
    calls = []

    def spy(H, b, rtol):
        calls.append(rtol)
        return pinv_solve(H, b, rtol=rtol)

    monkeypatch.setattr(lab, "pinv_solve", spy)
    S = ScalarField(
        2,
        lambda x: x[0] ** 2 + x[1] ** 4 - x[1],
        lambda x: (2.0 * x[0], 4.0 * x[1] ** 3 - 1.0),
        lambda x: ((2.0, 0.0), (0.0, 12.0 * x[1] ** 2)),
    )
    res = newton_critical_point(S, [1.0, 0.0])
    assert res.converged
    assert res.point == pytest.approx((0.0, 0.25 ** (1 / 3)), abs=1e-12)
    assert calls == [lab.NEWTON_PINV_RTOL] * 2


@pytest.mark.parametrize("build", [circle_scenario, sphere_scenario])
def test_newton_branches_from_z1_sites_move_by_eps_over_8(build):
    # near x = +-1 the reduced equation 4x(x^2-1) + eps = 0 moves the root by
    # -eps/8 + O(eps^2), so each branch reaches its Z1 site linearly in eps
    sc = build()
    for site in sc.z1_sites:
        for eps in (0.02, 0.01, 0.005, -0.02, -0.01, -0.005):
            res = newton_critical_point(sc.family.at(eps), site.point)
            assert res.converged
            moved = _norm([a - b for a, b in zip(res.point, site.point)])
            assert moved / abs(eps) == pytest.approx(0.125, abs=0.04 * abs(eps))


def test_newton_rejects_non_finite_seed():
    S = ScalarField(1, lambda x: x[0] ** 2)
    with pytest.raises(ValueError):
        newton_critical_point(S, [float("nan")])


# ------------------------------------------------- multipliers and leading term


def test_lagrange_multiplier_on_circle():
    sc = circle_scenario()
    for x in ([1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]):
        lam = lagrange_multiplier(sc.family.s0, sc.family.s1, x)
        assert np.allclose(lam, [-0.125, 0.0, 0.0], atol=1e-12)


def test_lagrange_multiplier_zero_rhs():
    sc = circle_scenario()
    lam = lagrange_multiplier(sc.family.s0, ScalarField.zero(3), [1.0, 0.0, 0.0])
    assert np.allclose(lam, 0.0)


def test_lagrange_multiplier_inconsistent_off_z1():
    sc = circle_scenario()
    # (0,1,0) lies on Z0 but grad S1 = e_x is tangent there: no multiplier
    with pytest.raises(MultiplierError):
        lagrange_multiplier(sc.family.s0, sc.family.s1, [0.0, 1.0, 0.0])


def test_leading_term_on_circle():
    sc = circle_scenario()
    assert leading_term(sc.family, [1.0, 0.0, 0.0]) == pytest.approx(-1 / 16, abs=1e-12)
    assert leading_term(sc.family, [-1.0, 0.0, 0.0]) == pytest.approx(-1 / 16, abs=1e-12)


def test_leading_term_reduces_to_s2_when_s1_vanishes():
    sc = circle_scenario()
    s2 = ScalarField(3, lambda x: float(x[0] + 2 * x[1]))
    family = PerturbationFamily(sc.family.s0, ScalarField.zero(3), s2)
    x = [0.6, 0.8, 0.0]  # any point of the circle
    assert leading_term(family, x) == pytest.approx(s2.value(x), abs=1e-12)


def test_leading_term_linear_model_closed_form():
    # with S0 = u1^2 + 2 u2^2 the normal Hessian is L0 = diag(2,4), and
    # grad_u S1 = c(w) = (1+w, w), so f(w) = -c L0^-1 c / 2 + S2
    sc = linear_scenario()
    for w in (-0.5, 0.0, 0.4, 1.2):
        expected = -0.5 * ((1 + w) ** 2 / 2 + w**2 / 4) + w**2
        got = leading_term(sc.family, [0.0, 0.0, w])
        assert got == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------- indices


def test_morse_index_degenerate_detection():
    sc = circle_scenario()
    with pytest.raises(DegenerateCriticalPointError):
        morse_index(sc.family.s0, [1.0, 0.0, 0.0])  # eigenvalues (8, 0, 2)


def test_morse_index_restricted_to_z0():
    sc = circle_scenario()
    east, west = sc.z1_sites
    s1_on_circle = sc.family.s1.restrict(east.z0_chart, 1)
    assert morse_index(s1_on_circle, [0.0], gap=1e-6) == 1  # cos at its max
    s1_west = sc.family.s1.restrict(west.z0_chart, 1)
    assert morse_index(s1_west, [0.0], gap=1e-6) == 0


def test_morse_index_full_negative_definite():
    S = ScalarField(3, lambda x: -sum(v * v for v in x))
    assert morse_index(S, [0.0, 0.0, 0.0]) == 3


def test_predicted_spectrum_circle():
    sc = circle_scenario()
    east, west = predicted_critical_points(sc)
    assert east.indices[1] == 1  # 0 + 1 + 0
    assert west.indices[1] == 0
    assert east.indices[-1] == 0  # -cos has a minimum at 0
    assert west.indices[-1] == 1


def reference_predicted_index(sc, pred, sign, gap=1e-6):
    """ind(S0) + ind(sign*S1|Z0) + ind(f), each term read from its own chart Hessian."""
    site = pred.site
    params = np.zeros(site.z0_dim)
    f_index = 0
    if site.flat:
        f_chart = ScalarField(site.z0_dim, lambda t: leading_term(sc.family, site.z0_chart(t)))
        params = newton_critical_point(f_chart, site.flat_seeds[0], tol=1e-8).point
        assert np.allclose(site.z0_chart(params), pred.point)
        f_index = int(np.sum(np.linalg.eigvalsh(f_chart.fd_hessian(params)) < -gap))
    s1_index = 0
    if site.z0_dim:
        restricted = sc.family.s1.restrict(site.z0_chart, site.z0_dim)
        s1_index = int(np.sum(np.linalg.eigvalsh(sign * np.asarray(restricted.fd_hessian(params))) < -gap))
    return site.component.morse_bott_index + s1_index + f_index


def test_predicted_indices_cover_both_signs():
    for build in (circle_scenario, sphere_scenario, linear_scenario):
        sc = build()
        for pred in predicted_critical_points(sc):
            for sign in (1, -1):
                expected = reference_predicted_index(sc, pred, sign)
                assert pred.indices[sign] == expected


# ------------------------------------------------------------ localisation


def test_localisation_circle():
    sc = circle_scenario()
    for rep in run_localisation(sc, [0.1, 0.01, 0.001]):
        assert rep.ok
        assert len(rep.found) == 2 == rep.predicted_count
        assert sorted(f.index for f in rep.found) == [0, 1]
        assert rep.signed_count == 0
        for f in rep.found:
            assert f.grad_residual < 1e-10
            assert f.min_abs_hessian_eig > 1e-8
        # the x-coordinates solve the reduced cubic 4x(x^2-1) + eps = 0
        root_hi = bisect_root(lambda x: 4 * x * (x * x - 1) + rep.epsilon, 0.5, 1.0)
        root_lo = bisect_root(lambda x: 4 * x * (x * x - 1) + rep.epsilon, -1.5, -1.0)
        got = sorted(f.point[0] for f in rep.found)
        assert got[0] == pytest.approx(root_lo, abs=1e-9)
        assert got[1] == pytest.approx(root_hi, abs=1e-9)


def test_localisation_circle_negative_eps():
    sc = circle_scenario()
    for rep in run_localisation(sc, [-0.1, -0.01]):
        assert rep.ok
        assert sorted(f.index for f in rep.found) == [0, 1]
        assert rep.signed_count == 0 == rep.expected_signed_count


def test_localisation_sphere():
    sc = sphere_scenario()
    for rep in run_localisation(sc, [0.1, 0.01, 0.001, -0.05]):
        assert rep.ok
        assert len(rep.found) == 2
        assert sorted(f.index for f in rep.found) == [0, 2]
        assert rep.signed_count == 2 == rep.expected_signed_count
        for f in rep.found:
            assert f.grad_residual < 1e-10


def test_localisation_linear_flat():
    sc = linear_scenario()
    preds = predicted_critical_points(sc)
    assert len(preds) == 1
    assert preds[0].point[2] == pytest.approx(0.4, abs=1e-7)
    for rep in run_localisation(sc, [0.1, 0.01]):
        assert rep.ok
        assert len(rep.found) == 1
        found = rep.found[0]
        assert found.index == 0
        # the w-coordinate of the continued point is exactly 2/5 for every eps
        assert found.point[2] == pytest.approx(0.4, abs=1e-9)
    neg = run_localisation(sc, [-0.1])[0]
    assert neg.signed_count_ok is None  # chi_c check declared unavailable
    assert neg.indices_ok and neg.bijection_ok


def test_linear_localisation_at_small_eps():
    # the eigenvalue along the flat Z1 is 1.25*eps^2 = 1.25e-10, far below 1e-8
    sc = linear_scenario()
    pos, neg = run_localisation(sc, [1e-5, -1e-5])
    for rep in (pos, neg):
        assert rep.bijection_ok and rep.indices_ok, rep.messages
        (found,) = rep.found
        assert found.index == found.predicted_index == 0
        assert found.min_abs_hessian_eig == pytest.approx(1.25e-10, rel=1e-3)
    assert pos.ok and pos.signed_count == pos.expected_signed_count == 1
    assert neg.signed_count == 1 and neg.signed_count_ok is None


def test_found_points_match_per_point_definitions():
    for build, epsilons in (
        (circle_scenario, [0.1, -0.1, 0.01, -0.01]),
        (sphere_scenario, [0.1, -0.1, 0.01, -0.01]),
        (linear_scenario, [0.1, -0.1, 1e-5, -1e-5]),
    ):
        sc = build()
        preds = predicted_critical_points(sc)
        for rep in run_localisation(sc, epsilons):
            S_eps = sc.family.at(rep.epsilon)
            sign = 1 if rep.epsilon > 0 else -1
            assert rep.found
            for f in rep.found:
                H = S_eps.hessian(f.point)
                evals = eigh(H)[0]
                gap = spectral_gap(sc, rep.epsilon, max(abs(v) for v in evals))
                assert f.index == morse_index(S_eps, f.point, gap)
                assert f.min_abs_hessian_eig == min(abs(v) for v in evals)
                assert f.value == S_eps.value(f.point)
                grad = S_eps.gradient(f.point)
                assert f.grad_residual == _norm(grad)
                # and against numpy's LAPACK, as an independent reference
                reference = np.linalg.eigvalsh(np.asarray(H))
                scale = float(np.max(np.abs(reference)))
                assert np.allclose(evals, reference, rtol=0.0, atol=1e-12 * scale)
                assert f.min_abs_hessian_eig == pytest.approx(
                    float(np.min(np.abs(reference))), rel=0.0, abs=1e-12 * scale
                )
                assert f.grad_residual == pytest.approx(float(np.linalg.norm(grad)), rel=1e-12)
                expected = reference_predicted_index(sc, preds[f.matched_prediction], sign)
                assert f.predicted_index == expected


# Recorded with the numpy-backed lab (LAPACK's eigensolver and LU) that the
# plain-float core replaced: per (scenario, eps) the report's checks, signed
# counts and messages, and per found point its coordinates, value, smallest
# |Hessian eigenvalue|, index, predicted index and matched prediction.
RECORDED = {
    ("circle", 0.1): (
        (True, True, True),
        (0, 0),
        [],
        [
            ((0.9872574766623533, 0.0, 0.0),
             0.09936698552395944, 0.10129069909713184, 1, 1, 0),
            ((-1.012273131032681, 0.0, 0.0),
             -0.10061737663815833, 0.09878756724282844, 0, 0, 1),
        ],
    ),
    ("circle", -0.02): (
        (True, True, True),
        (0, 0),
        [],
        [
            ((1.0024906869919468, 0.0, 0.0),
             -0.020024937810464716, 0.01995031002234171, 0, 0, 0),
            ((-0.9974905619825709, 0.0, 0.0),
             0.019974937185433462, 0.02005031502277932, 1, 1, 1),
        ],
    ),
    ("circle", 0.001): (
        (True, True, True),
        (0, 0),
        [],
        [
            ((0.9998749765546843, 0.0, 0.0),
             0.0009999374921855462, 0.0010001250390785366, 1, 1, 0),
            ((-1.0001249765703093, 0.0, 0.0),
             -0.0010000624921894525, 0.0009998750390467492, 0, 0, 1),
        ],
    ),
    ("sphere", 0.1): (
        (True, True, True),
        (2, 2),
        [],
        [
            ((0.0, 0.0, 0.9872574766623533),
             0.09936698552395944, 0.10129069909713184, 2, 2, 0),
            ((0.0, 0.0, -1.012273131032681),
             -0.10061737663815833, 0.09878756724282844, 0, 0, 1),
        ],
    ),
    ("sphere", -0.02): (
        (True, True, True),
        (2, 2),
        [],
        [
            ((0.0, 0.0, 1.0024906869919468),
             -0.020024937810464716, 0.01995031002234171, 0, 0, 0),
            ((0.0, 0.0, -0.9974905619825709),
             0.019974937185433462, 0.02005031502277932, 2, 2, 1),
        ],
    ),
    ("sphere", 0.001): (
        (True, True, True),
        (2, 2),
        [],
        [
            ((0.0, 0.0, 0.9998749765546843),
             0.0009999374921855462, 0.0010001250390785366, 2, 2, 0),
            ((0.0, 0.0, -1.0001249765703093),
             -0.0010000624921894525, 0.0009998750390467492, 0, 0, 1),
        ],
    ),
    ("linear", 0.1): (
        (True, True, True),
        (1, 1),
        [],
        [
            ((-0.06999999999999999, -0.009999999999999997, 0.39999999999999986),
             -0.003500000000000003, 0.012460840229611466, 0, 0, 0),
        ],
    ),
    ("linear", -0.02): (
        (True, True, None),
        (1, -1),
        ["eps < 0 signed-count check skipped: S1|Z0 not declared proper"],
        [
            ((0.013999999999999999, 0.002, 0.39999999999999997),
             -0.00013999999999999993, 0.0004999374937516489, 0, 0, 0),
        ],
    ),
    ("linear", 0.001): (
        (True, True, True),
        (1, 1),
        [],
        [
            ((-0.0007, -0.0001, 0.4),
             -3.5000000000000014e-07, 1.2499996086405392e-06, 0, 0, 0),
        ],
    ),
}


def test_localisation_matches_recorded_values():
    for name in ("circle", "sphere", "linear"):
        for rep in run_localisation(scenario_by_name(name), [0.1, -0.02, 1e-3]):
            checks, counts, messages, found = RECORDED[(name, rep.epsilon)]
            assert (rep.bijection_ok, rep.indices_ok, rep.signed_count_ok) == checks
            assert (rep.signed_count, rep.expected_signed_count) == counts
            assert rep.messages == messages
            assert rep.ok and not rep.degenerate_abstained
            assert len(rep.found) == len(found)
            for f, (point, value, min_eig, index, predicted, matched) in zip(rep.found, found):
                assert (f.index, f.predicted_index, f.matched_prediction) == (index, predicted, matched)
                assert not f.outside_basin
                for got, want in zip((*f.point, f.value, f.min_abs_hessian_eig), (*point, value, min_eig)):
                    assert math.isclose(got, want, rel_tol=1e-9, abs_tol=0.0), (name, rep.epsilon)


def test_degenerate_spectrum_message_is_unchanged():
    (rep,) = run_localisation(sphere_scenario(), [1e-12])
    assert (rep.bijection_ok, rep.indices_ok, rep.signed_count_ok) == (True, False, False)
    assert [f.index for f in rep.found] == [None, None]
    assert rep.messages == ["Hessian eigenvalue within gap 8e-12: spectrum [0.0, 0.0, 8.0]"] * 2


def test_localisation_reads_each_restricted_hessian_once(monkeypatch):
    calls = []
    fd_hessian = ScalarField.fd_hessian

    def counted(self, x):
        calls.append(x)
        return fd_hessian(self, x)

    monkeypatch.setattr(ScalarField, "fd_hessian", counted)
    reports = run_localisation(circle_scenario(), [0.1, -0.1, 0.01, -0.01])
    assert all(rep.ok for rep in reports)
    assert len(calls) == 2  # one S1|Z0 Hessian per prediction, for every eps and sign


def test_spectral_gap_follows_predicted_eigenvalue_order():
    eps, norm = 1e-5, 4.0
    flat = spectral_gap(linear_scenario(), eps, norm)  # O(eps^2) along the flat Z1
    isolated = spectral_gap(circle_scenario(), eps, norm)  # O(eps) inside Z0
    assert 0 < flat < 1.25 * eps**2 < isolated < eps
    assert spectral_gap(circle_scenario(), -eps, norm) == isolated
    # a relative eigenvalue scale is at most 1, so |eps| > 1 does not widen the gap
    assert spectral_gap(linear_scenario(), 1e150, norm) == spectral_gap(linear_scenario(), 1.0, norm)
    # an O(eps^2) eigenvalue where O(eps) is predicted reads as degenerate
    def quadratic(a, b):
        return ScalarField(
            2, lambda x: a * x[0] ** 2 + b * x[1] ** 2, hess=lambda x: np.diag([2 * a, 2 * b])
        )

    S = quadratic(4.0, eps**2)
    with pytest.raises(DegenerateCriticalPointError):
        morse_index(S, [0.0, 0.0], gap=spectral_gap(circle_scenario(), eps, 8.0))
    assert morse_index(S, [0.0, 0.0], gap=spectral_gap(linear_scenario(), eps, 8.0)) == 0
    # below float64 resolution the gap stops shrinking, so an exact zero still trips
    tiny = spectral_gap(linear_scenario(), 1e-9, norm)
    assert tiny == pytest.approx(norm * 1e-12)
    with pytest.raises(DegenerateCriticalPointError):
        morse_index(quadratic(2.0, 0.0), [0.0, 0.0], gap=tiny)


def test_localisation_abstains_on_degenerate_family():
    sc = circle_scenario()
    degenerate = circle_scenario()
    degenerate.family = PerturbationFamily(
        sc.family.s0, ScalarField.zero(3), ScalarField.zero(3)
    )
    rep = run_localisation(degenerate, [0.1])[0]
    assert rep.degenerate_abstained and not rep.ok


def test_record_construction_semantics():
    comp = Z0Component("point", 1, 1, 0)
    site = Z1Site([1, 0, 0], comp, lambda t: np.zeros(3), z0_dim=0)
    assert isinstance(site.point, tuple) and all(type(v) is float for v in site.point)
    assert site.point == (1.0, 0.0, 0.0)
    assert not site.flat and site.flat_seeds == ()
    first, second = ExperimentReport("a", 0.1, False), ExperimentReport("b", 0.2, False)
    assert first.found is not second.found and first.messages is not second.messages
    first.messages.append("note")
    assert second.messages == [] and first.as_dict()["messages"] == ["note"]
    result = NewtonResult(np.zeros(1), 0.0, 0.0, 0, True)
    assert result.message == ""
    assert result._fields == ("point", "grad_norm", "value", "iterations", "converged", "message")


def test_localisation_rejects_zero_eps():
    with pytest.raises(ValueError):
        run_localisation(circle_scenario(), [0.0])


def test_tangential_s1_flags_a_point_of_z0_off_z1():
    # (0, 1, 0) lies on the unit circle, where grad S1 = (1, 0, 0) is tangent
    sc = circle_scenario()
    off = (0.0, 1.0, 0.0)
    assert _norm(scenarios._tangential_s1(sc.family, off)) == 1.0
    sc.z1_sites = (Z1Site(off, sc.components[0], lambda t: off, z0_dim=1),)
    assert sc.validate() == ["site [0.0, 1.0, 0.0]: tangential |grad S1| = 1.000e+00"]


# ---------------------------------------------------------------- scenarios


def test_builtin_scenarios_validate():
    for build in ALL_SCENARIOS:
        assert build().validate() == []


def test_scenario_registry():
    assert scenario_names() == ["circle", "linear", "sphere"]
    builders = [n for n in scenarios.__all__ if n.endswith("_scenario")]
    assert sorted(n.removesuffix("_scenario") for n in builders) == scenario_names()
    assert scenario_by_name("circle").name == "circle"
    with pytest.raises(ValueError) as err:
        scenario_by_name("nosuch")
    for name in ("circle", "linear", "sphere"):
        assert name in str(err.value)
