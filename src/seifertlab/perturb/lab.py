"""Newton continuation, Morse indices, leading terms, and localisation runs.

The tolerances are module constants, each with a comment on what it bounds:
the block below, RANK_RTOL in linalg.py and the finite-difference steps
in fields.py.  A call passes only newton_critical_point's tol and
run_localisation's basin_radius and c_bound; the command line sets both.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .fields import PerturbationFamily, ScalarField, Vector
from .linalg import (
    RANK_RTOL,
    LinAlgError,
    _add,
    _axpy,
    _dot,
    _matvec,
    _neg,
    _norm,
    _sub,
    eigh,
    exact_inertia,
    inertia_counts,
    pinv_solve,
    solve,
)
from .scenarios import Scenario, Z1Site

__all__ = [
    "NewtonResult",
    "newton_critical_point",
    "DegenerateCriticalPointError",
    "MultiplierError",
    "lagrange_multiplier",
    "leading_term",
    "PredictedPoint",
    "predicted_critical_points",
    "FoundPoint",
    "ExperimentReport",
    "run_localisation",
]

DIVERGENCE_NORM = 1e6  # an iterate farther than this from the origin ends Newton as diverged
NEWTON_TOL = 1e-10  # |grad S_eps| at which Newton stops, unless a call asks for another
NEWTON_PINV_RTOL = 1e-12  # rank cutoff, relative to max|eigenvalue|, of a singular Newton step
NEWTON_MAX_ITER = 100  # Newton steps before newton_critical_point gives up
POLISH_ROUNDS = 2  # full Newton steps tried after convergence, each kept if |grad| drops
DEDUPE_RADIUS = 10 * NEWTON_TOL  # Newton limits closer than this are one point of S_eps
CHART_NEWTON_TOL = 1e-8  # |grad f| at which Newton stops in a flat Z1's chart
CHART_DEDUPE_RADIUS = 1e-6  # chart critical points of f closer than this are one
MULTIPLIER_RESIDUAL = 1e-8  # |Hess S0 lambda + grad S1| from which a point is off Z1
RESTRICTED_GAP = 1e-6  # inertia gap for finite-difference chart Hessians
# what float ** and the math functions raise where array arithmetic gives inf or nan
_NON_FINITE = (ArithmeticError, ValueError)


class DegenerateCriticalPointError(RuntimeError):
    """A chart Hessian eigenvalue sits inside the gap RESTRICTED_GAP."""


class MultiplierError(RuntimeError):
    """The Lagrange-multiplier system is inconsistent at the given point."""


class NewtonResult(
    namedtuple(
        "NewtonResult",
        "point grad_norm value iterations converged message hessian",
        defaults=("", None),
    )
):
    """The outcome of one Newton run.

    ``hessian`` is Hess S at ``point`` when a polish round evaluated it there,
    so a caller reads the spectrum without evaluating it again.  It is None
    when no round did, and when that evaluation raised: a caller that
    evaluates it then sees the error.
    """

    __slots__ = ()


def _or_nan(evaluate, x: Vector, nan):
    """evaluate(x), or ``nan`` where a float overflow or a domain error stops it.

    Array arithmetic gives inf or nan there, and Newton reads a non-finite
    trial as no progress and a huge iterate as divergence, so an overflow on
    the way there is expected, not an error.
    """
    try:
        return evaluate(x)
    except _NON_FINITE:
        return nan


def newton_critical_point(S: ScalarField, seed, tol: float = NEWTON_TOL) -> NewtonResult:
    """Damped Newton iteration on grad S from the given seed, until |grad| <= tol.

    Steps solve Hess * d = -grad, falling back to the spectral pseudo-inverse
    when the Hessian is singular (which happens exactly on the unperturbed
    critical manifold, where seeds usually start).  Each step is backtracked
    until the gradient norm decreases.  Fails on divergence (iterate norm
    above DIVERGENCE_NORM), on a step that cannot make progress, or after
    NEWTON_MAX_ITER steps.
    """
    x = tuple(map(float, seed))
    if not all(map(math.isfinite, x)):
        raise ValueError("seed must be finite")
    nan_vector = (math.nan,) * len(x)
    nan_matrix = (nan_vector,) * len(x)
    g = _or_nan(S.gradient, x, nan_vector)
    gnorm = _norm(g)
    for it in range(NEWTON_MAX_ITER):
        if gnorm <= tol:
            x, gnorm, H = _polish(S, x, g, gnorm)
            return NewtonResult(x, gnorm, _or_nan(S.value, x, math.nan), it, True, hessian=H)
        if _norm(x) > DIVERGENCE_NORM:
            return NewtonResult(x, gnorm, _or_nan(S.value, x, math.nan), it, False, "diverged")
        H = _or_nan(S.hessian, x, nan_matrix)
        try:
            step = solve(H, _neg(g))
            if not all(map(math.isfinite, step)):
                raise LinAlgError
        except LinAlgError:
            step = _neg(pinv_solve(H, g, rtol=NEWTON_PINV_RTOL))
        if _norm(step) == 0.0:
            step = _neg(g)  # kernel-only gradient: descend directly
        t = 1.0
        moved = False
        while t >= 2.0**-30:
            xn = _axpy(t, step, x)
            gn = _or_nan(S.gradient, xn, nan_vector)
            gn_norm = _norm(gn)
            if math.isfinite(gn_norm) and gn_norm < gnorm:
                x, g, gnorm = xn, gn, gn_norm
                moved = True
                break
            t *= 0.5
        if not moved:
            value = _or_nan(S.value, x, math.nan)
            return NewtonResult(x, gnorm, value, it + 1, False, "no progress")
    value = _or_nan(S.value, x, math.nan)
    return NewtonResult(x, gnorm, value, NEWTON_MAX_ITER, gnorm <= tol, "max iterations")


def _polish(S: ScalarField, x, g, gnorm):
    """Extra full Newton steps once converged, keeping only strict improvements.

    Returns the point, its |grad| and Hess S there: the Hessian of the round
    that stopped at the point, or None if every round moved on or the
    evaluation there failed.
    """
    nan_vector = (math.nan,) * len(x)
    nan_matrix = (nan_vector,) * len(x)
    H = None
    for _ in range(POLISH_ROUNDS):
        H = _or_nan(S.hessian, x, nan_matrix)
        try:
            step = solve(H, _neg(g))
        except LinAlgError:
            break
        xn = _add(x, step)
        gn = _or_nan(S.gradient, xn, nan_vector)
        gn_norm = _norm(gn)
        if not math.isfinite(gn_norm) or gn_norm >= gnorm:
            break
        x, g, gnorm = xn, gn, gn_norm
        H = None  # evaluated at the point just left
    return x, gnorm, None if H is nan_matrix else H


def _index(evals, gap: float) -> int:
    """Negative count of a spectrum; raises if an eigenvalue lies within gap."""
    neg, null, _ = inertia_counts(evals, gap)
    if null:
        raise DegenerateCriticalPointError(
            f"Hessian eigenvalue within gap {gap:g}: spectrum {list(evals)}"
        )
    return neg


def lagrange_multiplier(s0: ScalarField, s1: ScalarField, x) -> Vector:
    """Minimal-norm solution lambda of Hess S0(x) * lambda = -grad S1(x).

    Solved through the spectral pseudo-inverse with rank cutoff
    RANK_RTOL * max|eigenvalue|.  The system is consistent exactly when the
    part of grad S1 tangent to Crit(S0) vanishes, i.e. when x lies on Z1; a
    residual at or above MULTIPLIER_RESIDUAL is reported as an error.
    """
    H = s0.hessian(x)
    g = s1.gradient(x)
    lam = _neg(pinv_solve(H, g, rtol=RANK_RTOL))
    residual = _norm(_add(_matvec(H, lam), g))
    if residual >= MULTIPLIER_RESIDUAL:
        raise MultiplierError(
            f"multiplier residual {residual:.3e} >= {MULTIPLIER_RESIDUAL:g}; "
            "the point does not lie on Z1 of a Morse-Bott pair"
        )
    return lam


def leading_term(family: PerturbationFamily, x) -> float:
    """The localisation leading term (1/2) <grad S1, lambda> + S2 at x on Z1."""
    lam = lagrange_multiplier(family.s0, family.s1, x)
    return 0.5 * _dot(family.s1.gradient(x), lam) + family.s2.value(x)


class PredictedPoint(namedtuple("PredictedPoint", "point site indices")):
    """A critical point of the leading term, tagged with its Z1 site.

    ``indices`` maps the sign of eps to the predicted Morse index
    ind(S0) + ind(+-S1|Z0) + ind(f) of the critical point of S_eps that
    continues this one.
    """

    __slots__ = ()


def _f_chart_field(family: PerturbationFamily, site: Z1Site) -> ScalarField:
    return ScalarField(site.z0_dim, f=lambda t: leading_term(family, site.z0_chart(t)))


def predicted_critical_points(scenario: Scenario) -> list[PredictedPoint]:
    """Critical points of the leading term over Z1, with their predicted indices.

    Isolated Z1 points are critical outright (a function on a finite set),
    with index 0.  On a flat, the leading term is minimized in chart
    coordinates by Newton from the declared seeds and the index read from
    the inertia of the chart Hessian Newton stopped with, gap RESTRICTED_GAP.
    One Hessian of S1|Z0 per point gives the S1 term for both signs of eps:
    ind(-S1|Z0) is its positive count.
    """
    out: list[PredictedPoint] = []
    for site in scenario.z1_sites:
        if site.flat:
            f_chart = _f_chart_field(scenario.family, site)
            found: list[NewtonResult] = []
            for seed in site.flat_seeds:
                res = newton_critical_point(f_chart, seed, tol=CHART_NEWTON_TOL)
                if not res.converged:
                    continue
                if all(_norm(_sub(res.point, r.point)) > CHART_DEDUPE_RADIUS for r in found):
                    found.append(res)
            charted = []
            for res in found:
                p = res.point
                H = res.hessian if res.hessian is not None else f_chart.hessian(p)
                charted.append((site.z0_chart(p), p, _index(eigh(H)[0], RESTRICTED_GAP)))
        else:
            charted = [(site.point, (0.0,) * site.z0_dim, 0)]
        restricted = scenario.family.s1.restrict(site.z0_chart, site.z0_dim)
        for point, params, f_index in charted:
            s1_neg = s1_pos = 0
            if site.z0_dim:
                evals = eigh(restricted.fd_hessian(params))[0]
                s1_neg, _, s1_pos = inertia_counts(evals, RESTRICTED_GAP)
            base = site.component.morse_bott_index + f_index
            out.append(
                PredictedPoint(
                    point=tuple(map(float, point)),
                    site=site,
                    indices={1: base + s1_neg, -1: base + s1_pos},
                )
            )
    return out


class FoundPoint(
    namedtuple(
        "FoundPoint",
        "point value grad_residual index predicted_index matched_prediction"
        " min_abs_hessian_eig outside_basin",
        defaults=(False,),
    )
):
    """``matched_prediction`` is the point's position in the predicted list."""

    __slots__ = ()


class ExperimentReport(
    namedtuple(
        "ExperimentReport",
        "scenario epsilon degenerate_abstained found predicted_count bijection_ok"
        " indices_ok signed_count expected_signed_count signed_count_ok messages",
        defaults=((), 0, None, None, None, None, None, ()),
    )
):
    """The outcome of one eps in a localisation run.

    ``found`` holds the FoundPoints and ``messages`` the notes of the run;
    both default to empty.
    """

    __slots__ = ()

    @property
    def ok(self) -> bool:
        if self.degenerate_abstained:
            return False
        checks = [self.bijection_ok, self.indices_ok]
        if self.signed_count_ok is not None:
            checks.append(self.signed_count_ok)
        return all(c is True for c in checks)

    def as_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "epsilon": self.epsilon,
            "degenerate_abstained": self.degenerate_abstained,
            "found": [f._asdict() for f in self.found],
            "predicted_count": self.predicted_count,
            "checks": {
                "bijection": self.bijection_ok,
                "indices": self.indices_ok,
                "signed_count": self.signed_count_ok,
            },
            "signed_count": self.signed_count,
            "expected_signed_count": self.expected_signed_count,
            "ok": self.ok,
            "messages": list(self.messages),
        }


def _expected_signed_count(scenario: Scenario, eps_sign: int) -> int:
    total = 0
    for comp in scenario.components:
        weight = comp.chi if eps_sign > 0 else comp.chi_c
        total += (-1) ** comp.morse_bott_index * weight
    return total


def run_localisation(
    scenario: Scenario,
    epsilons,
    basin_radius: float = 0.5,
    c_bound: float = 1e3,
) -> list[ExperimentReport]:
    """Localise Crit(S_eps) near Z1 for each eps and verify the predictions.

    For each eps: Newton from every leading-term critical point, deduplicate
    (radius DEDUPE_RADIUS), then check (a) found points biject onto the
    predictions within basin_radius, (b) each Morse index, the exact inertia
    of the Hessian at the float point, matches the three-term index sum, (c)
    the signed count equals the chi-weighted component formula (chi_c-weighted
    for eps < 0; skipped when the scenario declares the properness
    hypothesis unavailable).  Points with norm above c_bound are flagged as
    outside the localisation neighborhood and excluded from (a).  A singular
    or non-finite Hessian gives no index, and a message names its spectrum.
    """
    preds = predicted_critical_points(scenario)
    family = scenario.family
    reports: list[ExperimentReport] = []
    for eps in epsilons:
        eps = float(eps)
        if eps == 0.0:
            raise ValueError("epsilon must be nonzero")
        if family.s1.is_zero and family.s2.is_zero:
            reports.append(
                ExperimentReport(
                    scenario=scenario.name,
                    epsilon=eps,
                    degenerate_abstained=True,
                    messages=[
                        "S1 = S2 = 0: Z1 = Z0 is not finite, localisation undefined"
                    ],
                )
            )
            continue
        sign = 1 if eps > 0 else -1
        S_eps = family.at(eps)
        found: list[FoundPoint] = []
        messages: list[str] = []
        results: list[NewtonResult] = []
        for i, pred in enumerate(preds):
            res = newton_critical_point(S_eps, pred.point)
            if not res.converged:
                messages.append(f"newton failed from prediction {i}: {res.message}")
                continue
            if all(_norm(_sub(res.point, r.point)) >= DEDUPE_RADIUS for r in results):
                results.append(res)

        # nearest-prediction assignment; a basin miss or a collision breaks it
        used: set[int] = set()
        bijection = True
        for res in results:
            x = res.point
            outside = _norm(x) > c_bound
            dists = [_norm(_sub(x, p.point)) for p in preds]
            j = min(range(len(dists)), key=dists.__getitem__) if dists else None
            matched = j if (j is not None and dists[j] <= basin_radius) else None
            if matched is None or matched in used:
                if not outside:
                    bijection = False
                matched = None
            else:
                used.add(matched)
            H = res.hessian if res.hessian is not None else S_eps.hessian(x)
            evals = eigh(H)[0]
            index: int | None = None
            if not all(math.isfinite(v) for row in H for v in row):
                messages.append(f"non-finite Hessian: spectrum {list(evals)}")
            else:
                index, zero, _ = exact_inertia(H)
                if zero:
                    index = None
                    messages.append(f"singular Hessian: spectrum {list(evals)}")
            found.append(
                FoundPoint(
                    point=x,
                    value=res.value,
                    grad_residual=res.grad_norm,
                    index=index,
                    predicted_index=None if matched is None else preds[matched].indices[sign],
                    matched_prediction=matched,
                    min_abs_hessian_eig=min(map(abs, evals)),
                    outside_basin=outside,
                )
            )
        inside = [f for f in found if not f.outside_basin]
        indices_ok = bool(inside) and all(
            f.index is not None and f.index == f.predicted_index for f in inside
        )
        signed_count = sum((-1) ** f.index for f in inside if f.index is not None)
        expected = _expected_signed_count(scenario, sign)
        signed_count_ok = None
        if sign > 0 or scenario.chi_c_count_valid:
            signed_count_ok = signed_count == expected
        else:
            messages.append("eps < 0 signed-count check skipped: S1|Z0 not declared proper")
        reports.append(
            ExperimentReport(
                scenario=scenario.name,
                epsilon=eps,
                degenerate_abstained=False,
                found=found,
                predicted_count=len(preds),
                bijection_ok=bijection and len(used) == len(preds) == len(inside),
                indices_ok=indices_ok,
                signed_count=signed_count,
                expected_signed_count=expected,
                signed_count_ok=signed_count_ok,
                messages=messages,
            )
        )
    return reports

