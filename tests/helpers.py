"""Shared generators and reference routes for sweep and property tests."""

from __future__ import annotations

import math
import random
from itertools import combinations
from math import gcd

from fractions import Fraction

import numpy as np

from seifertlab.errors import ConsistencyError
from seifertlab.exact import LaurentPoly
from seifertlab.moduli import EVector, _check_enumerated
from seifertlab.orbifold import (
    LineBundleData,
    Orbifold,
    _exponent,
    _prefixes,
    h0,
    normalize,
    power,
    tensor,
)
from seifertlab.perturb.fields import ScalarField
from seifertlab.perturb.lab import _index
from seifertlab.perturb.linalg import _EPS, _MAX_SWEEPS, RANK_RTOL, LinAlgError, eigh
from seifertlab.seifert import SeifertData, bundle_log, n_bundle, require_homology_sphere


def coprime_tuples(n: int, limit: int) -> list[tuple[int, ...]]:
    """All strictly increasing pairwise-coprime n-tuples with entries in [2, limit]."""
    out = []
    for combo in combinations(range(2, limit + 1), n):
        if all(gcd(a, b) == 1 for a, b in combinations(combo, 2)):
            out.append(combo)
    return out


def coprime_triples(limit: int) -> list[tuple[int, int, int]]:
    return coprime_tuples(3, limit)


def random_poly(rng: random.Random, max_terms: int = 5) -> LaurentPoly:
    return LaurentPoly(
        {
            rng.randint(-6, 6): rng.randint(-9, 9)
            for _ in range(rng.randint(0, max_terms))
        }
    )


def random_orbifold(rng: random.Random, max_points: int = 4, max_order: int = 12) -> Orbifold:
    n = rng.randint(1, max_points)
    return Orbifold(tuple(rng.randint(2, max_order) for _ in range(n)))


def random_bundle(rng: random.Random, C: Orbifold) -> LineBundleData:
    return normalize(
        rng.randint(-8, 8),
        [rng.randint(-15, 15) for _ in C.alphas],
        C,
    )


def degree(L: LineBundleData) -> Fraction:
    """Orbifold degree e + sum beta_i/alpha_i, exact: one Fraction over prod alpha_i."""
    C = L.orbifold
    return Fraction(L.e * C.scale + sum(b * c for b, c in zip(L.betas, C.cofactors)), C.scale)


def canonical_bundle(C: Orbifold) -> LineBundleData:
    """The canonical bundle K, with data (-2; alpha_1 - 1, ..., alpha_n - 1).

    Its orbifold degree equals -chi(C).
    """
    return LineBundleData(-2, tuple(a - 1 for a in C.alphas), C)


def trivial_bundle(C: Orbifold) -> LineBundleData:
    return LineBundleData(0, (0,) * C.n, C)


def dual(L: LineBundleData) -> LineBundleData:
    return power(L, -1)


def exponent_via_bundles(C: Orbifold, v: EVector) -> int:
    """Morse-Bott half-index as the section count h^0(L^(-1) K^2).

    Pure bundle arithmetic on the divisor bundle L of the vector; independent
    of ``moduli.exponent_closed_form``, which it must equal.
    """
    _check_enumerated(C, v)
    K = canonical_bundle(C)
    return h0(tensor(dual(normalize(v.e, v.betas, C)), tensor(K, K)))


def solve_L0_k(L: LineBundleData, S: SeifertData) -> tuple[int, int]:
    """Express a divisor bundle as L0^(-2) N^k K with L0 = N^m0 and k in {0,1}.

    With m_L = bundle_log(L) and m_K = bundle_log(K) the parity equation
    -2*m0 + k + m_K = m_L forces k = (m_L - m_K) mod 2 and
    m0 = (k + m_K - m_L) // 2.  The postcondition is re-checked on bundle data.
    """
    m_L = bundle_log(L, S)  # rejects a foreign bundle or a non-homology sphere
    K = canonical_bundle(S.orbifold)
    m_K = bundle_log(K, S)
    k = (m_L - m_K) % 2
    m0 = (k + m_K - m_L) // 2
    N = n_bundle(S)
    if tensor(tensor(power(power(N, m0), -2), power(N, k)), K) != L:
        raise ConsistencyError(f"(l0_power={m0}, k={k}) fails to rebuild bundle {L.as_dict()}")
    return m0, k


def signature_per_point(p: int, q: int, r: int) -> int:
    """The lattice signature by its definition: one visit per point (i, j, k).

    Counts triples 0 < i < p, 0 < j < q, 0 < k < r by the residue of
    s = i/p + j/q + k/r mod 2: s in (0,1) contributes +1, s in (1,2)
    contributes -1, and a boundary value s in {0,1,2} is a ConsistencyError.
    """
    m = p * q * r
    qr, pr, pq = q * r, p * r, p * q
    plus = minus = 0
    for i in range(1, p):
        base_i = i * qr
        for j in range(1, q):
            base_ij = base_i + j * pr
            for k in range(1, r):
                num = base_ij + k * pq  # s = num / m, with 0 < s < 3
                red = num % (2 * m)
                if red == 0 or red == m:
                    raise ConsistencyError(
                        f"boundary lattice value s = {num}/{m} at (i,j,k)=({i},{j},{k})"
                    )
                if red < m:
                    plus += 1
                else:
                    minus += 1
    return plus - minus


def excess_euler_per_leaf(S: SeifertData) -> int:
    """The count-only scan by its definition: one step per leaf.

    The reference for ``singularity._excess_euler``, which sums each
    prefix's leaves in closed form: a leaf with scaled partial degree acc
    takes t = (A*deg K - 1 - acc) // A + 1 vectors, whose e + 1 sum to
    t(t + 1)/2, and each leaf's least m*A is checked to be a non-negative
    multiple of A.
    """
    require_homology_sphere(S)
    C = S.orbifold
    A, limit = C.scale, C.scaled_deg_k
    a, step = C.alphas[-1], C.cofactors[-1]
    total = 0
    for acc, frac, betas in _prefixes(C):
        for beta in range(a):
            nxt = acc + beta * step
            if nxt >= limit:
                break
            t = (limit - 1 - nxt) // A + 1
            least = limit - nxt - t * A + frac + (beta + 1) % a * step
            if least % A or least < 0:  # _exponent names the failing vector
                _exponent(least, A, (t - 1,) + betas + (beta,))
            total += t * (t + 1) // 2
    return total


def part_by_part(family, eps: float):
    """S_eps's value, gradient and Hessian, each part taken through its own field.

    The reference for ``PerturbationFamily.at``, whose field calls the
    parts' callbacks directly in one pass and must agree bit for bit.
    """
    s0, s1, s2 = family.s0, family.s1, family.s2

    def combine(v0, v1, v2):
        return tuple([a + eps * b + eps**2 * c for a, b, c in zip(v0, v1, v2)])

    def value(x):
        return s0.value(x) + eps * s1.value(x) + eps**2 * s2.value(x)

    def gradient(x):
        return combine(s0.gradient(x), s1.gradient(x), s2.gradient(x))

    def hessian(x):
        h0, h1, h2 = s0.hessian(x), s1.hessian(x), s2.hessian(x)
        return tuple([combine(r0, r1, r2) for r0, r1, r2 in zip(h0, h1, h2)])

    return value, gradient, hessian


def solve_by_slices(A, b) -> tuple[float, ...]:
    """LU with partial pivoting on slice copies of the augmented rows.

    The reference for ``linalg.solve``, which runs the same float operations
    in the same order by index and must agree bit for bit.
    """
    n = len(A)
    a = [[*map(float, row), float(bi)] for row, bi in zip(A, b)]  # [A | b]
    for k in range(n):
        p, big = k, abs(a[k][k])
        for i in range(k + 1, n):
            if abs(a[i][k]) > big:
                p, big = i, abs(a[i][k])
        if big == 0.0:
            raise LinAlgError("Singular matrix")
        a[k], a[p] = a[p], a[k]
        pivot, tail = a[k][k], a[k][k + 1:]
        for row in a[k + 1:]:
            m = row[k] / pivot
            row[k + 1:] = [v - m * u for v, u in zip(row[k + 1:], tail)]
    x = [row[n] for row in a]
    for k in range(n - 1, -1, -1):  # back substitution, column by column
        xk = x[k] = x[k] / a[k][k]
        for i in range(k):
            x[i] -= xk * a[i][k]
    return tuple(x)


# Jacobi's cyclic order for each dimension met so far: each (p, q) with
# p < q, and the other indices
_ROTATION_PAIRS: dict[int, tuple[tuple[int, int, tuple[int, ...]], ...]] = {}


def eigh_by_loops(A) -> tuple[tuple[float, ...], tuple[tuple[float, ...], ...]]:
    """Cyclic Jacobi with loops over the rotation pairs, rows and columns.

    The reference for ``linalg.eigh`` on 3 x 3 matrices, whose written-out
    rotations run the same float operations in the same order and must agree
    bit for bit.  This is ``linalg.eigh``'s generic path, copied.
    """
    n = len(A)
    a = [list(map(float, row)) for row in A]
    w = [[0.0] * n for _ in range(n)]  # rows: the eigenvectors
    for i in range(n):
        w[i][i] = 1.0
        for j in range(i):
            a[j][i] = a[i][j]
    if not all(math.isfinite(v) for row in a for v in row):
        return (math.nan,) * n, tuple(map(tuple, w))
    sqrt = math.sqrt
    pairs = _ROTATION_PAIRS.get(n)
    if pairs is None:
        pairs = _ROTATION_PAIRS[n] = tuple([
            (p, q, tuple([r for r in range(n) if r != p and r != q]))
            for p in range(n)
            for q in range(p + 1, n)
        ])
    for _ in range(_MAX_SWEEPS):
        rotated = False
        for p, q, others in pairs:
            ap, aq = a[p], a[q]
            apq, app, aqq = ap[q], ap[p], aq[q]
            if abs(apq) <= _EPS * sqrt(abs(app)) * sqrt(abs(aqq)):
                ap[q] = aq[p] = 0.0
                continue
            rotated = True
            theta = (aqq - app) / (2.0 * apq)
            t = 1.0 / (abs(theta) + math.hypot(theta, 1.0))
            if theta < 0.0:
                t = -t
            c = 1.0 / sqrt(t * t + 1.0)
            s = t * c
            tau = s / (1.0 + c)
            h = t * apq
            ap[p] = app - h
            aq[q] = aqq + h
            ap[q] = aq[p] = 0.0
            for r in others:
                ar = a[r]
                g, k = ar[p], ar[q]
                ar[p] = ap[r] = g - s * (k + g * tau)
                ar[q] = aq[r] = k + s * (g - k * tau)
            wp, wq = w[p], w[q]
            for i in range(n):
                g, k = wp[i], wq[i]
                wp[i] = g - s * (k + g * tau)
                wq[i] = k + s * (g - k * tau)
        if not rotated:
            d = [a[i][i] for i in range(n)]
            order = sorted(range(n), key=d.__getitem__)
            return tuple([d[i] for i in order]), tuple([tuple(w[i]) for i in order])
    raise LinAlgError("Eigenvalues did not converge")


VALIDATE_TOL = 1e-8  # a residual scenario_problems reads as zero lies below this
VALIDATE_SAMPLES = 32  # Z0 points scenario_problems checks


def morse_index(S: ScalarField, x, gap: float = 1e-8) -> int:
    """Number of Hessian eigenvalues below -gap at a nondegenerate point.

    Any eigenvalue of magnitude <= gap raises: a spectral gap is a
    precondition here, and a value inside the band means the point is
    degenerate at this resolution.
    """
    return _index(eigh(S.hessian(x))[0], gap)


def circle_z0(n: int) -> list[tuple[float, float, float]]:
    """n evenly spaced points of the unit circle in the z = 0 plane."""
    thetas = [i * (2 * math.pi / n) for i in range(n)]
    return [(math.cos(th), math.sin(th), 0.0) for th in thetas]


def sphere_z0(n: int) -> list[tuple[float, float, float]]:
    """n points of the unit sphere on a Fibonacci lattice."""
    # equal-area bands in z, golden-angle steps in longitude
    out = []
    for k in range(n):
        i = k + 0.5
        z = 1.0 - 2.0 * i / n
        r = math.sqrt(1.0 - z * z)
        phi = math.pi * (3.0 - math.sqrt(5.0)) * i
        out.append((r * math.cos(phi), r * math.sin(phi), z))
    return out


def linear_z0(n: int) -> list[tuple[float, float, float]]:
    """n evenly spaced points of the w-axis from w = -2 to w = 2."""
    step = 4.0 / max(n - 1, 1)
    return [(0.0, 0.0, -2.0 + k * step) for k in range(n)]


# each registered scenario's sampler of Z0, by name
Z0_SAMPLERS = {"circle": circle_z0, "sphere": sphere_z0, "linear": linear_z0}


def tangential_s1(family, x) -> np.ndarray:
    """grad S1(x) on an orthonormal basis of Ker Hess S0(x), the tangent space of Z0.

    The basis is numpy's eigenvectors whose eigenvalues lie within RANK_RTOL
    times the largest |eigenvalue|.  The vector vanishes exactly where a
    point of Z0 lies on Z1 = Crit(S1|Z0).
    """
    evals, vecs = np.linalg.eigh(np.array(family.s0.hessian(x), dtype=float))
    cutoff = RANK_RTOL * max(float(np.max(np.abs(evals))), 1e-300)
    basis = vecs[:, np.abs(evals) <= cutoff]
    return basis.T @ np.array(family.s1.gradient(x), dtype=float)


def scenario_problems(scenario) -> list[str]:
    """Residual checks on a scenario's declared structure; empty means valid.

    Every Z1 point must kill grad S0 and the component of grad S1 tangent to
    Z0; VALIDATE_SAMPLES deterministic points of Z0 must kill grad S0.
    """
    family = scenario.family
    problems = []
    for site in scenario.z1_sites:
        g0 = float(np.linalg.norm(family.s0.gradient(site.point)))
        if g0 >= VALIDATE_TOL:
            problems.append(f"site {list(site.point)}: |grad S0| = {g0:.3e}")
        tang_part = float(np.linalg.norm(tangential_s1(family, site.point)))
        if tang_part >= VALIDATE_TOL:
            problems.append(f"site {list(site.point)}: tangential |grad S1| = {tang_part:.3e}")
    for x in Z0_SAMPLERS[scenario.name](VALIDATE_SAMPLES):
        g0 = float(np.linalg.norm(family.s0.gradient(x)))
        if g0 >= VALIDATE_TOL:
            problems.append(f"sampled {list(x)}: |grad S0| = {g0:.3e}")
    return problems
