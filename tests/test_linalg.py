"""The lab's plain-float linear algebra, held to numpy's LAPACK as a reference."""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest
from helpers import eigh_by_loops, solve_by_slices
from hypothesis import assume, example, given, settings, strategies as st

from seifertlab.perturb import linear_scenario
from seifertlab.perturb.linalg import LinAlgError, eigh, exact_inertia, pinv_solve, solve

EIG_RTOL = 1e-12  # eigenvalues agree within this times max|eig|

# zero or of magnitude 1e-6..10, so the reference's own norms and condition
# numbers stay finite; tiny eigenvalues come from the "spectrum" family
entries = st.one_of(st.just(0.0), st.floats(1e-6, 10.0), st.floats(-10.0, -1e-6))
angles = st.floats(0.0, 2 * math.pi)


def _rotation(n: int, thetas) -> np.ndarray:
    """An orthogonal n x n matrix: Givens rotations through each (p, q) plane."""
    Q = np.eye(n)
    for (p, q), th in zip([(p, q) for p in range(n) for q in range(p + 1, n)], thetas):
        G = np.eye(n)
        G[p, p] = G[q, q] = math.cos(th)
        G[p, q], G[q, p] = -math.sin(th), math.sin(th)
        Q = Q @ G
    return Q


def _rows(M: np.ndarray) -> tuple:
    return tuple(tuple(float(v) for v in row) for row in M)


@st.composite
def symmetric(draw, sizes=st.integers(1, 3)):
    """Symmetric matrices of a drawn size (1-3 by default) from families the lab meets."""
    n = draw(sizes)
    kind = draw(st.sampled_from(["dense", "diagonal", "spectrum", "rank-one", "duplicate-row"]))
    if kind == "dense":
        A = np.array([[draw(entries) for _ in range(n)] for _ in range(n)])
        M = np.tril(A) + np.tril(A, -1).T
    elif kind == "diagonal":
        M = np.diag([draw(entries) for _ in range(n)])
    elif kind == "spectrum":
        # repeated eigenvalues, exact zeros and a 1e-10 beside O(1) ones
        pool = st.sampled_from([0.0, 1e-10, -1e-10, 1.0, -1.0, 2.0, 3.5])
        lam = [draw(st.one_of(pool, entries)) for _ in range(n)]
        Q = _rotation(n, [draw(angles) for _ in range(3)])
        M = Q @ np.diag(lam) @ Q.T
        M = np.tril(M) + np.tril(M, -1).T
    elif kind == "rank-one":
        v = np.array([draw(entries) for _ in range(n)])
        M = np.outer(v, v)
    else:  # an exactly singular matrix: its last row and column repeat the first
        A = np.array([[draw(entries) for _ in range(n)] for _ in range(n)])
        M = np.tril(A) + np.tril(A, -1).T
        M[-1, :] = M[0, :]
        M[:, -1] = M[:, 0]
    return _rows(M)


@settings(max_examples=300, deadline=None)
@given(symmetric())
def test_eigh_matches_lapack(A):
    evals, vecs = eigh(A)
    reference = np.linalg.eigvalsh(np.array(A))
    scale = float(np.max(np.abs(reference)))
    assert list(evals) == sorted(evals)
    assert np.allclose(evals, reference, rtol=0.0, atol=EIG_RTOL * scale)
    # orthonormal eigenvectors with small residuals
    V = np.array(vecs)
    assert np.allclose(V @ V.T, np.eye(len(A)), rtol=0.0, atol=1e-13)
    for lam, v in zip(evals, vecs):
        residual = np.array(A) @ np.array(v) - lam * np.array(v)
        assert np.linalg.norm(residual) <= 1e-13 * max(scale, 1e-300)


def test_eigh_of_a_diagonal_matrix_is_exact():
    assert eigh(((3.0, 0.0, 0.0), (0.0, -1e-300, 0.0), (0.0, 0.0, 1e-10))) == (
        (-1e-300, 1e-10, 3.0),
        ((0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (1.0, 0.0, 0.0)),
    )


def test_eigh_resolves_a_tiny_eigenvalue_to_high_relative_accuracy():
    # the linear scenario's Hessian at eps = 1e-3; its smallest eigenvalue,
    # computed exactly over the rationals, is 1.2499996093749021e-06 once rounded
    e = 1e-3
    H = ((2.0, 0.0, e), (0.0, 4.0, e), (e, e, 2.0 * e**2))
    assert eigh(H)[0][0] == 1.2499996093749021e-06


def test_eigh_of_a_non_finite_matrix_is_nan():
    evals, _ = eigh(((1.0, math.inf), (math.inf, 1.0)))
    assert all(math.isnan(v) for v in evals)


@settings(max_examples=300, deadline=None)
@given(symmetric())
def test_exact_inertia_matches_lapack_signs(A):
    reference = np.linalg.eigvalsh(np.array(A))
    scale = float(np.max(np.abs(reference)))
    assume(np.all(np.abs(reference) > 1e-6 * scale))  # LAPACK's signs are sure here
    signs = (int(np.sum(reference < 0)), 0, int(np.sum(reference > 0)))
    assert exact_inertia(A) == signs


def test_exact_inertia_of_exact_cases():
    assert exact_inertia(()) == (0, 0, 0)
    assert exact_inertia(((-0.0,),)) == (0, 1, 0)
    assert exact_inertia(((2.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, -3.0))) == (1, 1, 1)
    v = (1.0, -2.0, 3.0)
    assert exact_inertia(tuple(tuple(a * b for b in v) for a in v)) == (0, 2, 1)  # rank one
    assert exact_inertia(((0.0, 1.0), (1.0, 0.0))) == (1, 0, 1)  # leading minor zero
    # eigenvalues 1.25e-26 and O(1): far below any float band
    H = linear_scenario().family.at(1e-13).hessian((0.0, 0.0, 0.0))
    assert exact_inertia(H) == (0, 0, 3)
    assert exact_inertia(((-1e-300, 0.0), (0.0, 1e300))) == (1, 0, 1)
    assert exact_inertia(((1.0, math.nan), (0.0, 1.0))) == (0, 0, 2)  # upper triangle unread
    with pytest.raises(OverflowError):
        exact_inertia(((1.0, 0.0), (math.inf, 1.0)))
    with pytest.raises(ValueError):
        exact_inertia(((1.0, 0.0), (0.0, math.nan)))
    with pytest.raises(ValueError, match="at most 3 x 3"):
        exact_inertia(((1.0,) * 4,) * 4)


@settings(max_examples=300, deadline=None)
@given(symmetric(), st.lists(entries, min_size=3, max_size=3))
def test_solve_matches_lapack(A, b):
    b = b[: len(A)]
    M = np.array(A)
    cond = np.linalg.cond(M)
    assume(cond < 1e8)
    x = np.array(solve(A, b))
    reference = np.linalg.solve(M, np.array(b))
    bound = 1e-13 * cond * max(float(np.linalg.norm(reference)), 1e-300)
    assert np.linalg.norm(x - reference) <= bound


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 3), st.lists(entries, min_size=6, max_size=6), st.booleans())
def test_solve_raises_on_an_exactly_singular_matrix(n, values, zero_row):
    A = np.zeros((n, n))
    A[np.tril_indices(n)] = values[: n * (n + 1) // 2]
    A = A + np.tril(A, -1).T
    if zero_row:
        A[-1, :] = A[:, -1] = 0.0
    else:
        A[-1, :] = A[0, :]
        A[:, -1] = A[:, 0]
    with pytest.raises(LinAlgError):
        solve(_rows(A), [1.0] * n)


# exact zeros of both signs are drawn often, so zero pivots and row swaps come up
lu_entries = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e300, -1e300, math.inf, -math.inf, math.nan]),
    st.floats(-10.0, 10.0),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def linear_systems(draw):
    """Square systems of size 1-3, not necessarily symmetric."""
    n = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(lu_entries, min_size=n, max_size=n), min_size=n, max_size=n))
    return tuple(map(tuple, rows)), tuple(draw(st.lists(lu_entries, min_size=n, max_size=n)))


def _bits(value):
    """The bits of every float in nested tuples, so -0.0 and each nan tell apart."""
    if isinstance(value, tuple):
        return [_bits(v) for v in value]
    return struct.pack("<d", value)


def _outcome(fn, *args):
    """The bits of every float of the result, or the error's type and message."""
    try:
        return _bits(fn(*args))
    except Exception as exc:  # both must fail the same way, not just both fail
        return type(exc), str(exc)


@settings(max_examples=500, deadline=None)
@given(linear_systems())
@example(((((0.0, 1.0), (2.0, 3.0))), (1.0, -0.0)))  # row swap at the first pivot
@example(((((1.0, 2.0), (2.0, 4.0))), (1.0, 1.0)))  # second pivot exactly zero
@example(((((-0.0, 0.0), (0.0, -0.0))), (0.0, 0.0)))  # signed zeros only
@example(((((1e300, 1.0), (1.0, 1e-300))), (math.inf, 1.0)))
@example(((((math.nan, 1.0, 0.0), (0.0, 2.0, 1.0), (3.0, 0.0, -0.0))), (1.0, 2.0, 3.0)))
# each pivot branch of the 3 x 3 path
@example(((((1.0, 2.0, 3.0), (4.0, 5.0, 6.0), (0.0, 1.0, 7.0))), (1.0, 2.0, 3.0)))  # k = 0: row 1
@example(((((1.0, 0.0, 2.0), (2.0, 1.0, 0.0), (5.0, 3.0, 1.0))), (1.0, 2.0, 3.0)))  # k = 0: row 2
@example(((((2.0, 1.0, 0.0), (1.0, 3.0, 1.0), (4.0, 0.0, 1.0))), (1.0, -0.0, 3.0)))  # k = 0: row 2
@example(((((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 2.0, 1.0))), (1.0, 2.0, 3.0)))  # k = 1: row 2
@example(((((0.0, 1.0, 2.0), (0.0, 3.0, 4.0), (-0.0, 5.0, 6.0))), (1.0, 2.0, 3.0)))  # k = 0: zero
@example(((((4.0, 8.0, 1.0), (2.0, 4.0, 3.0), (1.0, 2.0, 5.0))), (1.0, 2.0, 3.0)))  # k = 1: zero
@example(((((4.0, 0.0, 2.0), (0.0, 2.0, 1.0), (2.0, 1.0, 1.5))), (1.0, 2.0, 3.0)))  # k = 2: zero
def test_solve_matches_the_slicing_lu_bit_for_bit(system):
    A, b = system
    assert _outcome(solve, A, b) == _outcome(solve_by_slices, A, b)


@st.composite
def square3(draw):
    """3 x 3 matrices read as symmetric: the lab's families, or any entries at all.

    The second kind puts nan, inf, signed zeros and huge values anywhere,
    the upper triangle, which ``eigh`` converts but never reads, included.
    """
    if draw(st.booleans()):
        return draw(symmetric(st.just(3)))
    rows = draw(st.lists(st.lists(lu_entries, min_size=3, max_size=3), min_size=3, max_size=3))
    return tuple(map(tuple, rows))


@settings(max_examples=500, deadline=None)
@given(square3())
@example(((3.0, 0.0, 0.0), (0.0, -1e-300, 0.0), (0.0, 0.0, 1e-10)))  # diagonal
@example(((-0.0, 0.0, 0.0), (0.0, -0.0, 0.0), (-0.0, 0.0, 0.0)))  # signed zeros only
@example(((1.0, 0.0, 0.0), (math.nan, 1.0, 0.0), (0.0, 0.0, 1.0)))
@example(((1.0, math.nan, math.inf), (2.0, 1.0, 0.0), (0.0, 3.0, 1.0)))  # non-finite, ignored
@example(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (-math.inf, 0.0, 1.0)))
@example(((1e200, 0.0, 0.0), (1e200, -1e200, 0.0), (1e-9, 1e200, 1e-9)))
@example(((1.0, "x", 0.0), (2.0, 1.0, 0.0), (0.0, 3.0, 1.0)))  # non-number, upper triangle
@example(((1.0, 0.0, None), (2.0, 1.0, 0.0), (0.0, 3.0, 1.0)))
def test_eigh_matches_the_looping_jacobi_bit_for_bit(A):
    assert _outcome(eigh, A) == _outcome(eigh_by_loops, A)


def _reference_kernel(A, rtol: float):
    """numpy's eigenpairs, the kernel cutoff and the smallest gap across it."""
    evals, vecs = np.linalg.eigh(np.array(A))
    cutoff = rtol * max(float(np.max(np.abs(evals))), 1e-300)
    mask = np.abs(evals) <= cutoff
    inside = np.abs(evals[mask])
    outside = np.abs(evals[~mask])
    gap = (min(outside) if outside.size else math.inf) - (max(inside) if inside.size else 0.0)
    return evals, vecs, mask, cutoff, gap


@settings(max_examples=300, deadline=None)
@given(symmetric(), st.lists(entries, min_size=3, max_size=3), st.sampled_from([1e-8, 1e-12]))
def test_pinv_solve_matches_lapack(A, b, rtol):
    b = np.array(b[: len(A)])
    evals, vecs, mask, cutoff, gap = _reference_kernel(A, rtol)
    scale = float(np.max(np.abs(evals)))
    assume(all(abs(abs(v) - cutoff) > 1e-12 * scale for v in evals))
    assume(gap > 1e-6 * scale)
    # the spectral pseudo-inverse, through LAPACK's eigenpairs
    coeffs = vecs.T @ b
    kept = ~mask
    reference = vecs[:, kept] @ (coeffs[kept] / evals[kept])
    x = np.array(pinv_solve(A, tuple(b), rtol=rtol))
    smallest = float(np.min(np.abs(evals[kept]))) if kept.any() else 1.0
    bound = 1e-12 * (scale / smallest) * (np.linalg.norm(reference) + np.linalg.norm(b) / smallest)
    assert np.linalg.norm(x - reference) <= bound + 1e-300
