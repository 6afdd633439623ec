"""Dense linear algebra for the lab's small symmetric problems, in plain floats.

Vectors are tuples of floats and matrices are sequences of rows.  The lab's
scenarios live in at most three dimensions, where a Python loop costs less
than an array library's per-call overhead.

``eigh`` is cyclic Jacobi with Rutishauser's rotation formulas.  An
off-diagonal entry counts as negligible when
|a_pq| <= eps_machine * sqrt(|a_pp| * |a_qq|), and the iteration stops after
a sweep that finds every entry negligible.  This cutoff is the one under
which Jacobi resolves tiny eigenvalues with high relative accuracy (Demmel &
Veselic, "Jacobi's method is more accurate than QR", SIAM J. Matrix Anal.
Appl. 13, 1992).  Its cyclic (p, q) order is built once per dimension.
``solve`` is LU with partial pivoting on the rows of [A | b], in place and
by index.  Like LAPACK's ``gesv``, it fails only on an exactly zero pivot.
Both keep a fixed order of float operations: the tests hold ``solve`` bit
for bit to an LU on slice copies of the rows.
"""

from __future__ import annotations

import math
import sys
from operator import add, mul, neg, sub

__all__ = ["LinAlgError", "eigh", "solve", "inertia_counts", "kernel_basis", "pinv_solve"]

_EPS = sys.float_info.epsilon
_MAX_SWEEPS = 64  # Jacobi converges quadratically; finite input needs a handful
RANK_RTOL = 1e-8  # rank cutoff, relative to the largest |eigenvalue|


class LinAlgError(ArithmeticError):
    """A singular system, or an eigenproblem that did not converge."""


def _dot(x, y) -> float:
    return sum(map(mul, x, y))


def _norm(x) -> float:
    """Euclidean norm with unscaled squares, so a huge vector's norm overflows to inf."""
    return math.sqrt(_dot(x, x))


def _axpy(a: float, x, y) -> tuple:
    """y + a*x."""
    return tuple(yi + a * xi for xi, yi in zip(x, y))


def _add(x, y) -> tuple:
    return tuple(map(add, x, y))


def _sub(x, y) -> tuple:
    return tuple(map(sub, x, y))


def _neg(x) -> tuple:
    return tuple(map(neg, x))


def _matvec(A, x) -> tuple:
    return tuple(_dot(row, x) for row in A)


# Jacobi's cyclic order for each dimension met so far: each (p, q) with
# p < q, and the other indices
_ROTATION_PAIRS: dict[int, tuple[tuple[int, int, tuple[int, ...]], ...]] = {}


def eigh(A) -> tuple[tuple[float, ...], tuple[tuple[float, ...], ...]]:
    """Eigenvalues of symmetric A in ascending order, and unit eigenvectors.

    Returns ``(evals, vecs)`` with ``vecs[k]`` the eigenvector of
    ``evals[k]``; the vectors are orthonormal.  Only the lower triangle of A
    is read.  A matrix with a non-finite entry gets nan eigenvalues.
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


def solve(A, b) -> tuple[float, ...]:
    """x with A x = b, by LU with partial pivoting; raises on an exactly zero pivot."""
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
        ak = a[k]
        pivot = ak[k]
        for i in range(k + 1, n):
            row = a[i]
            m = row[k] / pivot
            for j in range(k + 1, n + 1):
                row[j] -= m * ak[j]
    x = [row[n] for row in a]
    for k in range(n - 1, -1, -1):  # back substitution, column by column
        xk = x[k] = x[k] / a[k][k]
        for i in range(k):
            x[i] -= xk * a[i][k]
    return tuple(x)


def inertia_counts(evals, gap: float) -> tuple[int, int, int]:
    """(negative, near-zero, positive) eigenvalue counts with band |x| <= gap."""
    neg = sum(1 for v in evals if v < -gap)
    null = sum(1 for v in evals if abs(v) <= gap)
    pos = sum(1 for v in evals if v > gap)
    return neg, null, pos


def _cutoff(evals, rtol: float) -> float:
    """rtol times the largest |eigenvalue|, floored at rtol * 1e-300."""
    scale = max(map(abs, evals), default=0.0)
    return rtol * max(scale, 1e-300)


def kernel_basis(H, rtol: float = RANK_RTOL) -> tuple[tuple[float, ...], ...]:
    """Orthonormal basis of the numerical kernel of symmetric H, as k vectors.

    The cutoff is relative: eigenvalues of magnitude <= rtol * max|eig| count
    as zero.  Returns a tuple of k vectors of length d, possibly with k = 0.
    """
    evals, vecs = eigh(H)
    cutoff = _cutoff(evals, rtol)
    return tuple(v for lam, v in zip(evals, vecs) if abs(lam) <= cutoff)


def pinv_solve(H, b, rtol: float = RANK_RTOL) -> tuple[float, ...]:
    """Minimal-norm least-squares solution of H x = b for symmetric H.

    Spectral pseudo-inverse with relative rank cutoff rtol * max|eig|; kernel
    directions receive no component, which is what makes the solution
    minimal-norm.
    """
    evals, vecs = eigh(H)
    cutoff = _cutoff(evals, rtol)
    x = (0.0,) * len(evals)
    for lam, v in zip(evals, vecs):
        if abs(lam) > cutoff:
            x = _axpy(_dot(v, b) / lam, v, x)
    return x
