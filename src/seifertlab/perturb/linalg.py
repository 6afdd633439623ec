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

On a 3 x 3 matrix, the size of every registered scenario's Hessians, both
run a straight-line path instead (``_eigh3``, ``_solve3``): the same float
operations in the same order on named entries, with no loop, list or index
overhead.  The tests hold each bit for bit to the generic loops, which still
serve the 1- and 2-dimensional chart problems of the predictions.
``exact_inertia`` counts eigenvalue signs with no rounding at all.
"""

from __future__ import annotations

import math
import sys
from operator import add, mul, ne, neg, sub

__all__ = ["LinAlgError", "eigh", "solve", "inertia_counts", "exact_inertia", "pinv_solve"]

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
    if n == 3:
        return _eigh3(A)
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


def _eigh3(A) -> tuple[tuple[float, ...], tuple[tuple[float, ...], ...]]:
    """``eigh`` of a 3 x 3 matrix, its loops written out on named entries.

    d_i are the diagonal, e_pq the off-diagonal entries (p < q) and w_ij the
    j-th entry of the i-th eigenvector row.  Each (p, q) block below is one
    step of the generic loop, with the same float operations in the same
    order, so both give the same bits.
    """
    r0, r1, r2 = A
    d0, _, _ = map(float, r0)  # every entry becomes a float, as in the generic loop
    e01, d1, _ = map(float, r1)
    e02, e12, d2 = map(float, r2)
    isfinite = math.isfinite
    if not (
        isfinite(d0) and isfinite(d1) and isfinite(d2)
        and isfinite(e01) and isfinite(e02) and isfinite(e12)
    ):
        return (math.nan,) * 3, ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    sqrt, hypot = math.sqrt, math.hypot
    w00, w01, w02 = 1.0, 0.0, 0.0
    w10, w11, w12 = 0.0, 1.0, 0.0
    w20, w21, w22 = 0.0, 0.0, 1.0
    for _ in range(_MAX_SWEEPS):
        rotated = False
        # (p, q) = (0, 1), other row 2
        if abs(e01) <= _EPS * sqrt(abs(d0)) * sqrt(abs(d1)):
            e01 = 0.0
        else:
            rotated = True
            theta = (d1 - d0) / (2.0 * e01)
            t = 1.0 / (abs(theta) + hypot(theta, 1.0))
            if theta < 0.0:
                t = -t
            c = 1.0 / sqrt(t * t + 1.0)
            s = t * c
            tau = s / (1.0 + c)
            h = t * e01
            d0 = d0 - h
            d1 = d1 + h
            e01 = 0.0
            g, k = e02, e12
            e02 = g - s * (k + g * tau)
            e12 = k + s * (g - k * tau)
            g, k = w00, w10
            w00 = g - s * (k + g * tau)
            w10 = k + s * (g - k * tau)
            g, k = w01, w11
            w01 = g - s * (k + g * tau)
            w11 = k + s * (g - k * tau)
            g, k = w02, w12
            w02 = g - s * (k + g * tau)
            w12 = k + s * (g - k * tau)
        # (p, q) = (0, 2), other row 1
        if abs(e02) <= _EPS * sqrt(abs(d0)) * sqrt(abs(d2)):
            e02 = 0.0
        else:
            rotated = True
            theta = (d2 - d0) / (2.0 * e02)
            t = 1.0 / (abs(theta) + hypot(theta, 1.0))
            if theta < 0.0:
                t = -t
            c = 1.0 / sqrt(t * t + 1.0)
            s = t * c
            tau = s / (1.0 + c)
            h = t * e02
            d0 = d0 - h
            d2 = d2 + h
            e02 = 0.0
            g, k = e01, e12
            e01 = g - s * (k + g * tau)
            e12 = k + s * (g - k * tau)
            g, k = w00, w20
            w00 = g - s * (k + g * tau)
            w20 = k + s * (g - k * tau)
            g, k = w01, w21
            w01 = g - s * (k + g * tau)
            w21 = k + s * (g - k * tau)
            g, k = w02, w22
            w02 = g - s * (k + g * tau)
            w22 = k + s * (g - k * tau)
        # (p, q) = (1, 2), other row 0
        if abs(e12) <= _EPS * sqrt(abs(d1)) * sqrt(abs(d2)):
            e12 = 0.0
        else:
            rotated = True
            theta = (d2 - d1) / (2.0 * e12)
            t = 1.0 / (abs(theta) + hypot(theta, 1.0))
            if theta < 0.0:
                t = -t
            c = 1.0 / sqrt(t * t + 1.0)
            s = t * c
            tau = s / (1.0 + c)
            h = t * e12
            d1 = d1 - h
            d2 = d2 + h
            e12 = 0.0
            g, k = e01, e02
            e01 = g - s * (k + g * tau)
            e02 = k + s * (g - k * tau)
            g, k = w10, w20
            w10 = g - s * (k + g * tau)
            w20 = k + s * (g - k * tau)
            g, k = w11, w21
            w11 = g - s * (k + g * tau)
            w21 = k + s * (g - k * tau)
            g, k = w12, w22
            w12 = g - s * (k + g * tau)
            w22 = k + s * (g - k * tau)
        if not rotated:
            d = (d0, d1, d2)
            w = ((w00, w01, w02), (w10, w11, w12), (w20, w21, w22))
            i, j, k = sorted(range(3), key=d.__getitem__)
            return (d[i], d[j], d[k]), (w[i], w[j], w[k])
    raise LinAlgError("Eigenvalues did not converge")


def solve(A, b) -> tuple[float, ...]:
    """x with A x = b, by LU with partial pivoting; raises on an exactly zero pivot."""
    n = len(A)
    if n == 3:
        return _solve3(A, b)
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


def _solve3(A, b) -> tuple[float, ...]:
    """``solve`` of a 3 x 3 system, its loops written out on named entries.

    a_ij and b_i are the entries of [A | b]; a row swap swaps whole rows of
    names.  The float operations and pivot tests are the generic loop's, in
    its order, so both give the same bits.
    """
    r0, r1, r2 = A
    b0, b1, b2 = b
    a00, a01, a02 = map(float, r0)
    b0 = float(b0)
    a10, a11, a12 = map(float, r1)
    b1 = float(b1)
    a20, a21, a22 = map(float, r2)
    b2 = float(b2)
    # column 0: the strict > keeps the first of equal magnitudes
    big = abs(a00)
    if abs(a10) > big:
        big = abs(a10)
        if abs(a20) > big:
            a00, a01, a02, b0, a20, a21, a22, b2 = a20, a21, a22, b2, a00, a01, a02, b0
        else:
            a00, a01, a02, b0, a10, a11, a12, b1 = a10, a11, a12, b1, a00, a01, a02, b0
    elif abs(a20) > big:
        a00, a01, a02, b0, a20, a21, a22, b2 = a20, a21, a22, b2, a00, a01, a02, b0
    elif big == 0.0:
        raise LinAlgError("Singular matrix")
    m = a10 / a00
    a11 -= m * a01
    a12 -= m * a02
    b1 -= m * b0
    m = a20 / a00
    a21 -= m * a01
    a22 -= m * a02
    b2 -= m * b0
    # column 1
    if abs(a21) > abs(a11):
        a11, a12, b1, a21, a22, b2 = a21, a22, b2, a11, a12, b1
    elif abs(a11) == 0.0:
        raise LinAlgError("Singular matrix")
    m = a21 / a11
    a22 -= m * a12
    b2 -= m * b1
    # column 2
    if abs(a22) == 0.0:
        raise LinAlgError("Singular matrix")
    x2 = b2 / a22
    b0 -= x2 * a02
    b1 -= x2 * a12
    x1 = b1 / a11
    b0 -= x1 * a01
    return b0 / a00, x1, x2


def inertia_counts(evals, gap: float) -> tuple[int, int, int]:
    """(negative, near-zero, positive) eigenvalue counts with band |x| <= gap."""
    neg = sum(1 for v in evals if v < -gap)
    null = sum(1 for v in evals if abs(v) <= gap)
    pos = sum(1 for v in evals if v > gap)
    return neg, null, pos


def exact_inertia(H) -> tuple[int, int, int]:
    """(negative, zero, positive) eigenvalue counts of symmetric H, exactly.

    A finite float is a dyadic rational p/q, so scaling the lower triangle of
    H by its largest q gives an integer matrix M of the same inertia (a
    non-finite entry raises, as ``float.as_integer_ratio`` does).  det(tI - M),
    M padded to 3 x 3 with zeros, is t^3 - c1 t^2 + c2 t - c3 with c_k the sum
    of k x k principal minors.  Its roots are real, so 0 is a root as often as
    trailing coefficients vanish, and Descartes' rule of signs counts the
    positive roots exactly.  Above 3 x 3 it raises ValueError.
    """
    n = len(H)
    if n > 3:
        raise ValueError(f"exact_inertia reads at most 3 x 3 matrices, not {n} x {n}")
    ratios = [
        float(H[i][j]).as_integer_ratio() if i < n else (0, 1)
        for i, j in ((0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2))
    ]
    den = max([q for _, q in ratios])
    a, d, b, e, f, c = [p * (den // q) for p, q in ratios]
    bc = b * c - f * f
    c2 = a * b - d * d + a * c - e * e + bc
    coeffs = (1, -(a + b + c), c2, e * (b * e - d * f) + d * (d * c - e * f) - a * bc)
    zero = 0  # counts the 3 - n zeros of the padding too
    while not coeffs[3 - zero]:
        zero += 1
    signs = [v > 0 for v in coeffs if v]
    pos = sum(map(ne, signs, signs[1:]))
    return 3 - zero - pos, zero - (3 - n), pos


def pinv_solve(H, b, rtol: float = RANK_RTOL) -> tuple[float, ...]:
    """Minimal-norm least-squares solution of H x = b for symmetric H.

    Spectral pseudo-inverse with relative rank cutoff rtol * max|eig|, the
    max floored at 1e-300; kernel directions receive no component, which is
    what makes the solution minimal-norm.
    """
    evals, vecs = eigh(H)
    cutoff = rtol * max(max(map(abs, evals), default=0.0), 1e-300)
    x = (0.0,) * len(evals)
    for lam, v in zip(evals, vecs):
        if abs(lam) > cutoff:
            x = _axpy(_dot(v, b) / lam, v, x)
    return x
