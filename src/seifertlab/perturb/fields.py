"""Scalar fields on R^d with analytic or finite-difference derivatives."""

from __future__ import annotations

from typing import Callable, Sequence

__all__ = ["ScalarField", "PerturbationFamily"]

GRAD_STEP = 1e-5
HESS_STEP = 1e-4

Vector = tuple[float, ...]
Matrix = tuple[Vector, ...]


def _vec(x) -> Vector:
    return tuple(map(float, x))


def _mat(rows) -> Matrix:
    return tuple([tuple(map(float, row)) for row in rows])


def _combine(eps: float, v0, v1, v2) -> Vector:
    """v0 + eps*v1 + eps^2*v2, entry by entry."""
    e2 = eps**2
    return tuple([a + eps * b + e2 * c for a, b, c in zip(v0, v1, v2)])


def _shift(x: Vector, i: int, h: float) -> Vector:
    """x with h added to its i-th coordinate."""
    return x[:i] + (x[i] + h,) + x[i + 1:]


class ScalarField:
    """A smooth function R^d -> R with optional analytic gradient/Hessian.

    Points are handed to the callbacks as tuples of floats; the gradient and
    Hessian callbacks may return any float sequences (rows, for a Hessian),
    numpy arrays included, and come back as tuples.  When an analytic
    evaluator is absent, central finite differences stand in (step
    ``GRAD_STEP`` for gradients, ``HESS_STEP`` for Hessians).  Where both
    exist they must agree within finite-difference accuracy; the test suite
    checks this on every built-in scenario.
    """

    def __init__(
        self,
        dim: int,
        f: Callable[[Vector], float],
        grad: Callable[[Vector], Sequence[float]] | None = None,
        hess: Callable[[Vector], Sequence[Sequence[float]]] | None = None,
        is_zero: bool = False,
    ):
        if dim < 0:
            raise ValueError("dimension must be non-negative")
        self.dim = dim
        self._f = f
        self._grad = grad
        self._hess = hess
        self.is_zero = is_zero

    @classmethod
    def zero(cls, dim: int) -> "ScalarField":
        zeros = (0.0,) * dim
        return cls(
            dim,
            f=lambda x: 0.0,
            grad=lambda x: zeros,
            hess=lambda x: (zeros,) * dim,
            is_zero=True,
        )

    def value(self, x) -> float:
        return float(self._f(_vec(x)))

    def gradient(self, x) -> Vector:
        if self._grad is not None:
            return _vec(self._grad(_vec(x)))
        return self.fd_gradient(x)

    def hessian(self, x) -> Matrix:
        if self._hess is not None:
            return _mat(self._hess(_vec(x)))
        return self.fd_hessian(x)

    def fd_gradient(self, x) -> Vector:
        """Central-difference gradient, independent of any analytic evaluator."""
        x = _vec(x)
        f = self._f
        return _vec(
            (f(_shift(x, i, GRAD_STEP)) - f(_shift(x, i, -GRAD_STEP))) / (2 * GRAD_STEP)
            for i in range(self.dim)
        )

    def fd_hessian(self, x) -> Matrix:
        """Central-difference Hessian, symmetrized."""
        x = _vec(x)
        f = self._f
        n = self.dim
        out = [[0.0] * n for _ in range(n)]
        f0 = f(x)
        for i in range(n):
            xp, xm = _shift(x, i, HESS_STEP), _shift(x, i, -HESS_STEP)
            out[i][i] = (f(xp) - 2 * f0 + f(xm)) / HESS_STEP**2
            for j in range(i + 1, n):
                mixed = (
                    f(_shift(xp, j, HESS_STEP))
                    - f(_shift(xp, j, -HESS_STEP))
                    - f(_shift(xm, j, HESS_STEP))
                    + f(_shift(xm, j, -HESS_STEP))
                ) / (4 * HESS_STEP**2)
                out[i][j] = mixed
                out[j][i] = mixed
        return _mat(out)

    def restrict(self, chart: Callable[[Vector], Sequence[float]], dim: int) -> "ScalarField":
        """The composition with a chart t -> x(t); derivatives via differences."""
        return ScalarField(dim, f=lambda t: self._f(_vec(chart(_vec(t)))), is_zero=self.is_zero)


class PerturbationFamily:
    """The truncated family S_eps = s0 + eps*s1 + eps^2*s2 on a common R^d.

    Truncation at second order is not a loss: the localisation statements
    depend only on s0, s1, s2.
    """

    def __init__(self, s0: ScalarField, s1: ScalarField, s2: ScalarField):
        if not (s0.dim == s1.dim == s2.dim):
            raise ValueError("family members must share one dimension")
        self.s0 = s0
        self.s1 = s1
        self.s2 = s2

    @property
    def dim(self) -> int:
        return self.s0.dim

    def value(self, x, eps: float) -> float:
        x = _vec(x)
        return (
            float(self.s0._f(x)) + eps * float(self.s1._f(x)) + eps**2 * float(self.s2._f(x))
        )

    def gradient(self, x, eps: float) -> Vector:
        x = _vec(x)
        return _combine(eps, *[
            map(float, s._grad(x)) if s._grad is not None else s.fd_gradient(x)
            for s in (self.s0, self.s1, self.s2)
        ])

    def hessian(self, x, eps: float) -> Matrix:
        x = _vec(x)
        h0, h1, h2 = [
            s._hess(x) if s._hess is not None else s.fd_hessian(x)
            for s in (self.s0, self.s1, self.s2)
        ]
        return tuple([
            _combine(eps, map(float, r0), map(float, r1), map(float, r2))
            for r0, r1, r2 in zip(h0, h1, h2)
        ])

    def at(self, eps: float) -> ScalarField:
        """S_eps as a single field; derivatives stay analytic if the parts are.

        Its value, gradient and Hessian are :meth:`value`, :meth:`gradient`
        and :meth:`hessian` at this eps, which make one pass: each part's own
        callback runs once on the point, its output is turned into floats and
        the three are combined entry by entry as a + eps*b + eps**2*c.
        """
        grad = None
        hess = None
        if all(s._grad is not None for s in (self.s0, self.s1, self.s2)):
            grad = lambda x: self.gradient(x, eps)
        if all(s._hess is not None for s in (self.s0, self.s1, self.s2)):
            hess = lambda x: self.hessian(x, eps)
        return ScalarField(self.dim, f=lambda x: self.value(x, eps), grad=grad, hess=hess)
