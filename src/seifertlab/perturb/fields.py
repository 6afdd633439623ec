"""Scalar fields on R^d with analytic or finite-difference derivatives."""

from __future__ import annotations

from typing import Callable

__all__ = ["ScalarField", "PerturbationFamily"]

GRAD_STEP = 1e-5
HESS_STEP = 1e-4

Vector = tuple[float, ...]
Matrix = tuple[Vector, ...]


def _vec(x) -> Vector:
    return tuple(map(float, x))


def _shift(x: Vector, i: int, h: float) -> Vector:
    """x with h added to its i-th coordinate."""
    return x[:i] + (x[i] + h,) + x[i + 1:]


class ScalarField:
    """A smooth function R^d -> R with optional analytic gradient/Hessian.

    A point becomes a tuple of floats where it enters: ``value``,
    ``gradient``, ``hessian`` and the ``fd_`` methods take any sequence of
    numbers.  The callbacks take that tuple; ``f`` returns a float, ``grad``
    a tuple of floats and ``hess`` a tuple of such rows, and each method
    returns its callback's output as it is.  When an analytic evaluator is
    absent, central finite differences stand in (step ``GRAD_STEP`` for
    gradients, ``HESS_STEP`` for Hessians).  Where both exist they must agree
    within finite-difference accuracy; the test suite checks this on every
    built-in scenario.
    """

    def __init__(
        self,
        dim: int,
        f: Callable[[Vector], float],
        grad: Callable[[Vector], Vector] | None = None,
        hess: Callable[[Vector], Matrix] | None = None,
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
        return self._f(_vec(x))

    def gradient(self, x) -> Vector:
        if self._grad is None:
            return self.fd_gradient(x)
        return self._grad(_vec(x))

    def hessian(self, x) -> Matrix:
        if self._hess is None:
            return self.fd_hessian(x)
        return self._hess(_vec(x))

    def fd_gradient(self, x) -> Vector:
        """Central-difference gradient, independent of any analytic evaluator."""
        x = _vec(x)
        f = self._f
        return tuple([
            (f(_shift(x, i, GRAD_STEP)) - f(_shift(x, i, -GRAD_STEP))) / (2 * GRAD_STEP)
            for i in range(self.dim)
        ])

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
        return tuple(map(tuple, out))

    def restrict(self, chart: Callable[[Vector], Vector], dim: int) -> "ScalarField":
        """The composition with a chart t -> x(t) of floats; derivatives via differences."""
        return ScalarField(dim, f=lambda t: self._f(chart(t)), is_zero=self.is_zero)


class PerturbationFamily:
    """The truncated family S_eps = s0 + eps*s1 + eps^2*s2 on a common R^d.

    Truncation at second order is not a loss: the localisation statements
    depend only on s0, s1, s2.  Each part needs an analytic gradient and
    Hessian, so that S_eps has them too.
    """

    def __init__(self, s0: ScalarField, s1: ScalarField, s2: ScalarField):
        if not (s0.dim == s1.dim == s2.dim):
            raise ValueError("family members must share one dimension")
        if any(s._grad is None or s._hess is None for s in (s0, s1, s2)):
            raise ValueError("family members need an analytic gradient and Hessian")
        self.s0 = s0
        self.s1 = s1
        self.s2 = s2

    @property
    def dim(self) -> int:
        return self.s0.dim

    def at(self, eps: float) -> ScalarField:
        """S_eps as a single field with analytic derivatives.

        One pass per evaluation: each part's callback runs once on the point,
        in the order s0, s1, s2, and the three outputs, floats by the
        ``ScalarField`` contract, are summed as they are, entry by entry, as
        a + eps*b + e2*c, with e2 = eps**2 computed here once (so
        OverflowError comes from here).  The floats are those of summing the
        parts' own ``value``/``gradient``/``hessian``.
        """
        e2 = eps**2
        f0, f1, f2 = self.s0._f, self.s1._f, self.s2._f
        g0, g1, g2 = self.s0._grad, self.s1._grad, self.s2._grad
        h0, h1, h2 = self.s0._hess, self.s1._hess, self.s2._hess

        def combine(v0, v1, v2):
            return tuple([a + eps * b + e2 * c for a, b, c in zip(v0, v1, v2)])

        return ScalarField(
            self.dim,
            f=lambda x: f0(x) + eps * f1(x) + e2 * f2(x),
            grad=lambda x: combine(g0(x), g1(x), g2(x)),
            hess=lambda x: tuple([combine(*rows) for rows in zip(h0(x), h1(x), h2(x))]),
        )
