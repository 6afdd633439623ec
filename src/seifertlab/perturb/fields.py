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


def _shift(x: Vector, i: int, h: float) -> Vector:
    """x with h added to its i-th coordinate."""
    return x[:i] + (x[i] + h,) + x[i + 1:]


class ScalarField:
    """A smooth function R^d -> R with optional analytic gradient/Hessian.

    Points are handed to the callbacks as tuples of floats; the gradient and
    Hessian callbacks may return any float sequences (rows, for a Hessian),
    numpy arrays included, which ``gradient`` and ``hessian`` convert to
    tuples of floats.  The field that ``PerturbationFamily.at`` builds skips
    that conversion: its callbacks already return tuples of floats, converted
    once from the parts' outputs.  When an analytic
    evaluator is absent, central finite differences stand in (step
    ``GRAD_STEP`` for gradients, ``HESS_STEP`` for Hessians).  Where both
    exist they must agree within finite-difference accuracy; the test suite
    checks this on every built-in scenario.
    """

    _floats = False  # True: the callbacks return tuples of floats, kept as they are

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
        if self._grad is None:
            return self.fd_gradient(x)
        g = self._grad(_vec(x))
        return g if self._floats else _vec(g)

    def hessian(self, x) -> Matrix:
        if self._hess is None:
            return self.fd_hessian(x)
        H = self._hess(_vec(x))
        return H if self._floats else _mat(H)

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

    def at(self, eps: float) -> ScalarField:
        """S_eps as a single field; derivatives stay analytic if the parts are.

        One pass per derivative: each part's callback runs once on the point,
        in the order s0, s1, s2, its output is converted to floats here, and
        the three are summed entry by entry as a + eps*b + e2*c, with
        e2 = eps**2 computed here once (so OverflowError comes from here).
        The field's ``gradient`` returns that tuple of sums and its
        ``hessian`` a tuple of such rows, with no second conversion.  The
        floats are those of summing the parts' own ``gradient``/``hessian``.
        If a part has no analytic gradient (Hessian), S_eps differences its
        value instead.
        """
        parts = (self.s0, self.s1, self.s2)
        e2 = eps**2

        def combine(v0, v1, v2):
            v0, v1, v2 = map(float, v0), map(float, v1), map(float, v2)
            return tuple([a + eps * b + e2 * c for a, b, c in zip(v0, v1, v2)])

        grad = hess = None
        if all(s._grad is not None for s in parts):
            g0, g1, g2 = [s._grad for s in parts]
            grad = lambda x: combine(g0(x), g1(x), g2(x))
        if all(s._hess is not None for s in parts):
            h0, h1, h2 = [s._hess for s in parts]
            hess = lambda x: tuple([combine(*rows) for rows in zip(h0(x), h1(x), h2(x))])
        field = ScalarField(self.dim, f=lambda x: self.value(x, eps), grad=grad, hess=hess)
        field._floats = True
        return field
