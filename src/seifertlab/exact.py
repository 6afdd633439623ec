"""Exact scalars and integer Laurent polynomials in the grading variable T.

Rational values are stdlib ``fractions.Fraction`` (arbitrary precision, kept
in lowest terms with positive denominator), re-exported here as ``Rational``.
No floating point enters any computation in this module.

A Laurent polynomial is stored sparsely as a map from integer exponent to
nonzero integer coefficient.  The text rendering sorts exponents ascending,
so equal polynomials always print identically.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Mapping

Rational = Fraction

__all__ = [
    "Rational",
    "LaurentPoly",
    "cp_poincare",
    "hat_normalize",
    "euler_eval",
]


class LaurentPoly:
    """Integer-coefficient Laurent polynomial in one variable T.

    Instances are immutable; all arithmetic returns new objects.  Zero
    coefficients are never stored.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        cleaned: dict[int, int] = {}
        if coeffs:
            for k, c in coeffs.items():
                if not isinstance(k, int) or isinstance(c, bool) or not isinstance(c, int):
                    raise TypeError("exponents and coefficients must be plain ints")
                if c != 0:
                    cleaned[k] = c
        object.__setattr__(self, "_coeffs", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def term(cls, coeff: int, exp: int) -> "LaurentPoly":
        """The monomial coeff * T^exp."""
        return cls({exp: coeff})

    def coefficient(self, exp: int) -> int:
        return self._coeffs.get(exp, 0)

    def coefficients(self) -> dict[int, int]:
        """Copy of the sparse exponent -> coefficient map."""
        return dict(self._coeffs)

    def items(self) -> Iterator[tuple[int, int]]:
        """(exponent, coefficient) pairs in ascending exponent order."""
        return iter(sorted(self._coeffs.items()))

    @property
    def min_exponent(self) -> int | None:
        return min(self._coeffs) if self._coeffs else None

    @property
    def max_exponent(self) -> int | None:
        return max(self._coeffs) if self._coeffs else None

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._coeffs.items())))

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({k: -c for k, c in self._coeffs.items()})

    def __add__(self, other) -> "LaurentPoly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self._coeffs)
        for k, c in other._coeffs.items():
            out[k] = out.get(k, 0) + c
        return LaurentPoly(out)

    __radd__ = __add__

    def __sub__(self, other) -> "LaurentPoly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "LaurentPoly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "LaurentPoly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        out: dict[int, int] = {}
        for k1, c1 in self._coeffs.items():
            for k2, c2 in other._coeffs.items():
                k = k1 + k2
                out[k] = out.get(k, 0) + c1 * c2
        return LaurentPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers are defined")
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by T^k."""
        return LaurentPoly({e + k: c for e, c in self._coeffs.items()})

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for exp, coeff in sorted(self._coeffs.items()):
            if exp == 0:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(f"T^{exp}")
            elif coeff == -1:
                parts.append(f"-T^{exp}")
            else:
                parts.append(f"{coeff}*T^{exp}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({dict(sorted(self._coeffs.items()))!r})"


def _coerce(value) -> LaurentPoly | None:
    if isinstance(value, LaurentPoly):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return LaurentPoly({0: value})
    return None


def cp_poincare(e: int) -> LaurentPoly:
    """Poincare polynomial 1 + T^2 + ... + T^(2e) of complex projective e-space."""
    if not isinstance(e, int) or e < 0:
        raise ValueError(f"projective-space dimension must be a non-negative integer, got {e!r}")
    return LaurentPoly({2 * k: 1 for k in range(e + 1)})


def hat_normalize(p: LaurentPoly, dim: int) -> LaurentPoly:
    """T^(-dim) * p: shift a Poincare polynomial down by the declared dimension."""
    if not isinstance(dim, int) or dim < 0:
        raise ValueError(f"dimension must be a non-negative integer, got {dim!r}")
    return p.shift(-dim)


def euler_eval(p: LaurentPoly) -> int:
    """Evaluate p at T = 1, i.e. the sum of all coefficients."""
    return sum(p.coefficients().values())
