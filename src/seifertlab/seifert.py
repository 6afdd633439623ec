"""Seifert data of fibrations Y = S(N) -> S^2(alpha_1, ..., alpha_n).

Conventions: data (b; (alpha_1, gamma_1), ..., (alpha_n, gamma_n)) with
0 < gamma_i < alpha_i and gcd(alpha_i, gamma_i) = 1.  The Euler number is
e(Y) = b + sum gamma_i/alpha_i, which is also the orbifold degree of the
line bundle N whose unit circle bundle is Y.  With A = prod alpha_i, the
total space is an integral homology sphere iff A*e(Y) = +-1; the
link-of-a-singularity orientation has A*e(Y) = -1, i.e. deg N < 0.

On a homology sphere N generates the topological Picard group of the base,
so every line bundle is a power of N; ``bundle_log`` inverts that power map.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence

from .errors import ConsistencyError
from .orbifold import LineBundleData, Orbifold, normalize, power

__all__ = [
    "SeifertData",
    "HomologySphereCheck",
    "pairwise_coprime",
    "brieskorn_seifert_data",
    "validate_homology_sphere",
    "require_homology_sphere",
    "n_bundle",
    "bundle_log",
]


def pairwise_coprime(values: Sequence[int]) -> bool:
    return all(
        gcd(values[i], values[j]) == 1
        for i in range(len(values))
        for j in range(i + 1, len(values))
    )


@dataclass(frozen=True)
class SeifertData:
    """Seifert invariants (b; (alpha_i, gamma_i)) of an oriented fibration over S^2."""

    b: int
    fibers: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "fibers", tuple((int(a), int(g)) for a, g in self.fibers))
        if not self.fibers:
            raise ValueError("at least one exceptional fiber required")
        for a, g in self.fibers:
            if a < 2:
                raise ValueError(f"fiber multiplicity {a} must be >= 2")
            if not 0 < g < a:
                raise ValueError(f"fiber pair ({a},{g}) violates 0 < gamma < alpha")
            if gcd(a, g) != 1:
                raise ValueError(f"fiber pair ({a},{g}) is not coprime")
        if self.euler_number == 0:
            raise ValueError("Euler number e(Y) must be nonzero")

    @property
    def alphas(self) -> tuple[int, ...]:
        return tuple(a for a, _ in self.fibers)

    @property
    def gammas(self) -> tuple[int, ...]:
        return tuple(g for _, g in self.fibers)

    @property
    def orbifold(self) -> Orbifold:
        return Orbifold(self.alphas)

    @property
    def multiplicity(self) -> int:
        """A = prod alpha_i."""
        out = 1
        for a, _ in self.fibers:
            out *= a
        return out

    @property
    def euler_number(self) -> Fraction:
        """e(Y) = b + sum gamma_i/alpha_i = deg N."""
        return self.b + sum((Fraction(g, a) for a, g in self.fibers), Fraction(0))

    def as_dict(self) -> dict:
        return {"b": self.b, "fibers": [[a, g] for a, g in self.fibers]}


@dataclass(frozen=True)
class HomologySphereCheck:
    """Result of the integral-homology-sphere test, with the A*e(Y) diagnostic."""

    ok: bool
    a_times_e: int


def brieskorn_seifert_data(alphas: Sequence[int]) -> SeifertData:
    """Seifert data of the Brieskorn sphere Sigma(alpha_1, ..., alpha_n).

    Solves for the unique (b, gamma_i) with 0 < gamma_i < alpha_i and
    A * e(Y) = -1 (singularity-link orientation): gamma_i is the residue of
    -(A/alpha_i)^(-1) mod alpha_i, then b = (-1 - sum gamma_i * A/alpha_i)/A.
    """
    alphas = tuple(int(a) for a in alphas)
    if len(alphas) < 3:
        raise ValueError("need at least 3 multiplicities (fewer is lens-space territory)")
    if any(a < 2 for a in alphas):
        raise ValueError("multiplicities must be >= 2")
    if not pairwise_coprime(alphas):
        raise ValueError(f"multiplicities {alphas} are not pairwise coprime")
    A = 1
    for a in alphas:
        A *= a
    gammas = []
    for a in alphas:
        cofactor = A // a
        gammas.append((-pow(cofactor, -1, a)) % a)
    weighted = sum(g * (A // a) for g, a in zip(gammas, alphas))
    if (-1 - weighted) % A != 0:
        raise ConsistencyError("congruence solution failed to make A*e(Y) = -1")
    b = (-1 - weighted) // A
    return SeifertData(b, tuple(zip(alphas, gammas)))


def validate_homology_sphere(S: SeifertData) -> HomologySphereCheck:
    """True iff |A * e(Y)| = 1; the diagnostic reports the integer A * e(Y)."""
    e = S.euler_number
    a_e = e.numerator * (S.multiplicity // e.denominator)
    return HomologySphereCheck(ok=abs(a_e) == 1, a_times_e=a_e)


def require_homology_sphere(S: SeifertData) -> int:
    """A*e(Y) = +-1 of an integral homology sphere; ValueError naming A*e(Y) otherwise."""
    check = validate_homology_sphere(S)
    if not check.ok:
        raise ValueError(f"not an integral homology sphere: A*e(Y) = {check.a_times_e}")
    return check.a_times_e


def n_bundle(S: SeifertData) -> LineBundleData:
    """The line bundle N with S(N) = Y: normalized data of (b; gamma_1..gamma_n).

    Its orbifold degree equals e(Y).
    """
    return normalize(S.b, S.gammas, S.orbifold)


def bundle_log(L: LineBundleData, S: SeifertData) -> int:
    """The unique integer m with N^m = L, for Y an integral homology sphere.

    The degree ratio deg L / deg N fixes the candidate power; with
    deg N = a_e/A and a_e = A*e(Y) = +-1 it is the integer
    m = (e*A + sum beta_i * A/alpha_i) * a_e.  The result is then confirmed
    on normalized data: a mismatch after powering means the bundle lives on a
    different orbifold than N (or the data is corrupt).
    """
    check = validate_homology_sphere(S)
    if not check.ok:
        raise ValueError(
            f"bundle_log needs an integral homology sphere; A*e(Y) = {check.a_times_e}"
        )
    N = n_bundle(S)
    if L.orbifold != N.orbifold:
        raise ValueError("bundle lives on a different orbifold than the fibration")
    A = S.multiplicity
    m = (L.e * A + sum(b * (A // a) for b, a in zip(L.betas, S.alphas))) * check.a_times_e
    if power(N, m) != L:
        raise ConsistencyError(f"N^{m} does not reproduce the bundle data {L.as_dict()}")
    return m
