"""Singularity invariants of the Brieskorn hypersurface x^p + y^q + z^r = 0.

The link of the singularity is the Brieskorn sphere Sigma(p,q,r).  This
module computes, for pairwise-coprime exponents:

  * the Milnor number mu = (p-1)(q-1)(r-1);
  * the geometric genus p_g by two independent routes: the Pinkham-Dolgachev
    ceiling sum over the Seifert data, and a section count over effective
    powers of the dual of the Seifert bundle;
  * the Milnor-fiber signature by two independent routes: the Durfee relation
    sigma = 4*p_g - mu, and a pure lattice-point count over the unit box
    (the classical oracle, independent of p_g by design);
  * the Casson invariant lambda = sigma/8 (normalized so that
    lambda(Sigma(2,3,5)) = -1);
  * the Euler characteristic of the stable SL(2,C) character variety,
    -2*lambda + p_g, which must equal mu/4.

``verify_identity_chain`` runs every cross-check at exact integer precision.
For four or more exponents (complete intersections, not hypersurfaces) mu
and sigma are out of scope; only the Seifert-side quantities exist here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConsistencyError
from .moduli import excess_poincare
from .exact import euler_eval
from .orbifold import _walk, power
from .seifert import (
    SeifertData,
    brieskorn_seifert_data,
    n_bundle,
    pairwise_coprime,
    require_homology_sphere,
)

__all__ = [
    "SingularityInvariants",
    "IdentityChainReport",
    "milnor_number",
    "geometric_genus_pd",
    "geometric_genus_divisors",
    "signature_durfee",
    "signature_lattice_oracle",
    "casson_invariant",
    "verify_identity_chain",
    "brieskorn_invariants",
]

_LATTICE_LIMIT = 10**6


def _check_triple(p: int, q: int, r: int) -> None:
    for x in (p, q, r):
        if not isinstance(x, int) or x < 2:
            raise ValueError(f"exponents must be integers >= 2, got {x!r}")
    if not pairwise_coprime((p, q, r)):
        raise ValueError(f"exponents ({p},{q},{r}) are not pairwise coprime")


def _check_lattice_limit(p: int, q: int, r: int) -> None:
    """ValueError when the lattice oracle's p*q*r points exceed _LATTICE_LIMIT.

    The identity chain and report assembly call it before any other work on
    a Brieskorn triple.
    """
    m = p * q * r
    if m > _LATTICE_LIMIT:
        raise ValueError(f"p*q*r = {m} exceeds the desk-scale limit {_LATTICE_LIMIT}")


def milnor_number(p: int, q: int, r: int) -> int:
    """mu = (p-1)(q-1)(r-1), the middle Betti number of the Milnor fiber."""
    _check_triple(p, q, r)
    return (p - 1) * (q - 1) * (r - 1)


def _link_bound(S: SeifertData) -> int:
    """A * deg K, which is deg K / (-deg N) on a link-oriented homology sphere.

    ValueError unless A*e(Y) = -1: then deg N = -1/A, so the ratio is the
    integer A*(n - 2) - sum_i A/alpha_i and both p_g routes bound l by it
    without a Fraction.
    """
    if require_homology_sphere(S) > 0:
        raise ValueError(
            "wrong orientation: deg N > 0, but a singularity link has deg N < 0"
        )
    A = S.multiplicity
    return A * (len(S.fibers) - 2) - sum(A // a for a, _ in S.fibers)


def geometric_genus_pd(S: SeifertData) -> int:
    """Geometric genus by the Pinkham-Dolgachev sum.

    p_g = sum_{l >= 0} max(0, -N(l) - 1) with
    N(l) = -l*b - sum_i ceil(l*gamma_i / alpha_i).  Terms vanish once the
    orbifold degree of K tensor N^l drops below zero, i.e. beyond
    l = deg K / (-deg N) = A * deg K, so the sum is finite.

    The ceilings are carried from one l to the next: each fiber keeps the
    remainder ceil(l*gamma_i/alpha_i)*alpha_i - l*gamma_i in [0, alpha_i),
    and when subtracting gamma_i takes it below zero, alpha_i is added back
    and the ceiling grows by one.  Only the Seifert invariants enter, never a
    line bundle, so this route stays independent of
    :func:`geometric_genus_divisors`.
    """
    l_max = _link_bound(S)
    b, alphas, gammas = S.b, S.alphas, S.gammas
    fibers = range(len(alphas))
    rems = [0] * len(alphas)
    term = -1  # -N(l) - 1 = l*b + sum_i ceil(l*gamma_i/alpha_i) - 1, at l = 0
    total = 0
    for _ in range(l_max):
        term += b
        for i in fibers:
            rem = rems[i] - gammas[i]
            if rem < 0:
                rem += alphas[i]
                term += 1
            rems[i] = rem
        if term > 0:
            total += term
    return total


def geometric_genus_divisors(S: SeifertData) -> int:
    """Geometric genus as a count of effective divisors.

    Sums h^0 = max(0, e + 1) over the bundles N^(-l), l >= 0, of orbifold
    degree l/A in [0, deg K), i.e. l < A * deg K.  Their normalized data
    comes from one integer walk over the powers of D = N^(-1), the walk that
    also labels the lattice vectors on the moduli side.  It counts sections
    of bundles, not the ceilings of :func:`geometric_genus_pd`, which it must
    equal on every singularity link.
    """
    degrees, _ = _walk(power(n_bundle(S), -1), _link_bound(S))
    return sum(e + 1 for e in degrees if e >= 0)


def signature_durfee(pg: int, milnor: int) -> int:
    """Signature from b+ = 2*p_g: sigma = b+ - b- = 4*p_g - mu."""
    b_plus = 2 * pg
    b_minus = milnor - b_plus
    if b_minus < 0:
        raise ValueError(f"b- = mu - 2*pg = {b_minus} cannot be negative")
    return b_plus - b_minus


def signature_lattice_oracle(p: int, q: int, r: int) -> int:
    """Milnor-fiber signature by exact lattice-point counting.

    Counts triples 0 < i < p, 0 < j < q, 0 < k < r by the residue of
    s = i/p + j/q + k/r mod 2: s in (0,1) contributes +1, s in (1,2)
    contributes -1.  All comparisons are exact (integers scaled by p*q*r);
    a boundary value s in {0,1,2} is impossible for coprime exponents and is
    treated as a hard error.  Deliberately independent of p_g so the Durfee
    route has a genuine cross-check.
    """
    _check_triple(p, q, r)
    _check_lattice_limit(p, q, r)
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


def casson_invariant(p: int, q: int, r: int) -> int:
    """lambda(Sigma(p,q,r)) = sigma/8 via the lattice oracle.

    The normalization gives lambda(Sigma(2,3,5)) = -1.  The signature of a
    homology-sphere link is divisible by 8 (unimodular even form); a
    remainder signals an oracle bug.
    """
    return _casson_from_signature(signature_lattice_oracle(p, q, r))


def _casson_from_signature(sigma: int) -> int:
    """lambda = sigma/8 from a lattice signature, which 8 must divide."""
    if sigma % 8 != 0:
        raise ConsistencyError(f"lattice signature {sigma} is not divisible by 8")
    return sigma // 8


@dataclass(frozen=True)
class IdentityChainReport:
    """Every intermediate value of the cross-check chain for one triple."""

    p: int
    q: int
    r: int
    milnor: int
    pg_pd: int
    pg_divisors: int
    excess_euler: int
    sigma_durfee: int
    sigma_lattice: int
    casson: int
    euler_sl2c: int
    pg_routes_ok: bool
    sigma_routes_ok: bool
    milnor_quarter_ok: bool

    @property
    def ok(self) -> bool:
        return self.pg_routes_ok and self.sigma_routes_ok and self.milnor_quarter_ok

    def as_dict(self) -> dict:
        return {
            "triple": [self.p, self.q, self.r],
            "milnor": self.milnor,
            "pg_pd": self.pg_pd,
            "pg_divisors": self.pg_divisors,
            "excess_euler": self.excess_euler,
            "sigma_durfee": self.sigma_durfee,
            "sigma_lattice": self.sigma_lattice,
            "casson": self.casson,
            "euler_sl2c": self.euler_sl2c,
            "checks": {
                "pg_routes": self.pg_routes_ok,
                "sigma_routes": self.sigma_routes_ok,
                "milnor_quarter": self.milnor_quarter_ok,
            },
            "ok": self.ok,
        }


def verify_identity_chain(
    p: int, q: int, r: int, excess_euler: int | None = None
) -> IdentityChainReport:
    """Run the full cross-check chain for one pairwise-coprime triple.

    Asserted identities, all at exact integer precision:
      (i)   both geometric-genus routes agree (and match the excess Euler
            characteristic from the moduli side);
      (ii)  the Durfee signature equals the lattice-oracle signature;
      (iii) -2*lambda + p_g = mu/4 = chi of the SL(2,C) character variety,
            with chi = -2*lambda + excess Euler characteristic.

    ``excess_euler`` is the moduli side's value when the caller has already
    assembled the excess polynomial of Sigma(p,q,r), in any order of the
    exponents; otherwise it is computed here.
    """
    _check_triple(p, q, r)
    _check_lattice_limit(p, q, r)
    S = brieskorn_seifert_data((p, q, r))
    mu = milnor_number(p, q, r)
    pg_pd = geometric_genus_pd(S)
    pg_div = geometric_genus_divisors(S)
    if excess_euler is None:
        excess_euler = euler_eval(excess_poincare(S))
    sigma_lat = signature_lattice_oracle(p, q, r)
    sigma_dur = signature_durfee(pg_pd, mu)
    lam = _casson_from_signature(sigma_lat)
    chi_m = -2 * lam + excess_euler
    pg_ok = pg_pd == pg_div == excess_euler
    sigma_ok = sigma_dur == sigma_lat
    quarter_ok = (mu % 4 == 0) and (-2 * lam + pg_pd == mu // 4 == chi_m)
    return IdentityChainReport(
        p=p,
        q=q,
        r=r,
        milnor=mu,
        pg_pd=pg_pd,
        pg_divisors=pg_div,
        excess_euler=excess_euler,
        sigma_durfee=sigma_dur,
        sigma_lattice=sigma_lat,
        casson=lam,
        euler_sl2c=chi_m,
        pg_routes_ok=pg_ok,
        sigma_routes_ok=sigma_ok,
        milnor_quarter_ok=quarter_ok,
    )


@dataclass(frozen=True)
class SingularityInvariants:
    """The invariant pack for one Brieskorn triple."""

    milnor: int
    pg: int
    signature: int
    b_plus: int
    casson: int
    euler_sl2c: int

    def as_dict(self) -> dict:
        return {
            "milnor": self.milnor,
            "pg": self.pg,
            "signature": self.signature,
            "b_plus": self.b_plus,
            "casson": self.casson,
            "euler_sl2c": self.euler_sl2c,
        }


def brieskorn_invariants(p: int, q: int, r: int) -> SingularityInvariants:
    """Invariants of x^p + y^q + z^r = 0, verified through the identity chain."""
    chain = verify_identity_chain(p, q, r)
    if not chain.ok:
        raise ConsistencyError(f"identity chain failed for ({p},{q},{r}): {chain.as_dict()}")
    return SingularityInvariants(
        milnor=chain.milnor,
        pg=chain.pg_pd,
        signature=chain.sigma_lattice,
        b_plus=2 * chain.pg_pd,
        casson=chain.casson,
        euler_sl2c=chain.euler_sl2c,
    )
