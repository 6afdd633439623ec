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

``verify_identity_chain`` runs every cross-check at exact integer precision,
and ``verify_sweep_report`` runs it over every triple up to a bound: the
``verify`` command.  The chain's moduli-side term, the excess Euler
characteristic, comes from the count-only scan ``_excess_euler`` here, over
``orbifold._prefixes``; the moduli module reads the same scan, and this
module imports nothing from it, so a sweep loads neither ``moduli`` nor
``exact`` nor ``fractions``.
The Pinkham-Dolgachev sum and the scan each sum along one fiber in closed
form, with no formula or table in common: the sum takes one step per
residue class of l modulo A/alpha for the largest alpha, and the scan one
per prefix of residues before the last fiber.  The lattice count runs each
row in one C-level ``map`` over a range, and the report record is a
``collections.namedtuple`` subclass.
For four or more exponents (complete intersections, not hypersurfaces) mu
and sigma are out of scope; only the Seifert-side quantities exist here.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import accumulate, cycle, islice, repeat
from operator import add, floordiv

from .errors import ConsistencyError
from .orbifold import _exponent, _h0_sum, _prefixes, _walk, power
from .seifert import (
    SeifertData,
    brieskorn_seifert_data,
    n_bundle,
    pairwise_coprime,
    require_homology_sphere,
)

__all__ = [
    "IdentityChainReport",
    "geometric_genus_pd",
    "geometric_genus_divisors",
    "signature_durfee",
    "signature_lattice_oracle",
    "verify_identity_chain",
    "verify_sweep_report",
]

_LATTICE_LIMIT = 10**6


def _check_triple(p: int, q: int, r: int) -> None:
    for x in (p, q, r):
        if not isinstance(x, int) or x < 2:
            raise ValueError(f"exponents must be integers >= 2, got {x!r}")
    if not pairwise_coprime((p, q, r)):
        raise ValueError(f"exponents ({p},{q},{r}) are not pairwise coprime")


def _check_lattice_limit(*alphas: int) -> None:
    """ValueError when A*(n-2), A = prod alpha_i, exceeds _LATTICE_LIMIT.

    On three fibers A*(n-2) = p*q*r.  On every fiber count it bounds the
    moduli side's vector count, which is below A*deg K < A*(n-2), the
    A*deg K powers of the divisor route's walk, and the at most A/2
    residue classes of the Pinkham-Dolgachev sum.
    :func:`verify_identity_chain` calls it before any other work on a
    triple, and report assembly on the alphas of every fibration, in
    either orientation, before its moduli side and the chain it runs on the
    same data.
    """
    m = math.prod(alphas) * (len(alphas) - 2)
    if m > _LATTICE_LIMIT:
        name = "p*q*r" if len(alphas) == 3 else "A*(n-2)"
        try:
            name = f"{name} = {m}"
        except ValueError:  # more digits than str(int) prints (sys.get_int_max_str_digits)
            name = f"{name}, of {m.bit_length()} bits,"
        raise ValueError(f"{name} exceeds the desk-scale limit {_LATTICE_LIMIT}")


def _link_bound(S: SeifertData) -> int:
    """A * deg K, which is deg K / (-deg N) on a link-oriented homology sphere.

    ValueError unless A*e(Y) = -1: then deg N = -1/A, so the ratio is the
    integer ``Orbifold.scaled_deg_k`` and both p_g routes bound l by it
    without a Fraction.
    """
    if require_homology_sphere(S) > 0:
        raise ValueError(
            "wrong orientation: deg N > 0, but a singularity link has deg N < 0"
        )
    return S.orbifold.scaled_deg_k


def geometric_genus_pd(S: SeifertData) -> int:
    """Geometric genus by the Pinkham-Dolgachev sum.

    p_g = sum_{l >= 0} max(0, T(l)) with T(l) = -N(l) - 1 and
    N(l) = -l*b - sum_i ceil(l*gamma_i / alpha_i).  Terms vanish once the
    orbifold degree of K tensor N^l drops below zero, i.e. beyond
    l = deg K / (-deg N) = A * deg K, so the sum is finite.

    The sum runs by residue class modulo P = A/alpha, alpha the largest
    isotropy order and gamma its invariant.  Every other alpha_i divides P,
    so along l = l0 + k*P the other fibers' ceilings grow linearly in k,
    and A*e(Y) = -1 turns the whole term into T(l0 + k*P) =
    ceil((c0 - k)/alpha), with c0 = alpha*T'(l0) + l0*gamma and T' the
    term without the largest fiber.  The K = (A*deg K - l0) // P + 1
    values of k then add F(c0) - F(c0 - min(K, c0)) when c0 > 0, where
    F(m) = sum_{j <= m} ceil(j/alpha) = (alpha*q + 2*r)(q + 1)/2 for
    m = q*alpha + r: one step per class, min(P, A*deg K + 1) of them.  On a
    link T(l) <= deg K + 1 - l/A, so c0 <= K and the min never cuts; it
    keeps the sum to l <= A*deg K all the same.  The c0 run through C-level
    iterators over each other fiber's ceiling steps, which are periodic in
    l with period alpha_i and tabled once per period.  Only the Seifert
    invariants enter, never a line bundle, so this route stays independent
    of :func:`geometric_genus_divisors`.
    """
    bound = _link_bound(S)
    alpha, gamma = max(S.fibers)  # a homology sphere's alphas are pairwise coprime
    others = [(a, g) for a, g in S.fibers if a != alpha]
    period = S.orbifold.scale // alpha
    # c0 = alpha*T'(l0) + l0*gamma steps by alpha times each other fiber's
    # ceiling step, plus alpha*b + gamma, folded into the first table
    c0_steps = [
        [alpha * ((-j * g) // a - (-(j + 1) * g) // a) for j in range(a)] for a, g in others
    ] or [[0]]
    c0_steps[0] = [alpha * S.b + gamma + c for c in c0_steps[0]]
    steps = cycle(c0_steps[0])
    for table in c0_steps[1:]:
        steps = map(add, steps, cycle(table))
    heads = accumulate(islice(steps, max(min(period, bound + 1) - 1, 0)), initial=-alpha)
    full, rest = divmod(bound, period)  # K = full + 1 on the classes l0 <= rest, else full
    total = 0  # twice the sum, since F(m) is a product over 2
    for k, c0s in ((full + 1, islice(heads, rest + 1)), (full, heads)):
        for c0 in filter((0).__lt__, c0s):
            q, r = divmod(c0, alpha)
            total += (alpha * q + 2 * r) * (q + 1)
            if k < c0:
                q, r = divmod(c0 - k, alpha)
                total -= (alpha * q + 2 * r) * (q + 1)
    return total // 2


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
    return _h0_sum(degrees)


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

    For fixed (i, j), s*pqr = base + k*pq runs through an arithmetic
    progression in k, so the k in each of (0,1), (1,2) and (2,3) are counted
    by a floor division: O(pq) work, not one visit per point (see
    :func:`_lattice_signature`).
    """
    _check_triple(p, q, r)
    _check_lattice_limit(p, q, r)
    return _lattice_signature(p, q, r)


def _lattice_signature(p: int, q: int, r: int) -> int:
    """The oracle's region count, for any exponents >= 2.

    With m = pqr and base = i*qr + j*pr, the k in [1, r-1] with
    base + k*pq < t number min(max((t - base) // pq, 0), r - 1) for t = m
    and t = 2m, unless base + k*pq = t for such a k: that is a boundary
    value, a ConsistencyError.

    Write x = m - base, in (-m, m), so that (2m - base) // pq = x // pq + r.
    Off the boundary the k with s < 1 number max(x // pq, 0), the k with
    s < 2 number min(x // pq + r, r - 1), and the point (i, j) adds
    2*(|x| // pq) - (r - 1) to the count: one C-level ``map`` over a range
    per row i, where x = c - j*pr with c = m - i*qr.  The boundary values
    are the x = k*pq with 0 < |k| < r, at k (s = 1) or k + r (s = 2); a row
    can hold one only if gcd(pr, pq) = p*gcd(q, r) divides c, which never
    happens on pairwise-coprime exponents, and such a row is scanned for
    them in j order, so the first boundary point is named.
    """
    m = p * q * r
    qr, pr, pq = q * r, p * r, p * q
    g = p * math.gcd(q, r)  # gcd(pr, pq)
    total = 0
    for i in range(1, p):
        c = m - i * qr  # x = c - j*pr on row i
        if c % g == 0:  # pq may divide an x on this row
            for j in range(1, q):
                k, rem = divmod(c - j * pr, pq)
                if rem == 0 and k:
                    t, k = (m, k) if k > 0 else (2 * m, k + r)
                    raise ConsistencyError(
                        f"boundary lattice value s = {t}/{m} at (i,j,k)=({i},{j},{k})"
                    )
        total += sum(map(floordiv, map(abs, range(c - pr, c - q * pr, -pr)), repeat(pq)))
    # s in (0,1) and s in (2,3) count +1, s in (1,2) counts -1
    return 2 * total - (p - 1) * (q - 1) * (r - 1)


def _casson_from_signature(sigma: int) -> int:
    """lambda = sigma/8 from a lattice signature, which 8 must divide.

    The normalization gives lambda(Sigma(2,3,5)) = -1.  The signature of a
    homology-sphere link is divisible by 8 (unimodular even form); a
    remainder signals an oracle bug.
    """
    if sigma % 8 != 0:
        raise ConsistencyError(f"lattice signature {sigma} is not divisible by 8")
    return sigma // 8


def _excess_euler(S: SeifertData) -> int:
    """Sum of chi(CP^e) = e + 1 over the lattice vectors, without building them.

    The scan of ``moduli.enumerate_e_vectors``, with its pruning and its
    integrality check of each leaf's least m, stops at the residues: a leaf
    with scaled partial degree acc takes every e with e*A + acc < A*deg K,
    that is t = (A*deg K - 1 - acc) // A + 1 vectors, whose e + 1 sum to
    t(t + 1)/2.  This is the excess polynomial's Euler characteristic,
    ``euler_eval`` of ``moduli.moduli_report(S).excess_poincare``, and on a
    link the geometric genus.

    Each prefix of the first n - 1 residues sums its last-fiber leaves in
    closed form.  With q, rho = divmod(A*deg K - 1 - acc, A) and step =
    A/alpha_n, the first k1 = min(alpha_n, rho // step + 1) residues have
    t = q + 1 and the rest t = q, so the prefix adds
    (k1*(q + 2) + (alpha_n - k1)*q)(q + 1)/2.  A leaf's least m*A is
    low = rho + 1 - A + frac + step when t = q + 1 and low + A when t = q,
    less A at the last residue; so all are multiples of A when low is, and
    the least of them is low - A when k1 = alpha_n and low otherwise.  When
    that test fails, the prefix runs its leaves one by one, and
    ``_exponent`` names the first failing vector.
    """
    require_homology_sphere(S)
    C = S.orbifold
    A, limit = C.scale, C.scaled_deg_k
    a, step = C.alphas[-1], C.cofactors[-1]
    total = 0  # twice the sum
    for acc, frac, betas in _prefixes(C):
        q, rho = divmod(limit - 1 - acc, A)
        k1 = min(a, rho // step + 1)
        low = rho + 1 - A + frac + step
        if low % A == 0 and low >= (A if k1 == a else 0):
            total += (k1 * (q + 2) + (a - k1) * q) * (q + 1)
            continue
        for beta in range(a):
            nxt = acc + beta * step
            if nxt >= limit:
                break
            t = (limit - 1 - nxt) // A + 1
            least = limit - nxt - t * A + frac + (beta + 1) % a * step
            if least % A or least < 0:  # _exponent names the failing vector
                _exponent(least, A, (t - 1,) + betas + (beta,))
            total += t * (t + 1)
    return total // 2


class IdentityChainReport(
    namedtuple(
        "IdentityChainReport",
        "p q r milnor pg_pd pg_divisors excess_euler sigma_durfee sigma_lattice casson"
        " euler_sl2c pg_routes_ok sigma_routes_ok milnor_quarter_ok",
    )
):
    """Every intermediate value of the cross-check chain for one triple."""

    __slots__ = ()

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


def verify_identity_chain(p: int, q: int, r: int) -> IdentityChainReport:
    """Run the full cross-check chain for one pairwise-coprime triple.

    Asserted identities, all at exact integer precision:
      (i)   both geometric-genus routes agree (and match the excess Euler
            characteristic from the moduli side);
      (ii)  the Durfee signature equals the lattice-oracle signature;
      (iii) -2*lambda + p_g = mu/4 = chi of the SL(2,C) character variety,
            with chi = -2*lambda + excess Euler characteristic.

    The link-oriented Seifert data of Sigma(p,q,r) is built here; the
    count-only scan :func:`_excess_euler` gives the excess Euler
    characteristic, the sum of e + 1 over the lattice vectors, without
    building one, and :func:`geometric_genus_divisors` walks the powers of
    N^(-1).  ``reports.seifert_report``, whose moduli report already holds
    both values, hands them to the same chain.
    """
    _check_triple(p, q, r)
    _check_lattice_limit(p, q, r)
    S = brieskorn_seifert_data((p, q, r))
    return _identity_chain(p, q, r, S, _excess_euler(S), geometric_genus_divisors(S))


def _identity_chain(
    p: int, q: int, r: int, S: SeifertData, excess_euler: int, pg_divisors: int
) -> IdentityChainReport:
    """The chain on link-oriented data S of Sigma(p,q,r), in any fiber order.

    ``excess_euler`` and ``pg_divisors`` are the moduli side's excess Euler
    characteristic and the divisor route's p_g of S; the Pinkham-Dolgachev
    p_g and the lattice signature are computed here.  The caller has checked
    the triple, so mu is read off it without a second check.
    """
    mu = (p - 1) * (q - 1) * (r - 1)
    pg_pd = geometric_genus_pd(S)
    sigma_lat = signature_lattice_oracle(p, q, r)
    sigma_dur = signature_durfee(pg_pd, mu)
    lam = _casson_from_signature(sigma_lat)
    chi_m = -2 * lam + excess_euler
    pg_ok = pg_pd == pg_divisors == excess_euler
    sigma_ok = sigma_dur == sigma_lat
    quarter_ok = (mu % 4 == 0) and (-2 * lam + pg_pd == mu // 4 == chi_m)
    return IdentityChainReport(
        p=p,
        q=q,
        r=r,
        milnor=mu,
        pg_pd=pg_pd,
        pg_divisors=pg_divisors,
        excess_euler=excess_euler,
        sigma_durfee=sigma_dur,
        sigma_lattice=sigma_lat,
        casson=lam,
        euler_sl2c=chi_m,
        pg_routes_ok=pg_ok,
        sigma_routes_ok=sigma_ok,
        milnor_quarter_ok=quarter_ok,
    )


def verify_sweep_report(max_exponent: int) -> dict:
    """Identity-chain sweep over all pairwise-coprime triples p < q < r <= max."""
    if max_exponent > 30:
        raise ValueError("sweep limit is 30 (desk scale)")
    rows = []
    all_ok = True
    for p in range(2, max_exponent + 1):
        for q in range(p + 1, max_exponent + 1):
            if math.gcd(p, q) != 1:
                continue
            for r in range(q + 1, max_exponent + 1):
                if math.gcd(p, r) != 1 or math.gcd(q, r) != 1:
                    continue
                chain = verify_identity_chain(p, q, r)
                rows.append(chain.as_dict())
                all_ok = all_ok and chain.ok
    return {
        "input": {"mode": "verify", "max": max_exponent},
        "triples": rows,
        "count": len(rows),
        "all_ok": all_ok,
    }
