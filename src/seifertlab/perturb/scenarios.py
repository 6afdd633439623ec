"""Built-in perturbation scenarios with exactly known critical structure.

Each scenario packages a family (S0, S1, S2), the components of
Z0 = Crit(S0) that the localisation neighborhood covers (with their Euler
characteristics and Morse-Bott indices as declared metadata), and the
critical set Z1 of S1 restricted to Z0, each point carrying a local chart of
Z0 for restricted-index computations.

  circle: S0 = (x^2 + y^2 - 1)^2 + z^2, S1 = x, S2 = 0.  Z0 contains the
      unit circle in the z = 0 plane (chi = 0, index 0); S1 restricts to
      cos(theta) with Z1 = {(1,0,0), (-1,0,0)}.  S0 also has an isolated
      critical point at the origin, outside every basin used here.

  sphere: S0 = (|x|^2 - 1)^2, S1 = z, S2 = 0.  Z0 contains the unit sphere
      (chi = 2, index 0); Z1 = {north, south pole}.  Same remark about the
      origin.

  linear: S0 = u1^2 + 2*u2^2 on coordinates (u1, u2, w), so the normal
      Hessian is the constant diagonal (2, 4); S1 = (1+w)*u1 + w*u2 vanishes
      on Z0 = the w-axis, so Z1 = Z0 is a one-dimensional flat and the
      leading term -((1+w)^2/4 + w^2/8) + w^2 has a unique nondegenerate
      minimum at w = 2/5.  The w-axis is noncompact and S1|Z0 = 0 is not
      proper, so the signed-count identity is only declared for eps > 0.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Callable

from .fields import PerturbationFamily, ScalarField, Vector
from .linalg import RANK_RTOL, _dot, _norm, kernel_basis

__all__ = [
    "Z0Component",
    "Z1Site",
    "Scenario",
    "circle_scenario",
    "sphere_scenario",
    "linear_scenario",
    "scenario_names",
    "scenario_by_name",
]


_ZERO3 = ((0.0, 0.0, 0.0),) * 3
VALIDATE_TOL = 1e-8  # a residual Scenario.validate reads as zero lies below this
VALIDATE_SAMPLES = 32  # Z0 points Scenario.validate checks


class _Record:
    """Base of the mutable records: a repr over the fields named in __slots__."""

    __slots__ = ()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


def _tangential_s1(family: PerturbationFamily, x) -> list[float]:
    """grad S1(x) on an orthonormal basis of Ker Hess S0(x), the tangent space of Z0.

    It vanishes exactly where a point of Z0 lies on Z1 = Crit(S1|Z0).
    """
    basis = kernel_basis(family.s0.hessian(x), rtol=RANK_RTOL)
    g1 = family.s1.gradient(x)
    return [_dot(k, g1) for k in basis]


class Z0Component(namedtuple("Z0Component", "name chi chi_c morse_bott_index")):
    """Declared metadata for one connected component of Crit(S0)."""

    __slots__ = ()


class Z1Site(_Record):
    """One charted piece of Z1 = Crit(S1|Z0).

    ``z0_chart`` parametrizes Z0 near ``point`` (chart(0) = point) and is
    used to compute the index of S1 restricted to Z0.  When ``flat`` is set,
    S1|Z0 is constant along the chart, Z1 fills the whole chart, and the
    leading-term function is minimized over it starting from ``flat_seeds``.
    ``point`` is stored as a tuple of floats.
    """

    __slots__ = ("point", "component", "z0_chart", "z0_dim", "flat", "flat_seeds")

    def __init__(
        self,
        point,
        component: Z0Component,
        z0_chart: Callable[[Vector], Vector],
        z0_dim: int,
        flat: bool = False,
        flat_seeds: tuple = (),
    ):
        self.point = tuple(map(float, point))
        self.component = component
        self.z0_chart = z0_chart
        self.z0_dim = z0_dim
        self.flat = flat
        self.flat_seeds = flat_seeds


class Scenario(_Record):
    """A perturbation family with its declared critical structure.

    ``z0_sampler(n)`` returns n evenly spaced points of Z0;
    ``chi_c_count_valid`` declares S1|Z0 proper and bounded below, which the
    eps < 0 signed count needs.
    """

    __slots__ = ("name", "family", "components", "z1_sites", "z0_sampler", "chi_c_count_valid")

    def __init__(
        self,
        name: str,
        family: PerturbationFamily,
        components: tuple[Z0Component, ...],
        z1_sites: tuple[Z1Site, ...],
        z0_sampler: Callable[[int], list[Vector]],
        chi_c_count_valid: bool = True,
    ):
        self.name = name
        self.family = family
        self.components = components
        self.z1_sites = z1_sites
        self.z0_sampler = z0_sampler
        self.chi_c_count_valid = chi_c_count_valid

    def validate(self) -> list[str]:
        """Residual checks on the declared structure; empty list means valid.

        Every Z1 point must kill grad S0 and the component of grad S1
        tangent to Z0; VALIDATE_SAMPLES sampled Z0 points must kill grad S0.
        The samples are deterministic, so validation draws no random numbers.
        """
        problems = []
        for site in self.z1_sites:
            g0 = _norm(self.family.s0.gradient(site.point))
            if g0 >= VALIDATE_TOL:
                problems.append(f"site {list(site.point)}: |grad S0| = {g0:.3e}")
            tang_part = _norm(_tangential_s1(self.family, site.point))
            if tang_part >= VALIDATE_TOL:
                problems.append(
                    f"site {list(site.point)}: tangential |grad S1| = {tang_part:.3e}"
                )
        for x in self.z0_sampler(VALIDATE_SAMPLES):
            g0 = _norm(self.family.s0.gradient(x))
            if g0 >= VALIDATE_TOL:
                problems.append(f"sampled {list(x)}: |grad S0| = {g0:.3e}")
        return problems


def circle_scenario() -> Scenario:
    def s0_f(x):
        u = x[0] ** 2 + x[1] ** 2 - 1.0
        return u * u + x[2] ** 2

    def s0_grad(x):
        u = x[0] ** 2 + x[1] ** 2 - 1.0
        return (4 * x[0] * u, 4 * x[1] * u, 2 * x[2])

    def s0_hess(x):
        u = x[0] ** 2 + x[1] ** 2 - 1.0
        return (
            (4 * u + 8 * x[0] ** 2, 8 * x[0] * x[1], 0.0),
            (8 * x[0] * x[1], 4 * u + 8 * x[1] ** 2, 0.0),
            (0.0, 0.0, 2.0),
        )

    s0 = ScalarField(3, s0_f, s0_grad, s0_hess)
    s1 = ScalarField(3, lambda x: x[0], lambda x: (1.0, 0.0, 0.0), lambda x: _ZERO3)
    family = PerturbationFamily(s0, s1, ScalarField.zero(3))
    comp = Z0Component(name="unit-circle", chi=0, chi_c=0, morse_bott_index=0)

    def chart_at(theta0):
        return lambda t: (math.cos(theta0 + t[0]), math.sin(theta0 + t[0]), 0.0)

    sites = (
        Z1Site((1.0, 0.0, 0.0), comp, chart_at(0.0), z0_dim=1),
        Z1Site((-1.0, 0.0, 0.0), comp, chart_at(math.pi), z0_dim=1),
    )

    def sampler(n):
        thetas = [i * (2 * math.pi / n) for i in range(n)]
        return [(math.cos(th), math.sin(th), 0.0) for th in thetas]

    return Scenario("circle", family, (comp,), sites, sampler)


def sphere_scenario() -> Scenario:
    def s0_f(x):
        u = _dot(x, x) - 1.0
        return u * u

    def s0_grad(x):
        c = 4.0 * (_dot(x, x) - 1.0)
        return (c * x[0], c * x[1], c * x[2])

    def s0_hess(x):
        # c*I + 8 x x^T; the 0.0 + turns a -0.0 off-diagonal entry into 0.0
        c = 4.0 * (_dot(x, x) - 1.0)
        x0, x1, x2 = x
        return (
            (c + 8.0 * (x0 * x0), 0.0 + 8.0 * (x0 * x1), 0.0 + 8.0 * (x0 * x2)),
            (0.0 + 8.0 * (x1 * x0), c + 8.0 * (x1 * x1), 0.0 + 8.0 * (x1 * x2)),
            (0.0 + 8.0 * (x2 * x0), 0.0 + 8.0 * (x2 * x1), c + 8.0 * (x2 * x2)),
        )

    s0 = ScalarField(3, s0_f, s0_grad, s0_hess)
    s1 = ScalarField(3, lambda x: x[2], lambda x: (0.0, 0.0, 1.0), lambda x: _ZERO3)
    family = PerturbationFamily(s0, s1, ScalarField.zero(3))
    comp = Z0Component(name="unit-sphere", chi=2, chi_c=2, morse_bott_index=0)

    def chart_pole(sign):
        # orthographic chart; fine for the small steps used in differencing
        return lambda t: (t[0], t[1], sign * math.sqrt(max(0.0, 1.0 - t[0] ** 2 - t[1] ** 2)))

    sites = (
        Z1Site((0.0, 0.0, 1.0), comp, chart_pole(1.0), z0_dim=2),
        Z1Site((0.0, 0.0, -1.0), comp, chart_pole(-1.0), z0_dim=2),
    )

    def sampler(n):
        # Fibonacci lattice: equal-area bands in z, golden-angle steps in longitude
        out = []
        for k in range(n):
            i = k + 0.5
            z = 1.0 - 2.0 * i / n
            r = math.sqrt(1.0 - z * z)
            phi = math.pi * (3.0 - math.sqrt(5.0)) * i
            out.append((r * math.cos(phi), r * math.sin(phi), z))
        return out

    return Scenario("sphere", family, (comp,), sites, sampler)


def linear_scenario() -> Scenario:
    s0 = ScalarField(
        3,
        lambda x: x[0] ** 2 + 2.0 * x[1] ** 2,
        lambda x: (2.0 * x[0], 4.0 * x[1], 0.0),
        lambda x: ((2.0, 0.0, 0.0), (0.0, 4.0, 0.0), (0.0, 0.0, 0.0)),
    )
    s1 = ScalarField(
        3,
        lambda x: (1.0 + x[2]) * x[0] + x[2] * x[1],
        lambda x: (1.0 + x[2], x[2], x[0] + x[1]),
        lambda x: ((0.0, 0.0, 1.0), (0.0, 0.0, 1.0), (1.0, 1.0, 0.0)),
    )
    s2 = ScalarField(
        3,
        lambda x: x[2] ** 2,
        lambda x: (0.0, 0.0, 2.0 * x[2]),
        lambda x: ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 2.0)),
    )
    family = PerturbationFamily(s0, s1, s2)
    comp = Z0Component(name="w-axis", chi=1, chi_c=-1, morse_bott_index=0)
    chart = lambda t: (0.0, 0.0, t[0])
    sites = (
        Z1Site(
            (0.0, 0.0, 0.0),
            comp,
            chart,
            z0_dim=1,
            flat=True,
            flat_seeds=((0.0,),),
        ),
    )

    def sampler(n):
        step = 4.0 / max(n - 1, 1)
        return [(0.0, 0.0, -2.0 + k * step) for k in range(n)]

    return Scenario(
        "linear",
        family,
        (comp,),
        sites,
        sampler,
        chi_c_count_valid=False,
    )


_REGISTRY: dict[str, Callable[[], Scenario]] = {
    "circle": circle_scenario,
    "sphere": sphere_scenario,
    "linear": linear_scenario,
}


def scenario_names() -> list[str]:
    return sorted(_REGISTRY)


def scenario_by_name(name: str) -> Scenario:
    try:
        builder = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; available: {', '.join(scenario_names())}"
        ) from None
    return builder()
