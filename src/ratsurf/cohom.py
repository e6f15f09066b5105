"""Exact cohomology dimensions of line bundles on the supported surfaces.

On the plane h^0(dH) counts degree-d monomials in three variables.  On F_e
the pushforward of O(aG+bF) along the ruling splits into line bundles
O(b-ke) on the base line for k = 0..a, so

    h^0(aG+bF) = sum_{k=0}^{a} max(0, b-ke+1)   for a >= 0, else 0.

On the plane and on F_e one Serre-duality rule builds the whole table
(`cohomology_table`): h^2 is h^0 of the Serre-dual class K-D, and
h^1 = h^0 + h^2 - chi(D) closes the Riemann-Roch Euler characteristic; all
three are exact because h^0 and h^2 are.  `h0_class` is the one place that
dispatches h^0 on the surface kind; K and chi come from `picard`.

On projective space P^l only h^0 and the top cohomology of O(m) are needed
(the intermediate groups vanish identically):

    h^0 = C(m+l, l) for m >= 0,    h^top = C(-m-1, l) for m <= -l-1.

The blowup routine is deliberately narrow: it handles classes aG+bF-cE with
c in {0, 1}, where one generic point imposes a single linear condition on the
base-point-free ambient system.  Anything else is rejected rather than
guessed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import ScopeError
from .picard import (
    DivisorClass,
    Surface,
    SurfaceKind,
    canonical_class,
    euler_char,
    format_divisor,
    hirzebruch,
    projective_plane,
)

__all__ = [
    "CohomologyTable",
    "ProjectiveSpaceCohomology",
    "cohomology_p2",
    "cohomology_hirzebruch",
    "cohomology_projective_space",
    "h0_blowup",
    "h0_class",
    "cohomology_table",
    "linear_system_dim",
]


@dataclass(frozen=True)
class CohomologyTable:
    """Dimensions h^0, h^1, h^2 together with their alternating sum."""

    h0: int
    h1: int
    h2: int
    chi: int

    def __post_init__(self) -> None:
        if min(self.h0, self.h1, self.h2) < 0:
            raise AssertionError(f"negative cohomology dimension in {self}")
        if self.h0 - self.h1 + self.h2 != self.chi:
            raise AssertionError(f"chi mismatch in {self}")


class ProjectiveSpaceCohomology(NamedTuple):
    h0: int
    h_top: int


def _h0_hirzebruch(e: int, a: int, b: int) -> int:
    if a < 0:
        return 0
    return sum(max(0, b - k * e + 1) for k in range(a + 1))


def cohomology_p2(d: int) -> CohomologyTable:
    """Full cohomology table of O(dH) on the plane (h^1 is always zero)."""
    return cohomology_table(projective_plane(), DivisorClass((d,)))


def cohomology_hirzebruch(e: int, a: int, b: int) -> CohomologyTable:
    """Full cohomology table of O(aG+bF) on F_e."""
    return cohomology_table(hirzebruch(e), DivisorClass((a, b)))


def cohomology_projective_space(l: int, m: int) -> ProjectiveSpaceCohomology:
    """(h^0, h^l) of O(m) on P^l; callers may assume h^i = 0 for 0 < i < l."""
    if l < 1:
        raise ValueError(f"projective space dimension must be >= 1, got {l}")
    h0 = math.comb(m + l, l) if m >= 0 else 0
    h_top = math.comb(-m - 1, l) if m <= -l - 1 else 0
    return ProjectiveSpaceCohomology(h0, h_top)


def h0_blowup(e: int, a: int, b: int, c: int) -> int:
    """h^0 of aG+bF-cE on the blowup of F_e at a generic point, c in {0, 1}.

    For c = 1 the generic point imposes one condition on the ambient system;
    c >= 2 would need an honest multiplicity analysis and is rejected.
    """
    if c == 0:
        return _h0_hirzebruch(e, a, b)
    if c == 1:
        return max(0, _h0_hirzebruch(e, a, b) - 1)
    raise ScopeError(
        f"blowup classes with exceptional multiplicity {c} are outside the verified scope "
        "(only c in {0, 1} is supported)"
    )


def h0_class(surface: Surface, d: DivisorClass) -> int:
    """h^0 of O(D) on any supported surface, dispatching on the kind."""
    if surface.kind is SurfaceKind.PROJECTIVE_PLANE:
        return math.comb(d.coeffs[0] + 2, 2) if d.coeffs[0] >= 0 else 0
    if surface.kind is SurfaceKind.HIRZEBRUCH:
        return _h0_hirzebruch(surface.e, d.coeffs[0], d.coeffs[1])
    a, b, e_coeff = d.coeffs
    return h0_blowup(surface.e, a, b, -e_coeff)


def cohomology_table(surface: Surface, d: DivisorClass) -> CohomologyTable:
    """Full table on the plane or a Hirzebruch surface by Serre duality:
    h^2(D) = h^0(K-D), chi by Riemann-Roch, h^1 closing the sum.  Blowups
    expose only h^0."""
    if surface.kind is SurfaceKind.BLOWUP_HIRZEBRUCH:
        raise ScopeError("h^1 and h^2 on blowups are outside the verified scope")
    h0 = h0_class(surface, d)
    h2 = h0_class(surface, canonical_class(surface) - d)
    chi = euler_char(surface, d)
    return CohomologyTable(h0, h0 + h2 - chi, h2, chi)


def linear_system_dim(surface: Surface, L: DivisorClass) -> int:
    """Dimension of the linear system |L|, i.e. h^0(L) - 1; requires h^0 > 0."""
    h0 = h0_class(surface, L)
    if h0 == 0:
        raise ValueError(f"{format_divisor(surface, L)} is not effective on {surface.name}")
    return h0 - 1
