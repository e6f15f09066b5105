"""Exact cohomology dimensions of line bundles on the supported surfaces.

On the plane h^0(dH) counts degree-d monomials in three variables.  On F_e
the pushforward of O(aG+bF) along the ruling splits into line bundles
O(b-ke) on the base line for k = 0..a, so

    h^0(aG+bF) = sum_{k=0}^{a} max(0, b-ke+1)   for a >= 0, else 0.

On the plane and on F_e one Serre-duality rule builds the whole table
(`cohomology_table`): h^2 is h^0 of the Serre-dual class K-D, and
h^1 = h^0 + h^2 - chi(D) closes the Riemann-Roch Euler characteristic; all
three are exact because h^0 and h^2 are.  K and chi come from `picard`.

`KIND_RULES` is the one place each surface kind's numeric rules are written
(on F_e, aG+bF is very ample exactly when a >= 1 and b >= ae+1: Hartshorne,
Algebraic Geometry V.2.18).  `h0_class`, `cohomology_table` and `conditions`
read it, and where an entry holds None (or no Serre table) the caller
refuses the input.

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
from collections import namedtuple
from typing import Callable, NamedTuple

from .errors import ScopeError
from .picard import DivisorClass, Surface, SurfaceKind, euler_char, format_divisor

__all__ = [
    "CohomologyTable",
    "KIND_RULES",
    "ProjectiveSpaceCohomology",
    "cohomology_projective_space",
    "h0_class",
    "cohomology_table",
    "linear_system_dim",
]


class CohomologyTable(namedtuple("CohomologyTable", "h0 h1 h2 chi")):
    """Dimensions h^0, h^1, h^2 together with their alternating sum."""

    __slots__ = ()

    def __new__(cls, h0: int, h1: int, h2: int, chi: int) -> "CohomologyTable":
        self = tuple.__new__(cls, (h0, h1, h2, chi))
        if min(h0, h1, h2) < 0:
            raise AssertionError(f"negative cohomology dimension in {self}")
        if h0 - h1 + h2 != chi:
            raise AssertionError(f"chi mismatch in {self}")
        return self


class ProjectiveSpaceCohomology(NamedTuple):
    """h^0 and h^l of a line bundle O(m) on P^l; the middle groups vanish."""

    h0: int
    h_top: int


def _h0_hirzebruch(e: int, a: int, b: int) -> int:
    return sum(max(0, b - k * e + 1) for k in range(a + 1))


def cohomology_projective_space(l: int, m: int) -> ProjectiveSpaceCohomology:
    """(h^0, h^l) of O(m) on P^l; callers may assume h^i = 0 for 0 < i < l."""
    if l < 1:
        raise ValueError(f"projective space dimension must be >= 1, got {l}")
    h0 = math.comb(m + l, l) if m >= 0 else 0
    h_top = math.comb(-m - 1, l) if m <= -l - 1 else 0
    return ProjectiveSpaceCohomology(h0, h_top)


def _h0_blowup(e: int, a: int, b: int, c: int) -> int:
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


Coeffs = tuple[int, ...]


class KindRules(NamedTuple):
    """A surface kind's numeric rules, each a function of the Hirzebruch
    parameter e and a coefficient vector c; None (False for `serre_table`)
    where the verified scope ends.  `effective_or_zero` (D = 0 or
    h^0(D) > 0, False outside the verified scope) is shared by the box
    filter and the decomposition walk; `base_point_free` is the marker given
    h^0 > 0."""

    h0: Callable[[int, Coeffs], int]
    serre_table: bool  # whether h^1 and h^2 follow from h^0 by Serre duality
    effective_or_zero: Callable[[int, Coeffs], bool]
    very_ample_default: Callable[[int], Coeffs] | None
    very_ample: Callable[[int, Coeffs], bool] | None
    rigid: Callable[[int, Coeffs], bool] | None  # A1's permitted exceptions
    base_point_free: Callable[[int, Coeffs], bool]
    positive_genus_family: Callable[[int, Coeffs], bool]
    # whether some class 0 < D <= L of an effective L has genus > 0
    positive_genus_below: Callable[[int, Coeffs], bool]


def _nonnegative(e: int, c: Coeffs) -> bool:
    return min(c) >= 0  # on the plane and on F_e, exactly the classes with h^0 > 0


def _nef_on_ruling(e: int, c: Coeffs) -> bool:
    return c[1] >= c[0] * e  # b >= ae on the (ambient) ruled surface


def _positive_genus_below_ruled(e: int, c: Coeffs) -> bool:
    # g(iG+jF) = (i-1)(j-1-e*i/2) is <= 0 for i <= 1, and for i >= 2 it is
    # largest at j = b and i = 2, where it is b-1-e.  On the blowup a class
    # below L is iG+jF-kE with k in {0, 1}, and g(D-kE) = g(D) - k(k-1)/2 = g(D)
    return c[0] >= 2 and c[1] >= e + 2


KIND_RULES = {
    SurfaceKind.PROJECTIVE_PLANE: KindRules(
        h0=lambda e, c: math.comb(c[0] + 2, 2) if c[0] >= 0 else 0,
        serre_table=True,
        effective_or_zero=_nonnegative,
        very_ample_default=lambda e: (1,),
        very_ample=lambda e, c: c[0] >= 1,
        rigid=lambda e, c: False,
        base_point_free=lambda e, c: True,
        positive_genus_family=lambda e, c: c[0] >= 3,
        positive_genus_below=lambda e, c: c[0] >= 3,  # g(dH) = (d-1)(d-2)/2
    ),
    SurfaceKind.HIRZEBRUCH: KindRules(
        h0=lambda e, c: _h0_hirzebruch(e, *c),
        serre_table=True,
        effective_or_zero=_nonnegative,
        very_ample_default=lambda e: (1, e + 1),
        very_ample=lambda e, c: c[0] >= 1 and c[1] >= c[0] * e + 1,
        rigid=lambda e, c: e == 1 and c in ((1, 0), (2, 0)),  # G and 2G on F_1
        base_point_free=_nef_on_ruling,
        positive_genus_family=lambda e, c: e in (0, 1) and c[0] == 2 and c[1] > max(1, 2 * e),
        positive_genus_below=_positive_genus_below_ruled,
    ),
    SurfaceKind.BLOWUP_HIRZEBRUCH: KindRules(
        h0=lambda e, c: _h0_blowup(e, c[0], c[1], -c[2]),
        serre_table=False,
        # exceptional multiplicity -c[2] outside {0, 1} counts as non-effective
        effective_or_zero=lambda e, c: (
            0 <= -c[2] <= 1 and (not any(c) or _h0_blowup(e, c[0], c[1], -c[2]) > 0)
        ),
        very_ample_default=None,
        very_ample=None,
        rigid=None,
        base_point_free=_nef_on_ruling,
        positive_genus_family=lambda e, c: False,
        positive_genus_below=_positive_genus_below_ruled,
    ),
}


def h0_class(surface: Surface, d: DivisorClass) -> int:
    """h^0 of O(D) on any supported surface, by its kind's rule."""
    return KIND_RULES[surface.kind].h0(surface.e, d.coeffs)


def cohomology_table(surface: Surface, d: DivisorClass) -> CohomologyTable:
    """Full table on the plane or a Hirzebruch surface by Serre duality:
    h^2(D) = h^0(K-D), chi by Riemann-Roch, h^1 closing the sum.  Blowups
    expose only h^0."""
    if not KIND_RULES[surface.kind].serre_table:
        raise ScopeError("h^1 and h^2 on blowups are outside the verified scope")
    h0 = h0_class(surface, d)
    h2 = h0_class(surface, surface.canonical - d)
    chi = euler_char(surface, d)
    return CohomologyTable(h0, h0 + h2 - chi, h2, chi)


def linear_system_dim(surface: Surface, L: DivisorClass) -> int:
    """Dimension of the linear system |L|, i.e. h^0(L) - 1; requires h^0 > 0."""
    h0 = h0_class(surface, L)
    if h0 == 0:
        raise ValueError(f"{format_divisor(surface, L)} is not effective on {surface.name}")
    return h0 - 1
