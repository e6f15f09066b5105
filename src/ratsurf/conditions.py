"""Effective classes, their decompositions, and the linear-system conditions
that gate the positive-genus constructions.

The geometric conditions are replaced by the numeric counts their proofs
reduce to:

* A1: for a very ample H, every nonzero effective L' <= L pairs negatively
  with K+H; on F_1 the rigid section classes G and 2G are the permitted
  exceptions.
* A2: (i) no genus <= 0 class below L dominates a positive-genus class
  (numeric proxy for "members of |L'| contain no positive-genus subscheme");
  (ii) every decomposition L = sum L_i of nonzero effective classes obeys
  sum dim|L_i| + sum max(g_i, 0) + 2 <= dim|L| + g(L).
* A3: a dimension count over the loci of non-integral members: every
  two-part split L = L1 + L2 satisfies dim|L1| + dim|L2| <= dim|L| - 2, every
  multiple structure L = m*L0 satisfies dim|L0| <= dim|L| - 2, and |L| has
  positive genus and no base points (generic-point proxy: h^0 > 0 plus the
  nef inequality b >= a*e on F_e).  The integrality statement itself is
  geometric; these counts are a sufficient proxy for the supported classes
  and the reports label them as such.

`classify_branch` sorts an effective class into the regime its generating
series is computed by: every sub-class of non-positive genus; the plane
family dH (d >= 3) or the Hirzebruch family 2G+nF (e in {0,1},
n > max(1, 2e)) at genus 1, genus 2, or higher genus (first power only);
anything else is unsupported.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from math import gcd
from typing import NamedTuple

from .cohom import h0_class, linear_system_dim
from .errors import EnumerationCapError, ScopeError, UnsupportedBranchError
from .picard import (
    DivisorClass,
    Surface,
    SurfaceKind,
    arithmetic_genus,
    canonical_class,
    format_divisor,
    intersect,
)

__all__ = [
    "Branch",
    "Decomposition",
    "describe",
    "ConditionReport",
    "DECOMPOSITION_CAP",
    "is_effective",
    "enumerate_effective_below",
    "enumerate_decompositions",
    "default_very_ample",
    "is_very_ample",
    "refuse_zero_class",
    "check_a1",
    "check_a2",
    "check_a3",
    "classify_branch",
]

#: Hard cap on sum(|coefficients|) of a class fed to the decomposition
#: enumerator; beyond it the multiset count explodes.
DECOMPOSITION_CAP = 24


class Branch(Enum):
    GENUS_NONPOSITIVE = "GenusNonPositive"
    POSITIVE_GENUS_GENERAL = "PositiveGenusGeneral"
    GENUS_ONE = "GenusOne"
    GENUS_TWO = "GenusTwo"
    UNSUPPORTED = "Unsupported"


@dataclass(frozen=True, slots=True)
class Decomposition:
    """Multiset of nonzero effective classes with a fixed sum, stored sorted."""

    parts: tuple[DivisorClass, ...]


def describe(surface: Surface, item: DivisorClass | Decomposition) -> str:
    """How a class or a decomposition prints, in detail lines and as a witness."""
    if isinstance(item, Decomposition):
        return "{" + ", ".join(format_divisor(surface, p) for p in item.parts) + "}"
    return format_divisor(surface, item)


class Row(NamedTuple):
    """One checked item: its verdict, its subject (the witness if it fails) and
    its detail line as a template plus arguments.  Classes and decompositions
    print through `describe`; `{op}` prints "<=" if the row passes, else ">"."""

    ok: bool
    subject: DivisorClass | Decomposition | None
    template: str
    args: tuple = ()


class Details(Sequence):
    """A report's detail lines, each rendered from its row only when read."""

    def __init__(self, surface: Surface, rows: list[Row]) -> None:
        self._surface, self._rows = surface, rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(self._render, self._rows[index]))
        return self._render(self._rows[index])

    def _render(self, row: Row) -> str:
        args = (
            describe(self._surface, a) if isinstance(a, (DivisorClass, Decomposition)) else a
            for a in row.args
        )
        return row.template.format(*args, op="<=" if row.ok else ">")


@dataclass(frozen=True)
class ConditionReport:
    condition: str
    passed: bool
    witness: DivisorClass | Decomposition | None
    details: Sequence[str]

    def __post_init__(self) -> None:
        if not self.passed and self.witness is None:
            raise AssertionError("failing condition report must carry a witness")

    @classmethod
    def from_rows(cls, condition: str, surface: Surface, rows: list[Row]) -> "ConditionReport":
        """Passes when every row does; the witness is the first failing row's subject."""
        witness = next((row.subject for row in rows if not row.ok), None)
        return cls(condition, all(row.ok for row in rows), witness, Details(surface, rows))


def is_effective(surface: Surface, d: DivisorClass) -> bool:
    """Whether O(D) has a nonzero section (the zero class counts).

    On the plane and on F_e this is the coordinate test d >= 0 resp.
    a, b >= 0, which matches h^0 > 0 exactly; blowups go through h^0.
    """
    if surface.kind is SurfaceKind.PROJECTIVE_PLANE:
        return d.coeffs[0] >= 0
    if surface.kind is SurfaceKind.HIRZEBRUCH:
        return d.coeffs[0] >= 0 and d.coeffs[1] >= 0
    return h0_class(surface, d) > 0


def _effective_or_zero(surface: Surface, d: DivisorClass) -> bool:
    # Enumeration guard: treats out-of-scope blowup classes (exceptional
    # multiplicity c = -coeffs[2] outside {0, 1}) as non-effective instead of
    # raising, so box walks stay inside the verified region.
    if surface.kind is SurfaceKind.BLOWUP_HIRZEBRUCH and not 0 <= -d.coeffs[2] <= 1:
        return False
    return d.is_zero or is_effective(surface, d)


def enumerate_effective_below(surface: Surface, L: DivisorClass) -> list[DivisorClass]:
    """All classes D with 0 < D <= L (both D and L-D effective), sorted."""
    if not is_effective(surface, L):
        raise ValueError(f"{format_divisor(surface, L)} is not effective on {surface.name}")
    out: list[DivisorClass] = []
    if surface.kind is SurfaceKind.PROJECTIVE_PLANE:
        (d,) = L.coeffs
        out = [DivisorClass((i,)) for i in range(1, d + 1)]
    elif surface.kind is SurfaceKind.HIRZEBRUCH:
        a, b = L.coeffs
        out = [
            DivisorClass((i, j))
            for i in range(a + 1)
            for j in range(b + 1)
            if (i, j) != (0, 0)
        ]
    else:
        a, b, e_coeff = L.coeffs
        candidates = (
            DivisorClass((i, j, k))
            for i in range(a + 1)
            for j in range(b + 1)
            for k in range(min(e_coeff, 0), 1)
        )
        out = [
            d
            for d in candidates
            if not d.is_zero and is_effective(surface, d) and _effective_or_zero(surface, L - d)
        ]
    return sorted(out, key=lambda d: d.coeffs)


def enumerate_decompositions(
    surface: Surface, L: DivisorClass, cap: int = DECOMPOSITION_CAP
) -> list[Decomposition]:
    """All multisets of >= 2 nonzero effective classes summing to L.

    The singleton {L} is excluded.  Classes with sum(|coefficients|) above
    `cap` are rejected outright: the multiset count grows exponentially.
    """
    weight = sum(abs(c) for c in L.coeffs)
    if weight > cap:
        raise EnumerationCapError(
            f"coefficient sum {weight} of {format_divisor(surface, L)} exceeds the "
            f"decomposition cap {cap}"
        )
    below = enumerate_effective_below(surface, L)
    candidates = [d.coeffs for d in below]
    zero = (0,) * len(L.coeffs)

    if surface.kind is SurfaceKind.BLOWUP_HIRZEBRUCH:

        def fits(rest: tuple[int, ...]) -> bool:
            return _effective_or_zero(surface, DivisorClass(rest))

    else:

        def fits(rest: tuple[int, ...]) -> bool:
            return all(c >= 0 for c in rest)

    results: list[tuple[int, ...]] = []  # indices into the sorted `candidates`
    parts: list[int] = []

    def walk(remaining: tuple[int, ...], start: int) -> None:
        if remaining == zero:
            if len(parts) >= 2:
                results.append(tuple(parts))
            return
        for i in range(start, len(candidates)):
            rest = tuple(x - y for x, y in zip(remaining, candidates[i]))
            if fits(rest):
                parts.append(i)
                walk(rest, i)
                parts.pop()

    walk(L.coeffs, 0)
    results.sort()
    # index order is class order; the parts are `below`'s own classes, since
    # A2's rows keep every decomposition
    return [Decomposition(tuple(below[i] for i in parts)) for parts in results]


def default_very_ample(surface: Surface) -> DivisorClass:
    """The minimal very ample class used when none is supplied: H, or G+(e+1)F."""
    if surface.kind is SurfaceKind.PROJECTIVE_PLANE:
        return DivisorClass((1,))
    if surface.kind is SurfaceKind.HIRZEBRUCH:
        return DivisorClass((1, surface.e + 1))
    raise UnsupportedBranchError("no very ample default is provided on blowups")


def is_very_ample(surface: Surface, h: DivisorClass) -> bool:
    """Toric numeric criterion: d >= 1 on the plane; a >= 1 and b >= ae+1 on F_e."""
    if surface.kind is SurfaceKind.PROJECTIVE_PLANE:
        return h.coeffs[0] >= 1
    if surface.kind is SurfaceKind.HIRZEBRUCH:
        a, b = h.coeffs
        return a >= 1 and b >= a * surface.e + 1
    raise UnsupportedBranchError("very-ampleness on blowups is outside the verified scope")


def refuse_zero_class(L: DivisorClass) -> None:
    """Nothing lies below the zero class, so A1-A3 would pass on it vacuously."""
    if L.is_zero:
        raise ScopeError("dim|L| = 0: conditions A1-A3 need a nonzero class")


def check_a1(surface: Surface, L: DivisorClass, h: DivisorClass) -> ConditionReport:
    """Every nonzero effective L' <= L has L'.(K+H) < 0, with the F_1 exception.

    On F_1 the rigid section classes G and 2G are permitted even though they
    pair to zero.  Raises on the zero class, on blowups and on non-very-ample H.
    """
    refuse_zero_class(L)
    if surface.kind is SurfaceKind.BLOWUP_HIRZEBRUCH:
        raise UnsupportedBranchError("condition A1 is not defined on blowup surfaces here")
    if not is_very_ample(surface, h):
        raise ValueError(f"{format_divisor(surface, h)} is not very ample on {surface.name}")
    kh = canonical_class(surface) + h
    exceptions_allowed = surface.kind is SurfaceKind.HIRZEBRUCH and surface.e == 1
    rows: list[Row] = []
    for sub in enumerate_effective_below(surface, L):
        value = intersect(surface, sub, kh)
        if value < 0:
            row = Row(True, sub, "{}.(K+H) = {} < 0", (sub, value))
        elif exceptions_allowed and sub.coeffs in ((1, 0), (2, 0)):
            row = Row(True, sub, "{}.(K+H) = {}, allowed as a rigid section class", (sub, value))
        else:
            row = Row(False, sub, "{}.(K+H) = {} >= 0: violation", (sub, value))
        rows.append(row)
    return ConditionReport.from_rows("A1", surface, rows)


def check_a2(surface: Surface, L: DivisorClass) -> ConditionReport:
    """Sub-class genus test plus the decomposition dimension inequality."""
    refuse_zero_class(L)
    below = enumerate_effective_below(surface, L)
    genus = {d.coeffs: arithmetic_genus(surface, d) for d in below}
    rows: list[Row] = []

    for sub in below:
        if genus[sub.coeffs] > 0:
            continue
        for subsub in enumerate_effective_below(surface, sub):
            if genus[subsub.coeffs] > 0:
                template = "{} (genus {}) lies below genus-{} class {}: violation"
                args = (subsub, genus[subsub.coeffs], genus[sub.coeffs], sub)
                rows.append(Row(False, subsub, template, args))
    if not rows:
        rows.append(Row(True, None, "no positive-genus class sits below a genus <= 0 class"))

    dim_l = linear_system_dim(surface, L)
    g_l = arithmetic_genus(surface, L)
    bound = dim_l + g_l
    dims = {d.coeffs: linear_system_dim(surface, d) for d in below}
    for dec in enumerate_decompositions(surface, L):
        lhs = (
            sum(dims[p.coeffs] for p in dec.parts)
            + sum(max(genus[p.coeffs], 0) for p in dec.parts)
            + 2
        )
        template = "{}: sum dims + sum max(g,0) + 2 = {} {op} {}"
        rows.append(Row(lhs <= bound, dec, template, (dec, lhs, bound)))
    return ConditionReport.from_rows("A2", surface, rows)


def _base_point_free(surface: Surface, L: DivisorClass) -> bool:
    # Generic-point proxy: h^0 > 0 everywhere, plus the nef inequality on the
    # (ambient) ruled surface.
    if h0_class(surface, L) == 0:
        return False
    if surface.kind is SurfaceKind.PROJECTIVE_PLANE:
        return True
    a, b = L.coeffs[0], L.coeffs[1]
    return b >= a * surface.e


def check_a3(surface: Surface, L: DivisorClass) -> ConditionReport:
    """Numeric codimension-2 test for the locus of non-integral members (proxy).

    Two-part splits and multiple structures must each lose two dimensions
    against dim|L|; the class must have positive genus and the base-point-free
    marker for smooth connected members to exist.
    """
    refuse_zero_class(L)
    dim_l = linear_system_dim(surface, L)
    g_l = arithmetic_genus(surface, L)
    rows: list[Row] = []

    if g_l < 1:
        rows.append(Row(False, L, "genus {} < 1: no positive-genus smooth members (proxy)", (g_l,)))
    if not _base_point_free(surface, L):
        rows.append(Row(False, L, "base-point-free marker fails (proxy)"))

    # rest = L - part is itself below L (or zero), so each two-part split is
    # met at both of its parts; keep it at the smaller one
    for part in enumerate_effective_below(surface, L):
        rest = L - part
        if rest.coeffs < part.coeffs:
            continue
        split = Decomposition((part, rest))
        total = linear_system_dim(surface, part) + linear_system_dim(surface, rest)
        template = "split {}: dim sum {} {op} {}"
        rows.append(Row(total <= dim_l - 2, split, template, (split, total, dim_l - 2)))

    divisor_gcd = gcd(*(abs(c) for c in L.coeffs)) if any(L.coeffs) else 0
    for m in range(2, divisor_gcd + 1):
        if divisor_gcd % m:
            continue
        base = DivisorClass(tuple(c // m for c in L.coeffs))
        if not is_effective(surface, base):
            continue
        dim_base = linear_system_dim(surface, base)
        template = "multiple structure {}*({}): dim {} {op} {}"
        rows.append(Row(dim_base <= dim_l - 2, base, template, (m, base, dim_base, dim_l - 2)))
    return ConditionReport.from_rows("A3", surface, rows)


def _in_positive_genus_family(surface: Surface, L: DivisorClass) -> bool:
    if surface.kind is SurfaceKind.PROJECTIVE_PLANE:
        return L.coeffs[0] >= 3
    if surface.kind is SurfaceKind.HIRZEBRUCH and surface.e in (0, 1):
        a, b = L.coeffs
        return a == 2 and b > max(1, 2 * surface.e)
    return False


def classify_branch(surface: Surface, L: DivisorClass) -> Branch:
    """Sort an effective class into the regime its series is computed by."""
    below = enumerate_effective_below(surface, L)  # raises if L is not effective
    if all(arithmetic_genus(surface, d) <= 0 for d in below):
        return Branch.GENUS_NONPOSITIVE
    if _in_positive_genus_family(surface, L):
        g = arithmetic_genus(surface, L)
        if g == 1:
            return Branch.GENUS_ONE
        if g == 2:
            return Branch.GENUS_TWO
        if g >= 3:
            return Branch.POSITIVE_GENUS_GENERAL
    return Branch.UNSUPPORTED
