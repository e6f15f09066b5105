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

Each surface fact is written once: a kind's name, description and canonical
class are set by its constructor in `picard`, and its numeric rules
(effectivity, very ampleness, A1's rigid classes, the base-point-free marker,
the positive-genus family and whether a positive-genus class lies below L) by
its entry in `cohom.KIND_RULES`, which every function here reads instead of
comparing kinds.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from collections.abc import Sequence
from enum import Enum
from itertools import product, repeat
from math import gcd
from typing import NamedTuple

from .cohom import KIND_RULES, linear_system_dim
from .errors import EnumerationCapError, ScopeError, UnsupportedBranchError
from .picard import DivisorClass, Surface, arithmetic_genus, format_divisor, intersect

__all__ = [
    "Branch",
    "Decomposition",
    "describe",
    "ConditionReport",
    "DECOMPOSITION_CAP",
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
DECOMPOSITION_CAP = 24  # bounds the box below L and A2's decomposition walk, not its time


class Branch(Enum):
    """The regime a class's generating series is computed by (`classify_branch`)."""

    GENUS_NONPOSITIVE = "GenusNonPositive"
    POSITIVE_GENUS_GENERAL = "PositiveGenusGeneral"
    GENUS_ONE = "GenusOne"
    GENUS_TWO = "GenusTwo"
    UNSUPPORTED = "Unsupported"


class Decomposition(NamedTuple):
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


class ConditionReport(namedtuple("ConditionReport", "condition passed witness details")):
    """A condition's verdict, its witness (a failing class or decomposition) and details."""

    __slots__ = ()

    def __new__(cls, condition: str, passed: bool, witness, details) -> "ConditionReport":
        if not passed and witness is None:
            raise AssertionError("failing condition report must carry a witness")
        return tuple.__new__(cls, (condition, passed, witness, details))

    @classmethod
    def from_rows(cls, condition: str, surface: Surface, rows: list[Row]) -> "ConditionReport":
        """Passes when every row does; the witness is the first failing row's subject."""
        witness = next((row.subject for row in rows if not row.ok), None)
        return cls(condition, all(row.ok for row in rows), witness, Details(surface, rows))


def enumerate_effective_below(surface: Surface, L: DivisorClass) -> list[DivisorClass]:
    """All classes D with 0 < D <= L (both D and L-D effective), sorted.

    Every such D lies in the box between 0 and L, walked in sorted order, and
    the kind's effective-or-zero rule tests D and L-D (on the plane and on
    F_e every box class passes)."""
    linear_system_dim(surface, L)  # refuses a non-effective L
    rule, e = KIND_RULES[surface.kind].effective_or_zero, surface.e
    spans = [range(min(c, 0), max(c, 0) + 1) for c in L.coeffs]
    # L - D for each D of the box, walked in step with it
    rests = product(*(range(c - s.start, c - s.stop, -1) for c, s in zip(L.coeffs, spans)))
    return [
        DivisorClass(d)
        for d, rest in zip(product(*spans), rests)
        if any(d) and rule(e, d) and rule(e, rest)
    ]


def _refuse_over_cap(surface: Surface, L: DivisorClass) -> None:
    """Classes with sum(|coefficients|) above DECOMPOSITION_CAP are refused:
    their decomposition count grows exponentially."""
    weight = sum(abs(c) for c in L.coeffs)
    if weight > DECOMPOSITION_CAP:
        raise EnumerationCapError(
            f"coefficient sum {weight} of {format_divisor(surface, L)} exceeds the "
            f"decomposition cap {DECOMPOSITION_CAP}"
        )


def enumerate_decompositions(surface: Surface, L: DivisorClass) -> list[Decomposition]:
    """All multisets of >= 2 nonzero effective classes summing to L.

    The singleton {L} is excluded, and a class over the cap is refused.
    """
    _refuse_over_cap(surface, L)
    return _decompositions(surface, L, enumerate_effective_below(surface, L))


def _decompositions(surface: Surface, L: DivisorClass, below: list) -> list[Decomposition]:
    """The walk of `enumerate_decompositions`, over `below`: the classes 0 < D <= L."""
    columns = list(zip(*(d.coeffs for d in below)))  # one tuple per coordinate
    zero = (0,) * len(L.coeffs)
    fits, e = KIND_RULES[surface.kind].effective_or_zero, surface.e

    results: list[tuple[int, ...]] = []  # indices into the sorted `below`
    parts: list[int] = []

    def walk(remaining: tuple[int, ...], start: int) -> None:
        if remaining == zero:
            if len(parts) >= 2:
                results.append(tuple(parts))
            return
        # remaining - below[i] for every i >= start, built in C a column at a
        # time; each rest still gets its own rule call, in index order
        rests = zip(
            *(map(operator.sub, repeat(r), col[start:]) for r, col in zip(remaining, columns))
        )
        for i, rest in enumerate(rests, start):
            if fits(e, rest):
                parts.append(i)
                walk(rest, i)
                parts.pop()

    walk(L.coeffs, 0)
    # the walk appends index tuples in lexicographic order (no complete tuple
    # is a prefix of another), and index order is class order; the parts are
    # `below`'s own classes, since A2's rows keep every decomposition
    return [Decomposition(tuple(below[i] for i in parts)) for parts in results]


def default_very_ample(surface: Surface) -> DivisorClass:
    """The minimal very ample class used when none is supplied: H, or G+(e+1)F."""
    default = KIND_RULES[surface.kind].very_ample_default
    if default is None:
        raise UnsupportedBranchError("no very ample default is provided on blowups")
    return DivisorClass(default(surface.e))


def is_very_ample(surface: Surface, h: DivisorClass) -> bool:
    """Toric numeric criterion: d >= 1 on the plane; a >= 1 and b >= ae+1 on F_e."""
    criterion = KIND_RULES[surface.kind].very_ample
    if criterion is None:
        raise UnsupportedBranchError("very-ampleness on blowups is outside the verified scope")
    return criterion(surface.e, h.coeffs)


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
    rigid = KIND_RULES[surface.kind].rigid
    if rigid is None:
        raise UnsupportedBranchError("condition A1 is not defined on blowup surfaces here")
    if not is_very_ample(surface, h):
        raise ValueError(f"{format_divisor(surface, h)} is not very ample on {surface.name}")
    kh = surface.canonical + h
    rows: list[Row] = []
    for sub in enumerate_effective_below(surface, L):
        value = intersect(surface, sub, kh)
        if value < 0:
            row = Row(True, sub, "{}.(K+H) = {} < 0", (sub, value))
        elif rigid(surface.e, sub.coeffs):
            row = Row(True, sub, "{}.(K+H) = {}, allowed as a rigid section class", (sub, value))
        else:
            row = Row(False, sub, "{}.(K+H) = {} >= 0: violation", (sub, value))
        rows.append(row)
    return ConditionReport.from_rows("A1", surface, rows)


def check_a2(surface: Surface, L: DivisorClass) -> ConditionReport:
    """Sub-class genus test plus the decomposition dimension inequality."""
    refuse_zero_class(L)
    dim_l = linear_system_dim(surface, L)  # refuses a non-effective L
    _refuse_over_cap(surface, L)  # before any walk below L
    below = enumerate_effective_below(surface, L)
    decompositions = _decompositions(surface, L, below)
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

    g_l = arithmetic_genus(surface, L)
    bound = dim_l + g_l
    weight = {d.coeffs: linear_system_dim(surface, d) + max(genus[d.coeffs], 0) for d in below}
    for dec in decompositions:
        lhs = 2 + sum(weight[p.coeffs] for p in dec.parts)
        template = "{}: sum dims + sum max(g,0) + 2 = {} {op} {}"
        rows.append(Row(lhs <= bound, dec, template, (dec, lhs, bound)))
    return ConditionReport.from_rows("A2", surface, rows)


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
    # generic-point proxy: h^0 > 0 (dim_l checked it) plus the kind's marker
    if not KIND_RULES[surface.kind].base_point_free(surface.e, L.coeffs):
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
        base = DivisorClass(tuple(c // m for c in L.coeffs))  # effective, as L is
        dim_base = linear_system_dim(surface, base)
        template = "multiple structure {}*({}): dim {} {op} {}"
        rows.append(Row(dim_base <= dim_l - 2, base, template, (m, base, dim_base, dim_l - 2)))
    return ConditionReport.from_rows("A3", surface, rows)


def classify_branch(surface: Surface, L: DivisorClass) -> Branch:
    """Sort an effective class into the regime its series is computed by.

    Whether some class below L has positive genus is the kind's
    `positive_genus_below` rule, and the family its `positive_genus_family`."""
    linear_system_dim(surface, L)  # refuses a non-effective L
    rules = KIND_RULES[surface.kind]
    if not rules.positive_genus_below(surface.e, L.coeffs):
        return Branch.GENUS_NONPOSITIVE
    if rules.positive_genus_family(surface.e, L.coeffs):
        g = arithmetic_genus(surface, L)
        if g == 1:
            return Branch.GENUS_ONE
        if g == 2:
            return Branch.GENUS_TWO
        if g >= 3:
            return Branch.POSITIVE_GENUS_GENERAL
    return Branch.UNSUPPORTED
