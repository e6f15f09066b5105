"""Pushforward splittings of powers of the theta line bundle and the
generating series of their section counts.

Setting: M is the moduli space of semistable pure one-dimensional sheaves of
class (0, L, chi = 0) on a supported surface, and pi : M -> |L| = P^l sends a
sheaf to its support curve.  Twisting the theta bundle by the pullback of
O(n) realizes every determinant line bundle attached to the rank-r
point-orthogonal classes, so the series

    Z^r(t) = sum_n h^0(M, theta^r(n)) t^n

is controlled entirely by the splitting of the pushforward of theta^r into
line-bundle twists on P^l.  A twist O(t)^m with t <= 0 contributes
m t^(-t) / (1-t)^(l+1), so the numerator of Z^r(t) is the sum of m t^(-t)
over the splitting.

`_SPLITTINGS` is the one place a splitting is written.  Per branch it holds
the head, the splitting at the lowest tabulated power; the block each further
power adds (genus 1 adds O(-i), genus 2 adds O(-i)^(i+1) + O(-i-1)^(i-2));
the increment power r+1 adds to power r, written apart from the blocks; the
expected rank r^g; and the provenance a report prints.  The summands at power
r are the head plus the blocks up to r.  At r = 1 the pushforward is O on
every supported class.  The numerator, the rank and step checks and the CLI
read the table; the paper's closed-form numerators are a test oracle for it.
For other positive-genus classes with r >= 2 the pushforward is only known to
be torsion-free (locally free over the integral locus), so the library
refuses rather than extrapolates.

`ThetaSeries` holds the splitting, the numerator and three columns for
n = 0..trunc: `h0` expands the numerator by exact running sums; `summed` adds,
per twist t, one column of h^0(P^l, O(j)) at every n with n + t >= 0; `chi`,
a polynomial of degree l in n, is summed over the splitting at n = 0..l from
one binomial per argument and extended through its vanishing (l+1)-th
difference.  The two h0 routes stay independent (the numerator and
`powerseries` against the summands and `cohom`), so a slip in either shows as
a mismatch.  Because power s+1 is power s plus one block, the genus-2
recursion walk compares the increment of each power s with the block of s+1:
linear work up to r, and a slip in the increments or in the blocks shows at
the first power it touches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from operator import mul
from typing import Callable, Iterable, NamedTuple

from .cohom import cohomology_hirzebruch, cohomology_projective_space, linear_system_dim
from .conditions import Branch, classify_branch
from .errors import ScopeError, UnsupportedBranchError
from .picard import (
    DivisorClass,
    Surface,
    arithmetic_genus,
    canonical_class,
    hirzebruch,
    intersect,
)
from .powerseries import (
    Polynomial,
    SeriesCoefficients,
    binom_polynomial,
    expand_rational_gf,
    gf_coefficient,
    polynomial,
)

__all__ = [
    "GradedBundle",
    "ThetaContext",
    "ThetaSplitting",
    "ThetaSeries",
    "Genus2CohomologyCheck",
    "theta_context",
    "theta_splitting",
    "pushforward_decomposition",
    "series_numerator",
    "z_series",
    "z_from_decomposition",
    "h0_lambda",
    "euler_char_lambda",
    "higher_cohomology_vanishes",
    "recursion_check_g2",
    "recursion_failure_g2",
    "dualizing_twist",
    "verify_genus2_cohomology",
]


def _add(merged: dict[int, int], pairs: Iterable[tuple[int, int]]) -> dict[int, int]:
    """Add (twist, multiplicity) pairs into the twist -> multiplicity map `merged`."""
    for twist, mult in pairs:
        merged[twist] = merged.get(twist, 0) + mult
    return merged


@dataclass(frozen=True)
class GradedBundle:
    """Direct sum of twists O(t)^m on P^l: (twist, multiplicity) pairs.

    Twists are <= 0, sorted descending, equal twists merged.
    """

    summands: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        for twist, mult in self.summands:
            if twist > 0:
                raise AssertionError(f"positive twist {twist} in graded bundle")
            if mult <= 0:
                raise AssertionError(f"non-positive multiplicity {mult} in graded bundle")
        twists = [t for t, _ in self.summands]
        if twists != sorted(twists, reverse=True) or len(set(twists)) != len(twists):
            raise AssertionError("summands must be merged and sorted by descending twist")

    @staticmethod
    def from_summands(pairs: Iterable[tuple[int, int]]) -> "GradedBundle":
        merged = _add({}, pairs)
        return GradedBundle(
            tuple((t, merged[t]) for t in sorted(merged, reverse=True) if merged[t])
        )

    @property
    def rank(self) -> int:
        return sum(m for _, m in self.summands)

    def union(self, pairs: Iterable[tuple[int, int]]) -> "GradedBundle":
        return GradedBundle.from_summands(list(self.summands) + list(pairs))

    def numerator(self) -> Polynomial:
        """Sum of m t^(-t): the numerator of its section series over (1-t)^(l+1)."""
        coeffs = [0] * (1 - self.summands[-1][0]) if self.summands else []
        for twist, mult in self.summands:
            coeffs[-twist] = mult
        return polynomial(coeffs)

    def euler_char(self, l: int, n: int) -> int:
        """chi(P^l, E(n)) with chi(P^l, O(m)) = C(m+l, l) as the binomial polynomial."""
        return sum(m * binom_polynomial(n + t + l, l) for t, m in self.summands)

    def describe(self) -> str:
        pieces = []
        for twist, mult in self.summands:
            body = "O" if twist == 0 else f"O({twist})"
            pieces.append(body if mult == 1 else f"{body}^{mult}")
        return " + ".join(pieces)


@dataclass(frozen=True)
class ThetaContext:
    """A surface together with an effective class and its derived data."""

    surface: Surface
    L: DivisorClass
    genus: int
    l: int
    branch: Branch


def theta_context(surface: Surface, L: DivisorClass) -> ThetaContext:
    """Build the context for an effective class: genus, dim|L|, and branch."""
    branch = classify_branch(surface, L)
    return ThetaContext(
        surface=surface,
        L=L,
        genus=arithmetic_genus(surface, L),
        l=linear_system_dim(surface, L),
        branch=branch,
    )


class _Entry(NamedTuple):
    base: int  # the lowest tabulated power
    head: tuple[tuple[int, int], ...]  # the splitting at power `base`
    block: Callable[[int], list[tuple[int, int]]]  # what power i > base adds to power i-1
    increment: Callable[[int], list[tuple[int, int]]]  # power r+1 over r, apart from `block`
    expected_rank: Callable[[int], int]
    provenance: str

    def summands(self, r: int) -> list[tuple[int, int]]:
        """The splitting at power r >= base: the head, then one block per further power."""
        return [*self.head, *(p for i in range(self.base + 1, r + 1) for p in self.block(i))]


#: The one place each verified splitting of pi_* theta^r is written.
_SPLITTINGS = {
    Branch.GENUS_NONPOSITIVE: _Entry(
        1,
        ((0, 1),),
        lambda i: [],
        lambda r: [],
        lambda r: 1,
        "trivial pushforward: the moduli space is the linear system",
    ),
    Branch.GENUS_ONE: _Entry(
        1,
        ((0, 1),),
        lambda i: [(-i, 1)],
        lambda r: [(-(r + 1), 1)],
        lambda r: r,
        "genus-1 splitting: twists 0, -2 .. -r",
    ),
    Branch.GENUS_TWO: _Entry(
        2,
        ((0, 1), (-2, 3)),
        lambda i: [(-i, i + 1), (-i - 1, i - 2)],
        lambda r: [(-(r + 1), r + 2), (-(r + 2), r - 1)],
        lambda r: r * r,
        "genus-2 splitting: 1 + 3t^2 block plus recursive twist blocks",
    ),
}


class ThetaSplitting(NamedTuple):
    """A branch's table entry at one power r."""

    bundle: GradedBundle
    increment: tuple[tuple[int, int], ...] | None  # None: power r+1 is not verified
    expected_rank: int
    provenance: str


def theta_splitting(branch: Branch, r: int) -> ThetaSplitting:
    """Look up the splitting of pi_* theta^r on a branch.

    At r = 1 the pushforward is O on every class, in a verified family or
    not; at r >= 2 a branch outside the table is refused.
    """
    if r < 1:
        raise ValueError(f"theta power must be >= 1, got {r}")
    entry = _SPLITTINGS.get(branch)
    if r == 1 and branch is not Branch.GENUS_NONPOSITIVE:
        return ThetaSplitting(
            GradedBundle(((0, 1),)),
            tuple(entry.increment(1)) if entry else None,
            1,
            "rank-one pushforward: structure sheaf of the linear system",
        )
    if entry is None:
        raise UnsupportedBranchError(
            f"no closed-form numerator for branch {branch.value} at power {r}: for powers "
            "r >= 2 on this class the pushforward of theta^r is only known to be torsion-free "
            "on the linear system (locally free just over the integral locus); no splitting "
            "into line-bundle twists is available"
        )
    return ThetaSplitting(
        GradedBundle.from_summands(entry.summands(r)),
        tuple(entry.increment(r)),
        entry.expected_rank(r),
        entry.provenance,
    )


def pushforward_decomposition(ctx: ThetaContext, r: int) -> GradedBundle:
    """Splitting of the pushforward of theta^r into twists on P^l."""
    return theta_splitting(ctx.branch, r).bundle


def series_numerator(branch: Branch, r: int) -> Polynomial:
    """Numerator of Z^r(t) over (1-t)^(l+1), read off the splitting."""
    return theta_splitting(branch, r).bundle.numerator()


class ThetaSeries:
    """Z^r(t) of one context through t^trunc.  Each part is computed on first
    read and kept, so a refusal is raised where the series is first read."""

    def __init__(self, ctx: ThetaContext, r: int, trunc: int) -> None:
        self.ctx, self.r, self.trunc = ctx, r, trunc

    @cached_property
    def split(self) -> ThetaSplitting:
        return theta_splitting(self.ctx.branch, self.r)

    @cached_property
    def numerator(self) -> Polynomial:
        return self.split.bundle.numerator()

    @cached_property
    def h0(self) -> SeriesCoefficients:
        """h^0 by the numerator route."""
        return expand_rational_gf(self.numerator, self.ctx.l, self.trunc)

    @cached_property
    def summed(self) -> SeriesCoefficients:
        """h^0 by the summand route."""
        return z_from_decomposition(self.split.bundle, self.ctx.l, self.trunc)

    @cached_property
    def chi(self) -> SeriesCoefficients:
        """chi from the splitting at n <= l, then by the vanishing (l+1)-th difference."""
        l, trunc, summands = self.ctx.l, self.trunc, self.split.bundle.summands
        seed = range(min(trunc, l) + 1)
        # multiplicities by twist from the lowest up, and one binomial per
        # argument n + t + l the seed meets: binom[i] is C(low + i + l, l)
        low = summands[-1][0]
        mults = [0] * (summands[0][0] - low + 1)
        for t, m in summands:
            mults[t - low] = m
        binom = [binom_polynomial(x + l, l) for x in range(low, low + len(mults) + len(seed) - 1)]
        chi = [sum(map(mul, mults, binom[n:])) for n in seed]
        weights = [(-1) ** (k + 1) * math.comb(l + 1, k) for k in range(1, l + 2)]
        for n in range(l + 1, trunc + 1):
            chi.append(sum(w * chi[n - k] for k, w in enumerate(weights, 1)))
        return SeriesCoefficients(trunc, tuple(chi))


def z_series(ctx: ThetaContext, r: int, trunc: int) -> SeriesCoefficients:
    """Section-count series of theta^r twists, from the numerator."""
    return ThetaSeries(ctx, r, trunc).h0


def z_from_decomposition(gb: GradedBundle, l: int, trunc: int) -> SeriesCoefficients:
    """Same series computed summand by summand via h^0 on P^l (cross-check route)."""
    if trunc < 0:
        raise ValueError(f"truncation order must be >= 0, got {trunc}")
    if l < 1:
        raise ScopeError(
            f"dim|L| = {l}: the summand-by-summand series needs a linear system of "
            "dimension >= 1; rigid classes are outside the verified scope"
        )
    h0 = [cohomology_projective_space(l, j).h0 for j in range(trunc + 1)]
    coeffs = [0] * (trunc + 1)
    for t, m in gb.summands:
        for n in range(-t, trunc + 1):
            coeffs[n] += m * h0[n + t]
    return SeriesCoefficients(trunc, tuple(coeffs))


def h0_lambda(ctx: ThetaContext, r: int, n: int) -> int:
    """Sections of the n-th determinant-bundle twist of theta^r; zero for n < 0."""
    if n < 0:
        return 0
    return gf_coefficient(series_numerator(ctx.branch, r), ctx.l, n)


def euler_char_lambda(ctx: ThetaContext, r: int, n: int) -> int:
    """Euler characteristic of the n-th twist, exact for every integer n.

    Agrees with h0_lambda whenever no summand reaches twist n+t <= -l-1 (no
    higher cohomology).
    """
    return pushforward_decomposition(ctx, r).euler_char(ctx.l, n)


def higher_cohomology_vanishes(gb: GradedBundle, l: int, n: int) -> bool:
    """True when every summand O(n+t) on P^l has vanishing top cohomology."""
    return all(n + t >= -l for t, _ in gb.summands)


def recursion_failure_g2(top: int, start: int = 2) -> int | None:
    """First s in start..top (start >= 2) where the genus-2 splitting at power s
    plus the increment over the theta divisor, O(-s-1)^(s+2) + O(-s-2)^(s-1),
    is not the one at power s+1, else None.  Power s+1 is power s plus the
    block of s+1, so the running difference of the walk, increments added
    minus blocks added, is empty before the first failing step: each step
    compares one increment with one block."""
    if start < 2:
        raise ValueError(f"recursion check needs r >= 2, got {start}")
    entry = _SPLITTINGS[Branch.GENUS_TWO]
    for s in range(start, top + 1):
        difference = _add(_add({}, entry.increment(s)), [(t, -m) for t, m in entry.block(s + 1)])
        if any(difference.values()):
            return s
    return None


def recursion_check_g2(r: int) -> bool:
    """One step of `recursion_failure_g2`: power r plus its increment is power r+1."""
    return recursion_failure_g2(r, start=r) is None


def dualizing_twist(surface: Surface, L: DivisorClass) -> int:
    """Exponent L.K of the tautological twist giving the dualizing sheaf on M.

    Restricting the pullback of O(1) to a fiber of the support map is trivial
    for any exponent, so the dualizing sheaf of each fiber (a compactified
    Jacobian for integral support) is trivial regardless of the value.
    """
    return intersect(surface, L, canonical_class(surface))


class Genus2CohomologyCheck(NamedTuple):
    h0_pos: int
    h1_neg: int
    ok: bool


def verify_genus2_cohomology(e: int, r: int) -> Genus2CohomologyCheck:
    """Cohomology counts feeding the genus-2 splitting, for L = 2G+(e+3)F.

    With K = -2G-(e+2)F the adjoint class L+K is the fiber class, so the
    expected counts are h^0(r(L+K)) = r+1 and h^1(r(L+K)-L) = r-2, with
    h^0 and h^2 of r(L+K)-L and h^1, h^2 of r(L+K) all vanishing.  `ok`
    records that all six identities hold.
    """
    if e not in (0, 1):
        raise ValueError(f"only e in {{0, 1}} is supported, got {e}")
    if r < 2:
        raise ValueError(f"the counts are stated for r >= 2, got {r}")
    surface = hirzebruch(e)
    L = DivisorClass((2, e + 3))
    adjoint = L + canonical_class(surface)  # equals the fiber class
    positive = r * adjoint
    negative = positive - L
    table_pos = cohomology_hirzebruch(e, *positive.coeffs)
    table_neg = cohomology_hirzebruch(e, *negative.coeffs)
    ok = (
        table_pos.h0 == r + 1
        and table_neg.h1 == r - 2
        and table_pos.h1 == 0
        and table_pos.h2 == 0
        and table_neg.h0 == 0
        and table_neg.h2 == 0
    )
    return Genus2CohomologyCheck(table_pos.h0, table_neg.h1, ok)
