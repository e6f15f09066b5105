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
over the splitting.  A `GradedBundle` therefore holds its splitting as the
dense vector m, m[k] the multiplicity of O(-k), which is the numerator's
coefficient vector; the summand pairs and the rank are read off it.

`_SPLITTINGS` is the one place a splitting is written.  Per branch it holds
the head, the splitting at the lowest tabulated power; the block each further
power adds (genus 1 adds O(-i), genus 2 adds O(-i)^(i+1) + O(-i-1)^(i-2));
the increment power r+1 adds to power r, the twist along the theta divisor,
written apart from the blocks; and the provenance a report prints.  The
summands at power r are the head plus the blocks up to r.  At r = 1 the
pushforward is O on every class of a verified family: `_RANK_ONE` is the
genus <= 0 row under its own provenance.  The rank is not tabulated: theta
restricts to the principal polarization of a fiber of genus g, a compactified
Jacobian, so the rank is h^0(J, Theta^r) = r^g (1 where the fiber is a
point), and the CLI's `rank` check holds the table to it.  The one entry
point to a power's splitting is `theta_splitting(branch, r)`, a
`GradedBundle`; its numerator is `.numerator()`.  The numerator, the step
check and the CLI read the table; the paper's closed-form numerators are a
test oracle for it.  At r >= 2 on the other positive-genus classes of those
families the pushforward is only known to be torsion-free (locally free over
the integral locus), so the library refuses rather than extrapolates; a class
outside every verified family is refused at every power, r = 1 included.

`ThetaSeries(ctx, r, trunc)` is the one entry point to a power's series.  It
holds the table row's `provenance`, the splitting (`bundle`) and three
columns for n = 0..trunc: `h0` expands the splitting's numerator by exact
running sums; `summed` reads h^0(P^l, O(j)) once per degree j <= trunc and
m up to index trunc (twists below -trunc have no sections there), and takes
coefficient n as one C-level `sum(map(mul, ...))` pairing the twists
0, -1, .. with the degrees n, n-1, ..; `chi`, a polynomial of degree l in n,
is summed over m reversed at n = 0..l from one binomial per argument and
extended past l through its vanishing (l+1)-th difference, one
`sum(map(mul, ...))` of the l+1 previous values per n.  The two h0 routes stay
independent (the numerator and `powerseries` against the summands and
`cohom`), so a slip in either shows as a mismatch.  Because power s+1 is power
s plus one block, `step_failure` checks every tabulated branch (the genus-1
sequence additivity and the genus-2 recursion alike) by comparing the
increment of each power s with the block of s+1: linear work up to r, and a
slip in the increments or in the blocks shows at the first power it touches.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property
from operator import mul
from typing import Callable, Iterable, NamedTuple

from .cohom import cohomology_projective_space, cohomology_table, linear_system_dim
from .conditions import Branch, classify_branch
from .errors import ScopeError, UnsupportedBranchError
from .picard import DivisorClass, Surface, arithmetic_genus, hirzebruch
from .powerseries import (
    Polynomial,
    SeriesCoefficients,
    binom_polynomial,
    binomial,
    expand_rational_gf,
    gf_coefficient,
)

__all__ = [
    "GradedBundle",
    "ThetaContext",
    "ThetaSeries",
    "Genus2CohomologyCheck",
    "theta_context",
    "theta_splitting",
    "z_from_decomposition",
    "h0_lambda",
    "euler_char_lambda",
    "higher_cohomology_vanishes",
    "step_failure",
    "verify_genus2_cohomology",
]


class GradedBundle(namedtuple("GradedBundle", "m")):
    """Direct sum of twists O(-k)^m[k] on P^l, held as the dense vector m with
    no trailing zero and no negative entry, and refused otherwise: the
    coefficient vector of its section series' numerator.  `from_summands`
    builds it from (twist, multiplicity) pairs in any order.
    """

    __slots__ = ()

    def __new__(cls, m: tuple[int, ...]) -> "GradedBundle":
        if m and not m[-1]:
            raise AssertionError(f"trailing zero multiplicity in graded bundle {m}")
        if m and min(m) < 0:
            raise AssertionError(f"non-positive multiplicity {min(m)} in graded bundle")
        return tuple.__new__(cls, (tuple(m),))

    @staticmethod
    def from_summands(pairs: Iterable[tuple[int, int]]) -> "GradedBundle":
        """Add up (twist, multiplicity) pairs, refusing a positive twist."""
        pairs = list(pairs)
        twists = [t for t, _ in pairs]
        if max(twists, default=0) > 0:
            raise AssertionError(f"positive twist {max(twists)} in graded bundle")
        m = [0] * (1 - min(twists, default=0))
        for twist, mult in pairs:
            m[-twist] += mult
        while m and not m[-1]:
            m.pop()
        return GradedBundle(m)

    @property
    def summands(self) -> tuple[tuple[int, int], ...]:
        """The (twist, multiplicity) pairs, by descending twist."""
        return tuple((-k, mult) for k, mult in enumerate(self.m) if mult)

    @property
    def rank(self) -> int:
        return sum(self.m)

    def numerator(self) -> Polynomial:
        """Sum of m t^(-t): the numerator of its section series over (1-t)^(l+1)."""
        return Polynomial(self.m)

    def euler_char(self, l: int, n: int) -> int:
        """chi(P^l, E(n)) with chi(P^l, O(m)) = C(m+l, l) as the binomial polynomial."""
        return sum(m * binom_polynomial(n + t + l, l) for t, m in self.summands)

    def describe(self) -> str:
        pieces = []
        for twist, mult in self.summands:
            body = "O" if twist == 0 else f"O({twist})"
            pieces.append(body if mult == 1 else f"{body}^{mult}")
        return " + ".join(pieces)


class ThetaContext(NamedTuple):
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
        "trivial pushforward: the moduli space is the linear system",
    ),
    Branch.GENUS_ONE: _Entry(
        1,
        ((0, 1),),
        lambda i: [(-i, 1)],
        lambda r: [(-(r + 1), 1)],
        "genus-1 splitting: twists 0, -2 .. -r",
    ),
    Branch.GENUS_TWO: _Entry(
        2,
        ((0, 1), (-2, 3)),
        lambda i: [(-i, i + 1), (-i - 1, i - 2)],
        lambda r: [(-(r + 1), r + 2), (-(r + 2), r - 1)],
        "genus-2 splitting: 1 + 3t^2 block plus recursive twist blocks",
    ),
}


#: The r = 1 rule: the pushforward is O on every class of a verified family,
#: the positive-genus family beyond `_SPLITTINGS` included.
_RANK_ONE = _SPLITTINGS[Branch.GENUS_NONPOSITIVE]._replace(
    provenance="rank-one pushforward: structure sheaf of the linear system"
)


def _entry(branch: Branch, r: int) -> _Entry:
    """The table row giving the splitting of pi_* theta^r on a branch.

    At r >= 2 the positive-genus family beyond the table is refused, and a
    class outside every verified family is refused at every r.
    """
    if r < 1:
        raise ValueError(f"theta power must be >= 1, got {r}")
    if r == 1 and branch not in (Branch.GENUS_NONPOSITIVE, Branch.UNSUPPORTED):
        return _RANK_ONE
    entry = _SPLITTINGS.get(branch)
    if entry is None:
        reason = (
            "for powers r >= 2 on this class the pushforward of theta^r is only known to be "
            "torsion-free on the linear system (locally free just over the integral locus)"
            if r >= 2
            else "the class lies outside every verified family"
        )
        raise UnsupportedBranchError(
            f"no closed-form numerator for branch {branch.value} at power {r}: {reason}; "
            "no splitting into line-bundle twists is available"
        )
    return entry


def theta_splitting(branch: Branch, r: int) -> GradedBundle:
    """The splitting of pi_* theta^r on a branch into twists on P^l."""
    return GradedBundle.from_summands(_entry(branch, r).summands(r))


class ThetaSeries:
    """Z^r(t) of one context through t^trunc: `provenance`, the splitting
    `bundle` and the columns.  Each part is computed on first read and kept,
    so a refusal is raised where the series is first read."""

    def __init__(self, ctx: ThetaContext, r: int, trunc: int) -> None:
        self.ctx, self.r, self.trunc = ctx, r, trunc

    @cached_property
    def provenance(self) -> str:
        return _entry(self.ctx.branch, self.r).provenance

    @cached_property
    def bundle(self) -> GradedBundle:
        return theta_splitting(self.ctx.branch, self.r)

    @cached_property
    def h0(self) -> SeriesCoefficients:
        """h^0 by the numerator route."""
        return expand_rational_gf(self.bundle.numerator(), self.ctx.l, self.trunc)

    @cached_property
    def summed(self) -> SeriesCoefficients:
        """h^0 by the summand route."""
        return z_from_decomposition(self.bundle, self.ctx.l, self.trunc)

    @cached_property
    def chi(self) -> SeriesCoefficients:
        """chi from the splitting at n <= l, then by the vanishing (l+1)-th difference."""
        l, trunc, m = self.ctx.l, self.trunc, self.bundle.m
        seed = range(min(trunc, l) + 1)
        # m from the lowest twist t = 1 - len(m) up, and one binomial per
        # argument n + t + l the seed meets
        mults = m[::-1]
        binom = [binomial(x + l, l) for x in range(1 - len(m), len(seed))]
        chi = [sum(map(mul, mults, binom[n:])) for n in seed]
        # chi(n) = sum_{k=1..l+1} (-1)^(k+1) C(l+1, k) chi(n-k), weights[i] for k = l+1-i
        if trunc > l:
            weights = [(-1) ** (k + 1) * math.comb(l + 1, k) for k in range(l + 1, 0, -1)]
            for n in range(l + 1, trunc + 1):
                chi.append(sum(map(mul, weights, chi[n - l - 1 : n])))
        return SeriesCoefficients(trunc, tuple(chi))


def z_from_decomposition(gb: GradedBundle, l: int, trunc: int) -> SeriesCoefficients:
    """Same series computed summand by summand via h^0 on P^l (cross-check route):
    coefficient n is the sum of m h^0(P^l, O(n+t)) over the twists with -t <= n."""
    if trunc < 0:
        raise ValueError(f"truncation order must be >= 0, got {trunc}")
    if l < 1:
        raise ScopeError(
            f"dim|L| = {l}: the summand-by-summand series needs a linear system of "
            "dimension >= 1; rigid classes are outside the verified scope"
        )
    # h^0(O(j)) from j = trunc down, and the multiplicities of the twists
    # t >= -trunc; coefficient n pairs the twists 0, -1, .. with the degrees n, n-1, ..
    h0 = [cohomology_projective_space(l, j).h0 for j in range(trunc, -1, -1)]
    mults = gb.m[: trunc + 1]
    width = len(mults)
    return SeriesCoefficients(
        trunc,
        tuple([sum(map(mul, mults, h0[trunc - n : trunc - n + width])) for n in range(trunc + 1)]),
    )


def h0_lambda(ctx: ThetaContext, r: int, n: int) -> int:
    """Sections of the n-th determinant-bundle twist of theta^r; zero for n < 0."""
    if n < 0:
        return 0
    return gf_coefficient(theta_splitting(ctx.branch, r).numerator(), ctx.l, n)


def euler_char_lambda(ctx: ThetaContext, r: int, n: int) -> int:
    """Euler characteristic of the n-th twist, exact for every integer n.

    Agrees with h0_lambda whenever no summand reaches twist n+t <= -l-1 (no
    higher cohomology).
    """
    return theta_splitting(ctx.branch, r).euler_char(ctx.l, n)


def higher_cohomology_vanishes(gb: GradedBundle, l: int, n: int) -> bool:
    """True when every summand O(n+t) on P^l has vanishing top cohomology."""
    return not gb.m or n - len(gb.m) + 1 >= -l  # the lowest twist is 1 - len(m)


def step_failure(branch: Branch, top: int) -> int | None:
    """First power s from the branch's lowest tabulated power up to top where
    power s plus its increment is not power s+1, else None.  Power s+1 is
    power s plus the block of s+1, so the step holds exactly when the
    increment of s equals the block of s+1.  The table writes both merged and
    in descending twist order, so they are compared as lists: one increment
    and one block per power."""
    entry = _SPLITTINGS.get(branch)
    if entry is None:
        raise UnsupportedBranchError(
            f"no tabulated splitting for branch {branch.value}: no step to check"
        )
    steps = range(entry.base, top + 1)
    return next((s for s in steps if entry.increment(s) != entry.block(s + 1)), None)


class Genus2CohomologyCheck(NamedTuple):
    """The counts `verify_genus2_cohomology` reads and whether all six identities hold."""

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
    adjoint = L + surface.canonical  # equals the fiber class
    positive = r * adjoint
    negative = positive - L
    table_pos = cohomology_table(surface, positive)
    table_neg = cohomology_table(surface, negative)
    ok = (
        table_pos.h0 == r + 1
        and table_neg.h1 == r - 2
        and table_pos.h1 == 0
        and table_pos.h2 == 0
        and table_neg.h0 == 0
        and table_neg.h2 == 0
    )
    return Genus2CohomologyCheck(table_pos.h0, table_neg.h1, ok)
