"""Pushforward splittings, section-count series, and their cross-checks."""

import contextlib
import functools
import io
import json
import math
import re
import types
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ratsurf.theta
from ratsurf import (
    Branch,
    GradedBundle,
    ScopeError,
    ThetaSeries,
    UnsupportedBranchError,
    binom_polynomial,
    binomial,
    cohomology_projective_space,
    divisor,
    euler_char_lambda,
    h0_lambda,
    higher_cohomology_vanishes,
    hirzebruch,
    polynomial,
    projective_plane,
    step_failure,
    theta_context,
    theta_splitting,
    verify_genus2_cohomology,
    z_from_decomposition,
)
from ratsurf.cli import main

P2 = projective_plane()
F0 = hirzebruch(0)
F1 = hirzebruch(1)

CTX_CONIC = theta_context(P2, divisor(2))          # genus <= 0, l = 5
CTX_CUBIC = theta_context(P2, divisor(3))          # genus 1, l = 9
CTX_QUARTIC = theta_context(P2, divisor(4))        # genus 3, first power only
CTX_G1_F0 = theta_context(F0, divisor(2, 2))       # genus 1, l = 8
CTX_G2_F0 = theta_context(F0, divisor(2, 3))       # genus 2, l = 11
CTX_G2_F1 = theta_context(F1, divisor(2, 4))       # genus 2, l = 11

# every genus-1 and genus-2 class of the theta-tower benchmark (bench/oracle.py)
TOWER = [CTX_CUBIC, CTX_G1_F0, theta_context(F1, divisor(2, 3)), CTX_G2_F0, CTX_G2_F1]

# branch -> genus of the branches with a splitting at every power
SPLIT_BRANCHES = {Branch.GENUS_NONPOSITIVE: 0, Branch.GENUS_ONE: 1, Branch.GENUS_TWO: 2}
FIRST_POWER_ONLY = (Branch.POSITIVE_GENUS_GENERAL,)
# a class outside every verified family has no splitting at any power
REFUSED = Branch.UNSUPPORTED


def paper_numerator(branch, r):
    """The paper's closed-form numerators of Z^r(t), written apart from the
    library's splitting table so that each checks the other."""
    if r == 1 or branch is Branch.GENUS_NONPOSITIVE:
        return polynomial([1])
    if branch is Branch.GENUS_ONE:
        return polynomial([1, 0] + [1] * (r - 1))
    if branch is Branch.GENUS_TWO:
        coeffs = [0] * (r + 2)
        coeffs[0] = 1
        coeffs[2] = 3
        for i in range(3, r + 1):
            coeffs[i] += i + 1
            coeffs[i + 1] += i - 2
        return polynomial(coeffs)
    raise ValueError(f"no closed form for {branch} at power {r}")


def test_context_fields():
    assert (CTX_CUBIC.genus, CTX_CUBIC.l, CTX_CUBIC.branch) == (1, 9, Branch.GENUS_ONE)
    assert (CTX_G2_F1.genus, CTX_G2_F1.l, CTX_G2_F1.branch) == (2, 11, Branch.GENUS_TWO)
    assert CTX_CONIC.branch == Branch.GENUS_NONPOSITIVE
    assert CTX_QUARTIC.branch == Branch.POSITIVE_GENUS_GENERAL


# -------------------------------------------------------------- decompositions


def test_decomposition_examples():
    assert theta_splitting(CTX_CUBIC.branch, 3).summands == ((0, 1), (-2, 1), (-3, 1))
    assert theta_splitting(CTX_G2_F0.branch, 3).summands == (
        (0, 1),
        (-2, 3),
        (-3, 4),
        (-4, 1),
    )
    for ctx in (CTX_CONIC, CTX_CUBIC, CTX_QUARTIC, CTX_G2_F0):
        assert theta_splitting(ctx.branch, 1).summands == ((0, 1),)


def test_decomposition_merges_twists():
    # at genus 2 consecutive blocks share a twist: power 4 has O(-4)^(1+5)
    gb = theta_splitting(CTX_G2_F1.branch, 4)
    assert gb.summands == ((0, 1), (-2, 3), (-3, 4), (-4, 6), (-5, 2))


def test_rank_is_power_of_genus():
    for r in range(1, 51):
        assert theta_splitting(CTX_CUBIC.branch, r).rank == r
        assert theta_splitting(CTX_G2_F0.branch, r).rank == r * r
        assert theta_splitting(CTX_CONIC.branch, r).rank == 1
    assert theta_splitting(CTX_CUBIC.branch, 5).rank == 5
    assert theta_splitting(CTX_G2_F0.branch, 3).rank == 9
    # every tabulated branch has rank r^g, the genus <= 0 one rank 1 = r^0
    for branch, genus in SPLIT_BRANCHES.items():
        for r in range(1, 51):
            assert theta_splitting(branch, r).rank == r**genus
    for branch in FIRST_POWER_ONLY:
        assert theta_splitting(branch, 1).rank == 1
    for r in (1, 2):
        with pytest.raises(UnsupportedBranchError, match=f"at power {r}: "):
            theta_splitting(REFUSED, r)


def test_unsupported_powers_raise():
    with pytest.raises(UnsupportedBranchError, match="torsion-free"):
        theta_splitting(CTX_QUARTIC.branch, 2)
    with pytest.raises(UnsupportedBranchError):
        ThetaSeries(CTX_QUARTIC, 3, 5).h0
    # an effective class outside every verified family
    ctx = theta_context(hirzebruch(2), divisor(2, 7))
    assert ctx.branch == Branch.UNSUPPORTED
    for r in (1, 2):
        with pytest.raises(UnsupportedBranchError, match="no splitting into line-bundle"):
            theta_splitting(ctx.branch, r)
    # the refusal at power 1 does not speak of powers r >= 2
    with pytest.raises(UnsupportedBranchError) as refusal:
        ThetaSeries(ctx, 1, 5).h0
    assert "at power 1: " in str(refusal.value) and "r >= 2" not in str(refusal.value)
    # the positive-genus family keeps its first power
    assert theta_splitting(CTX_QUARTIC.branch, 1).summands == ((0, 1),)
    with pytest.raises(ValueError, match="^theta power must be >= 1, got 0$"):
        theta_splitting(Branch.GENUS_ONE, 0)


def test_graded_bundle_validation():
    with pytest.raises(AssertionError, match="^positive twist 1 in graded bundle$"):
        GradedBundle.from_summands(((1, 1),))
    assert GradedBundle.from_summands([(-2, 1), (0, 1), (-2, 2)]).summands == (
        (0, 1),
        (-2, 3),
    )


def merged_oracle(pairs):
    """Twist -> summed multiplicity, by a dict: the oracle for `from_summands`."""
    merged = {}
    for twist, mult in pairs:
        merged[twist] = merged.get(twist, 0) + mult
    return merged


def assert_bundle_matches(gb, merged):
    """Every derived view of `gb` against the merged pairs, rebuilt by hand."""
    summands = tuple((t, merged[t]) for t in sorted(merged, reverse=True) if merged[t])
    assert gb.summands == summands
    assert gb.rank == sum(m for _, m in summands)
    coeffs = [0] * (1 - min((t for t, _ in summands), default=1))
    for t, m in summands:
        coeffs[-t] = m
    assert gb == GradedBundle(tuple(coeffs))
    assert gb.numerator() == polynomial(coeffs)
    names = [("O" if t == 0 else f"O({t})") + ("" if m == 1 else f"^{m}") for t, m in summands]
    assert gb.describe() == " + ".join(names)
    for l in (1, 2, 7):
        for n in range(-5, 40):
            expected = all(n + t >= -l for t, _ in summands)
            assert higher_cohomology_vanishes(gb, l, n) == expected, (l, n)


# pairs in any order, with repeated twists, zero multiplicities and
# cancelling ones (a genus-2 increment carries (-3, 0) at r = 1)
pair_lists = st.lists(st.tuples(st.integers(-30, 0), st.integers(-3, 9)), max_size=12)


@settings(max_examples=300, deadline=None)
@given(pair_lists, pair_lists)
def test_bundle_views_equal_a_dict_merge(pairs, more):
    merged = merged_oracle(pairs)
    if min(merged.values(), default=0) < 0:
        with pytest.raises(AssertionError):
            GradedBundle.from_summands(pairs)
        return
    gb = GradedBundle.from_summands(pairs)
    assert_bundle_matches(gb, merged)
    both = merged_oracle([*pairs, *more])
    if min(both.values(), default=0) >= 0:
        assert_bundle_matches(GradedBundle.from_summands([*gb.summands, *more]), both)


def test_empty_bundle_views():
    for pairs in ([], [(-3, 0)], [(-2, 3), (-2, -3)], [(0, 1), (-4, 0), (0, -1)]):
        gb = GradedBundle.from_summands(pairs)
        assert gb == GradedBundle(())
        assert_bundle_matches(gb, merged_oracle(pairs))
        assert (gb.summands, gb.rank, gb.describe()) == ((), 0, "")
        assert all(higher_cohomology_vanishes(gb, 1, n) for n in range(-50, 5))
    # the genus-2 increment at r = 1 merges its zero multiplicity away
    increment = ratsurf.theta._SPLITTINGS[Branch.GENUS_TWO].increment(1)
    assert (-3, 0) in increment
    assert GradedBundle.from_summands([(0, 1), *increment]).summands == ((0, 1), (-2, 3))


# --------------------------------------------------------------------- series


def test_series_examples():
    for r in (1, 2, 5, 9):
        assert ThetaSeries(CTX_CONIC, r, 2).h0.coeffs == (1, 6, 21)
    assert ThetaSeries(CTX_CUBIC, 2, 2).h0.coeffs == (1, 10, 56)
    assert ThetaSeries(CTX_G2_F0, 2, 2).h0.coeffs == (1, 12, 81)


def test_series_numerators():
    assert theta_splitting(Branch.GENUS_ONE, 4).numerator().coeffs == (1, 0, 1, 1, 1)
    assert theta_splitting(Branch.GENUS_TWO, 2).numerator().coeffs == (1, 0, 3)
    assert theta_splitting(Branch.GENUS_TWO, 3).numerator().coeffs == (1, 0, 3, 4, 1)
    assert theta_splitting(Branch.GENUS_NONPOSITIVE, 7).numerator().coeffs == (1,)
    assert theta_splitting(Branch.POSITIVE_GENUS_GENERAL, 1).numerator().coeffs == (1,)
    assert theta_splitting(CTX_G2_F1.branch, 3).numerator().coeffs == (1, 0, 3, 4, 1)
    assert CTX_G2_F1.l + 1 == 12


def test_numerator_read_off_the_splitting_matches_the_paper():
    for branch in SPLIT_BRANCHES:
        for r in range(1, 61):
            assert theta_splitting(branch, r).numerator() == paper_numerator(branch, r), (branch, r)
    for branch in FIRST_POWER_ONLY:
        assert theta_splitting(branch, 1).numerator() == paper_numerator(branch, 1)
        with pytest.raises(UnsupportedBranchError, match="no closed-form numerator.*torsion-free"):
            theta_splitting(branch, 2).numerator()
    with pytest.raises(UnsupportedBranchError, match="no closed-form numerator.*outside every"):
        theta_splitting(REFUSED, 1).numerator()
    with pytest.raises(UnsupportedBranchError, match="no closed-form numerator.*torsion-free"):
        theta_splitting(REFUSED, 2).numerator()
    assert GradedBundle(()).numerator() == polynomial([])
    # O(t)^m contributes m t^(-t), whatever the gaps between twists
    assert GradedBundle.from_summands(((0, 2), (-3, 5))).numerator().coeffs == (2, 0, 0, 5)


def test_step_increments_grow_the_splitting():
    for branch in SPLIT_BRANCHES:
        increment = ratsurf.theta._SPLITTINGS[branch].increment
        for r in range(1, 51):
            gb = theta_splitting(branch, r)
            stepped = GradedBundle.from_summands([*gb.summands, *increment(r)])
            assert stepped == theta_splitting(branch, r + 1)
        assert step_failure(branch, 50) is None
    for branch in (*FIRST_POWER_ONLY, REFUSED):
        with pytest.raises(UnsupportedBranchError, match="no tabulated splitting"):
            step_failure(branch, 2)
    with pytest.raises(UnsupportedBranchError):
        theta_splitting(REFUSED, 1)


def test_z_from_decomposition_examples():
    gb = GradedBundle((1,))
    series = z_from_decomposition(gb, 9, 4)
    assert list(series.coeffs) == [math.comb(n + 9, 9) for n in range(5)]
    assert z_from_decomposition(GradedBundle((1, 0, 1)), 9, 2).coeffs == (1, 10, 56)
    assert z_from_decomposition(GradedBundle((1, 0, 3)), 11, 1).coeffs == (1, 12)
    with pytest.raises(ValueError, match="^truncation order must be >= 0, got -1$"):
        z_from_decomposition(gb, 3, -1)


def test_closed_form_equals_decomposition_sum():
    # the central cross-check, over every supported branch
    contexts = [CTX_CONIC, CTX_CUBIC, CTX_G1_F0, CTX_G2_F0, CTX_G2_F1]
    for ctx in contexts:
        for r in range(1, 31):
            closed = ThetaSeries(ctx, r, 60).h0
            summed = z_from_decomposition(theta_splitting(ctx.branch, r), ctx.l, 60)
            assert closed == summed
    # prefix consistency at other truncation orders
    for trunc in (0, 1, 7):
        a = ThetaSeries(CTX_G2_F1, 5, trunc).h0
        b = ThetaSeries(CTX_G2_F1, 5, 60).h0
        assert a.coeffs == b.coeffs[: trunc + 1]


def test_series_columns_equal_the_sums_over_every_summand():
    # chi, extended past n = l by finite differences, against the per-n sum
    # sum m C(n+t+l, l); the summand route, which starts each twist at n = -t,
    # against h^0(O(n+t)) summed over every summand at every n
    for ctx in TOWER:
        l, low = ctx.l, -502  # the lowest twist at r = 500 is -501
        binom = {x: binom_polynomial(x, l) for x in range(low + l, 201 + l)}
        h0 = {j: cohomology_projective_space(l, j).h0 for j in range(low, 201)}
        for r in [*range(1, 61), 200, 500]:
            gb = theta_splitting(ctx.branch, r)
            chi = [sum(m * binom[n + t + l] for t, m in gb.summands) for n in range(201)]
            summed = [sum(m * h0[n + t] for t, m in gb.summands) for n in range(201)]
            for trunc in (0, 1, l - 1, l, l + 1, 200):
                series = ThetaSeries(ctx, r, trunc)
                assert series.chi.coeffs == tuple(chi[: trunc + 1]), (ctx.L, r, trunc)
                assert series.summed.coeffs == tuple(summed[: trunc + 1]), (ctx.L, r, trunc)
        # the table sums are GradedBundle.euler_char itself (here at r = 500)
        assert [gb.euler_char(l, n) for n in (0, l, l + 1, 200)] == [
            chi[n] for n in (0, l, l + 1, 200)
        ]


def test_chi_seed_edges():
    # the rigid class (l = 0) at every power, and a splitting with gaps between
    # its twists, against GradedBundle.euler_char at each n, for trunc below,
    # at and above l
    rigid = theta_context(F1, divisor(1, 0))
    assert rigid.l == 0
    for r in (1, 2, 7):
        for trunc in (0, 1, 9):
            assert ThetaSeries(rigid, r, trunc).chi.coeffs == (1,) * (trunc + 1)
    gapped = GradedBundle.from_summands(((0, 2), (-3, 5), (-9, 1)))
    for ctx in (CTX_CUBIC, CTX_G2_F1, rigid):
        for trunc in (0, 1, ctx.l - 1, ctx.l, ctx.l + 1, 40):
            if trunc < 0:
                continue
            series = ThetaSeries(ctx, 2, trunc)
            series.bundle = gapped
            expected = tuple(gapped.euler_char(ctx.l, n) for n in range(trunc + 1))
            assert series.chi.coeffs == expected, (ctx.L, trunc)
    for ctx in (CTX_CUBIC, rigid):
        with pytest.raises(ValueError, match="truncation order"):
            ThetaSeries(ctx, 3, -1).chi


def summand_double_loop(gb, l, trunc):
    """The summand route written as a double loop over (twist, n) with
    n + t >= 0: an oracle for `z_from_decomposition`."""
    h0 = [cohomology_projective_space(l, j).h0 for j in range(trunc + 1)]
    coeffs = [0] * (trunc + 1)
    for t, m in gb.summands:
        for n in range(-t, trunc + 1):
            coeffs[n] += m * h0[n + t]
    return tuple(coeffs)


@st.composite
def bundles_and_orders(draw):
    """A bundle on P^l, l in 1..12, whose twists leave gaps and may reach below
    -trunc, with trunc at 0, l-1, l, l+1 or anywhere in 0..40."""
    l = draw(st.integers(1, 12))
    trunc = draw(st.one_of(st.sampled_from([0, l - 1, l, l + 1]), st.integers(0, 40)))
    pairs = draw(st.dictionaries(st.integers(-60, 0), st.integers(1, 9), min_size=1, max_size=8))
    return GradedBundle.from_summands(pairs.items()), l, trunc


@settings(max_examples=200, derandomize=True)
@given(bundles_and_orders())
def test_summand_route_matches_the_double_loop(case):
    gb, l, trunc = case
    assert z_from_decomposition(gb, l, trunc).coeffs == summand_double_loop(gb, l, trunc)


@settings(max_examples=200, derandomize=True)
@given(bundles_and_orders())
def test_chi_column_is_the_euler_characteristic_at_every_n(case):
    gb, l, trunc = case
    series = ThetaSeries(CTX_CUBIC._replace(l=l), 2, trunc)
    series.bundle = gb
    assert series.chi.coeffs == tuple(gb.euler_char(l, n) for n in range(trunc + 1))


def test_theta_series_views_and_refusals():
    series = ThetaSeries(CTX_G2_F1, 7, 30)
    assert series.h0 == ThetaSeries(CTX_G2_F1, 7, 30).h0
    assert (series.bundle, series.provenance) == (
        theta_splitting(Branch.GENUS_TWO, 7), ratsurf.theta._entry(Branch.GENUS_TWO, 7).provenance
    )
    # a rigid class has a constant chi column but no summand route
    rigid = ThetaSeries(theta_context(F1, divisor(1, 0)), 3, 4)
    assert rigid.chi.coeffs == rigid.h0.coeffs == (1,) * 5
    with pytest.raises(ScopeError, match="dim.L. = 0"):
        rigid.summed
    # building refuses nothing: the refusal comes at the first read
    unsupported = ThetaSeries(CTX_QUARTIC, 2, 5)
    with pytest.raises(UnsupportedBranchError, match="torsion-free"):
        unsupported.chi
    with pytest.raises(ValueError, match="truncation order"):
        ThetaSeries(CTX_CUBIC, 2, -1).chi


def test_report_columns_cost_linear_work(monkeypatch):
    # at most (l+1) binomials per twist for chi, and one h^0 on P^l per degree
    calls = {"binom": 0, "h0": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(ratsurf.theta, "binomial", counted("binom", binomial))
    monkeypatch.setattr(
        ratsurf.theta,
        "cohomology_projective_space",
        counted("h0", cohomology_projective_space),
    )
    with contextlib.redirect_stdout(io.StringIO()):
        code = main("report --surface f1 --class 2G+4F --r 500 --trunc 200".split())
    assert code == 1  # no-higher-cohomology fails once r > l, as criterion 08 does
    twists = len(theta_splitting(CTX_G2_F1.branch, 500).summands)
    assert twists == 501
    assert 0 < calls["binom"] <= (CTX_G2_F1.l + 1) * twists
    assert calls["binom"] <= twists + CTX_G2_F1.l + 1  # one per argument of the chi seed
    assert 0 < calls["h0"] <= 201


def test_chi_builds_no_difference_weight_up_to_l(monkeypatch):
    # the (l+1)-th difference weights are read only at n > l, so with
    # trunc <= l not one of the l+1 binomials C(l+1, k) is built
    calls = []

    def comb(n, k):
        calls.append((n, k))
        return math.comb(n, k)

    monkeypatch.setattr(ratsurf.theta, "math", types.SimpleNamespace(comb=comb))
    l = CTX_G2_F1.l
    for trunc in (0, l - 1, l):
        series = ThetaSeries(CTX_G2_F1, 3, trunc)
        gb = series.bundle
        assert series.chi.coeffs == tuple(gb.euler_char(l, n) for n in range(trunc + 1))
    assert calls == []
    with contextlib.redirect_stdout(io.StringIO()):
        assert main("report --surface p2 --class 40H --r 1 --trunc 5".split()) == 0
    assert calls == []
    assert ThetaSeries(CTX_G2_F1, 3, l + 1).chi.coeffs[-1] == gb.euler_char(l, l + 1)
    assert len(calls) == l + 1


def test_first_power_series_is_binomial():
    assert ThetaSeries(CTX_QUARTIC, 1, 3).h0.coeffs == tuple(
        math.comb(n + 14, 14) for n in range(4)
    )


# ----------------------------------------------------------- section counting


def test_h0_lambda_examples():
    assert h0_lambda(CTX_CUBIC, 1, 0) == 1
    for e in (0, 1):
        ctx = theta_context(hirzebruch(e), divisor(2, e + 3))
        assert h0_lambda(ctx, 2, 1) == 12
    assert h0_lambda(theta_context(P2, divisor(1)), 7, 0) == 1
    assert h0_lambda(CTX_CUBIC, 3, -5) == 0


def test_euler_char_lambda_examples():
    assert euler_char_lambda(CTX_CUBIC, 2, 0) == 1
    assert euler_char_lambda(CTX_CONIC, 4, -1) == 0
    for r in range(1, 8):
        for n in range(0, 15):
            assert euler_char_lambda(CTX_CUBIC, r, n) == h0_lambda(CTX_CUBIC, r, n)


def test_euler_char_lambda_detects_higher_cohomology():
    # at power l+1 the twist -(l+1) contributes (-1)^l to chi at n = 0
    r = CTX_CUBIC.l + 1
    assert euler_char_lambda(CTX_CUBIC, r, 0) == h0_lambda(CTX_CUBIC, r, 0) - 1
    gb = theta_splitting(CTX_CUBIC.branch, r)
    assert not higher_cohomology_vanishes(gb, CTX_CUBIC.l, 0)


def test_stabilization_of_the_two_routes():
    # once n clears the numerator degree both evaluations agree term by term
    for ctx, slack in ((CTX_CUBIC, 1), (CTX_G1_F0, 1), (CTX_G2_F0, 2), (CTX_G2_F1, 2)):
        for r in range(1, 16):
            for n in range(r + slack, r + slack + 12):
                assert euler_char_lambda(ctx, r, n) == h0_lambda(ctx, r, n)


def test_higher_cohomology_vanishes():
    gb = theta_splitting(CTX_G2_F0.branch, 3)
    assert higher_cohomology_vanishes(gb, 11, 0)
    assert not higher_cohomology_vanishes(GradedBundle.from_summands(((-5, 1),)), 3, 0)
    assert higher_cohomology_vanishes(GradedBundle((1,)), 4, 0)
    # at the supported example dimensions, vanishing holds for all n >= 0 once r <= l-2
    for ctx in (CTX_CUBIC, CTX_G1_F0, CTX_G2_F0, CTX_G2_F1):
        for r in range(1, ctx.l - 1):
            gb = theta_splitting(ctx.branch, r)
            for n in range(0, 25):
                assert higher_cohomology_vanishes(gb, ctx.l, n)


# ------------------------------------------------------------------ recursion


def test_recursion_examples():
    entry = ratsurf.theta._SPLITTINGS[Branch.GENUS_TWO]
    for r in (2, 3, 10):
        assert entry.increment(r) == entry.block(r + 1)
    assert all(entry.increment(r) == entry.block(r + 1) for r in range(2, 51))


def assert_walk_names_the_first_bad_step(monkeypatch, capsys, branch, argv, name):
    """Slip the increments or the blocks of `branch` from power bad on: the
    walk, its one-step form and the CLI witness of `argv` each name bad."""
    assert step_failure(branch, 500) is None
    entry = ratsurf.theta._SPLITTINGS[branch]

    def one_step(r):  # power r plus its increment is power r+1, in the slipped table
        slipped = ratsurf.theta._SPLITTINGS[branch]
        return slipped.increment(r) == slipped.block(r + 1)

    def increment(r, bad):  # power r+1 over power r, wrong once r >= bad
        *head, (t, m) = entry.increment(r)
        return [*head, (t, m + (r >= bad))]

    def block(i, bad):  # power i over power i-1, wrong once i > bad
        (t, m), *tail = entry.block(i)
        return [(t, m + (i > bad)), *tail]

    for slip in (increment, block):
        for bad in (entry.base, entry.base + 1, 17, 499):
            monkeypatch.setitem(
                ratsurf.theta._SPLITTINGS,
                branch,
                entry._replace(**{slip.__name__: functools.partial(slip, bad=bad)}),
            )
            assert step_failure(branch, 500) == bad
            assert step_failure(branch, bad - 1) is None
            assert not one_step(bad)
            if bad > entry.base:
                assert one_step(bad - 1)
            code = main(argv.split())
            assert code == 1
            assert f"  {name}: FAIL (fails at power {bad})" in capsys.readouterr().out


def test_recursion_walk_reports_the_first_bad_step(monkeypatch, capsys):
    argv = "report --surface f0 --class 2G+3F --r 600 --trunc 3"
    assert_walk_names_the_first_bad_step(monkeypatch, capsys, Branch.GENUS_TWO, argv, "recursion")


def test_sequence_additivity_walk_reports_the_first_bad_step(monkeypatch, capsys):
    argv = "report --surface p2 --class 3H --r 600 --trunc 3"
    assert_walk_names_the_first_bad_step(
        monkeypatch, capsys, Branch.GENUS_ONE, argv, "sequence-additivity"
    )


def test_rank_check_catches_the_rank_one_row_on_a_tower(monkeypatch, capsys):
    # the r = 1 row slipped onto every genus-2 power agrees with itself, so
    # only the rank r^g derived from the class can catch it
    real = ratsurf.theta._entry
    monkeypatch.setattr(
        ratsurf.theta,
        "_entry",
        lambda b, r: ratsurf.theta._RANK_ONE if b is Branch.GENUS_TWO else real(b, r),
    )
    code = main("report --surface f1 --class 2G+4F --r 3 --trunc 4 --checks invariants".split())
    assert code == 1
    assert "  rank: FAIL (rank 1 != 9)" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("surface", ["p2", "f0", "f1b"])
def test_rank_of_the_zero_class_is_one(capsys, surface):
    # the zero class has genus 1 but a point as fiber: its branch, not r^g, sets the rank
    argv = f"report --surface {surface} --class 0 --r 3 --trunc 2 --checks invariants"
    assert main(argv.split()) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "genus      1" in lines
    assert "  rank: PASS" in lines


def free_form_summands(branch, r):
    """The tower splittings at r >= 2, each written as one expression: an
    oracle for the table's head-plus-blocks form."""
    if branch is Branch.GENUS_ONE:
        return [(0, 1)] + [(-i, 1) for i in range(2, r + 1)]
    return [(0, 1), (-2, 3)] + [
        p for i in range(3, r + 1) for p in ((-i, i + 1), (-i - 1, i - 2))
    ]


def test_summands_are_the_head_plus_one_block_per_power():
    for branch in (Branch.GENUS_ONE, Branch.GENUS_TWO):
        entry = ratsurf.theta._SPLITTINGS[branch]
        for r in range(2, 1001):
            assert entry.summands(r) == free_form_summands(branch, r), (branch, r)


def test_recursion_walk_costs_linear_work(monkeypatch):
    # one increment and one block per power: counted calls, not time
    entry = ratsurf.theta._SPLITTINGS[Branch.GENUS_TWO]
    calls = {"increment": 0, "block": 0}

    def counted(name):
        fn = getattr(entry, name)

        def wrapper(r):
            calls[name] += 1
            return fn(r)

        return wrapper

    monkeypatch.setitem(
        ratsurf.theta._SPLITTINGS,
        Branch.GENUS_TWO,
        entry._replace(increment=counted("increment"), block=counted("block")),
    )
    assert step_failure(Branch.GENUS_TWO, 1000) is None
    assert 0 < calls["increment"] <= 1000
    assert 0 < calls["block"] <= 1000


def test_sequence_additivity_genus_one():
    for ctx in (CTX_CUBIC, CTX_G1_F0):
        for r in range(1, 25):
            gb = theta_splitting(ctx.branch, r)
            stepped = GradedBundle.from_summands([*gb.summands, (-(r + 1), 1)])
            assert stepped == theta_splitting(ctx.branch, r + 1)


# ------------------------------------------------------------------- dualizing


def test_dualizing_twist_examples(capsys):
    # the witness is L.K, the canonical pairing `genus` reports for the class
    for surface, cls, twist in [
        ("p2", "3H", -9), ("f0", "2G+3F", -10), ("f1", "2G+4F", -10), ("p2", "0", 0)
    ]:
        opts = ["--surface", surface, "--class", cls]
        assert main(["report", *opts, "--r", "1", "--trunc", "0", "--checks", "dualizing"]) == 0
        witness = f"twist L.K = {twist}; restriction to each support fiber is trivial"
        assert f"  dualizing-twist: PASS ({witness})" in capsys.readouterr().out
        assert main(["genus", *opts, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["canonical_pairing"] == twist


# ------------------------------------------------------- genus-2 cohomology


def test_genus2_cohomology_examples():
    assert verify_genus2_cohomology(0, 2) == (3, 0, True)
    assert verify_genus2_cohomology(1, 5) == (6, 3, True)


def test_genus2_cohomology_full_range():
    for e in (0, 1):
        for r in range(2, 41):
            result = verify_genus2_cohomology(e, r)
            assert result.ok
            assert result.h0_pos == r + 1
            assert result.h1_neg == r - 2


def test_genus2_cohomology_rejects_bad_inputs():
    with pytest.raises(ValueError, match=re.escape("only e in {0, 1} is supported, got 2")):
        verify_genus2_cohomology(2, 3)
    with pytest.raises(ValueError, match="^the counts are stated for r >= 2, got 1$"):
        verify_genus2_cohomology(0, 1)


# ------------------------------------------------------------- README example


def test_readme_quick_start():
    # the README's library quick start runs as written, each expression line
    # shows its value in its comment, and the values are these
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    exec(block, namespace)
    shown = []
    for line in block.splitlines():
        code, _, comment = line.partition("  # ")
        if comment and "=" not in code:
            value = eval(code, namespace)
            assert repr(value).endswith(comment), (code, comment)
            shown.append(value)
    assert namespace["ctx"] == theta_context(F1, divisor(2, 4))
    assert shown == [
        (1, 12, 81, 404, 1648, 5784),
        "O + O(-2)^3 + O(-3)^4 + O(-4)",
        (6, 3, True),
    ]
