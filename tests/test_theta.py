"""Pushforward splittings, section-count series, and their cross-checks."""

import contextlib
import functools
import io
import math

import pytest

import ratsurf.theta
from ratsurf import (
    Branch,
    GradedBundle,
    ScopeError,
    ThetaSeries,
    UnsupportedBranchError,
    binom_polynomial,
    cohomology_projective_space,
    divisor,
    dualizing_twist,
    euler_char_lambda,
    h0_lambda,
    higher_cohomology_vanishes,
    hirzebruch,
    polynomial,
    projective_plane,
    pushforward_decomposition,
    recursion_check_g2,
    recursion_failure_g2,
    series_numerator,
    theta_context,
    theta_splitting,
    verify_genus2_cohomology,
    z_from_decomposition,
    z_series,
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
FIRST_POWER_ONLY = (Branch.POSITIVE_GENUS_GENERAL, Branch.UNSUPPORTED)


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
    assert pushforward_decomposition(CTX_CUBIC, 3).summands == ((0, 1), (-2, 1), (-3, 1))
    assert pushforward_decomposition(CTX_G2_F0, 3).summands == (
        (0, 1),
        (-2, 3),
        (-3, 4),
        (-4, 1),
    )
    for ctx in (CTX_CONIC, CTX_CUBIC, CTX_QUARTIC, CTX_G2_F0):
        assert pushforward_decomposition(ctx, 1).summands == ((0, 1),)


def test_decomposition_merges_twists():
    # at genus 2 consecutive blocks share a twist: power 4 has O(-4)^(1+5)
    gb = pushforward_decomposition(CTX_G2_F1, 4)
    assert gb.summands == ((0, 1), (-2, 3), (-3, 4), (-4, 6), (-5, 2))


def test_rank_is_power_of_genus():
    for r in range(1, 51):
        assert pushforward_decomposition(CTX_CUBIC, r).rank == r
        assert pushforward_decomposition(CTX_G2_F0, r).rank == r * r
        assert pushforward_decomposition(CTX_CONIC, r).rank == 1
    assert pushforward_decomposition(CTX_CUBIC, 5).rank == 5
    assert pushforward_decomposition(CTX_G2_F0, 3).rank == 9
    # the expected rank the table states is r^g
    for branch, genus in SPLIT_BRANCHES.items():
        for r in range(1, 51):
            assert theta_splitting(branch, r).expected_rank == r**genus
    for branch in FIRST_POWER_ONLY:
        assert theta_splitting(branch, 1).expected_rank == 1


def test_unsupported_powers_raise():
    with pytest.raises(UnsupportedBranchError, match="torsion-free"):
        pushforward_decomposition(CTX_QUARTIC, 2)
    with pytest.raises(UnsupportedBranchError):
        z_series(CTX_QUARTIC, 3, 5)
    # an effective class outside every verified family
    ctx = theta_context(hirzebruch(2), divisor(2, 7))
    assert ctx.branch == Branch.UNSUPPORTED
    assert pushforward_decomposition(ctx, 1).summands == ((0, 1),)
    with pytest.raises(UnsupportedBranchError):
        pushforward_decomposition(ctx, 2)


def test_graded_bundle_validation():
    with pytest.raises(AssertionError):
        GradedBundle(((1, 1),))
    with pytest.raises(AssertionError):
        GradedBundle(((0, 0),))
    with pytest.raises(AssertionError):
        GradedBundle(((-2, 1), (0, 1)))  # wrong order
    assert GradedBundle.from_summands([(-2, 1), (0, 1), (-2, 2)]).summands == (
        (0, 1),
        (-2, 3),
    )


# --------------------------------------------------------------------- series


def test_series_examples():
    for r in (1, 2, 5, 9):
        assert z_series(CTX_CONIC, r, 2).coeffs == (1, 6, 21)
    assert z_series(CTX_CUBIC, 2, 2).coeffs == (1, 10, 56)
    assert z_series(CTX_G2_F0, 2, 2).coeffs == (1, 12, 81)


def test_series_numerators():
    assert series_numerator(Branch.GENUS_ONE, 4).coeffs == (1, 0, 1, 1, 1)
    assert series_numerator(Branch.GENUS_TWO, 2).coeffs == (1, 0, 3)
    assert series_numerator(Branch.GENUS_TWO, 3).coeffs == (1, 0, 3, 4, 1)
    assert series_numerator(Branch.GENUS_NONPOSITIVE, 7).coeffs == (1,)
    assert series_numerator(Branch.POSITIVE_GENUS_GENERAL, 1).coeffs == (1,)
    assert series_numerator(CTX_G2_F1.branch, 3).coeffs == (1, 0, 3, 4, 1)
    assert CTX_G2_F1.l + 1 == 12


def test_numerator_read_off_the_splitting_matches_the_paper():
    for branch in SPLIT_BRANCHES:
        for r in range(1, 61):
            assert series_numerator(branch, r) == paper_numerator(branch, r), (branch, r)
    for branch in FIRST_POWER_ONLY:
        assert series_numerator(branch, 1) == paper_numerator(branch, 1)
        with pytest.raises(UnsupportedBranchError, match="no closed-form numerator.*torsion-free"):
            series_numerator(branch, 2)
    assert GradedBundle(()).numerator() == polynomial([])
    # O(t)^m contributes m t^(-t), whatever the gaps between twists
    assert GradedBundle(((0, 2), (-3, 5))).numerator().coeffs == (2, 0, 0, 5)


def test_step_increments_grow_the_splitting():
    for branch in SPLIT_BRANCHES:
        for r in range(1, 51):
            step = theta_splitting(branch, r)
            assert step.bundle.union(step.increment) == theta_splitting(branch, r + 1).bundle
    for branch in FIRST_POWER_ONLY:
        assert theta_splitting(branch, 1).increment is None


def test_z_from_decomposition_examples():
    gb = GradedBundle(((0, 1),))
    series = z_from_decomposition(gb, 9, 4)
    assert list(series.coeffs) == [math.comb(n + 9, 9) for n in range(5)]
    assert z_from_decomposition(GradedBundle(((0, 1), (-2, 1))), 9, 2).coeffs == (1, 10, 56)
    assert z_from_decomposition(GradedBundle(((0, 1), (-2, 3))), 11, 1).coeffs == (1, 12)


def test_closed_form_equals_decomposition_sum():
    # the central cross-check, over every supported branch
    contexts = [CTX_CONIC, CTX_CUBIC, CTX_G1_F0, CTX_G2_F0, CTX_G2_F1]
    for ctx in contexts:
        for r in range(1, 31):
            closed = z_series(ctx, r, 60)
            summed = z_from_decomposition(pushforward_decomposition(ctx, r), ctx.l, 60)
            assert closed == summed
    # prefix consistency at other truncation orders
    for trunc in (0, 1, 7):
        a = z_series(CTX_G2_F1, 5, trunc)
        b = z_series(CTX_G2_F1, 5, 60)
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
            gb = pushforward_decomposition(ctx, r)
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
    gapped = GradedBundle(((0, 2), (-3, 5), (-9, 1)))
    for ctx in (CTX_CUBIC, CTX_G2_F1, rigid):
        for trunc in (0, 1, ctx.l - 1, ctx.l, ctx.l + 1, 40):
            if trunc < 0:
                continue
            series = ThetaSeries(ctx, 2, trunc)
            series.split = series.split._replace(bundle=gapped)
            expected = tuple(gapped.euler_char(ctx.l, n) for n in range(trunc + 1))
            assert series.chi.coeffs == expected, (ctx.L, trunc)
    for ctx in (CTX_CUBIC, rigid):
        with pytest.raises(ValueError, match="truncation order"):
            ThetaSeries(ctx, 3, -1).chi


def test_theta_series_views_and_refusals():
    series = ThetaSeries(CTX_G2_F1, 7, 30)
    assert series.h0 == z_series(CTX_G2_F1, 7, 30)
    assert series.numerator == series_numerator(Branch.GENUS_TWO, 7)
    assert series.split == theta_splitting(Branch.GENUS_TWO, 7)
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

    monkeypatch.setattr(ratsurf.theta, "binom_polynomial", counted("binom", binom_polynomial))
    monkeypatch.setattr(
        ratsurf.theta,
        "cohomology_projective_space",
        counted("h0", cohomology_projective_space),
    )
    with contextlib.redirect_stdout(io.StringIO()):
        code = main("report --surface f1 --class 2G+4F --r 500 --trunc 200".split())
    assert code == 1  # no-higher-cohomology fails once r > l, as criterion 08 does
    twists = len(pushforward_decomposition(CTX_G2_F1, 500).summands)
    assert twists == 501
    assert 0 < calls["binom"] <= (CTX_G2_F1.l + 1) * twists
    assert calls["binom"] <= twists + CTX_G2_F1.l + 1  # one per argument of the chi seed
    assert 0 < calls["h0"] <= 201


def test_first_power_series_is_binomial():
    assert z_series(CTX_QUARTIC, 1, 3).coeffs == tuple(
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
    gb = pushforward_decomposition(CTX_CUBIC, r)
    assert not higher_cohomology_vanishes(gb, CTX_CUBIC.l, 0)


def test_stabilization_of_the_two_routes():
    # once n clears the numerator degree both evaluations agree term by term
    for ctx, slack in ((CTX_CUBIC, 1), (CTX_G1_F0, 1), (CTX_G2_F0, 2), (CTX_G2_F1, 2)):
        for r in range(1, 16):
            for n in range(r + slack, r + slack + 12):
                assert euler_char_lambda(ctx, r, n) == h0_lambda(ctx, r, n)


def test_higher_cohomology_vanishes():
    gb = pushforward_decomposition(CTX_G2_F0, 3)
    assert higher_cohomology_vanishes(gb, 11, 0)
    assert not higher_cohomology_vanishes(GradedBundle(((-5, 1),)), 3, 0)
    assert higher_cohomology_vanishes(GradedBundle(((0, 1),)), 4, 0)
    # at the supported example dimensions, vanishing holds for all n >= 0 once r <= l-2
    for ctx in (CTX_CUBIC, CTX_G1_F0, CTX_G2_F0, CTX_G2_F1):
        for r in range(1, ctx.l - 1):
            gb = pushforward_decomposition(ctx, r)
            for n in range(0, 25):
                assert higher_cohomology_vanishes(gb, ctx.l, n)


# ------------------------------------------------------------------ recursion


def test_recursion_examples():
    for r in (2, 3, 10):
        assert recursion_check_g2(r)
    assert all(recursion_check_g2(r) for r in range(2, 51))
    with pytest.raises(ValueError):
        recursion_check_g2(1)


def test_recursion_walk_reports_the_first_bad_step(monkeypatch, capsys):
    # a slip in the increments or in the blocks from power bad on: the walk,
    # the one-step check and the CLI witness each name bad
    assert recursion_failure_g2(500) is None
    entry = ratsurf.theta._SPLITTINGS[Branch.GENUS_TWO]

    def increment(r, bad):  # power r+1 over power r, wrong once r >= bad
        (t1, m1), (t2, m2) = entry.increment(r)
        return [(t1, m1), (t2, m2 + (r >= bad))]

    def block(i, bad):  # power i over power i-1, wrong once i > bad
        (t1, m1), (t2, m2) = entry.block(i)
        return [(t1, m1 + (i > bad)), (t2, m2)]

    for slip in (increment, block):
        for bad in (2, 3, 17, 499):
            monkeypatch.setitem(
                ratsurf.theta._SPLITTINGS,
                Branch.GENUS_TWO,
                entry._replace(**{slip.__name__: functools.partial(slip, bad=bad)}),
            )
            assert recursion_failure_g2(500) == bad
            assert recursion_failure_g2(bad - 1) is None
            assert not recursion_check_g2(bad)
            if bad > 2:
                assert recursion_check_g2(bad - 1)
            code = main("report --surface f0 --class 2G+3F --r 600 --trunc 3".split())
            assert code == 1
            assert f"  recursion: FAIL (fails at power {bad})" in capsys.readouterr().out


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
    assert recursion_failure_g2(1000) is None
    assert 0 < calls["increment"] <= 1000
    assert 0 < calls["block"] <= 1000


def test_sequence_additivity_genus_one():
    for ctx in (CTX_CUBIC, CTX_G1_F0):
        for r in range(1, 25):
            stepped = pushforward_decomposition(ctx, r).union([(-(r + 1), 1)])
            assert stepped == pushforward_decomposition(ctx, r + 1)


# ------------------------------------------------------------------- dualizing


def test_dualizing_twist_examples():
    assert dualizing_twist(P2, divisor(3)) == -9
    for e in (0, 1):
        assert dualizing_twist(hirzebruch(e), divisor(2, e + 3)) == -10
    assert dualizing_twist(P2, divisor(0)) == 0


def test_dualizing_twist_is_linear():
    for surface, classes in [
        (P2, [divisor(1), divisor(2), divisor(5)]),
        (F1, [divisor(1, 0), divisor(2, 4), divisor(0, 3)]),
    ]:
        for a in classes:
            for b in classes:
                assert dualizing_twist(surface, a + b) == dualizing_twist(
                    surface, a
                ) + dualizing_twist(surface, b)


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
    with pytest.raises(ValueError):
        verify_genus2_cohomology(2, 3)
    with pytest.raises(ValueError):
        verify_genus2_cohomology(0, 1)
