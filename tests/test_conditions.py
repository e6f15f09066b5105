"""Effectivity, decomposition enumeration, the A1-A3 conditions, branches."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratsurf import (
    Branch,
    ConditionReport,
    Decomposition,
    EnumerationCapError,
    ScopeError,
    UnsupportedBranchError,
    blowup_hirzebruch,
    check_a1,
    check_a2,
    check_a3,
    classify_branch,
    cohomology_table,
    conditions,
    default_very_ample,
    describe,
    divisor,
    enumerate_decompositions,
    enumerate_effective_below,
    arithmetic_genus,
    h0_class,
    hirzebruch,
    intersect,
    is_very_ample,
    linear_system_dim,
    projective_plane,
)
from ratsurf.cohom import KIND_RULES

P2 = projective_plane()
F0 = hirzebruch(0)
F1 = hirzebruch(1)


# ----------------------------------------------------------------- effectivity


def test_is_effective_examples():
    assert h0_class(F1, divisor(1, 0)) > 0
    assert h0_class(P2, divisor(-1)) == 0
    assert h0_class(F0, divisor(2, -1)) == 0
    assert h0_class(P2, divisor(0)) > 0  # the zero class has a section
    assert h0_class(blowup_hirzebruch(0), divisor(1, 1, -1)) > 0
    assert h0_class(blowup_hirzebruch(1), divisor(2, 0, -1)) == 0


def test_is_effective_agrees_with_section_count():
    # the box filter's coordinate rule says a class is effective exactly when h^0 > 0
    for d in range(-6, 7):
        got = KIND_RULES[P2.kind].effective_or_zero(0, (d,))
        assert got == (h0_class(P2, divisor(d)) > 0)
    for e in (0, 1, 2, 3):
        surface = hirzebruch(e)
        rule = KIND_RULES[surface.kind].effective_or_zero
        for a in range(-4, 5):
            for b in range(-4, 5):
                got = rule(e, (a, b))
                assert got == (h0_class(surface, divisor(a, b)) > 0)


def _outcome(rule, *args):
    """A rule's value, or the exact type and message of its refusal."""
    try:
        return rule(*args)
    except Exception as exc:  # the refusal is the outcome being compared
        return type(exc), str(exc)


def _refusal(rule, *args):
    try:
        rule(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return None


def test_every_kind_rule_matches_its_oracle():
    """Each surface kind's numeric rules against oracles written here: h^0 by
    counting monomials or ruling sections, effectivity, very ampleness, A1's
    rigid exceptions, the base-point-free marker, the positive-genus family
    test and every blowup refusal, on p2, f0-f3 and f0b-f2b."""

    def ruling_sections(e, a, b):
        # sections of O(b - k e) on the base line, one per k = 0..a
        return sum(1 for k in range(a + 1) for _ in range(b - k * e + 1))

    def h0_oracle(surface, c):
        if surface.basis == ("H",):
            return sum(1 for i in range(c[0] + 1) for _ in range(c[0] - i + 1))
        ambient = ruling_sections(surface.e, c[0], c[1])
        if len(c) == 2 or c[2] == 0:
            return ambient
        if c[2] == -1:
            return max(0, ambient - 1)
        raise ScopeError(
            f"blowup classes with exceptional multiplicity {-c[2]} are outside the verified "
            "scope (only c in {0, 1} is supported)"
        )

    def very_ample_oracle(surface, c):
        return c[0] >= 1 if len(c) == 1 else c[0] >= 1 and c[1] >= c[0] * surface.e + 1

    def family_oracle(surface, c):
        if len(c) == 1:
            return c[0] >= 3
        return len(c) == 2 and surface.e in (0, 1) and c[0] == 2 and c[1] > max(1, 2 * surface.e)

    blowup_refusals = {
        cohomology_table: (ScopeError, "h^1 and h^2 on blowups are outside the verified scope"),
        is_very_ample: (
            UnsupportedBranchError,
            "very-ampleness on blowups is outside the verified scope",
        ),
    }
    span = range(-3, 9)
    grid = [(P2, (d,)) for d in span]
    grid += [(hirzebruch(e), c) for e in range(4) for c in itertools.product(span, span)]
    grid += [
        (blowup_hirzebruch(e), c) for e in range(3) for c in itertools.product(span, span, span)
    ]
    for surface, c in grid:
        d = divisor(*c)
        h0 = _outcome(h0_oracle, surface, c)
        assert _outcome(h0_class, surface, d) == h0, (surface, d)
        rules = KIND_RULES[surface.kind]
        effective = not isinstance(h0, tuple) and h0 > 0  # a refused class counts as not
        assert rules.effective_or_zero(surface.e, c) == effective, (surface, d)
        if not isinstance(h0, tuple) and h0 > 0:  # the only classes check_a3 reaches
            marker = len(c) == 1 or c[1] >= c[0] * surface.e
            assert rules.base_point_free(surface.e, c) == marker, (surface, d)
        assert rules.positive_genus_family(surface.e, c) == family_oracle(surface, c)
        if len(c) == 3:
            for rule, refusal in blowup_refusals.items():
                assert _refusal(rule, surface, d) == refusal, (rule, surface, d)
            a1 = (UnsupportedBranchError, "condition A1 is not defined on blowup surfaces here")
            if d.is_zero:
                a1 = (ScopeError, "dim|L| = 0: conditions A1-A3 need a nonzero class")
            assert _refusal(check_a1, surface, d, divisor(1, surface.e + 1, 0)) == a1
        else:
            assert is_very_ample(surface, d) == very_ample_oracle(surface, c), (surface, d)
    for e in range(3):
        assert _refusal(default_very_ample, blowup_hirzebruch(e)) == (
            UnsupportedBranchError,
            "no very ample default is provided on blowups",
        )

    # A1 on every very ample H with small coefficients: the rows are the
    # pairing with K+H, and only G and 2G on F_1 are excepted when it is >= 0
    cases = [(P2, divisor(5), [divisor(h) for h in (1, 2)])]
    cases += [
        (
            hirzebruch(e),
            divisor(3, 3 * e + 2),
            [divisor(a, b) for a in (1, 2) for b in range(a * e + 1, a * e + 3)],
        )
        for e in range(4)
    ]
    for surface, L, amples in cases:
        assert default_very_ample(surface) == amples[0]
        for h in amples:
            kh = surface.canonical + h
            expected = []
            for sub in enumerate_effective_below(surface, L):
                value = intersect(surface, sub, kh)
                name = describe(surface, sub)
                if value < 0:
                    expected.append(f"{name}.(K+H) = {value} < 0")
                elif surface.e == 1 and len(L.coeffs) == 2 and sub.coeffs in ((1, 0), (2, 0)):
                    expected.append(f"{name}.(K+H) = {value}, allowed as a rigid section class")
                else:
                    expected.append(f"{name}.(K+H) = {value} >= 0: violation")
            assert list(check_a1(surface, L, h).details) == expected, (surface, L, h)


# ----------------------------------------------------------------- enumeration


def test_enumerate_effective_below_examples():
    assert enumerate_effective_below(P2, divisor(2)) == [divisor(1), divisor(2)]
    assert set(enumerate_effective_below(F0, divisor(1, 1))) == {
        divisor(0, 1),
        divisor(1, 0),
        divisor(1, 1),
    }
    assert set(enumerate_effective_below(F1, divisor(2, 0))) == {
        divisor(1, 0),
        divisor(2, 0),
    }


def _effective_in_scope(surface, d):
    """The zero class, or h^0 > 0 inside the verified scope (out of scope is no)."""
    try:
        return d.is_zero or h0_class(surface, d) > 0
    except ScopeError:
        return False


def _is_effective_or_raises(surface, L):
    """Whether L is effective; checks that a class the enumerator refuses is
    refused with the same error as `h0_class` (ValueError if not
    effective, ScopeError if outside the verified blowup scope)."""
    try:
        effective = h0_class(surface, L) > 0
    except ScopeError:
        with pytest.raises(ScopeError):
            enumerate_effective_below(surface, L)
        return False
    if not effective:
        with pytest.raises(ValueError, match="is not effective on"):
            enumerate_effective_below(surface, L)
    return effective


def test_enumerate_effective_below_is_sorted_and_consistent():
    for surface, L in [(P2, divisor(4)), (F0, divisor(2, 3)), (F1, divisor(2, 4))]:
        below = enumerate_effective_below(surface, L)
        assert below == sorted(below, key=lambda d: d.coeffs)
        for d in below:
            assert not d.is_zero
            assert h0_class(surface, d) > 0
            assert h0_class(surface, L - d) > 0
    # brute-force oracle: every nonzero D in a box one step wider than L with
    # D and L-D effective, on a small grid of every kind
    grids = [(P2, [range(-2, 6)])]
    grids += [(hirzebruch(e), [range(-1, 4), range(-1, 5)]) for e in range(4)]
    grids += [(blowup_hirzebruch(e), [range(-1, 3), range(0, 4), range(-2, 2)]) for e in range(4)]
    checked = 0
    for surface, ranges in grids:
        for coeffs in itertools.product(*ranges):
            L = divisor(*coeffs)
            if not _is_effective_or_raises(surface, L):
                continue
            box = itertools.product(*(range(-1, max(c, 0) + 2) for c in coeffs))
            expected = [
                divisor(*c)
                for c in box
                if any(c)
                and _effective_in_scope(surface, divisor(*c))
                and _effective_in_scope(surface, L - divisor(*c))
            ]
            assert enumerate_effective_below(surface, L) == expected, (surface, L)
            checked += 1
    assert checked > 100


def test_enumerate_effective_below_on_blowup():
    surface = blowup_hirzebruch(0)
    below = enumerate_effective_below(surface, divisor(0, 2, -1))
    assert divisor(0, 1, -1) in below  # the strict transform of the fiber
    assert divisor(0, 1, 0) in below
    assert divisor(0, 2, -1) in below
    assert divisor(0, 0, -1) not in below  # -E alone has no sections


def test_enumerate_effective_below_rejects_non_effective():
    with pytest.raises(ValueError):
        enumerate_effective_below(P2, divisor(-2))


def oracle_decompositions(surface, L):
    """Exponential-time oracle: filter raw multisets of effective classes."""
    candidates = enumerate_effective_below(surface, L)
    weight = sum(abs(c) for c in L.coeffs)
    found = set()
    for size in range(2, weight + 1):
        for combo in itertools.combinations_with_replacement(candidates, size):
            total = combo[0]
            for part in combo[1:]:
                total = total + part
            if total == L:
                found.add(tuple(sorted(p.coeffs for p in combo)))
    return found


def test_enumerate_decompositions_examples():
    assert enumerate_decompositions(P2, divisor(2)) == [
        Decomposition((divisor(1), divisor(1)))
    ]
    assert enumerate_decompositions(P2, divisor(3)) == [
        Decomposition((divisor(1), divisor(1), divisor(1))),
        Decomposition((divisor(1), divisor(2))),
    ]
    assert enumerate_decompositions(F0, divisor(0, 2)) == [
        Decomposition((divisor(0, 1), divisor(0, 1)))
    ]


def assert_in_index_order(surface, L, decs):
    """Each decomposition's part indices, taken in the sorted classes below L,
    rise lexicographically from one decomposition to the next."""
    index = {d: i for i, d in enumerate(enumerate_effective_below(surface, L))}
    keys = [tuple(index[p] for p in dec.parts) for dec in decs]
    assert all(k == tuple(sorted(k)) for k in keys), (surface.name, L)
    assert all(a < b for a, b in zip(keys, keys[1:])), (surface.name, L)


def test_enumerate_decompositions_against_oracle():
    cases = [
        (P2, divisor(4)),
        (F0, divisor(2, 2)),
        (F1, divisor(2, 2)),
        (F1, divisor(1, 3)),
        (hirzebruch(2), divisor(2, 2)),
    ]
    cases += [
        (blowup_hirzebruch(e), divisor(a, b, c))
        for e in range(3)
        for a, b in ((1, 2), (2, 2))
        for c in (0, -1)
    ]
    for surface, L in cases:
        decs = enumerate_decompositions(surface, L)
        got = {tuple(p.coeffs for p in dec.parts) for dec in decs}
        assert got == oracle_decompositions(surface, L), (surface.name, L)
        assert_in_index_order(surface, L, decs)


def test_decomposition_parts_sum_and_dedupe():
    for surface, L in [(P2, divisor(5)), (F0, divisor(2, 3))]:
        decs = enumerate_decompositions(surface, L)
        assert len(decs) == len(set(decs))
        for dec in decs:
            assert sum(dec.parts[1:], dec.parts[0]) == L
            assert len(dec.parts) >= 2
            assert all(not p.is_zero for p in dec.parts)


def brute_force_decompositions(surface, L):
    """Every multiset of >= 2 classes below L summing to L, pruned only on the
    G and F coordinates (every class below L has a positive one)."""
    candidates = enumerate_effective_below(surface, L)
    found = set()

    def walk(start, parts, total):
        if total == L.coeffs and len(parts) >= 2:
            found.add(tuple(p.coeffs for p in parts))
        for i in range(start, len(candidates)):
            step = tuple(x + y for x, y in zip(total, candidates[i].coeffs))
            if step[0] <= L.coeffs[0] and step[1] <= L.coeffs[1]:
                walk(i, parts + [candidates[i]], step)

    walk(0, [], (0,) * len(L.coeffs))
    return found


def test_enumerate_decompositions_on_blowup_with_exceptional_term():
    # the walk meets the remainder E after F-E, F-E; it is out of scope, not an error
    assert enumerate_decompositions(blowup_hirzebruch(0), divisor(0, 2, -1)) == [
        Decomposition((divisor(0, 1, -1), divisor(0, 1, 0)))
    ]


def test_blowup_decompositions_against_brute_force():
    checked = 0
    for e in (0, 1, 2):
        surface = blowup_hirzebruch(e)
        for a, b, c in itertools.product(range(4), range(5), (0, 1)):
            L = divisor(a, b, -c)
            if L.is_zero or h0_class(surface, L) == 0:
                continue
            decs = enumerate_decompositions(surface, L)
            got = {tuple(p.coeffs for p in dec.parts) for dec in decs}
            assert got == brute_force_decompositions(surface, L), (e, L)
            assert_in_index_order(surface, L, decs)
            assert isinstance(check_a2(surface, L), ConditionReport)
            assert isinstance(check_a3(surface, L), ConditionReport)
            checked += 1
    assert checked > 100


def test_decomposition_cap():
    with pytest.raises(EnumerationCapError):
        enumerate_decompositions(P2, divisor(25))
    # the cap counts absolute values
    with pytest.raises(EnumerationCapError):
        enumerate_decompositions(F0, divisor(13, 12))


def test_a2_refuses_an_over_cap_class_before_walking_its_sub_classes(monkeypatch):
    calls = []

    def counted(surface, L):
        calls.append(L)
        return enumerate_effective_below_unwrapped(surface, L)

    enumerate_effective_below_unwrapped = conditions.enumerate_effective_below
    monkeypatch.setattr(conditions, "enumerate_effective_below", counted)
    with pytest.raises(EnumerationCapError, match="exceeds the decomposition cap 24"):
        check_a2(F1, divisor(13, 12))
    assert calls == []
    # a non-effective class is refused as such, before the cap
    with pytest.raises(ValueError, match="^-30H is not effective on P2$"):
        check_a2(P2, divisor(-30))
    assert calls == []


def test_a2_walks_the_box_below_l_once(monkeypatch):
    # the decompositions and the genus rows share one walk below L; each
    # genus <= 0 class below L is walked once more, for A2(i)
    calls = []

    def counted(surface, L):
        calls.append(L)
        return enumerate_effective_below_unwrapped(surface, L)

    enumerate_effective_below_unwrapped = conditions.enumerate_effective_below
    monkeypatch.setattr(conditions, "enumerate_effective_below", counted)
    L = divisor(3, 9)
    check_a2(F1, L)
    assert calls.count(L) == 1
    below = enumerate_effective_below_unwrapped(F1, L)
    assert calls[1:] == [d for d in below if arithmetic_genus(F1, d) <= 0]
    assert len(calls) == 26


# ------------------------------------------------------------------ conditions


def test_a1_on_plane():
    for d in (3, 4, 5):
        report = check_a1(P2, divisor(d), divisor(1))
        assert report.passed
        assert report.witness is None


def test_a1_on_f1_with_section_exceptions():
    report = check_a1(F1, divisor(2, 4), divisor(1, 2))
    assert report.passed
    assert any("rigid section" in line for line in report.details)


def test_a1_on_f0():
    report = check_a1(F0, divisor(2, 2), divisor(1, 1))
    assert report.passed


def test_a1_rejects_bad_inputs():
    with pytest.raises(ValueError):
        check_a1(F0, divisor(2, 2), divisor(0, 1))  # not very ample
    with pytest.raises(UnsupportedBranchError):
        check_a1(blowup_hirzebruch(0), divisor(1, 1, -1), divisor(1, 1, 0))


def test_a1_failure_has_witness():
    # On F_1 only G and 2G are excepted: 3G pairs to zero and fails.
    report = check_a1(F1, divisor(3, 0), divisor(1, 2))
    assert not report.passed
    assert report.witness == divisor(3, 0)
    # On F_0 there are no exceptions, so with H = G+2F the class G fails.
    report = check_a1(F0, divisor(2, 0), divisor(1, 2))
    assert not report.passed
    assert report.witness == divisor(1, 0)


def test_a2_on_plane():
    report = check_a2(P2, divisor(3))
    assert report.passed
    line = next(s for s in report.details if s.startswith("{H, 2H}"))
    assert "9 <= 10" in line
    # on 2H the genus sub-check is trivially clean (all genera <= 0), even
    # though the dimension inequality itself fails for {H, H}
    report = check_a2(P2, divisor(2))
    assert "no positive-genus class sits below a genus <= 0 class" in report.details
    assert not report.passed


def test_a2_on_hirzebruch():
    assert check_a2(F0, divisor(2, 2)).passed
    assert check_a2(F1, divisor(2, 4)).passed


def test_a2_subcheck_equivalence_with_brute_force():
    cases = [
        (P2, divisor(d)) for d in range(1, 7)
    ] + [
        (F0, divisor(a, b)) for a in range(3) for b in range(4) if (a, b) != (0, 0)
    ] + [
        (F1, divisor(a, b)) for a in range(3) for b in range(4) if (a, b) != (0, 0)
    ]
    for surface, L in cases:
        below = enumerate_effective_below(surface, L)
        if len(below) > 50:
            continue
        genus = {d.coeffs: arithmetic_genus(surface, d) for d in below}
        # oracle (i): no genus <= 0 class dominates a positive-genus class
        oracle_i = True
        for d1 in below:
            for d2 in below:
                gap = d1 - d2
                if all(c >= 0 for c in gap.coeffs) and h0_class(surface, gap) > 0:
                    if genus[d1.coeffs] <= 0 < genus[d2.coeffs]:
                        oracle_i = False
        # oracle (ii): the dimension inequality over every decomposition
        bound = linear_system_dim(surface, L) + arithmetic_genus(surface, L)
        oracle_ii = all(
            sum(linear_system_dim(surface, p) for p in dec.parts)
            + sum(max(genus[p.coeffs], 0) for p in dec.parts)
            + 2
            <= bound
            for dec in enumerate_decompositions(surface, L)
        )
        assert check_a2(surface, L).passed == (oracle_i and oracle_ii)


def test_a3_examples():
    assert check_a3(P2, divisor(3)).passed
    assert check_a3(F0, divisor(2, 2)).passed
    report = check_a3(F0, divisor(0, 2))
    assert not report.passed
    assert report.witness is not None


def test_a3_tight_cases():
    # the worst splits sit exactly on the codimension-2 boundary
    report = check_a3(F0, divisor(2, 2))
    assert any("dim sum 6 <= 6" in line for line in report.details)
    report = check_a3(F1, divisor(2, 3))
    assert report.passed


def test_conditions_pass_on_all_example_classes():
    examples = (
        [(P2, divisor(d), divisor(1)) for d in (3, 4, 5)]
        + [(F0, divisor(2, n), divisor(1, 1)) for n in (2, 3, 4)]
        + [(F1, divisor(2, n), divisor(1, 2)) for n in (3, 4)]
    )
    for surface, L, ample in examples:
        assert check_a1(surface, L, ample).passed
        assert check_a2(surface, L).passed
        assert check_a3(surface, L).passed


def test_conditions_refuse_the_zero_class():
    # nothing lies below 0, so every row would pass vacuously; the refusal
    # comes before the blowup and very-ampleness refusals of A1
    message = r"^dim\|L\| = 0: conditions A1-A3 need a nonzero class$"
    for surface in (P2, F0, F1, blowup_hirzebruch(0)):
        zero = divisor(*[0] * len(surface.basis))
        for check in (
            lambda: check_a1(surface, zero, zero),
            lambda: check_a2(surface, zero),
            lambda: check_a3(surface, zero),
        ):
            with pytest.raises(ScopeError, match=message):
                check()


def test_describe_prints_classes_and_decompositions():
    assert describe(F1, divisor(2, 4)) == "2G+4F"
    assert describe(F1, Decomposition((divisor(0, 1), divisor(2, 3)))) == "{F, 2G+3F}"


def test_detail_lines_and_witnesses():
    # every kind of row, as the reports have always printed it
    F2 = hirzebruch(2)
    cases = [
        (F0, check_a1(F0, divisor(2, 0), divisor(1, 2)), "G", [
            "G.(K+H) = 0 >= 0: violation",
            "2G.(K+H) = 0 >= 0: violation",
        ]),
        (F1, check_a1(F1, divisor(2, 1), divisor(1, 2)), None, [
            "F.(K+H) = -1 < 0",
            "G.(K+H) = 0, allowed as a rigid section class",
            "G+F.(K+H) = -1 < 0",
            "2G.(K+H) = 0, allowed as a rigid section class",
            "2G+F.(K+H) = -1 < 0",
        ]),
        (F0, check_a2(F0, divisor(3, 0)), "{G, G, G}", [
            "no positive-genus class sits below a genus <= 0 class",
            "{G, G, G}: sum dims + sum max(g,0) + 2 = 5 > 1",
            "{G, 2G}: sum dims + sum max(g,0) + 2 = 5 > 1",
        ]),
        (F0, check_a3(F0, divisor(0, 2)), "2F", [
            "genus -1 < 1: no positive-genus smooth members (proxy)",
            "split {F, F}: dim sum 2 > 0",
            "multiple structure 2*(F): dim 1 > 0",
        ]),
        (F0, check_a3(F0, divisor(2, 2)), None, [
            "split {F, 2G+F}: dim sum 6 <= 6",
            "split {2F, 2G}: dim sum 4 <= 6",
            "split {G, G+2F}: dim sum 6 <= 6",
            "split {G+F, G+F}: dim sum 6 <= 6",
            "multiple structure 2*(G+F): dim 3 <= 6",
        ]),
    ]
    for surface, report, witness, lines in cases:
        assert list(report.details) == lines
        assert report.passed == (witness is None)
        if witness is None:
            assert report.witness is None
        else:
            assert describe(surface, report.witness) == witness
    report = check_a2(F2, divisor(3, 4))
    assert report.details[0] == "2G+4F (genus 1) lies below genus-0 class 3G+4F: violation"
    assert report.witness == divisor(2, 4)
    assert len(report.details) == 57


LAZY_CASES = [
    ("A1", lambda: check_a1(F1, divisor(2, 4), divisor(1, 2))),
    ("A1", lambda: check_a1(F0, divisor(2, 0), divisor(1, 2))),
    ("A2", lambda: check_a2(P2, divisor(2))),
    ("A2", lambda: check_a2(F1, divisor(2, 6))),  # 77 lines, more than the CLI shows
    ("A2", lambda: check_a2(hirzebruch(2), divisor(3, 4))),
    ("A3", lambda: check_a3(F0, divisor(2, 4))),
    ("A3", lambda: check_a3(F0, divisor(0, 2))),
]


@pytest.mark.parametrize(
    "name, run", LAZY_CASES, ids=[f"{name}-{i}" for i, (name, _) in enumerate(LAZY_CASES)]
)
def test_lazy_details_read_like_a_tuple(name, run):
    report = run()
    assert report.condition == name
    full = list(report.details)
    assert full and all(isinstance(line, str) for line in full)
    assert len(report.details) == len(full)
    assert report.details[:50] == tuple(full[:50])
    assert report.details[3:7] == tuple(full[3:7])
    assert [report.details[i] for i in range(len(full))] == full
    assert report.details[-1] == full[-1]
    assert all(line in report.details for line in full)
    assert "not a detail line" not in report.details


def test_details_render_only_when_read(monkeypatch):
    calls = []
    real = conditions.describe
    monkeypatch.setattr(conditions, "describe", lambda s, item: calls.append(item) or real(s, item))
    report = check_a2(F1, divisor(2, 6))
    assert calls == []
    assert len(report.details) == 77
    assert calls == []
    # the first line names no class; each decomposition line describes one decomposition
    report.details[:50]
    assert len(calls) == 49
    calls.clear()
    report.details[60]
    assert len(calls) == 1


# -------------------------------------------------------------------- branches


def test_classify_branch_examples():
    assert classify_branch(P2, divisor(2)) == Branch.GENUS_NONPOSITIVE
    assert classify_branch(P2, divisor(3)) == Branch.GENUS_ONE
    assert classify_branch(P2, divisor(4)) == Branch.POSITIVE_GENUS_GENERAL
    assert classify_branch(F1, divisor(2, 4)) == Branch.GENUS_TWO
    assert classify_branch(F0, divisor(2, 3)) == Branch.GENUS_TWO
    assert classify_branch(F0, divisor(2, 2)) == Branch.GENUS_ONE
    assert classify_branch(F1, divisor(2, 3)) == Branch.GENUS_ONE
    assert classify_branch(F0, divisor(2, 5)) == Branch.POSITIVE_GENUS_GENERAL
    # e outside {0, 1} is not part of the verified positive-genus families
    assert classify_branch(hirzebruch(2), divisor(2, 7)) == Branch.UNSUPPORTED


def test_classify_branch_genus_nonpositive_families():
    # plane: lines and conics
    for d in (1, 2):
        assert classify_branch(P2, divisor(d)) == Branch.GENUS_NONPOSITIVE
    # Hirzebruch: nF, nG, G+nF for any n >= 1
    for e in (0, 1, 2):
        surface = hirzebruch(e)
        for n in (1, 2, 3):
            assert classify_branch(surface, divisor(0, n)) == Branch.GENUS_NONPOSITIVE
            assert classify_branch(surface, divisor(n, 0)) == Branch.GENUS_NONPOSITIVE
            assert classify_branch(surface, divisor(1, n)) == Branch.GENUS_NONPOSITIVE


def test_classify_branch_blowup_classes():
    # the five point-decorated classes, wherever they are effective
    cases = [
        (0, divisor(0, 1, 0)),
        (0, divisor(1, 0, 0)),
        (0, divisor(0, 2, -1)),
        (0, divisor(2, 0, -1)),
        (0, divisor(1, 1, -1)),
        (1, divisor(0, 1, 0)),
        (1, divisor(1, 0, 0)),
        (1, divisor(0, 2, -1)),
        (1, divisor(1, 1, -1)),
    ]
    for e, L in cases:
        assert classify_branch(blowup_hirzebruch(e), L) == Branch.GENUS_NONPOSITIVE


def test_classify_branch_rejects_non_effective():
    with pytest.raises(ValueError):
        classify_branch(P2, divisor(-3))


def walk_positive_genus_below(surface, L):
    """The walk oracle: some class 0 < D <= L has positive genus."""
    return any(arithmetic_genus(surface, d) > 0 for d in enumerate_effective_below(surface, L))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 5),
    st.integers(-2, 11),
    st.integers(-2, 15),
    st.integers(-2, 1),
    st.integers(-2, 29),
)
def test_positive_genus_below_rule_equals_the_walk(e, a, b, k, d):
    # each kind's rule against the box walk it replaces in classify_branch; a
    # class the walk refuses (non-effective, or a blowup class out of scope)
    # is refused first, with the walk's type and message
    cases = (
        (hirzebruch(e), divisor(a, b)),
        (blowup_hirzebruch(e), divisor(a, b, k)),
        (P2, divisor(d)),
    )
    for surface, L in cases:
        refusal = _refusal(enumerate_effective_below, surface, L)
        if refusal is not None:
            assert _refusal(classify_branch, surface, L) == refusal, (surface.name, L)
            continue
        positive = walk_positive_genus_below(surface, L)
        assert KIND_RULES[surface.kind].positive_genus_below(surface.e, L.coeffs) == positive
        nonpositive = classify_branch(surface, L) is Branch.GENUS_NONPOSITIVE
        assert nonpositive == (not positive), (surface.name, L)


def test_classify_branch_never_walks_the_box(monkeypatch):
    calls = []

    def counted(surface, L):
        calls.append((surface.name, L))
        return enumerate_effective_below_unwrapped(surface, L)

    enumerate_effective_below_unwrapped = conditions.enumerate_effective_below
    monkeypatch.setattr(conditions, "enumerate_effective_below", counted)
    cases = [(P2, divisor(d)) for d in (1, 3, 4, 40)]
    for e in (0, 1, 2):
        cases += [(hirzebruch(e), divisor(a, b)) for a, b in ((1, 3), (2, 3), (2, 4), (30, 30))]
        cases += [
            (blowup_hirzebruch(e), divisor(a, b, c))
            for a, b in ((0, 2), (1, 1), (2, 4), (30, 30))
            for c in (0, -1)
        ]
    branches = {classify_branch(surface, L) for surface, L in cases}
    assert calls == []
    assert {Branch.GENUS_NONPOSITIVE, Branch.GENUS_ONE, Branch.UNSUPPORTED} <= branches

