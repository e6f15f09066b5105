"""Effectivity, decomposition enumeration, the A1-A3 conditions, branches."""

import itertools

import pytest

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
    conditions,
    describe,
    divisor,
    enumerate_decompositions,
    enumerate_effective_below,
    arithmetic_genus,
    hirzebruch,
    is_effective,
    linear_system_dim,
    projective_plane,
)

P2 = projective_plane()
F0 = hirzebruch(0)
F1 = hirzebruch(1)


# ----------------------------------------------------------------- effectivity


def test_is_effective_examples():
    assert is_effective(F1, divisor(1, 0))
    assert not is_effective(P2, divisor(-1))
    assert not is_effective(F0, divisor(2, -1))
    assert is_effective(P2, divisor(0))  # the zero class has a section
    assert is_effective(blowup_hirzebruch(0), divisor(1, 1, -1))
    assert not is_effective(blowup_hirzebruch(1), divisor(2, 0, -1))


def test_is_effective_agrees_with_section_count():
    from ratsurf import h0_class

    for d in range(-6, 7):
        assert is_effective(P2, divisor(d)) == (h0_class(P2, divisor(d)) > 0)
    for e in (0, 1, 2, 3):
        surface = hirzebruch(e)
        for a in range(-4, 5):
            for b in range(-4, 5):
                got = is_effective(surface, divisor(a, b))
                assert got == (h0_class(surface, divisor(a, b)) > 0)


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


def test_enumerate_effective_below_is_sorted_and_consistent():
    for surface, L in [(P2, divisor(4)), (F0, divisor(2, 3)), (F1, divisor(2, 4))]:
        below = enumerate_effective_below(surface, L)
        assert below == sorted(below, key=lambda d: d.coeffs)
        for d in below:
            assert not d.is_zero
            assert is_effective(surface, d)
            assert is_effective(surface, L - d)


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


def test_enumerate_decompositions_against_oracle():
    cases = [
        (P2, divisor(4)),
        (F0, divisor(2, 2)),
        (F1, divisor(2, 2)),
        (F1, divisor(1, 3)),
        (hirzebruch(2), divisor(2, 2)),
    ]
    for surface, L in cases:
        got = {tuple(p.coeffs for p in dec.parts) for dec in enumerate_decompositions(surface, L)}
        assert got == oracle_decompositions(surface, L)


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
            if L.is_zero or not is_effective(surface, L):
                continue
            decs = enumerate_decompositions(surface, L)
            got = {tuple(p.coeffs for p in dec.parts) for dec in decs}
            assert got == brute_force_decompositions(surface, L), (e, L)
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
                if all(c >= 0 for c in gap.coeffs) and is_effective(surface, gap):
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
