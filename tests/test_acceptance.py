"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the status lines.
"""

import itertools
import math
import random
import subprocess
import sys
import time

from ratsurf import (
    Branch,
    arithmetic_genus,
    check_a1,
    check_a2,
    check_a3,
    cohomology_table,
    divisor,
    DivisorClass,
    enumerate_decompositions,
    enumerate_effective_below,
    euler_char,
    euler_char_lambda,
    GradedBundle,
    h0_lambda,
    hirzebruch,
    linear_system_dim,
    moduli_dimension,
    projective_plane,
    step_failure,
    theta_context,
    theta_splitting,
    ThetaSeries,
    verify_genus2_cohomology,
    z_from_decomposition,
)

P2 = projective_plane()
F0 = hirzebruch(0)
F1 = hirzebruch(1)


def report(number: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'}")


# genus <= 0 example classes: (surface, class)
GENUS_NONPOSITIVE_CLASSES = (
    [(P2, divisor(1)), (P2, divisor(2))]
    + [(hirzebruch(e), divisor(0, n)) for e in (0, 1, 2) for n in (1, 2, 3)]
    + [(hirzebruch(e), divisor(1, n)) for e in (0, 1, 2) for n in (1, 2, 3)]
)

# positive-genus example families: plane curves of degree >= 3 and the
# two-section Hirzebruch classes within their bounds
PLANE_FAMILY = [(P2, divisor(d)) for d in (3, 4, 5)]
HIRZEBRUCH_FAMILY = [(F0, divisor(2, n)) for n in (2, 3, 4, 5)] + [
    (F1, divisor(2, n)) for n in (3, 4, 5)
]
GENUS2_CLASSES = [(F0, divisor(2, 3)), (F1, divisor(2, 4))]


def test_criterion_01_genus_nonpositive_series():
    ok = True
    for surface, L in GENUS_NONPOSITIVE_CLASSES:
        ctx = theta_context(surface, L)
        ok &= ctx.branch == Branch.GENUS_NONPOSITIVE
        for r in (1, 2, 5):
            series = ThetaSeries(ctx, r, 20).h0
            ok &= list(series.coeffs) == [math.comb(n + ctx.l, ctx.l) for n in range(21)]
    report(1, "genus <= 0 series is 1/(1-t)^(l+1)", ok)
    assert ok


def test_criterion_02_first_power_series():
    ok = True
    for surface, L in PLANE_FAMILY + HIRZEBRUCH_FAMILY:
        ctx = theta_context(surface, L)
        ok &= ctx.branch in (
            Branch.GENUS_ONE,
            Branch.GENUS_TWO,
            Branch.POSITIVE_GENUS_GENERAL,
        )
        for n in range(21):
            ok &= h0_lambda(ctx, 1, n) == math.comb(n + ctx.l, ctx.l)
    report(2, "first power gives binomial coefficients", ok)
    assert ok


def test_criterion_03_genus_one_tower():
    ctx = theta_context(P2, divisor(3))
    ok = ctx.branch == Branch.GENUS_ONE and ctx.l == 9
    for r in range(1, 11):
        # closed form built here from scratch: numerator 1 + t^2 + ... + t^r
        numerator = [1, 0] + [1] * (r - 1) if r >= 2 else [1]
        expected = [
            sum(
                numerator[k] * math.comb(n - k + 9, 9)
                for k in range(min(n, len(numerator) - 1) + 1)
            )
            for n in range(26)
        ]
        gb = theta_splitting(ctx.branch, r)
        ok &= list(z_from_decomposition(gb, ctx.l, 25).coeffs) == expected
        ok &= list(ThetaSeries(ctx, r, 25).h0.coeffs) == expected
        ok &= gb.rank == r
        stepped = GradedBundle.from_summands([*gb.summands, (-(r + 1), 1)])
        ok &= stepped == theta_splitting(ctx.branch, r + 1)
    report(3, "genus-1 tower: decomposition, closed form, rank, additivity", ok)
    assert ok


def test_criterion_04_genus_two_tower():
    ok = True
    for surface, L in GENUS2_CLASSES:
        ctx = theta_context(surface, L)
        ok &= ctx.branch == Branch.GENUS_TWO and ctx.l == 11
        for r in range(1, 21):
            gb = theta_splitting(ctx.branch, r)
            ok &= ThetaSeries(ctx, r, 40).h0 == z_from_decomposition(gb, ctx.l, 40)
            ok &= gb.rank == r * r
    ok &= step_failure(Branch.GENUS_TWO, 50) is None
    report(4, "genus-2 tower: decomposition, closed form, rank, recursion", ok)
    assert ok


def test_criterion_05_genus_two_cohomology_counts():
    ok = True
    for e in (0, 1):
        for r in range(2, 41):
            result = verify_genus2_cohomology(e, r)
            ok &= result == (r + 1, r - 2, True)
    report(5, "adjoint-power cohomology counts r+1 and r-2", ok)
    assert ok


def test_criterion_06_dimension_identities():
    ok = True
    for surface, L in PLANE_FAMILY + HIRZEBRUCH_FAMILY + GENUS2_CLASSES:
        lhs = moduli_dimension(surface, L)
        rhs = linear_system_dim(surface, L) + arithmetic_genus(surface, L)
        ok &= lhs == rhs
    for n in range(3, 13):
        L = divisor(2, n)
        total = arithmetic_genus(F1, L) + linear_system_dim(F1, L)
        ok &= total == 4 * n - 3
    report(6, "dimension identities L.L+1 = l+g and g+l = 4n-3", ok)
    assert ok


def test_criterion_07_conditions_on_example_classes():
    ok = True
    cases = [(P2, L, divisor(1)) for _, L in PLANE_FAMILY] + [
        (surface, L, divisor(1, surface.e + 1)) for surface, L in HIRZEBRUCH_FAMILY
    ]
    for surface, L, ample in cases:
        start = time.monotonic()
        ok &= check_a1(surface, L, ample).passed
        ok &= check_a2(surface, L).passed
        ok &= check_a3(surface, L).passed
        elapsed = time.monotonic() - start
        ok &= elapsed < 5.0
    report(7, "conditions A1-A3 pass on the example classes", ok)
    assert ok


def test_criterion_08_no_higher_cohomology():
    contexts = (
        [(theta_context(P2, divisor(2)), 10), (theta_context(P2, divisor(4)), 1)]
        + [(theta_context(s, L), 10) for s, L in [(P2, divisor(3)), (F0, divisor(2, 2)), (F1, divisor(2, 3))]]
        + [(theta_context(s, L), 10) for s, L in GENUS2_CLASSES]
    )
    failures = []
    for ctx, max_r in contexts:
        for r in range(1, max_r + 1):
            for n in range(21):
                chi = euler_char_lambda(ctx, r, n)
                h0 = h0_lambda(ctx, r, n)
                if chi != h0:
                    failures.append(
                        f"{ctx.surface.name} l={ctx.l} r={r} n={n}: chi={chi} h0={h0}"
                    )
    report(8, "chi of every twist equals its section count", not failures)
    assert not failures, (
        "euler characteristic differs from the section count at: "
        + "; ".join(failures)
        + " -- at power r the splitting reaches twist -r (genus 1) or -(r+1) "
        "(genus 2), and once that twist drops below -l the top cohomology on "
        "P^l is nonzero, so the blanket no-higher-cohomology claim fails for "
        "r above dim|L|; every genus-1 example class has dim|L| <= 9 < 10."
    )


def test_criterion_09_property_suites():
    ok = True
    rng = random.Random(20260810)
    for surface in (P2, F0, F1, hirzebruch(2)):
        width = len(surface.basis)
        k = surface.canonical
        for _ in range(10_000):
            d = DivisorClass(tuple(rng.randint(-12, 12) for _ in range(width)))
            table = cohomology_table(surface, d)  # validates h1 >= 0 internally
            dual = cohomology_table(surface, k - d)
            ok &= table.h2 == dual.h0
            ok &= table.h0 - table.h1 + table.h2 == euler_char(surface, d)
    # decomposition enumeration equals the exponential oracle on small classes
    small = [(P2, divisor(d)) for d in range(1, 7)] + [
        (surface, divisor(a, b))
        for surface in (F0, F1)
        for a in range(0, 7)
        for b in range(0, 7 - a)
        if (a, b) != (0, 0)
    ]
    for surface, L in small:
        got = {
            tuple(p.coeffs for p in dec.parts)
            for dec in enumerate_decompositions(surface, L)
        }
        candidates = enumerate_effective_below(surface, L)
        weight = sum(abs(c) for c in L.coeffs)
        expected = set()
        for size in range(2, weight + 1):
            for combo in itertools.combinations_with_replacement(candidates, size):
                total = combo[0]
                for part in combo[1:]:
                    total = total + part
                if total == L:
                    expected.add(tuple(sorted(p.coeffs for p in combo)))
        ok &= got == expected
    report(9, "random-class duality/chi suites and decomposition oracle", ok)
    assert ok


def test_criterion_10_unsupported_power_exits_3():
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "ratsurf.cli",
            "zseries",
            "--surface",
            "p2",
            "--class",
            "4H",
            "--r",
            "2",
        ],
        capture_output=True,
        text=True,
    )
    ok = proc.returncode == 3 and "torsion-free" in proc.stderr
    report(10, "unsupported positive-genus power exits with code 3", ok)
    assert ok, (proc.returncode, proc.stderr)
