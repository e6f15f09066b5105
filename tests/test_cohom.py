"""Cohomology tables against independent counting oracles."""

import re
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ratsurf
from ratsurf import (
    CohomologyTable,
    ScopeError,
    blowup_hirzebruch,
    cohomology_projective_space,
    cohomology_table,
    divisor,
    euler_char,
    h0_class,
    hirzebruch,
    linear_system_dim,
    projective_plane,
)

P2 = projective_plane()


@lru_cache(maxsize=None)
def count_monomials(n_vars: int, degree: int) -> int:
    """Monomial count by recursion on the first exponent (no binomials)."""
    if degree < 0:
        return 0
    if n_vars == 1:
        return 1
    return sum(count_monomials(n_vars - 1, degree - first) for first in range(degree + 1))


# ---------------------------------------------------------------------- plane


def test_plane_h0_matches_monomial_count():
    for d in range(-3, 7):
        assert cohomology_table(P2, divisor(d)).h0 == count_monomials(3, d)


def test_plane_examples():
    assert cohomology_table(P2, divisor(3)).h0 == 10
    minus_one = cohomology_table(P2, divisor(-1))
    assert (minus_one.h0, minus_one.h1, minus_one.h2) == (0, 0, 0)
    table = cohomology_table(P2, divisor(-3))
    assert (table.h0, table.h1, table.h2) == (0, 0, 1)


def test_plane_h1_vanishes_everywhere():
    for d in range(-15, 16):
        assert cohomology_table(P2, divisor(d)).h1 == 0


# ----------------------------------------------------------------- hirzebruch


def test_hirzebruch_h0_bidegree_oracle():
    # On F_0 sections of O(aG+bF) are spanned by bidegree (a, b) monomials.
    for a in range(-2, 5):
        for b in range(-2, 5):
            expected = (a + 1) * (b + 1) if a >= 0 and b >= 0 else 0
            assert cohomology_table(hirzebruch(0), divisor(a, b)).h0 == expected


def test_hirzebruch_anchors():
    assert cohomology_table(hirzebruch(1), divisor(1, 0)).h0 == 1  # the rigid section
    for e in range(4):
        for n in range(6):
            assert cohomology_table(hirzebruch(e), divisor(0, n)).h0 == n + 1  # dim |nF| = n
    assert cohomology_table(hirzebruch(0), divisor(2, 3)).h0 == 12
    assert cohomology_table(hirzebruch(0), divisor(2, 3)).h1 == 0
    assert cohomology_table(hirzebruch(0), divisor(2, 3)).h2 == 0


def test_hirzebruch_rigid_section_multiples():
    # a copies of the negative section stay rigid once e >= 1
    for e in (1, 2, 3):
        for a in range(1, 4):
            assert cohomology_table(hirzebruch(e), divisor(a, 0)).h0 == 1


@settings(max_examples=300, derandomize=True)
@given(st.integers(0, 3), st.integers(-10, 10), st.integers(-10, 10))
def test_hirzebruch_chi_and_serre(e, a, b):
    surface = hirzebruch(e)
    k = surface.canonical
    table = cohomology_table(hirzebruch(e), divisor(a, b))
    dual = cohomology_table(hirzebruch(e), divisor(k.coeffs[0] - a, k.coeffs[1] - b))
    assert table.h0 - table.h1 + table.h2 == euler_char(surface, divisor(a, b))
    assert table.h2 == dual.h0
    assert table.h1 == dual.h1
    assert table.h0 == dual.h2


def test_cohomology_table_is_the_serre_duality_rule():
    # h0 = h^0(D), h2 = h^0(K-D), chi by Riemann-Roch, h1 closes the sum
    grids = [(P2, [divisor(d) for d in range(-12, 13)])]
    for e in range(4):
        grid = [divisor(a, b) for a in range(-7, 8) for b in range(-9, 10)]
        grids.append((hirzebruch(e), grid))
    for surface, grid in grids:
        k = surface.canonical
        for d in grid:
            h0, h2, chi = h0_class(surface, d), h0_class(surface, k - d), euler_char(surface, d)
            table = cohomology_table(surface, d)
            assert table == CohomologyTable(h0, h0 + h2 - chi, h2, chi)
    for e in range(4):
        with pytest.raises(ScopeError):
            cohomology_table(blowup_hirzebruch(e), divisor(1, 1, 0))


@settings(max_examples=200, derandomize=True)
@given(st.integers(0, 3), st.integers(-8, 8), st.integers(-8, 8))
def test_h0_monotone_in_fiber_direction(e, a, b):
    surface = hirzebruch(e)
    assert cohomology_table(surface, divisor(a, b)).h0 <= cohomology_table(
        surface, divisor(a, b + 1)
    ).h0


def test_plane_chi_consistency_and_monotonicity():
    for d in range(-10, 11):
        table = cohomology_table(P2, divisor(d))
        assert table.h0 - table.h1 + table.h2 == euler_char(P2, divisor(d))
        assert table.h2 == cohomology_table(P2, divisor(-d - 3)).h0
        assert table.h0 <= cohomology_table(P2, divisor(d + 1)).h0


# ----------------------------------------------------------- projective space


def test_projective_space_stars_and_bars_oracle():
    for l in range(1, 11):
        for m in range(0, 9):
            assert cohomology_projective_space(l, m).h0 == count_monomials(l + 1, m)


def test_projective_space_examples():
    assert cohomology_projective_space(9, 2).h0 == 55
    for l in (1, 3, 9):
        assert cohomology_projective_space(l, 0).h0 == 1
    assert cohomology_projective_space(3, -4).h_top == 1
    assert cohomology_projective_space(3, -3).h_top == 0
    assert cohomology_projective_space(3, -4).h0 == 0


def test_projective_space_serre_pairing():
    # h_top(m) = h0(-m-l-1) on P^l
    for l in range(1, 8):
        for m in range(-12, 5):
            table = cohomology_projective_space(l, m)
            assert table.h_top == cohomology_projective_space(l, -m - l - 1).h0


def test_projective_space_rejects_bad_dimension():
    for m in (1, 3):
        with pytest.raises(ValueError, match="^projective space dimension must be >= 1, got 0$"):
            cohomology_projective_space(0, m)


# --------------------------------------------------------------------- blowup


def test_blowup_h0_examples():
    def h0(e, a, b, c):  # h^0 of aG+bF-cE on the blowup of F_e
        return h0_class(blowup_hirzebruch(e), divisor(a, b, -c))

    for e in (0, 1, 2):
        assert h0(e, 0, 2, 1) == 2  # pencil of fibers through the point
    assert h0(1, 1, 0, 0) == 1
    assert h0(0, 1, 1, 1) == 3
    assert h0(0, 2, 0, 1) == 2
    assert h0(1, 2, 0, 1) == 0  # the doubled rigid section misses a generic point


def test_blowup_rejects_higher_multiplicity():
    with pytest.raises(ScopeError):
        h0_class(blowup_hirzebruch(0), divisor(3, 3, -2))
    with pytest.raises(ScopeError):
        cohomology_table(blowup_hirzebruch(0), divisor(1, 1, -1))


# --------------------------------------------------------- linear system dims


def test_linear_system_dim_examples():
    assert linear_system_dim(P2, divisor(3)) == 9
    for n in range(3, 9):
        assert linear_system_dim(hirzebruch(1), divisor(2, n)) == 3 * n - 1
    for e in (0, 1):
        assert linear_system_dim(hirzebruch(e), divisor(2, e + 3)) == 11


def test_linear_system_dim_rejects_non_effective():
    with pytest.raises(ValueError):
        linear_system_dim(P2, divisor(-1))
    with pytest.raises(ValueError):
        linear_system_dim(hirzebruch(0), divisor(2, -1))


def test_surface_kinds_are_compared_in_picard_only():
    # each kind's rules are read from cohom.KIND_RULES; a table key is not a comparison
    comparison = re.compile(r"\.kind\s*(?:is\b|==|!=)")
    found = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(Path(ratsurf.__file__).parent.glob("*.py"))
        if path.name != "picard.py"
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if comparison.search(line)
    ]
    assert len(found) <= 3, found
