"""Exact polynomial and rational-series arithmetic."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratsurf import (
    binom_polynomial,
    binomial,
    expand_rational_gf,
    format_polynomial,
    gf_coefficient,
    polynomial,
)


def poly_mul(p, q):
    """Convolution product, degrees add: the oracle for series products below."""
    if not p.coeffs or not q.coeffs:
        return polynomial([])
    out = [0] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return polynomial(out)


def test_poly_mul_examples():
    assert poly_mul(polynomial([1, 1]), polynomial([1, -1])) == polynomial([1, 0, -1])
    assert poly_mul(polynomial([1, 0, 1]), polynomial([1])) == polynomial([1, 0, 1])
    assert poly_mul(polynomial([1, 0, 3]), polynomial([1, 1])) == polynomial([1, 1, 3, 3])
    assert poly_mul(polynomial([]), polynomial([5, 7])) == polynomial([])


def test_polynomial_normalization_and_degree():
    assert polynomial([1, 2, 0, 0]).coeffs == (1, 2)
    assert polynomial([]).degree == -1
    assert polynomial([0]).degree == -1
    assert polynomial([0, 0, 7]).degree == 2


def test_binom_examples():
    # gf_coefficient takes its binomials from math.comb
    assert math.comb(11, 9) == 55
    assert math.comb(3, 0) == 1
    assert math.comb(2, 5) == 0
    with pytest.raises(ValueError):
        math.comb(-1, 2)


def test_binom_polynomial_matches_comb_for_nonnegative():
    for x in range(0, 20):
        for k in range(0, 8):
            assert binom_polynomial(x, k) == math.comb(x, k)


def test_binom_polynomial_negative_arguments():
    # C(-1, k) = (-1)^k, and C(x, k) = (-1)^k C(k-x-1, k) for x < 0
    for k in range(0, 8):
        assert binom_polynomial(-1, k) == (-1) ** k
    for x in range(-10, 0):
        for k in range(0, 8):
            assert binom_polynomial(x, k) == (-1) ** k * math.comb(k - x - 1, k)


def test_binom_polynomial_vanishes_in_the_gap():
    # zeros exactly at x = 0 .. k-1
    for k in range(1, 7):
        for x in range(0, k):
            assert binom_polynomial(x, k) == 0


def test_binomial_is_binom_polynomial():
    # the chi seed's binomial, on both sides of zero and through the gap; below
    # zero by upper negation (Concrete Mathematics, eq. 5.14)
    for y in range(-60, 60):
        for k in range(25):
            assert binomial(y, k) == binom_polynomial(y, k)


def test_expand_examples():
    assert expand_rational_gf(polynomial([1]), 2, 3).coeffs == (1, 3, 6, 10)
    assert expand_rational_gf(polynomial([1, 0, 1]), 9, 2).coeffs == (1, 10, 56)
    assert expand_rational_gf(polynomial([]), 5, 4).coeffs == (0, 0, 0, 0, 0)


def test_expand_against_truncated_division_oracle():
    # multiplying the expansion back by (1-t)^(l+1) must return the numerator
    for num in [polynomial([1]), polynomial([1, 0, 3, 4, 1]), polynomial([2, -1, 5])]:
        for l in (0, 1, 3, 6):
            trunc = 25
            series = expand_rational_gf(num, l, trunc)
            # (1-t)^(l+1) by repeated convolution
            denom = polynomial([1])
            for _ in range(l + 1):
                denom = poly_mul(denom, polynomial([1, -1]))
            product = [
                sum(denom[k] * series[n - k] for k in range(0, min(n, denom.degree) + 1))
                for n in range(trunc + 1)
            ]
            expected = [num[n] for n in range(trunc + 1)]
            assert product == expected


def test_expand_stars_and_bars():
    for l in range(0, 8):
        series = expand_rational_gf(polynomial([1]), l, 20)
        for n in range(21):
            assert series[n] == math.comb(n + l, l)


@settings(max_examples=100, derandomize=True)
@given(
    st.lists(st.integers(-5, 5), min_size=0, max_size=5),
    st.lists(st.integers(-5, 5), min_size=0, max_size=5),
    st.integers(0, 6),
)
def test_expand_respects_numerator_products(p_coeffs, q_coeffs, l):
    # expand(p*q) equals the convolution of expand(p) with q
    p, q = polynomial(p_coeffs), polynomial(q_coeffs)
    trunc = 12
    combined = expand_rational_gf(poly_mul(p, q), l, trunc)
    base = expand_rational_gf(p, l, trunc)
    convolved = [
        sum(q[k] * base[n - k] for k in range(0, min(n, max(q.degree, 0)) + 1))
        for n in range(trunc + 1)
    ]
    assert list(combined.coeffs) == convolved


@settings(max_examples=100, derandomize=True)
@given(st.lists(st.integers(0, 9), min_size=1, max_size=6), st.integers(0, 8))
def test_nonnegative_numerators_give_nonnegative_series(coeffs, l):
    series = expand_rational_gf(polynomial(coeffs), l, 15)
    assert all(c >= 0 for c in series.coeffs)


def test_gf_coefficient_matches_expansion():
    # gf_coefficient, term by term, is the oracle for the running sums:
    # numerator degree above, equal to and below trunc; l = 0; the zero numerator
    for num in (polynomial([1, 0, 3, 4, 1]), polynomial([3, 0, -2, 5, 1, 0, 7]), polynomial([])):
        for l in (0, 1, 4, 11):
            for trunc in (0, 1, num.degree, num.degree + 1, 30):
                if trunc < 0:
                    continue
                series = expand_rational_gf(num, l, trunc)
                for n in range(trunc + 1):
                    assert gf_coefficient(num, l, n) == series[n], (num, l, trunc, n)
    assert gf_coefficient(polynomial([1, 0, 3, 4, 1]), 11, -3) == 0


def test_expand_refuses_negative_orders():
    num = polynomial([1, 2])
    with pytest.raises(ValueError, match="denominator exponent parameter must be >= 0"):
        expand_rational_gf(num, -1, 5)
    with pytest.raises(ValueError, match="truncation order must be >= 0"):
        expand_rational_gf(num, 3, -1)
    with pytest.raises(ValueError, match="truncation order must be >= 0"):
        expand_rational_gf(num, -1, -1)
    with pytest.raises(ValueError, match="denominator exponent parameter must be >= 0"):
        gf_coefficient(num, -1, 2)
    with pytest.raises(ValueError, match="^binomial order must be >= 0, got -1$"):
        binom_polynomial(5, -1)


def test_format_polynomial():
    assert format_polynomial(polynomial([1, 0, 3, 0, 1])) == "1 + 3t^2 + t^4"
    assert format_polynomial(polynomial([])) == "0"
    assert format_polynomial(polynomial([0, 1])) == "t"
    assert format_polynomial(polynomial([-1, 2])) == "-1 + 2t"
