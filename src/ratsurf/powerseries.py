"""Exact polynomials and truncated power series over Python integers.

The one nontrivial operation is expanding a rational generating function
num(t) / (1-t)^(l+1): the coefficient of t^n is

    sum_k num[k] * C(n-k+l, l)   over 0 <= k <= n.

Dividing a series by 1-t replaces its coefficients by their running sums, so
`expand_rational_gf` takes l+1 exact running-sum passes over the numerator
truncated at t^trunc; `gf_coefficient` evaluates the sum above term by term
with exact binomials and is its independent oracle.  Both stay in Python
integers, so there is no error accumulation and no truncated division.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import accumulate

__all__ = [
    "Polynomial",
    "SeriesCoefficients",
    "polynomial",
    "binom_polynomial",
    "binomial",
    "gf_coefficient",
    "expand_rational_gf",
    "format_polynomial",
]


class Polynomial(namedtuple("Polynomial", "coeffs")):
    """Integer polynomial; index = exponent, trailing zeros trimmed."""

    __slots__ = ()

    def __new__(cls, coeffs: tuple[int, ...]) -> "Polynomial":
        if coeffs and coeffs[-1] == 0:
            raise AssertionError("Polynomial coefficients carry a trailing zero; use polynomial()")
        return tuple.__new__(cls, (coeffs,))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0


def polynomial(coeffs) -> Polynomial:
    """Normalizing constructor: trims trailing zeros, accepts any iterable."""
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return Polynomial(tuple(int(c) for c in cs))


def binom_polynomial(x: int, k: int) -> int:
    """The integer-valued polynomial C(x, k) = x(x-1)...(x-k+1)/k!, any integer x."""
    if k < 0:
        raise ValueError(f"binomial order must be >= 0, got {k}")
    num = 1
    for j in range(k):
        num *= x - j
    q, r = divmod(num, math.factorial(k))
    if r:
        raise AssertionError("product of consecutive integers not divisible by k!")
    return q


def binomial(y: int, k: int) -> int:
    """binom_polynomial(y, k) by `math.comb`, via C(y, k) = (-1)^k C(k-y-1, k) if y < 0."""
    return math.comb(y, k) if y >= 0 else (-1) ** k * math.comb(k - y - 1, k)


def _check_exponent(l: int) -> None:
    if l < 0:
        raise ValueError(f"denominator exponent parameter must be >= 0, got {l}")


def gf_coefficient(numerator: Polynomial, l: int, n: int) -> int:
    """Coefficient of t^n in numerator / (1-t)^(l+1); zero for n < 0."""
    _check_exponent(l)
    if n < 0:
        return 0
    return sum(
        c * math.comb(n - k + l, l)
        for k, c in enumerate(numerator.coeffs)
        if c and k <= n
    )


class SeriesCoefficients(namedtuple("SeriesCoefficients", "trunc coeffs")):
    """Truncated series: coefficients of t^0 .. t^trunc."""

    __slots__ = ()

    def __new__(cls, trunc: int, coeffs: tuple[int, ...]) -> "SeriesCoefficients":
        if trunc < 0:
            raise ValueError(f"truncation order must be >= 0, got {trunc}")
        if len(coeffs) != trunc + 1:
            raise AssertionError(f"expected {trunc + 1} coefficients, got {len(coeffs)}")
        return tuple.__new__(cls, (trunc, coeffs))

    def __getitem__(self, n: int) -> int:
        return self.coeffs[n]


def expand_rational_gf(numerator: Polynomial, l: int, trunc: int) -> SeriesCoefficients:
    """Expand numerator / (1-t)^(l+1) through t^trunc by l+1 exact running-sum
    passes over the truncated numerator: O((l+1) * trunc) integer additions."""
    if trunc < 0:
        raise ValueError(f"truncation order must be >= 0, got {trunc}")
    _check_exponent(l)
    coeffs = [numerator[k] for k in range(trunc + 1)]
    for _ in range(l + 1):
        coeffs = list(accumulate(coeffs))
    return SeriesCoefficients(trunc, tuple(coeffs))


def format_polynomial(p: Polynomial) -> str:
    """Human-readable form, ascending powers: '1 + 3t^2 + t^4'."""
    if not p.coeffs:
        return "0"
    terms: list[str] = []
    for k, c in enumerate(p.coeffs):
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            power = "t" if k == 1 else f"t^{k}"
            body = power if mag == 1 else f"{mag}{power}"
        if not terms:
            terms.append(body if c > 0 else f"-{body}")
        else:
            terms.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(terms)
