"""Picard-lattice arithmetic for the rational surfaces this library supports.

Supported surfaces and their fixed bases:

* the projective plane, basis ``(H,)`` with H.H = 1;
* the Hirzebruch surface F_e (the P^1-bundle over P^1 carrying a section of
  self-intersection -e), basis ``(G, F)`` with G.G = -e, G.F = 1, F.F = 0;
* the blowup of F_e at one generic point, basis ``(G, F, E)`` where G and F
  are pulled back from F_e and E is the exceptional curve, E.E = -1,
  E.G = E.F = 0.

Divisor classes are integer vectors in these bases, and everything here is
exact integer arithmetic: the intersection pairing, the canonical class, the
adjunction genus g(D) = 1 + D.(D+K)/2, the Riemann-Roch Euler characteristic
chi(D) = chi(O) + D.(D-K)/2 with chi(O) = 1 on every supported surface, and
the Euler pairing between a dimension-one sheaf class and an arbitrary one.

Canonical classes: K = -3H on the plane and K = -2G-(e+2)F on F_e (the
unique class giving genus 0 for both the fiber and the section); on the
blowup K is the pullback plus E.

Each kind's data (basis, Gram matrix, name, description and canonical
class) is set once, by its constructor `projective_plane`, `hirzebruch` or
`blowup_hirzebruch`, and stored on the `Surface` named tuple.  Each kind's
numeric rules (h^0, effectivity, very ampleness, A1's rigid classes, the
base-point-free marker, the positive-genus family and whether a positive-genus
class lies below L) are written once, in `cohom.KIND_RULES`; the conditions
A1-A3 live in `conditions`.

Divisor classes print to and parse from the strings ``dH`` (plane),
``aG+bF`` (Hirzebruch) and ``aG+bF-cE`` (blowup), with zero terms omitted.
"""

from __future__ import annotations

import re
from collections import namedtuple
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

from .errors import ClassParseError

__all__ = [
    "SurfaceKind",
    "Surface",
    "DivisorClass",
    "SheafClass",
    "projective_plane",
    "hirzebruch",
    "blowup_hirzebruch",
    "surface_from_name",
    "divisor",
    "intersect",
    "arithmetic_genus",
    "euler_char",
    "euler_pairing",
    "moduli_dimension",
    "parse_divisor",
    "format_divisor",
]


class SurfaceKind(Enum):
    """The three surface families; `cohom.KIND_RULES` holds each one's numeric rules."""

    PROJECTIVE_PLANE = "projective-plane"
    HIRZEBRUCH = "hirzebruch"
    BLOWUP_HIRZEBRUCH = "blowup-hirzebruch"


class DivisorClass(namedtuple("DivisorClass", "coeffs")):
    """Integer coefficient vector in the ambient surface's basis."""

    __slots__ = ()

    def __new__(cls, coeffs: tuple[int, ...]) -> "DivisorClass":
        for c in coeffs:
            if not isinstance(c, int):
                raise ClassParseError(f"divisor coefficients must be integers: {coeffs!r}")
        return tuple.__new__(cls, (coeffs,))

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def _check_compatible(self, other: "DivisorClass") -> None:
        if len(self.coeffs) != len(other.coeffs):
            raise ClassParseError(
                f"divisor classes live in different lattices: {self.coeffs} vs {other.coeffs}"
            )

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        self._check_compatible(other)
        return DivisorClass(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        self._check_compatible(other)
        return DivisorClass(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(tuple(-a for a in self.coeffs))

    def __rmul__(self, scalar: int) -> "DivisorClass":
        if not isinstance(scalar, int):
            return NotImplemented
        return DivisorClass(tuple(scalar * a for a in self.coeffs))

    def __repr__(self) -> str:
        return f"DivisorClass{self.coeffs}"


def divisor(*coeffs: int) -> DivisorClass:
    """Shorthand constructor: divisor(2, 3) is the class 2G+3F."""
    return DivisorClass(tuple(coeffs))


class Surface(NamedTuple):
    """A supported rational surface: its Picard basis and Gram matrix, and the
    name, description and canonical class its constructor gives it."""

    kind: SurfaceKind
    e: int
    basis: tuple[str, ...]
    gram: tuple[tuple[int, ...], ...]
    name: str
    description: str
    canonical: DivisorClass

    def __repr__(self) -> str:
        return f"Surface({self.name})"


@lru_cache(maxsize=None)
def projective_plane() -> Surface:
    """P^2 with basis (H,), H.H = 1 and K = -3H."""
    return Surface(
        SurfaceKind.PROJECTIVE_PLANE, 0, ("H",), ((1,),), "P2", "projective plane",
        DivisorClass((-3,)),
    )


@lru_cache(maxsize=None)
def hirzebruch(e: int) -> Surface:
    """F_e with basis (G, F), G.G = -e, G.F = 1, F.F = 0 and K = -2G-(e+2)F."""
    if e < 0:
        raise ClassParseError(f"Hirzebruch parameter must be >= 0, got {e}")
    return Surface(
        SurfaceKind.HIRZEBRUCH, e, ("G", "F"), ((-e, 1), (1, 0)), f"F{e}",
        f"Hirzebruch surface F_{e}", DivisorClass((-2, -(e + 2))),
    )


@lru_cache(maxsize=None)
def blowup_hirzebruch(e: int) -> Surface:
    """F_e blown up at a generic point, basis (G, F, E), E.E = -1 and K = -2G-(e+2)F+E."""
    if e < 0:
        raise ClassParseError(f"Hirzebruch parameter must be >= 0, got {e}")
    gram = ((-e, 1, 0), (1, 0, 0), (0, 0, -1))
    return Surface(
        SurfaceKind.BLOWUP_HIRZEBRUCH, e, ("G", "F", "E"), gram, f"F{e}b",
        f"blowup of F_{e} at a generic point", DivisorClass((-2, -(e + 2), 1)),
    )


_SURFACE_NAME_RE = re.compile(r"^f(\d+)(b?)$")


def surface_from_name(text: str) -> Surface:
    """Resolve 'p2', 'f<e>' or 'f<e>b' (blown-up F_e) to a surface."""
    name = text.strip().lower()
    if name == "p2":
        return projective_plane()
    m = _SURFACE_NAME_RE.match(name)
    if m:
        e = int(m.group(1))
        return blowup_hirzebruch(e) if m.group(2) else hirzebruch(e)
    raise ClassParseError(f"unknown surface {text!r} (expected p2, f<e> or f<e>b)")


class SheafClass(namedtuple("SheafClass", "rank c1 chi")):
    """Numerical class of a coherent sheaf: (rank, first Chern class, chi)."""

    __slots__ = ()

    def __new__(cls, rank: int, c1: DivisorClass, chi: int) -> "SheafClass":
        if rank < 0:
            raise ClassParseError(f"sheaf rank must be >= 0, got {rank}")
        return tuple.__new__(cls, (rank, c1, chi))


def _check_class(surface: Surface, d: DivisorClass) -> None:
    if len(d.coeffs) != len(surface.basis):
        raise ClassParseError(
            f"class of length {len(d.coeffs)} does not match the {surface.name} "
            f"basis {surface.basis}"
        )


def intersect(surface: Surface, d1: DivisorClass, d2: DivisorClass) -> int:
    """Intersection number D1.D2 of two divisor classes (symmetric, bilinear)."""
    _check_class(surface, d1)
    _check_class(surface, d2)
    return sum(
        a * surface.gram[i][j] * b
        for i, a in enumerate(d1.coeffs)
        for j, b in enumerate(d2.coeffs)
        if a and b
    )


def _half(n: int) -> int:
    # the adjunction / Riemann-Roch pairings below are always even
    q, r = divmod(n, 2)
    if r:
        raise AssertionError(f"expected an even intersection number, got {n}")
    return q


def arithmetic_genus(surface: Surface, L: DivisorClass) -> int:
    """Adjunction genus of curves in |L|: g = 1 + L.(L+K)/2."""
    return 1 + _half(intersect(surface, L, L + surface.canonical))


def euler_char(surface: Surface, d: DivisorClass) -> int:
    """Riemann-Roch Euler characteristic chi(O(D)) = 1 + D.(D-K)/2."""
    return 1 + _half(intersect(surface, d, d - surface.canonical))


def euler_pairing(surface: Surface, u: SheafClass, c: SheafClass) -> int:
    """Euler pairing chi(u (x) c) for u of rank zero with one-dimensional support.

    For u = (0, L, chi(u)) and c = (s, D, *) Riemann-Roch gives
    chi(u (x) c) = s*chi(u) + D.L; the classes are orthogonal exactly when
    this vanishes.  Only the rank-zero side is implemented.
    """
    if u.rank != 0:
        raise ClassParseError(
            f"Euler pairing implemented only for rank-zero first argument, got rank {u.rank}"
        )
    return c.rank * u.chi + intersect(surface, c.c1, u.c1)


def moduli_dimension(surface: Surface, L: DivisorClass) -> int:
    """Dimension L.L+1 of the (stable locus of the) moduli space over |L|.

    Equals dim|L| + g(L) whenever h^1(L) = h^2(L) = 0; the unconditional
    algebraic identity is L.L+1 = (chi(L)-1) + g(L).
    """
    return intersect(surface, L, L) + 1


_TERM_RE = re.compile(r"([+-]?)(\d*)([A-Za-z])")


def parse_divisor(surface: Surface, text: str) -> DivisorClass:
    """Parse 'dH', 'aG+bF' or 'aG+bF-cE' into a divisor class.

    Coefficients are integers, zero terms may be omitted, and each basis
    generator may appear at most once.  '0' denotes the zero class.
    """
    s = text.replace(" ", "")
    if not s:
        raise ClassParseError("empty divisor-class string")
    if s == "0":
        return DivisorClass((0,) * len(surface.basis))
    coeffs = [0] * len(surface.basis)
    index = {g: i for i, g in enumerate(surface.basis)}
    seen: set[str] = set()
    pos = 0
    for m in _TERM_RE.finditer(s):
        if m.start() != pos:
            raise ClassParseError(f"cannot parse divisor class {text!r}")
        sign, digits, gen = m.groups()
        if gen not in index:
            raise ClassParseError(
                f"generator {gen!r} is not in the {surface.name} basis {surface.basis}"
            )
        if gen in seen:
            raise ClassParseError(f"generator {gen!r} repeated in {text!r}")
        seen.add(gen)
        value = int(digits) if digits else 1
        coeffs[index[gen]] = -value if sign == "-" else value
        pos = m.end()
    if pos != len(s):
        raise ClassParseError(f"cannot parse divisor class {text!r}")
    return DivisorClass(tuple(coeffs))


def format_divisor(surface: Surface, d: DivisorClass) -> str:
    """Inverse of parse_divisor; the zero class prints as '0'."""
    _check_class(surface, d)
    parts: list[tuple[str, str]] = []
    for coeff, gen in zip(d.coeffs, surface.basis):
        if coeff == 0:
            continue
        magnitude = abs(coeff)
        body = gen if magnitude == 1 else f"{magnitude}{gen}"
        parts.append(("-" if coeff < 0 else "+", body))
    if not parts:
        return "0"
    head_sign, head = parts[0]
    out = ("-" if head_sign == "-" else "") + head
    for sign, body in parts[1:]:
        out += sign + body
    return out
