"""Lattice arithmetic: intersection form, canonical classes, genus, chi."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratsurf import (
    ClassParseError,
    DivisorClass,
    SheafClass,
    arithmetic_genus,
    blowup_hirzebruch,
    divisor,
    euler_char,
    euler_pairing,
    format_divisor,
    hirzebruch,
    intersect,
    moduli_dimension,
    parse_divisor,
    projective_plane,
    surface_from_name,
)

P2 = projective_plane()
F0 = hirzebruch(0)
F1 = hirzebruch(1)


def all_surfaces():
    return [P2, F0, F1, hirzebruch(2), blowup_hirzebruch(0), blowup_hirzebruch(1)]


# ---------------------------------------------------------------- intersection


def test_gram_matrices_are_symmetric():
    for surface in all_surfaces():
        n = len(surface.basis)
        for i in range(n):
            for j in range(n):
                assert surface.gram[i][j] == surface.gram[j][i]


def test_intersection_examples():
    assert intersect(F1, divisor(1, 0), divisor(1, 0)) == -1  # G.G = -e
    for e in range(4):
        assert intersect(hirzebruch(e), divisor(0, 1), divisor(0, 1)) == 0  # F.F
        assert intersect(hirzebruch(e), divisor(1, 0), divisor(0, 1)) == 1  # G.F
    assert intersect(P2, divisor(3), divisor(3)) == 9


def test_blowup_gram_entries():
    surface = blowup_hirzebruch(1)
    g, f, e = divisor(1, 0, 0), divisor(0, 1, 0), divisor(0, 0, 1)
    assert intersect(surface, g, g) == -1
    assert intersect(surface, f, f) == 0
    assert intersect(surface, g, f) == 1
    assert intersect(surface, e, e) == -1
    assert intersect(surface, e, g) == 0
    assert intersect(surface, e, f) == 0


def test_intersect_rejects_dimension_mismatch():
    with pytest.raises(ClassParseError):
        intersect(P2, divisor(1, 2), divisor(1))
    with pytest.raises(ClassParseError, match="different lattices"):
        divisor(1) + divisor(1, 2)
    # classes scale by integers only
    assert 3 * divisor(1, 2) == divisor(3, 6)
    with pytest.raises(TypeError):
        2.5 * divisor(1, 2)


@settings(max_examples=200, derandomize=True)
@given(
    st.sampled_from(["p2", "f0", "f1", "f2", "f0b", "f1b"]),
    st.lists(st.integers(-20, 20), min_size=3, max_size=3),
    st.lists(st.integers(-20, 20), min_size=3, max_size=3),
    st.lists(st.integers(-20, 20), min_size=3, max_size=3),
    st.integers(-20, 20),
    st.integers(-20, 20),
)
def test_intersect_symmetric_and_bilinear(name, c1, c2, c3, s, t):
    surface = surface_from_name(name)
    n = len(surface.basis)
    d1, d2, d3 = (DivisorClass(tuple(c[:n])) for c in (c1, c2, c3))
    assert intersect(surface, d1, d2) == intersect(surface, d2, d1)
    lhs = intersect(surface, s * d1 + t * d2, d3)
    rhs = s * intersect(surface, d1, d3) + t * intersect(surface, d2, d3)
    assert lhs == rhs


# ------------------------------------------------------------ canonical class


def test_canonical_class_values():
    assert P2.canonical == divisor(-3)
    assert F0.canonical == divisor(-2, -2)
    assert F1.canonical == divisor(-2, -3)
    assert blowup_hirzebruch(1).canonical == divisor(-2, -3, 1)


def test_canonical_class_oracle_hirzebruch():
    # K = xG + yF is pinned down by the fiber and the section being rational:
    # F.(F+K) = -2 forces x = -2, and G.(G+K) = -2 then forces y.
    for e in range(5):
        surface = hirzebruch(e)
        g, f = divisor(1, 0), divisor(0, 1)
        solutions = [
            divisor(x, y)
            for x in range(-6, 7)
            for y in range(-6, 7)
            if intersect(surface, f, f + divisor(x, y)) == -2
            and intersect(surface, g, g + divisor(x, y)) == -2
        ]
        assert solutions == [surface.canonical]


def test_canonical_class_oracle_blowup():
    # On the blowup, rationality of F, G and E pins all three coefficients.
    for e in range(3):
        surface = blowup_hirzebruch(e)
        curves = [divisor(1, 0, 0), divisor(0, 1, 0), divisor(0, 0, 1)]
        solutions = [
            divisor(x, y, z)
            for x in range(-6, 7)
            for y in range(-6, 7)
            for z in range(-3, 4)
            if all(intersect(surface, c, c + divisor(x, y, z)) == -2 for c in curves)
        ]
        assert solutions == [surface.canonical]


def test_canonical_self_intersection():
    # K.K = 9 on the plane, 8 on any F_e, 7 on a one-point blowup
    assert intersect(P2, P2.canonical, P2.canonical) == 9
    for e in range(4):
        s = hirzebruch(e)
        assert intersect(s, s.canonical, s.canonical) == 8
        b = blowup_hirzebruch(e)
        assert intersect(b, b.canonical, b.canonical) == 7


# ----------------------------------------------------------------------- genus


def test_genus_degree_genus_oracle_on_plane():
    for d in range(0, 9):
        assert arithmetic_genus(P2, divisor(d)) == (d - 1) * (d - 2) // 2


def test_genus_examples():
    for e in (0, 1):
        assert arithmetic_genus(hirzebruch(e), divisor(2, e + 3)) == 2
    assert arithmetic_genus(P2, divisor(3)) == 1
    for e in (0, 1, 2):
        for n in range(5):
            assert arithmetic_genus(hirzebruch(e), divisor(0, n)) == 1 - n


def test_genus_of_small_blowup_classes():
    # pullback fiber, pullback section, and the point-decorated classes
    for e in (0, 1):
        surface = blowup_hirzebruch(e)
        assert arithmetic_genus(surface, divisor(0, 1, 0)) == 0
        assert arithmetic_genus(surface, divisor(1, 0, 0)) == 0
        assert arithmetic_genus(surface, divisor(0, 2, -1)) == -1
        assert arithmetic_genus(surface, divisor(2, 0, -1)) == -1 - e
        assert arithmetic_genus(surface, divisor(1, 1, -1)) == 0


# ------------------------------------------------------------------------ chi


def test_euler_char_anchors():
    for e in (0, 1):
        surface = hirzebruch(e)
        assert euler_char(surface, -divisor(2, e + 2)) == 1  # anticanonical class
        assert euler_char(surface, -divisor(2, e + 3)) == 2  # the genus-2 class
    assert euler_char(P2, divisor(0)) == 1


def test_euler_char_plane_oracle():
    # chi(dH) = number of degree-d monomials in 3 variables for d >= 0
    for d in range(10):
        assert euler_char(P2, divisor(d)) == (d + 1) * (d + 2) // 2


@settings(max_examples=200, derandomize=True)
@given(
    st.sampled_from(["p2", "f0", "f1", "f2", "f0b", "f1b"]),
    st.lists(st.integers(-20, 20), min_size=3, max_size=3),
)
def test_riemann_roch_identities(name, coeffs):
    surface = surface_from_name(name)
    d = DivisorClass(tuple(coeffs[: len(surface.basis)]))
    k = surface.canonical
    # Serre symmetry of the Euler characteristic
    assert euler_char(surface, d) == euler_char(surface, k - d)
    # the moduli dimension identity is an algebraic identity of the
    # Riemann-Roch polynomial, valid for every class
    lhs = moduli_dimension(surface, d)
    rhs = (euler_char(surface, d) - 1) + arithmetic_genus(surface, d)
    assert lhs == rhs


# -------------------------------------------------------------- euler pairing


def test_pairing_orthogonality_of_point_classes():
    cases = [
        (P2, divisor(3)),
        (F0, divisor(2, 3)),
        (F1, divisor(2, 4)),
    ]
    for surface, L in cases:
        u = SheafClass(0, L, 0)
        for r in range(1, 11):
            for n in range(11):
                c = SheafClass(r, parse_divisor(surface, "0"), r - n)
                assert euler_pairing(surface, u, c) == 0


def test_pairing_examples():
    u = SheafClass(0, divisor(3), 0)
    c = SheafClass(1, divisor(1), 0)
    assert euler_pairing(P2, u, c) == 3
    u5 = SheafClass(0, divisor(2, 3), 5)
    assert euler_pairing(F0, u5, SheafClass(2, divisor(0, 0), 0)) == 10


def test_pairing_rejects_positive_rank_first_argument():
    message = "^Euler pairing implemented only for rank-zero first argument, got rank 1$"
    with pytest.raises(ClassParseError, match=message):
        euler_pairing(P2, SheafClass(1, divisor(1), 0), SheafClass(1, divisor(1), 0))


# ------------------------------------------------------------------ dimensions


def test_moduli_dimension_examples():
    assert moduli_dimension(P2, divisor(3)) == 10
    assert moduli_dimension(P2, divisor(1)) == 2
    for n in range(3, 13):
        assert moduli_dimension(F1, divisor(2, n)) == 4 * n - 3


# ------------------------------------------------------------- string formats


def test_parse_and_format_round_trip():
    cases = [
        (P2, "3H", (3,)),
        (P2, "-2H", (-2,)),
        (P2, "H", (1,)),
        (P2, "0", (0,)),
        (F1, "2G+4F", (2, 4)),
        (F1, "G", (1, 0)),
        (F0, "-G+3F", (-1, 3)),
        (F0, "2G-F", (2, -1)),
        (blowup_hirzebruch(1), "2F-E", (0, 2, -1)),
        (blowup_hirzebruch(0), "G+F-E", (1, 1, -1)),
        (blowup_hirzebruch(0), "E", (0, 0, 1)),
    ]
    for surface, text, coeffs in cases:
        parsed = parse_divisor(surface, text)
        assert parsed.coeffs == coeffs
        assert format_divisor(surface, parsed) == text


def test_parse_rejects_malformed_input():
    for surface, text in [
        (P2, "3G"),
        (P2, ""),
        (P2, "2H+H"),
        (F1, "2G++F"),
        (F1, "2G+4F+junk"),
        (F1, "1.5G"),
    ]:
        with pytest.raises(ClassParseError):
            parse_divisor(surface, text)


def test_surface_data_of_every_kind():
    cases = [("p2", "P2", "projective plane", divisor(-3))]
    for e in range(4):
        cases += [
            (f"f{e}", f"F{e}", f"Hirzebruch surface F_{e}", divisor(-2, -(e + 2))),
            (f"f{e}b", f"F{e}b", f"blowup of F_{e} at a generic point", divisor(-2, -(e + 2), 1)),
        ]
    surfaces = []
    for text, name, description, k in cases:
        surface = surface_from_name(text)
        assert surface.name == name
        assert surface.description == description
        assert repr(surface) == f"Surface({name})"
        assert surface.canonical == k
        surfaces.append(surface)
    # equal exactly when the same name resolves to them, also past the cache
    for s1 in surfaces:
        for s2 in surfaces:
            assert (s1 == s2) == (s1.name == s2.name)
    for e in range(4):
        assert hirzebruch.__wrapped__(e) == hirzebruch(e)
        assert hash(blowup_hirzebruch.__wrapped__(e)) == hash(blowup_hirzebruch(e))
    assert projective_plane.__wrapped__() == P2


def test_surface_names_round_trip():
    for name in ["p2", "f0", "f1", "f7", "f0b", "f2b"]:
        assert surface_from_name(name).name.lower() == name.replace("p2", "p2")
    with pytest.raises(ClassParseError):
        surface_from_name("f-1")
    for make in (hirzebruch, blowup_hirzebruch):
        with pytest.raises(ClassParseError, match="must be >= 0, got -1"):
            make(-1)
