"""Tour of the Picard lattices: intersection numbers, canonical classes,
genus and Euler characteristics on the supported surfaces."""

from ratsurf import (
    arithmetic_genus,
    blowup_hirzebruch,
    divisor,
    euler_char,
    format_divisor,
    hirzebruch,
    intersect,
    moduli_dimension,
    projective_plane,
)

p2 = projective_plane()
f1 = hirzebruch(1)
f1b = blowup_hirzebruch(1)

print("== bases and canonical classes ==")
for surface in (p2, hirzebruch(0), f1, f1b):
    k = surface.canonical
    print(
        f"{surface.name:5s} basis {surface.basis}   "
        f"K = {format_divisor(surface, k)}   K.K = {intersect(surface, k, k)}"
    )

# The section class G on F_1 is the rigid curve with negative self-intersection.
print("\n== intersection numbers on F_1 ==")
G, F = divisor(1, 0), divisor(0, 1)
print(f"G.G = {intersect(f1, G, G)},  G.F = {intersect(f1, G, F)},  F.F = {intersect(f1, F, F)}")

# Adjunction: plane curves of degree d have genus (d-1)(d-2)/2.
print("\n== genus of plane curves ==")
for d in range(1, 7):
    print(f"degree {d}: genus {arithmetic_genus(p2, divisor(d))}")

# The classes 2G+(e+3)F on F_0 and F_1 carry the genus-2 pencils.
print("\n== the genus-2 classes ==")
for e in (0, 1):
    surface = hirzebruch(e)
    L = divisor(2, e + 3)
    print(
        f"{surface.name}: L = {format_divisor(surface, L)}  "
        f"g = {arithmetic_genus(surface, L)}  chi(-L) = {euler_char(surface, -L)}"
    )

# L.L + 1 equals (chi(L) - 1) + g(L) for every class: an identity of the
# Riemann-Roch polynomial, not a vanishing statement.
print("\n== moduli dimension identity ==")
for surface, L in [(p2, divisor(3)), (f1, divisor(2, 4)), (f1b, divisor(1, 1, -1))]:
    lhs = moduli_dimension(surface, L)
    rhs = (euler_char(surface, L) - 1) + arithmetic_genus(surface, L)
    print(f"{surface.name}: {format_divisor(surface, L)}  L.L+1 = {lhs} = (chi-1)+g = {rhs}")
    assert lhs == rhs
