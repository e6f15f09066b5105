"""Line-bundle cohomology: tables on the plane and F_e, Serre duality in
action, and the narrow blowup scope."""

from ratsurf import (
    blowup_hirzebruch,
    cohomology_projective_space,
    cohomology_table,
    divisor,
    h0_class,
    hirzebruch,
    projective_plane,
)

p2, f1, f0b = projective_plane(), hirzebruch(1), blowup_hirzebruch(0)

print("== O(dH) on the plane ==")
print(" d   h0  h1  h2  chi")
for d in range(-5, 5):
    t = cohomology_table(p2, divisor(d))
    print(f"{d:2d}  {t.h0:3d} {t.h1:3d} {t.h2:3d}  {t.chi:3d}")

print("\n== O(aG+bF) on F_1 ==")
print("       b=-1  b=0  b=1  b=2  b=3")
for a in range(0, 4):
    row = [cohomology_table(f1, divisor(a, b)).h0 for b in range(-1, 4)]
    print(f"a={a}:  " + "  ".join(f"{h:3d}" for h in row))

# Serre duality pairs h2 of D with h0 of K-D; on F_1 K = -2G-3F.
print("\n== Serre duality on F_1 ==")
for (a, b) in [(2, 3), (-1, 2), (0, -4)]:
    t = cohomology_table(f1, divisor(a, b))
    dual = cohomology_table(f1, divisor(-2 - a, -3 - b))
    print(f"({a},{b}): h2 = {t.h2}  vs  h0 of dual = {dual.h0}")
    assert t.h2 == dual.h0

# On P^l only the extremes are ever nonzero.
print("\n== O(m) on P^3 ==")
for m in range(-6, 3):
    h0, h_top = cohomology_projective_space(3, m)
    print(f"m={m:3d}: h0 = {h0:3d}  h3 = {h_top}")

# One generic base point on the blowup: one linear condition, nothing more.
print("\n== blown-up F_0, subtracting the exceptional curve ==")
for (a, b) in [(0, 2), (1, 1), (2, 0)]:
    plain = h0_class(f0b, divisor(a, b, 0))
    dropped = h0_class(f0b, divisor(a, b, -1))
    print(f"{a}G+{b}F: h0 = {plain}  ->  minus E: {dropped}")
