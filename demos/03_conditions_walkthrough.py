"""The linear-system conditions gating the positive-genus constructions,
walked through on a genus-2 class, plus branch classification."""

from ratsurf import (
    check_a1,
    check_a2,
    check_a3,
    classify_branch,
    describe,
    divisor,
    enumerate_decompositions,
    enumerate_effective_below,
    format_divisor,
    hirzebruch,
    projective_plane,
)

p2 = projective_plane()
f1 = hirzebruch(1)
L = divisor(2, 4)  # the genus-2 class on F_1

print(f"class {format_divisor(f1, L)} on {f1.name}")
below = enumerate_effective_below(f1, L)
print(f"effective classes below it: {len(below)}")
print("  " + ", ".join(format_divisor(f1, d) for d in below))

decs = enumerate_decompositions(f1, L)
print(f"decompositions into >= 2 effective pieces: {len(decs)}")
for dec in decs[:5]:
    print("  " + describe(f1, dec))
print("  ...")

# A1 with the minimal very ample class G+2F; the rigid section classes G and
# 2G pair to zero against K+H and are the allowed exceptions on F_1.
a1 = check_a1(f1, L, divisor(1, 2))
print(f"\nA1: {'PASS' if a1.passed else 'FAIL'}")
for line in a1.details:
    if "section" in line:
        print("  " + line)

a2 = check_a2(f1, L)
print(f"A2: {'PASS' if a2.passed else 'FAIL'}  ({len(a2.details)} checked inequalities)")

a3 = check_a3(f1, L)
print(f"A3: {'PASS' if a3.passed else 'FAIL'}")
for line in a3.details:
    print("  " + line)

# Branch classification drives which series formula applies.
print("\n== branches ==")
for surface, d in [
    (p2, divisor(2)),
    (p2, divisor(3)),
    (p2, divisor(4)),
    (f1, divisor(2, 3)),
    (f1, divisor(2, 4)),
    (hirzebruch(2), divisor(2, 7)),
]:
    print(f"{surface.name:3s} {format_divisor(surface, d):7s} -> {classify_branch(surface, d).value}")
