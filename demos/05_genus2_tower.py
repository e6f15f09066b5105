"""The genus-2 tower: recursive growth of the splitting, the r^2 rank law,
and the cohomology counts behind it."""

from ratsurf import (
    Branch,
    divisor,
    hirzebruch,
    intersect,
    step_failure,
    theta_context,
    theta_splitting,
    verify_genus2_cohomology,
)

f0 = hirzebruch(0)
ctx = theta_context(f0, divisor(2, 3))

print("== splitting of the pushforward, power by power ==")
for r in range(1, 7):
    gb = theta_splitting(ctx.branch, r)
    print(f"r={r}: rank {gb.rank:3d} = {r}^2   {gb.describe()}")
    assert gb.rank == r * r

# Each step adds O(-r-1)^(r+2) + O(-r-2)^(r-1); the closed form and the
# stepwise construction must produce the same multiset of twists.
print("\n== recursion check ==")
print("powers 2..50:", step_failure(Branch.GENUS_TWO, 50) is None)

# The counts feeding the splitting: with K = -2G-(e+2)F the adjoint class
# L+K is the fiber class, so r(L+K) is a pencil-of-fibers power.
print("\n== adjoint-power cohomology, e = 0 and 1 ==")
print(" e   r   h0(r(L+K))  h1(r(L+K)-L)")
for e in (0, 1):
    for r in (2, 3, 5, 10):
        result = verify_genus2_cohomology(e, r)
        print(f" {e}  {r:2d}   {result.h0_pos:6d}       {result.h1_neg:6d}   ok={result.ok}")

# The dualizing sheaf of the moduli space is the L.K-th twist pulled back
# from the linear system; its restriction to any fiber is trivial.
for e in (0, 1):
    surface = hirzebruch(e)
    print(f"\ndualizing twist on {surface.name} for 2G+{e + 3}F: "
          f"{intersect(surface, divisor(2, e + 3), surface.canonical)}")
