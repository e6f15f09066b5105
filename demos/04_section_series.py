"""Section-count generating series: closed forms, expansions, and the
decomposition cross-check."""

from ratsurf import (
    divisor,
    format_polynomial,
    hirzebruch,
    projective_plane,
    ThetaSeries,
    theta_context,
    theta_splitting,
    z_from_decomposition,
)

p2 = projective_plane()

# Genus <= 0: the moduli space is the linear system itself and the series is
# a pure binomial stream, independent of the power r.
ctx = theta_context(p2, divisor(2))
print(f"conics in the plane (branch {ctx.branch.value}, l = {ctx.l})")
for r in (1, 4):
    numerator = theta_splitting(ctx.branch, r).numerator()
    coeffs = ThetaSeries(ctx, r, 6).h0.coeffs
    print(
        f"  r={r}: ({format_polynomial(numerator)}) / (1-t)^{ctx.l + 1}"
        f" = {list(coeffs)} ..."
    )

# Genus 1: cubic curves. The numerator grows one term per power.
ctx = theta_context(p2, divisor(3))
print(f"\ncubics in the plane (branch {ctx.branch.value}, l = {ctx.l})")
for r in (1, 2, 3, 4):
    gb = theta_splitting(ctx.branch, r)
    numerator = gb.numerator()
    print(f"  r={r}: numerator {format_polynomial(numerator):22s} splitting {gb.describe()}")

# The two evaluation routes must agree coefficient by coefficient.
series_a = ThetaSeries(ctx, 4, 30).h0
series_b = z_from_decomposition(theta_splitting(ctx.branch, 4), ctx.l, 30)
assert series_a == series_b
print("  closed form and summand-by-summand expansion agree through t^30")

# Genus 2: the two Hirzebruch classes carrying genus-2 pencils.
for e in (0, 1):
    surface = hirzebruch(e)
    ctx = theta_context(surface, divisor(2, e + 3))
    numerator = theta_splitting(ctx.branch, 3).numerator()
    print(
        f"\n{surface.name}, class 2G+{e + 3}F (branch {ctx.branch.value}, l = {ctx.l})"
        f"\n  r=3: ({format_polynomial(numerator)}) / (1-t)^{ctx.l + 1}"
    )
    print(f"  first coefficients: {list(ThetaSeries(ctx, 3, 5).h0.coeffs)}")
    print(f"  rank of the splitting: {theta_splitting(ctx.branch, 3).rank} = 3^2")
