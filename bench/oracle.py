"""Independent expectations for `report` on the five theta-tower classes.

The `h0` column comes from the closed-form numerators of Z^r(t) over
(1-t)^(l+1), expanded with `math.comb`.  The `chi` column comes from the
splittings of the pushforward of theta^r into twists O(t) on P^l, each twist
contributing chi(P^l, O(n+t)) = C(n+t+l, l) as the integer-valued binomial
polynomial.  Both are written out here from the paper's formulas; nothing in
this module imports `ratsurf`.

The oracle predicts the whole stdout of an op with the default checks, in
text or json: the header and Z(t) line, the n/h0/chi table, and the verdict
and witness of every check.  All checks pass except no-higher-cohomology,
which fails exactly when some twist n+t with 0 <= n <= trunc falls below
-dim|L|: that summand then has top cohomology on P^l, so chi and h0 differ.
Since n = 0 is always in range and every such summand moves chi the same
way, that is the case when the lowest twist of the splitting is below
-dim|L|, and the witness is n = 0.  `report` then exits 1, else 0.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from functools import lru_cache
from typing import NamedTuple


class ThetaClass(NamedTuple):
    genus: int
    dim: int  # dim|L| = h0(L) - 1


#: h0(3H) = C(5, 2) = 10 on P^2; h0(aG+bF) = sum_{k<=a} (b - k*e + 1) on F_e.
THETA_CLASSES = {
    ("p2", "3H"): ThetaClass(genus=1, dim=9),
    ("f0", "2G+2F"): ThetaClass(genus=1, dim=8),
    ("f1", "2G+3F"): ThetaClass(genus=1, dim=8),
    ("f0", "2G+3F"): ThetaClass(genus=2, dim=11),
    ("f1", "2G+4F"): ThetaClass(genus=2, dim=11),
}


def numerator(genus: int, r: int) -> dict[int, int]:
    """Exponent -> coefficient of the numerator of Z^r(t)."""
    if r == 1:
        return {0: 1}
    if genus == 1:  # 1 + t^2 + ... + t^r
        return {0: 1, **{i: 1 for i in range(2, r + 1)}}
    # 1 + 3t^2 + sum_{i=3}^{r} ((i+1) t^i + (i-2) t^(i+1))
    num = Counter({0: 1, 2: 3})
    for i in range(3, r + 1):
        num[i] += i + 1
        num[i + 1] += i - 2
    return dict(num)


def splitting(genus: int, r: int) -> dict[int, int]:
    """Twist -> multiplicity of the pushforward of theta^r on P^l."""
    if r == 1:
        return {0: 1}
    if genus == 1:  # O + O(-2) + ... + O(-r)
        return {0: 1, **{-i: 1 for i in range(2, r + 1)}}
    # O + O(-2)^3 + sum_{i=3}^{r} (O(-i)^(i+1) + O(-i-1)^(i-2))
    parts = Counter({0: 1, -2: 3})
    for i in range(3, r + 1):
        parts[-i] += i + 1
        parts[-i - 1] += i - 2
    return {t: m for t, m in parts.items() if m}


@lru_cache(maxsize=None)
def _binomial_polynomial(x: int, k: int) -> int:
    product = 1
    for j in range(k):
        product *= x - j
    return product // math.factorial(k)


def columns(surface: str, cls: str, r: int, trunc: int) -> tuple[list[int], list[int]]:
    """The expected `h0` and `chi` columns for n = 0..trunc."""
    genus, l = THETA_CLASSES[(surface, cls)]
    num = numerator(genus, r)
    split = splitting(genus, r)
    h0 = [
        sum(c * math.comb(n - k + l, l) for k, c in num.items() if k <= n)
        for n in range(trunc + 1)
    ]
    chi = [
        sum(m * _binomial_polynomial(n + t + l, l) for t, m in split.items())
        for n in range(trunc + 1)
    ]
    return h0, chi


def no_higher_cohomology(surface: str, cls: str, r: int) -> bool:
    genus, l = THETA_CLASSES[(surface, cls)]
    return min(splitting(genus, r)) >= -l


def expected_exit(surface: str, cls: str, r: int) -> int:
    return 0 if no_higher_cohomology(surface, cls, r) else 1


#: How `report` names each surface.
SURFACES = {
    "p2": "P2 (projective plane)",
    "f0": "F0 (Hirzebruch surface F_0)",
    "f1": "F1 (Hirzebruch surface F_1)",
}


def _polynomial_text(coeffs: dict[int, int]) -> str:
    """Ascending powers with positive coefficients: '1 + 3t^2 + t^4'."""
    terms = []
    for k in sorted(coeffs):
        power = "" if k == 0 else "t" if k == 1 else f"t^{k}"
        c = coeffs[k]
        terms.append(str(c) if k == 0 else power if c == 1 else f"{c}{power}")
    return " + ".join(terms)


def _provenance(genus: int, r: int) -> str:
    if r == 1:
        return "rank-one pushforward: structure sheaf of the linear system"
    if genus == 1:
        return "genus-1 splitting: twists 0, -2 .. -r"
    return "genus-2 splitting: 1 + 3t^2 block plus recursive twist blocks"


def expected_payload(surface: str, cls: str, r: int, trunc: int) -> dict:
    """What `report --format json` prints, as a dict."""
    genus, l = THETA_CLASSES[(surface, cls)]
    h0, chi = columns(surface, cls, r, trunc)
    passes = no_higher_cohomology(surface, cls, r)
    names = ["series-consistency", "rank", "sequence-additivity" if genus == 1 else "recursion"]
    checks = [{"name": name, "pass": True, "witness": None} for name in names]
    checks.append({
        "name": "no-higher-cohomology",
        "pass": passes,
        "witness": None if passes else f"n=0: chi {chi[0]} != h0 {h0[0]}",
    })
    checks.append({"name": "nonnegative-coefficients", "pass": True, "witness": None})
    return {
        "context": {
            "surface": SURFACES[surface].split()[0],
            "class": cls,
            "r": r,
            "trunc": trunc,
            "genus": genus,
            "dim_linear_system": l,
        },
        "branch": "GenusOne" if genus == 1 else "GenusTwo",
        "series": [{"n": n, "h0": h0[n], "chi": chi[n]} for n in range(trunc + 1)],
        "checks": checks,
    }


def expected_stdout(surface: str, cls: str, r: int, trunc: int, fmt: str) -> str:
    payload = expected_payload(surface, cls, r, trunc)
    if fmt == "json":
        return json.dumps(payload, indent=2) + "\n"
    genus, l = THETA_CLASSES[(surface, cls)]
    lines = [
        f"surface    {SURFACES[surface]}",
        f"class      {cls}",
        f"branch     {payload['branch']}",
        f"genus      {genus}",
        f"dim |L|    {l}",
        f"Z(t) = ({_polynomial_text(numerator(genus, r))}) / (1 - t)^{l + 1}"
        f"    [{_provenance(genus, r)}]",
        "   n         h0        chi",
        *(f"{row['n']:>4}  {row['h0']:>9}  {row['chi']:>9}" for row in payload["series"]),
        "checks",
    ]
    for entry in payload["checks"]:
        verdict = "PASS" if entry["pass"] else "FAIL"
        witness = f" ({entry['witness']})" if entry["witness"] else ""
        lines.append(f"  {entry['name']}: {verdict}{witness}")
    return "\n".join(lines) + "\n"


def check_report(argv: list[str], rc: int, out: str, err: str) -> str | None:
    """None when a theta-tower `report` op's exit code and output match, else why not."""
    opts = dict(zip(argv[1::2], argv[2::2]))
    surface, cls = opts["--surface"], opts["--class"]
    r, trunc = int(opts["--r"]), int(opts["--trunc"])
    want_rc = expected_exit(surface, cls, r)
    if rc != want_rc:
        return f"exit {rc}, expected {want_rc}"
    if err:
        return f"unexpected stderr: {err.splitlines()[0]!r}"
    want = expected_stdout(surface, cls, r, trunc, opts.get("--format", "text"))
    if out != want:
        got_lines, want_lines = out.splitlines(), want.splitlines()
        line = next(
            (i for i, (a, b) in enumerate(zip(got_lines, want_lines)) if a != b),
            min(len(got_lines), len(want_lines)),
        )
        return f"stdout line {line + 1} differs from the oracle"
    return None
