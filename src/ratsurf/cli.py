"""Command-line front end: deterministic verification reports over the library.

Subcommands: genus, cohom, conditions, zseries, report.  All share the
surface/class parser (surfaces: p2, f<e>, f<e>b; classes: dH, aG+bF,
aG+bF-cE).  Output formats: text (default), json, csv (series table only).
`zseries` is `report --checks zseries`: the same code path and output.

Exit codes: 0 all requested checks pass, 1 a requested check failed, 2 parse
or configuration error, 3 unsupported branch or out-of-scope input, 4
decomposition cap exceeded.  The truncation cap (default 200) can be raised
through the RATSURF_MAX_TRUNC environment variable.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Callable, NamedTuple

from .cohom import cohomology_table, h0_class
from .conditions import (
    Branch,
    check_a1,
    check_a2,
    check_a3,
    default_very_ample,
    is_very_ample,
)
from .errors import (
    ClassParseError,
    EnumerationCapError,
    UnsupportedBranchError,
)
from .picard import (
    DivisorClass,
    Surface,
    SurfaceKind,
    arithmetic_genus,
    canonical_class,
    format_divisor,
    intersect,
    parse_divisor,
    surface_from_name,
)
from .powerseries import Polynomial, expand_rational_gf, format_polynomial
from .theta import (
    ThetaContext,
    ThetaSplitting,
    dualizing_twist,
    pushforward_decomposition,
    recursion_check_g2,
    theta_context,
    theta_splitting,
    verify_genus2_cohomology,
    z_from_decomposition,
)

DEFAULT_TRUNC_CAP = 200
ALL_CHECKS = ("conditions", "zseries", "invariants", "g2cohom", "dualizing")
DEFAULT_CHECKS = ("zseries", "invariants")

_DETAIL_DISPLAY_LIMIT = 50


def _trunc_cap() -> int:
    raw = os.environ.get("RATSURF_MAX_TRUNC")
    if raw is None:
        return DEFAULT_TRUNC_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ClassParseError(f"RATSURF_MAX_TRUNC must be an integer, got {raw!r}") from exc
    if cap < 0:
        raise ClassParseError(f"RATSURF_MAX_TRUNC must be >= 0, got {cap}")
    return cap


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ratsurf",
        description=(
            "Exact intersection theory, line-bundle cohomology, linear-system "
            "conditions and section-count series on rational surfaces."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, fmt_choices=("text", "json")) -> None:
        p.add_argument("--surface", required=True, help="p2, f<e>, or f<e>b (blown-up F_e)")
        p.add_argument(
            "--class",
            dest="divisor_text",
            required=True,
            help="divisor class, e.g. 3H, 2G+4F, 2F-E (write --class=-2H for a leading minus)",
        )
        p.add_argument("--format", choices=fmt_choices, default="text")

    p_genus = sub.add_parser("genus", help="genus, dimensions and branch of a class")
    add_common(p_genus)

    p_cohom = sub.add_parser("cohom", help="cohomology table of a line bundle")
    add_common(p_cohom)

    p_cond = sub.add_parser("conditions", help="run the linear-system conditions A1-A3")
    add_common(p_cond)
    p_cond.add_argument("--ample", help="very ample class for A1 (default H or G+(e+1)F)")

    p_z = sub.add_parser("zseries", help="section-count series of theta-power twists")
    add_common(p_z, fmt_choices=("text", "json", "csv"))
    p_z.add_argument("--r", type=int, default=1, help="theta power (default 1)")
    p_z.add_argument("--trunc", type=int, default=10, help="truncation order (default 10)")
    p_z.set_defaults(checks="zseries", ample=None)

    p_rep = sub.add_parser("report", help="full verification report")
    add_common(p_rep, fmt_choices=("text", "json", "csv"))
    p_rep.add_argument("--r", type=int, default=1)
    p_rep.add_argument("--trunc", type=int, default=10)
    p_rep.add_argument("--ample", help="very ample class for the conditions check")
    p_rep.add_argument(
        "--checks",
        default=",".join(DEFAULT_CHECKS),
        help=f"comma-separated subset of {{{','.join(ALL_CHECKS)}}}",
    )
    return parser


def _parse_context(args) -> tuple[Surface, DivisorClass]:
    surface = surface_from_name(args.surface)
    divisor = parse_divisor(surface, args.divisor_text)
    return surface, divisor


def _validate_trunc(trunc: int) -> int:
    cap = _trunc_cap()
    if trunc < 0:
        raise ClassParseError(f"--trunc must be >= 0, got {trunc}")
    if trunc > cap:
        raise ClassParseError(
            f"--trunc {trunc} exceeds the cap {cap} (raise RATSURF_MAX_TRUNC to override)"
        )
    return trunc


def _validate_r(r: int) -> int:
    if r < 1:
        raise ClassParseError(f"--r must be >= 1, got {r}")
    return r


# ---------------------------------------------------------------- subcommands


def _cmd_genus(args) -> int:
    surface, divisor = _parse_context(args)
    k = canonical_class(surface)
    effective = h0_class(surface, divisor) > 0
    info = {
        "surface": surface.name,
        "class": format_divisor(surface, divisor),
        "genus": arithmetic_genus(surface, divisor),
        "self_intersection": intersect(surface, divisor, divisor),
        "canonical_pairing": intersect(surface, divisor, k),
        "moduli_dimension": intersect(surface, divisor, divisor) + 1,
        "effective": effective,
        "dim_linear_system": h0_class(surface, divisor) - 1 if effective else None,
        "branch": theta_context(surface, divisor).branch.value if effective else None,
    }
    if args.format == "json":
        print(json.dumps(info, indent=2))
    else:
        print(f"surface          {surface.name} ({surface.description})")
        print(f"class            {info['class']}")
        print(f"genus            {info['genus']}")
        print(f"L.L              {info['self_intersection']}")
        print(f"L.K              {info['canonical_pairing']}")
        print(f"moduli dim       {info['moduli_dimension']}")
        print(f"effective        {'yes' if effective else 'no'}")
        print(f"dim |L|          {info['dim_linear_system'] if effective else '-'}")
        print(f"branch           {info['branch'] if effective else '-'}")
    return 0


def _cmd_cohom(args) -> int:
    surface, divisor = _parse_context(args)
    name = format_divisor(surface, divisor)
    if surface.kind is SurfaceKind.BLOWUP_HIRZEBRUCH:
        h0 = h0_class(surface, divisor)
        info = {"surface": surface.name, "class": name, "h0": h0}
        if args.format == "json":
            print(json.dumps(info, indent=2))
        else:
            print(f"surface   {surface.name} ({surface.description})")
            print(f"class     {name}")
            print(f"h0        {h0}   (h1/h2 are outside the verified blowup scope)")
        return 0
    table = cohomology_table(surface, divisor)
    info = {
        "surface": surface.name,
        "class": name,
        "h0": table.h0,
        "h1": table.h1,
        "h2": table.h2,
        "chi": table.chi,
    }
    if args.format == "json":
        print(json.dumps(info, indent=2))
    else:
        print(f"surface   {surface.name} ({surface.description})")
        print(f"class     {name}")
        print(f"h0 {table.h0}   h1 {table.h1}   h2 {table.h2}   chi {table.chi}")
    return 0


def _condition_reports(surface: Surface, divisor: DivisorClass, ample_text: str | None):
    if ample_text is not None:
        ample = parse_divisor(surface, ample_text)
        if not is_very_ample(surface, ample):
            raise ClassParseError(
                f"--ample {format_divisor(surface, ample)} is not very ample on {surface.name}"
            )
    else:
        ample = default_very_ample(surface)
    return [
        check_a1(surface, divisor, ample),
        check_a2(surface, divisor),
        check_a3(surface, divisor),
    ], ample


def _witness_text(surface: Surface, witness) -> str | None:
    if witness is None:
        return None
    if isinstance(witness, DivisorClass):
        return format_divisor(surface, witness)
    if hasattr(witness, "describe"):
        return witness.describe(surface)
    return str(witness)


def _print_details(details) -> None:
    shown = details[:_DETAIL_DISPLAY_LIMIT]
    for line in shown:
        print(f"    {line}")
    hidden = len(details) - len(shown)
    if hidden > 0:
        print(f"    ... ({hidden} more lines)")


def _cmd_conditions(args) -> int:
    surface, divisor = _parse_context(args)
    reports, ample = _condition_reports(surface, divisor, args.ample)
    all_pass = all(rep.passed for rep in reports)
    if args.format == "json":
        payload = {
            "context": {
                "surface": surface.name,
                "class": format_divisor(surface, divisor),
                "ample": format_divisor(surface, ample),
            },
            "checks": [
                {
                    "name": rep.condition,
                    "pass": rep.passed,
                    "witness": _witness_text(surface, rep.witness),
                }
                for rep in reports
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"surface   {surface.name} ({surface.description})")
        print(f"class     {format_divisor(surface, divisor)}")
        print(f"ample     {format_divisor(surface, ample)}")
        for rep in reports:
            print(f"condition {rep.condition}: {'PASS' if rep.passed else 'FAIL'}")
            _print_details(rep.details)
            if not rep.passed:
                print(f"    witness: {_witness_text(surface, rep.witness)}")
    return 0 if all_pass else 1


def _parse_checks(raw: str) -> tuple[str, ...]:
    names = tuple(name.strip() for name in raw.split(",") if name.strip())
    if not names:
        raise ClassParseError("--checks must name at least one check")
    unknown = [name for name in names if name not in ALL_CHECKS]
    if unknown:
        raise ClassParseError(
            f"unknown checks {unknown}; available: {', '.join(ALL_CHECKS)}"
        )
    return names


class _Series(NamedTuple):
    """Everything a report shows of Z^r(t), each part built once."""

    split: ThetaSplitting
    numerator: Polynomial
    h0: tuple[int, ...]  # n = 0..trunc, from the numerator
    chi: tuple[int, ...]  # n = 0..trunc, from the splitting


def _series(ctx: ThetaContext, r: int, trunc: int) -> _Series:
    split = theta_splitting(ctx.branch, r)
    numerator = split.bundle.numerator()
    return _Series(
        split,
        numerator,
        expand_rational_gf(numerator, ctx.l, trunc).coeffs,
        tuple(split.bundle.euler_char(ctx.l, n) for n in range(trunc + 1)),
    )


def _run_checks(
    ctx: ThetaContext,
    r: int,
    trunc: int,
    checks: tuple[str, ...],
    ample_text: str | None,
    series: Callable[[], _Series],
):
    """Run the checks in order; `series()` returns the run's one `_Series`."""
    surface = ctx.surface
    entries: list[dict] = []
    condition_details: list[tuple[str, tuple[str, ...]]] = []

    def add(name: str, passed: bool, witness: str | None) -> None:
        entries.append({"name": name, "pass": passed, "witness": witness})

    for check in checks:
        if check == "conditions":
            reports, _ = _condition_reports(surface, ctx.L, ample_text)
            for rep in reports:
                add(rep.condition, rep.passed, _witness_text(surface, rep.witness))
                condition_details.append((rep.condition, rep.details))
        elif check == "zseries":
            closed = series().h0
            summed = z_from_decomposition(series().split.bundle, ctx.l, trunc)
            mismatch = next(
                (n for n in range(trunc + 1) if closed[n] != summed[n]), None
            )
            add(
                "series-consistency",
                mismatch is None,
                None
                if mismatch is None
                else f"n={mismatch}: closed form {closed[mismatch]} != summand count {summed[mismatch]}",
            )
        elif check == "invariants":
            z = series()
            gb, expected = z.split.bundle, z.split.expected_rank
            add(
                "rank",
                gb.rank == expected,
                None if gb.rank == expected else f"rank {gb.rank} != {expected}",
            )
            if ctx.branch is Branch.GENUS_ONE:
                stepped = gb.union(z.split.increment)
                grown = pushforward_decomposition(ctx, r + 1)
                add(
                    "sequence-additivity",
                    stepped == grown,
                    None if stepped == grown else grown.describe(),
                )
            if ctx.branch is Branch.GENUS_TWO:
                bad = next((s for s in range(2, max(2, r) + 1) if not recursion_check_g2(s)), None)
                add("recursion", bad is None, None if bad is None else f"fails at power {bad}")
            bad_n = next((n for n in range(trunc + 1) if z.chi[n] != z.h0[n]), None)
            add(
                "no-higher-cohomology",
                bad_n is None,
                None if bad_n is None else f"n={bad_n}: chi {z.chi[bad_n]} != h0 {z.h0[bad_n]}",
            )
            neg = next((n for n in range(trunc + 1) if z.h0[n] < 0), None)
            add(
                "nonnegative-coefficients",
                neg is None,
                None if neg is None else f"coefficient of t^{neg} is {z.h0[neg]}",
            )
        elif check == "g2cohom":
            if ctx.branch is not Branch.GENUS_TWO:
                raise UnsupportedBranchError(
                    "the genus-2 cohomology check applies only to the genus-2 classes "
                    "2G+(e+3)F on F_0 and F_1"
                )
            top = max(2, r)
            bad = next(
                (s for s in range(2, top + 1) if not verify_genus2_cohomology(ctx.surface.e, s).ok),
                None,
            )
            add(
                "genus2-cohomology",
                bad is None,
                f"verified h0 = r+1, h1 = r-2 and vanishings for r in [2, {top}]"
                if bad is None
                else f"fails at power {bad}",
            )
        elif check == "dualizing":
            twist = dualizing_twist(surface, ctx.L)
            add(
                "dualizing-twist",
                True,
                f"twist L.K = {twist}; restriction to each support fiber is trivial",
            )
    return entries, condition_details


def _report_payload(ctx: ThetaContext, r: int, trunc: int, series: _Series, entries) -> dict:
    return {
        "context": {
            "surface": ctx.surface.name,
            "class": format_divisor(ctx.surface, ctx.L),
            "r": r,
            "trunc": trunc,
            "genus": ctx.genus,
            "dim_linear_system": ctx.l,
        },
        "branch": ctx.branch.value,
        "series": [
            {"n": n, "h0": series.h0[n], "chi": series.chi[n]} for n in range(trunc + 1)
        ],
        "checks": entries,
    }


def _print_text_report(ctx: ThetaContext, series: _Series, payload: dict, details) -> None:
    print(f"surface    {ctx.surface.name} ({ctx.surface.description})")
    print(f"class      {payload['context']['class']}")
    print(f"branch     {payload['branch']}")
    print(f"genus      {ctx.genus}")
    print(f"dim |L|    {ctx.l}")
    print(
        f"Z(t) = ({format_polynomial(series.numerator)}) / (1 - t)^{ctx.l + 1}"
        f"    [{series.split.provenance}]"
    )
    print("   n         h0        chi")
    for row in payload["series"]:
        print(f"{row['n']:>4}  {row['h0']:>9}  {row['chi']:>9}")
    if payload["checks"]:
        print("checks")
        for entry in payload["checks"]:
            line = f"  {entry['name']}: {'PASS' if entry['pass'] else 'FAIL'}"
            if entry["witness"]:
                line += f" ({entry['witness']})"
            print(line)
    for name, lines in details:
        print(f"details {name}")
        _print_details(lines)


def _print_csv_series(payload: dict) -> None:
    print("n,h0,chi")
    for row in payload["series"]:
        print(f"{row['n']},{row['h0']},{row['chi']}")


def _cmd_report(args) -> int:
    surface, divisor = _parse_context(args)
    r = _validate_r(args.r)
    trunc = _validate_trunc(args.trunc)
    checks = _parse_checks(args.checks)
    ctx = theta_context(surface, divisor)
    # built on first use, so checks that do not need the series keep their order of errors
    series = functools.cache(lambda: _series(ctx, r, trunc))
    entries, details = _run_checks(ctx, r, trunc, checks, args.ample, series)
    payload = _report_payload(ctx, r, trunc, series(), entries)
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    elif args.format == "csv":
        _print_csv_series(payload)
    else:
        _print_text_report(ctx, series(), payload, details)
    return 0 if all(entry["pass"] for entry in entries) else 1


_DISPATCH = {
    "genus": _cmd_genus,
    "cohom": _cmd_cohom,
    "conditions": _cmd_conditions,
    "zseries": _cmd_report,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _DISPATCH[args.command](args)
    except EnumerationCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except UnsupportedBranchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ClassParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
