"""Command-line front end: deterministic verification reports over the library.

Subcommands: genus, cohom, conditions, zseries, report.  All share the
surface/class parser (surfaces: p2, f<e>, f<e>b; classes: dH, aG+bF,
aG+bF-cE).  Output formats: text (default), json, csv (series table only).
`zseries` is `report --checks zseries`: the same code path and output.

Every subcommand builds one payload: `--format json` prints it, and the text
view is built only when text is shown, so JSON output renders no A1-A3 detail
line.

Exit codes: 0 all requested checks pass, 1 a requested check failed, 2 parse
or configuration error, 3 unsupported branch or out-of-scope input (a rigid
class with dim|L| = 0 included), 4 decomposition cap exceeded, 5 internal
invariant failed (a bug; one line on stderr).  `--trunc` above its cap
(default 200) and `--r` above its cap (default 1000) exit 2; the
RATSURF_MAX_TRUNC and RATSURF_MAX_R environment variables override the caps.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable

from .cohom import cohomology_table, h0_class
from .conditions import (
    Branch,
    ConditionReport,
    check_a1,
    check_a2,
    check_a3,
    default_very_ample,
    describe,
    is_very_ample,
    refuse_zero_class,
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
    moduli_dimension,
    parse_divisor,
    surface_from_name,
)
from .powerseries import format_polynomial
from .theta import (
    ThetaSeries,
    dualizing_twist,
    pushforward_decomposition,
    recursion_failure_g2,
    theta_context,
    verify_genus2_cohomology,
)

DEFAULT_TRUNC_CAP = 200
DEFAULT_R_CAP = 1000
ALL_CHECKS = ("conditions", "zseries", "invariants", "g2cohom", "dualizing")
DEFAULT_CHECKS = ("zseries", "invariants")

_DETAIL_DISPLAY_LIMIT = 50


def _cap(env_name: str, default: int) -> int:
    raw = os.environ.get(env_name, str(default))
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ClassParseError(f"{env_name} must be an integer, got {raw!r}") from exc
    if cap < 0:
        raise ClassParseError(f"{env_name} must be >= 0, got {cap}")
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


def _validate(option: str, value: int, low: int, env_name: str, default_cap: int) -> int:
    cap = _cap(env_name, default_cap)
    if value < low:
        raise ClassParseError(f"--{option} must be >= {low}, got {value}")
    if value > cap:
        raise ClassParseError(
            f"--{option} {value} exceeds the cap {cap} (raise {env_name} to override)"
        )
    return value


# -------------------------------------------------------------------- output


def _emit(args, payload: dict, text: Callable[[], list[str]]) -> None:
    """Print the payload as JSON, or the text view, which is built only here."""
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print("\n".join(text()))


def _fields(width: int, surface: Surface, pairs) -> list[str]:
    """The surface line, then one `label value` line per pair, every label
    padded to `width`; a None value prints as '-'."""
    pairs = [("surface", f"{surface.name} ({surface.description})"), *pairs]
    return [f"{label:<{width}}{'-' if value is None else value}" for label, value in pairs]


def _detail_lines(details) -> list[str]:
    shown = details[:_DETAIL_DISPLAY_LIMIT]
    hidden = len(details) - len(shown)
    return [f"    {line}" for line in shown] + (
        [f"    ... ({hidden} more lines)"] if hidden > 0 else []
    )


# ---------------------------------------------------------------- subcommands


def _cmd_genus(args) -> int:
    surface, divisor = _parse_context(args)
    h0 = h0_class(surface, divisor)
    info = {
        "surface": surface.name,
        "class": format_divisor(surface, divisor),
        "genus": arithmetic_genus(surface, divisor),
        "self_intersection": intersect(surface, divisor, divisor),
        "canonical_pairing": intersect(surface, divisor, canonical_class(surface)),
        "moduli_dimension": moduli_dimension(surface, divisor),
        "effective": h0 > 0,
        "dim_linear_system": h0 - 1 if h0 > 0 else None,
        "branch": theta_context(surface, divisor).branch.value if h0 > 0 else None,
    }
    _emit(args, info, lambda: _fields(17, surface, [
        ("class", info["class"]),
        ("genus", info["genus"]),
        ("L.L", info["self_intersection"]),
        ("L.K", info["canonical_pairing"]),
        ("moduli dim", info["moduli_dimension"]),
        ("effective", "yes" if info["effective"] else "no"),
        ("dim |L|", info["dim_linear_system"]),
        ("branch", info["branch"]),
    ]))
    return 0


def _cmd_cohom(args) -> int:
    surface, divisor = _parse_context(args)
    info = {"surface": surface.name, "class": format_divisor(surface, divisor)}
    if surface.kind is SurfaceKind.BLOWUP_HIRZEBRUCH:
        info["h0"] = h0_class(surface, divisor)
        tail = f"h0        {info['h0']}   (h1/h2 are outside the verified blowup scope)"
    else:
        table = cohomology_table(surface, divisor)
        info.update(h0=table.h0, h1=table.h1, h2=table.h2, chi=table.chi)
        tail = f"h0 {table.h0}   h1 {table.h1}   h2 {table.h2}   chi {table.chi}"
    _emit(args, info, lambda: [*_fields(10, surface, [("class", info["class"])]), tail])
    return 0


def _condition_reports(surface: Surface, divisor: DivisorClass, ample_text: str | None):
    refuse_zero_class(divisor)  # before --ample is read
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


def _check_entry(name: str, passed: bool, witness: str | None) -> dict:
    return {"name": name, "pass": passed, "witness": witness}


def _condition_entry(surface: Surface, rep: ConditionReport) -> dict:
    witness = None if rep.witness is None else describe(surface, rep.witness)
    return _check_entry(rep.condition, rep.passed, witness)


def _cmd_conditions(args) -> int:
    surface, divisor = _parse_context(args)
    reports, ample = _condition_reports(surface, divisor, args.ample)
    payload = {
        "context": {
            "surface": surface.name,
            "class": format_divisor(surface, divisor),
            "ample": format_divisor(surface, ample),
        },
        "checks": [_condition_entry(surface, rep) for rep in reports],
    }

    def text() -> list[str]:
        context = payload["context"]
        lines = _fields(10, surface, [("class", context["class"]), ("ample", context["ample"])])
        for rep, entry in zip(reports, payload["checks"]):
            lines.append(f"condition {rep.condition}: {'PASS' if rep.passed else 'FAIL'}")
            lines += _detail_lines(rep.details)
            if not rep.passed:
                lines.append(f"    witness: {entry['witness']}")
        return lines

    _emit(args, payload, text)
    return 0 if all(rep.passed for rep in reports) else 1


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


def _run_checks(series: ThetaSeries, checks: tuple[str, ...], ample_text: str | None):
    """Run the checks in order; each reads the columns it needs from `series`."""
    ctx, r, surface = series.ctx, series.r, series.ctx.surface
    entries: list[dict] = []
    condition_reports: list[ConditionReport] = []

    def add(name: str, passed: bool, witness: str | None) -> None:
        entries.append(_check_entry(name, passed, witness))

    def add_first(name: str, bad: Callable[[int], bool], witness: Callable[[int], str]) -> None:
        """Passes when no n in 0..trunc is bad; the witness names the first that is."""
        n = next((n for n in range(series.trunc + 1) if bad(n)), None)
        add(name, n is None, None if n is None else witness(n))

    for check in checks:
        if check == "conditions":
            reports, _ = _condition_reports(surface, ctx.L, ample_text)
            entries += [_condition_entry(surface, rep) for rep in reports]
            condition_reports += reports
        elif check == "zseries":
            closed, summed = series.h0, series.summed
            add_first(
                "series-consistency",
                lambda n: closed[n] != summed[n],
                lambda n: f"n={n}: closed form {closed[n]} != summand count {summed[n]}",
            )
        elif check == "invariants":
            gb, expected = series.split.bundle, series.split.expected_rank
            add(
                "rank",
                gb.rank == expected,
                None if gb.rank == expected else f"rank {gb.rank} != {expected}",
            )
            if ctx.branch is Branch.GENUS_ONE:
                stepped = gb.union(series.split.increment)
                grown = pushforward_decomposition(ctx, r + 1)
                add(
                    "sequence-additivity",
                    stepped == grown,
                    None if stepped == grown else grown.describe(),
                )
            if ctx.branch is Branch.GENUS_TWO:
                bad = recursion_failure_g2(max(2, r))
                add("recursion", bad is None, None if bad is None else f"fails at power {bad}")
            h0, chi = series.h0, series.chi
            add_first(
                "no-higher-cohomology",
                lambda n: chi[n] != h0[n],
                lambda n: f"n={n}: chi {chi[n]} != h0 {h0[n]}",
            )
            add_first(
                "nonnegative-coefficients",
                lambda n: h0[n] < 0,
                lambda n: f"coefficient of t^{n} is {h0[n]}",
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
    return entries, condition_reports


def _report_payload(series: ThetaSeries, entries) -> dict:
    ctx = series.ctx
    return {
        "context": {
            "surface": ctx.surface.name,
            "class": format_divisor(ctx.surface, ctx.L),
            "r": series.r,
            "trunc": series.trunc,
            "genus": ctx.genus,
            "dim_linear_system": ctx.l,
        },
        "branch": ctx.branch.value,
        "series": [
            {"n": n, "h0": series.h0[n], "chi": series.chi[n]} for n in range(series.trunc + 1)
        ],
        "checks": entries,
    }


def _report_text(series: ThetaSeries, payload: dict, reports) -> list[str]:
    ctx = series.ctx
    lines = _fields(11, ctx.surface, [
        ("class", payload["context"]["class"]),
        ("branch", payload["branch"]),
        ("genus", ctx.genus),
        ("dim |L|", ctx.l),
    ])
    lines.append(
        f"Z(t) = ({format_polynomial(series.numerator)}) / (1 - t)^{ctx.l + 1}"
        f"    [{series.split.provenance}]"
    )
    lines.append("   n         h0        chi")
    lines += [f"{row['n']:>4}  {row['h0']:>9}  {row['chi']:>9}" for row in payload["series"]]
    if payload["checks"]:
        lines.append("checks")
        for entry in payload["checks"]:
            line = f"  {entry['name']}: {'PASS' if entry['pass'] else 'FAIL'}"
            if entry["witness"]:
                line += f" ({entry['witness']})"
            lines.append(line)
    for rep in reports:
        lines.append(f"details {rep.condition}")
        lines += _detail_lines(rep.details)
    return lines


def _cmd_report(args) -> int:
    surface, divisor = _parse_context(args)
    r = _validate("r", args.r, 1, "RATSURF_MAX_R", DEFAULT_R_CAP)
    trunc = _validate("trunc", args.trunc, 0, "RATSURF_MAX_TRUNC", DEFAULT_TRUNC_CAP)
    checks = _parse_checks(args.checks)
    series = ThetaSeries(theta_context(surface, divisor), r, trunc)
    entries, reports = _run_checks(series, checks, args.ample)
    payload = _report_payload(series, entries)
    if args.format == "csv":
        print("n,h0,chi")
        print("\n".join(f"{row['n']},{row['h0']},{row['chi']}" for row in payload["series"]))
    else:
        _emit(args, payload, lambda: _report_text(series, payload, reports))
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
        code, message = 4, str(exc)
    except UnsupportedBranchError as exc:
        code, message = 3, str(exc)
    except (ClassParseError, ValueError) as exc:
        code, message = 2, str(exc)
    except AssertionError as exc:
        code, message = 5, "internal invariant failed: " + str(exc).split("\n")[0]
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
