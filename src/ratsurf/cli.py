"""Command-line front end: deterministic verification reports over the library.

Subcommands: genus, cohom, conditions, zseries, report.  All share the
surface/class parser (surfaces: p2, f<e>, f<e>b; classes: dH, aG+bF,
aG+bF-cE).  Output formats: text (default), json, csv (series table only).
`zseries` is `report --checks zseries`: the same code path and output.

Every subcommand builds one payload: `--format json` prints it, and the text
view is built only when text is shown, so JSON output renders no A1-A3 detail
line.

Exit codes: 0 all requested checks pass, 1 a requested check failed, 2 parse
or configuration error, 3 unsupported branch or out-of-scope input, 4
decomposition cap exceeded, 5 internal invariant failed (a bug; one line on
stderr).  A rigid class (dim|L| = 0) exits 3 only where the summand route
runs, the `zseries` check; `--checks invariants`, `dualizing` and
`conditions` still answer it.  `--trunc` above its cap (default 200) and
`--r` above its cap (default 1000) exit 2; the RATSURF_MAX_TRUNC and
RATSURF_MAX_R environment variables override the caps, and are read on every
call.  `--ample` without the conditions check also exits 2.

Two report checks state facts and cannot fail: `dualizing-twist` always
passes with the twist L.K, and `nonnegative-coefficients` reads running sums
of the splitting's multiplicities, which are never negative.

The parser is built once per process and reused by every `main` call, so a
caller running many commands in one process pays for it once.  A subcommand
imports the modules it uses when it runs: genus and conditions load cohom and
conditions, cohom loads cohom, and report and zseries add theta and powerseries
once their options pass; json loads only for `--format json`.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Callable

from .errors import ClassParseError, EnumerationCapError, UnsupportedBranchError
from .picard import (
    DivisorClass,
    Surface,
    arithmetic_genus,
    format_divisor,
    intersect,
    moduli_dimension,
    parse_divisor,
    surface_from_name,
)

DEFAULT_TRUNC_CAP = 200  # bounds each series column to trunc+1 entries; not their cost in dim|L|
DEFAULT_R_CAP = 1000  # bounds the splitting (up to r+2 twists, rank r^2) and the step walk
DEFAULT_CHECKS = ("zseries", "invariants")

_DETAIL_DISPLAY_LIMIT = 50
# per tower branch value, the `invariants` entry for `step_failure`: s plus its increment is s+1
_STEP_CHECKS = {"GenusOne": "sequence-additivity", "GenusTwo": "recursion"}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by every later one:
    parsing keeps no state in it, so one process builds it once."""
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
    """`value`, refused below `low` or above the cap that `env_name` overrides."""
    raw = os.environ.get(env_name, str(default_cap))
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ClassParseError(f"{env_name} must be an integer, got {raw!r}") from exc
    if cap < 0:
        raise ClassParseError(f"{env_name} must be >= 0, got {cap}")
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
        import json

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
    from .cohom import h0_class
    from .conditions import classify_branch

    surface, divisor = _parse_context(args)
    h0 = h0_class(surface, divisor)
    info = {
        "surface": surface.name,
        "class": format_divisor(surface, divisor),
        "genus": arithmetic_genus(surface, divisor),
        "self_intersection": intersect(surface, divisor, divisor),
        "canonical_pairing": intersect(surface, divisor, surface.canonical),
        "moduli_dimension": moduli_dimension(surface, divisor),
        "effective": h0 > 0,
        "dim_linear_system": h0 - 1 if h0 > 0 else None,
        "branch": classify_branch(surface, divisor).value if h0 > 0 else None,
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
    from .cohom import KIND_RULES, cohomology_table, h0_class

    surface, divisor = _parse_context(args)
    info = {"surface": surface.name, "class": format_divisor(surface, divisor)}
    if KIND_RULES[surface.kind].serre_table:
        table = cohomology_table(surface, divisor)
        info.update(h0=table.h0, h1=table.h1, h2=table.h2, chi=table.chi)
        tail = f"h0 {table.h0}   h1 {table.h1}   h2 {table.h2}   chi {table.chi}"
    else:
        info["h0"] = h0_class(surface, divisor)
        tail = f"h0        {info['h0']}   (h1/h2 are outside the verified blowup scope)"
    _emit(args, info, lambda: [*_fields(10, surface, [("class", info["class"])]), tail])
    return 0


def _condition_reports(surface: Surface, divisor: DivisorClass, ample_text: str | None):
    from .conditions import check_a1, check_a2, check_a3, default_very_ample
    from .conditions import is_very_ample, refuse_zero_class

    refuse_zero_class(divisor)  # before --ample is read
    if ample_text is not None:
        ample = parse_divisor(surface, ample_text)
        if not is_very_ample(surface, ample):
            raise ClassParseError(
                f"--ample {format_divisor(surface, ample)} is not very ample on {surface.name}"
            )
    else:
        ample = default_very_ample(surface)
    # a blowup is refused by now; A2 runs first because it refuses a class
    # that is not effective, then one over the cap, before A1 walks the box
    a2 = check_a2(surface, divisor)
    return [check_a1(surface, divisor, ample), a2, check_a3(surface, divisor)], ample


def _entry(name: str, failure: str | None, passing: str | None = None) -> dict:
    """A check fails with the witness `failure`, or passes with `passing`."""
    witness = passing if failure is None else failure
    return {"name": name, "pass": failure is None, "witness": witness}


def _condition_entry(surface: Surface, rep: ConditionReport) -> dict:
    from .conditions import describe

    return _entry(rep.condition, None if rep.passed else describe(surface, rep.witness))


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


def _check_conditions(series: ThetaSeries, ample_text: str | None):
    yield from _condition_reports(series.ctx.surface, series.ctx.L, ample_text)[0]


def _check_zseries(series: ThetaSeries, ample_text: str | None):
    failures = (
        f"n={n}: closed form {h0} != summand count {summed}"
        for n, (h0, summed) in enumerate(zip(series.h0.coeffs, series.summed.coeffs))
        if h0 != summed
    )
    yield _entry("series-consistency", next(failures, None))


def _check_invariants(series: ThetaSeries, ample_text: str | None):
    from .conditions import Branch
    from .theta import step_failure

    branch, rank = series.ctx.branch, series.bundle.rank
    # h^0(J, Theta^r) = r^g on a compactified Jacobian fiber, and 1 on the
    # genus <= 0 branch, whose fiber is a point (the zero class has g = 1 there)
    expected = 1 if branch is Branch.GENUS_NONPOSITIVE else series.r**series.ctx.genus
    yield _entry("rank", None if rank == expected else f"rank {rank} != {expected}")
    if branch.value in _STEP_CHECKS:
        bad = step_failure(branch, max(2, series.r))
        yield _entry(_STEP_CHECKS[branch.value], None if bad is None else f"fails at power {bad}")
    h0, chi = series.h0.coeffs, series.chi.coeffs
    yield _entry("no-higher-cohomology", next(
        (f"n={n}: chi {c} != h0 {h}" for n, (c, h) in enumerate(zip(chi, h0)) if c != h), None
    ))
    yield _entry("nonnegative-coefficients", next(
        (f"coefficient of t^{n} is {h}" for n, h in enumerate(h0) if h < 0), None
    ))


def _check_g2cohom(series: ThetaSeries, ample_text: str | None):
    from .conditions import Branch
    from .theta import verify_genus2_cohomology

    ctx, top = series.ctx, max(2, series.r)
    if ctx.branch is not Branch.GENUS_TWO:
        raise UnsupportedBranchError(
            "the genus-2 cohomology check applies only to the genus-2 classes "
            "2G+(e+3)F on F_0 and F_1"
        )
    powers = range(2, top + 1)
    bad = next((s for s in powers if not verify_genus2_cohomology(ctx.surface.e, s).ok), None)
    yield _entry(
        "genus2-cohomology",
        None if bad is None else f"fails at power {bad}",
        f"verified h0 = r+1, h1 = r-2 and vanishings for r in [2, {top}]",
    )


def _check_dualizing(series: ThetaSeries, ample_text: str | None):
    # the pullback of O(1) is trivial on each fiber of the support map, so the
    # dualizing sheaf of each fiber is trivial whatever the twist L.K
    twist = intersect(series.ctx.surface, series.ctx.L, series.ctx.surface.canonical)
    passing = f"twist L.K = {twist}; restriction to each support fiber is trivial"
    yield _entry("dualizing-twist", None, passing)


#: The report checks by name, in the order `--checks` lists them.  Each is a
#: generator over the series and the --ample text: it yields its entries, and
#: A1-A3 as condition reports, whose details the text view prints too.
_CHECKS = {
    "conditions": _check_conditions,
    "zseries": _check_zseries,
    "invariants": _check_invariants,
    "g2cohom": _check_g2cohom,
    "dualizing": _check_dualizing,
}
ALL_CHECKS = tuple(_CHECKS)


def _run_checks(series: ThetaSeries, checks: tuple[str, ...], ample_text: str | None):
    """Run the checks in order; each reads the columns it needs from `series`."""
    from .conditions import ConditionReport

    entries: list[dict] = []
    condition_reports: list[ConditionReport] = []
    for check in checks:
        for item in _CHECKS[check](series, ample_text):
            if isinstance(item, ConditionReport):
                condition_reports.append(item)
                item = _condition_entry(series.ctx.surface, item)
            entries.append(item)
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
    from .powerseries import format_polynomial

    ctx = series.ctx
    lines = _fields(11, ctx.surface, [
        ("class", payload["context"]["class"]),
        ("branch", payload["branch"]),
        ("genus", ctx.genus),
        ("dim |L|", ctx.l),
    ])
    lines.append(
        f"Z(t) = ({format_polynomial(series.bundle.numerator())}) / (1 - t)^{ctx.l + 1}"
        f"    [{series.provenance}]"
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
    if args.ample is not None and "conditions" not in checks:
        raise ClassParseError("--ample applies only to --checks conditions")
    from .theta import ThetaSeries, theta_context  # past the exit-2 refusals

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
    except ValueError as exc:
        code, message = 2, str(exc)
    except AssertionError as exc:
        code, message = 5, "internal invariant failed: " + str(exc).split("\n")[0]
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
