"""Command-line front end: coefficient dumps, verification sweeps, reports.

Output is deterministic: identical inputs produce byte-identical text,
CSV, and JSON.  --csv and --json are exclusive; without either the output
is text.  Timing is excluded from reports by default (elapsedMs is emitted
as 0); verify and finite-window take --timing to include measured values.
There is no randomness anywhere in the tool.

Exit codes: 0 all checks pass; 1 at least one verification failure;
2 usage/configuration error, found in the argv before any work starts;
3 resource guard triggered (verify, coeff, lattice and bounds take
--override-resource-guard); 4 internal error (an unexpected exception, a
ValueError raised while a check runs included, reported as one
"error: internal: ..." line).
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys

from . import bounds, lattice, qseries, verify

CSV_COLUMNS = ("check", "m", "n", "value", "expected")

# Each family f is built by qseries.<f>_series, looked up when called.
_COEFF_FAMILIES = ("mc1", "mc5", "x", "y", "z")


class _UsageError(Exception):
    """A bad argv, found before any work starts: exit 2.  Every other
    exception, a ValueError raised while a check runs included, is a fault
    of the program: exit 4."""


def _argv_checked(make, *args, **kwargs):
    """make(*args, **kwargs), a record that validates the argv's values, with
    its ValueError reported as a usage error."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise _UsageError(exc) from None


def _check_out(path: str) -> None:
    """Raise _UsageError unless PATH can be opened for writing.

    Opening for append neither truncates an existing file nor writes to
    it; a file that this check creates is removed again.
    """
    existed = os.path.lexists(path)
    try:
        with open(path, "a", encoding="utf-8"):
            pass
    except OSError as exc:
        raise _UsageError(f"cannot write --out {path}: {exc.strerror}") from None
    if not existed:
        os.remove(path)


def _emit(args, payload, rows, text) -> None:
    """Write the one output format that args ask for: JSON, CSV or text.

    payload (the JSON body after the schema header), rows (CSV rows under
    CSV_COLUMNS) and text are zero-argument callables, so only the
    requested output is built.
    """
    if args.json:
        doc = {
            "schemaVersion": 1,
            "tool": {"name": verify.TOOL_NAME, "version": verify.TOOL_VERSION},
            **payload(),
        }
        out = json.dumps(doc, indent=2) + "\n"
    elif args.csv:
        import csv  # here: no other output format needs it

        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(CSV_COLUMNS)
        w.writerows(rows())
        out = buf.getvalue()
    else:
        out = text()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)


def _report_payload(cfg: verify.SweepConfig, reports, timing: bool):
    return {
        "config": {
            "mMax": cfg.m_max,
            "nMax": cfg.n_max,
            "checks": list(cfg.checks),
            "bivariateOrder": cfg.bivariate_order,
        },
        "reports": [
            {
                "checkId": r.check_id,
                "range": r.range_desc,
                "status": r.status,
                "violations": [
                    {"m": v.m, "n": v.n, "value": v.value, "expected": v.expected}
                    for v in r.violations
                ],
                "skipped": r.skips,
                "elapsedMs": r.elapsed_ms if timing else 0,
            }
            for r in reports
        ],
    }


def _report_rows(reports):
    for r in reports:
        for v in r.violations:
            yield (r.check_id, v.m, v.n, v.value, v.expected)
        yield (r.check_id, "", "", r.status, r.range_desc)


def _report_text(reports, timing: bool) -> str:
    lines = []
    for r in reports:
        suffix = f" [{r.elapsed_ms} ms]" if timing else ""
        lines.append(
            f"{r.check_id}: {r.status} ({r.range_desc}, "
            f"{len(r.violations)} violations){suffix}"
        )
        for v in r.violations[:20]:
            lines.append(f"  violation m={v.m} n={v.n} value={v.value} expected: {v.expected}")
        if len(r.violations) > 20:
            lines.append(f"  ... {len(r.violations) - 20} more")
        for s in r.skips:
            lines.append(f"  note: {s['reason']}: {s['count']}")
    return "\n".join(lines) + "\n"


def _add_format_flags(p: argparse.ArgumentParser) -> None:
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--csv", action="store_true", help="emit CSV")
    fmt.add_argument("--json", action="store_true", help="emit JSON")
    p.add_argument("--out", help="write output to PATH")


def _add_guard_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--override-resource-guard",
        action="store_true",
        help="run even where the resource guard would refuse (exit 3)",
    )


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    """The flags of the subcommands that run checks and time them."""
    p.add_argument(
        "--parallel",
        type=int,
        default=1,
        help="number of worker processes, at most the CPU count: y-nonneg hands "
        "them blocks of n; every other check splits its m range into one run per worker",
    )
    p.add_argument(
        "--timing",
        action="store_true",
        help="include measured elapsed times (breaks byte-identical output)",
    )


def _coeff_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", choices=_COEFF_FAMILIES, required=True)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--n-max", type=int, required=True)
    _add_guard_flag(p)
    _add_format_flags(p)


def _verify_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--check", default="all", help="check id or 'all'")
    d = verify.SweepConfig()
    p.add_argument("--m-max", type=int, default=d.m_max)
    p.add_argument("--n-max", type=int, default=d.n_max)
    p.add_argument("--bivariate-order", type=int, default=d.bivariate_order)
    _add_guard_flag(p)
    _add_run_flags(p)
    _add_format_flags(p)


def _window_flags(p: argparse.ArgumentParser) -> None:
    # Its range is fixed and its guard weight is 0, so no range or guard flag
    # could change the run; the config echo shows SweepConfig's defaults.
    _add_run_flags(p)
    d = verify.SweepConfig()
    p.set_defaults(m_max=d.m_max, n_max=d.n_max, bivariate_order=d.bivariate_order,
                   override_resource_guard=False)
    _add_format_flags(p)


def _lattice_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--region", choices=[k.value for k in lattice.RegionKind], required=True
    )
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_guard_flag(p)
    _add_format_flags(p)


def _bounds_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--m-max", type=int, required=True)
    _add_guard_flag(p)
    _add_format_flags(p)


def _cmd_coeff(args) -> int:
    if args.n_max < 1:
        raise _UsageError("--n-max must be >= 1")
    verify.guard(args.n_max + 1, args.override_resource_guard)
    # mc1/mc5 are symmetric in m and take |m|; x/y/z reject m < 0 (exit 2).
    if args.m < 0 and args.family not in ("mc1", "mc5"):
        raise _UsageError("m must be non-negative")
    s = getattr(qseries, f"{args.family}_series")(args.m, args.n_max)
    rows = [
        (args.family, args.m, n, str(s[n]), "") for n in range(1, args.n_max + 1)
    ]
    _emit(
        args,
        lambda: {
            "records": [
                {"kind": "coefficient", "check": c, "m": mm, "n": n, "value": v}
                for c, mm, n, v, _ in rows
            ]
        },
        lambda: rows,
        lambda: "".join(f"{c} m={mm} n={n} {v}\n" for c, mm, n, v, _ in rows),
    )
    return 0


def _run_and_emit(args, checks) -> int:
    cfg = _argv_checked(
        verify.SweepConfig,
        m_max=args.m_max,
        n_max=args.n_max,
        checks=checks,
        parallelism=args.parallel,
        bivariate_order=args.bivariate_order,
        override_resource_guard=args.override_resource_guard,
    )
    reports = verify.run_checks(cfg)
    _emit(
        args,
        lambda: _report_payload(cfg, reports, args.timing),
        lambda: _report_rows(reports),
        lambda: _report_text(reports, args.timing),
    )
    return 0 if all(r.status == "pass" for r in reports) else 1


def _cmd_lattice(args) -> int:
    spec = _argv_checked(lattice.RegionSpec, lattice.RegionKind(args.region), args.m, args.n)
    # lattice._columns walks at most min(m + isqrt(2(n+1)), n // 2) + 1 columns
    columns = min(args.m + math.isqrt(2 * (args.n + 1)), args.n // 2) + 1
    verify.guard(columns, args.override_resource_guard, "columns")
    cnt = lattice.count_region(spec)
    fig = lattice.geometry_figures(spec)
    # Counts are exact integers, emitted as strings; the figures are floats.
    values = {
        "total": str(cnt.total),
        "oddY": str(cnt.odd_y),
        "area": fig.area,
        "lengthBound": fig.length_bound,
        "xExtentBound": fig.x_extent_bound,
    }
    _emit(
        args,
        lambda: {
            "region": args.region,
            "m": args.m,
            "n": args.n,
            **values,
            "vertices": [list(v) for v in fig.vertices],
        },
        lambda: [
            (f"lattice-{args.region}", args.m, args.n, str(v), name)
            for name, v in values.items()
        ],
        lambda: (
            f"region {args.region} m={args.m} n={args.n}\n"
            f"  total={cnt.total} oddY={cnt.odd_y}\n"
            f"  area={fig.area!r} lengthBound={fig.length_bound!r} "
            f"xExtentBound={fig.x_extent_bound!r}\n"
            f"  vertices={fig.vertices!r}\n"
        ),
    )
    return 0


def _cmd_bounds(args) -> int:
    if args.m_max < 0:
        raise _UsageError("--m-max must be non-negative")
    verify.guard(args.m_max + 1, args.override_resource_guard, "rows")
    profiles = [bounds.threshold_profile(m) for m in range(args.m_max + 1)]
    _emit(
        args,
        lambda: {
            "records": [
                {
                    "kind": "summary",
                    "m": p.m,
                    "fValue": p.f_value,
                    "twentyM": p.twenty_m,
                    "fExceeds20m": p.f_exceeds_20m,
                }
                for p in profiles
            ]
        },
        lambda: [
            ("threshold", p.m, "", repr(p.f_value),
             "f(m)>20m" if p.f_exceeds_20m else "f(m)<20m")
            for p in profiles
        ],
        lambda: "m f(m) 20m f(m)>20m\n" + "".join(
            f"{p.m} {p.f_value!r} {p.twenty_m} {'yes' if p.f_exceeds_20m else 'no'}\n"
            for p in profiles
        ),
    )
    return 0


# Each subcommand, in help order: its help text, what adds its flags to its
# parser, and what runs it.
_COMMANDS = {
    "coeff": ("print coefficients of a series family", _coeff_flags, _cmd_coeff),
    "verify": (
        "run a named check or all checks", _verify_flags,
        lambda a: _run_and_emit(a, verify.CHECK_IDS if a.check == "all" else (a.check,)),
    ),
    "finite-window": (
        f"the fixed sweep over 0<=m<={verify.WINDOW_M[-1]}, 20m<n<f(m)", _window_flags,
        lambda a: _run_and_emit(a, ("finite-window",)),
    ),
    "lattice": ("region counts and geometry figures", _lattice_flags, _cmd_lattice),
    "bounds": ("threshold profile table f(m) vs 20m", _bounds_flags, _cmd_bounds),
}


def _parser(argv: list) -> argparse.ArgumentParser:
    """The parser of argv: every subcommand's name and help, and the flags
    only of the subcommand that argv names, or of all when it names none.

    argparse takes argv's first positional as the subcommand.  The top-level
    parser has no option that takes a value, so the first item of argv that
    names a subcommand is that positional, unless an earlier positional
    names none, which argparse refuses whatever flags were added.
    """
    parser = argparse.ArgumentParser(
        prog="sptcrank",
        description="Exact verification of nonnegativity for the spt-crank "
        "counting functions M_C1(m,n) and M_C5(m,n).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    named = next((a for a in argv if a in _COMMANDS), None)
    for name, (text, add_flags, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        if named in (None, name):
            add_flags(p)
    return parser


def run_cli(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parser(argv).parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.out:
            _check_out(args.out)
        return _COMMANDS[args.command][2](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except verify.ResourceGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a bug, not a failed check: exit 4, never 1
        tb = exc.__traceback__
        while tb.tb_next is not None:  # the innermost frame, where it was raised
            tb = tb.tb_next
        print(f"error: internal: {exc!r} at {tb.tb_frame.f_code.co_filename}:{tb.tb_lineno}",
              file=sys.stderr)
        return 4


def console_main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    console_main()
