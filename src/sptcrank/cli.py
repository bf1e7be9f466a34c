"""Command-line front end: coefficient dumps, verification sweeps, reports.

Output is deterministic: identical inputs produce byte-identical text,
CSV, and JSON.  Timing is therefore excluded from reports by default
(elapsedMs is emitted as 0); pass --timing to include measured values.
There is no randomness anywhere in the tool.

Exit codes: 0 all checks pass; 1 at least one verification failure;
2 usage/configuration error; 3 resource guard triggered; 4 internal error
(an unexpected exception, reported as one "error: internal: ..." line).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import traceback

from . import bounds, lattice, qseries, verify

ENV_PREFIX = "SPTCRANK_"

CSV_COLUMNS = ("check", "m", "n", "value", "expected")

# Each family f is built by qseries.<f>_series, looked up when called.
_COEFF_FAMILIES = ("mc1", "mc5", "x", "y", "z")


def _env(name: str) -> str | None:
    return os.environ.get(ENV_PREFIX + name)


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
    p.add_argument("--csv", action="store_true", help="emit CSV")
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.add_argument("--out", default=_env("OUT"), help="write output to PATH")
    p.add_argument(
        "--timing",
        action="store_true",
        help="include measured elapsed times (breaks byte-identical output)",
    )


def _add_sweep_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--m-max", type=int, default=verify.SweepConfig.m_max)
    p.add_argument("--n-max", type=int, default=verify.SweepConfig.n_max)
    p.add_argument(
        "--bivariate-order", type=int, default=verify.SweepConfig.bivariate_order
    )
    p.add_argument(
        "--parallel",
        type=int,
        # argparse converts a string default with `type`, so a malformed
        # environment value is a usage error like a malformed flag.
        default=_env("PARALLEL") or 1,
        help="number of worker processes for per-m sweeps",
    )
    p.add_argument(
        "--override-resource-guard",
        action="store_true",
        default=_env("OVERRIDE_RESOURCE_GUARD") == "1",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sptcrank",
        description="Exact verification of nonnegativity for the spt-crank "
        "counting functions M_C1(m,n) and M_C5(m,n).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeff", help="print coefficients of a series family")
    p.add_argument("--family", choices=_COEFF_FAMILIES, required=True)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--n-max", type=int, required=True)
    _add_format_flags(p)

    p = sub.add_parser("verify", help="run a named check or all checks")
    p.add_argument("--check", default="all", help="check id or 'all'")
    _add_sweep_flags(p)
    _add_format_flags(p)

    p = sub.add_parser(
        "finite-window", help="the fixed sweep over 0<=m<=120, 20m<n<f(m)"
    )
    _add_sweep_flags(p)
    _add_format_flags(p)

    p = sub.add_parser("cross-check", help="alias for verify --check cross")
    _add_sweep_flags(p)
    _add_format_flags(p)

    p = sub.add_parser("lattice", help="region counts and geometry figures")
    p.add_argument(
        "--region", choices=[k.value for k in lattice.RegionKind], required=True
    )
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_format_flags(p)

    p = sub.add_parser("bounds", help="threshold profile table f(m) vs 20m")
    p.add_argument("--m-max", type=int, required=True)
    _add_format_flags(p)

    return parser


def _cmd_coeff(args) -> int:
    if args.n_max < 1:
        raise ValueError("--n-max must be >= 1")
    # mc1/mc5 are symmetric in m and take |m|; x/y/z reject m < 0 (exit 2).
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
    cfg = verify.SweepConfig(
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
    spec = lattice.RegionSpec(lattice.RegionKind(args.region), args.m, args.n)
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
        raise ValueError("--m-max must be non-negative")
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


def run_cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    handlers = {
        "coeff": _cmd_coeff,
        "verify": lambda a: _run_and_emit(
            a, verify.CHECK_IDS if a.check == "all" else (a.check,)
        ),
        "finite-window": lambda a: _run_and_emit(a, ("finite-window",)),
        "cross-check": lambda a: _run_and_emit(a, ("cross",)),
        "lattice": _cmd_lattice,
        "bounds": _cmd_bounds,
    }
    try:
        return handlers[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except verify.ResourceGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a bug, not a failed check: exit 4, never 1
        where = traceback.extract_tb(exc.__traceback__)[-1]
        print(f"error: internal: {exc!r} at {where.filename}:{where.lineno}",
              file=sys.stderr)
        return 4


def console_main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    console_main()
