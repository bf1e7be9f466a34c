"""Command-line front end: coefficient dumps, verification sweeps, reports.

Output is deterministic: identical inputs produce byte-identical text,
CSV, and JSON.  Timing is therefore excluded from reports by default
(elapsedMs is emitted as 0); pass --timing to include measured values.
There is no randomness anywhere in the tool.

Exit codes: 0 all checks pass; 1 at least one verification failure;
2 usage/configuration error; 3 resource guard triggered.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from . import bounds, lattice, qseries, verify

ENV_PREFIX = "SPTCRANK_"

CSV_COLUMNS = ("check", "m", "n", "value", "expected")

_COEFF_FAMILIES = {
    "mc1": qseries.mc1_series,
    "mc5": qseries.mc5_series,
    "x": qseries.x_series,
    "y": qseries.y_series,
    "z": qseries.z_series,
}


def _env(name: str) -> str | None:
    return os.environ.get(ENV_PREFIX + name)


def _write_out(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_text(rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_COLUMNS)
    for r in rows:
        w.writerow(r)
    return buf.getvalue()


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _report_payload(cfg: verify.SweepConfig, reports, timing: bool):
    return {
        "schemaVersion": 1,
        "tool": {"name": verify.TOOL_NAME, "version": verify.TOOL_VERSION},
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
    rows = []
    for r in reports:
        for v in r.violations:
            rows.append((r.check_id, v.m, v.n, v.value, v.expected))
        rows.append((r.check_id, "", "", r.status, r.range_desc))
    return rows


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


def _emit_reports(args, cfg, reports) -> None:
    if args.json:
        text = _json_text(_report_payload(cfg, reports, args.timing))
    elif args.csv:
        text = _csv_text(_report_rows(reports))
    else:
        text = _report_text(reports, args.timing)
    _write_out(text, args.out)


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
    p.add_argument("--m-max", type=int, default=None)
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--bivariate-order", type=int, default=None)
    p.add_argument(
        "--parallel",
        type=int,
        default=int(_env("PARALLEL") or 1),
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
    p.add_argument("--family", choices=sorted(_COEFF_FAMILIES), required=True)
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


def _make_config(args, checks: tuple) -> verify.SweepConfig:
    kwargs = {"checks": checks, "parallelism": args.parallel,
              "override_resource_guard": args.override_resource_guard}
    if getattr(args, "m_max", None) is not None:
        kwargs["m_max"] = args.m_max
    if getattr(args, "n_max", None) is not None:
        kwargs["n_max"] = args.n_max
    if getattr(args, "bivariate_order", None) is not None:
        kwargs["bivariate_order"] = args.bivariate_order
    return verify.SweepConfig(**kwargs)


def _cmd_coeff(args) -> int:
    if args.n_max < 1 or args.family not in _COEFF_FAMILIES:
        print("error: --n-max must be >= 1", file=sys.stderr)
        return 2
    # mc1/mc5 are symmetric in m and take |m|; x/y/z reject m < 0 (exit 2).
    s = _COEFF_FAMILIES[args.family](args.m, args.n_max)
    rows = [
        (args.family, args.m, n, str(s[n]), "") for n in range(1, args.n_max + 1)
    ]
    if args.json:
        payload = {
            "schemaVersion": 1,
            "tool": {"name": verify.TOOL_NAME, "version": verify.TOOL_VERSION},
            "records": [
                {"kind": "coefficient", "check": c, "m": mm, "n": n, "value": v}
                for c, mm, n, v, _ in rows
            ],
        }
        text = _json_text(payload)
    elif args.csv:
        text = _csv_text(rows)
    else:
        text = "".join(f"{c} m={mm} n={n} {v}\n" for c, mm, n, v, _ in rows)
    _write_out(text, args.out)
    return 0


def _run_and_emit(args, checks) -> int:
    try:
        cfg = _make_config(args, checks)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        reports = verify.run_checks(cfg)
    except verify.ResourceGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    _emit_reports(args, cfg, reports)
    return 0 if all(r.status == "pass" for r in reports) else 1


def _cmd_verify(args) -> int:
    if args.check == "all":
        checks = verify.CHECK_IDS
    elif args.check in verify.CHECK_IDS:
        checks = (args.check,)
    else:
        print(
            f"error: unknown check {args.check!r}; choose from "
            f"{', '.join(verify.CHECK_IDS)} or 'all'",
            file=sys.stderr,
        )
        return 2
    return _run_and_emit(args, checks)


def _cmd_finite_window(args) -> int:
    return _run_and_emit(args, ("finite-window",))


def _cmd_lattice(args) -> int:
    if args.n < 0 or args.m < 0:
        print("error: m and n must be non-negative", file=sys.stderr)
        return 2
    kind = lattice.RegionKind(args.region)
    spec = lattice.RegionSpec(kind, args.m, args.n)
    cnt = lattice.count_region(spec)
    fig = lattice.geometry_figures(spec)
    if args.json:
        payload = {
            "schemaVersion": 1,
            "tool": {"name": verify.TOOL_NAME, "version": verify.TOOL_VERSION},
            "region": args.region,
            "m": args.m,
            "n": args.n,
            "total": str(cnt.total),
            "oddY": str(cnt.odd_y),
            "area": fig.area,
            "lengthBound": fig.length_bound,
            "xExtentBound": fig.x_extent_bound,
            "vertices": [list(v) for v in fig.vertices],
        }
        text = _json_text(payload)
    elif args.csv:
        base = f"lattice-{args.region}"
        rows = [
            (base, args.m, args.n, str(cnt.total), "total"),
            (base, args.m, args.n, str(cnt.odd_y), "oddY"),
            (base, args.m, args.n, repr(fig.area), "area"),
            (base, args.m, args.n, repr(fig.length_bound), "lengthBound"),
            (base, args.m, args.n, repr(fig.x_extent_bound), "xExtentBound"),
        ]
        text = _csv_text(rows)
    else:
        text = (
            f"region {args.region} m={args.m} n={args.n}\n"
            f"  total={cnt.total} oddY={cnt.odd_y}\n"
            f"  area={fig.area!r} lengthBound={fig.length_bound!r} "
            f"xExtentBound={fig.x_extent_bound!r}\n"
            f"  vertices={fig.vertices!r}\n"
        )
    _write_out(text, args.out)
    return 0


def _cmd_bounds(args) -> int:
    if args.m_max < 0:
        print("error: --m-max must be non-negative", file=sys.stderr)
        return 2
    profiles = [bounds.threshold_profile(m) for m in range(args.m_max + 1)]
    if args.json:
        payload = {
            "schemaVersion": 1,
            "tool": {"name": verify.TOOL_NAME, "version": verify.TOOL_VERSION},
            "records": [
                {
                    "kind": "summary",
                    "m": p.m,
                    "fValue": p.f_value,
                    "twentyM": p.twenty_m,
                    "fExceeds20m": p.f_exceeds_20m,
                }
                for p in profiles
            ],
        }
        text = _json_text(payload)
    elif args.csv:
        rows = [
            ("threshold", p.m, "", repr(p.f_value),
             "f(m)>20m" if p.f_exceeds_20m else "f(m)<20m")
            for p in profiles
        ]
        text = _csv_text(rows)
    else:
        lines = ["m f(m) 20m f(m)>20m"]
        lines += [
            f"{p.m} {p.f_value!r} {p.twenty_m} {'yes' if p.f_exceeds_20m else 'no'}"
            for p in profiles
        ]
        text = "\n".join(lines) + "\n"
    _write_out(text, args.out)
    return 0


def run_cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    handlers = {
        "coeff": _cmd_coeff,
        "verify": _cmd_verify,
        "finite-window": _cmd_finite_window,
        "cross-check": lambda a: _run_and_emit(a, ("cross",)),
        "lattice": _cmd_lattice,
        "bounds": _cmd_bounds,
    }
    try:
        return handlers[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    console_main()
