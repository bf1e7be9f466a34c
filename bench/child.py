"""Run one sptcrank CLI invocation in this fresh interpreter and report on it.

    PYTHONPATH=src python3 bench/child.py [--spans PATH --run-id ID] -- ARGV...

Calls `sptcrank.cli.run_cli(ARGV)` with standard output captured and
prints one JSON line: the monotonic clock when `sptcrank.cli` finished
importing ("imported"), the exit code ("rc"), the captured report, the
wall time of the call, the peak RSS, and with --spans the per-layer
summary of a traced call (the spans go to PATH).  With no ARGV the child
is a set-up probe: it imports `sptcrank.cli` and then times a fixed loop
("ref_s") that measures the host's current speed.
"""

import sys
import time

import sptcrank.cli

# Taken before anything else is imported, so set-up time is the program's own.
IMPORTED = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402


def host_reference_s() -> float:
    """Wall time of a fixed pure-Python loop: how fast the host runs now.

    It updates a list of small integers, as the verifier's series and
    divisor loops do, but runs none of sptcrank's code, so no change to
    the program can move it.
    """
    a = list(range(6000))
    t0 = time.perf_counter()
    for k in range(1, 120):
        for i in range(k, 6000):
            a[i] = (a[i] + a[i - k]) % 1000003
    return time.perf_counter() - t0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", help="trace the call and write its spans here")
    parser.add_argument("--run-id", default="", help="run id recorded with the spans")
    parser.add_argument("cli_argv", nargs="*")
    opts = parser.parse_args()
    result = {"imported": IMPORTED}
    if opts.cli_argv:
        tracer = None
        if opts.spans:
            import spans

            tracer = spans.Tracer()
            tracer.install()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            t0 = time.perf_counter()
            rc = sptcrank.cli.run_cli(opts.cli_argv)
            wall = time.perf_counter() - t0
        result.update(rc=rc, report=out.getvalue(), wall_s=wall)
        if tracer is not None:
            tracer.write(opts.spans, opts.run_id)
            result["layers"] = tracer.summary()
    else:
        result["ref_s"] = host_reference_s()
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
