"""Benchmark of the sptcrank verifier, driven one CLI invocation at a time.

    python3 bench/run.py --workload conjecture --seed 1 --seconds 40 --trace 0

Each invocation runs `sptcrank.cli.run_cli` in a fresh interpreter
(bench/child.py with PYTHONPATH=src, always --parallel 1), because users
pay every per-invocation cost, imports and caches included, on every run.
A sample is one pass over the workload's invocations.  Samples run back to
back, a closed loop with one client, while the time budget lasts.  The
seed picks the workload's grid; the program sees only the generated argv.

Every invocation passes a correctness gate or fails its sample: exit code
0, non-empty output, every report "pass", and the JSON report's sha256
equal to the digest recorded in bench/digests.json for that argv.

End-to-end metrics (--trace 0):
  wall_s        run_cli entry to return, summed over the workload's
                invocations, median over samples, at reference speed
  values_per_s  (m, n) grid values the workload verifies, over wall_s
  setup_s       fresh interpreter to `sptcrank.cli` imported, median of
                the set-up probes run before each sample, at reference speed
  peak_rss_mb   median over samples of the largest child's peak RSS
Times "at reference speed" are measured times multiplied by the run's
host scale, REF_S over the median time of a fixed pure-Python loop that
every set-up probe runs (bench/child.py).  On a shared host other tenants
change how fast this one runs by up to half, for seconds to minutes; the
loop slows with the program, while no change to the program moves the
loop.  Over ten 40 s runs of `conjecture` on a shared 2-vCPU Xeon VM the
spread (IQR over median) of wall_s was 25% as measured and 9% at
reference speed; between two such sets 40 minutes apart the measured
median moved 28% and the one at reference speed 1%.  The provenance
record gives the host scale, so measured times can be recovered.
The share of failed samples (failed_frac) is printed with them and is the
result's failed/attempted; it is no metric, since it is 0 when all is well.

--trace 1 alternates untraced and traced samples and prints the per-layer
metrics of BENCHMARK.json (see bench/spans.py), tracing overhead included.
The last line of standard output is the result object; the lines before
it hold the provenance record and a readable summary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NoReturn

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "child.py"
DIGESTS = BENCH / "digests.json"
OUT = BENCH / "out"

COMMON_FLAGS = ("--parallel", "1", "--json")
# The seed moves each perturbed grid bound by this many steps of about 0.2%.
JITTER = (-2, -1, 0, 1, 2)
PROBES_PER_SAMPLE = 3
# About the reference loop's time on a 2-vCPU Xeon VM at its usual speed,
# so that times at reference speed read close to measured ones there.
REF_S = 0.08
# A run, hung children included, ends within this many seconds.
RUN_LIMIT_S = 170


def _conjecture(k: int) -> list:
    return [["verify", "--check", "conjecture", "--m-max", "20", "--n-max", str(1000 + 2 * k)]]


def _proof(k: int) -> list:
    # m <= 120 is the paper's fixed window, so only y-nonneg's n range moves.
    return [
        ["verify", "--check", "x-small-n", "--m-max", "120"],
        ["finite-window"],
        ["verify", "--check", "y-nonneg", "--m-max", "120", "--n-max", str(2400 + 5 * k)],
    ]


def _cross(k: int) -> list:
    return [["verify", "--check", "cross", "--m-max", "30",
             "--n-max", str(2000 + 4 * k), "--bivariate-order", "60"]]


WORKLOADS = {"conjecture": _conjecture, "proof": _proof, "cross": _cross}


def invocations(workload: str, k: int) -> list:
    """The CLI argv of each invocation of `workload` at jitter step k."""
    return [argv + list(COMMON_FLAGS) for argv in WORKLOADS[workload](k)]


def seed_jitter(workload: str, seed: int) -> int:
    return random.Random(f"{workload}/{seed}").choice(JITTER)


def _finite_window_values() -> int:
    """Points 20m < n < f(m), 0 <= m <= 120, f(m) being the paper's threshold."""
    ln2 = math.log(2.0)
    total = 0
    for m in range(121):
        f = (2.0 * (6.0 + math.sqrt(36.0 + (m + 2) * ln2)) / ln2) ** 2
        total += max(0, math.ceil(f) - 1 - 20 * m)
    return total


def grid_values(argv: list) -> int:
    """(m, n) grid points the invocation verifies, counted from its argv."""
    if argv[0] == "finite-window":
        return _finite_window_values()
    opt = dict(zip(argv, argv[1:]))
    m_max = int(opt["--m-max"])
    if opt["--check"] == "x-small-n":
        return sum(20 * m + 1 for m in range(1, m_max + 1))
    return (m_max + 1) * int(opt["--n-max"])


def digest_key(argv: list) -> str:
    return " ".join(argv)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("SPTCRANK_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list, spans_path: Path | None = None, run_id: str = "",
          timeout: float = RUN_LIMIT_S) -> dict:
    """Run one invocation (a set-up probe when argv is empty) in a fresh child.

    Returns the child's record plus "setup_s" (and, traced, "spans"), or
    {"error": ...} when the child died, timed out or printed no record.
    """
    cmd = [sys.executable, str(CHILD)]
    if spans_path is not None:
        cmd += ["--spans", str(spans_path), "--run-id", run_id]
    cmd += ["--", *argv]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s"}
    lines = proc.stdout.splitlines()
    try:
        record = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except ValueError:
        record = None
    if record is None:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no record"]
        return {"error": f"child exited {proc.returncode}: {tail[0]}"}
    record["setup_s"] = record["imported"] - t0
    if spans_path is not None:
        record["spans"] = str(spans_path)
    return record


def gate(record: dict, expected_digest: str) -> str | None:
    """Why an invocation fails the correctness gate, or None if it passes."""
    if "error" in record:
        return record["error"]
    if record["rc"] != 0:
        return f"exit code {record['rc']}"
    report = record["report"]
    if not report:
        return "empty output"
    try:
        statuses = [r["status"] for r in json.loads(report)["reports"]]
    except (ValueError, KeyError, TypeError):
        return "output is not a JSON report"
    if not statuses or any(s != "pass" for s in statuses):
        return f"report statuses {statuses}"
    digest = hashlib.sha256(report.encode("utf-8")).hexdigest()
    if digest != expected_digest:
        return f"report sha256 {digest} != recorded {expected_digest}"
    return None


def git_sha() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _fail(message: str) -> NoReturn:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Run samples of `workload` for about `seconds` and gather their records."""
    k = seed_jitter(workload, seed)
    argvs = invocations(workload, k)
    digests = json.loads(DIGESTS.read_text(encoding="utf-8"))
    missing = [digest_key(a) for a in argvs if digest_key(a) not in digests]
    if missing:
        _fail(f"no recorded digest for {missing}")
    start = time.monotonic()

    def left() -> float:
        return max(1.0, start + RUN_LIMIT_S - time.monotonic())

    # The first import also warms the bytecode cache, so it is not a probe.
    warm = spawn([], timeout=left())
    if "error" in warm:
        _fail(f"cannot import sptcrank.cli from {SRC}: {warm['error']}")
    OUT.mkdir(exist_ok=True)
    kinds = (False, True) if trace else (False,)
    last = {}
    probes = []
    samples = []
    while True:
        traced = kinds[len(samples) % len(kinds)]
        elapsed = time.monotonic() - start
        if len(samples) >= len(kinds) and elapsed + last[traced] > seconds:
            break
        # Set-up probes before each sample spread them over the run, as the
        # host's speed changes during it.
        probes += [spawn([], timeout=left()) for _ in range(PROBES_PER_SAMPLE)]
        t0 = time.monotonic()
        records = []
        for step, argv in enumerate(argvs):
            path = OUT / f"{workload}-{step}-sample{len(samples)}.spans" if traced else None
            run_id = f"{workload}-seed{seed}-sample{len(samples)}-step{step}"
            records.append(spawn(argv, path, run_id, left()))
        last[traced] = time.monotonic() - t0
        reasons = [gate(r, digests[digest_key(a)]) for r, a in zip(records, argvs)]
        failure = next((r for r in reasons if r), None)
        if failure:
            print(f"bench: sample {len(samples)} failed: {failure}", file=sys.stderr)
        samples.append({"traced": traced, "records": records, "failure": failure})
    return {"workload": workload, "k": k, "argvs": argvs, "probes": probes,
            "samples": samples}


def _timed(run: dict, traced: bool) -> list:
    """Record lists of the samples of one kind that passed the correctness gate."""
    return [s["records"] for s in run["samples"] if s["traced"] is traced and not s["failure"]]


def _wall(records: list) -> float:
    return sum(r["wall_s"] for r in records)


def _median_wall(samples: list) -> float:
    """Median over samples of the wall time summed over their invocations.

    On a shared host other tenants speed up or slow down a run in bursts
    lasting from a fraction of a second to minutes.  The fastest sample
    catches the rare quiet burst, so over 15 stretches of 6 `proof` samples
    on a shared 2-vCPU VM its spread (IQR over median) was 21%, against
    12% for the median.
    """
    return statistics.median(map(_wall, samples))


def host_scale(run: dict) -> float:
    """REF_S over the median reference-loop time of the run's set-up probes."""
    refs = [r["ref_s"] for r in run["probes"] if "error" not in r]
    if not refs:
        _fail("no set-up probe reported")
    return REF_S / statistics.median(refs)


def end_to_end(run: dict) -> dict:
    """End-to-end metrics of the untraced samples and the set-up probes."""
    timed = _timed(run, False)
    if not timed:
        _fail("no sample produced timings")
    scale = host_scale(run)
    wall = _median_wall(timed) * scale
    return {
        "wall_s": wall,
        "values_per_s": sum(grid_values(a) for a in run["argvs"]) / wall,
        "setup_s": statistics.median(r["setup_s"] for r in run["probes"]
                                     if "error" not in r) * scale,
        "peak_rss_mb": statistics.median(max(r["maxrss_kb"] for r in recs) / 1024
                                         for recs in timed),
    }


def per_layer(run: dict) -> dict:
    """Layer metrics of the traced sample of median wall time.

    Self times are at reference speed, like the end-to-end times.  Its
    spans are kept as bench/out/<workload>-<step>.spans and the spans
    of the other traced samples are deleted.
    """
    traced, plain = _timed(run, True), _timed(run, False)
    if not traced or not plain:
        _fail("no traced and untraced sample pair produced timings")
    chosen = sorted(traced, key=_wall)[(len(traced) - 1) // 2]
    for step, r in enumerate(chosen):
        os.replace(r["spans"], OUT / f"{run['workload']}-{step}.spans")
    for stale in OUT.glob(f"{run['workload']}-*-sample*.spans"):
        stale.unlink()
    scale = host_scale(run)
    metrics = {name: value * scale if name.endswith(".self_s") else value
               for name, value in spans.layer_metrics([r["layers"] for r in chosen]).items()}
    metrics["trace.overhead_frac"] = _median_wall(traced) / _median_wall(plain) - 1
    return metrics


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if opts.trace else "end_to_end"]
    run = measure(opts.workload, opts.seed, opts.seconds, bool(opts.trace))
    values = per_layer(run) if opts.trace else end_to_end(run)
    if set(values) != {m["name"] for m in declared}:
        _fail(f"measured {sorted(values)} but BENCHMARK.json declares other metrics")
    samples = run["samples"]
    failed = sum(1 for s in samples if s["failure"])
    print(json.dumps({"provenance": {
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "workload": opts.workload,
        "seed": opts.seed,
        "jitter_step": run["k"],
        "invocations": run["argvs"],
        "grid_values": sum(grid_values(a) for a in run["argvs"]),
        "samples": sum(1 for s in samples if not s["traced"]),
        "traced_samples": sum(1 for s in samples if s["traced"]),
        "setup_probes": len(run["probes"]),
        "host_scale": host_scale(run),
    }}))
    for m in declared:
        print(f"{m['name']} {values[m['name']]!r} {m['unit']}")
    print(f"failed_frac {failed / len(samples)!r} ratio ({failed} of {len(samples)} samples)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))


if __name__ == "__main__":
    main()
