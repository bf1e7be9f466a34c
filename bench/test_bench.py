"""Tests of the benchmark itself: tracing, counts, grid values and the gate.

    python3 -m pytest -q bench/test_bench.py

They run the CLI on small grids in child processes, as the benchmark does.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402

# Small enough to be quick, large enough that every layer does work.
SMALL_CROSS = ["verify", "--check", "cross", "--m-max", "4", "--n-max", "120",
               "--bivariate-order", "12", "--parallel", "1", "--json"]
SMALL_Y = ["verify", "--check", "y-nonneg", "--m-max", "3", "--n-max", "40",
           "--parallel", "1", "--json"]


def _traced(tmp_path, name, argv=SMALL_CROSS):
    record = run.spawn(argv, tmp_path / f"{name}.spans", name)
    assert "error" not in record, record
    return record


def _counts(record):
    metrics = spans.layer_metrics([record["layers"]])
    return {k: v for k, v in metrics.items() if not k.endswith(".self_s")}


def test_layer_counts_repeat_exactly(tmp_path):
    first, second = _traced(tmp_path, "a"), _traced(tmp_path, "b")
    assert _counts(first) == _counts(second)
    counts = _counts(first)
    assert counts["divisors.census_unique_ratio"] == 0.5
    assert counts["lattice.count_unique_ratio"] == 0.5
    assert all(first["layers"]["self_s"][layer] > 0 for layer in spans.LAYERS)


def test_divisor_calls_of_the_y_worker_are_counted(tmp_path):
    first, second = _traced(tmp_path, "y1", SMALL_Y), _traced(tmp_path, "y2", SMALL_Y)
    assert first["layers"]["calls"] == second["layers"]["calls"]
    calls = first["layers"]["calls"]
    census = calls["divisors.census"]
    assert census > 0
    # Once in the y-nonneg worker and once inside census itself.
    assert calls["divisors.OddPartDecomposition.of"] == 2 * census
    assert calls["divisors.containment_violation"] == census


def test_tracing_leaves_report_bytes_unchanged(tmp_path):
    plain = run.spawn(SMALL_CROSS)
    assert plain["rc"] == 0 and plain["report"]
    assert _traced(tmp_path, "t")["report"] == plain["report"]


def test_self_times_sum_to_traced_wall(tmp_path):
    record = _traced(tmp_path, "w")
    total = sum(record["layers"]["self_s"].values())
    # The only untracked remainder is the root wrapper's own entry and exit.
    assert total <= record["wall_s"]
    assert record["wall_s"] - total < 0.001 + 0.01 * record["wall_s"]


def test_spans_file_holds_every_span(tmp_path):
    record = _traced(tmp_path, "f")
    lines = (tmp_path / "f.spans").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "# run\tf"
    names = lines[1].split("\t")[1:]
    rows = [line.split("\t") for line in lines if not line.startswith("#")]
    assert len(rows) == sum(record["layers"]["calls"].values())
    parent, name, start, end = rows[0]
    assert (parent, names[int(name)], start) == ("-1", "cli.run_cli", "0")


def test_gate_trips_on_wrong_digest_and_empty_output():
    record = run.spawn(SMALL_CROSS)
    digest = hashlib.sha256(record["report"].encode("utf-8")).hexdigest()
    assert run.gate(record, digest) is None
    assert "sha256" in run.gate(record, "0" * 64)
    assert run.gate({**record, "report": ""}, digest) == "empty output"
    assert run.gate({**record, "rc": 1}, digest) == "exit code 1"
    failing = json.loads(record["report"])
    failing["reports"][0]["status"] = "fail"
    assert "statuses" in run.gate({**record, "report": json.dumps(failing)}, digest)


def test_gate_catches_silent_module_entry_point():
    # `python -m sptcrank.cli` exits 0 without writing anything.
    proc = subprocess.run([sys.executable, "-m", "sptcrank.cli", *SMALL_CROSS],
                          env=run.child_env(), capture_output=True, text=True, timeout=60)
    if proc.stdout:
        pytest.skip("the module entry point now writes its report")
    assert run.gate({"rc": proc.returncode, "report": proc.stdout}, "0" * 64) == "empty output"


def test_finite_window_values_match_report():
    record = run.spawn(["finite-window", "--parallel", "1", "--json"])
    (report,) = json.loads(record["report"])["reports"]
    (checked,) = [s["count"] for s in report["skipped"] if s["reason"] == "values checked"]
    assert run.grid_values(["finite-window"]) == checked


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_jitter_step_has_recorded_digests(workload):
    digests = json.loads(run.DIGESTS.read_text(encoding="utf-8"))
    for k in run.JITTER:
        for argv in run.invocations(workload, k):
            assert run.digest_key(argv) in digests


def test_declared_per_layer_metrics_match_measured(tmp_path):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    record = _traced(tmp_path, "d")
    measured = set(spans.layer_metrics([record["layers"]])) | {"trace.overhead_frac"}
    assert measured == {m["name"] for m in spec["per_layer"]}


def test_end_to_end_takes_medians_of_passing_samples_at_reference_speed():
    def rec(wall, setup=0.1, rss_kb=20480):
        return {"wall_s": wall, "setup_s": setup, "maxrss_kb": rss_kb}

    def probe(setup, ref):
        return {"setup_s": setup, "ref_s": ref}

    def sample(records, traced=False, failure=None):
        return {"traced": traced, "records": records, "failure": failure}

    argvs = run.invocations("proof", 0)
    metrics = run.end_to_end({
        "argvs": argvs,
        # The host runs the reference loop at half speed: times are halved.
        "probes": [probe(0.05, run.REF_S), probe(0.3, 2 * run.REF_S),
                   probe(0.07, 3 * run.REF_S)],
        "samples": [
            sample([rec(3.0), rec(0.2), rec(2.0)]),
            sample([rec(2.5), rec(0.3), rec(2.2)]),
            sample([rec(2.8), rec(0.25), rec(1.9, rss_kb=40960)]),
            # Neither a traced sample nor one that failed the gate is timed.
            sample([rec(0.1)] * 3, traced=True),
            sample([rec(0.1)] * 3, failure="report sha256 differs"),
        ],
    })
    assert metrics["wall_s"] == pytest.approx((2.5 + 0.3 + 2.2) / 2)
    assert metrics["values_per_s"] == pytest.approx(
        sum(map(run.grid_values, argvs)) / metrics["wall_s"])
    assert metrics["setup_s"] == pytest.approx(0.07 / 2)
    assert metrics["peak_rss_mb"] == 20.0
