"""Record the report digests the benchmark's correctness gate compares against.

    python3 bench/record_digests.py

Runs every invocation any seed can generate, once each, and writes the
sha256 of its JSON report to bench/digests.json.  It refuses to record an
invocation that does not exit 0 with every report "pass".  Re-record only
when a change is meant to alter report bytes, and say so in that change.
"""

from __future__ import annotations

import hashlib
import json
import sys

import run


def main() -> None:
    digests = {}
    for workload in sorted(run.WORKLOADS):
        for k in run.JITTER:
            for argv in run.invocations(workload, k):
                key = run.digest_key(argv)
                if key in digests:
                    continue
                record = run.spawn(argv)
                report = record.get("report", "")
                digest = hashlib.sha256(report.encode("utf-8")).hexdigest()
                failure = run.gate(record, digest)
                if failure:
                    sys.exit(f"{key}: {failure}")
                digests[key] = digest
                print(f"{digest}  {key}", flush=True)
    run.DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n",
                           encoding="utf-8")


if __name__ == "__main__":
    main()
