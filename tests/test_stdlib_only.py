"""src/ runs on the standard library alone, with the same report bytes.

A child interpreter started with `-I -S -B` sees no site-packages, no
PYTHONPATH and no user site, and writes no bytecode cache; src/ is put
first on its sys.path.  It runs every sweep check on a small grid at
--parallel 1 and 2.  Each report must equal, byte for byte, the report of
the same argv run in this process, and the child must have imported none
of the packages that only the tests use.  Right after `import sptcrank.cli`
the child must also hold none of STARTUP_UNUSED: modules that no check
needs, which would only add to the start-up of every invocation.  --csv
imports csv where it writes, so one --csv argv runs that import here too.
"""

import json
import subprocess
import sys
from pathlib import Path

import sptcrank
from sptcrank.cli import run_cli

SRC = str(Path(sptcrank.__file__).resolve().parents[1])
TEST_ONLY = ("mpmath", "hypothesis", "sympy", "pytest")
STARTUP_UNUSED = ("dataclasses", "inspect", "traceback", "csv", "concurrent.futures",
                  "multiprocessing")
ARGVS = (
    ["verify", "--check", "y-nonneg", "--m-max", "12", "--n-max", "400", "--json"],
    ["verify", "--check", "cross", "--m-max", "12", "--n-max", "400",
     "--bivariate-order", "20", "--json"],
    ["verify", "--check", "x-small-n", "--m-max", "40", "--json"],
    ["finite-window", "--json"],
    ["verify", "--check", "conjecture", "--m-max", "20", "--n-max", "1000", "--json"],
    ["verify", "--check", "cross", "--m-max", "12", "--n-max", "400",
     "--bivariate-order", "20", "--csv"],
)

# argv: SRC, a JSON list of CLI argvs, the JSON list TEST_ONLY; prints
# {"startup": [modules loaded once sptcrank.cli is imported], "runs":
# [[exit code, stdout], ...], "loaded": [test-only modules loaded]}
CHILD = """
import contextlib, io, json, sys
src, argvs, test_only = sys.argv[1], json.loads(sys.argv[2]), json.loads(sys.argv[3])
sys.path.insert(0, src)
from sptcrank.cli import run_cli
startup = sorted(sys.modules)
runs = []
for argv in argvs:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run_cli(argv)
    runs.append([code, out.getvalue()])
print(json.dumps({"startup": startup, "runs": runs,
                  "loaded": sorted(set(test_only) & set(sys.modules))}))
"""


def test_src_runs_on_the_standard_library_alone(capsys):
    argvs = [argv + ["--parallel", p] for argv in ARGVS for p in ("1", "2")]
    child = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", CHILD, SRC, json.dumps(argvs), json.dumps(TEST_ONLY)],
        capture_output=True, text=True, timeout=300, check=True,
    )
    got = json.loads(child.stdout)
    assert got["loaded"] == []
    assert sorted(set(STARTUP_UNUSED) & set(got["startup"])) == []
    runs = iter(got["runs"])  # each argv at --parallel 1, then 2
    for argv in ARGVS:
        assert run_cli(argv) == 0
        want = [0, capsys.readouterr().out]
        assert [next(runs), next(runs)] == [want, want], argv
