"""Run the four traced `bench/run.py` smoke runs and check each one.

Usage: python3 .github/check_smoke.py

Runs inverse, verify, sweep and moments, one at a time, with seed 1,
``--trace 1`` and 1.4, 1, 1 and 1.25 seconds.  A run's last two stdout
lines are its JSON report and result.  Exits 0 when every run exits 0,
reports "correct": true and names no layer function left unwrapped;
otherwise exits 1 at the first run that does not, naming its workload and
saying why on stderr: its exit status, the unwrapped names, or the result's
"correct" with the report's failures by kind.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = (("inverse", "1.4"), ("verify", "1"), ("sweep", "1"), ("moments", "1.25"))

for workload, seconds in RUNS:
    print("traced smoke run: %s" % workload, flush=True)
    argv = ["--workload", workload, "--seed", "1", "--seconds", seconds, "--trace", "1"]
    run = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), *argv], stdout=subprocess.PIPE, text=True)
    if run.returncode != 0:
        sys.exit("%s: bench/run.py exited with status %d" % (workload, run.returncode))
    report, result = (json.loads(line) for line in run.stdout.splitlines()[-2:])
    missing = report.get("missing_layer_functions")
    if missing:
        sys.exit("%s: missing_layer_functions: %s" % (workload, ", ".join(missing)))
    if result.get("correct") is not True:
        correct, failures = json.dumps(result.get("correct")), json.dumps(report.get("failures"))
        sys.exit("%s: correct: %s, failures: %s" % (workload, correct, failures))
