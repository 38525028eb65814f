"""Check the output of one traced `bench/run.py` smoke run.

Usage: python3 .github/check_smoke.py RUN_STDOUT_FILE

The run's last two stdout lines are its JSON report and result.  Exits 0
when the result reports "correct": true and the report names no layer
function left unwrapped, 1 otherwise, saying why on stderr: the unwrapped
names, or the result's "correct" with the report's failures by kind.
"""

import json
import sys

with open(sys.argv[1]) as handle:
    report, result = (json.loads(line) for line in handle.read().splitlines()[-2:])
missing = report.get("missing_layer_functions")
if missing:
    sys.exit("missing_layer_functions: %s" % ", ".join(missing))
if result.get("correct") is not True:
    sys.exit("correct: %s, failures: %s" % (json.dumps(result.get("correct")), json.dumps(report.get("failures"))))
