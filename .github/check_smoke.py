"""Check the output of one traced `bench/run.py` smoke run.

Usage: python3 .github/check_smoke.py RUN_STDOUT_FILE

The run's last two stdout lines are its JSON report and result.  Exits 0
when the result reports "correct": true and the report names no layer
function left unwrapped, 1 otherwise.
"""

import json
import sys

with open(sys.argv[1]) as handle:
    report, result = (json.loads(line) for line in handle.read().splitlines()[-2:])
sys.exit(0 if result.get("correct") is True and not report.get("missing_layer_functions") else 1)
