"""Record the benchmark's end-to-end metrics, the replays' digests and the code size in BENCH_<pr>.json.

Usage: python3 .github/bench_record.py --pr N [--runs K]

Runs ``bench/run.py --trace 0`` for each workload (inverse, moments, sweep,
verify) on seeds 1-3, K times each (default 1), one run at a time and as long
as BENCHMARK.json's ``run_seconds``, and writes
BENCH_<N>.json at the repository root with:

- for each workload, the median, min and max of each end-to-end metric over
  all its runs, and the number of runs;
- the line `replay.py` prints for each workload on seed 1 at its default
  block count: the series loop and point counts, ``series_digest`` and
  ``value_digest`` (``output_digest`` for moments), and the failures;
- the total row of `code_lines.py`;
- the host's ``os.cpu_count()``.

Each later change records its file with the same script on its own host, so
a trajectory of the metrics reads from the files in order.  A run takes
minutes (4 workloads x 3 seeds x K runs of 20 seconds each, plus set-up and
the replays), so CI does not run it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from code_lines import size  # the script's own directory is on sys.path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("inverse", "moments", "sweep", "verify")
SEEDS = (1, 2, 3)


def last_json_line(argv):
    """The last stdout line of a Python script run from the repository root, as JSON."""
    out = subprocess.run([sys.executable, *argv], cwd=ROOT, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="the number in the output file's name")
    parser.add_argument("--runs", type=int, default=1, help="runs per workload and seed")
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]

    workloads = {}
    for workload in WORKLOADS:
        runs = []
        for seed in SEEDS:
            for _ in range(args.runs):
                argv = ["bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
                runs.append(last_json_line(argv)["metrics"])
                print(workload, seed, json.dumps({name: m["value"] for name, m in runs[-1].items()}), file=sys.stderr)
        workloads[workload] = {"runs": len(runs)}
        for name, first in runs[0].items():
            values = [run[name]["value"] for run in runs]
            workloads[workload][name] = {
                "unit": first["unit"],
                "median": statistics.median(values),
                "min": min(values),
                "max": max(values),
            }

    replays = {workload: last_json_line([".github/replay.py", "--workload", workload, "--seeds", "1"]) for workload in WORKLOADS}
    rows = [size(path) for path in sorted((ROOT / "src" / "petalmap").glob("*.py"))]
    code = dict(zip(("code_lines", "lines", "constants", "definitions"), (sum(column) for column in zip(*rows))))
    record = {
        "pr": args.pr,
        "cpu_count": os.cpu_count(),
        "seeds": SEEDS,
        "seconds": seconds,
        "workloads": workloads,
        "replays": replays,
        "code": code,
    }
    path = ROOT / ("BENCH_%d.json" % args.pr)
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(path)


if __name__ == "__main__":
    main()
