"""Compare the benchmark's end-to-end metrics of a base revision and the working tree in alternating pairs of runs.

Usage: python3 .github/ab.py --base REV --workload W [--seed S] [--pairs K]

Exports REV with ``git archive`` into a temporary directory (local; the
repository's own ``.git`` keeps no trace of it, even if the run is cut
short), then runs ``bench/run.py --workload W --seed S --trace 0`` K times
in each tree (default seed 1, 10 pairs), as long as BENCHMARK.json's
``run_seconds``.  The runs alternate between the trees, and the side that
runs first switches every pair, so a drift of the host's speed falls on
both sides alike; each run pins its BLAS threads itself.  Then it runs
``.github/replay.py --workload W --seeds S`` in each tree.

Prints one line per end-to-end metric of BENCHMARK.json: the base's and
the tree's medians with their interquartile ranges, the ratio of the
medians (tree / base), the pairs the tree won (better by the metric's
direction; ties count for neither side) and a two-sided sign-test p over
the pairs that were not tied.  Then the two replay lines, and whether they
are equal.  It makes 2 K benchmark runs and two replays, so CI does not
run it.
"""

import argparse
import io
import json
import math
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def last_json_line(tree, argv):
    """The last stdout line of a Python script run in ``tree``, as JSON."""
    out = subprocess.run([sys.executable, *argv], cwd=tree, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def export(rev, dest):
    """Write the files of ``rev`` into ``dest``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # the "data" filter, where this Python has it, refuses links and paths out of dest
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))


def sign_test(wins, losses):
    """Two-sided sign-test p of ``wins`` against ``losses`` under equal odds."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, k) for k in range(min(wins, losses) + 1)) / 2.0**n
    return min(1.0, 2.0 * tail)


def spread(values):
    """The median and the interquartile range of ``values``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return statistics.median(values), q1, q3


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the revision to compare the working tree against")
    parser.add_argument("--workload", required=True, choices=("sweep", "verify", "inverse", "moments"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bench = ["bench/run.py", "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]

    with tempfile.TemporaryDirectory() as base_tree:
        export(args.base, base_tree)
        trees = {"base": base_tree, "tree": ROOT}
        runs = {"base": [], "tree": []}
        for pair in range(args.pairs):
            order = ("base", "tree") if pair % 2 == 0 else ("tree", "base")
            for side in order:
                runs[side].append(last_json_line(trees[side], bench)["metrics"])
            print("pair %d: %s" % (pair + 1, json.dumps({side: runs[side][-1]["items_per_s"]["value"] for side in order})), file=sys.stderr)
        replays = {side: last_json_line(tree, [".github/replay.py", "--workload", args.workload, "--seeds", str(args.seed)]) for side, tree in trees.items()}

    print("%s seed %d, %d pairs, base %s" % (args.workload, args.seed, args.pairs, args.base))
    print("%-12s %26s %26s %7s %6s %8s" % ("metric", "base median [IQR]", "tree median [IQR]", "ratio", "wins", "sign p"))
    for metric in spec["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        base = [run[name]["value"] for run in runs["base"]]
        tree = [run[name]["value"] for run in runs["tree"]]
        wins = sum((t > b) if higher else (t < b) for b, t in zip(base, tree))
        losses = sum((t < b) if higher else (t > b) for b, t in zip(base, tree))
        cells = []
        for values in (base, tree):
            mid, lo, hi = spread(values)
            cells.append("%.4g [%.4g-%.4g]" % (mid, lo, hi))
        base_mid, tree_mid = statistics.median(base), statistics.median(tree)
        ratio = "%.3f" % (tree_mid / base_mid) if base_mid else "-"
        print("%-12s %26s %26s %7s %6s %8.3g" % (name, cells[0], cells[1], ratio, "%d/%d" % (wins, len(base)), sign_test(wins, losses)))
    for side in ("base", "tree"):
        print("replay %s: %s" % (side, json.dumps(replays[side])))
    differ = sorted(name for name in replays["base"].keys() | replays["tree"].keys() if replays["base"].get(name) != replays["tree"].get(name))
    print("replay lines equal" if not differ else "replay lines differ in " + ", ".join(differ))


if __name__ == "__main__":
    main()
