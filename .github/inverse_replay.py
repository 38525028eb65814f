"""Replay the benchmark's `inverse` items in process and list the failures.

Usage: python3 .github/inverse_replay.py [--seeds 901-920] [--blocks 14]

For each seed, draws the items `bench/workloads.py`'s `inverse_ops` draws
for that seed and block count (as `bench/run.py` does: 14 blocks is a
20-second run), runs each one (`scaled_map`, then `invert_map`) and checks
it with the item's own check.  ``--seeds`` takes a seed, a range ``A-B``
(both ends included) or a comma-separated list of either.  Prints one JSON
line: the seeds, the block count, the item count, the
`_tangential_derivatives` calls per item (one per inversion step) and the
sorted failures as ``[seed, index, kind]``, where index is the item's
place in its seed's list.  A change to the inversion step should leave
``failed`` no longer, and compares item by item against the parent's line.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from petalmap import maps  # noqa: E402


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("901-920"))
    parser.add_argument("--blocks", type=int, default=14)
    args = parser.parse_args(argv)

    inner = maps._tangential_derivatives
    calls = 0

    def counting(family, pts):
        nonlocal calls
        calls += 1
        return inner(family, pts)

    items, failed = 0, []
    maps._tangential_derivatives = counting
    try:
        for seed in args.seeds:
            # inverse_ops reads no file, so it needs no working directory
            _, ops = workloads.inverse_ops(np.random.default_rng(seed), None, args.blocks)
            for index, op in enumerate(ops):
                failed += [[seed, index, kind] for kind in op.check(op.call())]
            items += len(ops)
    finally:
        maps._tangential_derivatives = inner
    report = {
        "seeds": args.seeds,
        "blocks": args.blocks,
        "items": items,
        "stencil_calls_per_item": round(calls / items, 4),
        "failed": sorted(failed),
    }
    print(json.dumps(report))


if __name__ == "__main__":
    main()
