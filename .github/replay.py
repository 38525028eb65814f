"""Replay the benchmark's `inverse`, `moments`, `sweep` or `verify` items in process and list the failures.

Usage: python3 .github/replay.py [--workload inverse|moments|sweep|verify] [--seeds 901-920] [--blocks N]
                                [--compare BENCH_<N>.json]

For each seed, draws the items `bench/workloads.py` draws for that workload,
seed and block count (as `bench/run.py` does; the default is a 20-second
run's, 14 blocks for inverse, 16 for moments and 5 for verify), runs each
one in a temporary directory, where a moments item writes its trace and its
report and a verify item its report, and checks it with the item's own
check.  ``--workload`` defaults to inverse.  ``--seeds`` takes a seed, a
range ``A-B`` (both ends included) or a comma-separated list of either.
Prints one JSON line: the seeds, the block count, the item count, for
inverse the `_tangential_derivatives` calls per item (one per inversion
step), for inverse, sweep and verify the series loops, the points they
summed, ``series_digest``, a SHA-256 over the bytes of every loop's sums
in call order (a spy on `special_functions._series_sums`), and
``value_digest``, a SHA-256 over the bytes of every `_hyp2f1_batch` output
in call order (a spy on `special_functions._hyp2f1_batch` and on the name
`maps` imports), for moments
``output_digest``, a SHA-256 over each item's result (its exit code or
escaping error) and the bytes of its report, in item order, for sweep and
verify the `verify._samples` calls, and the sorted failures as ``[seed,
index, kind]``, where index is the item's place in its seed's list.  A
sweep seed's items are the grid's 51 row segments in its order (one block,
whatever ``--blocks`` asks for), so its counts are those of the benchmark's
sweep commands.  A change to the inversion step, the Cauchy screens, the
battery or the sweep's rounds should leave ``failed`` no longer, and
compares item by item against the parent's line; a change meant to keep
every value's bits leaves ``value_digest`` (``output_digest`` for moments)
as it was, and ``series_digest`` too unless it reorders the series queue.

``--compare`` takes a `.github/bench_record.py` record: the replay runs at
the seeds and block count of the record's line for the workload, prints its
own line, and exits 1 naming each field that differs from the record's.
The digests depend on the numpy build, so compare against a record made on
the same installation.
"""

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from petalmap import maps, special_functions, verify  # noqa: E402

RUN_SECONDS = 20.0  # the default block count is that of a bench run this long


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("inverse", "moments", "sweep", "verify"), default="inverse")
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("901-920"))
    parser.add_argument("--blocks", type=int)
    parser.add_argument("--compare", type=Path, help="a BENCH_<N>.json record whose replay line this one must equal")
    args = parser.parse_args(argv)
    expected = None
    if args.compare:
        expected = json.loads(args.compare.read_text(encoding="utf-8"))["replays"][args.workload]
        args.seeds, args.blocks = expected["seeds"], expected["blocks"]
    blocks = run.blocks_for(args.workload, RUN_SECONDS) if args.blocks is None else args.blocks

    inner = maps._tangential_derivatives
    sums = special_functions._series_sums
    samples = verify._samples
    batch = special_functions._hyp2f1_batch
    calls = loops = points = samples_calls = 0
    digest, output, value_digest = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()

    def counting(family, pts):
        nonlocal calls
        calls += 1
        return inner(family, pts)

    def sampling(jobs):
        nonlocal samples_calls
        samples_calls += 1
        return samples(jobs)

    def summing(queue):
        nonlocal loops, points
        loops += 1
        points += sum(np.size(t) for _, _, _, t in queue)
        out = sums(queue)
        for part in out:
            digest.update(np.ascontiguousarray(part).tobytes())
        return out

    def batching(requests):
        out = batch(requests)
        for part in out:
            value_digest.update(np.ascontiguousarray(part).tobytes())
        return out

    items, failed = 0, []
    maps._tangential_derivatives = counting
    special_functions._series_sums = summing
    special_functions._hyp2f1_batch = maps._hyp2f1_batch = batching
    verify._samples = sampling
    try:
        with tempfile.TemporaryDirectory() as workdir:
            for seed in args.seeds:
                _, ops = getattr(workloads, args.workload + "_ops")(np.random.default_rng(seed), workdir, blocks)
                for index, op in enumerate(ops):
                    op.prepare()
                    result = op.call()
                    if args.workload == "moments":
                        report_path = Path(op.output)
                        output.update(b"%r\0" % (result,))
                        output.update(report_path.read_bytes() if report_path.exists() else b"")
                        output.update(b"\0")
                    failed += [[seed, index, kind] for kind in op.check(result)]
                items += len(ops)
    finally:
        maps._tangential_derivatives = inner
        special_functions._series_sums = sums
        special_functions._hyp2f1_batch = maps._hyp2f1_batch = batch
        verify._samples = samples
    report = {"seeds": args.seeds, "blocks": blocks, "items": items}
    if args.workload == "inverse":
        report["stencil_calls_per_item"] = round(calls / items, 4)
    if args.workload == "moments":
        report["output_digest"] = output.hexdigest()
    else:
        report.update(series_loops=loops, series_points=points, series_digest=digest.hexdigest(), value_digest=value_digest.hexdigest())
    if args.workload in ("sweep", "verify"):
        report["samples_calls"] = samples_calls
    report["failed"] = sorted(failed)
    print(json.dumps(report))
    if expected is not None:
        differ = [name for name in sorted(report.keys() | expected.keys()) if report.get(name) != expected.get(name)]
        if differ:
            sys.exit("%s: differs from %s in %s" % (args.workload, args.compare, ", ".join(differ)))


if __name__ == "__main__":
    main()
