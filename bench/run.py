"""Benchmark of petalmap: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

One process, one closed-loop client: the next op starts when the previous
one returns.  A run measures a fixed number of input blocks, sized from
``--seconds`` by BLOCK_S, so a seed always gives the same items and the same
failures, traced or not, however fast the host runs.  BLAS/OpenMP threads are pinned to 1.  With ``--trace 0`` the
run reports the end-to-end metrics; with ``--trace 1`` it wraps petalmap's
layer functions (see tracing.py) and reports per-layer metrics instead.

End-to-end times are in reference seconds.  The speed of the shared sandbox
drifts by up to 2x in plateaus lasting seconds, so a fixed calibration
kernel is timed between ops and each time is scaled by CAL_REF_S over the
kernel's median time around it.  The raw times are in the report line.
The last stdout line is the result object; the line before it is a report
with the environment, input properties, tail percentile and failures by kind.
See README.md for why each workload exists.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402 - thread pins must precede any numpy import
import collections  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / ".out"
WORKLOADS = ("sweep", "verify", "inverse", "moments")
SETUP_PROBES = 2          # fresh-process set-ups besides the run's own
TAIL_BEYOND = 10          # ops that must lie beyond the tail percentile
CAL_REF_S = 0.002         # kernel time that makes one reference second
CAL_WINDOW = 6            # kernel timings whose median scales one op
# Raw seconds of op time one input block took on a 2-CPU x86 host at the
# commit that introduced the benchmark; sweep's one block is the whole grid.
BLOCK_S = {"sweep": 25.0, "verify": 4.0, "inverse": 1.4, "moments": 1.25}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def blocks_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / BLOCK_S[workload]))


def set_up(workload: str, seed: int, seconds: float, workdir: str):
    """Import petalmap, generate the inputs, run one untimed warm-up op.

    Returns (seconds taken, measured ops).  The warm-up input lies outside
    the measured ones, so no measured input has been seen before.
    """
    t0 = time.perf_counter()
    import numpy as np

    import workloads

    rng = np.random.default_rng(seed)
    warmup, ops = getattr(workloads, workload + "_ops")(rng, workdir, blocks_for(workload, seconds))
    warmup.prepare()
    warmup.check(warmup.call())
    return time.perf_counter() - t0, ops


def calibrate() -> float:
    """Seconds taken by a fixed kernel of small complex numpy ops and Python
    arithmetic, the two kinds of work petalmap does."""
    import numpy as np

    x = np.linspace(0.1, 1.0, 64) + 0.3j
    t0 = time.perf_counter()
    for k in range(150):
        float(np.abs(np.exp(0.3 * np.log(x * (k * 1e-3) + 1.0))).sum())
    total = 0
    for k in range(10000):
        total += k * k
    return time.perf_counter() - t0


def to_reference(seconds: float, kernel_s: float) -> float:
    return seconds * CAL_REF_S / kernel_s


def reference_setup(setup_s: float) -> float:
    """A set-up time in reference seconds, by the kernel timed just after it."""
    return to_reference(setup_s, statistics.median(calibrate() for _ in range(5)))


def probe_setup(workload: str, seed: int, seconds: float) -> tuple[float, float]:
    """(raw, reference) set-up time of a fresh interpreter, so that the
    import is timed again."""
    proc = subprocess.run(
        [
            sys.executable, str(Path(__file__)), "--setup-probe",
            "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
        ],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    raw, ref = proc.stdout.split()
    return float(raw), float(ref)


def measure(ops, tracer=None):
    """Run every op in order.

    Untraced runs also time the calibration kernel before the first op and
    after every op; `reference_latencies` uses those timings.  ``passed``
    flags the ops none of whose items failed.
    """
    latencies, passed, attempted, failures = [], [], [], collections.Counter()
    kernel = [] if tracer is not None else [calibrate()]
    busy = 0.0
    clock = time.perf_counter
    for index, op in enumerate(ops):
        op.prepare()
        if tracer is not None:
            tracer.op = index
        t0 = clock()
        result = op.call()
        dt = clock() - t0
        busy += dt
        latencies.append(dt)
        attempted.append(op)
        try:
            kinds = op.check(result)
        except (OSError, ValueError, KeyError) as exc:  # unreadable output fails the op
            kinds = ["unreadable_output:" + type(exc).__name__] * op.items
        failures.update(kinds)
        passed.append(not kinds)
        if tracer is None:
            kernel.append(calibrate())
    return latencies, passed, kernel, attempted, failures, busy


def reference_latencies(latencies, kernel):
    """Op i scaled by the median of the CAL_WINDOW kernel timings that end
    with the one just after it (kernel[i] runs before op i, kernel[i + 1] after)."""
    return [
        to_reference(dt, statistics.median(kernel[max(0, i + 2 - CAL_WINDOW): i + 2]))
        for i, dt in enumerate(latencies)
    ]


def tail(latencies):
    """(percentile, seconds): the highest percentile with TAIL_BEYOND ops beyond it.

    Below 2 * TAIL_BEYOND ops that percentile would not lie above the
    median, so the tail is the slowest op instead (percentile 100).
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def environment() -> dict:
    import numpy as np

    return {
        "cpu_count": os.cpu_count(),
        "blas_threads": int(BLAS_THREADS),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(),
    }


def input_properties(workload: str, attempted) -> dict:
    items = sum(op.items for op in attempted)
    props = {"two_petal_share": sum(op.items for op in attempted if op.two_petal) / items}
    if workload == "inverse":
        props["band_share"] = sum(op.band for op in attempted) / len(attempted)
        props["points_per_family"] = len(attempted) / len({op.family for op in attempted})
    return props


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "petalmap" / "__init__.py").is_file():
        sys.stderr.write("error: no petalmap sources under %s\n" % (ROOT / "src"))
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workdir = OUT_DIR / ("work-%d" % os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_s, ops = set_up(args.workload, args.seed, args.seconds, str(workdir))
        if args.setup_probe:
            print(repr(setup_s), repr(reference_setup(setup_s)))
            return 0
        import petalmap

        if not Path(petalmap.__file__).resolve().is_relative_to(ROOT / "src"):
            sys.stderr.write("error: petalmap imported from %s\n" % petalmap.__file__)
            return 2
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        latencies, passed, kernel, attempted, failures, busy = measure(ops, tracer)
        if tracer is not None:
            tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    import workloads

    items = sum(op.items for op in attempted)
    failed = sum(failures.values())
    unexpected = sorted(set(failures) - workloads.KNOWN_FAILURES.get(args.workload, set()))
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "blocks": blocks_for(args.workload, args.seconds),
        "trace": args.trace,
        "environment": environment(),
        "inputs": input_properties(args.workload, attempted),
        "ops": len(attempted),
        "items": items,
        "op_seconds": busy,
        "fail_frac": failed / items,
        "failures": dict(sorted(failures.items())),
        "unexpected_failures": unexpected,
    }
    if tracer is None:
        setups = [(setup_s, reference_setup(setup_s))]
        setups += [probe_setup(args.workload, args.seed, args.seconds) for _ in range(SETUP_PROBES)]
        ref = reference_latencies(latencies, kernel)
        # a failed op meets no latency: percentiles cover the passed ops, so
        # failing faster cannot improve them (ok_frac counts the failures)
        ok_ref = [t for t, ok in zip(ref, passed) if ok] or ref
        ok_raw = [t for t, ok in zip(latencies, passed) if ok] or latencies
        percentile, tail_s = tail(ok_ref)
        report["tail"] = {"percentile": percentile, "ops": len(ok_ref)}
        report["setup_samples_s"] = {"raw": [s[0] for s in setups], "reference": [s[1] for s in setups]}
        report["kernel_s"] = {"median": statistics.median(kernel), "reference": CAL_REF_S}
        report["raw"] = {
            "setup_s": statistics.median(s[0] for s in setups),
            "items_per_s": items / busy,
            "p50_s": statistics.median(ok_raw),
            "tail_s": tail(ok_raw)[1],
        }
        metrics = {
            "setup_s": metric(statistics.median(s[1] for s in setups), "s"),
            "items_per_s": metric(items / sum(ref), "1/s"),
            "p50_s": metric(statistics.median(ok_ref), "s"),
            "tail_s": metric(tail_s, "s"),
            "ok_frac": metric(1.0 - failed / items, "1"),
            "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        }
    else:
        import tracing

        values, inclusive = tracing.layer_metrics(tracer.spans, items, busy, tracing.span_cost_s())
        units = dict(tracing.PER_LAYER_METRICS)
        metrics = {name: metric(values[name], units[name]) for name, _ in tracing.PER_LAYER_METRICS}
        report["missing_layer_functions"] = tracer.missing
        report["spans"] = len(tracer.spans)
        report["inclusive_s_per_item"] = inclusive
        tracer.write(OUT_DIR / ("spans-%s-%d.csv" % (args.workload, args.seed)))

    OUT_DIR.mkdir(exist_ok=True)
    name = "result-%s-%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(OUT_DIR / name, "w", encoding="utf-8") as fh:
        json.dump({"report": report, "metrics": metrics}, fh, indent=2, sort_keys=True)
    print(json.dumps(report, sort_keys=True))
    result = {"correct": not unexpected, "attempted": items, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
