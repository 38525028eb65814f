"""Self-tests of the benchmark: item checks reject wrong outputs, the tracer
wraps every binding, and the printed metrics match BENCHMARK.json.

    PYTHONPATH=src python3 -m pytest bench/test_bench.py -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import petalmap  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from petalmap import maps, verify  # noqa: E402


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def test_same_seed_same_inputs(tmp_path):
    first = workloads.verify_ops(np.random.default_rng(7), str(tmp_path), blocks=2)[1]
    again = workloads.verify_ops(np.random.default_rng(7), str(tmp_path), blocks=2)[1]
    other = workloads.verify_ops(np.random.default_rng(8), str(tmp_path), blocks=2)[1]
    assert [op.argv for op in first] == [op.argv for op in again]
    assert [op.argv for op in first] != [op.argv for op in other]
    assert sum(op.two_petal for op in first) == 12


def test_run_size_is_fixed_by_seconds(tmp_path):
    # a fixed op count, not a time limit: a seed gives the same items and failures
    for seconds, blocks in ((0.5, 1), (25, 18)):
        assert run.blocks_for("inverse", seconds) == blocks
        ops = workloads.inverse_ops(np.random.default_rng(3), str(tmp_path), blocks)[1]
        assert len(ops) == 48 * blocks
    assert len(workloads.sweep_ops(np.random.default_rng(3), str(tmp_path), 4)[1]) == 51


def test_inverse_check_rejects_perturbed_root():
    family = petalmap.MapFamily.two_petal(math.pi / 5, math.pi / 10)
    op = workloads.InverseOp(family, 1.5 + 0.5j, petalmap.TimeState(1.3, 0.8), False)
    root = op.call()
    assert op.check(root) == []
    assert op.check(root * (1.0 + 1e-6)) == ["root_mismatch"]
    assert op.check(petalmap.InversionError("no convergence")) == ["InversionError"]


def test_sweep_check_rejects_flipped_classification(tmp_path):
    op = workloads.SweepOp("9pi/36", 9, workloads.SEGMENTS[0], str(tmp_path))
    op.prepare()
    result = op.call()
    assert op.check(result) == []
    lines = Path(op.output).read_text().splitlines()
    # beta = 2pi/36 < alpha must be conformal; flip it
    lines[2] = lines[2].replace(",true,false", ",false,false")
    Path(op.output).write_text("\n".join(lines) + "\n")
    assert op.check(result) == ["case_map"]


def test_moments_checks_reject_mismatch(tmp_path):
    op = workloads.TraceMomentsOp(3, str(tmp_path))
    op.prepare()
    result = op.call()
    assert op.check(result) == []
    payload = json.loads(Path(op.output).read_text())
    payload["moments"]["T3"]["area"][0] += 2e-4
    assert workloads.moment_failures(payload) == ["moment_mismatch"]

    family_op = workloads.FamilyMomentsOp(3 * math.pi / 8, [0.3, 0.5, 0.7], str(tmp_path))
    family_op.prepare()
    result = family_op.call()
    assert family_op.check(result) == []
    payload = json.loads(Path(family_op.output).read_text())
    payload["m_plus"][1]["value"][0] += 2e-3
    assert workloads.m_plus_failures(payload, family_op.alpha) == ["m_plus_not_constant"]


@pytest.mark.parametrize("alpha", [math.pi / 8, 0.9, 3 * math.pi / 8])
def test_petal_tip_height(alpha):
    # moments inputs place points below the tip f(i) = 2i sin(alpha)
    tip = petalmap.evaluate_map(petalmap.MapFamily.one_petal(alpha), 1j)
    assert abs(tip - 2j * math.sin(alpha)) < 1e-12


def test_tracer_wraps_every_binding_and_skips_missing():
    original = maps._tangential_derivatives
    extra = (("maps", "_no_such_helper", tracing.EVALUATE, None),)
    tracer = tracing.Tracer()
    tracer.install(layer_functions=tracing.LAYER_FUNCTIONS + extra)
    try:
        assert tracer.missing == ["maps._no_such_helper"]
        assert maps._tangential_derivatives is not original
        assert verify._tangential_derivatives is maps._tangential_derivatives
        ring = 1.5 * np.exp(1j * np.linspace(0.1, 3.0, 16))
        petalmap.map_derivative(petalmap.MapFamily.two_petal(math.pi / 5, math.pi / 10), ring)
    finally:
        tracer.uninstall()
    assert maps._tangential_derivatives is original
    assert verify._tangential_derivatives is original
    values, _ = tracing.layer_metrics(tracer.spans, 1, 1.0, 0.0)
    assert values["maps.derivatives.calls"] == 1
    assert values["maps.derivatives.points"] == 16
    assert values["maps.derivatives.evals_per_point"] == 9


def test_printed_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_bench("--workload", "inverse", "--seed", "5", "--seconds", "0.5", "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] is True and result["attempted"] >= 1
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in spec[key]}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = run_bench("--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
