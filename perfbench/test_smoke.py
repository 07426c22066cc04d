"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

It records references for shrunken copies of the three workloads, then
checks that a run emits every metric BENCHMARK.json names with its unit,
that the traced run counts the FFTs of one step exactly, that a corrupted
reference or gradient-check reference is counted as a failed operation,
that a missing hook is tolerated, and that the runner refuses to run
without the package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
import types
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import numpy as np  # noqa: E402
import pytest  # noqa: E402
import workloads  # noqa: E402
from tracing import Hook, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module", params=list(workloads.WORKLOADS))
def tiny(request):
    """A workload shrunk to smoke-test size, with freshly recorded references."""
    wl = replace(
        workloads.WORKLOADS[request.param],
        seq_len=64,
        channels=4,
        batch=min(workloads.WORKLOADS[request.param].batch, 2),
        eval_samples=2,
        pool=3,
        eval_pool=2,
    )
    return wl, workloads.record(wl)


@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(tiny, trace):
    wl, refs = tiny
    result, _ = harness.measure(wl, refs, seed=3, seconds=0.2, trace=trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace:
        values = {name: m["value"] for name, m in result["metrics"].items()}
        per_block = (5, 3) if wl.train else (2, 1)
        assert values["fft.rfft.calls"] == per_block[0] * wl.n_blocks
        assert values["fft.irfft.calls"] == per_block[1] * wl.n_blocks
        assert values["trace.unhooked"] == 0


def test_corrupted_reference_is_a_failed_operation(tiny):
    wl, refs = tiny
    bad = json.loads(json.dumps(refs))
    ref = np.array(bad["ops"][0])
    ref.flat[-1] += 1e-6 * max(1.0, np.abs(ref).max())
    bad["ops"][0] = ref.tolist()
    result, record = harness.measure(wl, bad, seed=3, seconds=0.2, trace=False)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert record["failed_op_ratio"] == result["failed"] / result["attempted"]


def test_corrupted_gradient_check_is_a_failed_operation(tiny):
    wl, refs = tiny
    if not wl.train:
        pytest.skip("only the train workloads have a gradient check")
    bad = json.loads(json.dumps(refs))
    bad["grad_check"][-1] += 1e-6 * max(1.0, abs(bad["grad_check"][-1]))
    result, _ = harness.measure(wl, bad, seed=3, seconds=0.2, trace=False)
    assert result["failed"] == 1


def test_missing_hook_is_unhooked_and_its_time_stays_in_the_parent():
    ns = types.SimpleNamespace()
    ns.inner = lambda: time.sleep(0.02)
    ns.outer = lambda: ns.inner()
    tracer = Tracer([Hook("outer", ns, "outer"), Hook("renamed", ns, "no_longer_there")])
    with tracer:
        ns.outer()
    assert tracer.unhooked == ["renamed"]
    total_ns, self_ns, calls = tracer.totals["outer"]
    assert calls == 1 and self_ns == total_ns >= 20_000_000
    assert tracer.calls("renamed") == 0


def test_runner_fails_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "train_recall_L1024",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout == ""
