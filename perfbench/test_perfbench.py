"""The benchmark's own tests (not part of the tier-1 suite, which collects
``tests/`` only).  Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q

They check that ``BENCHMARK.json`` and ``perfbench/metrics.py`` agree, that
an untraced run prints every end-to-end metric on every workload, that
inputs and exact counts repeat across processes with different
``PYTHONHASHSEED`` values, that the tracing rules hold, that a CLI child's
peak RSS is its own, and that the command refuses to report without a
source tree.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
sys.path.insert(0, os.path.join(ROOT, "src"))

from perfbench.metrics import END_TO_END, EXACT_COUNTS, PER_LAYER, WORKLOADS  # noqa: E402


def _env(hash_seed: str):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join([ROOT, os.path.join(ROOT, "src")])
    return env


def test_benchmark_json_matches_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    declared = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    assert declared == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"
    )


INPUT_DIGESTS = """
import hashlib
import numpy as np
from perfbench import inputs
from perfbench.metrics import FIG8_CELLS

def digest(chunks):
    return hashlib.sha256(b"\\0".join(chunks)).hexdigest()

print(digest(p.text.encode() for p in inputs.compile_stream(7, 150)))
print(digest(p.text.encode() for p in inputs.fuzz_programs(7, inputs.CLI_TIMED_BASE, 20, well_typed=True)))
print(digest(p.text.encode() for p in inputs.fuzz_programs(7, inputs.SERVE_NOVEL_BASE, 40)))
arrays = inputs.fig8_inputs(7, FIG8_CELLS)
print(digest(np.ascontiguousarray(a).tobytes() for key in sorted(arrays)
             for a in (arrays[key][0] if isinstance(arrays[key][0], tuple) else (arrays[key][0],))
             + (arrays[key][1],)))
"""


def test_inputs_identical_under_hash_randomization():
    outputs = [
        subprocess.run(
            [sys.executable, "-c", INPUT_DIGESTS], cwd=ROOT, env=_env(hash_seed),
            capture_output=True, text=True, check=True,
        ).stdout
        for hash_seed in ("1", "2")
    ]
    assert outputs[0] == outputs[1]
    assert len(outputs[0].split()) == 4


def _traced(workload: str, hash_seed: str):
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, env=_env(hash_seed), capture_output=True, text=True, timeout=600,
    )
    assert child.returncode == 0, child.stderr[-2000:]
    return json.loads(child.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, env=_env("1"), capture_output=True, text=True, timeout=600,
    )
    assert child.returncode == 0, child.stderr[-2000:]
    result = json.loads(child.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        name: unit for name, (unit, _) in END_TO_END.items()
    }
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(EXACT_COUNTS))
def test_exact_counts_repeat_across_processes(workload):
    first, second = _traced(workload, "1"), _traced(workload, "2")
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == set(PER_LAYER)
    for metric in EXACT_COUNTS[workload]:
        assert first["metrics"][metric]["value"] > 0, metric
        assert first["metrics"][metric]["value"] == second["metrics"][metric]["value"], metric


def test_outermost_span_only_for_super_calls():
    from perfbench.tracing import Tracer, install

    tracer = Tracer()
    uninstall = install(tracer)
    try:
        from repro.gpusim.cost import CostParameters
        from repro.gpusim.engine.jit import JitCostModel

        JitCostModel(CostParameters(), 1, 32, 32).finalize(blocks=1, threads_per_block=32)
    finally:
        uninstall()
    assert [span.name for span in tracer.spans] == ["gpusim.cost"]
    assert {"gpusim.cost.jit", "gpusim.cost.stock"} <= tracer.fired
    assert not hasattr(JitCostModel.__dict__["finalize"], "__wrapped__")


def test_child_spans_count_for_their_process_only(tmp_path):
    from perfbench.tracing import Tracer

    child = Tracer()
    child.fired.add("frontend.parse")
    child.dump(str(tmp_path / "child.json"))
    parent = Tracer()
    assert parent.merge_file(str(tmp_path / "child.json"), "cli")
    assert not parent.merge_file(str(tmp_path / "missing.json"), "cli")
    assert parent.missing(("cli:frontend.parse", "frontend.parse")) == ["frontend.parse"]


def test_crashed_child_is_reaped_once(tmp_path):
    import time

    from perfbench.common import Child, Context

    ctx = Context(root=ROOT, seed=0, seconds=1, tmp=str(tmp_path), python=sys.executable)
    child = Child([sys.executable, "-c", "raise SystemExit(3)"], ctx, str(tmp_path / "log"))
    while child.poll() is None:
        time.sleep(0.01)
    assert child.wait(timeout=5) == 3


def test_cli_child_reports_its_own_peak_rss(tmp_path):
    from perfbench.common import Child, Context

    ballast = bytearray(200 * 1024 * 1024)  # the parent's high-water mark
    ballast[::4096] = b"x" * len(ballast[::4096])
    ctx = Context(root=ROOT, seed=0, seconds=1, tmp=str(tmp_path), python=sys.executable)
    status = str(tmp_path / "status")
    child = Child(ctx.cli_command(["--help"], status), ctx, str(tmp_path / "log"), status)
    assert child.wait(timeout=60) == 0
    assert 5 < child.peak_rss_mb < 150
    del ballast


def test_refuses_without_source_tree(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compile", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert child.returncode != 0
    assert '"metrics"' not in child.stdout
