"""Smoke test of the benchmark on tiny grids.

    python3 -m pytest bench/test_smoke.py

It is not part of the tier-1 suite (`testpaths` names only `tests`).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_spec_lists_the_generated_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace, section):
    done = _bench(BENCH.parent, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in SPEC[section]}


def test_wrong_expected_value_counts_as_failed(tmp_path):
    invocations = workloads.generate("v2-stage-sweep", 3, str(tmp_path), tiny=True)[:3]
    trace_table = invocations[0].expect()[0]
    assert trace_table["name"] == "trace_table"
    trace_table["certificate"]["rank"] = "0"
    m = run.measure(invocations, seconds=0, trace=False, workdir=tmp_path,
                    min_samples=0, setup_samples=1)
    assert (m["attempted"], m["failed"]) == (3, 1)
    assert "trace_table.rank" in m["failures"][0]["problems"][0]
    assert run.end_to_end_metrics(m)["verified_ratio"]["value"] == pytest.approx(2 / 3)


def test_refuses_to_run_without_the_engine(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(tmp_path, "v2-stage-sweep", 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
