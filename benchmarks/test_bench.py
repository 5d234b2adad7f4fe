"""Self-test of the benchmark harness at toy size.

Run from the repository root with ``python3 -m pytest benchmarks/test_bench.py``.
Each workload runs once with a few samples and grid points, end to end and
traced, and must emit every metric that ``BENCHMARK.json`` names, with its
unit.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
# At the parent of this benchmark the two Bernardi corners exit 3; no other
# command may fail.
CORNERS = {"--gamma 1e-9", "--gamma -0.999"}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_toy_workload_emits_every_metric(workload, trace):
    result = bench.run_workload(workload, seed=3, seconds=1, trace=bool(trace), toy=True)

    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert result["correct"], result["wrong"]
    assert result["attempted"] >= result["commands"] >= 6
    for command in result["failures"]:
        assert workload == "radius-sweep" and any(c in command for c in CORNERS), command
    if trace:
        assert result["count_mismatch"] == []
        assert len(result["traced_s"]) >= 2 and len(result["untraced_s"]) >= 1
    else:
        for name in ("setup_s", "wall_s", "cpu_s", "items_per_s", "peak_rss_mb"):
            assert result["metrics"][name]["value"] > 0.0


def test_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/bench.py", "--workload", "verify-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
