"""Self-test of the benchmark: a tiny pass of every workload.

Run from the repository root with ``python -m pytest perfbench -q``.
Checks that every metric in ``BENCHMARK.json`` is emitted with its unit
and direction, that one seed repeats its simulated outputs and layer
counts exactly, that a corrupted reference byte is caught as a failed
op, and that the benchmark refuses to run without the program source.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / SPEC["command"][1]), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def run_tiny(workload: str, trace: int, seed: int = 3, *extra: str) -> tuple[dict, str]:
    proc = bench(
        "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--trace", str(trace), "--size", "tiny", *extra,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), proc.stdout


@pytest.fixture(scope="module")
def tiny_runs() -> dict:
    """Two runs of one seed per workload and trace mode."""
    return {
        (w, t): [run_tiny(w, t), run_tiny(w, t)] for w in WORKLOADS for t in (0, 1)
    }


def test_spec_follows_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 2 <= len(WORKLOADS) <= 8 and 1 <= SPEC["run_seconds"] <= 60
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for m in names + WORKLOADS:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", m), m
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25 and m["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted(tiny_runs, workload, trace, key):
    (result, stdout), _ = tiny_runs[(workload, trace)]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = {m["name"]: m for m in SPEC[key]}
    assert set(result["metrics"]) == set(spec)
    for name, m in spec.items():
        got = result["metrics"][name]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        # the report line names the metric, its unit and its direction
        assert re.search(rf"^\s+{re.escape(name)}\s+\S+\s+{re.escape(m['unit'])}\s+"
                         rf"{m['better']}\b", stdout, re.M), name
        if key == "end_to_end":
            assert got["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_seed_repeats_sim_metrics_and_layer_counts(tiny_runs, workload):
    (a, _), (b, _) = tiny_runs[(workload, 0)]
    for name in ("sim_read_mib_s", "sim_tail_ms"):
        assert a["metrics"][name] == b["metrics"][name]
    (a, _), (b, _) = tiny_runs[(workload, 1)]
    counts = [m["name"] for m in SPEC["per_layer"]
              if m["unit"] == "count" and m["name"] != "trace.spans"]
    for name in counts + ["trace.spans", "verify.kib", "disks.read_amp"]:
        assert a["metrics"][name] == b["metrics"][name], name


@pytest.mark.parametrize("workload", ["clean-mixed", "zipf-openloop", "degraded-recovery"])
def test_corrupted_reference_byte_fails_an_op(workload):
    result, stdout = run_tiny(workload, 0, 3, "--corrupt-reference")
    assert result["failed"] > 0 and result["correct"] is False
    rate = re.search(r"^\s+op_failure_rate\s+(\S+)", stdout, re.M)
    assert rate and float(rate.group(1)) > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
