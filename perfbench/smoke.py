"""Smoke test of the benchmark itself, at the tiny size.

    python3 perfbench/smoke.py

For every workload it checks that an untraced and a traced run exit 0, pass
every output check, and emit exactly the metrics BENCHMARK.json names, each
with its unit; that a deliberately broken output drives ok_frac below 1 and
failed above 0; and that in a directory holding only BENCHMARK.json and
perfbench/ (no qtraj sources) the runner exits nonzero without a result.
Exits 0 when all hold.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

TIMEOUT_S = 180


def run(cwd: Path, workload: str, trace: int, *extra: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, f"exit {proc.returncode}: {proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return result


def check_metrics(result: dict, spec: list[dict]) -> None:
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in spec}, set(metrics) ^ {m["name"] for m in spec}
    for m in spec:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got["unit"], m["unit"])
        value = got["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), (m["name"], value)


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    for name in workloads.WORKLOADS:
        for trace, spec in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            result = result_of(run(ROOT, name, trace, "--size", "tiny"))
            assert result["correct"] and result["failed"] == 0, result
            check_metrics(result, spec)
            if trace == 0:
                assert result["metrics"]["ok_frac"]["value"] == 1.0
        broken = result_of(run(ROOT, name, 0, "--size", "tiny", "--corrupt"))
        assert not broken["correct"] and broken["failed"] > 0, broken
        assert broken["metrics"]["ok_frac"]["value"] < 1.0, broken
        print(f"ok {name}")

    bare = ROOT / ".perfbench_run" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run(bare, workloads.WORKLOADS[0], 0)
        assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()   # only when no run is using it
        except OSError:
            pass
    print("ok bare directory")
    return 0


if __name__ == "__main__":
    sys.exit(main())
