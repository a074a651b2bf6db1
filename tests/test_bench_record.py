"""The pair summary of ``tools/bench_record.py`` on synthetic runs, and the
cost it records of a run."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def bench_record():
    spec = importlib.util.spec_from_file_location("bench_record",
                                                  ROOT / "tools" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_directions_come_from_the_benchmark_spec(bench_record):
    better = bench_record.directions(json.loads((ROOT / "BENCHMARK.json").read_text()))
    assert better["norm_wall_s"] == "lower"
    assert better["ok_frac"] == "higher"
    assert set(better) == set(bench_record.METRICS)


def test_summary_counts_pairs_in_the_metric_direction(bench_record):
    base = [{"wall": w, "rate": r} for w, r in
            zip([1.0, 1.2, 1.1, 1.3, 1.0, 1.4, 1.2, 1.1], [5, 5, 6, 6, 7, 7, 8, 8])]
    change = [{"wall": w, "rate": r} for w, r in
              zip([0.5, 1.2, 1.2, 0.6, 0.5, 0.7, 0.6, 0.5], [5, 6, 5, 7, 7, 8, 9, 7])]
    summary = bench_record.summarize(base, change, {"wall": "lower", "rate": "higher"})
    wall, rate = summary["wall"], summary["rate"]
    # wall: lower wins in pairs 0, 3-7, ties pair 1, loses pair 2
    assert (wall["won"], wall["tied"], wall["lost"]) == (6, 1, 1)
    # rate: higher wins in pairs 1, 3, 5, 6
    assert (rate["won"], rate["tied"], rate["lost"]) == (4, 2, 2)
    # base walls sorted: 1.0 1.0 1.1 1.1 1.2 1.2 1.3 1.4; exclusive quartiles
    assert wall["base_quartiles"] == pytest.approx([1.025, 1.275])
    assert wall["base_iqr"] == pytest.approx(0.25)
    # medians 1.15 -> 0.6: a gain of 0.55 in the lower direction
    assert wall["median_gain"] == pytest.approx(0.55)
    assert rate["better"] == "higher"
    assert rate["median_gain"] == pytest.approx(0.5)


def test_summary_needs_pairs(bench_record):
    with pytest.raises(ValueError):
        bench_record.summarize([{"wall": 1.0}], [{"wall": 1.0}], {"wall": "lower"})
    with pytest.raises(ValueError):
        bench_record.summarize([{"wall": 1.0}] * 3, [{"wall": 1.0}] * 2, {"wall": "lower"})


def test_run_values_keep_raw_pass_and_probe_times(bench_record):
    summary = {"metrics": {m: {"value": float(i), "unit": "u"}
                           for i, m in enumerate(bench_record.METRICS)}}
    info = {"untraced_pass_s": [0.31, 0.29, 0.40, 0.30],
            "probe": {"median_kernel_s": 1.7e-3, "reference_kernel_s": 1e-3}}
    values = bench_record.run_values(info, summary)
    assert {m: values[m] for m in bench_record.METRICS} == {
        m: float(i) for i, m in enumerate(bench_record.METRICS)}
    assert values["raw_pass_s"] == pytest.approx(0.305)
    assert values["probe_kernel_s"] == 1.7e-3
    assert set(values) == set(bench_record.METRICS) | {"raw_pass_s", "probe_kernel_s"}


def test_raw_pass_time_summarized_like_the_metrics(bench_record):
    better = {**bench_record.directions(json.loads((ROOT / "BENCHMARK.json").read_text())),
              **bench_record.RAW_BETTER}
    assert better["raw_pass_s"] == "lower"
    assert "probe_kernel_s" not in better
    base = [dict.fromkeys(bench_record.METRICS, 1.0) | {"raw_pass_s": r, "probe_kernel_s": 1e-3}
            for r in (0.30, 0.32, 0.31, 0.33)]
    change = [dict.fromkeys(bench_record.METRICS, 1.0) | {"raw_pass_s": r, "probe_kernel_s": 2e-3}
              for r in (0.22, 0.34, 0.23, 0.21)]
    raw = bench_record.summarize(base, change, better)["raw_pass_s"]
    assert (raw["won"], raw["tied"], raw["lost"]) == (3, 0, 1)
    # medians 0.315 -> 0.225
    assert raw["median_gain"] == pytest.approx(0.09)


def test_timed_run_counts_the_cpu_of_forked_grandchildren(bench_record):
    # the run forks a child and each burns 0.2 s of CPU: the run's CPU
    # seconds hold the child's share as well as its own
    burn = ("import os, time\n"
            "pid = os.fork()\n"
            "start = time.process_time()\n"
            "while time.process_time() - start < 0.2:\n"
            "    pass\n"
            "if pid == 0:\n"
            "    os._exit(0)\n"
            "os.waitpid(pid, 0)\n")
    proc, cost = bench_record.timed_run([sys.executable, "-c", burn], timeout=60)
    assert proc.returncode == 0
    assert set(cost) == {"run_wall_s", "run_cpu_s"}
    assert cost["run_cpu_s"] >= 0.4
    assert 0.2 <= cost["run_wall_s"] < 60
