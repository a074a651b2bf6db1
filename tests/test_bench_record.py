"""The pair summary of ``tools/bench_record.py`` on synthetic runs."""

import importlib.util
import json
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
