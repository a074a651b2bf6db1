"""Record the benchmark's end-to-end metrics for a base commit and the
working tree in a BENCH_*.json file.

    python3 tools/bench_record.py --out BENCH_6.json [--base HEAD]

Run from the repository root. The base commit is exported with
``git archive`` into a temporary directory; the change is the working tree.
For each of PAIRS pairs i = 0, 1, ... and each workload W, both trees run

    python3 perfbench/run.py --workload W --seed (i + 1) --seconds 35 --trace 0

one after the other, the base first on even pairs and the change first on
odd ones. The last stdout line of a run holds its end-to-end metrics and the
line before it the machine facts. Each run also keeps two raw figures from
that line, which the rescaled metrics hide: ``raw_pass_s``, the median
wall time of its untraced passes, and ``probe_kernel_s``, the speed probe's
median kernel time. Two more raw figures say what the run cost the machine:
``run_wall_s``, the run's wall seconds, and ``run_cpu_s``, the CPU seconds
of the run and every process it started and reaped, forked children of
qtraj included (a ``RUSAGE_CHILDREN`` delta); their ratio is the CPUs the
run kept busy. The output file holds the git shas, the machine,
``wc -l src/qtraj/*.py`` of both trees, every run's values, their
per-workload medians and, per workload and metric (and for ``raw_pass_s``
and ``run_cpu_s``, lower is better for both), the ``summarize`` record of
the pairs: how many the change won, tied and
lost (the direction is the metric's ``better`` in BENCHMARK.json), the
base's quartiles and the median gain, which a claimed gain needs to beat
the base's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("converge-chain", "girsanov-ensemble", "single-path-csv")
PAIRS = 10
SECONDS = 35
SEED = 1
METRICS = ("norm_wall_s", "norm_path_steps_per_s", "setup_s", "peak_rss_mb", "ok_frac")
# summarized like METRICS; probe_kernel_s and run_wall_s are not. A run
# lasts a fixed time, so run_cpu_s shows what work moved to a second CPU
# costs: won/tied/lost of the CPU seconds beside those of raw_pass_s
RAW_BETTER = {"raw_pass_s": "lower", "run_cpu_s": "lower"}


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def _export(rev: str, dest: Path) -> None:
    archive = dest / "tree.tar"
    with open(archive, "wb") as out:
        subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, stdout=out)
    with tarfile.open(archive) as tar:
        tar.extractall(dest / "tree", filter="data")
    archive.unlink()


def _src_lines(tree: Path) -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((tree / "src" / "qtraj").glob("*.py")))


def directions(spec: dict) -> dict[str, str]:
    """The ``better`` direction ("lower" or "higher") of each METRICS entry
    in a BENCHMARK.json spec."""
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    return {m: better[m] for m in METRICS}


def summarize(base: list[dict], change: list[dict], better: dict[str, str]) -> dict:
    """Per metric of ``better``, for runs where base[i] and change[i] are
    pair i: the pairs the change won, tied and lost in the metric's
    direction, the base's quartiles [Q1, Q3] and their distance, and the
    median gain, median(change) - median(base) signed so that positive is
    better."""
    if len(base) != len(change) or len(base) < 2:
        raise ValueError("need at least two pairs of runs")
    out = {}
    for metric, direction in better.items():
        sign = {"lower": -1.0, "higher": 1.0}[direction]
        b = [r[metric] for r in base]
        c = [r[metric] for r in change]
        gains = [sign * (y - x) for x, y in zip(b, c)]
        q1, _, q3 = statistics.quantiles(b, n=4)
        out[metric] = {
            "better": direction,
            "won": sum(g > 0 for g in gains),
            "tied": sum(g == 0 for g in gains),
            "lost": sum(g < 0 for g in gains),
            "base_quartiles": [q1, q3],
            "base_iqr": q3 - q1,
            "median_gain": sign * (statistics.median(c) - statistics.median(b)),
        }
    return out


def timed_run(argv: list[str], **kwargs) -> tuple[subprocess.CompletedProcess, dict]:
    """``subprocess.run(argv, **kwargs)`` and its cost: ``run_wall_s`` and
    ``run_cpu_s``, the user and system CPU seconds of the process and of
    every descendant reaped before it ended."""
    before, start = resource.getrusage(resource.RUSAGE_CHILDREN), time.monotonic()
    proc = subprocess.run(argv, **kwargs)
    wall = time.monotonic() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
    return proc, {"run_wall_s": wall, "run_cpu_s": cpu}


def _run(tree: Path, workload: str, seed: int) -> tuple[dict, dict]:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    proc, cost = timed_run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(argv)} in {tree} failed: {proc.stderr.strip()}")
    info, summary = json.loads(lines[-2]), json.loads(lines[-1])
    return info, run_values(info, summary) | cost


def run_values(info: dict, summary: dict) -> dict:
    """The values kept of one run: the METRICS of its summary line, and the
    raw median pass time and median probe kernel time of its info line."""
    values = {m: summary["metrics"][m]["value"] for m in METRICS}
    values["raw_pass_s"] = statistics.median(info["untraced_pass_s"])
    values["probe_kernel_s"] = info["probe"]["median_kernel_s"]
    return values


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True)
    p.add_argument("--base", default="HEAD")
    args = p.parse_args()
    dirty = bool(_git("status", "--porcelain", "--", "src", "perfbench"))
    better = {**directions(json.loads((ROOT / "BENCHMARK.json").read_text())), **RAW_BETTER}
    record = {
        "harness": "python3 perfbench/run.py --workload W --seed N "
                   f"--seconds {SECONDS} --trace 0",
        "base": {"sha": _git("rev-parse", args.base)},
        "change": {"sha": _git("rev-parse", "HEAD"),
                   "tree": "working tree" + (" with uncommitted src changes" if dirty else "")},
        "pairs": PAIRS, "machine": None, "workloads": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        _export(args.base, Path(tmp))
        trees = {"base": Path(tmp) / "tree", "change": ROOT}
        for side, tree in trees.items():
            record[side]["src_lines"] = _src_lines(tree)
        runs = {w: {"base": [], "change": []} for w in WORKLOADS}
        for i in range(PAIRS):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for w in WORKLOADS:
                for side in order:
                    info, values = _run(trees[side], w, SEED + i)
                    runs[w][side].append(values)
                    machine = {k: v for k, v in info["machine"].items()
                               if k not in ("git_sha", "src_sha256")}
                    record["machine"] = record["machine"] or machine
                    record[side]["src_sha256"] = info["machine"]["src_sha256"]
                    print(f"pair {i} {w} {side}: {values}", file=sys.stderr, flush=True)
    for w, sides in runs.items():
        record["workloads"][w] = {
            side: {"median": {k: statistics.median(r[k] for r in rs) for k in rs[0]},
                   "runs": rs}
            for side, rs in sides.items()}
        record["workloads"][w]["pairs"] = summarize(sides["base"], sides["change"], better)
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
