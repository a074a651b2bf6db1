"""qtraj benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Load is a closed loop with one client: the
workload's qtraj commands run one after another through
``qtraj.cli.main(argv)`` in one child Python process per run, single-threaded
(BLAS/OpenMP pinned to 1 thread). The child repeats the command list for
--seconds and checks every output; set-up is sampled in separate short-lived
children as well. Every time is measured twice: as wall time and rescaled
by the speed probe (probe.py) to a fixed CPU speed; the end-to-end metrics
are the rescaled ones, since a shared host's speed moves raw times by 20-30 %
between runs. With --trace 0 the last stdout line carries the end-to-end
metrics; with --trace 1 it carries the per-layer metrics of a traced pass
(see tracer.py), and the lines before it hold the span dump. The lines
before the last also record the machine, the seed and the generated argv.

--size tiny and --corrupt exist for smoke.py only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import probe  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_CHILDREN = 10         # set-up samples besides the measuring child's own
CHILD_TIMEOUT_S = 170.0     # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {"norm_wall_s": "s", "norm_path_steps_per_s": "1/s", "setup_s": "s",
              "peak_rss_mb": "MB", "ok_frac": "frac"}

# ROADMAP baselines the single-step layer rates reproduce: drive_ensemble at
# M=2000, n=200 took 1.6-1.8 s (400k path-steps); sde_ensemble_final at
# M=2000, h=5e-4 took 19-22 s (4M path-steps).
ROADMAP_NS = {"discrete.ns_per_chain_path_step": (4000, 4500),
              "sde.ns_per_euler_path_step": (4750, 5500)}


class BenchError(Exception):
    pass


def _args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    p.add_argument("--size", choices=["full", "tiny"], default="full")
    p.add_argument("--corrupt", action="store_true",
                   help="break the first output of the first pass (smoke test)")
    return p.parse_args()


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.update({v: "1" for v in THREAD_VARS})
    return env


def _spawn(args, workdir: Path, mode: str, deadline: float) -> dict:
    """Run one child to completion by ``deadline`` (time.monotonic); returns
    its JSON result."""
    spawned = time.monotonic()
    cmd = [sys.executable, str(HERE / "child.py"), "--root", str(ROOT),
           "--spawned", repr(spawned), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--mode", mode] + (["--corrupt"] if args.corrupt else [])
    proc = subprocess.Popen(cmd, cwd=workdir, env=_child_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - spawned, 0.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{mode} child did not finish within {CHILD_TIMEOUT_S:.0f} s of the run")
    if proc.returncode != 0:
        raise BenchError(f"{mode} child exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qtraj").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _machine(numpy_version: str) -> dict:
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": _cpu_model(), "python": platform.python_version(),
            "numpy": numpy_version, "git_sha": _git_sha(), "src_sha256": _src_sha256(),
            "thread_env": {v: _child_env()[v] for v in THREAD_VARS}}


def _run(args) -> tuple[dict, dict]:
    if not (ROOT / "src" / "qtraj" / "cli.py").is_file():
        raise BenchError(f"qtraj sources not found under {ROOT / 'src'}")
    workdir = ROOT / ".perfbench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    try:
        setups = [_spawn(args, workdir, "setup", deadline) for _ in range(SETUP_CHILDREN)]
        result = _spawn(args, workdir, "measure", deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()   # only when no other run is using it
        except OSError:
            pass
    setups.append(result)
    setup_norm = [s["setup_norm_s"] for s in setups]

    cmds = workloads.commands(args.workload, args.seed, args.size)
    failed = len(result["failures"])
    untraced = result["untraced_s"]
    wall = statistics.median(untraced)
    norm_wall = statistics.median(result["untraced_norm_s"])
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "load": "closed loop, one client, commands run back to back in one process",
            "argv": [argv for _, argv in cmds],
            "untraced_pass_s": untraced, "untraced_pass_norm_s": result["untraced_norm_s"],
            "traced_pass_s": result["traced_s"], "traced_pass_norm_s": result["traced_norm_s"],
            "setup_s_samples": [s["setup_s"] for s in setups], "setup_norm_s_samples": setup_norm,
            "probe": {"median_kernel_s": result["probe_median_s"],
                      "reference_kernel_s": probe.REF_KERNEL_S, "interval_s": probe.INTERVAL_S},
            "failures": result["failures"],
            "machine": _machine(result["numpy"])}
    if args.trace:
        layers = dict(result["layers"])
        layers["trace.overhead_s"] = statistics.median(result["traced_norm_s"]) - norm_wall
        metrics = {m: {"value": layers[m], "unit": u} for m, u in tracer.LAYER_UNITS.items()}
        info["roadmap_baseline_ns_per_path_step"] = {
            m: {"measured": layers[m], "roadmap_range": list(r)} for m, r in ROADMAP_NS.items()}
        info["spans"] = result["spans"]
        info["unpatched"] = result["unpatched"]
    else:
        attempted = result["attempted"]
        values = {
            "norm_wall_s": norm_wall,
            "norm_path_steps_per_s":
                sum(workloads.nominal_path_steps(a) for _, a in cmds) / norm_wall,
            "setup_s": statistics.median(setup_norm),
            "peak_rss_mb": result["maxrss_kb"] / 1024.0,
            "ok_frac": (attempted - failed) / attempted,
        }
        metrics = {m: {"value": values[m], "unit": u} for m, u in END_TO_END.items()}
    summary = {"correct": failed == 0, "attempted": result["attempted"],
               "failed": failed, "metrics": metrics}
    return info, summary


def main() -> int:
    args = _args()
    try:
        info, summary = _run(args)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(info))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
