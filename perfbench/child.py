"""One benchmark process: set up qtraj, then run a workload's command list
pass after pass through ``qtraj.cli.main(argv)``, checking every output.

Started by run.py with the qtraj sources on PYTHONPATH and BLAS/OpenMP
threads pinned to 1, in a scratch directory that receives the CSVs. Prints
one JSON object on stdout when done. Modes:

  setup    set up, report when ready, exit (set-up time samples);
  measure  set up, then passes for --seconds: untraced only with --trace 0,
           alternating untraced and traced with --trace 1.

The speed probe (probe.py) runs from the start of main() to the end, so
every pass and the set-up are also reported rescaled to its fixed speed.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import probe
import tracer
import workloads


def _args():
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", default="full")
    p.add_argument("--mode", choices=["setup", "measure"], default="measure")
    p.add_argument("--corrupt", action="store_true")
    p.add_argument("--spawned", type=float, required=True,
                   help="time.monotonic() at which run.py started this child")
    return p.parse_args()


def _quiet(main, argv) -> tuple[int, str]:
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code if isinstance(exc.code, int) else 2
    return code, err.getvalue().strip()


def _corrupt(path: str) -> None:
    """Replace the last field of the last row with nan (smoke test only)."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    lines[-1] = lines[-1].rsplit(",", 1)[0] + ",nan"
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


class Runner:
    def __init__(self, args, cli_main, speed):
        self.args = args
        self.speed = speed
        self.main = cli_main
        self.cmds = workloads.commands(args.workload, args.seed, args.size)
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.passes = 0

    def run_pass(self, span_tracer=None) -> tuple[float, float, int]:
        """Run the command list once; returns (wall seconds, seconds at the
        probe's reference speed, bytes written). Checks run after the timed
        region."""
        codes = []
        t0 = time.monotonic()
        for _, argv in self.cmds:
            if span_tracer is None:
                codes.append(_quiet(self.main, argv))
            else:
                with span_tracer.span("cli.main"):
                    codes.append(_quiet(self.main, argv))
        t1 = time.monotonic()
        written = 0
        for (name, argv), (code, err) in zip(self.cmds, codes):
            self.attempted += 1
            failure = self._check(name, argv, code, err)
            if failure:
                self.failures.append(f"pass {self.passes}, {name}: {failure}")
            if os.path.exists(f"{name}.csv"):
                written += os.path.getsize(f"{name}.csv")
        self.passes += 1
        return t1 - t0, self.speed.normalised(t0, t1), written

    def _check(self, name, argv, code, err) -> str | None:
        if code != 0:
            return f"exit {code}: {err}"
        path = f"{name}.csv"
        try:
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            if self.digests.setdefault(name, digest) != digest:
                return "CSV bytes differ from the first pass (same seed and flags)"
            if self.args.corrupt and self.passes == 0 and name == self.cmds[0][0]:
                _corrupt(path)
            workloads.check_output(path, argv)
        except (workloads.CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
            return f"{type(exc).__name__}: {exc}"
        return None

    def measure(self) -> dict:
        untraced: list[float] = []
        untraced_norm: list[float] = []
        traced: list[float] = []
        traced_norm: list[float] = []
        layers: list[dict] = []
        spans = None
        start = time.perf_counter()
        while True:
            if self.args.trace and len(traced) < len(untraced):
                pass_tracer = tracer.Tracer()
                with pass_tracer.patched():
                    wall, norm, written = self.run_pass(pass_tracer)
                traced.append(wall)
                traced_norm.append(norm)
                layers.append(pass_tracer.layer_metrics(written))
                if spans is None:   # dump and unpatched names of the first traced pass
                    spans, unpatched = pass_tracer.dump(), pass_tracer.unpatched
            else:
                wall, norm, _ = self.run_pass()
                untraced.append(wall)
                untraced_norm.append(norm)
            elapsed = time.perf_counter() - start
            if self.args.trace:
                done = bool(traced) and elapsed + max(statistics.median(untraced),
                                                      statistics.median(traced)) > self.args.seconds
            else:
                # two passes at least, so the determinism check always runs
                done = len(untraced) >= 2 and elapsed + statistics.median(untraced) > self.args.seconds
            if done:
                break
        out = {"untraced_s": untraced, "untraced_norm_s": untraced_norm,
               "traced_s": traced, "traced_norm_s": traced_norm,
               "attempted": self.attempted,
               "failures": self.failures}
        if self.args.trace:
            # median_low keeps counts integral; counts repeat exactly per pass
            out["layers"] = {m: statistics.median_low(p[m] for p in layers) for m in layers[0]}
            out["spans"] = spans
            out["unpatched"] = unpatched
        return out


def main() -> int:
    args = _args()
    speed = probe.SpeedProbe()
    speed.start()
    try:
        return _main(args, speed)
    finally:
        speed.stop()


def _main(args, speed) -> int:
    root = Path(args.root).resolve()
    import numpy
    import qtraj
    from qtraj.cli import build_model, main as cli_main
    from qtraj.model import build_unitary

    if Path(qtraj.__file__).resolve().parent != root / "src" / "qtraj":
        print(f"qtraj imported from {qtraj.__file__}, not from {root / 'src'}", file=sys.stderr)
        return 3

    build_unitary(build_model({}, {}))
    for name, argv in workloads.commands(args.workload, args.seed, "warmup"):
        code, err = _quiet(cli_main, argv)
        if code != 0:
            print(f"warm-up {name} failed with exit {code}: {err}", file=sys.stderr)
            return 3
    ready = time.monotonic()
    result = {"setup_s": ready - args.spawned,
              "setup_norm_s": speed.normalised(args.spawned, ready),
              "numpy": numpy.__version__}
    if args.mode == "measure":
        result.update(Runner(args, cli_main, speed).measure())
        result["probe_median_s"] = speed.median_cost()
        result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
