"""Layer tracing for one traced pass.

Spans are opened around the public functions one qtraj module calls in
another (plus the convergence diagnostics run_full_report calls). Each
wrapper replaces the imported name in the *calling* module's namespace, and
``Tracer.patched()`` restores every original on exit, so untraced passes in
the same process run the unmodified code.

A span's self time is its duration minus the time covered by its child
spans. Counter-only wrappers open no span, so their time stays with the
caller. Spans are kept in memory and summarised per (parent, name) path.
"""

from __future__ import annotations

import importlib
import inspect
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


LAYER_TIMES = {  # metric -> span whose self time it reports
    "discrete.drive_ensemble_s": "discrete.drive_ensemble",
    "discrete.ensemble_streams_s": "discrete.ensemble_streams",
    "discrete.run_trajectory_s": "discrete.run_trajectory",
    "discrete.csv_s": "discrete.csv",
    "sde.ensemble_final_s": "sde.ensemble_final",
    "sde.scalar_path_s": "sde.scalar_path",
    "sde.master_s": "sde.master",
    "sde.drift_backaction_s": "sde.drift_backaction",
    "sde.csv_s": "sde.csv",
    "convergence.mean_vs_master_s": "convergence.mean_vs_master",
    "convergence.qv_s": "convergence.qv",
    "convergence.ks_s": "convergence.ks",
    "convergence.residual_s": "convergence.residual",
    "model.build_unitary_s": "model.build_unitary",
    "model.check_state_s": "model.check_state",
    "linalg.herm_eigen2_s": "linalg.herm_eigen2",
    "cli.build_model_s": "cli.build_model",
    "cli.self_s": "cli.main",
}

LAYER_COUNTS = (
    "discrete.chain_path_steps", "discrete.csv_rows", "sde.euler_path_steps",
    "sde.scalar_steps", "sde.rk4_steps", "sde.csv_rows", "convergence.chain_passes",
    "convergence.ks_2samp_calls", "model.build_unitary_calls", "model.check_state_calls",
    "linalg.herm_eigen2_calls", "linalg.expm4_calls", "rng.generators_built",
)


LAYER_UNITS = {
    **{m: "s" for m in LAYER_TIMES}, "trace.overhead_s": "s",
    **{m: "count" for m in LAYER_COUNTS},
    "discrete.ns_per_chain_path_step": "ns", "sde.ns_per_euler_path_step": "ns",
    "cli.bytes_written": "bytes",
}


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.paths: dict[tuple[str, ...], list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self._stack: list[list] = []   # [name, start, child_time]
        self.unpatched: list[str] = []

    @contextmanager
    def span(self, name: str):
        frame = [name, perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            dur = perf_counter() - frame[1]
            path = tuple(f[0] for f in self._stack)
            self._stack.pop()
            if self._stack:
                self._stack[-1][2] += dur
            self.self_s[name] += dur - frame[2]
            agg = self.paths[path]
            agg[0] += 1
            agg[1] += dur
            agg[2] += dur - frame[2]

    def dump(self) -> list[dict]:
        """Per call path: calls, total and self seconds."""
        return [{"path": "/".join(p), "calls": a[0], "total_s": a[1], "self_s": a[2]}
                for p, a in sorted(self.paths.items())]

    def layer_metrics(self, bytes_written: int) -> dict[str, float]:
        """Per-layer metrics of this pass (all of LAYER_UNITS but
        trace.overhead_s, which needs an untraced pass too)."""
        out = {m: self.self_s.get(span, 0.0) for m, span in LAYER_TIMES.items()}
        out.update({m: self.counts.get(m, 0) for m in LAYER_COUNTS})
        for rate, time_m, steps_m in (
                ("discrete.ns_per_chain_path_step", "discrete.drive_ensemble_s",
                 "discrete.chain_path_steps"),
                ("sde.ns_per_euler_path_step", "sde.ensemble_final_s", "sde.euler_path_steps")):
            steps = out[steps_m]
            out[rate] = 1e9 * out[time_m] / steps if steps else 0.0
        out["cli.bytes_written"] = bytes_written
        return out

    # --- wrapper factories -------------------------------------------------

    def timed(self, fn, name, count=None, work=None):
        """Span ``name`` around ``fn``; bump ``count`` per call and add
        ``work(bound_args, result)`` to counter ``work[0]``."""
        sig = inspect.signature(fn) if work else None

        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count:
                self.counts[count] += 1
            if work:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.counts[work[0]] += work[1](bound.arguments, result)
            return result
        return wrapper

    def counted(self, fn, count):
        def wrapper(*args, **kwargs):
            self.counts[count] += 1
            return fn(*args, **kwargs)
        return wrapper

    def generator(self, fn, name, count=None, rows=None):
        """Time a generator per ``next()``, so time the consumer spends
        between yields stays with the consumer; ``rows`` counts the batch
        size once per yield."""
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            if count:
                self.counts[count] += 1
            batch = sig.bind(*args, **kwargs).arguments["uniforms"].shape[0]
            gen = fn(*args, **kwargs)
            while True:
                with self.span(name):
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                self.counts[rows] += batch
                yield item
        return wrapper

    @contextmanager
    def patched(self):
        """Install every wrapper of PATCHES; restore the originals on exit.
        A name the calling module no longer imports is listed in
        ``self.unpatched`` and its metrics read 0."""
        saved = []
        try:
            for module_name, attr, make in PATCHES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    self.unpatched.append(f"{module_name}.{attr}")
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, make(self, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def _euler_work(a, _):
    return a["num_paths"] * int(round(a["cfg"].t_horizon / a["h"]))


def _rk4_grid_work(a, _):
    return int(a["n"] * a["cfg"].t_horizon) * a["refine"]


def _grid_steps(_, result):
    return len(result.grid) - 1


def _grid_rows(a, _):
    return len((a.get("path") or a.get("wave")).grid)


def _record_rows(a, _):
    return a["record"].steps + 1


# (calling module, imported name, wrapper factory). Span names are the
# per-layer metric prefixes in BENCHMARK.json.
PATCHES = [
    # cli -> convergence / discrete / sde, and cli's own build_model
    ("qtraj.cli", "build_model", lambda t, f: t.timed(f, "cli.build_model")),
    ("qtraj.cli", "run_full_report", lambda t, f: t.timed(f, "convergence.run_full_report")),
    ("qtraj.cli", "run_trajectory", lambda t, f: t.timed(f, "discrete.run_trajectory")),
    ("qtraj.cli", "trajectory_to_csv",
     lambda t, f: t.timed(f, "discrete.csv", work=("discrete.csv_rows", _record_rows))),
    ("qtraj.cli", "sde_ensemble_final",
     lambda t, f: t.timed(f, "sde.ensemble_final", work=("sde.euler_path_steps", _euler_work))),
    ("qtraj.cli", "master_evolve",
     lambda t, f: t.timed(f, "sde.master", work=("sde.rk4_steps", _grid_steps))),
    *[("qtraj.cli", fn, lambda t, f: t.timed(f, "sde.scalar_path",
                                             work=("sde.scalar_steps", _grid_steps)))
      for fn in ("simulate_belavkin", "simulate_physical", "simulate_wave")],
    *[("qtraj.cli", fn, lambda t, f: t.timed(f, "sde.csv", work=("sde.csv_rows", _grid_rows)))
      for fn in ("sde_path_to_csv", "wave_path_to_csv")],
    # convergence's diagnostics, and convergence -> discrete / sde
    ("qtraj.convergence", "mean_vs_master", lambda t, f: t.timed(f, "convergence.mean_vs_master")),
    ("qtraj.convergence", "quadratic_variation_stats", lambda t, f: t.timed(f, "convergence.qv")),
    ("qtraj.convergence", "distributional_test", lambda t, f: t.timed(f, "convergence.ks")),
    ("qtraj.convergence", "residual_decay", lambda t, f: t.timed(f, "convergence.residual")),
    ("qtraj.convergence", "ks_2samp", lambda t, f: t.counted(f, "convergence.ks_2samp_calls")),
    ("qtraj.convergence", "drive_ensemble",
     lambda t, f: t.generator(f, "discrete.drive_ensemble", count="convergence.chain_passes",
                              rows="discrete.chain_path_steps")),
    ("qtraj.convergence", "ensemble_streams", lambda t, f: t.timed(f, "discrete.ensemble_streams")),
    ("qtraj.convergence", "sde_ensemble_final",
     lambda t, f: t.timed(f, "sde.ensemble_final", work=("sde.euler_path_steps", _euler_work))),
    ("qtraj.convergence", "master_on_grid",
     lambda t, f: t.timed(f, "sde.master", work=("sde.rk4_steps", _rk4_grid_work))),
    *[("qtraj.convergence", fn, lambda t, f: t.timed(f, "sde.drift_backaction"))
      for fn in ("lindblad", "backaction")],
    # discrete -> discrete (run_trajectory's batch of one) / model / rng
    ("qtraj.discrete", "drive_ensemble",
     lambda t, f: t.generator(f, "discrete.drive_ensemble", rows="discrete.chain_path_steps")),
    ("qtraj.discrete", "build_unitary",
     lambda t, f: t.timed(f, "model.build_unitary", count="model.build_unitary_calls")),
    ("qtraj.discrete", "check_state",
     lambda t, f: t.timed(f, "model.check_state", count="model.check_state_calls")),
    ("qtraj.discrete", "generator_for", lambda t, f: t.counted(f, "rng.generators_built")),
    # sde -> model / linalg / rng
    ("qtraj.sde", "check_state",
     lambda t, f: t.timed(f, "model.check_state", count="model.check_state_calls")),
    ("qtraj.sde", "herm_eigen2",
     lambda t, f: t.timed(f, "linalg.herm_eigen2", count="linalg.herm_eigen2_calls")),
    ("qtraj.sde", "generator_for", lambda t, f: t.counted(f, "rng.generators_built")),
    # model -> linalg
    ("qtraj.model", "herm_eigen2",
     lambda t, f: t.timed(f, "linalg.herm_eigen2", count="linalg.herm_eigen2_calls")),
    ("qtraj.model", "expm4", lambda t, f: t.counted(f, "linalg.expm4_calls")),
]
