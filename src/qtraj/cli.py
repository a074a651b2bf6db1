"""Command-line front end.

Subcommands: simulate-discrete, simulate-sde, master, converge, girsanov.
Every command is a pure function of (config file, flags): identical inputs
produce byte-identical outputs, modulo the leading timestamp comment that
--no-timestamp suppresses. Exit codes: 0 success, 1 runtime failure, 2
usage/config error.

Config files are flat ``key = value`` text with # comments; flags override
file keys. Model keys:

    h0                four reals: h00, h01_re, h01_im, h11 (Hermitian)
    c                 eight reals: row-major re/im pairs of the coupling
    phi               observable mixing angle (radians)
    lambda0, lambda1  observable eigenvalues; they only need to differ, as
                      no output depends on them (the centred record x
                      depends only on the projectors)
    theta             coupling phase, folded in as c -> exp(i theta) c
    n                 interactions per unit time
    t_horizon         time horizon
    field_hamiltonian ground_energy | excited_energy

The initial state is the excited level |f1><f1| for every command.

Every command but master uses both CPUs where the platform has os.fork and
its work splits. girsanov's two ensembles and converge's independent parts
(its KS diffusion ensemble and one chain pass per n) go to two lanes by
estimated cost, one lane in a forked child. simulate-discrete and
simulate-sde write one path: for a table of csvio.SPLIT_ROWS rows or more, a
child forked before the path is stepped formats the CSV rows [0, a) of the
loop's record table as the loop publishes its checked blocks, while the
command's own process steps the path and then formats the rows from a on.
master steps its whole path before writing it, so a fork could only split
the formatting, and its fixed cost is more than the half it would save.
There is no option for this, and the bytes are those of one process, as
where os.fork does not exist. Library calls
(sde_ensemble_final, run_full_report, run_trajectory, the simulate functions,
master_evolve, write_csv and the path writers) never fork; only the commands
do.
"""

from __future__ import annotations

import argparse
import codecs
import functools
import mmap
import os
import pickle
import signal
import sys
from contextlib import ExitStack, contextmanager
from datetime import datetime, timezone

import numpy as np

from .convergence import DiagonalObservable, EnsembleSpec, assemble_report, report_parts
from .csvio import (BLOCK_ROWS, CELL_BYTES, SPLIT_ROWS, STATE_HEADER, RowFeed, TableTooLarge,
                    csv_rows, state_columns, write_csv)
from .discrete import run_trajectory, trajectory_to_csv
from .model import SIGMA_Z, DensityMatrix, ModelConfig, WaveFunction, make_observable
from .rng import derive_seed
from .sde import (
    StepOutOfRange,
    master_evolve,
    sde_ensemble_final,
    sde_path_to_csv,
    simulate_belavkin,
    simulate_physical,
    simulate_wave,
    wave_path_to_csv,
)


class ConfigError(Exception):
    """Bad configuration; maps to exit code 2."""


_MODEL_KEYS = {"h0", "c", "phi", "lambda0", "lambda1", "theta", "n",
               "t_horizon", "field_hamiltonian"}

# damped two-level atom at resonance: sigma_z/2 splitting, lowering coupling
_DEFAULT_MODEL = {
    "h0": [0.5, 0.0, 0.0, -0.5],
    "c": [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    "phi": float(np.pi / 2),
    "lambda0": 1.0,
    "lambda1": -1.0,
    "theta": 0.0,
    "n": 100,
    "t_horizon": 1.0,
    "field_hamiltonian": "excited_energy",
}

EXCITED = DensityMatrix(np.diag([0.0, 1.0]).astype(complex))


def _parse_config_file(path: str) -> dict:
    values: dict = {}
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, raw = (part.strip() for part in line.split("=", 1))
                if key not in _MODEL_KEYS:
                    raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
                values[key] = raw
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    return values


def _floats(raw, count: int, key: str) -> list[float]:
    if isinstance(raw, list):
        vals = [float(v) for v in raw]
    else:
        vals = [float(tok) for tok in raw.replace(",", " ").split()]
    if len(vals) != count:
        raise ConfigError(f"key '{key}' needs {count} reals, got {len(vals)}")
    return vals


def build_model(file_values: dict, overrides: dict) -> ModelConfig:
    merged = dict(_DEFAULT_MODEL)
    merged.update(file_values)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    try:
        h0_vals = _floats(merged["h0"], 4, "h0")
        c_vals = _floats(merged["c"], 8, "c")
        h0 = np.array([[h0_vals[0], h0_vals[1] + 1j * h0_vals[2]],
                       [h0_vals[1] - 1j * h0_vals[2], h0_vals[3]]], dtype=complex)
        c = np.array(c_vals[0::2], dtype=float).reshape(2, 2) \
            + 1j * np.array(c_vals[1::2], dtype=float).reshape(2, 2)
        obs = make_observable(float(merged["phi"]), float(merged["lambda0"]),
                              float(merged["lambda1"]))
        return ModelConfig(h0=h0, c=c, observable=obs, n=int(merged["n"]),
                           t_horizon=float(merged["t_horizon"]),
                           theta=float(merged["theta"]),
                           field_hamiltonian=str(merged["field_hamiltonian"]))
    except ConfigError:
        raise
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"bad model configuration: {exc}") from exc


def _int_in(low: int, high: float):
    """argparse type: an integer in [low, high)."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if not low <= value < high:
            raise argparse.ArgumentTypeError(f"must be in [{low}, {high}), got {value}")
        return value
    return parse


_seed = _int_in(0, 2 ** 64)
_trajectories = _int_in(2, float("inf"))  # standard errors and KS need two members


def _n_values(text: str) -> tuple[int, ...]:
    """argparse type of --n-values: comma-separated positive integers in
    strictly increasing order."""
    values = tuple(map(_int_in(1, float("inf")), text.split(",")))
    if any(b <= a for a, b in zip(values, values[1:])):
        raise argparse.ArgumentTypeError(f"must be strictly increasing, got {text!r}")
    return values


def _timestamp(args) -> str | None:
    if args.no_timestamp:
        return None
    return datetime.now(timezone.utc).isoformat()


def _load_model(args, **overrides) -> ModelConfig:
    file_values = _parse_config_file(args.config) if args.config else {}
    return build_model(file_values, overrides)


def _cmd_simulate_discrete(args) -> int:
    cfg = _load_model(args, n=args.n)
    with _FormattedAhead() as feed:
        record = run_trajectory(cfg, EXCITED, args.seed, feed=feed)
        with open(args.out, "w") as fh:
            trajectory_to_csv(record, fh, timestamp=_timestamp(args), feed=feed)
    counts = np.bincount(record.outcomes, minlength=2)
    final = record.states[-1]
    print(f"wrote {args.out}: {record.steps + 1} state rows")
    print(f"outcome counts: 0 -> {counts[0]}, 1 -> {counts[1]}")
    print(f"final state: rho_00 = {final[0, 0].real:.6f}, "
          f"rho_11 = {final[1, 1].real:.6f}, "
          f"rho_01 = {final[0, 1].real:.6f}{final[0, 1].imag:+.6f}j")
    return 0


def _cmd_simulate_sde(args) -> int:
    cfg = _load_model(args)
    with _FormattedAhead() as feed:
        if args.form == "wave":
            psi0 = WaveFunction(np.array([0.0, 1.0], dtype=complex))
            path = simulate_wave(cfg, psi0, args.h, args.seed, feed=feed)
            to_csv = wave_path_to_csv
        else:
            simulate = simulate_physical if args.form == "physical" else simulate_belavkin
            path, to_csv = simulate(cfg, EXCITED, args.h, args.seed, feed=feed), sde_path_to_csv
        with open(args.out, "w") as fh:
            to_csv(path, fh, timestamp=_timestamp(args), feed=feed)
    print(f"wrote {args.out}: {len(path.grid)} rows ({args.form} form, h = {args.h:g})")
    return 0


def _cmd_master(args) -> int:
    path = master_evolve(_load_model(args), EXCITED, args.h)
    with open(args.out, "w") as fh:
        write_csv(fh, "time," + STATE_HEADER, [path.grid, *state_columns(path.states)],
                  _timestamp(args))
    final = path.states[-1]
    print(f"wrote {args.out}: {len(path.grid)} rows")
    print(f"final populations: ground {final[0, 0].real:.8f}, "
          f"excited {final[1, 1].real:.8f}")
    return 0


def _cmd_converge(args) -> int:
    try:
        spec = EnsembleSpec(cfg=_load_model(args), rho0=EXCITED,
                            num_trajectories=args.trajectories, base_seed=args.seed,
                            n_values=args.n_values, sde_step=args.sde_step)
    except ValueError as exc:
        raise ConfigError(f"bad ensemble: {exc}") from exc
    report = assemble_report(spec, _in_two_lanes(report_parts(spec)))
    with open(args.out, "w") as fh:
        report.to_csv(fh, timestamp=_timestamp(args))
    print(f"wrote {args.out}")
    print(report.summary())
    return 0


def _in_two_lanes(parts) -> list:
    """Results of the (cost, call) ``parts``, in order: dealt largest cost
    first to the lighter of two lanes (the first on a tie), the second lane
    runs ``_beside`` the first, unless it is empty. No part's result may
    depend on its lane."""
    lanes = ([], [])
    for i in sorted(range(len(parts)), key=lambda i: -parts[i][0]):
        min(lanes, key=lambda lane: sum(parts[j][0] for j in lane)).append(i)
    if not lanes[1]:
        return [call() for _, call in parts]
    with _beside(lambda: {i: parts[i][1]() for i in lanes[1]}) as other:
        results = {i: parts[i][1]() for i in lanes[0]}
        results.update(other())
    return [results[i] for i in range(len(parts))]


@contextmanager
def _beside(func):
    """Run ``func()`` beside the with-block: in a child made by os.fork where
    the platform has it, else in-process when its result is asked for.
    Yields a callable that returns the result or raises the call's error.
    The child sends ("ok", result) or ("err", exception) pickled through a
    pipe (if that does not unpickle, a RuntimeError of the message noting
    the type) and leaves by os._exit; leaving the block kills the child if
    its reply was not read, and always reaps it."""
    if not hasattr(os, "fork"):
        yield func
        return
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            try:
                reply = ("ok", func())
            except Exception as exc:  # noqa: BLE001 - raised again in the parent
                reply = ("err", exc)
            try:
                data = pickle.dumps(reply)
                pickle.loads(data)
            except Exception as exc:  # noqa: BLE001 - the reply cannot cross
                lost = reply[1] if reply[0] == "err" else exc
                error = RuntimeError(str(lost))
                error.__notes__ = [f"raised as {type(lost).__name__} in the child"]
                data = pickle.dumps(("err", error))
            with os.fdopen(write_fd, "wb") as out:
                out.write(data)
        finally:
            os._exit(0)
    os.close(write_fd)
    reader = os.fdopen(read_fd, "rb")
    read = False

    def result():
        nonlocal read
        try:
            status, value = pickle.load(reader)
        except (EOFError, pickle.UnpicklingError):
            raise ChildProcessError(f"child process {pid} ended without a result") from None
        read = True
        if status == "err":
            raise value
        return value

    try:
        yield result
    finally:
        reader.close()
        if not read:
            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


# bytes of the child's text decoded at a time (a character may straddle two
# pieces), so that the command's process never holds the whole text as one
# string (nor its encoding on the write)
TEXT_CHUNK = 1 << 18


class _FormattedAhead(RowFeed):
    """The ``RowFeed`` of simulate-discrete and simulate-sde (master's path
    is stepped before it is written, so it has no loop to overlap): where
    the platform has os.fork, the record table of a path of SPLIT_ROWS rows
    or more lives in an anonymous shared mapping, and a child forked when
    the loop asks for the table formats the CSV rows [0, a) as they are
    published, while this process steps the path and then formats the
    rest. a balances the two lanes: the child formats a rows, this process
    steps all K and formats K - a, so a = K (1 + s / c) / 2 for a loop that
    costs s formatted cells a step and a table of c cells a row. Each
    published row count goes through a notify pipe, closed before the
    child's text is read. The child writes its text into a second anonymous
    shared mapping, of csvio.CELL_BYTES a cell of its rows, and replies with
    its length through ``_beside``, as it replies with its error. Used as a
    context manager: leaving it kills the child if its reply was not read,
    and always reaps it. Elsewhere, and for smaller tables, the table is in
    process and nothing is formatted ahead, as with ``csvio.IN_PROCESS``."""

    def __init__(self):
        self._stack = ExitStack()
        self._split, self._reply, self._notify, self._text = 0, None, None, None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return self._stack.__exit__(*exc_info)

    def table(self, shape, columns, step_cells):
        rows, width = shape
        if rows < SPLIT_ROWS or not hasattr(os, "fork"):
            return super().table(shape, columns, step_cells)
        table = np.frombuffer(mmap.mmap(-1, 8 * rows * width)).reshape(shape)
        cells = len(columns(table[:0], 0))      # c, from the columns of no rows
        split = min(rows, round(rows * (1 + step_cells / cells) / 2))
        self._text = mmap.mmap(-1, max(1, split * cells * CELL_BYTES))
        self._stack.callback(self._text.close)
        read_fd, write_fd = os.pipe()
        self._notify = self._stack.enter_context(open(write_fd, "wb", buffering=0))

        def ahead():
            self._notify.close()
            with open(read_fd, "rb", buffering=0) as notices:
                return _format_published(notices, table, columns, split, self._text)

        try:
            self._reply = self._stack.enter_context(_beside(ahead))
        finally:
            os.close(read_fd)
        self._split = split
        return table

    def publish(self, rows):
        if self._notify is None or self._notify.closed:
            return
        try:
            self._notify.write(rows.to_bytes(8, "little"))
        except BrokenPipeError:     # the child has gone; its reply says why
            self._notify.close()
        if rows >= self._split:
            self._notify.close()

    def formatted(self):
        if self._reply is None:
            return super().formatted()
        self._notify.close()

        def text():
            length = self._reply()      # or the child's error, before any text
            return codecs.iterdecode((self._text[at:min(at + TEXT_CHUNK, length)]
                                      for at in range(0, length, TEXT_CHUNK)), "utf-8")

        return self._split, text


def _format_published(notices, table, columns, split: int, text: mmap.mmap) -> int:
    """Write the CSV rows [0, split) of a record table into ``text``, formatted
    in blocks of at least BLOCK_ROWS rows (or the rest) as their row counts
    arrive through the unbuffered pipe ``notices``, and return their length
    in bytes; ``columns(rows, lo)`` gives the columns of table rows [lo, hi).
    The end of the pipe before ``split`` rows arrived raises
    ChildProcessError, and text longer than ``text`` ValueError."""
    length, done, ready = 0, 0, 0
    while done < split:
        while ready < min(done + BLOCK_ROWS, split):
            counts = notices.read(4096)
            if not counts:
                raise ChildProcessError(f"the path stopped after {ready} of the "
                                        f"{split} rows to format")
            ready = int.from_bytes(counts[-8:], "little")
        stop = min(ready, split)
        for piece in csv_rows(columns(table[done:stop], done)):
            data = piece.encode()
            if length + len(data) > len(text):
                raise ValueError(f"the formatted rows outgrow their {len(text)} bytes")
            text[length:length + len(data)] = data
            length += len(data)
        done = stop
    return length


def _cmd_girsanov(args) -> int:
    cfg = _load_model(args)
    m = args.trajectories

    def final_sz(purpose, **form):
        """Each member's final <sigma_z>, and the weights if ``form`` asks."""
        finals, weights = sde_ensemble_final(cfg, EXCITED, args.h, m,
                                             derive_seed(args.seed, purpose), **form)
        return np.einsum("jab,ba->j", finals, SIGMA_Z).real, weights

    (f_ref, weights), (f_phys, _) = _in_two_lanes([(1, lambda: final_sz(1, with_weights=True)),
                                                   (1, lambda: final_sz(2, physical=True))])
    mean_z = float(np.mean(weights))
    se_z = float(np.std(weights, ddof=1) / np.sqrt(m))
    reweighted = float(np.mean(weights * f_ref))
    se_rw = float(np.std(weights * f_ref, ddof=1) / np.sqrt(m))
    physical = float(np.mean(f_phys))
    se_ph = float(np.std(f_phys, ddof=1) / np.sqrt(m))
    with open(args.out, "w") as fh:
        write_csv(fh, "quantity,value",
                  [["mean_weight", "se_weight", "reweighted_mean_sz", "se_reweighted",
                    "physical_mean_sz", "se_physical"],
                   [mean_z, se_z, reweighted, se_rw, physical, se_ph]],
                  _timestamp(args))
    print(f"wrote {args.out}")
    print(f"E[Z_T] = {mean_z:.5f} +- {se_z:.5f} (target 1)")
    print(f"reweighted <sigma_z> = {reweighted:.5f} +- {se_rw:.5f}")
    print(f"physical  <sigma_z> = {physical:.5f} +- {se_ph:.5f}")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtraj",
        description="Quantum trajectories of a monitored two-level system: "
                    "measurement chain, diffusive limit, convergence checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, default_out):
        p.add_argument("--config", help="flat key = value model file")
        p.add_argument("--seed", type=_seed, required=True,
                       help="64-bit master seed (required)")
        p.add_argument("--out", default=default_out, help="output CSV path")
        p.add_argument("--no-timestamp", action="store_true",
                       help="omit the timestamp comment for byte-identical reruns")

    p = sub.add_parser("simulate-discrete", help="one measurement-chain trajectory")
    common(p, "simulate-discrete.csv")
    p.add_argument("--n", type=int, help="override interactions per unit time")
    p.set_defaults(func=_cmd_simulate_discrete)

    p = sub.add_parser("simulate-sde", help="one diffusive trajectory")
    common(p, "simulate-sde.csv")
    p.add_argument("--form", choices=["belavkin", "physical", "wave"],
                   default="belavkin")
    p.add_argument("--h", type=float, default=1e-3, help="Euler step size")
    p.set_defaults(func=_cmd_simulate_sde)

    p = sub.add_parser("master", help="deterministic averaged evolution")
    common(p, "master.csv")
    p.add_argument("--h", type=float, default=1e-3,
                   help="step of the exact propagator exp(hL), in (0, T], dividing T")
    p.set_defaults(func=_cmd_master)

    p = sub.add_parser("converge", help="full convergence diagnostic sweep")
    common(p, "converge.csv")
    p.add_argument("--n-values", type=_n_values, default="20,80",
                   help="comma-separated increasing discretizations to sweep")
    p.add_argument("--trajectories", type=_trajectories, default=1000)
    p.add_argument("--sde-step", type=float, default=None,
                   help="Euler step of the KS diffusion ensemble (default: the largest "
                        "step not above min(5e-4, 1/(10 max n)) that divides min(1, T))")
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("girsanov", help="reweighting cross-validation")
    common(p, "girsanov.csv")
    p.add_argument("--trajectories", type=_trajectories, default=5000)
    p.add_argument("--h", type=float, default=1e-3)
    p.set_defaults(func=_cmd_girsanov)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, StepOutOfRange, DiagonalObservable, TableTooLarge) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
