"""Workload definitions: the qtraj command lists each workload runs, the
nominal work they represent, and the physics checks on their outputs.

A workload seed is turned into per-command qtraj seeds here; qtraj itself
only ever sees the generated argv. Every command writes its CSV under
--no-timestamp, so two runs of the same argv must give the same bytes.

Sizes:
  full    the measured size (about 8-16 s per pass on a 2-vCPU Xeon VM);
  tiny    the smoke-test size, small but still large enough for every
          check to hold;
  warmup  the single call made during set-up, outputs unchecked.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

STATE_TOL = 1e-10
NORM_TOL = 1e-10
MASTER_TOL = 1e-6
MEAN_ERROR_MAX = 0.05
N_SE = 4.0

WORKLOADS = ("converge-chain", "girsanov-ensemble", "single-path-csv")


class CheckFailed(Exception):
    """An output violates a physical invariant or a statistical bound."""


def command_seed(workload: str, seed: int, index: int) -> int:
    """qtraj --seed of command ``index``: a hash of the workload seed."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def _converge(n_values, trajectories, sde_step):
    return [("converge", ["converge", "--n-values", ",".join(map(str, n_values)),
                          "--trajectories", str(trajectories),
                          "--sde-step", repr(sde_step)])]


def _girsanov(trajectories, h):
    return [("girsanov", ["girsanov", "--trajectories", str(trajectories),
                          "--h", repr(h)])]


def _single_path(n, h):
    return [("simulate-discrete", ["simulate-discrete", "--n", str(n)])] + [
        (f"sde-{form}", ["simulate-sde", "--form", form, "--h", repr(h)])
        for form in ("belavkin", "physical", "wave")
    ] + [("master", ["master", "--h", repr(h)])]


_LISTS = {
    "converge-chain": {
        "full": _converge((50, 200), 2000, 1e-2),
        "tiny": _converge((10, 40), 2000, 1e-2),
        "warmup": _converge((2, 4), 2, 1e-2),
    },
    "girsanov-ensemble": {
        "full": _girsanov(1000, 1e-3),
        "tiny": _girsanov(200, 1e-2),
        "warmup": _girsanov(2, 1e-2),
    },
    "single-path-csv": {
        "full": _single_path(20000, 1e-4),
        "tiny": _single_path(200, 1e-2),
        "warmup": _single_path(10, 1e-2)[:1],
    },
}


def commands(workload: str, seed: int, size: str) -> list[tuple[str, list[str]]]:
    """(name, argv) per command; each writes ``<name>.csv`` in the cwd."""
    out = []
    for i, (name, argv) in enumerate(_LISTS[workload][size]):
        out.append((name, argv + ["--seed", str(command_seed(workload, seed, i)),
                                  "--out", f"{name}.csv", "--no-timestamp"]))
    return out


def _flag(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _euler_steps(h: float) -> int:
    # the default model has t_horizon = 1
    return int(round(1.0 / h))


def nominal_path_steps(argv: list[str]) -> int:
    """Work one command represents, counted from its argv alone.

    converge: four chain diagnostics (mean, QV, KS, residual), each M * n
    interactions per n, plus M Euler paths and 10 n RK4 steps per n.
    girsanov: two Euler ensembles of M paths. simulate-discrete: n
    interactions. simulate-sde and master: 1/h steps.
    """
    cmd = argv[0]
    if cmd == "converge":
        ns = [int(v) for v in _flag(argv, "--n-values").split(",")]
        m = int(_flag(argv, "--trajectories"))
        return (4 * m * sum(ns) + m * _euler_steps(float(_flag(argv, "--sde-step")))
                + 10 * sum(ns))
    if cmd == "girsanov":
        return 2 * int(_flag(argv, "--trajectories")) * _euler_steps(float(_flag(argv, "--h")))
    if cmd == "simulate-discrete":
        return int(_flag(argv, "--n"))
    return _euler_steps(float(_flag(argv, "--h")))


# --- output checks ---------------------------------------------------------
#
# Every comparison is written so that NaN fails it: `not (x <= tol)` rather
# than `x > tol`.

def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _read_table(path: str, usecols) -> tuple[list[str], np.ndarray]:
    with open(path) as fh:
        text = fh.read()
    lines = text.splitlines()
    _require(len(lines) >= 2, f"{path}: no data rows")
    data = np.loadtxt(lines[1:], delimiter=",", usecols=usecols, ndmin=2)
    return lines, data


def _check_states(path: str, cols: np.ndarray) -> None:
    r00, r01re, r01im, r11 = cols.T
    det = r00 * r11 - (r01re ** 2 + r01im ** 2)
    _require(bool(np.all(np.abs(r00 + r11 - 1.0) <= STATE_TOL)), f"{path}: trace != 1")
    _require(bool(np.all((r00 >= -STATE_TOL) & (r11 >= -STATE_TOL))),
             f"{path}: negative diagonal")
    _require(bool(np.all(det >= -STATE_TOL)), f"{path}: negative determinant")


def _check_path_csv(path: str, argv: list[str]) -> None:
    cmd = argv[0]
    if cmd == "simulate-discrete":
        steps, state_cols = int(_flag(argv, "--n")), (6, 7, 8, 9)
    elif cmd == "master":
        steps, state_cols = _euler_steps(float(_flag(argv, "--h"))), (1, 2, 3, 4)
    else:
        steps, state_cols = _euler_steps(float(_flag(argv, "--h"))), (2, 3, 4, 5)
    wave = cmd == "simulate-sde" and _flag(argv, "--form") == "wave"
    usecols = state_cols + ((6, 7, 8, 9) if wave else ())
    lines, data = _read_table(path, usecols)
    _require(len(lines) == 2 + steps, f"{path}: {len(lines) - 1} rows, want {1 + steps}")
    _check_states(path, data[:, :4])
    if wave:
        norm = np.sum(data[:, 4:] ** 2, axis=1)
        _require(bool(np.all(np.abs(norm - 1.0) <= NORM_TOL)), f"{path}: psi norm != 1")
    if cmd == "master":
        err = abs(data[-1, 3] - math.exp(-1.0))
        _require(err <= MASTER_TOL, f"{path}: final excited population off exp(-1) by {err}")


def _read_pairs(path: str) -> dict[str, float]:
    with open(path) as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[1:]]
    return {",".join(r[:-1]): float(r[-1]) for r in rows}


def _check_converge(path: str, argv: list[str]) -> None:
    stats = _read_pairs(path)
    _require(all(math.isfinite(v) for v in stats.values()), f"{path}: non-finite value")
    ns = _flag(argv, "--n-values").split(",")
    m = int(_flag(argv, "--trajectories"))
    for n in ns:
        # sqrt(E[(QV - 1)^2] / M) bounds the standard error of the QV mean
        se = math.sqrt(stats[f"{n},qv_l2_deviation"] / m)
        _require(abs(stats[f"{n},qv_mean"] - 1.0) <= N_SE * se, f"{path}: n={n} qv_mean off 1")
        # the sup error is dominated by Monte Carlo noise of order 1/sqrt(M)
        # at the default damping, so it is bounded, not required to fall
        _require(stats[f"{n},mean_vs_master_sup_error"] < MEAN_ERROR_MAX,
                 f"{path}: n={n} mean-vs-master error >= {MEAN_ERROR_MAX}")
    first, last = ns[0], ns[-1]
    _require(stats[f"{last},residual_sup_mean"] < stats[f"{first},residual_sup_mean"],
             f"{path}: residual does not fall from n={first} to n={last}")


def _check_girsanov(path: str) -> None:
    q = _read_pairs(path)
    _require(abs(q["mean_weight"] - 1.0) <= N_SE * q["se_weight"], f"{path}: E[Z_T] off 1")
    se = math.sqrt(q["se_reweighted"] ** 2 + q["se_physical"] ** 2)
    _require(abs(q["reweighted_mean_sz"] - q["physical_mean_sz"]) <= N_SE * se,
             f"{path}: reweighted and physical <sigma_z> disagree")


def check_output(path: str, argv: list[str]) -> None:
    """Raise CheckFailed unless the command's CSV is physically correct."""
    if argv[0] == "converge":
        _check_converge(path, argv)
    elif argv[0] == "girsanov":
        _check_girsanov(path)
    else:
        _check_path_csv(path, argv)
