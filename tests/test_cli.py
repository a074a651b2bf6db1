import hashlib
import os
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from qtraj.cli import main
from qtraj.model import NotAState

from oracles import (density_path_batch_of_one, member_streams_step_by_step,
                     run_trajectory_batch_of_one, wave_path_batch_of_one)

ROOT = Path(__file__).resolve().parent.parent


def run_cli(*argv):
    return main(list(argv))


def read_rows(path):
    lines = path.read_text().splitlines()
    lines = [ln for ln in lines if not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


ANTIHERM_CFG = """
# coupling i*sigma_x: c + c+ = 0
c = 0 0 0 1 0 1 0 0
n = 50
"""


class TestSimulateDiscrete:
    def test_row_count_contract(self, tmp_path):
        out = tmp_path / "d.csv"
        code = run_cli("simulate-discrete", "--n", "100", "--seed", "7",
                       "--out", str(out), "--no-timestamp")
        assert code == 0
        header, rows = read_rows(out)
        assert header[:6] == ["step", "time", "outcome", "p", "q", "x"]
        assert len(rows) == 101
        assert rows[0][2] == ""  # no outcome before the first step

    def test_missing_seed_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("simulate-discrete", "--out", str(tmp_path / "x.csv"))
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
    def test_out_of_range_seed_exits_2(self, tmp_path, capsys, seed):
        with pytest.raises(SystemExit) as exc:
            run_cli("simulate-discrete", "--seed", seed,
                    "--out", str(tmp_path / "x.csv"))
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_largest_seed_accepted(self, tmp_path):
        assert run_cli("simulate-discrete", "--n", "10", "--seed", str(2 ** 64 - 1),
                       "--out", str(tmp_path / "x.csv"), "--no-timestamp") == 0

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run_cli("simulate-discrete", "--n", "60", "--seed", "3",
                           "--out", str(out), "--no-timestamp") == 0
        assert a.read_bytes() == b.read_bytes()

    def test_timestamp_line_toggles(self, tmp_path):
        out = tmp_path / "t.csv"
        run_cli("simulate-discrete", "--n", "10", "--seed", "1", "--out", str(out))
        assert out.read_text().startswith("# generated ")


class TestSimulateSde:
    def test_wave_norms_are_one(self, tmp_path):
        out = tmp_path / "w.csv"
        code = run_cli("simulate-sde", "--form", "wave", "--h", "1e-3",
                       "--seed", "3", "--out", str(out), "--no-timestamp")
        assert code == 0
        header, rows = read_rows(out)
        i0 = header.index("psi_0_re")
        psi = np.array([[float(r[i0]), float(r[i0 + 1]),
                         float(r[i0 + 2]), float(r[i0 + 3])] for r in rows])
        norms = np.sqrt((psi ** 2).sum(axis=1))
        assert np.max(np.abs(norms - 1.0)) < 1e-12

    def test_step_guard_exits_2(self, tmp_path):
        code = run_cli("simulate-sde", "--h", "0.5", "--seed", "1",
                       "--out", str(tmp_path / "x.csv"))
        assert code == 2

    def test_physical_matches_belavkin_for_antihermitian_coupling(self, tmp_path):
        cfg = tmp_path / "model.cfg"
        cfg.write_text(ANTIHERM_CFG)
        outs = []
        for form in ("belavkin", "physical"):
            out = tmp_path / f"{form}.csv"
            assert run_cli("simulate-sde", "--config", str(cfg), "--form", form,
                           "--h", "1e-3", "--seed", "5", "--out", str(out),
                           "--no-timestamp") == 0
            header, rows = read_rows(out)
            cols = slice(header.index("rho_00_re"), header.index("rho_11_re") + 1)
            outs.append([r[cols] for r in rows])
        assert outs[0] == outs[1]


    @pytest.mark.parametrize("form", ["belavkin", "physical", "wave"])
    def test_deterministic_output(self, tmp_path, form):
        texts = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert run_cli("simulate-sde", "--form", form, "--h", "1e-3",
                           "--seed", "13", "--out", str(out),
                           "--no-timestamp") == 0
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]


class TestMaster:
    def test_decay_oracle(self, tmp_path):
        out = tmp_path / "m.csv"
        assert run_cli("master", "--h", "1e-3", "--seed", "1",
                       "--out", str(out), "--no-timestamp") == 0
        header, rows = read_rows(out)
        excited = float(rows[-1][header.index("rho_11_re")])
        assert abs(excited - np.exp(-1.0)) < 1e-6


class TestConverge:
    def test_small_sweep(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        code = run_cli("converge", "--n-values", "10,20", "--trajectories", "60",
                       "--seed", "1", "--out", str(out), "--no-timestamp")
        assert code == 0
        text = out.read_text()
        assert "mean_vs_master_sup_error" in text
        assert "ks_sigma_z" in text
        assert "n=20" in capsys.readouterr().out


class TestGirsanov:
    def test_weight_mean_near_one(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        code = run_cli("girsanov", "--trajectories", "800", "--h", "2e-3",
                       "--seed", "1", "--out", str(out), "--no-timestamp")
        assert code == 0
        rows = dict(line.split(",") for line in out.read_text().splitlines()[1:])
        mean_z = float(rows["mean_weight"])
        se_z = float(rows["se_weight"])
        assert abs(mean_z - 1.0) <= 3.0 * se_z


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _fork_counter(monkeypatch):
    forks = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return forks


def _failing_ensembles(monkeypatch, reference=None, innovation=None):
    """Patch the CLI's ensemble so that the reference (weights) call runs
    ``reference`` first and the innovation (physical) call ``innovation``."""
    import qtraj.cli

    real = qtraj.cli.sde_ensemble_final

    def ensemble(*args, physical=False, **kwargs):
        replacement = innovation if physical else reference
        if replacement is not None:
            replacement()
        return real(*args, physical=physical, **kwargs)

    monkeypatch.setattr(qtraj.cli, "sde_ensemble_final", ensemble)


def _raise(exc):
    def fail():
        raise exc
    return fail


# sha256 of the CSVs, each ensemble one step-major stream block of its seed
# (rng.member_streams); forked and in-process runs both give them
GIRSANOV_DIGESTS = [
    (("--seed", "7", "--trajectories", "200", "--h", "1e-3"),
     "452d8b473a43368db1762c8bb406e03f2ba4162a2eb1eb4ee64892f0a2d3a381"),
    (("--seed", "7", "--trajectories", "2", "--h", "1e-3"),
     "504df4221be1311dc5ac32885fa84cdbc11acbfc2ac825aa1da317fbc62283be"),
    (("--seed", "0", "--trajectories", "50", "--h", "1e-2"),
     "b1707ec2a5c3847d98de6ebc1df052ee169e4f2d3079309d967263cbcbcc720d"),
    (("--seed", str(2 ** 64 - 1), "--trajectories", "31", "--h", "2e-3"),
     "2ff5b6f0a61ade2d68161204998124b058b384422aad82686f71aba86dc7a1e9"),
    (("--seed", "3", "--trajectories", "40", "--h", "5e-3", "--config", "half"),
     "1a0d46cd482d8bea5dced3048ee19ddb2dbe388e0c40f540712d226529cdaf45"),
    # the girsanov-ensemble benchmark's size
    (("--seed", "7", "--trajectories", "1000", "--h", "1e-3"),
     "ad6b10b197c60b64274de58d2103fba2fc52727653a4cd195c7ddaf3e976a6ee"),
]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the platform has no os.fork")
class TestGirsanovTwoProcesses:
    """girsanov steps the innovation-form ensemble in a forked child while
    the reference ensemble steps in the parent."""

    @pytest.mark.parametrize("argv,digest", GIRSANOV_DIGESTS)
    def test_same_bytes_forked_and_in_process(self, tmp_path, monkeypatch, capsys,
                                              argv, digest):
        (tmp_path / "half.cfg").write_text("t_horizon = 0.5\n")
        argv = [str(tmp_path / "half.cfg") if a == "half" else a for a in argv]
        forked, in_process = tmp_path / "forked.csv", tmp_path / "in_process.csv"
        forks = _fork_counter(monkeypatch)
        assert run_cli("girsanov", *argv, "--out", str(forked), "--no-timestamp") == 0
        assert len(forks) == 1
        forked_out = capsys.readouterr().out
        monkeypatch.delattr(os, "fork")
        assert run_cli("girsanov", *argv, "--out", str(in_process), "--no-timestamp") == 0
        assert capsys.readouterr().out == forked_out.replace(str(forked), str(in_process))
        assert forked.read_bytes() == in_process.read_bytes()
        assert hashlib.sha256(forked.read_bytes()).hexdigest() == digest
        _no_children_left()

    def test_child_error_reported_as_in_process(self, tmp_path, monkeypatch, capsys):
        _failing_ensembles(monkeypatch, innovation=_raise(NotAState("innovation broke")))
        out = tmp_path / "g.csv"
        argv = ("girsanov", "--trajectories", "20", "--h", "1e-2", "--seed", "1",
                "--out", str(out))
        forks = _fork_counter(monkeypatch)
        assert run_cli(*argv) == 1
        assert len(forks) == 1
        forked = capsys.readouterr()
        _no_children_left()
        monkeypatch.delattr(os, "fork")
        assert run_cli(*argv) == 1
        assert capsys.readouterr() == forked
        assert forked.err == "error: innovation broke\n"
        assert not out.exists()

    @pytest.mark.parametrize("exc", [NotAState("reference broke"), KeyboardInterrupt()])
    def test_parent_error_kills_and_reaps_child(self, tmp_path, monkeypatch, capsys, exc):
        # the child would sleep for a minute; the parent must not wait for it
        _failing_ensembles(monkeypatch, reference=_raise(exc),
                           innovation=lambda: time.sleep(60))
        kills = []
        real_kill = os.kill

        def kill(pid, sig):
            kills.append(sig)
            real_kill(pid, sig)

        monkeypatch.setattr(os, "kill", kill)
        argv = ("girsanov", "--trajectories", "20", "--h", "1e-2", "--seed", "1",
                "--out", str(tmp_path / "g.csv"))
        start = time.monotonic()
        if isinstance(exc, KeyboardInterrupt):
            with pytest.raises(KeyboardInterrupt):
                run_cli(*argv)
        else:
            assert run_cli(*argv) == 1
            assert capsys.readouterr().err == "error: reference broke\n"
        assert time.monotonic() - start < 30
        assert kills == [signal.SIGKILL]
        _no_children_left()

    def test_both_fail_reports_reference_first(self, tmp_path, monkeypatch, capsys):
        _failing_ensembles(monkeypatch, reference=_raise(NotAState("reference broke")),
                           innovation=_raise(NotAState("innovation broke")))
        assert run_cli("girsanov", "--trajectories", "20", "--h", "1e-2", "--seed", "1",
                       "--out", str(tmp_path / "g.csv")) == 1
        assert capsys.readouterr().err == "error: reference broke\n"
        _no_children_left()

    def test_child_gone_without_reply(self, tmp_path, monkeypatch, capsys):
        _failing_ensembles(monkeypatch, innovation=lambda: os._exit(3))
        assert run_cli("girsanov", "--trajectories", "20", "--h", "1e-2", "--seed", "1",
                       "--out", str(tmp_path / "g.csv")) == 1
        assert "ended without a result" in capsys.readouterr().err
        _no_children_left()

    def test_step_beyond_bound_exits_2(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        assert run_cli("girsanov", "--trajectories", "20", "--h", "0.5", "--seed", "1",
                       "--out", str(out)) == 2
        assert "step size must be in" in capsys.readouterr().err
        assert not out.exists()
        _no_children_left()

    def test_summary_printed_once_by_a_fresh_interpreter(self, tmp_path):
        lines = _fresh_interpreter_stdout("girsanov", "--trajectories", "50", "--h", "1e-2",
                                          "--seed", "7", "--out", str(tmp_path / "g.csv"))
        assert [line.split()[0] for line in lines] == ["wrote", "E[Z_T]", "reweighted",
                                                       "physical"]


def _fresh_interpreter_stdout(*argv):
    """stdout lines of ``python -m qtraj.cli argv`` (which must succeed
    silently on stderr). stdout is a pipe there, so block-buffered: a child
    that flushed the parent's buffer on exit would print the lines twice."""
    proc = subprocess.run([sys.executable, "-m", "qtraj.cli", *argv, "--no-timestamp"],
                          capture_output=True, text=True, env=_source_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    return proc.stdout.splitlines()


def _source_env():
    """The environment with the package's source first on PYTHONPATH."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]]
                               if os.environ.get("PYTHONPATH") else [])))


def test_cli_imports_no_scipy():
    # scipy is a test dependency only: importing it would add its load time
    # to every command's start-up
    proc = subprocess.run([sys.executable, "-c",
                           "import sys, qtraj.cli; print('scipy' in sys.modules)"],
                          capture_output=True, text=True, env=_source_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


# sha256 of the CSVs, each pass one step-major stream block of its seed
# (rng.member_streams), the residual rows measured against sde's Euler step;
# forked and in-process runs both give them
CONVERGE_DIGESTS = [
    (("--seed", "7", "--n-values", "50,200", "--trajectories", "200", "--sde-step", "1e-2"),
     "bc33591a9492c0b7b104bb1fcf5803c008f0bc9138f230fe2dcfe6e25df23711"),
    (("--seed", "0", "--n-values", "10", "--trajectories", "80", "--sde-step", "1e-2"),
     "60f67de99a5bfc257aa4163ccf52006708af07f8d7c07f21ec2f7e1269e58105"),
    (("--seed", str(2 ** 64 - 1), "--n-values", "10,20,40", "--trajectories", "60",
      "--sde-step", "1e-2"),
     "b1d1d6459b2402d74b86b83e68278c3ac66dd8d123348d4b829deb48eb95124a"),
    (("--seed", "3", "--n-values", "20,80", "--trajectories", "40", "--config", "half"),
     "a1e300d536d0e1d79ffc5948068b7c0010eec58be563e2898f32f1596e4998c9"),
    (("--seed", "5", "--n-values", "7,13,31", "--trajectories", "2", "--sde-step", "1e-2"),
     "e597d4b360ff86882460a6c46dff0046581fbecf40359880773924ea430d3cd7"),
    # the converge-chain benchmark's size
    (("--seed", "7", "--n-values", "50,200", "--trajectories", "2000", "--sde-step", "1e-2"),
     "abcc68a2089bbc26384d598aa42c7e8388d17238c7e7f34452c919bd095eb77b"),
]

# lanes ([2], [0, 1]): the n = 200 pass in the parent, the diffusion ensemble
# and the n = 50 pass in the child
CONVERGE_ARGV = ("converge", "--n-values", "50,200", "--trajectories", "20",
                 "--sde-step", "1e-2", "--seed", "1")


class _Unpicklable(Exception):
    def __init__(self, message):
        super().__init__(message)
        self.hook = lambda: None


class _KeywordOnly(Exception):
    def __init__(self, *, message):
        super().__init__(message)


def _in_the_child(parent, action):
    """Patch target for a part that must run in the child: do ``action``
    there, fail loudly if the parent runs it."""
    def run(*args, **kwargs):
        if os.getpid() == parent:
            raise AssertionError("the part ran in the parent")
        action()
    return run


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the platform has no os.fork")
class TestConvergeTwoProcesses:
    """converge runs one lane of its report's parts in a forked child and
    the other in the parent, then assembles the report."""

    @pytest.mark.parametrize("argv,digest", CONVERGE_DIGESTS)
    def test_same_bytes_forked_and_in_process(self, tmp_path, monkeypatch, capsys,
                                              argv, digest):
        (tmp_path / "half.cfg").write_text("t_horizon = 0.5\n")
        argv = [str(tmp_path / "half.cfg") if a == "half" else a for a in argv]
        forked, in_process = tmp_path / "forked.csv", tmp_path / "in_process.csv"
        forks = _fork_counter(monkeypatch)
        assert run_cli("converge", *argv, "--out", str(forked), "--no-timestamp") == 0
        assert len(forks) == 1
        forked_out = capsys.readouterr().out
        monkeypatch.delattr(os, "fork")
        assert run_cli("converge", *argv, "--out", str(in_process), "--no-timestamp") == 0
        assert capsys.readouterr().out == forked_out.replace(str(forked), str(in_process))
        assert forked.read_bytes() == in_process.read_bytes()
        assert hashlib.sha256(forked.read_bytes()).hexdigest() == digest
        _no_children_left()

    def test_lanes_balance_by_cost(self):
        from qtraj.cli import EXCITED, _in_two_lanes, build_model
        from qtraj.convergence import EnsembleSpec, report_parts

        def in_parent(parts):
            pids = _in_two_lanes([(cost, os.getpid) for cost, _ in parts])
            _no_children_left()
            return [pid == os.getpid() for pid in pids]

        def report(n_values, sde_step):
            return report_parts(EnsembleSpec(cfg=build_model({}, {}), rho0=EXCITED,
                                             num_trajectories=2000, base_seed=1,
                                             n_values=n_values, sde_step=sde_step))

        # the benchmark's argv: the n = 200 pass alone against the diffusion
        # ensemble and the n = 50 pass
        assert in_parent(report((50, 200), 1e-2)) == [False, False, True]
        # the default argv: the diffusion ensemble is the largest part
        assert in_parent(report((20, 80), 5e-4)) == [True, False, False]
        # girsanov's two equal parts: the first one in this process
        assert in_parent([(1, None), (1, None)]) == [True, False]

    def test_child_error_reported_as_in_process(self, tmp_path, monkeypatch, capsys):
        import qtraj.convergence

        pids = tmp_path / "pids"

        def diffusion(*args, **kwargs):
            with open(pids, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            raise NotAState("diffusion broke")

        monkeypatch.setattr(qtraj.convergence, "sde_ensemble_final", diffusion)
        out = tmp_path / "c.csv"
        forks = _fork_counter(monkeypatch)
        assert run_cli(*CONVERGE_ARGV, "--out", str(out)) == 1
        assert len(forks) == 1
        forked = capsys.readouterr()
        _no_children_left()
        monkeypatch.delattr(os, "fork")
        assert run_cli(*CONVERGE_ARGV, "--out", str(out)) == 1
        assert capsys.readouterr() == forked
        assert forked.err == "error: diffusion broke\n"
        assert pids.read_text().split() == [str(forks[0]), str(os.getpid())]
        assert not out.exists()

    @pytest.mark.parametrize("exc", [NotAState("chain broke"), KeyboardInterrupt()])
    def test_parent_error_kills_and_reaps_child(self, tmp_path, monkeypatch, capsys, exc):
        import qtraj.convergence

        # the parent's lane fails at once; the child's would sleep for a minute
        parent, real_streams = os.getpid(), qtraj.convergence.ensemble_streams

        def streams(*args):
            if os.getpid() == parent:
                raise exc
            time.sleep(60)
            return real_streams(*args)

        monkeypatch.setattr(qtraj.convergence, "ensemble_streams", streams)
        kills = []
        real_kill = os.kill

        def kill(pid, sig):
            kills.append(sig)
            real_kill(pid, sig)

        monkeypatch.setattr(os, "kill", kill)
        argv = (*CONVERGE_ARGV, "--out", str(tmp_path / "c.csv"))
        start = time.monotonic()
        if isinstance(exc, KeyboardInterrupt):
            with pytest.raises(KeyboardInterrupt):
                run_cli(*argv)
        else:
            assert run_cli(*argv) == 1
            assert capsys.readouterr().err == "error: chain broke\n"
        assert time.monotonic() - start < 30
        assert kills == [signal.SIGKILL]
        _no_children_left()

    def test_child_gone_without_reply(self, tmp_path, monkeypatch, capsys):
        import qtraj.convergence

        monkeypatch.setattr(qtraj.convergence, "sde_ensemble_final",
                            _in_the_child(os.getpid(), lambda: os._exit(3)))
        assert run_cli(*CONVERGE_ARGV, "--out", str(tmp_path / "c.csv")) == 1
        assert "ended without a result" in capsys.readouterr().err
        _no_children_left()

    @pytest.mark.parametrize("exc", [_Unpicklable("lambda broke"),
                                     _KeywordOnly(message="keyword broke")])
    def test_error_that_cannot_cross_the_pipe(self, tmp_path, monkeypatch, capsys, exc):
        import qtraj.convergence
        from qtraj.cli import _beside

        with _beside(_raise(exc)) as result:
            with pytest.raises(RuntimeError, match=str(exc)) as caught:
                result()
        assert caught.value.__notes__ == [f"raised as {type(exc).__name__} in the child"]
        _no_children_left()
        monkeypatch.setattr(qtraj.convergence, "sde_ensemble_final",
                            lambda *args, **kwargs: _raise(exc)())
        out = tmp_path / "c.csv"
        assert run_cli(*CONVERGE_ARGV, "--out", str(out)) == 1
        forked = capsys.readouterr()
        _no_children_left()
        monkeypatch.delattr(os, "fork")
        assert run_cli(*CONVERGE_ARGV, "--out", str(out)) == 1
        assert capsys.readouterr() == forked
        assert forked.err == f"error: {exc}\n"
        assert not out.exists()

    @pytest.mark.parametrize("config,argv", [
        ("phi = 0\n", ()),                               # diagonal observable
        ("t_horizon = -1\n", ()),                        # no t in (0, T]
        ("", ("--sde-step", "0.5")),                     # beyond MAX_SDE_STEP
        ("t_horizon = 0.004\n", ("--sde-step", "1e-2")),  # beyond t = T
    ])
    def test_bad_input_exits_2_before_any_lane(self, tmp_path, monkeypatch, config, argv):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(config)
        out = tmp_path / "c.csv"
        forks = _fork_counter(monkeypatch)
        assert run_cli("converge", "--config", str(cfg), "--n-values", "10,20",
                       "--trajectories", "20", "--seed", "1", *argv, "--out", str(out)) == 2
        assert forks == []
        assert not out.exists()
        _no_children_left()

    def test_summary_printed_once_by_a_fresh_interpreter(self, tmp_path):
        lines = _fresh_interpreter_stdout(*CONVERGE_ARGV, "--out", str(tmp_path / "c.csv"))
        assert [line.split()[0] for line in lines] == ["wrote", "ensemble:", "n=50,", "KS",
                                                       "KS", "KS", "n=200,", "KS", "KS", "KS"]


# sha256 of the CSVs written when every table was formatted in one process,
# and the forks expected now: one from csvio.SPLIT_ROWS = 5000 rows
SINGLE_PATH_DIGESTS = [
    (("simulate-discrete", "--n", "5000", "--seed", "7"), 1,
     "bfc5eb6ee7942d8a1ee22ac987d0bea40d02cddb6dd7689e059e8d4ece29c88a"),
    (("simulate-sde", "--form", "belavkin", "--h", "2e-4", "--seed", "7"), 1,
     "670b5a8c9133acec31106f2f058ebb12427741a301218d84ae107c9b807f47b7"),
    (("simulate-sde", "--form", "physical", "--h", "2e-4", "--seed", "11"), 1,
     "243ed467908b0b18081225ef9f016e92ec37373f89b9dd941fb3ea0e670efda3"),
    (("simulate-sde", "--form", "wave", "--h", "2e-4", "--seed", "5"), 1,
     "5dcae739f8065d1ff35455344327f38934a23afcfb68b413f40f7a58c03d4d7e"),
    (("master", "--h", "1e-4", "--seed", "1"), 1,
     "f2e15ab56f33dd5b01d05cd04476fe5ef0747dfb63235054f43d4cf5f5518d4b"),
    # 5000 rows: the threshold itself
    (("simulate-discrete", "--n", "4999", "--seed", "3"), 1,
     "3cf53171c97e32e935e3475a60df3de535a9084a8a3500848ca7addc4a10a5b8"),
    # 4999 and 1001 rows: below it
    (("simulate-discrete", "--n", "4998", "--seed", "3"), 0,
     "d5fe7a8c10e12fa8c1e3c8af326e100ad2ae08a37e4ff58587ffe0bc82df9052"),
    (("master", "--h", "1e-3", "--seed", "1"), 0,
     "3f56046585025de7615f83f25cc97ce8a5bc05a73180bd47015983d318762246"),
]

CHAIN_ARGV = ("simulate-discrete", "--n", "5000", "--seed", "7")


def _replaced_parts(monkeypatch, first=None, second=None):
    """Patch the CSV row formatting so that rows formatted from a table's
    row 0 on (each block of the child's rows [0, a), or the whole table in
    one process) run ``first``, and rows from a later row on (the command's
    own rows [a, K)) run ``second``, before they are formatted."""
    import qtraj.cli
    import qtraj.csvio

    real = qtraj.csvio.csv_rows

    def rows(columns, start=0):
        action = first if start == 0 else second
        if action is not None:
            action()
        return real(columns, start)

    monkeypatch.setattr(qtraj.csvio, "csv_rows", rows)
    monkeypatch.setattr(qtraj.cli, "csv_rows", rows)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the platform has no os.fork")
class TestSinglePathTwoProcesses:
    """simulate-discrete, simulate-sde and master fork a child for a table
    of csvio.SPLIT_ROWS rows or more, which formats the rows [0, a) as the
    path's loop publishes them, while the command's own process steps the
    path and then formats the rows from a on."""

    @pytest.mark.parametrize("argv,num_forks,digest", SINGLE_PATH_DIGESTS)
    def test_same_bytes_forked_and_in_process(self, tmp_path, monkeypatch, capsys,
                                              argv, num_forks, digest):
        forked, in_process = tmp_path / "forked.csv", tmp_path / "in_process.csv"
        forks = _fork_counter(monkeypatch)
        assert run_cli(*argv, "--out", str(forked), "--no-timestamp") == 0
        assert len(forks) == num_forks
        forked_out = capsys.readouterr().out
        monkeypatch.delattr(os, "fork")
        assert run_cli(*argv, "--out", str(in_process), "--no-timestamp") == 0
        assert capsys.readouterr().out == forked_out.replace(str(forked), str(in_process))
        assert forked.read_bytes() == in_process.read_bytes()
        assert hashlib.sha256(forked.read_bytes()).hexdigest() == digest
        _no_children_left()

    def test_one_part_runs_in_process(self, monkeypatch):
        from qtraj.cli import _in_two_lanes

        forks = _fork_counter(monkeypatch)
        assert _in_two_lanes([(5, os.getpid)]) == [os.getpid()]
        assert _in_two_lanes([]) == []
        assert forks == []
        _no_children_left()

    def test_child_error_reported_as_in_process(self, tmp_path, monkeypatch, capsys):
        pids = tmp_path / "pids"

        def fail():
            with open(pids, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            raise ValueError("formatting broke")

        _replaced_parts(monkeypatch, first=fail)
        out = tmp_path / "d.csv"
        forks = _fork_counter(monkeypatch)
        assert run_cli(*CHAIN_ARGV, "--out", str(out)) == 1
        assert len(forks) == 1
        forked = capsys.readouterr()
        _no_children_left()
        monkeypatch.delattr(os, "fork")
        assert run_cli(*CHAIN_ARGV, "--out", str(out)) == 1
        assert capsys.readouterr() == forked
        assert forked.err == "error: formatting broke\n"
        assert pids.read_text().split() == [str(forks[0]), str(os.getpid())]
        # no part of the table is written unless every part succeeded
        assert out.read_bytes() == b""

    @pytest.mark.parametrize("exc", [ValueError("head broke"), KeyboardInterrupt()])
    def test_parent_error_kills_and_reaps_child(self, tmp_path, monkeypatch, capsys, exc):
        # the parent's part fails at once; the child's would sleep for a minute
        _replaced_parts(monkeypatch, first=lambda: time.sleep(60), second=_raise(exc))
        kills = []
        real_kill = os.kill

        def kill(pid, sig):
            kills.append(sig)
            real_kill(pid, sig)

        monkeypatch.setattr(os, "kill", kill)
        argv = (*CHAIN_ARGV, "--out", str(tmp_path / "d.csv"))
        start = time.monotonic()
        if isinstance(exc, KeyboardInterrupt):
            with pytest.raises(KeyboardInterrupt):
                run_cli(*argv)
        else:
            assert run_cli(*argv) == 1
            assert capsys.readouterr().err == "error: head broke\n"
        assert time.monotonic() - start < 30
        assert kills == [signal.SIGKILL]
        _no_children_left()

    @pytest.mark.parametrize("exc", [NotAState("state broke"), KeyboardInterrupt()])
    def test_loop_error_kills_and_reaps_child(self, tmp_path, monkeypatch, capsys, exc):
        # every block goes through the full check, which fails at step 1999,
        # when the child has started and 2000 rows were published to it
        import qtraj.discrete

        real = qtraj.discrete.validate_batch

        def check(states, step):
            if step == 1999:
                raise exc
            return real(states, step)

        monkeypatch.setattr(qtraj.discrete, "STATE_TOL", -np.inf)
        monkeypatch.setattr(qtraj.discrete, "validate_batch", check)
        kills = []
        real_kill = os.kill

        def kill(pid, sig):
            kills.append(sig)
            real_kill(pid, sig)

        monkeypatch.setattr(os, "kill", kill)
        out = tmp_path / "d.csv"
        forks = _fork_counter(monkeypatch)
        start = time.monotonic()
        if isinstance(exc, KeyboardInterrupt):
            with pytest.raises(KeyboardInterrupt):
                run_cli(*CHAIN_ARGV, "--out", str(out))
        else:
            assert run_cli(*CHAIN_ARGV, "--out", str(out)) == 1
        forked = capsys.readouterr()
        assert time.monotonic() - start < 30
        assert len(forks) == 1
        assert kills == [signal.SIGKILL]
        _no_children_left()
        # no file, as in one process: the file is opened after the loop
        assert not out.exists()
        monkeypatch.delattr(os, "fork")
        if isinstance(exc, KeyboardInterrupt):
            with pytest.raises(KeyboardInterrupt):
                run_cli(*CHAIN_ARGV, "--out", str(out))
        else:
            assert run_cli(*CHAIN_ARGV, "--out", str(out)) == 1
        assert capsys.readouterr() == forked
        assert not out.exists()
        if not isinstance(exc, KeyboardInterrupt):
            assert forked.err == "error: state broke\n"

    def test_child_errs_at_the_end_of_the_notify_pipe(self):
        # a parent that closes the notify pipe before the child's rows were
        # published gets an error reply, not a hang
        from qtraj.cli import _FormattedAhead
        from qtraj.csvio import SPLIT_ROWS

        start = time.monotonic()
        with _FormattedAhead() as feed:
            table = feed.table((SPLIT_ROWS, 2), lambda rows, lo: list(rows.T), 0.0)
            table[:] = 0.0
            feed.publish(100)
            split, text = feed.formatted()
            assert split == SPLIT_ROWS // 2
            with pytest.raises(ChildProcessError,
                               match=f"stopped after 100 of the {split} rows"):
                text()
        assert time.monotonic() - start < 30
        _no_children_left()

    def test_child_text_decoded_in_pieces(self, monkeypatch):
        # the child's text crosses in a shared mapping and is decoded in
        # pieces of TEXT_CHUNK bytes; a piece may end inside a character
        import qtraj.cli
        from qtraj.cli import _FormattedAhead
        from qtraj.csvio import SPLIT_ROWS

        from oracles import csv_rows_loop

        monkeypatch.setattr(qtraj.cli, "TEXT_CHUNK", 3)
        words = np.resize(np.array(["\u00e9", "x", "\u20ac"]), SPLIT_ROWS)

        def columns(rows, lo):
            return [rows[:, 0], words[lo:lo + len(rows)]]

        with _FormattedAhead() as feed:
            table = feed.table((SPLIT_ROWS, 1), columns, 0.0)
            table[:, 0] = np.arange(SPLIT_ROWS) / 7
            feed.publish(SPLIT_ROWS)
            split, text = feed.formatted()
            ahead = "".join(text())
        assert split == SPLIT_ROWS // 2
        assert ahead == "".join(csv_rows_loop(columns(table[:split], 0)))
        _no_children_left()

    @pytest.mark.parametrize("step_cells", [-10.0, 0.0, 1e9], ids=["0", "half", "K"])
    def test_bytes_do_not_depend_on_the_split(self, tmp_path, monkeypatch, step_cells):
        # the 10-cell chain table split at a = 0, K/2 and K rows
        import qtraj.discrete

        monkeypatch.setattr(qtraj.discrete, "CHAIN_STEP_CELLS", step_cells)
        out = tmp_path / "d.csv"
        forks = _fork_counter(monkeypatch)
        assert run_cli(*CHAIN_ARGV, "--out", str(out), "--no-timestamp") == 0
        assert len(forks) == 1
        assert hashlib.sha256(out.read_bytes()).hexdigest() == SINGLE_PATH_DIGESTS[0][2]
        _no_children_left()

    @pytest.mark.parametrize("argv,first_words", [
        (CHAIN_ARGV, ["wrote", "outcome", "final"]),
        (("simulate-sde", "--form", "wave", "--h", "2e-4", "--seed", "5"), ["wrote"]),
        (("master", "--h", "1e-4", "--seed", "1"), ["wrote", "final"]),
    ])
    def test_summary_printed_once_by_a_fresh_interpreter(self, tmp_path, argv, first_words):
        lines = _fresh_interpreter_stdout(*argv, "--out", str(tmp_path / "p.csv"))
        assert [line.split()[0] for line in lines] == first_words

    def test_library_writers_never_fork(self, monkeypatch):
        import io

        from qtraj.cli import EXCITED, build_model
        from qtraj.csvio import STATE_HEADER, state_columns, write_csv
        from qtraj.discrete import run_trajectory, trajectory_to_csv
        from qtraj.model import WaveFunction
        from qtraj.sde import (master_evolve, sde_path_to_csv, simulate_belavkin,
                               simulate_wave, wave_path_to_csv)

        def no_fork():
            raise AssertionError("a library writer forked")

        monkeypatch.setattr(os, "fork", no_fork)
        cfg = build_model({}, {})
        master = master_evolve(cfg, EXCITED, 1e-4)
        psi0 = WaveFunction(np.array([0.0, 1.0], dtype=complex))
        writes = [
            lambda out: trajectory_to_csv(
                run_trajectory(build_model({}, {"n": 5000}), EXCITED, 7), out),
            lambda out: sde_path_to_csv(simulate_belavkin(cfg, EXCITED, 2e-4, 7), out),
            lambda out: wave_path_to_csv(simulate_wave(cfg, psi0, 2e-4, 5), out),
            lambda out: write_csv(out, "time," + STATE_HEADER,
                                  [master.grid, *state_columns(master.states)]),
        ]
        # the bytes of the forked CLI runs of the same paths
        digests = [SINGLE_PATH_DIGESTS[i][2] for i in (0, 1, 3, 4)]
        for write, digest in zip(writes, digests):
            out = io.StringIO()
            write(out)
            assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
        _no_children_left()


@pytest.mark.parametrize("argv", [
    ("converge", "--n-values", "10,40", "--trajectories", "80", "--sde-step", "1e-2"),
    ("girsanov", "--trajectories", "100", "--h", "5e-3"),
])
def test_ensemble_bytes_follow_the_block_layout(tmp_path, monkeypatch, argv):
    # an ensemble's streams are one step-major block of its seed's Generator:
    # drawn one step at a time, they give the same bytes
    import qtraj.discrete
    import qtraj.sde

    block, literal = tmp_path / "block.csv", tmp_path / "literal.csv"
    assert run_cli(*argv, "--seed", "7", "--out", str(block), "--no-timestamp") == 0
    for module in (qtraj.discrete, qtraj.sde):
        monkeypatch.setattr(module, "member_streams", member_streams_step_by_step)
    assert run_cli(*argv, "--seed", "7", "--out", str(literal), "--no-timestamp") == 0
    assert block.read_bytes() == literal.read_bytes()



@pytest.mark.parametrize("argv", [
    ("simulate-discrete", "--n", "2000"),
    ("simulate-sde", "--form", "belavkin", "--h", "1e-3"),
    ("simulate-sde", "--form", "physical", "--h", "1e-3"),
    ("simulate-sde", "--form", "wave", "--h", "1e-3"),
])
def test_single_path_bytes_match_batch_of_one(tmp_path, monkeypatch, argv):
    # the scalar single-path loops give the bytes of the ensemble cores run
    # on a batch of one
    import qtraj.cli
    import qtraj.sde

    scalar, batch = tmp_path / "scalar.csv", tmp_path / "batch.csv"
    assert run_cli(*argv, "--seed", "7", "--out", str(scalar), "--no-timestamp") == 0
    monkeypatch.setattr(qtraj.cli, "run_trajectory", run_trajectory_batch_of_one)
    monkeypatch.setattr(qtraj.sde, "_density_path", density_path_batch_of_one)
    monkeypatch.setattr(qtraj.cli, "simulate_wave", wave_path_batch_of_one)
    assert run_cli(*argv, "--seed", "7", "--out", str(batch), "--no-timestamp") == 0
    assert scalar.read_bytes() == batch.read_bytes()


class TestConfigHandling:
    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("frequency = 3\n")
        code = run_cli("simulate-discrete", "--config", str(cfg), "--seed", "1",
                       "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "frequency" in capsys.readouterr().err

    def test_wrong_arity_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("h0 = 1 2 3\n")
        code = run_cli("simulate-discrete", "--config", str(cfg), "--seed", "1",
                       "--out", str(tmp_path / "x.csv"))
        assert code == 2

    def test_missing_file_exits_2(self, tmp_path):
        code = run_cli("simulate-discrete", "--config", str(tmp_path / "nope.cfg"),
                       "--seed", "1", "--out", str(tmp_path / "x.csv"))
        assert code == 2

    def test_flag_overrides_file(self, tmp_path):
        cfg = tmp_path / "model.cfg"
        cfg.write_text("n = 10\nt_horizon = 1.0\n")
        out = tmp_path / "o.csv"
        assert run_cli("simulate-discrete", "--config", str(cfg), "--n", "25",
                       "--seed", "1", "--out", str(out), "--no-timestamp") == 0
        _, rows = read_rows(out)
        assert len(rows) == 26


class TestNonFiniteInputExits2:
    @pytest.mark.parametrize("line", ["phi = nan", "h0 = nan 0 0 0",
                                      "t_horizon = nan"])
    def test_config_value(self, tmp_path, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        code = run_cli("simulate-discrete", "--config", str(cfg), "--seed", "1",
                       "--out", str(tmp_path / "x.csv"))
        assert code == 2

    @pytest.mark.parametrize("argv", [("master", "--h", "inf"),
                                      ("master", "--h", "nan"),
                                      ("converge", "--sde-step", "nan")])
    def test_step_flag(self, tmp_path, argv):
        out = tmp_path / "x.csv"
        assert run_cli(*argv, "--seed", "1", "--out", str(out)) == 2
        assert not out.exists()


class TestCouplingRateNotFinite:
    @pytest.mark.parametrize("command", ["master", "simulate-sde", "simulate-discrete",
                                         "converge", "girsanov"])
    def test_exits_2_before_any_numerics(self, tmp_path, capsys, command):
        # every entry of c is finite, but c+c = 1e400 is not
        cfg = tmp_path / "big.cfg"
        cfg.write_text("c = 1e200 0 0 0 0 0 0 0\n")
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(command, "--config", str(cfg), "--seed", "1",
                           "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "bad model configuration: h0, c, c+c and theta must be finite" in err
        assert not out.exists()


class TestStepBoundsExit2:
    def test_unstable_rk4_step(self, tmp_path):
        # damping rate 9 at h = 0.5 is outside RK4's stability region
        # (|R(-4.5)| = 8.5); the exact propagator takes it in two steps, and
        # the excited population ends at e^-9
        cfg = tmp_path / "strong.cfg"
        cfg.write_text("c = 0 0 3 0 0 0 0 0\n")
        out = tmp_path / "m.csv"
        assert run_cli("master", "--config", str(cfg), "--h", "0.5", "--seed", "1",
                       "--out", str(out)) == 0
        header, rows = read_rows(out)
        assert len(rows) == 3
        assert abs(float(rows[-1][header.index("rho_11_re")]) - np.exp(-9.0)) < 1e-13

    def test_step_too_large_for_the_generator(self, tmp_path, capsys):
        # c+c = 1e300 is finite, but h S_L at h = T = 1e10 is not
        cfg = tmp_path / "huge.cfg"
        cfg.write_text("c = 1e150 0 0 0 0 0 0 0\nt_horizon = 1e10\n")
        out = tmp_path / "m.csv"
        assert run_cli("master", "--config", str(cfg), "--h", "1e10", "--seed", "1",
                       "--out", str(out)) == 2
        assert "h S_L is not finite" in capsys.readouterr().err
        assert not out.exists()

    def test_master_step_that_overflows(self, tmp_path, capsys):
        # h S_L is finite (norm 2e298), but its thousand squarings overflow
        cfg = tmp_path / "huge.cfg"
        cfg.write_text("h0 = 1e300 0 0 -1e300\n")
        out = tmp_path / "m.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("master", "--config", str(cfg), "--h", "1e-2", "--seed", "1",
                           "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "exp(h S_L) overflows" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("fork", [True, False], ids=["two-lanes", "one-process"])
    def test_converge_master_reference_that_overflows(self, tmp_path, capsys, monkeypatch,
                                                      fork):
        # the diffusion ensemble's Euler bound refuses every model whose master
        # step on converge's grid overflows, so the reference alone is handed
        # a generator of growth rate 1e300, whose squarings overflow at any
        # step, in whichever lane runs the mean reducer
        import qtraj.sde as sde_mod

        expm1 = sde_mod._expm1
        monkeypatch.setattr(sde_mod, "_expm1", lambda s_l, h: expm1(1e300 * np.eye(4), h))
        if not fork:
            monkeypatch.delattr(os, "fork")
        out = tmp_path / "c.csv"
        assert run_cli(*CONVERGE_ARGV, "--out", str(out)) == 2
        _no_children_left()
        err = capsys.readouterr().err
        assert "exp(h S_L) overflows" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("w,exit_code", [(9.9e4, 0), (1.01e5, 2), (9.9e5, 2), (1e12, 2)])
    def test_master_refuses_a_rotation_too_fast_for_its_steps(self, tmp_path, capsys,
                                                               w, exit_code):
        # a closed system, h0 = w sigma_x: |r| stays 1. 100 steps of h = 1e-2
        # have steps h ||S_L|| = 2 w; past MAX_TURN = 2e5 rounding alone can
        # move |r| by more than STATE_TOL (by 1.5e-10 at w = 9.9e5 and 3e-4
        # at w = 1e12, which wrote their paths with exit 0)
        from qtraj.model import STATE_TOL

        cfg = tmp_path / "rotation.cfg"
        cfg.write_text(f"h0 = 0 {w} 0 0\nc = 0 0 0 0 0 0 0 0\n")
        out = tmp_path / "m.csv"
        assert run_cli("master", "--config", str(cfg), "--h", "1e-2", "--seed", "1",
                       "--out", str(out)) == exit_code
        err = capsys.readouterr().err
        if exit_code:
            assert "too many for the generator S_L: steps h ||S_L||" in err
            assert "Traceback" not in err
            assert not out.exists()
            return
        header, rows = read_rows(out)
        rho = np.array([[float(v) for v in row[1:]] for row in rows])
        r = np.stack([2 * rho[:, 1], -2 * rho[:, 2], rho[:, 0] - rho[:, 3]], axis=1)
        assert len(rows) == 101
        assert np.max(np.abs(np.linalg.norm(r, axis=1) - 1.0)) < STATE_TOL

    def test_step_bound_names_the_generator(self, tmp_path, capsys):
        # the Hamiltonian, not the coupling, drives h ||S_L|| here
        cfg = tmp_path / "fast.cfg"
        cfg.write_text("h0 = 1e8 0 0 -1e8\n")
        out = tmp_path / "s.csv"
        assert run_cli("simulate-sde", "--config", str(cfg), "--h", "1e-2", "--seed", "1",
                       "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "too large for the generator S_L: h ||S_L|| = 2e+06 > 2" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ("girsanov", "--trajectories", "200", "--h", "1e-2"),
        ("simulate-sde", "--h", "1e-2"),
        ("simulate-sde", "--form", "wave", "--h", "1e-2"),
        ("converge", "--sde-step", "1e-2"),
    ])
    def test_euler_step_too_large_for_the_rate(self, tmp_path, capsys, argv):
        # damping rate 900 at h = 1e-2: Euler's population factor 1 - 9 < 0
        cfg = tmp_path / "fast.cfg"
        cfg.write_text("c = 0 0 30 0 0 0 0 0\n")
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(*argv, "--config", str(cfg), "--seed", "1",
                           "--out", str(out)) == 2
        assert "too large for the generator S_L" in capsys.readouterr().err
        assert not out.exists()

    def test_euler_step_within_the_rate(self, tmp_path, capsys):
        cfg = tmp_path / "fast.cfg"
        cfg.write_text("c = 0 0 30 0 0 0 0 0\n")
        assert run_cli("girsanov", "--trajectories", "200", "--h", "1e-3", "--config",
                       str(cfg), "--seed", "1", "--out", str(tmp_path / "g.csv")) == 0
        assert "physical  <sigma_z> = 1.00000" in capsys.readouterr().out

    @pytest.mark.parametrize("c", ["9e153 0 0 0 0 0 0 0", "0 0 1.3e154 0 0 0 0 0"])
    def test_euler_step_bound_on_huge_rates(self, tmp_path, capsys, c):
        # c+c is finite (8.1e307, 1.7e308); h ||S_L|| is 4e305, then inf
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(f"c = {c}\n")
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("girsanov", "--trajectories", "10", "--h", "1e-2", "--config",
                           str(cfg), "--seed", "1", "--out", str(out)) == 2
        assert "too large for the generator S_L" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ("master", "--h", "0.6"),
        ("simulate-sde", "--h", "0.006"),
        ("girsanov", "--trajectories", "10", "--h", "0.003"),
        ("converge", "--n-values", "10", "--trajectories", "10", "--sde-step", "0.003"),
    ])
    def test_step_that_does_not_divide_the_horizon(self, tmp_path, capsys, argv):
        # T / h = 1.67, 166.7 and 333.3: the last step would end past T
        out = tmp_path / "x.csv"
        assert run_cli(*argv, "--seed", "1", "--out", str(out)) == 2
        assert not out.exists()
        assert "does not divide the horizon 1" in capsys.readouterr().err

    def test_default_sde_step_shrinks_to_divide_the_horizon(self, tmp_path, monkeypatch):
        # T = 1/3: the default 5e-4 does not divide it, (1/3) / 667 does
        import qtraj.convergence as convergence_mod

        steps = []
        real = convergence_mod._euler_steps
        monkeypatch.setattr(convergence_mod, "_euler_steps",
                            lambda cfg, h: steps.append(cfg.t_horizon / h) or real(cfg, h))
        cfg = tmp_path / "third.cfg"
        cfg.write_text(f"t_horizon = {1 / 3!r}\n")
        out = tmp_path / "x.csv"
        assert run_cli("converge", "--config", str(cfg), "--n-values", "10,20",
                       "--trajectories", "10", "--seed", "1", "--out", str(out)) == 0
        assert out.exists()
        assert steps == [pytest.approx(667, rel=1e-12)]

    def test_library_defaults_are_the_commands(self, tmp_path):
        # T = 1/3, no --sde-step: run_full_report with the spec's defaults
        # writes converge's bytes
        from qtraj.convergence import EnsembleSpec, run_full_report
        from qtraj.cli import EXCITED, build_model

        cfg = tmp_path / "third.cfg"
        cfg.write_text(f"t_horizon = {1 / 3!r}\nphi = 1.0\n")
        out = tmp_path / "x.csv"
        assert run_cli("converge", "--config", str(cfg), "--n-values", "10,20",
                       "--trajectories", "10", "--seed", "4", "--out", str(out),
                       "--no-timestamp") == 0
        spec = EnsembleSpec(cfg=build_model({"t_horizon": 1 / 3, "phi": 1.0}, {}),
                            rho0=EXCITED, num_trajectories=10, base_seed=4,
                            n_values=(10, 20))
        library = tmp_path / "library.csv"
        with open(library, "w") as fh:
            run_full_report(spec).to_csv(fh)
        assert library.read_bytes() == out.read_bytes()

    @pytest.mark.parametrize("argv", [
        ("simulate-sde", "--h", "1e-2"),
        ("simulate-sde", "--form", "wave", "--h", "1e-2"),
        ("girsanov", "--trajectories", "10", "--h", "1e-2"),
        ("converge", "--n-values", "1000,2000", "--trajectories", "10",
         "--sde-step", "1e-2"),
    ])
    def test_euler_step_beyond_horizon(self, tmp_path, capsys, argv):
        # h = 1e-2 > t_horizon = 0.004 would take round(0.4) = 0 steps
        cfg = tmp_path / "short.cfg"
        cfg.write_text("t_horizon = 0.004\n")
        out = tmp_path / "x.csv"
        assert run_cli(*argv, "--config", str(cfg), "--seed", "1", "--out", str(out)) == 2
        assert not out.exists()
        assert "must be in (0, 0.004]" in capsys.readouterr().err


class TestPathSizeBound:
    """A single path's record table of more than csvio.MAX_ROWS rows exits 2
    with no file, before its noise, states or table are allocated."""

    @pytest.mark.parametrize("argv,config,never", [
        (("simulate-discrete", "--n", "10000000"), "", ("qtraj.discrete", "ensemble_streams")),
        (("simulate-sde", "--h", "1e-2"), "t_horizon = 1e6\n", ("qtraj.sde", "_path_noise")),
        (("simulate-sde", "--form", "wave", "--h", "1e-2"), "t_horizon = 1e6\n",
         ("qtraj.sde", "_path_noise")),
        (("master", "--h", "1e-2"), "t_horizon = 1e6\n", ("qtraj.sde", "_master_states")),
    ], ids=["discrete", "density", "wave", "master"])
    def test_refused_before_anything_is_allocated(self, tmp_path, capsys, monkeypatch,
                                                  argv, config, never):
        import importlib

        def not_started(*args, **kwargs):
            raise AssertionError("the path was started")

        monkeypatch.setattr(importlib.import_module(never[0]), never[1], not_started)
        cfg = tmp_path / "long.cfg"
        cfg.write_text(config)
        out = tmp_path / "p.csv"
        forks = _fork_counter(monkeypatch)
        assert run_cli(*argv, "--config", str(cfg), "--seed", "1", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "more than 10000000" in err and "Traceback" not in err
        assert forks == []
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ("simulate-discrete", "--n"), ("simulate-sde", "--h"),
        ("simulate-sde", "--form", "wave", "--h"), ("master", "--h"),
    ], ids=["discrete", "density", "wave", "master"])
    def test_bound_is_on_the_rows(self, tmp_path, monkeypatch, argv):
        # at a bound of 101 rows, 100 steps pass and 101 are refused
        import qtraj.csvio

        monkeypatch.setattr(qtraj.csvio, "MAX_ROWS", 101)
        for steps, code in ((100, 0), (101, 2)):
            value = str(steps) if argv[-1] == "--n" else repr(1 / steps)
            out = tmp_path / f"p{steps}.csv"
            assert run_cli(*argv, value, "--seed", "1", "--out", str(out),
                           "--no-timestamp") == code
            assert out.exists() == (code == 0)
            if code == 0:
                assert len(read_rows(out)[1]) == steps + 1


def test_csv_cells():
    import io

    from qtraj.csvio import write_csv

    out = io.StringIO()
    write_csv(out, "a,b,c,d", [np.array([20000, 0]), [1.0], ["x", ""], [0.1, 1e-300]], "T")
    assert out.getvalue() == ("# generated T\na,b,c,d\n"
                              "20000,,x,0.10000000000000001\n0,1,,1e-300\n")
    # a short column leaves row 0's cell empty, and every other cell is
    # format(x, ".17g")
    columns = [np.array([0.1, 20000.0, -0.0, 5e-324, 1e16]),
               np.array([5e-324, 1e16, 0.1, -0.0])]
    out = io.StringIO()
    write_csv(out, "a,b", columns)
    cells = [[format(columns[0][0], ".17g"), ""]] + [
        [format(x, ".17g") for x in row] for row in zip(columns[0][1:], columns[1])]
    assert out.getvalue() == "a,b\n" + "".join(",".join(row) + "\n" for row in cells)


@pytest.mark.parametrize("rows_past", [("BLOCK_ROWS", 1), ("BLOCK_ROWS", 2),
                                       ("SPLIT_ROWS", -1), ("SPLIT_ROWS", 0),
                                       ("SPLIT_ROWS", 1)],
                         ids=["0", "1", "split-1", "split", "split+1"])
def test_csv_cells_blocks_and_special_values(rows_past):
    # row 0 is written alone and the rest in blocks of BLOCK_ROWS, so
    # BLOCK_ROWS + 2 rows cross the block size by one. From SPLIT_ROWS rows a
    # command formats rows [0, a) as tables of their own, in blocks of the
    # rows published (column slices, the short column one row behind), and
    # then the rows from a on: any a gives the same text
    import io

    from qtraj import csvio

    name, past = rows_past
    num_rows = getattr(csvio, name) + past
    special = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e16, 0.1, 1.0 / 3.0]
    floats = np.resize(np.array(special), num_rows)
    ints = np.arange(num_rows, dtype=np.int64) % 2          # like `outcomes`
    short = np.resize(np.array(special[::-1]), num_rows - 1)
    plain = [float(v) for v in np.resize(np.array(special[1:]), num_rows)]
    words = np.resize(np.array(["x", "", "ks_stat"]), num_rows)
    columns = [floats, ints, short, plain, words]
    expected = "# generated T\nf,i,s,l,w\n" + "".join(
        ",".join([format(floats[j], ".17g"), format(ints[j], ".17g"),
                  format(short[j - 1], ".17g") if j else "", format(plain[j], ".17g"),
                  words[j]]) + "\n"
        for j in range(num_rows))
    out = io.StringIO()
    csvio.write_csv(out, "f,i,s,l,w", columns, "T")
    assert out.getvalue() == expected

    def rows(lo, hi):
        return [col[lo:hi] if len(col) == num_rows else col[max(lo - 1, 0):hi - 1]
                for col in (floats, ints, short, np.array(plain), words)]

    head = len("# generated T\nf,i,s,l,w\n")
    for split in sorted({0, 1, csvio.BLOCK_ROWS, (num_rows + 1) // 2, num_rows - 1,
                         num_rows}):
        bounds = [*range(0, split, 100), split]
        ahead = [piece for lo, hi in zip(bounds, bounds[1:])
                 for piece in csvio.csv_rows(rows(lo, hi))]
        rest = csvio.csv_rows(columns, split)
        assert "".join(ahead + rest) == expected[head:]
        assert "".join(rest).count("\n") == num_rows - split


def test_observable_eigenvalues_change_no_output(tmp_path):
    # the centred record x depends only on the projectors, so any two
    # distinct eigenvalues give the same bytes
    texts = []
    for lam0, lam1 in ((1.0, -1.0), (5.0, 2.0)):
        cfg = tmp_path / f"lam{lam0}.cfg"
        cfg.write_text(f"lambda0 = {lam0}\nlambda1 = {lam1}\n")
        for argv in (("simulate-discrete", "--n", "300"),
                     ("converge", "--n-values", "10,20", "--trajectories", "50",
                      "--sde-step", "1e-2")):
            out = tmp_path / f"{argv[0]}-{lam0}.csv"
            assert run_cli(*argv, "--config", str(cfg), "--seed", "3", "--out", str(out),
                           "--no-timestamp") == 0
            texts.append(out.read_bytes())
    assert texts[:2] == texts[2:]


class TestEnsembleInputExits2:
    def test_converge_diagonal_observable(self, tmp_path, monkeypatch):
        import qtraj.convergence as convergence

        def no_simulation(*args, **kwargs):
            raise AssertionError("simulation started")

        monkeypatch.setattr(convergence, "sde_ensemble_final", no_simulation)
        monkeypatch.setattr(convergence, "ensemble_streams", no_simulation)
        cfg = tmp_path / "diag.cfg"
        cfg.write_text("phi = 0\n")
        out = tmp_path / "c.csv"
        assert run_cli("converge", "--config", str(cfg), "--n-values", "10,20",
                       "--trajectories", "20", "--seed", "1", "--out", str(out)) == 2
        assert not out.exists()

    @pytest.mark.parametrize("n_values", ["10,x", "0,10", "20,10", "10,10", ""])
    def test_converge_n_values(self, tmp_path, capsys, n_values):
        with pytest.raises(SystemExit) as exc:
            run_cli("converge", "--n-values", n_values, "--seed", "1",
                    "--out", str(tmp_path / "c.csv"))
        assert exc.value.code == 2
        assert "--n-values" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [("converge", "--trajectories", "1"),
                                      ("girsanov", "--trajectories", "1"),
                                      ("girsanov", "--trajectories", "0"),
                                      ("girsanov", "--trajectories", "-3"),
                                      ("girsanov", "--trajectories", "2.5")])
    def test_trajectories(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, "--seed", "1", "--out", str(tmp_path / "x.csv"))
        assert exc.value.code == 2
        assert "--trajectories" in capsys.readouterr().err


def test_parser_built_once_leaks_no_default(tmp_path, capsys):
    # main builds the parser once per process; a flag given in one call
    # must not become another call's default
    from qtraj.cli import _build_parser

    argvs = [("converge", "--n-values", "10,20", "--trajectories", "20", "--sde-step", "1e-2"),
             ("converge", "--n-values", "10,20", "--trajectories", "20"),
             ("simulate-sde", "--form", "wave", "--h", "1e-2"),
             ("simulate-sde", "--h", "1e-2")]

    def outputs(fresh):
        texts = []
        for i, argv in enumerate(argvs):
            if fresh:
                _build_parser.cache_clear()
            out = tmp_path / f"{fresh}-{i}.csv"
            assert run_cli(*argv, "--seed", "3", "--out", str(out), "--no-timestamp") == 0
            texts.append((out.read_bytes(), capsys.readouterr().out.replace(str(out), "")))
        return texts

    _build_parser.cache_clear()
    once = outputs(fresh=False)
    assert _build_parser.cache_info().misses == 1
    assert once == outputs(fresh=True)
    assert once[0] != once[1] and once[2] != once[3]
