"""The benchmark's layer tracer still fits the package.

``perfbench/tracer.py`` swaps imported names for wrappers whose counters
bind call arguments by name. A renamed function reads 0 in its metrics and a
renamed parameter crashes a traced pass, so both are checked here against
the tracer file as it stands.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _Arg(float):
    """Stand-in call argument and result: a number with the attributes the
    counters read (cfg.t_horizon, path.grid, record.steps)."""

    t_horizon = 1.0
    grid = (0.0, 1.0)
    steps = 1


class _Recorder:
    """Collects what each wrapper factory asks the tracer to bind."""

    def __init__(self):
        self.work = []      # (qualified name, fn, counter function)
        self.rows = []      # (qualified name, fn)
        self.current = None

    def timed(self, fn, name, count=None, work=None):
        if work:
            self.work.append((self.current, fn, work[1]))
        return fn

    def generator(self, fn, name, count=None, rows=None):
        if rows:
            self.rows.append((self.current, fn))
        return fn

    def counted(self, fn, count):
        return fn


def test_only_the_matrix_form_oracles_are_unpatched(tracer):
    with tracer.Tracer().patched() as t:
        unpatched = list(t.unpatched)
    # the matrix-form oracles live in tests/oracles.py, so no qtraj module
    # holds lindblad, backaction or check_state; the tracer also still names
    # the deleted kernels expm4 and herm_eigen2. All their per-layer metrics
    # read 0. converge calls report_parts and assemble_report, so qtraj.cli
    # holds no run_full_report; its span fed no benchmark metric
    assert sorted(unpatched) == ["qtraj.cli.run_full_report",
                                 "qtraj.convergence.backaction",
                                 "qtraj.convergence.lindblad",
                                 "qtraj.discrete.check_state",
                                 "qtraj.model.expm4",
                                 "qtraj.model.herm_eigen2",
                                 "qtraj.sde.check_state",
                                 "qtraj.sde.herm_eigen2"]


def test_counted_wrappers_find_their_parameters(tracer):
    recorder = _Recorder()
    for module_name, attr, make in tracer.PATCHES:
        fn = getattr(importlib.import_module(module_name), attr, None)
        if fn is not None:
            recorder.current = f"{module_name}.{attr}"
            make(recorder, fn)
    assert len(recorder.work) >= 10 and len(recorder.rows) == 2
    for name, fn, counter in recorder.work:
        arguments = {p: _Arg(1.0) for p in inspect.signature(fn).parameters}
        try:
            counter(arguments, _Arg(1.0))
        except (KeyError, AttributeError) as exc:
            pytest.fail(f"{name}: the tracer's counter cannot bind {exc}")
    for name, fn in recorder.rows:
        assert "uniforms" in inspect.signature(fn).parameters, name
