import numpy as np
import pytest

from qtraj.cli import main

from oracles import (density_path_batch_of_one, member_streams_per_generator,
                     run_trajectory_batch_of_one, wave_path_batch_of_one)


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


@pytest.mark.parametrize("argv", [
    ("converge", "--n-values", "10,40", "--trajectories", "80", "--sde-step", "1e-2"),
    ("girsanov", "--trajectories", "100", "--h", "5e-3"),
])
def test_ensemble_bytes_match_per_member_generators(tmp_path, monkeypatch, argv):
    # the bulk-seeded streams give the bytes of one Generator per member
    import qtraj.discrete
    import qtraj.sde

    bulk, literal = tmp_path / "bulk.csv", tmp_path / "literal.csv"
    assert run_cli(*argv, "--seed", "7", "--out", str(bulk), "--no-timestamp") == 0
    for module in (qtraj.discrete, qtraj.sde):
        monkeypatch.setattr(module, "member_streams", member_streams_per_generator)
    assert run_cli(*argv, "--seed", "7", "--out", str(literal), "--no-timestamp") == 0
    assert bulk.read_bytes() == literal.read_bytes()



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


class TestStepBoundsExit2:
    def test_unstable_rk4_step(self, tmp_path):
        # damping rate 9: h = 0.5 grows the decaying modes by |R(-4.5)| = 8.5,
        # h = 0.3 keeps every |R(h lam)| <= 1
        cfg = tmp_path / "strong.cfg"
        cfg.write_text("c = 0 0 3 0 0 0 0 0\n")
        out = tmp_path / "m.csv"
        assert run_cli("master", "--config", str(cfg), "--h", "0.5", "--seed", "1",
                       "--out", str(out)) == 2
        assert not out.exists()
        assert run_cli("master", "--config", str(cfg), "--h", "0.3", "--seed", "1",
                       "--out", str(out)) == 0

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


@pytest.mark.parametrize("extra_rows", [0, 1])
def test_csv_cells_blocks_and_special_values(extra_rows):
    # row 0 is written alone and the rest in blocks of BLOCK_ROWS, so
    # BLOCK_ROWS + 2 rows cross the block size by one
    import io

    from qtraj import csvio

    num_rows = csvio.BLOCK_ROWS + 1 + extra_rows
    special = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e16, 0.1, 1.0 / 3.0]
    floats = np.resize(np.array(special), num_rows)
    ints = np.arange(num_rows, dtype=np.int64) % 2          # like `outcomes`
    short = np.resize(np.array(special[::-1]), num_rows - 1)
    plain = [float(v) for v in np.resize(np.array(special[1:]), num_rows)]
    out = io.StringIO()
    csvio.write_csv(out, "f,i,s,l", [floats, ints, short, plain])
    rows = [line.split(",") for line in out.getvalue().splitlines()[1:]]
    expected = [[format(floats[j], ".17g"), format(ints[j], ".17g"),
                 format(short[j - 1], ".17g") if j else "", format(plain[j], ".17g")]
                for j in range(num_rows)]
    assert rows == expected


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
