import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tlwaves import oracle, solver
from tlwaves.cli import main, read_table, write_table
from tlwaves.errors import InputFormatError
from tlwaves.params import make_parameters


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    meta = {"config": {"gamma": 0.5}, "note": "x"}
    cols = {"x": np.array([1.0, 2.0, np.pi]), "y": np.array([1e-17, -3.25, 7.0])}
    write_table(path, meta, cols)
    meta2, cols2 = read_table(path)
    assert meta2 == meta
    assert list(cols2) == ["x", "y"]
    assert np.array_equal(cols2["x"], cols["x"])
    assert np.array_equal(cols2["y"], cols["y"])


def test_solve_writes_profile_and_is_deterministic(tmp_path, capsys):
    out = tmp_path / "wave.csv"
    args = ("solve", "--gamma", "0.5", "--delta", "0.8", "--half-length", "64",
            "--modes", "512", "--out", str(out))
    code, stdout, _ = run_cli(capsys, *args)
    assert code == 0
    assert "elevation" in stdout
    first = out.read_bytes()
    meta, cols = read_table(out)
    assert set(cols) == {"x", "zeta", "v", "u"}
    assert meta["config"]["params"] == {"gamma": 0.5, "delta": 0.8}
    assert meta["report"]["converged"] is True
    assert "wall_time" not in meta["report"]
    code, _, _ = run_cli(capsys, *args)
    assert code == 0
    assert out.read_bytes() == first


def test_solve_spectrum_out(tmp_path, capsys):
    out = tmp_path / "wave.csv"
    spec_out = tmp_path / "spec.csv"
    code, _, _ = run_cli(capsys, "solve", "--gamma", "0.5", "--delta", "0.8",
                         "--half-length", "64", "--modes", "512", "--out", str(out),
                         "--spectrum-out", str(spec_out))
    assert code == 0
    _, cols = read_table(spec_out)
    assert set(cols) == {"k", "kp", "re", "im"}
    assert len(cols["k"]) == 512
    # mode 0 coefficient is the sum of the (positive) profile samples
    _, profile = read_table(out)
    assert cols["re"][0] == pytest.approx(profile["zeta"].sum(), rel=1e-12)


def test_solve_json_output(tmp_path, capsys):
    out = tmp_path / "wave.json"
    code, _, _ = run_cli(capsys, "solve", "--gamma", "0.5", "--delta", "0.8",
                         "--half-length", "64", "--modes", "512", "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert set(payload["columns"]) == {"x", "zeta", "v", "u"}
    assert len(payload["columns"]["zeta"]) == 512


def test_invalid_gamma_exits_1_with_json(tmp_path, capsys):
    code, _, err = run_cli(capsys, "solve", "--gamma", "1.5", "--delta", "0.8",
                           "--out", str(tmp_path / "x.csv"))
    assert code == 1
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "ParameterDomainError"


def test_subsonic_speed_exits_1(tmp_path, capsys):
    code, _, err = run_cli(capsys, "solve", "--gamma", "0.5", "--delta", "0.8",
                           "--cs", "0.1", "--half-length", "64", "--modes", "512",
                           "--out", str(tmp_path / "x.csv"))
    assert code == 1
    assert json.loads(err.strip().splitlines()[-1])["error"] == "NoSolitaryWaveError"


def test_nonconvergence_exits_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, "solve", "--gamma", "0.5", "--delta", "0.8",
                           "--half-length", "64", "--modes", "512", "--max-iter", "2",
                           "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert json.loads(err.strip().splitlines()[-1])["error"] == "NotConvergedError"


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "params": {"gamma": 0.5, "delta": 0.5},
        "grid": {"half_length": 64, "modes": 512},
        "solver": {"extrapolation": "mpe:6"},
    }))
    out = tmp_path / "wave.csv"
    code, stdout, _ = run_cli(capsys, "solve", "--config", str(cfg), "--delta", "0.8",
                              "--out", str(out))
    assert code == 0
    meta, _ = read_table(out)
    assert meta["config"]["params"]["delta"] == 0.8
    assert meta["config"]["solver"]["extrapolation"] == "mpe:6"


def test_oracle_csv(tmp_path, capsys):
    out = tmp_path / "oracle.csv"
    code, stdout, _ = run_cli(capsys, "oracle", "--gamma", "0.5", "--delta", "0.8",
                              "--x-max", "30", "--dx", "0.5", "--out", str(out))
    assert code == 0
    meta, cols = read_table(out)
    assert set(cols) == {"x", "v", "v_prime", "zeta", "u"}
    assert cols["x"][0] == 0.0
    assert meta["turning_point"] > 0
    assert cols["v"][0] == pytest.approx(meta["turning_point"], abs=1e-12)


@pytest.mark.parametrize("flag, value", [("--dx", "0"), ("--dx", "-1"), ("--dx", "nan"), ("--x-max", "inf")])
def test_oracle_rejects_a_bad_sampling_setting(tmp_path, capsys, flag, value):
    out = tmp_path / "oracle.csv"
    code, stdout, err = run_cli(capsys, "oracle", "--x-max", "10", flag, value, "--out", str(out))
    assert code == 1
    assert one_line_error(err)["error"] == "ValueError"
    assert stdout == ""
    assert not out.exists()


def test_dispersion_csv(tmp_path, capsys):
    out = tmp_path / "disp.csv"
    code, _, _ = run_cli(capsys, "dispersion", "--gamma", "0.5", "--delta", "0.8",
                         "--k-min", "0", "--k-max", "10", "--count", "11", "--out", str(out))
    assert code == 0
    _, cols = read_table(out)
    assert set(cols) == {"k", "omega", "sigma"}
    assert cols["sigma"][0] == pytest.approx(np.sqrt(0.5 / 1.3), rel=1e-12)
    assert np.all(np.diff(cols["sigma"]) < 0)


def test_sweep_with_fit(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _, _ = run_cli(capsys, "sweep", "--gamma", "0.5", "--delta", "0.8",
                         "--half-length", "64", "--modes", "512",
                         "--offset-min", "0.05", "--offset-max", "0.2", "--count", "4",
                         "--out", str(out))
    assert code == 0
    _, cols = read_table(out)
    assert set(cols) == {"cs", "zeta_max", "v_max", "u_max"}
    assert np.all(np.diff(cols["zeta_max"]) > 0)
    fit = json.loads((tmp_path / "sweep.fit.json").read_text())
    assert fit["fit"]["model"] == "power_plus_constant"


def test_analyze_decay_round_trip(tmp_path, capsys):
    profile = tmp_path / "wave.csv"
    run_cli(capsys, "solve", "--gamma", "0.5", "--delta", "0.8", "--half-length", "64",
            "--modes", "512", "--out", str(profile))
    out = tmp_path / "decay.csv"
    code, stdout, _ = run_cli(capsys, "analyze", "decay", "--in", str(profile),
                              "--out", str(out))
    assert code == 0
    fit = json.loads((tmp_path / "decay.fit.json").read_text())
    assert fit["fit"]["coefficients"]["c"] < 0
    assert fit["fit"]["r_squared"] > 0.999


def test_analyze_spectrum(tmp_path, capsys):
    profile = tmp_path / "wave.csv"
    run_cli(capsys, "solve", "--gamma", "0.5", "--delta", "0.8", "--half-length", "64",
            "--modes", "512", "--out", str(profile))
    out = tmp_path / "spec.csv"
    code, _, _ = run_cli(capsys, "analyze", "spectrum", "--in", str(profile), "--out", str(out))
    assert code == 0
    fit = json.loads((tmp_path / "spec.fit.json").read_text())
    assert fit["fit"]["coefficients"]["c"] < 0


def test_analyze_phase(tmp_path, capsys):
    profile = tmp_path / "wave.csv"
    run_cli(capsys, "solve", "--gamma", "0.5", "--delta", "0.8", "--half-length", "64",
            "--modes", "512", "--out", str(profile))
    out = tmp_path / "phase.csv"
    code, _, _ = run_cli(capsys, "analyze", "phase", "--in", str(profile), "--out", str(out))
    assert code == 0
    _, cols = read_table(out)
    assert set(cols) == {"v", "v_prime"}
    assert np.max(np.abs(cols["v_prime"])) > 0


def test_analyze_rejects_non_periodic_input(tmp_path, capsys):
    oracle_csv = tmp_path / "oracle.csv"
    run_cli(capsys, "oracle", "--gamma", "0.5", "--delta", "0.8", "--x-max", "20",
            "--dx", "0.5", "--out", str(oracle_csv))
    code, _, err = run_cli(capsys, "analyze", "spectrum", "--in", str(oracle_csv),
                           "--out", str(tmp_path / "s.csv"))
    assert code == 1
    assert "periodic" in json.loads(err.strip().splitlines()[-1])["message"]


def test_reproduce_fig2a(tmp_path, capsys):
    code, stdout, _ = run_cli(capsys, "reproduce", "fig2a", "--out-dir", str(tmp_path),
                              "--half-length", "64", "--modes", "512")
    assert code == 0
    files = sorted(tmp_path.glob("fig2a_offset*.csv"))
    assert len(files) == 3
    peaks = []
    for f in files:
        meta, cols = read_table(f)
        assert meta["report"]["converged"] is True
        peaks.append((meta["config"]["solver"]["cs"], cols["zeta"].max()))
    peaks.sort()
    assert peaks[0][1] < peaks[1][1] < peaks[2][1]
    assert all(p[1] > 0 for p in peaks)


def test_reproduce_fig2b_depression(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "reproduce", "fig2b", "--out-dir", str(tmp_path),
                         "--half-length", "64", "--modes", "512")
    assert code == 0
    for f in tmp_path.glob("fig2b_offset*.csv"):
        _, cols = read_table(f)
        assert cols["zeta"].min() < 0
        assert cols["zeta"].max() <= 1e-10 * abs(cols["zeta"].min())


def test_reproduce_table1(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "reproduce", "table1", "--out-dir", str(tmp_path),
                         "--half-length", "64", "--modes", "512")
    assert code == 0
    payload = json.loads((tmp_path / "table1.json").read_text())
    assert payload["space_fit"]["coefficients"]["c"] < 0
    assert payload["spectrum_fit"]["coefficients"]["c"] < 0
    assert payload["space_fit"]["r_squared"] > 0.999
    assert payload["spectrum_fit"]["r_squared"] > 0.999


def test_thread_fanout_is_deterministic(tmp_path, capsys):
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    argv = ["sweep", "--gamma", "0.5", "--delta", "0.8", "--half-length", "64",
            "--modes", "512", "--offset-min", "0.05", "--offset-max", "0.2",
            "--count", "4"]
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def one_line_error(err):
    """The error record of stderr, which must be its only line."""
    lines = err.strip().splitlines()
    assert len(lines) == 1, lines
    return json.loads(lines[0])


def test_sweep_honours_strict(tmp_path, capsys):
    code, _, err = run_cli(capsys, "sweep", "--half-length", "16", "--modes", "256", "--count", "4",
                           "--strict", "--out", str(tmp_path / "sweep.csv"))
    assert code == 1
    assert one_line_error(err)["error"] == "DomainTooSmallError"
    assert not (tmp_path / "sweep.csv").exists()


def test_analyze_without_x_column_exits_1(tmp_path, capsys):
    table = tmp_path / "no_x.csv"
    write_table(table, {}, {"zeta": np.linspace(1.0, 2.0, 8), "v": np.ones(8)})
    for mode in ("decay", "spectrum", "phase"):
        code, _, err = run_cli(capsys, "analyze", mode, "--in", str(table), "--out", str(tmp_path / "a.csv"))
        assert code == 1
        record = one_line_error(err)
        assert record["error"] == "InputFormatError" and "'x'" in record["message"]


def test_table_with_short_rows_exits_1(tmp_path, capsys):
    table = tmp_path / "short.csv"
    table.write_text("# columns: x,zeta,v\n0,1\n1,2\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "analyze", "decay", "--in", str(table), "--out", str(tmp_path / "a.csv"))
    assert code == 1
    record = one_line_error(err)
    assert record["error"] == "InputFormatError" and "line 2" in record["message"]


def test_config_that_is_not_an_object_exits_1(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text("[1, 2]", encoding="utf-8")
    code, _, err = run_cli(capsys, "solve", "--config", str(cfg), "--out", str(tmp_path / "x.csv"))
    assert code == 1
    assert one_line_error(err)["error"] == "InputFormatError"


@pytest.mark.parametrize("config,named", [
    ({"grid": {"half_lenght": 16}}, "half_lenght"),
    ({"solver": {"extrapolation": "mpe:6", "tol": 1e-8}}, "tol"),
    ({"grids": {"modes": 512}}, "grids"),
])
def test_config_unknown_keys_exit_1(tmp_path, capsys, config, named):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    code, _, err = run_cli(capsys, "solve", "--config", str(cfg), "--out", str(tmp_path / "x.csv"))
    assert code == 1
    record = one_line_error(err)
    assert record["error"] == "InputFormatError" and repr(named) in record["message"]


SRC = Path(__file__).resolve().parents[1] / "src"


def run_module(*args, cwd):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


def test_cli_import_loads_no_scipy(tmp_path):
    # scipy is a test-only dependency; importing it would cost every cold process about 0.5 s
    code = "import sys, tlwaves.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = run_module("-c", code, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_oracle_command_in_a_fresh_process(tmp_path):
    done = run_module("-m", "tlwaves.cli", "oracle", "--x-max", "20", "--dx", "0.5", "--out", "o.csv", cwd=tmp_path)
    assert done.returncode == 0
    assert done.stderr == ""
    meta, cols = read_table(tmp_path / "o.csv")
    params = make_parameters(0.5, 0.8)
    curve = oracle.potential(oracle.TravelingWaveProblem(params=params, speed=params.c_crit + 0.05))
    assert meta["turning_point"] == curve.turning_point
    # the first row is the crest: the RK4 crest sample, which is the turning point up to round-off
    assert cols["x"][0] == 0.0
    assert cols["zeta"][0] == pytest.approx(oracle.reconstruct_zeta(curve, curve.turning_point), rel=1e-14)
    assert cols["zeta"][0] == np.max(cols["zeta"])


def test_reproduce_solves_each_configuration_once(tmp_path, capsys, monkeypatch):
    keys = []
    real_solve = solver.solve

    def counted(grid, params, config):
        keys.append((grid, params, config))
        return real_solve(grid, params, config)

    monkeypatch.setattr(solver, "solve", counted)
    code, _, _ = run_cli(capsys, "reproduce", "all", "--out-dir", str(tmp_path))
    assert code == 0
    # 28 solves, of which 23 distinct: fig3c, fig4 and fig5/fig6/table1 reuse fig2a's and fig2b's waves at 0.05
    assert len(keys) == 23
    assert len(set(keys)) == 23


@pytest.mark.parametrize("flag", ["--tol", "--modes", "--half-length"])
def test_reproduce_rejects_a_zero_setting(tmp_path, capsys, flag):
    out_dir = tmp_path / "results"
    code, _, err = run_cli(capsys, "reproduce", "all", "--out-dir", str(out_dir), flag, "0")
    assert code == 1
    assert one_line_error(err)["error"] == "ValueError"
    assert not out_dir.exists()


def test_reproduce_agrees_with_sweep_and_analyze(tmp_path, capsys):
    # reproduce computes fig3-fig6 and table1 with the code behind sweep and analyze: same rows, same fits
    grid_flags = ("--half-length", "64", "--modes", "512")
    repro = tmp_path / "results"
    assert run_cli(capsys, "reproduce", "all", "--out-dir", str(repro), *grid_flags)[0] == 0

    def rows(path):
        return np.column_stack(list(read_table(path)[1].values()))

    def fit_of(path):
        return json.loads(path.with_suffix(".fit.json").read_text())["fit"]

    sweep = tmp_path / "sweep.csv"
    assert run_cli(capsys, "sweep", *grid_flags, "--out", str(sweep))[0] == 0
    assert np.array_equal(rows(repro / "fig3a_amplitudes.csv"), rows(sweep))
    assert json.loads((repro / "fig3b_fit.json").read_text())["fit"] == fit_of(sweep)

    made = {}
    for mode, family in (("phase", "fig2a"), ("phase", "fig2b"), ("decay", "fig2a"), ("spectrum", "fig2a")):
        made[mode, family] = tmp_path / f"{mode}_{family}.csv"
        argv = ("analyze", mode, "--in", str(repro / f"{family}_offset0.05.csv"), "--out", str(made[mode, family]))
        assert run_cli(capsys, *argv)[0] == 0
    assert np.array_equal(rows(repro / "fig4_elevation.csv"), rows(made["phase", "fig2a"]))
    assert np.array_equal(rows(repro / "fig4_depression.csv"), rows(made["phase", "fig2b"]))
    table1 = json.loads((repro / "table1.json").read_text())
    fits = (("fig5b_profile_fit", "decay", "space_fit"), ("fig6_spectrum_fit", "spectrum", "spectrum_fit"))
    for target, mode, key in fits:
        analyzed = made[mode, "fig2a"]
        assert np.array_equal(rows(repro / f"{target}.csv"), rows(analyzed))
        assert read_table(repro / f"{target}.csv")[0]["fit"] == fit_of(analyzed) == table1[key]


def _reference_table_bytes(meta, columns):
    """A CSV table formatted one value at a time with format(v, '.17g')."""
    lines = ["# " + json.dumps(meta, sort_keys=True), "# columns: " + ",".join(columns)]
    arrays = [np.asarray(a, dtype=float) for a in columns.values()]
    lines += [",".join(format(float(v), ".17g") for v in row) for row in zip(*arrays)]
    return ("\n".join(lines) + "\n").encode("utf-8")


@pytest.mark.parametrize("columns", [
    {"x": [0.0, -0.0, np.nan, np.inf, -np.inf], "y": [5e-324, 1e300, -1e-300, np.pi, 1.0 / 3.0]},
    {"v": np.linspace(-1.0, 1.0, 7)},
    {"x": np.array([]), "y": np.array([])},
], ids=["special-values", "one-column", "zero-rows"])
def test_write_table_matches_per_value_format(tmp_path, columns):
    path = tmp_path / "t.csv"
    meta = {"config": {"gamma": 0.5}}
    write_table(path, meta, columns)
    assert path.read_bytes() == _reference_table_bytes(meta, columns)


def test_read_table_round_trip_is_bit_exact(tmp_path):
    bits = np.random.default_rng(5).integers(0, 2**64, size=3000, dtype=np.uint64)
    values = bits.view(np.float64)
    values[:6] = (-0.0, 5e-324, -5e-324, np.inf, -np.inf, 1.7976931348623157e308)
    path = tmp_path / "t.csv"
    write_table(path, {}, {"a": values[::3], "b": values[1::3], "c": values[2::3]})
    _, cols = read_table(path)
    got = np.column_stack([cols["a"], cols["b"], cols["c"]]).ravel()
    want = np.array([float(format(v, ".17g")) for v in values.tolist()])
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


@pytest.mark.parametrize("name, body, message", [
    ("bad.csv", "# columns: x,zeta\n0,1\n\n1,2,3\n", "line 4 holds 3 values where the table has 2 columns"),
    ("bad.csv", "0,1\n1\n", "line 2 holds 1 values where the table has 2 columns"),
    ("bad.csv", "# {\"config\": {}}\n# columns: x,zeta\n", "holds no data rows"),
    ("bad.json", '{"meta": 3, "columns": {"x": [0, 1]}}', "'meta' must be a JSON object"),
    ("bad.csv", "0\n# columns: x,y\n", "names 2 columns but its rows hold 1 values"),
])
def test_read_table_errors_keep_their_messages(tmp_path, name, body, message):
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    with pytest.raises(InputFormatError, match=message):
        read_table(path)


def test_analyze_bad_token_exits_1(tmp_path, capsys):
    table = tmp_path / "bad.csv"
    table.write_text("# columns: x,zeta\n0,1\n1,abc\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "analyze", "decay", "--in", str(table), "--out", str(tmp_path / "a.csv"))
    assert code == 1
    assert "abc" in one_line_error(err)["message"]


@pytest.mark.parametrize("header", ['{"config": "x"}', '{"config": {"grid": 3}}'])
def test_analyze_decay_rejects_a_header_grid_that_is_not_an_object(tmp_path, capsys, header):
    table = tmp_path / "t.csv"
    x = np.linspace(0.0, 20.0, 41)
    write_table(table, json.loads(header), {"x": x, "zeta": np.exp(-0.5 * x)})
    code, _, err = run_cli(capsys, "analyze", "decay", "--in", str(table), "--out", str(tmp_path / "a.csv"))
    assert code == 1
    record = one_line_error(err)
    assert record["error"] == "InputFormatError" and "config.grid" in record["message"]


def test_domain_warning_is_one_json_line_on_stderr(tmp_path):
    done = run_module("-m", "tlwaves.cli", "solve", "--half-length", "16", "--out", "w.csv", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    record = json.loads(done.stderr)
    assert done.stderr == json.dumps(record) + "\n"
    assert set(record) == {"warning", "message"}
    assert record["warning"] == "DomainTooSmallWarning" and "half-length 16.0" in record["message"]


def test_dispersion_rejects_a_config_block_it_does_not_read(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"grid": {"modes": 7}}), encoding="utf-8")
    out = tmp_path / "d.csv"
    code, _, err = run_cli(capsys, "dispersion", "--config", str(cfg), "--out", str(out))
    assert code == 1
    record = one_line_error(err)
    assert record["error"] == "InputFormatError" and "'grid'" in record["message"]
    assert not out.exists()


def test_oracle_header_holds_only_the_config_it_reads(tmp_path, capsys):
    profile = tmp_path / "o.csv"
    code, _, _ = run_cli(capsys, "oracle", "--x-max", "20", "--out", str(profile))
    assert code == 0
    meta, _ = read_table(profile)
    assert set(meta["config"]) == {"params", "solver", "oracle"}
    assert set(meta["config"]["solver"]) == {"cs"}
    # without a grid in the header, the default space window ends at 0.8 max(x)
    code, _, _ = run_cli(capsys, "analyze", "decay", "--in", str(profile), "--out", str(tmp_path / "a.csv"))
    assert code == 0
    assert json.loads((tmp_path / "a.fit.json").read_text())["fit"]["window"] == [5.0, 16.0]


def test_oracle_rejects_a_solver_key_it_does_not_read(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"solver": {"cs": 0.7, "tol_residual": 1e-8}}), encoding="utf-8")
    code, _, err = run_cli(capsys, "oracle", "--config", str(cfg), "--out", str(tmp_path / "o.csv"))
    assert code == 1
    record = one_line_error(err)
    assert record["error"] == "InputFormatError" and "'tol_residual'" in record["message"]


@pytest.mark.parametrize("count", ["0", "-1"])
def test_dispersion_rejects_a_count_below_one(tmp_path, capsys, count):
    out = tmp_path / "d.csv"
    code, stdout, err = run_cli(capsys, "dispersion", "--count", count, "--out", str(out))
    assert code == 1
    record = one_line_error(err)
    assert record["error"] == "ValueError" and "--count" in record["message"]
    assert stdout == ""
    assert not out.exists()
