import gc
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from tlwaves import analysis, cli, oracle, solver
from tlwaves import grid as grid_module
from tlwaves.cli import main
from tlwaves.commands import runconfig, tables
from tlwaves.commands.analyze import read_table
from tlwaves.commands.reproduce import _FIG3C_DELTAS
from tlwaves.commands.tables import write_table
from tlwaves.errors import DomainTooSmallWarning, InputFormatError
from tlwaves.grid import SpectralGrid
from tlwaves.params import make_parameters


# an integer beyond float range
HUGE = "1" + "0" * 399


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
    assert meta["report"]["seed"] == "oracle"
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
    # the rfft half: N/2 + 1 rows, k = 0..N/2 with the Nyquist row last
    assert np.array_equal(cols["k"], np.arange(257.0))
    # mode 0 coefficient is the sum of the (positive) profile samples
    _, profile = read_table(out)
    assert cols["re"][0] == pytest.approx(profile["zeta"].sum(), rel=1e-12)
    # the file holds the coefficients whose moduli analyze spectrum reports for the written profile
    kp, magnitudes = analysis.spectrum_magnitudes(SpectralGrid.from_nodes(profile["x"]), profile["zeta"])
    assert cols["kp"].tobytes() == kp.tobytes()
    assert np.abs(cols["re"] + 1j * cols["im"]).tobytes() == magnitudes.tobytes()


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
    # the oracle seed converges within 2 iterations, so the tolerance is made unreachable
    code, _, err = run_cli(capsys, "solve", "--gamma", "0.5", "--delta", "0.8",
                           "--half-length", "64", "--modes", "512", "--max-iter", "2", "--tol", "1e-30",
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


@pytest.mark.parametrize("delta", ["0.8", "0.5"], ids=["elevation", "depression"])
def test_a_left_moving_oracle_is_the_sign_map_of_the_right_moving_one(tmp_path, capsys, delta):
    # (c_s, zeta, v, u) -> (-c_s, zeta, -v, -u), and v' flips with v
    speed = make_parameters(0.5, float(delta)).c_crit + 0.05
    tables = {}
    for sign in (1.0, -1.0):
        out = tmp_path / f"oracle{sign:+g}.csv"
        code, stdout, _ = run_cli(capsys, "oracle", "--delta", delta, f"--cs={sign * speed!r}", "--x-max", "30",
                                  "--out", str(out))
        assert code == 0
        tables[sign] = read_table(out)
    (meta_right, right), (meta_left, left) = tables[1.0], tables[-1.0]
    assert meta_left["config"]["solver"]["cs"] == -speed
    assert meta_left["turning_point"] == -meta_right["turning_point"]
    assert f"turning point {meta_left['turning_point']:.12g}," in stdout
    assert (meta_left["saddle_rate"], meta_left["energy_max"]) == (meta_right["saddle_rate"], meta_right["energy_max"])
    for name, sign in (("x", 1.0), ("v", -1.0), ("v_prime", -1.0), ("zeta", 1.0), ("u", -1.0)):
        assert np.array_equal(left[name], sign * right[name]), name
    # the crest's v' is +0 at either speed
    assert left["v_prime"][0] == 0.0 and not np.signbit(left["v_prime"][0])


@pytest.mark.parametrize("flag, value", [("--dx", "0"), ("--dx", "-1"), ("--dx", "nan"), ("--x-max", "inf")])
def test_oracle_rejects_a_bad_sampling_setting(tmp_path, capsys, flag, value):
    out = tmp_path / "oracle.csv"
    code, stdout, err = run_cli(capsys, "oracle", "--x-max", "10", flag, value, "--out", str(out))
    assert code == 1
    assert one_line_error(err)["error"] == "ValueError"
    assert stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (("--x-max", "1", "--dx", "1e-9"), "--dx"),
    (("--x-max", "1e3", "--step", "1e-9"), "--step"),
    (("--x-max", "1e9", "--step", "1e-6"), "--step"),
], ids=["samples", "nodes", "petabytes"])
def test_an_oracle_over_the_memory_budget_exits_1_before_it_integrates(tmp_path, capsys, monkeypatch, argv, flag):
    # the sizes follow from the flags; a command that integrated first would allocate them
    def integrated(*args, **kwargs):
        raise AssertionError("the oracle integrated before its memory check")

    monkeypatch.setattr(oracle, "integrate_profile", integrated)
    out = tmp_path / "oracle.csv"
    code, stdout, err = run_cli(capsys, "oracle", *argv, "--out", str(out))
    assert code == 1
    record = one_line_error(err)
    assert record["error"] == "MemoryError" and f"raise {flag}" in record["message"]
    assert stdout == ""
    assert not out.exists()


def test_an_oracle_keeps_the_memory_of_its_samples_whatever_its_step(tmp_path, capsys):
    # the same 513 rows at 128001 and 1280001 nodes: the nodes kept are those next to a row
    import tracemalloc

    out = tmp_path / "oracle.csv"
    assert main(["oracle", "--x-max", "1", "--out", str(out)]) == 0  # imports and first-use allocations
    peaks = []
    for step in ("1e-3", "1e-4"):
        tracemalloc.start()
        try:
            assert main(["oracle", "--x-max", "128", "--step", step, "--out", str(out)]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    capsys.readouterr()
    assert peaks[1] <= 1.1 * peaks[0], peaks


def test_a_dispersion_over_the_memory_budget_exits_1_before_it_allocates(tmp_path, capsys, monkeypatch):
    # the row count is --count; a command that allocated first would ask numpy for 1e12 rows
    def allocated(*args, **kwargs):
        raise AssertionError("dispersion allocated before its memory check")

    monkeypatch.setattr(np, "linspace", allocated)
    out = tmp_path / "disp.csv"
    # a count beyond float range is refused by the same check, not by an OverflowError
    for count in ("1000000000000", HUGE):
        code, stdout, err = run_cli(capsys, "dispersion", "--count", count, "--out", str(out))
        assert code == 1
        record = one_line_error(err)
        assert record["error"] == "MemoryError"
        assert f"dispersion --count {count}" in record["message"] and "lower --count" in record["message"]
        assert stdout == ""
        assert not out.exists()


def test_a_sweep_over_the_memory_budget_exits_1_before_it_solves(tmp_path, capsys, monkeypatch):
    # the row count is --count; unbudgeted, np.linspace raised on its own, naming no flag
    def swept(*args, **kwargs):
        raise AssertionError("sweep solved before its memory check")

    monkeypatch.setattr(analysis, "speed_sweep", swept)
    out = tmp_path / "sweep.csv"
    for count in ("100000000000", HUGE):
        code, stdout, err = run_cli(capsys, "sweep", "--count", count, "--out", str(out))
        assert code == 1
        record = one_line_error(err)
        assert record["error"] == "MemoryError"
        assert f"sweep --count {count}" in record["message"] and "lower --count" in record["message"]
        assert stdout == "" and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("cycle", ["100000000", HUGE], ids=["1e8", "400-digits"])
def test_an_mpe_history_over_the_memory_budget_names_the_extrapolation(tmp_path, capsys, monkeypatch, cycle):
    # at the default 1024 modes the grid fits the budget; the K + 2 stacked iterates alone do not
    def built(*args, **kwargs):
        raise AssertionError("the grid was built before the memory check")

    monkeypatch.setattr(grid_module, "SpectralGrid", built)
    code, stdout, err = run_cli(capsys, "solve", "--extrapolation", f"mpe:{cycle}", "--out", str(tmp_path / "w.csv"))
    assert code == 1
    record = one_line_error(err)
    assert record["error"] == "MemoryError"
    assert f"solve --extrapolation mpe:{cycle} with --modes 1024" in record["message"]
    assert "lower K in --extrapolation mpe:K" in record["message"] and "lower --modes" not in record["message"]
    assert stdout == "" and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ("solve", "--modes", "10000000000"),
    ("solve", "--modes", "1000000000", "--dealias"),
    ("solve", "--modes", "100000000", "--extrapolation", "mpe:200"),
    ("sweep", "--modes", "10000000000"),
    ("reproduce", "fig4", "--modes", "10000000000"),
    ("solve", "--modes", HUGE),
    ("solve", "--modes", HUGE, "--dealias"),
    ("reproduce", "fig4", "--modes", HUGE),
], ids=["solve", "dealiased", "mpe-history", "sweep", "reproduce", "solve-400-digits", "dealiased-400-digits",
        "reproduce-400-digits"])
def test_a_grid_over_the_memory_budget_exits_1_before_it_is_built(tmp_path, capsys, monkeypatch, argv):
    # the sizes follow from --modes; a command that built its grid first would allocate them
    def built(*args, **kwargs):
        raise AssertionError("the grid was built before the memory check")

    monkeypatch.setattr(grid_module, "SpectralGrid", built)
    out = ("--out-dir", str(tmp_path / "results")) if argv[0] == "reproduce" else ("--out", str(tmp_path / "w.csv"))
    code, stdout, err = run_cli(capsys, *argv, *out)
    assert code == 1
    record = one_line_error(err)
    assert record["error"] == "MemoryError"
    assert f"{argv[0]} --modes {argv[2 + (argv[0] == 'reproduce')]}" in record["message"]
    assert "lower --modes" in record["message"]
    assert stdout == "" and list(tmp_path.iterdir()) == []


class _Budgeted(Exception):
    """Raised in place of a command's first allocation of its rows, once its memory checks have passed."""


@pytest.mark.parametrize("argv, edge", [
    (("dispersion", "--count"), 22369621),
    (("sweep", "--count"), 2796202),
    (("oracle", "--step", "1", "--dx", "1", "--x-max"), 4793490),
], ids=["dispersion-rows", "sweep-rows", "oracle-samples"])
def test_the_budget_holds_the_largest_run_its_bytes_per_item_allow(tmp_path, capsys, monkeypatch, argv, edge):
    # the edges the README names, through each command's own estimate and _check_memory's arithmetic: the run at
    # the edge passes every memory check and is stopped where it would first allocate its rows, and one row or
    # sample more is refused.  Nothing near the budget is allocated
    def stopped(real):
        def call(*args, **kwargs):
            if max(abs(a) for a in args) > 1e6:  # the rows; a grid's own nodes are fewer
                raise _Budgeted
            return real(*args, **kwargs)
        return call

    monkeypatch.setattr(np, "linspace", stopped(np.linspace))  # dispersion's wavenumbers, sweep's speeds
    monkeypatch.setattr(np, "arange", stopped(np.arange))  # the oracle's sample abscissae
    out = ("--out", str(tmp_path / "t.csv"))
    with pytest.raises(_Budgeted):
        main([*argv, str(edge), *out])
    code, stdout, err = run_cli(capsys, *argv, str(edge + 1), *out)
    assert code == 1 and one_line_error(err)["error"] == "MemoryError"
    assert stdout == "" and list(tmp_path.iterdir()) == []


def test_the_memory_estimate_of_a_solve_counts_padding_and_the_mpe_history(monkeypatch):
    # the modes, 3/2 as many with --dealias, and the K + 2 stacked (zeta, v) iterates of MPE(K)
    asked = []
    monkeypatch.setattr(runconfig, "check_memory", lambda needed, run, remedy: asked.append(needed))
    monkeypatch.setattr(grid_module, "SpectralGrid", lambda **kwargs: None)
    n = 2**22
    for extra in ((), ("--dealias",), ("--extrapolation", "mpe:6")):
        runconfig.build_run(cli.parse_args(["solve", "--modes", str(n), *extra, "--out", "w.csv"]))
    assert asked == [n * runconfig._MODE_BYTES, 1.5 * n * runconfig._MODE_BYTES,
                     n * runconfig._MODE_BYTES + 8 * 2 * n * 8]


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


def test_a_sweep_of_three_speeds_exits_1(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, stdout, err = run_cli(capsys, "sweep", "--count", "3", "--out", str(out))
    assert code == 1
    assert one_line_error(err) == {"error": "InsufficientDataError",
                                   "message": "sweep needs at least 4 speeds for the power fit"}
    assert stdout == "" and not out.exists()


def test_extrapolation_mpe_is_recorded_with_its_default_cycle(tmp_path, capsys):
    out = tmp_path / "wave.csv"
    code, _, _ = run_cli(capsys, "solve", "--half-length", "64", "--modes", "512", "--extrapolation", "mpe",
                         "--out", str(out))
    assert code == 0
    assert read_table(out)[0]["config"]["solver"]["extrapolation"] == "mpe:6"


def test_analyze_reads_a_json_profile_as_it_reads_the_csv_one(tmp_path, capsys):
    fits = {}
    for suffix in ("csv", "json"):
        profile = tmp_path / f"wave.{suffix}"
        assert run_cli(capsys, "solve", "--half-length", "64", "--modes", "512", "--out", str(profile))[0] == 0
        out = tmp_path / f"decay_{suffix}.csv"
        assert run_cli(capsys, "analyze", "decay", "--in", str(profile), "--out", str(out))[0] == 0
        fits[suffix] = json.loads(out.with_suffix(".fit.json").read_text())["fit"]
    assert fits["json"] == fits["csv"]


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


def test_analyze_a_window_from_zero_exits_1(tmp_path, capsys):
    # the fit takes log t, so a window that reaches t = 0 is refused before any file is written
    profile = tmp_path / "wave.csv"
    assert run_cli(capsys, "solve", "--half-length", "64", "--modes", "512", "--out", str(profile))[0] == 0
    out = tmp_path / "spec.csv"
    code, stdout, err = run_cli(capsys, "analyze", "spectrum", "--window", "0", "5", "--in", str(profile),
                                "--out", str(out))
    assert code == 1
    assert one_line_error(err) == {"error": "WaveError",
                                   "message": "decay-fit window must contain only positive abscissae"}
    assert stdout == ""
    assert sorted(tmp_path.iterdir()) == [profile]


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


@pytest.mark.parametrize("mode", ["spectrum", "phase"])
def test_analyze_a_one_row_table_exits_1(tmp_path, capsys, mode):
    table = tmp_path / "one.csv"
    write_table(table, {}, {"x": [0.0], "zeta": [1.0], "v": [1.0]})
    out = tmp_path / "a.csv"
    code, _, err = run_cli(capsys, "analyze", mode, "--in", str(table), "--out", str(out))
    assert code == 1
    record = one_line_error(err)
    assert record["error"] == "WaveError" and "at least 8" in record["message"]
    assert not out.exists()


@pytest.mark.parametrize("x", [[0.0], [-2.0, -1.0, 0.0]], ids=["one-row", "no-positive-x"])
def test_analyze_decay_without_a_node_at_positive_x_exits_1(tmp_path, capsys, x):
    table = tmp_path / "left.csv"
    write_table(table, {}, {"x": x, "zeta": np.ones(len(x))})
    out = tmp_path / "a.csv"
    code, stdout, err = run_cli(capsys, "analyze", "decay", "--in", str(table), "--out", str(out))
    assert code == 1
    assert one_line_error(err) == {
        "error": "InputFormatError",
        "message": f"{table} has no node at x > 0 to fit the decay on",
    }
    assert stdout == ""
    assert not out.exists()


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
        assert meta["report"]["seed"] == "oracle"
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


@pytest.mark.parametrize("argv, out_flag", [
    (("sweep", "--gamma", "0.5", "--delta", "0.8", "--half-length", "64", "--modes", "512",
      "--offset-min", "0.05", "--offset-max", "0.2", "--count", "4"), ("--out", "sweep.csv")),
    (("reproduce", "all", "--half-length", "64", "--modes", "512"), ("--out-dir", ".")),
], ids=["sweep", "reproduce"])
def test_runs_are_deterministic(tmp_path, capsys, argv, out_flag):
    written = []
    for run in ("first", "second"):
        (tmp_path / run).mkdir()
        flag, name = out_flag
        assert main([*argv, flag, str(tmp_path / run / name)]) == 0
        written.append({path.relative_to(tmp_path / run): path.read_bytes()
                        for path in sorted((tmp_path / run).rglob("*")) if path.is_file()})
    capsys.readouterr()
    assert len(written[0]) == (2 if argv[0] == "sweep" else 15)
    assert written[0] == written[1]


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
    # the rows fix the width, and the columns line must name that many
    assert record == {"error": "InputFormatError", "message": f"{table} names 3 columns but its rows hold 2 values"}


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
    ({"solver": {"tol_update": 1e-8}}, "tol_update"),
])
def test_config_unknown_keys_exit_1(tmp_path, capsys, config, named):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    code, _, err = run_cli(capsys, "solve", "--config", str(cfg), "--out", str(tmp_path / "x.csv"))
    assert code == 1
    record = one_line_error(err)
    assert record["error"] == "InputFormatError" and repr(named) in record["message"]


@pytest.mark.parametrize("config, named", [
    ({"solver": {"extrapolation": 6}}, "solver.extrapolation"),
    ({"params": {"gamma": None}}, "params.gamma"),
    ({"solver": {"cs": {}}}, "solver.cs"),
    ({"solver": {"dealias": "false"}}, "solver.dealias"),
    ({"grid": {"modes": 512.9}}, "grid.modes"),
    ({"solver": {"max_iter": True}}, "solver.max_iter"),
    ({"params": {"delta": int(HUGE)}}, "params.delta"),
    ({"grid": {"half_length": int(HUGE)}}, "grid.half_length"),
    ({"params": 1}, "block 'params' must be a JSON object"),
], ids=["int-extrapolation", "null-number", "object-number", "string-flag", "float-integer", "boolean-integer",
        "400-digit-number", "400-digit-length", "number-block"])
def test_config_value_of_the_wrong_type_exits_1(tmp_path, capsys, config, named):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "x.csv"
    code, stdout, err = run_cli(capsys, "solve", "--config", str(cfg), "--half-length", "64", "--out", str(out))
    assert code == 1
    record = one_line_error(err)
    assert record["error"] == "InputFormatError" and named in record["message"]
    assert stdout == ""
    assert not out.exists()


def test_solve_rejects_a_non_finite_half_length(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code, stdout, err = run_cli(capsys, "solve", "--half-length", "inf", "--out", str(out))
    assert code == 1
    assert one_line_error(err) == {"error": "ValueError", "message": "half_length must be finite, got inf"}
    assert stdout == ""
    assert not out.exists()


SRC = Path(__file__).resolve().parents[1] / "src"


def run_module(*args, cwd, **env):
    env = dict(os.environ, PYTHONPATH=str(SRC), **env)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


# OpenBLAS splits its dot products over threads at this size, so the summation order follows the thread count
LARGE_RUN = ("--modes", "16384", "--half-length", "2048", "--extrapolation", "mpe:6", "--dealias")


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one CPU runs every BLAS call on one thread")
def test_large_solve_and_sweep_write_the_same_bytes_on_one_and_two_blas_threads(tmp_path):
    written = {}
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        for argv in (("solve", "--out", "wave.csv"), ("sweep", "--count", "4", "--out", "sweep.csv")):
            done = run_module("-m", "tlwaves.cli", *argv, *LARGE_RUN, cwd=out, OPENBLAS_NUM_THREADS=threads)
            assert done.returncode == 0, done.stderr
        written[threads] = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    assert list(written["1"]) == ["sweep.csv", "sweep.fit.json", "wave.csv"]
    for name, data in written["1"].items():
        assert data == written["2"][name], name


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads the thread count from /proc")
def test_importing_the_command_line_starts_no_blas_thread_pool(tmp_path):
    # an inherited setting does not count: the command line overrides it.  The entry loads no numpy, so the
    # threads are counted once a command run through it has loaded numpy
    code = "\n".join([
        "import sys",
        "from tlwaves import cli",
        "assert 'numpy' not in sys.modules",
        "try:",
        "    cli.run(['dispersion', '--count', '3', '--out', 'd.csv'])",
        "except SystemExit as exited:",
        "    assert exited.code == 0 and 'numpy' in sys.modules",
        "print(next(line for line in open('/proc/self/status') if line.startswith('Threads:')))",
    ])
    done = run_module("-c", code, cwd=tmp_path, OPENBLAS_NUM_THREADS="2")
    assert done.returncode == 0, done.stderr
    assert done.stdout.split()[-2:] == ["Threads:", "1"]


@pytest.mark.parametrize("prelude, expected", [
    ("os.environ['OPENBLAS_NUM_THREADS'] = '3'", "3"),
    ("os.environ.pop('OPENBLAS_NUM_THREADS', None)", "None"),
], ids=["set", "unset"])
def test_a_caller_that_loaded_numpy_first_keeps_its_blas_setting(tmp_path, prelude, expected):
    code = f"import os; {prelude}; import numpy, tlwaves.cli; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    done = run_module("-c", code, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == expected


def test_cli_import_loads_no_scipy(tmp_path):
    # scipy is a test-only dependency; importing it would cost every cold process about 0.5 s
    code = "import sys, tlwaves.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = run_module("-c", code, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_main_in_process_freezes_nothing(tmp_path, capsys):
    # the collector is switched and the heap frozen only by the process entry, run(); main leaves both as found
    assert gc.get_freeze_count() == 0
    try:
        for enabled in (True, False):
            if not enabled:
                gc.disable()
            code, _, _ = run_cli(capsys, "dispersion", "--count", "3", "--out", str(tmp_path / "d.csv"))
            assert code == 0
            assert gc.isenabled() == enabled
            assert gc.get_freeze_count() == 0
    finally:
        gc.enable()


def test_run_freezes_the_heap_and_exits_with_the_code_of_main(tmp_path, capsys):
    try:
        with pytest.raises(SystemExit) as exited:
            cli.run(["solve", "--gamma", "1.5", "--out", str(tmp_path / "x.csv")])
        assert exited.value.code == 1
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()
    assert one_line_error(capsys.readouterr().err)["error"] == "ParameterDomainError"


@pytest.mark.parametrize("argv, code", [
    (("dispersion", "--count", "3", "--out", "d.csv"), 0),
    (("solve", "--gamma", "1.5", "--out", "w.csv"), 1),
    (("solve", "--help"), 0),
    (("--help",), 0),
    (("solve", "--bogus", "1", "--out", "w.csv"), 1),
    (("bogus",), 1),
], ids=["success", "error", "help", "top-level-help", "usage-error", "unknown-command"])
def test_run_leaves_the_collector_on(tmp_path, capsys, monkeypatch, argv, code):
    # --help leaves parse_args by SystemExit, so run() turns the collector back on whatever way main ends
    monkeypatch.chdir(tmp_path)
    try:
        with pytest.raises(SystemExit) as exited:
            cli.run(list(argv))
        assert exited.value.code == code
        assert gc.isenabled()
    finally:
        gc.enable()
        gc.unfreeze()
    capsys.readouterr()


def test_run_collects_nothing_until_the_command_is_loaded(tmp_path, monkeypatch):
    # off over the parse and the command's imports; on, over a frozen heap, while the command works
    from tlwaves.commands import dispersion

    seen = {}
    parse_args, execute = cli.parse_args, dispersion.execute

    def parsed(argv):
        seen["parse"] = gc.isenabled()
        return parse_args(argv)

    def executed(args):
        seen["execute"] = gc.isenabled(), gc.get_freeze_count() > 0
        return execute(args)

    monkeypatch.setattr(cli, "parse_args", parsed)
    monkeypatch.setattr(dispersion, "execute", executed)
    monkeypatch.chdir(tmp_path)
    try:
        with pytest.raises(SystemExit) as exited:
            cli.run(["dispersion", "--count", "3", "--out", "d.csv"])
    finally:
        gc.enable()
        gc.unfreeze()
    assert exited.value.code == 0
    assert seen == {"parse": False, "execute": (True, True)}


def test_the_console_script_is_the_process_entry():
    pyproject = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
    scripts = pyproject.split("[project.scripts]\n")[1].split("\n[")[0]
    assert scripts.strip() == 'tlwaves = "tlwaves.cli:run"'


@pytest.mark.parametrize("argv, code, error", [
    (("dispersion", "--count", "3", "--out", "d.csv"), 0, None),
    (("solve", "--gamma", "1.5", "--out", "w.csv"), 1, "ParameterDomainError"),
    (("solve", "--half-length", "64", "--modes", "512", "--max-iter", "1", "--tol", "1e-30", "--out", "w.csv"), 2,
     "NotConvergedError"),
], ids=["success", "validation", "non-convergence"])
def test_a_cold_command_exits_with_the_code_of_main(tmp_path, argv, code, error):
    done = run_module("-m", "tlwaves.cli", *argv, cwd=tmp_path)
    assert done.returncode == code, done.stderr
    if error is None:
        assert done.stderr == ""
    else:
        assert one_line_error(done.stderr)["error"] == error


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

    fits = {}
    for name in ("fit_decay_space", "fit_decay_spectrum"):
        def counted_fit(*args, real=getattr(analysis, name), name=name):
            fits[name] = fits.get(name, 0) + 1
            return real(*args)
        monkeypatch.setattr(analysis, name, counted_fit)
    monkeypatch.setattr(solver, "solve", counted)
    code, _, _ = run_cli(capsys, "reproduce", "all", "--out-dir", str(tmp_path))
    assert code == 0
    # 28 solves, of which 23 distinct: fig3c, fig4 and fig5/fig6/table1 reuse fig2a's and fig2b's waves at 0.05
    assert len(keys) == 23
    assert len(set(keys)) == 23
    # table1 reads the fits of fig5b and fig6
    assert fits == {"fit_decay_space": 1, "fit_decay_spectrum": 1}


@pytest.mark.parametrize("flag", ["--tol", "--modes", "--half-length"])
def test_reproduce_rejects_a_zero_setting(tmp_path, capsys, flag):
    out_dir = tmp_path / "results"
    code, _, err = run_cli(capsys, "reproduce", "all", "--out-dir", str(out_dir), flag, "0")
    assert code == 1
    assert one_line_error(err)["error"] == "ValueError"
    assert not out_dir.exists()


def test_reproduce_agrees_with_sweep_and_analyze(tmp_path, capsys):
    # reproduce computes fig3-fig6 and table1 with the code behind sweep and analyze: same rows, same fits.
    # At l = 64 the spacing of the written nodes gives l back bit for bit for N = 512, and not for N = 500.
    for modes, exact in ((512, True), (500, False)):
        _assert_reproduce_agrees(tmp_path / str(modes), capsys, ("--half-length", "64", "--modes", str(modes)))
        x = read_table(tmp_path / str(modes) / "results" / "fig2a_offset0.05.csv")[1]["x"]
        assert ((x[1] - x[0]) * modes / 2 == 64.0) == exact


def test_every_reproduce_header_records_the_grid_and_the_tolerance(tmp_path, capsys):
    configs = {}
    for modes in (256, 512):
        out_dir = tmp_path / str(modes)
        assert run_cli(capsys, "reproduce", "all", "--half-length", "64", "--modes", str(modes),
                       "--out-dir", str(out_dir))[0] == 0
        for path in out_dir.iterdir():
            meta = read_table(path)[0] if path.suffix == ".csv" else json.loads(path.read_text())["meta"]
            configs[modes, path.name] = meta["config"]
    names = {name for _, name in configs}
    assert len(names) == 15
    for name in names:
        assert configs[256, name] != configs[512, name], name
        for modes in (256, 512):
            config = configs[modes, name]
            assert config["grid"] == {"half_length": 64.0, "modes": modes}, name
            assert config["solver"]["tol_residual"] == 1e-10, name
            if name.startswith("fig3c"):
                continue
            assert config["params"] == {"gamma": 0.5, "delta": 0.5 if "fig2b" in name or "depression" in name else 0.8}
            # one speed per file, recorded where solve records it; the sweep's files have none
            assert ("cs" in config["solver"]) == (not name.startswith(("fig3a", "fig3b"))), name
            assert set(config) == {"grid", "params", "solver"}, name


def test_each_reproduce_file_of_one_wave_carries_its_solve_report(tmp_path, capsys):
    argv = ("reproduce", "all", "--half-length", "64", "--modes", "256", "--out-dir", str(tmp_path))
    assert run_cli(capsys, *argv)[0] == 0

    def meta(name):
        path = tmp_path / name
        return read_table(path)[0] if path.suffix == ".csv" else json.loads(path.read_text())["meta"]

    elevation, depression = (meta(f"{family}_offset0.05.csv")["report"] for family in ("fig2a", "fig2b"))
    assert elevation != depression
    for name in ("fig4_elevation.csv", "fig5a_spectrum.csv", "fig5b_profile_fit.csv", "fig6_spectrum_fit.csv",
                 "table1.json"):
        assert meta(name)["report"] == elevation, name
    assert meta("fig4_depression.csv")["report"] == depression
    # the sweep and the study describe many waves, and carry no report
    assert not {"report"} & (set(meta("fig3a_amplitudes.csv")) | set(meta("fig3b_fit.json"))
                             | set(meta("fig3c_amplitude_vs_k.csv")))


def _assert_reproduce_agrees(tmp_path, capsys, grid_flags):
    repro = tmp_path / "results"
    assert run_cli(capsys, "reproduce", "all", "--out-dir", str(repro), *grid_flags)[0] == 0

    def rows(path):
        return np.column_stack(list(read_table(path)[1].values())).tobytes()

    def fit_of(path):
        return json.loads(path.with_suffix(".fit.json").read_text())["fit"]

    sweep = tmp_path / "sweep.csv"
    assert run_cli(capsys, "sweep", *grid_flags, "--out", str(sweep))[0] == 0
    assert rows(repro / "fig3a_amplitudes.csv") == rows(sweep)
    assert json.loads((repro / "fig3b_fit.json").read_text())["fit"] == fit_of(sweep)

    made = {}
    for mode, family in (("phase", "fig2a"), ("phase", "fig2b"), ("decay", "fig2a"), ("spectrum", "fig2a")):
        made[mode, family] = tmp_path / f"{mode}_{family}.csv"
        argv = ("analyze", mode, "--in", str(repro / f"{family}_offset0.05.csv"), "--out", str(made[mode, family]))
        assert run_cli(capsys, *argv)[0] == 0
    assert rows(repro / "fig4_elevation.csv") == rows(made["phase", "fig2a"])
    assert rows(repro / "fig4_depression.csv") == rows(made["phase", "fig2b"])
    table1 = json.loads((repro / "table1.json").read_text())
    fits = (("fig5b_profile_fit", "decay", "space_fit"), ("fig6_spectrum_fit", "spectrum", "spectrum_fit"))
    for target, mode, key in fits:
        analyzed = made[mode, "fig2a"]
        assert rows(repro / f"{target}.csv") == rows(analyzed)
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


def _powers_of_ten_and_neighbours():
    powers = np.array([float(10**p) if p >= 0 else 1 / 10**-p for p in range(-300, 301)])
    return np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])


def _notation_switch(rng):
    # %g writes e = -4 .. 16 in fixed notation and e = -5 and 17 with an exponent
    scaled = [rng.uniform(1.0, 10.0, 300) * 10.0**e for e in (-5, -4, 16, 17)]
    edges = [np.nextafter(edge, toward) for edge in (1e-5, 1e-4, 1e16, 1e17) for toward in (0.0, np.inf)]
    return np.concatenate([*scaled, edges, [1e-5, 1e-4, 1e16, 1e17, 12345678901234567.0, 0.00012]])


_FORMAT_CASES = {
    "random-bits": lambda rng: rng.integers(0, 2**64, size=30000, dtype=np.uint64).view(np.float64),
    "powers-of-ten": lambda rng: _powers_of_ten_and_neighbours(),
    "notation-switch": _notation_switch,
    # doubles just below a power of ten whose 17 digits round up to it: '%.17g' % 1e-14 is '1e-14'
    "new-decade": lambda rng: np.array([1e-305, 1e-243, 1e-176, 1e-79, 1e-73, 1e-14, 1e98, 1e129, 1e153, 1e220]),
    "specials": lambda rng: np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 2.2250738585072014e-308]),
    # k 2**m, subnormals included, with 18 exact ties of the 17th digit such as 2**-25 = 2.98023223876953125e-08
    "powers-of-two": lambda rng: np.ldexp([1.0, 3.0, 5.0, 7.0], np.arange(-1074, 1021)[:, None]).ravel(),
    "integers-and-halves": lambda rng: np.concatenate([rng.integers(0, 2**53, size=3000).astype(float),
                                                       rng.integers(0, 10**6, size=3000) / 2.0**20]),
}


@pytest.mark.parametrize("case", list(_FORMAT_CASES))
def test_write_table_matches_per_value_format_on_hard_values(tmp_path, case):
    rng = np.random.default_rng(20)
    values = _FORMAT_CASES[case](rng)
    values = np.where(rng.random(values.size) < 0.5, -values, values)  # a product would trip on signalling NaNs
    values = np.concatenate([values, np.zeros(-values.size % 3)])
    columns = {"a": values[::3], "b": values[1::3], "c": values[2::3]}
    path = tmp_path / "t.csv"
    write_table(path, {"case": case}, columns)
    assert path.read_bytes() == _reference_table_bytes({"case": case}, columns)


@pytest.mark.parametrize("block", [tables._FORMAT_BLOCK, 5])
@pytest.mark.parametrize("shape", [(5000, 1), (2000, 3), (0, 1), (1, 4), (7, 4)])
def test_write_table_blocks_split_rows_byte_for_byte(tmp_path, monkeypatch, block, shape):
    # a table of more values than a block is written block by block, and a block may end inside a row
    monkeypatch.setattr(tables, "_FORMAT_BLOCK", block)
    rows, width = shape
    scales = 10.0 ** (np.arange(rows * width) % 40 - 20)
    values = np.random.default_rng(rows + width).standard_normal(rows * width) * scales
    columns = {f"c{i}": values[i::width] for i in range(width)}
    path = tmp_path / "t.csv"
    write_table(path, {}, columns)
    assert path.read_bytes() == _reference_table_bytes({}, columns)


@pytest.mark.parametrize("name, body, message", [
    ("bad.csv", "# columns: x,zeta\n0,1\n\n1,2,3\n", "line 4 holds 3 values where the table has 2 columns"),
    ("bad.csv", "0,1\n1\n", "line 2 holds 1 values where the table has 2 columns"),
    ("bad.csv", "# {\"config\": {}}\n# columns: x,zeta\n", "holds no data rows"),
    ("bad.json", '{"meta": 3, "columns": {"x": [0, 1]}}', "'meta' must be a JSON object"),
    ("bad.csv", "0\n# columns: x,y\n", "names 2 columns but its rows hold 1 values"),
    ("bad.csv", "# columns: x,zeta\n0,1\n# a note\n1,2,3\n", "line 4 holds 3 values where the table has 2 columns"),
    ("bad.csv", "# columns: x,zeta\n0,1\n \t \n1\n", "line 4 holds 1 values where the table has 2 columns"),
    ("bad.csv", "# columns: x,zeta\r\n0,1\r\n1,2,3\r\n", "line 3 holds 3 values where the table has 2 columns"),
    ("bad.csv", "0,1\n1,2\n# columns: x,y,z\n", "names 3 columns but its rows hold 2 values"),
    ("bad.csv", "# columns: x,zeta\n0,1\n\n1,2\n# a note\n2,3\n3,abc\n4,5\n",
     "bad.csv line 7 holds 'abc', which is not a number"),
    ("bad.csv", "# columns: x\n0\n1_0\n", "bad.csv line 3 holds '1_0', which is not a number"),
])
def test_read_table_errors_keep_their_messages(tmp_path, name, body, message):
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    with pytest.raises(InputFormatError, match=message):
        read_table(path)


@pytest.mark.parametrize("body", [
    "# columns: x,zeta\n0,1\n# a note\n1,2\n",
    "# columns: x,zeta\n0,1\n \t \n1,2\n",
    "# {\"a\": 1}\r\n# columns: x,zeta\r\n0,1\r\n1,2\r\n",
    "0,1\n1,2\n# columns: x,zeta\n",
], ids=["comment-between-rows", "whitespace-line", "crlf", "columns-line-after-rows"])
def test_read_table_skips_comments_and_blank_lines_between_rows(tmp_path, body):
    path = tmp_path / "t.csv"
    path.write_bytes(body.encode("utf-8"))
    meta, cols = read_table(path)
    assert meta == ({"a": 1} if "{" in body else {})
    assert list(cols) == ["x", "zeta"]
    assert cols["x"].tolist() == [0.0, 1.0] and cols["zeta"].tolist() == [1.0, 2.0]


def test_analyze_bad_token_exits_1(tmp_path, capsys):
    table = tmp_path / "bad.csv"
    table.write_text("# columns: x,zeta\n0,1\n1,abc\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "analyze", "decay", "--in", str(table), "--out", str(tmp_path / "a.csv"))
    assert code == 1
    assert "abc" in one_line_error(err)["message"]


@pytest.mark.parametrize("body, line, message", [
    ("# columns: x,zeta\n0,1\n# columns: x,zeta,v\n1,2,3\n", 4, "holds 3 values where the table has 2 columns"),
    ("# columns: x,zeta\n0,1\n1,\n", 3, "holds '', which is not a number"),
    ("# columns: x,zeta\n0,1\n,2\n", 3, "holds '', which is not a number"),
    ("# columns: x,zeta\n0,1\n1, \t\n", 3, "holds '', which is not a number"),
], ids=["two-columns-lines", "empty-last-field", "empty-first-field", "blank-field"])
def test_a_ragged_or_empty_field_table_names_its_file_and_line(tmp_path, capsys, body, line, message):
    table = tmp_path / "bad.csv"
    table.write_text(body, encoding="utf-8")
    with pytest.raises(InputFormatError) as raised:
        read_table(table)
    assert str(raised.value) == f"{table} line {line} {message}"
    code, stdout, err = run_cli(capsys, "analyze", "decay", "--in", str(table), "--out", str(tmp_path / "a.csv"))
    assert code == 1
    assert one_line_error(err) == {"error": "InputFormatError", "message": str(raised.value)}
    assert stdout == ""


def test_the_last_columns_line_must_name_the_width_of_the_rows(tmp_path):
    table = tmp_path / "t.csv"
    table.write_text("# columns: x,zeta\n0,1\n# columns: a,b,c\n1,2\n", encoding="utf-8")
    with pytest.raises(InputFormatError, match="names 3 columns but its rows hold 2 values"):
        read_table(table)
    table.write_text("# columns: x,zeta,v\n0,1\n# columns: a,b\n1,2\n", encoding="utf-8")
    assert list(read_table(table)[1]) == ["a", "b"]


@pytest.mark.parametrize("columns", [
    {"x": list(range(1, 11)), "zeta": [1, 2, 3]},
    {"x": 5, "zeta": [1.0]},
    {"x": [[1.0, 2.0]], "zeta": [1.0]},
    {"x": ["1"], "zeta": [1.0]},
    {"x": [True], "zeta": [1.0]},
    {"x": [], "zeta": []},
    {},
    [1, 2],
], ids=["ragged", "scalar", "nested", "string", "boolean", "empty", "no-columns", "array-columns"])
def test_analyze_a_malformed_json_table_exits_1(tmp_path, capsys, columns):
    table = tmp_path / "bad.json"
    table.write_text(json.dumps({"meta": {}, "columns": columns}), encoding="utf-8")
    code, stdout, err = run_cli(capsys, "analyze", "decay", "--in", str(table), "--out", str(tmp_path / "a.csv"))
    assert code == 1
    record = one_line_error(err)
    assert record["error"] == "InputFormatError" and str(table) in record["message"]
    assert stdout == ""


@pytest.mark.parametrize("source", ["flag", "config"])
def test_a_malformed_extrapolation_cycle_names_the_setting(tmp_path, capsys, source):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"solver": {"extrapolation": "mpe:abc"}}), encoding="utf-8")
    given = ("--extrapolation", "mpe:abc") if source == "flag" else ("--config", str(cfg))
    out = tmp_path / "x.csv"
    code, stdout, err = run_cli(capsys, "solve", *given, "--out", str(out))
    assert code == 1
    record = one_line_error(err)
    assert record["error"] == "ValueError"
    assert record["message"] == "unknown extrapolation setting 'mpe:abc'; use off or mpe:K"
    assert stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("header", [{"config": "x"}, {"config": {"grid": 3}}, {"config": {"grid": {"half_length": 9}}}])
def test_analyze_reads_no_grid_from_the_header(tmp_path, capsys, header):
    # the grid comes from the nodes, and the default space window ends at 0.8 max|x| = 0.8 l
    x = SpectralGrid(half_length=32.0, n=256).nodes
    columns = {"x": x, "zeta": 1.0 / np.cosh(x / 4.0) ** 2}
    made = {}
    for name, meta in (("plain", {}), ("headed", header)):
        write_table(tmp_path / f"{name}.csv", meta, columns)
        for mode in ("decay", "spectrum"):
            out = made[mode, name] = tmp_path / f"{mode}_{name}.csv"
            assert run_cli(capsys, "analyze", mode, "--in", str(tmp_path / f"{name}.csv"), "--out", str(out))[0] == 0
    for mode in ("decay", "spectrum"):
        plain, headed = made[mode, "plain"], made[mode, "headed"]
        assert read_table(plain)[1]["value"].tobytes() == read_table(headed)[1]["value"].tobytes()
        assert json.loads(plain.with_suffix(".fit.json").read_text())["fit"] == \
            json.loads(headed.with_suffix(".fit.json").read_text())["fit"]
    assert json.loads(made["decay", "headed"].with_suffix(".fit.json").read_text())["fit"]["window"] == [5.0, 25.6]


@pytest.mark.parametrize("mode", ["decay", "spectrum", "phase"])
@pytest.mark.parametrize("column", ["x", "value"])
def test_analyze_rejects_a_non_finite_value(tmp_path, capsys, mode, column):
    x = SpectralGrid(half_length=32.0, n=256).nodes.copy()
    zeta = 1.0 / np.cosh(x / 4.0) ** 2
    columns = {"x": x, "zeta": zeta, "v": 0.5 * zeta}
    name = "x" if column == "x" else "v" if mode == "phase" else "zeta"
    columns[name][200] = np.inf if column == "x" else np.nan
    table, out = tmp_path / "bad.csv", tmp_path / "a.csv"
    write_table(table, {}, columns)
    code, stdout, err = run_cli(capsys, "analyze", mode, "--in", str(table), "--out", str(out))
    assert code == 1
    assert one_line_error(err) == {
        "error": "InputFormatError",
        "message": f"{table}: column {name!r} holds a non-finite value",
    }
    assert stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("argv, value, error", [
    (("solve", "--cs", "1e300"), "speed 1e+300", "ParameterDomainError"),
    (("oracle", "--cs", "1e300"), "speed 1e+300", "ParameterDomainError"),
    *[((command, "--delta", "1e200"), "delta = 1e+200", "ParameterDomainError")
      for command in ("solve", "sweep", "oracle", "dispersion")],
    # 1 + beta k'^2 overflows at the top mode, which the solve checks before it samples a seed on the grid;
    # below 1e-308, k' = pi k / l itself overflows, and the grid builds it without a warning line
    (("solve", "--half-length", "1e-300"), "--half-length", "ValueError"),
    *[((command, "--half-length", "5e-324"), "--half-length", "ValueError") for command in ("solve", "sweep")],
], ids=["solve-cs", "oracle-cs", "solve-delta", "sweep-delta", "oracle-delta", "dispersion-delta", "solve-half-length",
        "solve-half-length-subnormal", "sweep-half-length-subnormal"])
def test_an_overflowing_setting_exits_1_naming_it(tmp_path, capsys, argv, value, error):
    out = tmp_path / "o.csv"
    code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
    assert code == 1
    record = one_line_error(err)
    assert record["error"] == error
    assert value in record["message"] and "overflows" in record["message"]
    assert stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("argv, speed", [
    (("oracle", "--cs", "30"), "speed 30:"),
    (("solve", "--cs", "30"), "speed 30:"),
    (("solve", "--cs", "1e8"), "speed 1e+08:"),
    (("oracle", "--cs", "5", "--x-max", "2"), "speed 5:"),
], ids=["oracle-30", "solve-30", "solve-1e8", "oracle-5"])
def test_a_turning_point_at_the_pole_exits_1(tmp_path, capsys, argv, speed):
    # U keeps its sign up to 1 - 1e-15 of the pole: the turning-point search stops there, before U's log1p(-1).
    # At --cs 5, v* lies 1.4e-10 |v_pole| below the pole, and U's round-off makes -2U < 0 on the orbit.
    out = tmp_path / "o.csv"
    code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
    assert code == 1
    record = one_line_error(err)
    assert record["error"] == "PoleProximityError"
    assert speed in record["message"] and "v_pole" in record["message"]
    assert stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_a_non_finite_tolerance_exits_1(tmp_path, capsys, source):
    cfg = tmp_path / "c.json"
    # JSON has no infinity; a number beyond the double range reads as one
    cfg.write_text('{"solver": {"tol_residual": 1e999}}', encoding="utf-8")
    setting = ("--tol", "inf") if source == "flag" else ("--config", str(cfg))
    out = tmp_path / "w.csv"
    code, stdout, err = run_cli(capsys, "solve", *setting, "--out", str(out))
    assert code == 1
    assert one_line_error(err) == {"error": "ValueError", "message": "tolerance must be finite, got inf"}
    assert stdout == ""
    assert not out.exists()


def test_domain_warning_is_one_json_line_on_stderr(tmp_path):
    done = run_module("-m", "tlwaves.cli", "solve", "--half-length", "16", "--out", "w.csv", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    record = json.loads(done.stderr)
    assert done.stderr == json.dumps(record) + "\n"
    assert set(record) == {"warning", "message"}
    assert record["warning"] == "DomainTooSmallWarning" and "half-length 16.0" in record["message"]


def test_a_sweep_keeps_nothing_of_the_warnings_it_shows(tmp_path, capsys):
    # each speed that warns prints its one line, and no warnings registry keeps its message once main returns:
    # what stays allocated from solver.py, where the message is made, does not grow with the speeds that warned
    import tracemalloc

    kept = {}
    for count in (4, 36):
        argv = ["sweep", "--half-length", "16", "--modes", "128", "--count", str(count),
                "--out", str(tmp_path / "s.csv")]
        assert main(argv) == 0  # imports and first-use allocations
        tracemalloc.start()
        try:
            assert main(argv) == 0
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err.splitlines()
        assert [json.loads(line)["warning"] for line in err] == ["DomainTooSmallWarning"] * 2 * count
        made_in_solver = snapshot.filter_traces([tracemalloc.Filter(True, solver.__file__)])
        kept[count] = sum(trace.size for trace in made_in_solver.traces)
    assert kept[36] - kept[4] < 32 * 32, kept


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


@pytest.mark.parametrize("flag, value", [("--k-max", "inf"), ("--k-min", "nan")])
def test_dispersion_rejects_a_non_finite_wavenumber(tmp_path, capsys, flag, value):
    out = tmp_path / "d.csv"
    code, stdout, err = run_cli(capsys, "dispersion", flag, value, "--out", str(out))
    assert code == 1
    record = one_line_error(err)
    assert record["error"] == "ValueError" and flag in record["message"]
    assert stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--offset-max", "inf"), ("--offset-min", "nan")])
def test_sweep_rejects_a_non_finite_offset(tmp_path, capsys, flag, value):
    out = tmp_path / "w.csv"
    code, stdout, err = run_cli(capsys, "sweep", "--half-length", "64", "--modes", "512", "--count", "4",
                                flag, value, "--out", str(out))
    assert code == 1
    record = one_line_error(err)
    assert record["error"] == "ValueError" and flag in record["message"]
    assert stdout == ""
    assert not out.exists()


def test_cli_solve_and_oracle_load_no_numpy_polynomial(tmp_path):
    # the oracle's Gauss-Legendre rule is literal, so no process pays for importing numpy.polynomial
    code = ("import sys; from tlwaves.cli import main; "
            "main(['solve', '--half-length', '64', '--modes', '512', '--out', 's.csv']); "
            "main(['oracle', '--x-max', '20', '--out', 'o.csv']); "
            "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))")
    done = run_module("-c", code, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "[]"


@pytest.mark.parametrize("gamma, delta", [(0.5, 0.8), (0.5, 0.5)], ids=["elevation", "depression"])
@pytest.mark.parametrize("offset", [0.01, 0.3])
def test_sweep_ends_use_the_oracle_seed(gamma, delta, offset):
    # at the sweep's spacing h = 0.25 with MPE(6), as the large sweep runs; the tall waves take the most
    grid = SpectralGrid(half_length=128.0, n=1024)
    params = make_parameters(gamma, delta)
    config = solver.SolverConfig(speed=params.c_crit + offset, mpe_cycle=6)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DomainTooSmallWarning)  # the widest wave reaches 5.6e-10 at l=128
        _, report = solver.solve(grid, params, config)
    assert report.seed == "oracle"
    assert report.converged and report.iterations <= 12


def test_solve_near_the_pole_falls_back_to_the_sech2_seed(tmp_path, capsys):
    # v* lies 4.4e-8 |v_pole| below the pole, where U's round-off makes -2U < 0 on the orbit: the oracle raises
    # PoleProximityError, and the sech^2-seeded solve converges
    params = make_parameters(0.95, 0.8)
    out = tmp_path / "pole.csv"
    code, _, err = run_cli(capsys, "solve", "--gamma", "0.95", "--delta", "0.8", "--cs", repr(params.c_crit + 1.0),
                           "--out", str(out))
    assert code == 0, err
    assert "RuntimeWarning" not in err  # the oracle's energy check or its PoleProximityError fails quietly
    meta, _ = read_table(out)
    assert meta["report"]["seed"] == "sech2"
    assert meta["report"]["converged"] is True


@pytest.mark.parametrize("gamma, delta", [(0.64, 0.8), (0.49, 0.7), (0.16, 0.4), (0.04, 0.2), (0.01, 0.1)])
@pytest.mark.parametrize("command", ["solve", "sweep", "oracle"])
def test_a_nonlinearity_that_is_only_rounding_is_refused_by_name(tmp_path, capsys, command, gamma, delta):
    # delta * delta misses gamma by the rounding of the product alone (0.8 * 0.8 is 0.64 + 1.1e-16): K is 0, and
    # no solitary wave exists
    out = tmp_path / "o.csv"
    code, stdout, err = run_cli(capsys, command, "--gamma", repr(gamma), "--delta", repr(delta), "--out", str(out))
    assert code == 1
    assert one_line_error(err) == {"error": "NoSolitaryWaveError",
                                   "message": "nonlinearity coefficient is zero (delta^2 == gamma)"}
    assert stdout == ""
    assert not out.exists()


def test_dispersion_runs_where_the_nonlinearity_vanishes(tmp_path, capsys):
    out = tmp_path / "d.csv"
    code, _, err = run_cli(capsys, "dispersion", "--gamma", "0.64", "--delta", "0.8", "--out", str(out))
    assert code == 0, err
    assert out.is_file()


@pytest.mark.parametrize("argv", [
    ("solve", "--half-length", "1e300", "--modes", "64"),
    ("solve", "--modes", "10"),
    ("sweep", "--modes", "10"),
], ids=["solve-wide", "solve-few-modes", "sweep-few-modes"])
def test_a_grid_coarser_than_the_wave_exits_1_naming_both_flags(tmp_path, capsys, argv):
    # node spacing 3.1e298 and 25.6 against the decay length 1/lambda of 1.8 (and 3.8 at the sweep's first speed)
    out = tmp_path / "o.csv"
    code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
    assert code == 1
    record = one_line_error(err)
    assert record["error"] == "ValueError"
    assert "decay length 1/lambda" in record["message"]
    assert "--half-length" in record["message"] and "--modes" in record["message"]
    assert stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("argv, error, message", [
    (("--cs", "0.1"), "NoSolitaryWaveError", "speed 0.1 is not supersonic: c_s^2 <= c_crit^2"),
    (("--gamma", "0.25", "--delta", "0.5"), "NoSolitaryWaveError", "nonlinearity coefficient is zero"),
], ids=["subsonic", "zero-K"])
def test_solve_keeps_the_solver_errors(tmp_path, capsys, argv, error, message):
    code, _, err = run_cli(capsys, "solve", *argv, "--half-length", "64", "--modes", "512",
                           "--out", str(tmp_path / "x.csv"))
    assert code == 1
    payload = one_line_error(err)
    assert payload["error"] == error
    assert payload["message"].startswith(message)


def test_a_left_moving_solve_writes_the_mirror_image_of_the_right_moving_one(tmp_path, capsys):
    speed = make_parameters(0.5, 0.8).c_crit + 0.05
    written = {}
    for cs in (speed, -speed):
        out, spectrum = tmp_path / f"wave{cs!r}.csv", tmp_path / f"spectrum{cs!r}.csv"
        code, _, _ = run_cli(capsys, "solve", f"--cs={cs!r}", "--half-length", "64", "--modes", "512",
                             "--out", str(out), "--spectrum-out", str(spectrum))
        assert code == 0
        written[cs] = read_table(out)[1], read_table(spectrum)[1]
    (right, right_spectrum), (left, left_spectrum) = written[speed], written[-speed]
    # values, not tokens: an exact zero of irfft prints as 0 on both sides
    assert np.array_equal(left["x"], right["x"]) and np.array_equal(left["zeta"], right["zeta"])
    assert np.array_equal(left["v"], -right["v"]) and np.array_equal(left["u"], -right["u"])
    assert list(left_spectrum) == list(right_spectrum)
    assert all(np.array_equal(left_spectrum[name], right_spectrum[name]) for name in right_spectrum)
    # the oracle's left-moving wave, sampled at the node spacing from x = 0
    profile = tmp_path / "oracle.csv"
    assert run_cli(capsys, "oracle", f"--cs={-speed!r}", "--x-max", "64", "--dx", "0.25", "--out", str(profile))[0] == 0
    oracle_v = read_table(profile)[1]["v"]
    right_half = left["x"] >= 0.0
    assert np.max(np.abs(left["v"][right_half] - oracle_v[:np.count_nonzero(right_half)])) <= 1e-9


def test_a_left_moving_sweep_fits_its_crests_against_the_speed_size(tmp_path, capsys):
    # the speeds c_crit - 1.54 ... c_crit - 1.3 are -0.92 ... -0.68, supersonic to the left
    out = tmp_path / "sweep.csv"
    code, stdout, err = run_cli(capsys, "sweep", "--half-length", "64", "--modes", "512",
                                "--offset-min", "-1.54", "--offset-max", "-1.3", "--count", "5", "--out", str(out))
    assert code == 0 and err == ""
    _, cols = read_table(out)
    assert np.all(cols["cs"] < 0.0) and np.all(cols["v_max"] < 0.0) and np.all(cols["u_max"] < 0.0)
    assert np.all(np.diff(cols["zeta_max"]) < 0.0)  # the crest grows with |c_s|
    params, grid = make_parameters(0.5, 0.8), SpectralGrid(half_length=64.0, n=512)
    right, _ = solver.solve(grid, params, solver.SolverConfig(speed=-cols["cs"][0]))
    assert cols["zeta_max"][0] == analysis.amplitude(right)[0] and cols["v_max"][0] == -analysis.amplitude(right)[1]
    fit = json.loads(out.with_suffix(".fit.json").read_text())["fit"]
    assert fit["r_squared"] > 0.9999
    assert fit["window"] == [float(-cols["cs"][-1]), float(-cols["cs"][0])]


def test_a_sweep_of_fewer_than_4_distinct_speeds_exits_1_before_it_solves(tmp_path, capsys, monkeypatch):
    # three parameters fit the amplitudes at any 3 distinct speeds exactly: the fit would be made up
    def swept(*args, **kwargs):
        raise AssertionError("sweep solved speeds it cannot fit")

    monkeypatch.setattr(analysis, "speed_sweep", swept)
    out = tmp_path / "sweep.csv"
    code, stdout, err = run_cli(capsys, "sweep", "--modes", "256", "--half-length", "32", "--offset-min", "0.1",
                                "--offset-max", "0.1", "--count", "4", "--out", str(out))
    assert code == 1
    assert one_line_error(err) == {"error": "InsufficientDataError",
                                   "message": "sweep needs at least 4 speeds for the power fit"}
    assert stdout == "" and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (("--cs", "0.1"), "speed 0.1 is not supersonic: c_s^2 <= c_crit^2"),
    (("--gamma", "0.25", "--delta", "0.5"), "nonlinearity coefficient is zero"),
    (("--cs", "0"), "speed 0.0 is not supersonic: c_s^2 <= c_crit^2"),
], ids=["subsonic", "zero-K", "zero-speed"])
def test_oracle_reports_the_solver_existence_errors(tmp_path, capsys, argv, message):
    out = tmp_path / "o.csv"
    code, _, err = run_cli(capsys, "oracle", *argv, "--x-max", "20", "--out", str(out))
    assert code == 1
    payload = one_line_error(err)
    assert payload["error"] == "NoSolitaryWaveError"
    assert payload["message"].startswith(message)
    assert not out.exists()


def test_an_oracle_whose_turning_point_is_not_bracketed_exits_1(tmp_path, capsys):
    # at delta 1e-300 the potential underflows to 0 at the bracket's near end, so no sign change is found
    out = tmp_path / "o.csv"
    code, stdout, err = run_cli(capsys, "oracle", "--delta", "1e-300", "--out", str(out))
    assert code == 1
    record = one_line_error(err)
    assert record["error"] == "WaveError" and record["message"].startswith("turning-point bracket failed")
    assert stdout == ""
    assert not out.exists()


def test_default_study_equals_reproduce_fig3c(tmp_path, capsys):
    # the study of reproduce's run configuration, solved without its memo, gives the same bits
    argv = ["reproduce", "fig3c", "--half-length", "64", "--modes", "512"]
    code, _, _ = run_cli(capsys, *argv, "--out-dir", str(tmp_path))
    assert code == 0
    _, cols = read_table(tmp_path / "fig3c_amplitude_vs_k.csv")
    _, grid, config, _ = runconfig.build_run(cli.parse_args(argv))
    columns, skipped = analysis.amplitude_vs_k_study(0.5, _FIG3C_DELTAS, 0.05, grid, config, solver.solve)
    assert skipped == []
    assert list(columns) == list(cols) == ["k_coeff", "zeta_max", "delta"]
    for name in cols:
        assert columns[name].tobytes() == cols[name].tobytes()


# a value other than the default for each setting of the table; a number may be a JSON integer
SETTING_SAMPLES = {
    ("params", "gamma"): 0.45,
    ("params", "delta"): 0.85,
    ("grid", "half_length"): 72,
    ("grid", "modes"): 256,
    ("solver", "cs"): 0.7,
    ("solver", "tol_residual"): 1e-9,
    ("solver", "max_iter"): 300,
    ("solver", "extrapolation"): "mpe:4",
    ("solver", "dealias"): True,
    ("solver", "strict"): True,
}
# the settings each command reads, and the flags every run of it takes (a small grid keeps solve quick)
COMMAND_READS = {
    "solve": (set(SETTING_SAMPLES), ("--half-length", "64", "--modes", "512")),
    "sweep": (set(SETTING_SAMPLES) - {("solver", "cs")},
              ("--half-length", "64", "--modes", "512", "--offset-min", "0.05", "--offset-max", "0.3", "--count", "4")),
    "oracle": ({("params", "gamma"), ("params", "delta"), ("solver", "cs")}, ("--x-max", "20")),
    "dispersion": ({("params", "gamma"), ("params", "delta")}, ("--count", "11")),
}


def _header_config(capsys, tmp_path, name, command, *argv):
    out = tmp_path / f"{name}.csv"
    code, _, err = run_cli(capsys, command, *argv, "--out", str(out))
    assert code == 0, err
    return read_table(out)[0]["config"]


@pytest.mark.parametrize("setting", [(block, key) for block in cli._SETTINGS for key in cli._SETTINGS[block]],
                         ids=lambda setting: ".".join(setting))
@pytest.mark.parametrize("command", list(COMMAND_READS))
def test_settings_table_flag_and_config_file_agree(tmp_path, capsys, command, setting):
    reads, common = COMMAND_READS[command]
    block, key = setting
    flag, kind, _, _ = cli._SETTINGS[block][key]
    value = SETTING_SAMPLES[setting]
    by_flag = (flag,) if kind is bool else (flag, str(value))
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({block: {key: value}}), encoding="utf-8")
    if setting not in reads:
        code, _, err = run_cli(capsys, command, *common, "--config", str(cfg), "--out", str(tmp_path / "x.csv"))
        assert code == 1 and one_line_error(err)["error"] == "InputFormatError"
        code, _, err = run_cli(capsys, command, *common, *by_flag, "--out", str(tmp_path / "x.csv"))
        assert code == 1 and one_line_error(err)["error"] == "InputFormatError"
        return
    # the setting under test replaces its own flag among the common ones
    base = [arg for pair in zip(common[::2], common[1::2]) if pair[0] != flag for arg in pair]
    from_flag = _header_config(capsys, tmp_path, "flag", command, *base, *by_flag)
    from_file = _header_config(capsys, tmp_path, "file", command, *base, "--config", str(cfg))
    assert json.dumps(from_flag, sort_keys=True) == json.dumps(from_file, sort_keys=True)
    assert from_flag[block][key] == value
    own_block = set(from_flag) - {name for name, _ in reads}
    assert {(name, k) for name in from_flag if name not in own_block for k in from_flag[name]} == reads
    assert own_block == (set() if command == "solve" else {command})


@pytest.mark.parametrize("argv, named", [
    (("solve", "--bogus", "1", "--out", "w.csv"), "unrecognized arguments: --bogus 1"),
    (("sweep", "--cs", "0.7", "--out", "s.csv"), "unrecognized arguments: --cs 0.7"),
    (("solve", "--modes", "many", "--out", "w.csv"), "argument --modes: invalid int value: 'many'"),
    (("solve", "--cs"), "argument --cs: expected one argument"),
    (("oracle", "--x-max", "10"), "the following arguments are required: --out"),
    (("reproduce", "fig9"), "argument target: invalid choice: 'fig9'"),
    ((), "the following arguments are required: command"),
    (("dispersion", "--count", "2.5", "--out", "d.csv"), "argument --count: invalid int value: '2.5'"),
    (("analyze", "fit", "--in", "w.csv", "--out", "a.csv"), "argument mode: invalid choice: 'fit'"),
    (("analyze", "decay", "--in", "w.csv", "--out", "a.csv", "--window", "1"), "argument --window: expected 2"),
    (("reproduce", "all", "--config", "c.json"), "unrecognized arguments: --config c.json"),
    (("bogus", "--out", "w.csv"), "argument command: invalid choice: 'bogus'"),
    (("--out", "w.csv", "solve"), "argument command: invalid choice: 'w.csv'"),
], ids=["unknown-flag", "flag-the-command-does-not-take", "ill-typed", "missing-value", "missing-out",
        "bad-choice", "no-command", "ill-typed-count", "bad-mode", "short-window", "reproduce-takes-no-config",
        "unknown-command", "flag-before-the-command"])
def test_a_usage_error_exits_1_with_one_json_line(tmp_path, capsys, argv, named):
    # main parses with the named command's parser alone; its message is that of the parser of every command
    with pytest.raises(InputFormatError) as full:
        cli.build_parser().parse_args(argv)
    code, stdout, err = run_cli(capsys, *argv)
    assert code == 1
    record = one_line_error(err)
    assert record == {"error": "InputFormatError", "message": str(full.value)} and named in record["message"]
    assert stdout == ""


@pytest.mark.parametrize("value, error", [("-1e300", "ParameterDomainError"), ("-1e-3", "NoSolitaryWaveError"),
                                          ("-3E+1", "PoleProximityError")])
def test_a_negative_value_in_exponent_form_is_read_as_the_value_of_its_flag(tmp_path, capsys, value, error):
    code, _, err = run_cli(capsys, "oracle", "--cs", value, "--out", str(tmp_path / "o.csv"))
    assert code == 1
    record = one_line_error(err)
    assert record["error"] == error and f"speed {float(value):g}" in record["message"]


_NON_FINITE_SPEEDS = ("--cs=inf", "--cs=nan", "--cs=-inf", "config")


@pytest.mark.parametrize("command, setting", [*(("solve", setting) for setting in _NON_FINITE_SPEEDS),
                                              *(("oracle", setting) for setting in _NON_FINITE_SPEEDS)],
                         ids=[*_NON_FINITE_SPEEDS,
                              "oracle--cs=inf", "oracle--cs=nan", "oracle--cs=-inf", "oracle-config"])
def test_a_non_finite_speed_exits_1_naming_the_speed(tmp_path, capsys, command, setting):
    # Python's JSON reader takes Infinity; the solve names the speed, not the grid its symbols overflow on, and
    # the oracle refuses it with the same check
    cfg = tmp_path / "c.json"
    cfg.write_text('{"solver": {"cs": Infinity}}', encoding="utf-8")
    out = tmp_path / "w.csv"
    code, stdout, err = run_cli(capsys, command, *(("--config", str(cfg)) if setting == "config" else (setting,)),
                                "--out", str(out))
    assert code == 1
    record = one_line_error(err)
    assert record["error"] == "ParameterDomainError" and record["message"].startswith("speed ")
    assert "not finite" in record["message"]
    assert "--half-length" not in record["message"] and "--modes" not in record["message"]
    assert stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("solve", "--cs", "-nan"), ("solve", "--cs", "-Infinity"), ("sweep", "--offset-min", "-inf"),
    ("oracle", "--cs", "-inf"), ("oracle", "--cs", "-NaN"), ("dispersion", "--k-min", "-INF"),
], ids="_".join)
def test_a_negative_non_finite_value_is_read_as_the_value_of_its_flag(tmp_path, capsys, argv):
    command, flag, value = argv
    out = str(tmp_path / "o.csv")
    code, _, err = run_cli(capsys, command, flag, value, "--out", out)
    spelled_code, _, spelled_err = run_cli(capsys, command, f"{flag}={value}", "--out", out)
    assert (code, err) == (spelled_code, spelled_err)
    assert code == 1 and one_line_error(err)["error"] != "InputFormatError"


def test_help_still_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exited:
        main(["solve", "--help"])
    assert exited.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: tlwaves solve") and captured.err == ""


# the modules every process of the command line loads; each command adds only the modules it runs
CLI_CORE = {"tlwaves", "tlwaves.cli", "tlwaves.errors", "tlwaves.params"}
# each command's own module and the numerical modules it runs, besides the commands package, its output files
# (commands.tables) and, for a command with settings, its run (commands.runconfig)
COMMAND_MODULES = {
    "oracle": (("oracle", "--x-max", "20", "--out", "o.csv"),
               {"commands", "commands.oracle", "commands.runconfig", "commands.tables", "oracle"}),
    "dispersion": (("dispersion", "--count", "11", "--out", "d.csv"),
                   {"commands", "commands.dispersion", "commands.runconfig", "commands.tables", "dispersion", "grid"}),
    "analyze-spectrum": (("analyze", "spectrum", "--in", "wave.csv", "--out", "a.csv"),
                         {"commands", "commands.analyze", "commands.tables", "analysis", "grid"}),
    "analyze-phase": (("analyze", "phase", "--in", "wave.csv", "--out", "p.csv"),
                      {"commands", "commands.analyze", "commands.tables", "analysis", "grid"}),
    "solve": (("solve", "--half-length", "64", "--modes", "512", "--out", "s.csv"),
              {"commands", "commands.solve", "commands.runconfig", "commands.tables", "solver", "oracle",
               "extrapolation", "grid"}),
    "sweep": (("sweep", "--half-length", "64", "--modes", "512", "--count", "4", "--out", "sw.csv"),
              {"commands", "commands.sweep", "commands.runconfig", "commands.tables", "solver", "oracle",
               "extrapolation", "grid", "analysis"}),
    "reproduce": (("reproduce", "fig4", "--half-length", "64", "--modes", "512", "--out-dir", "r"),
                  {"commands", "commands.reproduce", "commands.runconfig", "commands.tables", "solver", "oracle",
                   "extrapolation", "grid", "analysis"}),
}


def _tlwaves_modules(tmp_path, statement):
    """The tlwaves modules in sys.modules of a fresh interpreter after ``statement``."""
    code = (f"import json, sys; {statement}; "
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'tlwaves')))")
    done = run_module("-c", code, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.strip().splitlines()[-1]))


def _cold_command(tmp_path, *argv):
    """A cold ``python -X importtime -m tlwaves.cli`` process: its exit code, the modules it imported in order, and
    the lines of its stderr that are not import times."""
    done = run_module("-X", "importtime", "-m", "tlwaves.cli", *argv, cwd=tmp_path)
    lines = done.stderr.splitlines()
    imported = [line.rsplit("|", 1)[1].strip() for line in lines[1:] if line.startswith("import time:")]
    return done.returncode, imported, [line for line in lines if not line.startswith("import time:")]


def test_cli_import_loads_only_the_core_modules(tmp_path):
    assert _tlwaves_modules(tmp_path, "import tlwaves.cli; assert 'numpy' not in sys.modules") == CLI_CORE


@pytest.mark.parametrize("command", list(COMMAND_MODULES))
def test_each_command_loads_only_the_modules_it_runs(tmp_path, command):
    argv, modules = COMMAND_MODULES[command]
    # a periodic profile on l = 32, N = 256 for analyze, written here so no solve runs in the process
    x = SpectralGrid(half_length=32.0, n=256).nodes
    zeta = 1.0 / np.cosh(x / 4.0) ** 2
    write_table(tmp_path / "wave.csv", {}, {"x": x, "zeta": zeta, "v": 0.5 * zeta})
    statement = f"from tlwaves.cli import main; code = main({list(argv)!r}); assert code == 0, code"
    assert _tlwaves_modules(tmp_path, statement) == CLI_CORE | {f"tlwaves.{name}" for name in modules}
    # run as __main__, the entry is compiled once: no module the command loads imports tlwaves.cli
    code, imported, _ = _cold_command(tmp_path, *argv)
    assert code == 0
    tlwaves_modules = [name for name in imported if name.split(".")[0] == "tlwaves"]
    assert sorted(tlwaves_modules) == sorted(CLI_CORE - {"tlwaves.cli"} | {f"tlwaves.{name}" for name in modules})


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_help_and_a_usage_error_load_no_numpy(tmp_path, command):
    for argv, exit_code in (((command, "--help"), 0), ((command, "--bogus", "1"), 1)):
        code, imported, other = _cold_command(tmp_path, *argv)
        assert code == exit_code, other
        assert "tlwaves.params" in imported and not [name for name in imported if name.split(".")[0] == "numpy"]
        assert not [name for name in imported if name.startswith("tlwaves.commands")]
        if exit_code:
            assert len(other) == 1 and json.loads(other[0])["error"] == "InputFormatError", other


@pytest.mark.parametrize("command", [None, *cli._COMMANDS])
def test_the_help_of_a_command_is_that_of_the_parser_of_every_command(capsys, command):
    argv = ["--help"] if command is None else [command, "--help"]
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 0
    own = capsys.readouterr().out
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(argv)
    assert own == capsys.readouterr().out
    assert own.startswith("usage: tlwaves" + ("" if command is None else f" {command}"))


def test_analysis_runs_its_study_and_portrait_without_the_solver(tmp_path):
    # the study solves through the caller's solve and configuration, and the portrait takes v itself
    statement = "\n".join([
        "import dataclasses, types, numpy as np",
        "from tlwaves import analysis",
        "from tlwaves.grid import SpectralGrid",
        "from tlwaves.params import make_parameters",
        "Config = dataclasses.make_dataclass('Config', ['speed'], frozen=True)",
        "def solve(grid, params, config):",
        "    wave = np.full(grid.n, config.speed)",
        "    return types.SimpleNamespace(zeta=wave, v=wave, u=wave), None",
        "grid = SpectralGrid(half_length=8.0, n=16)",
        "columns, _ = analysis.amplitude_vs_k_study(0.5, [0.8], 0.05, grid, Config(speed=0.0), solve)",
        "assert columns['zeta_max'].tolist() == [make_parameters(0.5, 0.8).c_crit + 0.05]",
        "assert analysis.phase_portrait(np.zeros(grid.n), grid)['v_prime'].shape == (grid.n,)",
    ])
    assert _tlwaves_modules(tmp_path, statement) == {
        "tlwaves", "tlwaves.analysis", "tlwaves.errors", "tlwaves.grid", "tlwaves.params"
    }
