"""Command-line front end and file formats.

Output files are CSV with a JSON metadata header carried in leading
comment lines (17-significant-digit floats, lossless for binary64), or a
single JSON document when the output path ends in ``.json``.  Headers
record the configuration and package versions but no timings, so repeated
runs with the same configuration produce byte-identical files; wall-clock
numbers go to the console log instead.

Exit codes: 0 success, 1 validation failure, 2 non-convergence.  Errors
and warnings are emitted as one-line JSON on stderr,
``{"error": <type>, "message": ...}`` and ``{"warning": <category>, "message": ...}``.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__, analysis, dispersion, oracle, solver
from .errors import InputFormatError, InsufficientDataError, NotConvergedError, WaveError
from .grid import SpectralGrid, forward_transform, spectrum_columns
from .params import make_parameters, params_to_config, wave_type
from .solver import SolverConfig

_ELEVATION_PAIR = (0.5, 0.8)
_DEPRESSION_PAIR = (0.5, 0.5)
_FIG2_OFFSETS = (0.02, 0.05, 0.10)
_FIG3C_DELTAS = (0.5, 0.55, 0.6, 0.65, 0.8, 0.9, 1.0, 1.1, 1.2)
_TARGETS = ("fig2a", "fig2b", "fig3a", "fig3b", "fig3c", "fig4", "fig5", "fig6", "table1")


# ----------------------------------------------------------------------
# file formats


def write_table(path: Path, meta: dict, columns: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    names = list(columns)
    arrays = [np.asarray(columns[name], dtype=float) for name in names]
    if path.suffix == ".json":
        payload = {"meta": meta, "columns": {n: [float(v) for v in a] for n, a in zip(names, arrays)}}
        path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")
        return
    header = "# " + json.dumps(meta, sort_keys=True) + "\n# columns: " + ",".join(names) + "\n"
    # the body in one formatting pass: '%.17g' % x equals format(x, '.17g') for every double
    table = np.column_stack(arrays)
    row = ",".join(["%.17g"] * len(names)) + "\n"
    path.write_text(header + row * len(table) % tuple(table.ravel().tolist()), encoding="utf-8")


def read_table(path: Path) -> tuple[dict, dict]:
    path = Path(path)
    if path.suffix == ".json":
        payload = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(payload, dict) or not isinstance(payload.get("columns"), dict):
            raise InputFormatError(f"{path} is not a table: expected a JSON object with a 'columns' object")
        meta = payload.get("meta", {})
        if not isinstance(meta, dict):
            raise InputFormatError(f"{path}: 'meta' must be a JSON object")
        return meta, {n: np.asarray(v, dtype=float) for n, v in payload["columns"].items()}
    meta: dict = {}
    names: list[str] = []
    rows: list[str] = []
    width = 0
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("{"):
                meta = json.loads(body)
            elif body.startswith("columns:"):
                names = [n.strip() for n in body[len("columns:"):].split(",")]
            continue
        count = line.count(",") + 1
        width = len(names) if names else (width or count)
        if count != width:
            raise InputFormatError(f"{path} line {number} holds {count} values where the table has {width} columns")
        rows.append(line)
    if not rows:
        raise InputFormatError(f"{path} holds no data rows")
    if names and len(names) != width:
        raise InputFormatError(f"{path} names {len(names)} columns but its rows hold {width} values")
    # every value in one conversion, bit-equal to float(token)
    data = np.array(",".join(rows).split(","), dtype=float).reshape(len(rows), width)
    if not names:
        names = [f"col{i}" for i in range(width)]
    return meta, {name: data[:, i] for i, name in enumerate(names)}


def write_json(path: Path, payload: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _meta(command: str, config: dict, extra: dict | None = None) -> dict:
    out = {
        "tool": "tlwaves",
        "version": __version__,
        "numpy": np.__version__,
        "command": command,
        "config": config,
    }
    if extra:
        out.update(extra)
    return out


# ----------------------------------------------------------------------
# configuration plumbing


# the keys each block of a --config file may hold, as _build_run reads them; oracle and
# dispersion read fewer, and their files and headers hold only those
_CONFIG_KEYS = {
    "params": ("gamma", "delta"),
    "grid": ("half_length", "modes"),
    "solver": ("cs", "tol_residual", "tol_update", "max_iter", "extrapolation", "dealias", "strict"),
}
_ORACLE_KEYS = {"params": _CONFIG_KEYS["params"], "solver": ("cs",)}
_DISPERSION_KEYS = {"params": _CONFIG_KEYS["params"]}


def _load_config_file(path: str | None, keys: dict) -> dict:
    if not path:
        return {}
    config = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(config, dict):
        raise InputFormatError(f"config file {path} must hold a JSON object with blocks {list(keys)}")
    for name, block in config.items():
        if name not in keys:
            raise InputFormatError(f"config file {path}: unknown block {name!r}; blocks are {list(keys)}")
        if not isinstance(block, dict):
            raise InputFormatError(f"config file {path}: block {name!r} must be a JSON object")
        unknown = sorted(set(block) - set(keys[name]))
        if unknown:
            raise InputFormatError(
                f"config file {path}: unknown key(s) {unknown} in block {name!r}; it takes {list(keys[name])}"
            )
    return config


def _merged(file_block: dict, **flags) -> dict:
    merged = dict(file_block)
    for key, value in flags.items():
        if value is not None:
            merged[key] = value
    return merged


def _parse_extrapolation(text: str | None) -> int | None:
    if text is None or text == "off":
        return None
    if text == "mpe":
        return 6
    if text.startswith("mpe:"):
        return int(text.split(":", 1)[1])
    raise ValueError(f"unknown extrapolation setting {text!r}; use off or mpe:K")


def _build_run(args, keys: dict = _CONFIG_KEYS) -> tuple:
    """Validate every block of the run configuration up front.

    ``keys`` names the blocks and keys the command reads: a config file may hold
    only those, and the returned description records only those.
    """
    filecfg = _load_config_file(getattr(args, "config", None), keys)
    pblock = _merged(filecfg.get("params", {}), gamma=args.gamma, delta=args.delta)
    gblock = _merged(
        filecfg.get("grid", {}),
        half_length=getattr(args, "half_length", None),
        modes=getattr(args, "modes", None),
    )
    sblock = _merged(
        filecfg.get("solver", {}),
        cs=getattr(args, "cs", None),
        tol_residual=getattr(args, "tol", None),
        tol_update=getattr(args, "tol_update", None),
        max_iter=getattr(args, "max_iter", None),
        extrapolation=getattr(args, "extrapolation", None),
        dealias=True if getattr(args, "dealias", False) else None,
        strict=True if getattr(args, "strict", False) else None,
    )
    params = make_parameters(pblock.get("gamma", 0.5), pblock.get("delta", 0.8))
    grid = SpectralGrid(half_length=float(gblock.get("half_length", 128.0)), n=int(gblock.get("modes", 1024)))
    speed = sblock.get("cs")
    if speed is None:
        speed = params.c_crit + 0.05
    config = SolverConfig(
        speed=float(speed),
        tol_residual=float(sblock.get("tol_residual", 1e-10)),
        tol_update=float(sblock.get("tol_update", sblock.get("tol_residual", 1e-10))),
        max_iter=int(sblock.get("max_iter", 500)),
        mpe_cycle=_parse_extrapolation(sblock.get("extrapolation")),
        dealias=bool(sblock.get("dealias", False)),
        strict_domain=bool(sblock.get("strict", False)),
    )
    described = {
        "params": params_to_config(params),
        "grid": {"half_length": grid.half_length, "modes": grid.n},
        "solver": {
            "cs": config.speed,
            "tol_residual": config.tol_residual,
            "tol_update": config.tol_update,
            "max_iter": config.max_iter,
            "extrapolation": "off" if config.mpe_cycle is None else f"mpe:{config.mpe_cycle}",
            "dealias": config.dealias,
            "strict": config.strict_domain,
        },
    }
    return params, grid, config, {name: {key: described[name][key] for key in keys[name]} for name in keys}


# ----------------------------------------------------------------------
# subcommands


def cmd_solve(args) -> int:
    params, grid, config, described = _build_run(args)
    state, report = solver.solve(grid, params, config)
    meta = _meta("solve", described, {"report": report.to_dict()})
    write_table(Path(args.out), meta, {"x": grid.nodes, "zeta": state.zeta, "v": state.v, "u": state.u})
    if args.spectrum_out:
        spec_cols = spectrum_columns(grid, forward_transform(grid, state.zeta))
        write_table(Path(args.spectrum_out), _meta("solve-spectrum", described), spec_cols)
    print(
        f"solve: {wave_type(params).value} wave at cs={config.speed:.6g}, "
        f"{report.iterations} iterations, residual {report.residual_history[-1]:.3e}, "
        f"{report.wall_time:.2f} s -> {args.out}"
    )
    return 0


def _sweep(solve, grid: SpectralGrid, params, config: SolverConfig, offsets: np.ndarray) -> dict:
    """The cs, zeta_max, v_max and u_max columns of one solve at each speed c_crit + offset."""
    speeds = params.c_crit + offsets

    def solve_one(speed: float):
        state, _ = solve(grid, params, dataclasses.replace(config, speed=float(speed)))
        return analysis.amplitude(state)

    amps = np.array([solve_one(speed) for speed in speeds])
    return {"cs": speeds, "zeta_max": amps[:, 0], "v_max": amps[:, 1], "u_max": amps[:, 2]}


def _speed_fit(columns: dict) -> analysis.FitResult:
    """The power law of |zeta_max| against cs over the columns of a sweep."""
    return analysis.fit_speed_amplitude(list(zip(columns["cs"], np.abs(columns["zeta_max"]))))


def cmd_sweep(args) -> int:
    params, grid, config, described = _build_run(args)
    if args.count < 4:
        raise InsufficientDataError("sweep needs at least 4 speeds for the power fit")
    columns = _sweep(solver.solve, grid, params, config, np.linspace(args.offset_min, args.offset_max, args.count))

    described["sweep"] = {"offset_min": args.offset_min, "offset_max": args.offset_max, "count": args.count}
    meta = _meta("sweep", described)
    out = Path(args.out)
    write_table(out, meta, columns)

    fit = _speed_fit(columns)
    fit_path = out.with_suffix(".fit.json")
    write_json(fit_path, {"meta": meta, "fit": fit.to_dict()})
    print(f"sweep: {args.count} speeds -> {out} (fit R^2 = {fit.r_squared:.6f} -> {fit_path})")
    return 0


def cmd_oracle(args) -> int:
    params, _, config, described = _build_run(args, _ORACLE_KEYS)
    if not 0.0 < args.dx < np.inf:
        raise ValueError(f"--dx must be positive and finite, got {args.dx}")
    problem = oracle.TravelingWaveProblem(params=params, speed=config.speed)
    curve = oracle.potential(problem)
    profile = oracle.integrate_profile(curve, x_max=args.x_max, step=args.step)
    xs = np.arange(0.0, args.x_max + 0.5 * args.dx, args.dx)
    v = profile.sample_v(xs)
    vp = profile.sample_v_prime(xs)
    zeta = oracle.reconstruct_zeta(curve, v)
    u = oracle.reconstruct_u(curve, v)
    described["oracle"] = {"x_max": args.x_max, "step": args.step, "dx": args.dx}
    meta = _meta(
        "oracle",
        described,
        {"turning_point": curve.turning_point, "saddle_rate": curve.saddle_rate, "energy_max": profile.energy_max},
    )
    write_table(Path(args.out), meta, {"x": xs, "v": v, "v_prime": vp, "zeta": zeta, "u": u})
    print(
        f"oracle: turning point {curve.turning_point:.12g}, energy drift {profile.energy_max:.2e} -> {args.out}"
    )
    return 0


def cmd_dispersion(args) -> int:
    if args.count < 1:
        raise ValueError(f"--count must be >= 1, got {args.count}")
    params, _, _, described = _build_run(args, _DISPERSION_KEYS)
    symbols = dispersion.DispersionSymbols(params)
    ks = np.linspace(args.k_min, args.k_max, args.count)
    described["dispersion"] = {"k_min": args.k_min, "k_max": args.k_max, "count": args.count}
    meta = _meta("dispersion", described)
    write_table(Path(args.out), meta, {"k": ks, "omega": symbols.omega(ks), "sigma": symbols.sigma(ks)})
    print(f"dispersion: {args.count} wavenumbers -> {args.out}")
    return 0


def _grid_from_profile(x: np.ndarray) -> SpectralGrid:
    """Rebuild the periodic grid a solver profile was written on."""
    spacing = float(x[1] - x[0])
    half = spacing * x.size / 2.0
    if x.size % 2 or abs(float(x[0]) + half) > 1e-9 * max(1.0, half):
        raise WaveError("input is not a periodic solver profile (expected nodes -l + j*h)")
    if float(np.max(np.abs(np.diff(x) - spacing))) > 1e-9 * spacing:
        raise WaveError("input grid is not uniformly spaced")
    return SpectralGrid(half_length=half, n=x.size)


def _profile_values(cols: dict, source, name: str | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The x column and a value column: ``name``, or zeta, or else the first column after x."""
    if name is None:
        others = [column for column in cols if column != "x"]
        name = "zeta" if "zeta" in cols or not others else others[0]
    missing = [column for column in ("x", name) if column not in cols]
    if missing:
        raise InputFormatError(f"{source} has no column {missing[0]!r}; its columns are {list(cols)}")
    return cols["x"], cols[name]


def _decay_fit(mode: str, x: np.ndarray, values: np.ndarray, window=None, half_length=None, grid=None):
    """The decay law fitted to ``values`` in space (mode "decay") or to their half spectrum.

    In space the abscissae are the nodes x > 0, and the default window ends at most at
    0.8 ``half_length``; the spectrum is taken on ``grid``, else on the periodic grid of
    the nodes x.  Returns the windowed abscissae, values and fitted curve, and the fit.
    """
    if mode == "decay":
        t, values = x[x > 0.0], values[x > 0.0]
        window = window or analysis.default_space_window(t, values, half_length)
        fit = analysis.fit_decay_space(t, values, window)
    else:
        t, values = analysis.spectrum_magnitudes(grid or _grid_from_profile(x), values)
        window = window or analysis.default_spectrum_window(t, values)
        fit = analysis.fit_decay_spectrum(t, values, window)
    mask = (t >= window[0]) & (t <= window[1])
    t, values = t[mask], values[mask]
    return t, values, analysis.power_exponential(t, **fit.coefficients, sign=np.sign(values[0])), fit


def cmd_analyze(args) -> int:
    meta_in, cols = read_table(Path(args.infile))
    out = Path(args.out)

    if args.mode == "phase":
        x, v = _profile_values(cols, args.infile, "v")
        grid = _grid_from_profile(x)
        pairs = analysis.phase_portrait(
            solver.WaveState(grid=grid, zeta=cols.get("zeta", v), v=v, u=cols.get("u", v)), grid
        )
        meta = _meta("analyze-phase", {"input": str(args.infile), "source": meta_in.get("config", {})})
        write_table(out, meta, {"v": pairs[:, 0], "v_prime": pairs[:, 1]})
        print(f"analyze phase: {grid.n} samples -> {out}")
        return 0

    x, y = _profile_values(cols, args.infile)
    window = tuple(args.window) if args.window else None
    half_length = None
    if args.mode == "decay" and window is None:
        # the default space window ends at 0.8 l of the source grid, else at 0.8 max(x)
        config = meta_in.get("config", {})
        grid = config.get("grid", {}) if isinstance(config, dict) else None
        half_length = grid.get("half_length", np.max(x)) if isinstance(grid, dict) else None
        if isinstance(half_length, bool) or not isinstance(half_length, (int, float)):
            raise InputFormatError(
                f"{args.infile} header: config.grid must be a JSON object and its half_length a number"
            )
        half_length = float(half_length)
    t, values, fitted, fit = _decay_fit(args.mode, x, y, window, half_length)
    label = f"analyze-{args.mode}"
    meta = _meta(label, {"input": str(args.infile), "window": list(fit.window), "source": meta_in.get("config", {})})
    write_table(out, meta, {"x" if args.mode == "decay" else "k": t, "value": values, "fitted": fitted})
    write_json(out.with_suffix(".fit.json"), {"meta": meta, "fit": fit.to_dict()})
    print(f"{label}: c = {fit.coefficients['c']:.6g}, R^2 = {fit.r_squared:.8f} -> {out}")
    return 0


# ----------------------------------------------------------------------
# reproduction targets


def cmd_reproduce(args) -> int:
    outdir = Path(args.out_dir)
    targets = _TARGETS if args.target == "all" else (args.target,)
    grid = SpectralGrid(half_length=args.half_length, n=args.modes)
    # the speed is set per wave; building the config here rejects a bad tolerance before any file is written
    config = SolverConfig(speed=0.0, tol_residual=args.tol, tol_update=args.tol)
    # each distinct (grid, params, config) is solved once per command: fig2a, fig3c, fig4 and
    # fig5/fig6/table1 share the elevation wave at offset 0.05, fig2b, fig3c and fig4 the
    # depression wave there, and fig3a and fig3b the sweep.  Callers only read the cached states.
    solve = functools.cache(solver.solve)

    def wave(pair, offset):
        params = make_parameters(*pair)
        wave_config = dataclasses.replace(config, speed=params.c_crit + offset)
        return (params, wave_config, *solve(grid, params, wave_config))

    def save(name, write, *data):
        path = outdir / name
        write(path, *data)
        print(f"reproduce: wrote {path}")

    def profiles(target, pair):
        for offset in _FIG2_OFFSETS:
            params, wave_config, state, report = wave(pair, offset)
            described = {
                "params": params_to_config(params),
                "grid": {"half_length": grid.half_length, "modes": grid.n},
                "solver": {"cs": wave_config.speed},
            }
            meta = _meta(f"reproduce-{target}", described, {"report": report.to_dict()})
            save(f"{target}_offset{offset:g}.csv", write_table, meta,
                 {"x": grid.nodes, "zeta": state.zeta, "v": state.v, "u": state.u})

    def sweep():
        params = make_parameters(*_ELEVATION_PAIR)
        return params, _sweep(solve, grid, params, config, np.linspace(0.01, 0.3, 10))

    def elevation():
        """The elevation wave at offset 0.05, whose decay fig5, fig6 and table1 describe, and its description."""
        params, wave_config, state, _ = wave(_ELEVATION_PAIR, 0.05)
        return state, {"params": params_to_config(params), "cs": wave_config.speed}

    def decay(mode):
        return _decay_fit(mode, grid.nodes, elevation()[0].zeta, half_length=grid.half_length, grid=grid)

    if "fig2a" in targets:
        profiles("fig2a", _ELEVATION_PAIR)
    if "fig2b" in targets:
        profiles("fig2b", _DEPRESSION_PAIR)
    if "fig3a" in targets:
        params, columns = sweep()
        save("fig3a_amplitudes.csv", write_table, _meta("reproduce-fig3a", {"params": params_to_config(params)}),
             columns)
    if "fig3b" in targets:
        params, columns = sweep()
        save("fig3b_fit.json", write_json, {
            "meta": _meta("reproduce-fig3b", {"params": params_to_config(params)}),
            "fit": _speed_fit(columns).to_dict(),
        })
    if "fig3c" in targets:
        study = analysis.amplitude_vs_k_study(0.5, _FIG3C_DELTAS, 0.05, grid=grid, tol=args.tol, solve=solve)
        meta = _meta("reproduce-fig3c", {"gamma": 0.5, "deltas": list(_FIG3C_DELTAS), "offset": 0.05},
                     {"skipped": list(study.skipped)})
        save("fig3c_amplitude_vs_k.csv", write_table, meta, {
            "k_coeff": study.k_values(),
            "zeta_max": study.amplitudes(),
            "delta": np.array([p.delta for p in study.points]),
        })
    if "fig4" in targets:
        for label, pair in (("elevation", _ELEVATION_PAIR), ("depression", _DEPRESSION_PAIR)):
            params, wave_config, state, _ = wave(pair, 0.05)
            pairs = analysis.phase_portrait(state, grid)
            meta = _meta("reproduce-fig4", {"params": params_to_config(params), "cs": wave_config.speed})
            save(f"fig4_{label}.csv", write_table, meta, {"v": pairs[:, 0], "v_prime": pairs[:, 1]})
    if "fig5" in targets:
        state, described = elevation()
        kp, mags = analysis.spectrum_magnitudes(grid, state.zeta)
        save("fig5a_spectrum.csv", write_table, _meta("reproduce-fig5a", described), {"k": kp, "magnitude": mags})
        x, zeta, fitted, fit = decay("decay")
        save("fig5b_profile_fit.csv", write_table, _meta("reproduce-fig5b", described, {"fit": fit.to_dict()}),
             {"x": x, "zeta": zeta, "fitted": fitted})
    if "fig6" in targets:
        _, described = elevation()
        kp, mags, fitted, fit = decay("spectrum")
        save("fig6_spectrum_fit.csv", write_table, _meta("reproduce-fig6", described, {"fit": fit.to_dict()}),
             {"k": kp, "magnitude": mags, "fitted": fitted})
    if "table1" in targets:
        _, described = elevation()
        save("table1.json", write_json, {
            "meta": _meta("reproduce-table1", described),
            "space_fit": decay("decay")[3].to_dict(),
            "spectrum_fit": decay("spectrum")[3].to_dict(),
        })
    return 0


# ----------------------------------------------------------------------
# parser


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its blocks")
    p.add_argument("--gamma", type=float, help="density ratio rho1/rho2")
    p.add_argument("--delta", type=float, help="depth ratio d1/d2")


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cs", type=float, help="traveling-wave speed (default c_crit + 0.05)")
    p.add_argument("--half-length", dest="half_length", type=float, help="domain half-length l")
    p.add_argument("--modes", type=int, help="collocation points N (even)")
    p.add_argument("--tol", type=float, help="residual tolerance (max norm)")
    p.add_argument("--tol-update", dest="tol_update", type=float, help="update tolerance (max norm)")
    p.add_argument("--max-iter", dest="max_iter", type=int, help="iteration cap")
    p.add_argument("--extrapolation", help="off or mpe:K (default off)")
    p.add_argument("--dealias", action="store_true", help="zero-padded quadratic products")
    p.add_argument("--strict", action="store_true", help="escalate the boundary-decay warning to an error")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tlwaves", description="Solitary waves of a two-layer internal wave model")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="compute one solitary wave profile")
    _add_common(p)
    _add_solver_flags(p)
    p.add_argument("--out", required=True, help="output file (.csv or .json)")
    p.add_argument("--spectrum-out", dest="spectrum_out",
                   help="also write the full (k, k', re, im) spectrum of zeta")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", help="speed sweep with amplitude extraction and power fit")
    _add_common(p)
    _add_solver_flags(p)
    p.add_argument("--offset-min", type=float, default=0.01)
    p.add_argument("--offset-max", type=float, default=0.3)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("oracle", help="ODE-based solitary profile (independent of the spectral solver)")
    _add_common(p)
    p.add_argument("--cs", type=float, help="traveling-wave speed")
    p.add_argument("--x-max", dest="x_max", type=float, default=60.0)
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--dx", type=float, default=0.25, help="output sampling interval")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("dispersion", help="linear symbols omega(k), sigma(k) over a wavenumber range")
    _add_common(p)
    p.add_argument("--k-min", dest="k_min", type=float, default=0.0)
    p.add_argument("--k-max", dest="k_max", type=float, default=50.0)
    p.add_argument("--count", type=int, default=501)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_dispersion)

    p = sub.add_parser("analyze", help="fits and portraits from profile files")
    p.add_argument("mode", choices=["decay", "spectrum", "phase"])
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--window", type=float, nargs=2, metavar=("LO", "HI"))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("reproduce", help="regenerate the reference figure and table data")
    p.add_argument("target", choices=[*_TARGETS, "all"])
    p.add_argument("--out-dir", dest="out_dir", default="results")
    p.add_argument("--half-length", dest="half_length", type=float, default=128.0)
    p.add_argument("--modes", type=int, default=1024)
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(func=cmd_reproduce)

    return parser


def _stderr_record(kind: str, name: str, message) -> None:
    print(json.dumps({kind: name, "message": str(message)}), file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.showwarning = lambda message, category, *_: _stderr_record("warning", category.__name__, message)
            return args.func(args)
    except NotConvergedError as exc:
        _stderr_record("error", type(exc).__name__, exc)
        return 2
    except (WaveError, ValueError, OSError, json.JSONDecodeError) as exc:
        _stderr_record("error", type(exc).__name__, exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
