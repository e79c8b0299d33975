"""``tlwaves reproduce``: the data of the paper's figures and table, each wave solved once.

``analysis`` builds every derived table (sweep, study, portrait, decay
fits); this module describes and writes them.  It calls the same table
functions as ``sweep`` and ``analyze`` on its grid's nodes, so its targets
equal ``sweep`` and ``analyze`` of its fig2 profiles on every grid; it fits
each decay once.  Each header records the run's grid and tolerance in
``solve``'s nested shape, with the wave's ``params`` and, for one wave,
``solver.cs``.
"""

from __future__ import annotations

import dataclasses
import functools
from pathlib import Path

import numpy as np

from .. import analysis, solver
from ..params import (DEPRESSION_PAIR, ELEVATION_PAIR, REFERENCE_OFFSET, SWEEP_OFFSETS, make_parameters,
                      params_to_config)
from .runconfig import build_run
from .tables import meta, write_json, write_table

# the speeds c_s - c_crit of the fig2 profiles, and the depth ratios of the fig3c study
_FIG2_OFFSETS = (0.02, 0.05, 0.10)
_FIG3C_DELTAS = (0.5, 0.55, 0.6, 0.65, 0.8, 0.9, 1.0, 1.1, 1.2)


def execute(args) -> int:
    outdir = Path(args.out_dir)
    # the speed is set per wave; building the run here rejects a bad setting before any file is written
    _, grid, config, run = build_run(args)
    # each distinct (grid, params, config) is solved once per command: fig2a, fig3c, fig4 and
    # fig5/fig6/table1 share the elevation wave at the reference offset, fig2b, fig3c and fig4 the
    # depression wave there, and fig3a and fig3b the sweep.  Callers only read the cached states.
    solve = functools.cache(solver.solve)

    def describe(params, speed=None):
        """The run's grid and tolerance, the wave's params and its one speed, if any, in ``solve``'s shape."""
        return {**run, "params": params_to_config(params),
                "solver": run["solver"] if speed is None else {**run["solver"], "cs": speed}}

    def wave(pair, offset):
        """The state and report of the wave of ``pair`` at c_crit + offset, and its description."""
        params = make_parameters(*pair)
        wave_config = dataclasses.replace(config, speed=params.c_crit + offset)
        return (*solve(grid, params, wave_config), describe(params, wave_config.speed))

    # the reference elevation wave, whose decay fig5, fig6 and table1 describe
    elevation = functools.partial(wave, ELEVATION_PAIR, REFERENCE_OFFSET)

    def reported():
        """The header entry of the reference elevation wave's solve report."""
        return {"report": elevation()[1].to_dict()}

    @functools.cache
    def decay(mode):
        return analysis.decay_table(mode, grid.nodes, elevation()[0].zeta)

    def save(name, write, *data):
        path = outdir / name
        write(path, *data)
        print(f"reproduce: wrote {path}")

    def profiles(target, pair):
        for offset in _FIG2_OFFSETS:
            state, report, described = wave(pair, offset)
            header = meta(f"reproduce-{target}", described, {"report": report.to_dict()})
            save(f"{target}_offset{offset:g}.csv", write_table, header,
                 {"x": grid.nodes, "zeta": state.zeta, "v": state.v, "u": state.u})

    def sweep():
        """The columns of the sweep fig3a and fig3b describe, and its description."""
        params = make_parameters(*ELEVATION_PAIR)
        columns = analysis.speed_sweep(solve, grid, params, config, np.linspace(*SWEEP_OFFSETS))
        return columns, describe(params)

    def wanted(target):
        return args.target in ("all", target)

    if wanted("fig2a"):
        profiles("fig2a", ELEVATION_PAIR)
    if wanted("fig2b"):
        profiles("fig2b", DEPRESSION_PAIR)
    if wanted("fig3a"):
        columns, described = sweep()
        save("fig3a_amplitudes.csv", write_table, meta("reproduce-fig3a", described), columns)
    if wanted("fig3b"):
        columns, described = sweep()
        save("fig3b_fit.json", write_json, {"meta": meta("reproduce-fig3b", described),
                                            "fit": analysis.speed_fit(columns).to_dict()})
    if wanted("fig3c"):
        gamma = ELEVATION_PAIR[0]
        columns, skipped = analysis.amplitude_vs_k_study(gamma, _FIG3C_DELTAS, REFERENCE_OFFSET, grid, config, solve)
        header = meta("reproduce-fig3c", {**run, "gamma": gamma, "deltas": list(_FIG3C_DELTAS),
                                          "offset": REFERENCE_OFFSET}, {"skipped": skipped})
        save("fig3c_amplitude_vs_k.csv", write_table, header, columns)
    if wanted("fig4"):
        for label, pair in (("elevation", ELEVATION_PAIR), ("depression", DEPRESSION_PAIR)):
            state, report, described = wave(pair, REFERENCE_OFFSET)
            save(f"fig4_{label}.csv", write_table, meta("reproduce-fig4", described, {"report": report.to_dict()}),
                 analysis.phase_portrait(state.v, grid))
    if wanted("fig5"):
        state, _, described = elevation()
        kp, mags = analysis.spectrum_magnitudes(grid, state.zeta)
        save("fig5a_spectrum.csv", write_table, meta("reproduce-fig5a", described, reported()),
             {"k": kp, "magnitude": mags})
        x, zeta, fitted, fit = decay("decay")
        save("fig5b_profile_fit.csv", write_table,
             meta("reproduce-fig5b", described, {"fit": fit.to_dict(), **reported()}),
             {"x": x, "zeta": zeta, "fitted": fitted})
    if wanted("fig6"):
        kp, mags, fitted, fit = decay("spectrum")
        save("fig6_spectrum_fit.csv", write_table,
             meta("reproduce-fig6", elevation()[2], {"fit": fit.to_dict(), **reported()}),
             {"k": kp, "magnitude": mags, "fitted": fitted})
    if wanted("table1"):
        save("table1.json", write_json, {
            "meta": meta("reproduce-table1", elevation()[2], reported()),
            "space_fit": decay("decay")[3].to_dict(),
            "spectrum_fit": decay("spectrum")[3].to_dict(),
        })
    return 0
