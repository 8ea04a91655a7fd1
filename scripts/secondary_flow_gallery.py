#!/usr/bin/env python3
"""Cross-section velocity gallery over curvature, torsion, and wall motion.

Reproduces the qualitative field shapes: the curvature-skewed axial
correction, the radial transversal field of a moving wall, and the
recirculation patterns switched on by torsion.  Writes SVG plots plus a
summary table.
"""

import sys
from pathlib import Path

import numpy as np

from tubeflow.cli import RunConfig, run_pipeline, write_csv
from tubeflow.plotting import heatmap_svg, quiver_svg
from tubeflow.verify import azimuthal_polynomial, cos_mode_content

CASES = [
    # label, kind, (kappa, tau), elastic pulse?
    ("straight", {"geometry.kind": "straight"}),
    ("curved", {"geometry.kind": "circular-arc", "geometry.radius": "2.0"}),
    ("helix", {"geometry.kind": "helix", "geometry.a": "1.6",
               "geometry.b": "0.8"}),
]

BASE = {
    "bc.p0.inlet": "1.0", "bc.p0.outlet": "0.0",
    "grid.n_s1": "65", "eps": "0.05",
}


def main(outdir="out_gallery"):
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for label, geo in CASES:
        cfg = RunConfig.from_mapping({**BASE, **geo})
        result = run_pipeline(cfg)
        mid = cfg.n_s1 // 2
        f = result.fields[mid]
        sd = result.stations[mid]
        circ = cos_mode_content(azimuthal_polynomial(*f.U2))
        rows.append((sd.kappa, sd.tau, result.flow.q0[mid],
                     float(f.u1_1.coeff(3, 0)), circ))
        (out / f"u1_1_{label}.svg").write_text(
            heatmap_svg(f.u1_0 + 0.05 * f.u1_1,
                        title=f"axial velocity through order 1, {label}"))
        (out / f"U2_{label}.svg").write_text(
            quiver_svg(*f.U2, title=f"second transversal correction, {label}"))
        print(f"{label:9s} kappa={sd.kappa:.3f} tau={sd.tau:.3f} "
              f"Q0={result.flow.q0[mid]:.6f} circulation={circ:.3e}")

    # moving wall: radial pattern with boundary speed dR/dt
    from tubeflow.coupling import WallState
    from tubeflow.expansion import (BodyForce, FluidParams, NodeStations,
                                    evaluate_station, stations_from_grids)
    from tubeflow.geometry import CenterCurve
    from tubeflow.pressure import PressureBC, solve_pressures

    n = 65
    s = np.linspace(0.0, 1.0, n)
    wall = WallState.from_radius(s, 1.0, dR_dt=np.ones(n))
    fluid = FluidParams(1.0, 1.0)
    pexp = solve_pressures(wall, fluid, PressureBC(0.0, 0.0), np.zeros(n),
                           BodyForce())
    stations = NodeStations(stations_from_grids(
        wall, pexp, CenterCurve.straight(1.0).frames(s), fluid, BodyForce()))
    f = evaluate_station(stations[n // 2])
    (out / "U1_moving_wall.svg").write_text(
        quiver_svg(*f.U1, title="first transversal correction, expanding wall"))
    print("moving    boundary radial speed:",
          f"{float(f.U1[0].to_float().evaluate(1.0, 0.0)):.6f} (wall rate 1.0)")

    write_csv(out / "gallery.csv",
              ["kappa", "tau", "Q0_mid", "u1_1_skew_group", "U2_circulation"],
              rows)
    print(f"wrote {out}/gallery.csv and SVG plots")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
