#!/usr/bin/env python3
"""Straight rigid pipe: the expansion collapses to Poiseuille flow.

Solves the leading-order problem for a unit pressure drop, prints the
centerline velocity and flow rate against their closed forms, and writes a
heatmap of the axial profile.
"""

import sys
from pathlib import Path

import numpy as np

from tubeflow.cli import RunConfig, run_pipeline
from tubeflow.plotting import heatmap_svg


def main(outdir="out_poiseuille"):
    cfg = RunConfig.from_mapping({
        "geometry.kind": "straight",
        "bc.p0.inlet": "1.0",
        "bc.p0.outlet": "0.0",
        "grid.n_s1": "65",
    })
    result = run_pipeline(cfg)
    mid = cfg.n_s1 // 2
    f = result.stations.fields(mid)

    center = f.u1_0.to_float().evaluate(0.0, 0.0)
    q0 = result.flow.q0[mid]
    print(f"centerline u1_0 : {center:.15f}  (closed form 0.25)")
    print(f"flow rate Q0    : {q0:.15f}  (closed form pi/8 = {np.pi/8:.15f})")
    print(f"p0 residual     : {result.pexp.residuals['p0']:.3e}")
    print(f"verification    : {'pass' if result.verification_passed() else 'FAIL'}")

    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "u1_0.svg").write_text(
        heatmap_svg(f.u1_0, title="axial velocity, leading order"))
    print(f"wrote {out}/u1_0.svg")
    return 0 if result.verification_passed() else 2


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
