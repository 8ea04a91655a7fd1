#!/usr/bin/env python3
"""Elastic tube driven by an inlet pressure pulse.

Steps the coupled wall/pressure system through one pulse and reports the
wall excursion, the law/BVP residuals at every step, and the final flow
profile.
"""

import sys
from pathlib import Path

import numpy as np

from tubeflow.coupling import ElasticWall, WallState, advance_time_step, wall_law_residual
from tubeflow.expansion import FluidParams
from tubeflow.pressure import PressureBC, TimeSeries, flux_residual, solve_p0
from tubeflow.cli import write_csv


def main(outdir="out_pulse"):
    n = 65
    s = np.linspace(0.0, 1.0, n)
    fluid = FluidParams(1.0, 1.0)
    law = ElasticWall(E=2e3, h0=0.1, R0=1.0, p_e=0.0)
    pulse = TimeSeries((0.0, 0.2, 0.4, 1.0), (0.0, 8.0, 0.0, 0.0))
    bc = PressureBC(p0_inlet=pulse, p0_outlet=0.0)

    state = WallState.from_radius(s, 1.0)
    rows = []
    for _ in range(20):
        state = advance_time_step(state, law, fluid, bc, dt=0.05)
        # the step carries only the wall; its pressure is solved again here
        p0 = solve_p0(state.R, state.dR_dt, state.h, fluid, bc, t=state.t)[0]
        law_res = wall_law_residual(law, p0, state.R).max()
        rhs = 16.0 * fluid.nu * fluid.rho0 * state.R * state.dR_dt
        bvp_res = flux_residual(state.R**4, state.h, p0, rhs)
        rows.append((state.t, state.R.max(), state.R.min(),
                     p0[0], law_res, bvp_res))
        print(f"t={state.t:5.2f}  R in [{state.R.min():.4f}, "
              f"{state.R.max():.4f}]  law residual {law_res:.2e}  "
              f"BVP residual {bvp_res:.2e}")

    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "pulse_history.csv",
              ["t", "max_R", "min_R", "p0_inlet", "law_residual",
               "bvp_residual"], rows)
    print(f"wrote {out}/pulse_history.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
