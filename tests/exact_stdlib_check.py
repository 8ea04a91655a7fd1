"""Exact checks that need nothing beyond the standard library.

Re-derives the secondary-flow coefficient tables, then evaluates a few
rational stations and checks that each closed form satisfies its defining
Poisson/Stokes problem, boundary condition and disc integral with an
identically zero residual.  The exact layer imports no numpy, so this runs
on an interpreter without it (the floor of ``requires-python`` included):

    PYTHONPATH=src python tests/exact_stdlib_check.py

It prints each failed check and exits 1 if any fails, 0 otherwise.  A
numpy module loaded along the way counts as a failure.
"""

import sys
from fractions import Fraction as F
from math import pi

from tubeflow.expansion import (
    StationData,
    U1_divergence_data,
    build_U2_rhs,
    evaluate_station,
    u1_1_problem_rhs,
    u1_2_problem_rhs,
    verify_coefficient_tables,
)
from tubeflow.polydisc import (
    DiscPoly,
    TrigSeries,
    disc_integral,
    divergence,
    gradient,
    laplacian,
    restrict_to_boundary,
)


def make_exact_station(**overrides):
    """Generic rational station satisfying the model's solvability relations.

    The first-correction pressure relation fixes d2p1 from dp1, and the
    wall rate is defined by the leading-order compatibility identity, so
    every boundary trace and divergence integral is exactly consistent.
    """
    vals = dict(
        rho0=F(21, 20), nu=F(3, 7), R=F(7, 5), dR=F(1, 3), d2R=F(-1, 7),
        kappa=F(3, 4), dkappa=F(1, 6), tau=F(2, 5),
        dp0=F(-5, 4), d2p0=F(7, 9), d3p0=F(-2, 11), dt_dp0=F(5, 13),
        dp1=F(3, 8), p02=F(1, 5), dp02=F(2, 9),
        b1=F(1, 12), b2=F(1, 9), b3=F(-2, 13),
    )
    vals.update(overrides)
    vals.setdefault("d2p1", -4 * vals["dR"] * vals["dp1"] / vals["R"])
    if "Rdot" not in vals:
        d_r2dp0 = (2 * vals["R"] * vals["dR"] * vals["dp0"]
                   + vals["R"] ** 2 * vals["d2p0"])
        vals["Rdot"] = (vals["R"] / (16 * vals["rho0"] * vals["nu"])
                        * (2 * d_r2dp0 - vals["R"] ** 2 * vals["d2p0"]))
    return StationData(**vals)


# overrides of make_exact_station's values, one station each
STATIONS = {
    "generic": {},
    "straight": {"kappa": 0, "dkappa": 0, "tau": 0},
    "narrow swirl": {"R": F(1, 2), "dR": F(-2, 3), "tau": F(-7, 3),
                     "dp0": F(-3), "dp1": F(-1, 2), "b1": 0},
}


def residual_checks(sd: StationData):
    """Each exact identity of one station's fields: name -> holds."""
    f = evaluate_station(sd)
    fluid = sd.fluid
    scale = sd.R / (sd.rho0 * sd.nu)
    gp2, gp3 = gradient(f.p2), gradient(f.p3)
    (f2, f3), g = build_U2_rhs(sd)
    return {
        "u1_0 interior": laplacian(f.u1_0) == DiscPoly.constant(
            sd.R**2 * sd.dp0 / (sd.rho0 * sd.nu)),
        "u1_0 trace": restrict_to_boundary(f.u1_0).is_zero(),
        "u1_1 interior": laplacian(f.u1_1) == u1_1_problem_rhs(
            sd.R, sd.kappa, fluid, sd.dp0, sd.dp1),
        "u1_1 trace": restrict_to_boundary(f.u1_1).is_zero(),
        "u1_2 interior": laplacian(f.u1_2) == u1_2_problem_rhs(sd),
        "u1_2 trace": restrict_to_boundary(f.u1_2).is_zero(),
        "U1 momentum": (laplacian(f.U1[0]) == gp2[0] * scale
                        and laplacian(f.U1[1]) == gp2[1] * scale),
        "U1 divergence": divergence(*f.U1) == U1_divergence_data(
            sd.R, sd.dR, fluid, sd.dp0, sd.d2p0),
        # the wall moves radially at Rdot: U1 = Rdot (cos s2, sin s2) there
        "U1 trace": (restrict_to_boundary(f.U1[0])
                     == TrigSeries({1: [sd.Rdot, 0]})
                     and restrict_to_boundary(f.U1[1])
                     == TrigSeries({1: [0, sd.Rdot]})),
        # so the divergence integrates to the wall's outflow 2 pi Rdot
        "U1 flux": disc_integral(divergence(*f.U1)) == 2 * sd.Rdot * pi,
        "U2 momentum": ((laplacian(f.U2[0]) - gp3[0] * scale - f2).is_zero()
                        and (laplacian(f.U2[1]) - gp3[1] * scale
                             - f3).is_zero()),
        "U2 divergence": divergence(*f.U2) == g,
        "U2 trace": (restrict_to_boundary(f.U2[0]).is_zero()
                     and restrict_to_boundary(f.U2[1]).is_zero()),
        "U2 compatibility": disc_integral(g) == 0,
    }


def main():
    failures = []
    if not verify_coefficient_tables().all_match:
        failures.append("coefficient tables differ from their re-derivation")
    checked = 0
    for name, overrides in STATIONS.items():
        for identity, holds in residual_checks(
                make_exact_station(**overrides)).items():
            checked += 1
            if not holds:
                failures.append(f"station {name!r}: {identity}")
    if sys.modules.get("numpy") is not None:
        failures.append("numpy was loaded")
    for failure in failures:
        print(f"FAILED {failure}")
    print(f"exact stdlib check: tables and {checked} identities at "
          f"{len(STATIONS)} stations, {len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
