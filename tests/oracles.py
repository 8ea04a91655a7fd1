"""Independent oracles the tests check the library against.

These deliberately avoid the code paths they verify: disc integrals by 2D
polar quadrature instead of moment tables, Frenet data by finite
differences of curve points instead of analytic formulas, boundary-value
solutions by quadrature instead of finite differences.  The convergence
study measures the flux-form pressure solver's order against the
quadrature solution.
"""

import numpy as np
from scipy.integrate import dblquad, quad

from tubeflow.pressure import solve_flux_bvp


def polar_quadrature_integral(poly, tol=1e-11):
    """Integral of a DiscPoly over the unit disc by adaptive 2D quadrature."""
    p = poly.to_float()

    def integrand(r, theta):
        return r * p.evaluate(r * np.cos(theta), r * np.sin(theta))

    val, err = dblquad(integrand, 0.0, 2.0 * np.pi, 0.0, 1.0,
                       epsabs=tol, epsrel=tol)
    return val


def fd_frenet(point_fn, s, h=1e-3):
    """Curvature and torsion from centered finite differences of the curve.

    The step balances truncation against the 1/h^3 round-off amplification
    in the third derivative that torsion needs.
    """
    c1 = (point_fn(s + h) - point_fn(s - h)) / (2 * h)
    c2 = (point_fn(s + h) - 2 * point_fn(s) + point_fn(s - h)) / h**2
    c3 = (point_fn(s + 2 * h) - 2 * point_fn(s + h)
          + 2 * point_fn(s - h) - point_fn(s - 2 * h)) / (2 * h**3)
    cross = np.cross(c1, c2)
    kappa = np.linalg.norm(cross) / np.linalg.norm(c1) ** 3
    tau = float(np.dot(cross, c3)) / np.linalg.norm(cross) ** 2
    return kappa, tau


def quadrature_bvp(R_func, rhs_func, p_in, p_out, s_eval):
    """Solve (R^4 p')' = rhs on [0, 1] by quadrature: R^4 p' = C + int_0^s rhs,
    with C fixed by the outlet value.  ``rhs_func`` None is the homogeneous
    problem."""
    def big_f(s):
        if rhs_func is None:
            return 0.0
        val, _ = quad(rhs_func, 0.0, s, limit=200)
        return val

    def inv_r4(s):
        return 1.0 / R_func(s) ** 4

    def f_over_r4(s):
        return big_f(s) / R_func(s) ** 4

    base_l, _ = quad(inv_r4, 0.0, 1.0, limit=200)
    part_l, _ = quad(f_over_r4, 0.0, 1.0, limit=200)
    c = (p_out - p_in - part_l) / base_l
    out = []
    for s in np.atleast_1d(s_eval):
        base, _ = quad(inv_r4, 0.0, s, limit=200)
        part, _ = quad(f_over_r4, 0.0, s, limit=200)
        out.append(p_in + c * base + part)
    return np.array(out)


def convergence_study(R_func, p_in, p_out, grid_sizes):
    """Observed orders of the flux-form solver on (R^4 p')' = 0 against
    :func:`quadrature_bvp` on uniform grids of [0, 1] with ``grid_sizes``
    nodes.

    Returns ``(orders, floored)``.  ``floored[i]`` says that grid i's max
    error sits at the round-off floor, 1e-13 max(|p_in|, |p_out|, 1).
    ``orders`` holds log(e[i-1] / e[i]) / log(n[i] / n[i-1]) for each pair
    of consecutive grids, skipping every pair that has a floored grid.
    """
    errors = []
    for n in grid_sizes:
        s = np.linspace(0.0, 1.0, n)
        rvals = np.array([R_func(x) for x in s])
        p = solve_flux_bvp(rvals**4, s[1] - s[0], np.zeros(n), p_in, p_out)
        exact = quadrature_bvp(R_func, None, p_in, p_out, s)
        errors.append(float(np.max(np.abs(p - exact))))

    floor = 1e-13 * max(abs(p_in), abs(p_out), 1.0)
    floored = [e <= floor for e in errors]
    orders = [float(np.log(errors[i - 1] / errors[i])
                    / np.log(grid_sizes[i] / grid_sizes[i - 1]))
              for i in range(1, len(errors))
              if not (floored[i - 1] or floored[i])]
    return orders, floored


def trig_series_samples(series, thetas):
    """Evaluate a TrigSeries at many angles (float)."""
    return np.array([float(series.evaluate(t)) for t in thetas])
