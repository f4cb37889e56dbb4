"""The stage bodies of the drivers of the paper's instability results: the
instability of the phase under a small perturbation of the data, the
growth of compensated Sobolev norms, and the small-time window of the
ODE (Taylor) approximation.  stages.py describes the protocol of a stage
body and holds the verdicts the bodies share.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import nls, taylor, wkb
from .errors import ConfigError, ResolutionError
from .fields import ComplexField, lp_norm, sobolev_norm
from .stages import (SOBOLEV_ORDERS, _data_verdict, _nls_sweep_solve, _raise_failed,
                     _slope_verdict, _verdict)

NORMGROWTH_ORDERS = (1, 2)    # the orders m of the normgrowth Hdot^m norms
NORMGROWTH_EXPONENTS = (3, 0.25, 0.25)  # the (n, s, k) of its reported flow exponent
INSTABILITY_TIME_FACTOR = 2.0  # the instability horizon t_eps is this * eps / delta


def flow_exponents(n: int, s: float, k: float) -> dict:
    """Growth exponent of compensated Sobolev norms under the oscillatory
    rescaling: e(n, s, k) = s - k - k(n/2 - 1 - s), computed in the factored
    form s - k(n/2 - s) so e vanishes exactly at the window boundary
    k = k_lower = s/(n/2 - s).  The norm diverges along the family iff
    e < 0 with k_lower < k <= s."""
    if int(n) != n or n < 3:
        raise ConfigError("dimension n must be an integer >= 3")
    n = int(n)
    if not 0 < s < n / 2 - 1:
        raise ConfigError("s must satisfy 0 < s < n/2 - 1")
    half = n / 2 - s
    k_lower = s / half
    exponent = s - k * half
    diverges = bool(exponent < 0 and k_lower < k <= s)
    return {"exponent": float(exponent), "diverges": diverges,
            "k_lower": float(k_lower)}


def _instability_pair(config, row):
    """The base and perturbed solves at one eps, on the first grid of its
    ladder that resolves both.  Returns the base problem, the perturbation,
    the perturbed amplitude, the grid size, the L2 separations of the two
    solutions at the output times and their larger mass drift; the
    solutions themselves are dropped, so that the solve stage holds one
    pair at a time, whatever the number of eps."""
    for size in row.grid_ladder:
        base = config.problem(row.eps, size)
        b0 = config.data.b0.build(base.grid, role="perturbation")
        a_tilde = ComplexField(base.grid, base.a0.values + row.delta * b0.values,
                               role="perturbed-amplitude")
        pair = nls.solve_nls_sweep([base, replace(base, a0=a_tilde)], row.t_eps,
                                   [row.dt, row.dt], output_times=list(row.times))
        try:
            _raise_failed(pair)
            break
        except ResolutionError as exc:
            failure = exc
    else:
        raise ResolutionError(
            f"instability run still under-resolved at N={size}: {failure}",
            time=failure.time, eps=row.eps) from failure
    sol_u, sol_v = pair
    separations = [lp_norm(sol_u.state_at(tt) - sol_v.state_at(tt), 2)
                   for tt in row.times]
    return base, b0, a_tilde, size, separations, max(sol_u.mass_drift(),
                                                     sol_v.mass_drift())


def _instability_solve(config, plan, run) -> None:
    run.pairs = [_instability_pair(config, row) for row in plan.rows]


def _instability_measure(config, plan, run) -> None:
    """The separation of each pair against its data distance, and against
    the analytic profile where the phase argument is O(1)."""
    def one(row, base, b0, a_tilde, size, separations, mass_drift):
        eps, delta, t_eps = row.eps, row.delta, row.t_eps
        outputs = list(row.times)
        horizon = taylor.validity_horizon(eps, 2)    # the Taylor window of order 2
        data_gap = ComplexField(base.grid, delta * b0.values, role="data-gap")
        distances = {s: sobolev_norm(data_gap, s) for s in SOBOLEV_ORDERS}
        sup_sep = max(separations)
        ratios = {s: sup_sep / distances[s] for s in distances}

        # analytic prediction, compared where the phase argument is O(1)
        cal_idx = max(0, round(len(outputs) / (2 * INSTABILITY_TIME_FACTOR)) - 1)
        t_cal = outputs[cal_idx]
        pred = wkb.separation_profile(base.a0, a_tilde, delta, eps, t_cal)
        pred_norm = lp_norm(pred, 2)
        meas = separations[cal_idx]
        agreement = abs(meas - pred_norm) / meas if meas > 0 else np.inf

        return {"eps": eps, "delta": delta, "t_eps": t_eps,
                "window_horizon": horizon, "window_flagged": bool(t_eps >= horizon),
                "grid_size_used": size, "output_times": outputs,
                "separations": separations, "separation_final": separations[-1],
                "separation_sup": sup_sep, "initial_distances": distances,
                "ratios": ratios, "prediction_time": t_cal,
                "prediction_norm": pred_norm, "prediction_agreement": agreement,
                "mass_drift": mass_drift}

    rows = [one(row, *pair) for row, pair in zip(plan.rows, run.pairs)]
    finals = [r["separation_final"] for r in rows]
    floor = 0.5 * finals[0]
    stays_up = all(f >= floor for f in finals)
    run.verdicts.append(_verdict(
        "separation_persists", stays_up,
        f"separations {finals} vs 0.5x largest-eps value {floor}"))

    # the data distance and the blow-up ratio are read in H^1
    dists = [r["initial_distances"][1] for r in rows]
    alpha = config.instability.alpha
    _slope_verdict(run, "distance_H1", config.eps, dists, alpha,
                   (alpha - 0.05, alpha + 0.05), name="data_distance_H1_slope",
                   detail=f"H^1 distance slope {{}} vs {alpha} +- 0.05")

    ratio_rows = [r["ratios"][1] for r in rows]
    ratio_monotone = all(b > a for a, b in zip(ratio_rows, ratio_rows[1:]))
    run.verdicts.append(_verdict(
        "blowup_ratio_monotone", ratio_monotone,
        f"sup-separation / H^1 data distance: {ratio_rows}"))

    # two gaps separate the run from the analytic profile: a bounded shape
    # mismatch (the profile's sin(theta) vs the exact 2 sin(theta/2), about
    # 11% at the calibration time) and O(delta) dropped data terms; the 20%
    # band only accommodates both once the perturbation itself is small
    small = [r for r in rows if r["delta"] <= 0.15]
    agreements = [r["prediction_agreement"] for r in small]
    agree_ok = all(a <= 0.2 for a in agreements)
    run.verdicts.append(_data_verdict(
        "prediction_agreement", agreements, agree_ok,
        f"relative gap to the analytic profile at t*delta/eps=O(1), "
        f"runs with delta <= 0.15: {agreements}"))
    run.body = {"per_eps": rows, "fits": run.fits,
                "window_flagged": [r["eps"] for r in rows if r["window_flagged"]]}


INSTABILITY = (("solve", _instability_solve), ("measure", _instability_measure))


def _normgrowth_measure(config, plan, run) -> None:
    """Compensated Hdot^m norms and the mass across eps."""
    initial_norms = {m: sobolev_norm(run.problems[0].a0, m, homogeneous=True)
                     for m in NORMGROWTH_ORDERS}
    rows = []
    for eps, sol in zip(config.eps, *run.sweeps):
        state = sol.final()
        norms = {m: sobolev_norm(state, m, homogeneous=True)
                 for m in NORMGROWTH_ORDERS}
        rows.append({"eps": eps, "norms": norms,
                     "compensated": {m: eps**m * norms[m] for m in norms},
                     "mass": lp_norm(state, 2), "mass_drift": sol.mass_drift()})
    spreads = {}
    for m in NORMGROWTH_ORDERS:
        vals = [r["compensated"][m] for r in rows]
        spread = max(vals) / min(vals)
        spreads[m] = spread
        run.verdicts.append(_verdict(
            f"compensated_spread_m{m}", spread <= 4.0,
            f"eps^{m}*Hdot^{m} ratios {vals}, max/min {spread:.3f} <= 4"))

    masses = [r["mass"] for r in rows]
    mass_spread = max(masses) - min(masses)
    run.verdicts.append(_verdict(
        "mass_eps_independent", mass_spread <= 1e-10 * max(masses),
        f"L2 at probe time across eps: spread {mass_spread:.3e}"))

    run.body = {"t": plan.rows[0].times[-1], "per_eps": rows,
                "initial_norms": initial_norms, "spreads": spreads,
                "exponents": flow_exponents(*NORMGROWTH_EXPONENTS)}


NORMGROWTH = (("solve", _nls_sweep_solve), ("measure", _normgrowth_measure))


def _odewindow_solve(config, plan, run) -> None:
    """One NLS solve per eps, stored at its times eps^p."""
    run.solutions = [nls.solve_nls(config.problem(row.eps), row.times[-1],
                                   dt=row.dt, output_times=list(row.times))
                     for row in plan.rows]


def _odewindow_measure(config, plan, run) -> None:
    """Each solve against the first-order Taylor expansion u_1."""
    powers = list(plan.schedule)
    a0 = config.problem(config.eps[0]).a0
    ref_norm = lp_norm(a0, 2)
    coeffs = taylor.taylor_phase_coefficients(a0, order=1)

    rows = []
    for row, sol in zip(plan.rows, run.solutions):
        times = list(row.times)
        errors = []
        for tt in times:
            u1 = taylor.assemble_uK(coeffs, row.eps, tt, order=1)
            errors.append(lp_norm(sol.state_at(tt) - u1, 2))
        rows.append({"eps": row.eps, "times": times, "errors": errors,
                     "mass_drift": sol.mass_drift()})
    for r in rows:
        first_three = r["errors"][:3]
        mono = all(b > a for a, b in zip(first_three, first_three[1:]))
        run.verdicts.append(_verdict(
            f"error_grows_eps{r['eps']:g}", mono,
            f"L2 errors across the window {r['errors']}"))
        run.verdicts.append(_verdict(
            f"start_small_eps{r['eps']:g}", r["errors"][0] <= 0.25 * ref_norm,
            f"error {r['errors'][0]:.3e} at t=eps^{powers[0]}"))
        run.verdicts.append(_verdict(
            f"end_order_one_eps{r['eps']:g}", r["errors"][-1] >= 0.25 * ref_norm,
            f"error {r['errors'][-1]:.3e} at t=eps^{powers[-1]}"))
    # the body lists the errors by position and the powers apart
    run.csv_rows = [(r["eps"], "", f"ode_error_p{p:g}", err)
                    for r in rows for p, err in zip(powers, r["errors"])]
    run.body = {"powers": powers, "per_eps": rows}


ODEWINDOW = (("solve", _odewindow_solve), ("measure", _odewindow_measure))
