"""Experiment drivers: convergence sweeps, the instability demonstration,
norm-growth tracking, the small-time ODE window, and one-shot solver runs.

The table `DRIVERS` holds one `Driver` record per value of
ExperimentConfig.driver.  The config schema (config.py) and the run plan
(plan.py) derive their rules from it, so this module imports neither.
`run_experiment(config, plan)` runs the driver of a config on the plan that
`Plan.build` made of it.

A run returns an ExperimentResult holding a JSON-ready report, plot-ready
CSV rows, and optional field dumps, and never touches the filesystem
itself; artifact writing lives in the reporting module so a failed run
leaves no partial output behind.  Sweeps run their eps values in config
order; a failed solve is raised, except that the supercritical and profile
sweeps record an under-resolved eps and go on.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import asdict, dataclass, replace
from functools import partial
from itertools import chain

import numpy as np

from . import nls, phase_amplitude, rays, taylor, wkb
from .errors import ConfigError, ResolutionError
from .fields import ComplexField, RealField, l2_linf_norm, lp_norm, sobolev_norm
from .fitting import fit_power_law
from .problem import SUPPORTED_KAPPA, March

# Driver.checks: the checks of one driver's config; the rules of the method
NORMGROWTH_RESOLUTION = 0.25  # a normgrowth grid needs N >= this * L / min(eps)
SOBOLEV_ORDERS = (0, 1, 2)    # the H^s norms of the convergence and instability runs
NORMGROWTH_ORDERS = (1, 2)    # the orders m of the normgrowth Hdot^m norms


def _needs_a1(config: ExperimentConfig) -> None:
    if config.data.a1 is None:
        raise ConfigError("corrector target needs a1 data")


def _check_instability(config: ExperimentConfig) -> None:
    b0 = config.data.b0
    if b0 is None:
        raise ConfigError("instability needs a b0 perturbation profile")
    # 0.5 = 1 - 1/2, the bound of the window of order 2
    if not 0 < config.instability.alpha <= 0.5:
        raise ConfigError("alpha must satisfy 0 < alpha <= 0.5 so the "
                          "perturbation dominates the eps scale")
    # on a doubled grid the nodes of this one are kept, so a perturbation
    # polarized here stays polarized after every doubling
    problem = config.problem(config.eps[0])
    polar = (np.conj(problem.a0.values)
             * b0.build(problem.grid, role="perturbation").values).real
    if np.abs(polar).max() < 1e-12:
        raise ConfigError(
            "perturbation is not polarized along a0 "
            "(Re(conj(a0) b0) vanishes); no phase response expected")


def _check_normgrowth(config: ExperimentConfig) -> None:
    growth, eps = config.growth, min(config.eps)
    needed = int(np.ceil(NORMGROWTH_RESOLUTION * config.grid.build().length / eps))
    if config.grid.size < needed:
        raise ConfigError(
            f"normgrowth at eps={eps} needs grid size >= "
            f"{needed} (rule N >= {NORMGROWTH_RESOLUTION}*L/eps)")
    # probe the exponent algebra arguments early
    flow_exponents(growth.exponents.n, growth.exponents.s, growth.exponents.k)


@dataclass(frozen=True)
class Driver:
    """One value of ExperimentConfig.driver: the function that runs it and
    the rules that check its config and plan its run.  run(config, plan)
    returns the report body, verdicts, csv rows and field dumps of which
    run_experiment makes its result.  march_dt is the dt of
    its one eps-independent march unless time.dt is given (None: the NLS
    solve at eps / nls.STEPS_PER_EPS); times is "final", "schedule", "eps_powers"
    (eps^p for the schedule's powers p) or "instability"; rays is "march"
    (the rays are its march) or "wkb" (rays to t in 64 steps)."""
    kind: str                           # the config kind that runs it
    run: Callable
    kappas: tuple[float, ...] | None    # the kappa it accepts; None: unread
    flat: bool = False                  # needs V=0 and zero initial phase
    march_dt: float | None = None
    times: str = "final"
    schedule: tuple[float, ...] | None = None  # time.schedule default; None: unread
    rays: str | None = None
    # other keys it reads that some driver does not; a section: its fields
    keys: tuple[str, ...] = ()
    checks: tuple[Callable, ...] = ()   # checks(config) of its own config


# ---------------------------------------------------------------------------
# result container and the helpers every driver shares


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    report: dict
    csv_rows: list
    field_dumps: list   # (name, field, time) triples

    @property
    def passed(self) -> bool:
        return bool(self.report.get("passed", False))


def _verdict(name: str, passed: bool, detail: str) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def _data_verdict(name: str, data: list, passed: bool, detail: str) -> dict:
    """The verdict `name` on `data`; with no data it fails, with detail
    "no data", whatever `passed` says of the empty list."""
    return _verdict(name, passed, detail) if data else _verdict(name, False, "no data")


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


def _raise_failed(*sweeps) -> None:
    """Raise the first error among the outcomes of sweeps over the same eps:
    eps by eps in config order, and at one eps in the order the sweeps are
    given.  That is the error the solves, run one after the other, raise."""
    for outcome in chain.from_iterable(zip(*sweeps)):
        if isinstance(outcome, Exception):
            raise outcome


def _flag_unresolved(eps_list, outcomes, measure):
    """The rows of a sweep that records an under-resolved eps instead of
    raising.  An eps whose solve ended in a ResolutionError gets the row
    {"eps", "resolved": False, "detail"}, every other one the row
    measure(eps, outcome); any other error is raised first.  Returns the
    rows, the flagged eps, and the verdicts on them: none, or one failed
    "resolution" verdict that names them."""
    _raise_failed([out for out in outcomes if not isinstance(out, ResolutionError)])
    rows = [{"eps": eps, "resolved": False, "detail": str(out)}
            if isinstance(out, ResolutionError) else measure(eps, out)
            for eps, out in zip(eps_list, outcomes)]
    flagged = [r["eps"] for r in rows if not r["resolved"]]
    verdicts = [_verdict("resolution", False,
                         f"under-resolved eps excluded: {flagged}")] if flagged else []
    return rows, flagged, verdicts


def _slope_verdict(fits: dict, verdicts: list, key: str, x, y, expected: float,
                   window: tuple[float, float], name: str | None = None,
                   detail: str = "slope {} in {window}",
                   min_points: int = 4) -> None:
    """Fit y ~ x^slope into fits[key] and append the verdict `name` (by
    default `key`) that the slope lies in `window`.  Its detail is `detail`
    formatted with the slope (None below `min_points` points) and the
    window."""
    block = {"eps": list(x), "errors": list(y), "expected_slope": expected,
             "window": [window[0], window[1]]}
    if len(x) < min_points:
        block.update({"slope": None, "intercept": None, "r2": None,
                      "passed": False,
                      "note": f"fewer than {min_points} resolved points"})
    else:
        fit = fit_power_law(x, y, min_points=min_points)
        block.update({"slope": fit.slope, "intercept": fit.intercept,
                      "r2": fit.r2,
                      "passed": bool(window[0] <= fit.slope <= window[1])})
    fits[key] = block
    verdicts.append(_verdict(name or key, block["passed"],
                             detail.format(block["slope"], window=window)))


# ---------------------------------------------------------------------------
# convergence drivers


def _run_supercritical(config: ExperimentConfig, plan: Plan,
                       corrector_mode: bool = False) -> tuple:
    """The full phase-amplitude sweep against the eps -> 0 limit, or in
    corrector mode against the limit plus eps times its first-order
    corrector."""
    # the march takes one dt for every eps
    first = plan.rows[0]
    t, dt = first.times[-1], first.dt

    # only the final states of the limit (marched with its corrector in
    # corrector mode) and of the sweep are read
    limit_problem = config.problem(config.eps[0])
    if corrector_mode:
        lim = phase_amplitude.solve_corrector(limit_problem, t, dt,
                                              store_every=first.steps).final()
    else:
        lim = phase_amplitude.solve_phase_amplitude(
            limit_problem, t, dt, variant="limit",
            store_every=first.steps).final()

    outcomes = phase_amplitude.solve_phase_amplitude_sweep(
        [config.problem(eps) for eps in config.eps], t, dt, variant="full",
        store_every=first.steps)

    def measure(eps, traj):
        st = traj.final()
        da, dphi = st.a - lim.a, st.phi.values - lim.phi.values
        if corrector_mode:
            da, dphi = da - eps * lim.a1, dphi - eps * lim.phi1.values
        dphi = RealField(st.grid, dphi, role="phase-gap")
        return {"eps": eps, "resolved": True, "mass_drift": traj.mass_drift(),
                "errors": {s: {"a": sobolev_norm(da, s), "phi": sobolev_norm(dphi, s)}
                           for s in SOBOLEV_ORDERS}}

    rows, flagged, resolution = _flag_unresolved(config.eps, outcomes, measure)
    resolved = [r for r in rows if r["resolved"]]
    eps_used = [r["eps"] for r in resolved]

    verdicts = []
    fits = {}
    if corrector_mode:
        sums = [sum(r["errors"][s]["a"] + r["errors"][s]["phi"]
                    for s in SOBOLEV_ORDERS) for r in resolved]
        _slope_verdict(fits, verdicts, "corrector_combined", eps_used, sums,
                       2.0, (1.7, 2.3), name="corrector_combined_slope")
        csv_rows = [(r["eps"], s, f"corrector_{part}_H", r["errors"][s][part])
                    for r in resolved for s in SOBOLEV_ORDERS
                    for part in ("a", "phi")]
    else:
        for s in SOBOLEV_ORDERS:
            _slope_verdict(fits, verdicts, f"a_H{s}", eps_used,
                           [r["errors"][s]["a"] for r in resolved],
                           1.0, (0.8, 1.2), name=f"amplitude_H{s}_slope")
            _slope_verdict(fits, verdicts, f"phi_H{s}_over_t", eps_used,
                           [r["errors"][s]["phi"] / t for r in resolved],
                           1.0, (0.8, 1.2), name=f"phase_H{s}_slope")
        csv_rows = [row for r in resolved for s in SOBOLEV_ORDERS for row in (
            (r["eps"], s, "a_H", r["errors"][s]["a"]),
            (r["eps"], s, "phi_H_over_t", r["errors"][s]["phi"] / t))]
    body = {"t": t, "dt": dt, "per_eps": rows, "fits": fits,
            "under_resolved": flagged}
    return body, verdicts + resolution, csv_rows, ()


def _run_skew_free(config: ExperimentConfig, plan: Plan) -> tuple:
    """The phase gap between the full and the skew-free phase-amplitude
    sweeps, against eps and against t."""
    # one dt and one schedule for every eps; the plan checked that dt
    # divides each schedule time, so storing every `stride` steps keeps a
    # state at each of them
    first = plan.rows[0]
    times, dt = list(first.times), first.dt
    stride = math.gcd(*(round(tt / dt) for tt in times))

    problems = [config.problem(eps) for eps in config.eps]
    fulls = phase_amplitude.solve_phase_amplitude_sweep(
        problems, times[-1], dt, variant="full", store_every=stride)
    frees = phase_amplitude.solve_phase_amplitude_sweep(
        problems, times[-1], dt, variant="skew_free", store_every=stride)
    _raise_failed(fulls, frees)

    rows = []
    for eps, full, free in zip(config.eps, fulls, frees):
        errors = {}
        for tt in times:
            sf = full.state_at(tt)
            sk = free.state_at(tt)
            gap = RealField(sf.grid, sf.phi.values - sk.phi.values,
                            role="phase-gap")
            errors[tt] = {s: sobolev_norm(gap, s) for s in SOBOLEV_ORDERS}
        rows.append({"eps": eps, "errors": errors})
    eps_used = [r["eps"] for r in rows]
    t_ref = times[-1]

    fits = {}
    verdicts = []
    for s in SOBOLEV_ORDERS:
        _slope_verdict(fits, verdicts, f"eps_slope_H{s}", eps_used,
                       [r["errors"][t_ref][s] for r in rows], 1.0, (0.8, 1.2))
    for r in rows:
        _slope_verdict(fits, verdicts, f"t_slope_H0_eps{r['eps']:g}",
                       times, [r["errors"][tt][0] for tt in times],
                       2.0, (1.7, 2.3), detail="t-slope {} in {window}",
                       min_points=min(4, len(times)))
    csv_rows = [(r["eps"], s, f"phi_gap_H_t{tt:g}", r["errors"][tt][s])
                for r in rows for tt in times for s in SOBOLEV_ORDERS]
    body = {"times": times, "dt": dt, "per_eps": rows, "fits": fits,
            "under_resolved": []}
    return body, verdicts, csv_rows, ()


def _run_profile(config: ExperimentConfig, plan: Plan) -> tuple:
    """Critical (kappa=1) and sub-critical (kappa=2) profile comparisons in
    the combined L2/Linf metric."""
    t = plan.rows[0].times[-1]
    problems = [config.problem(eps) for eps in config.eps]
    # a, phi and G do not depend on eps: one bundle and one profile serve
    # every eps of the sweep.  They come first, so a profile that cannot be
    # built fails before the NLS sweep runs.  The profile reads the final
    # ray node alone, so the bundle stores only that node and the first.
    ray_dt = plan.rows[0].ray_dt
    profile = wkb.build_approximant(problems[0], rays.integrate_flow(
        problems[0], problems[0].a0.grid, t, dt=ray_dt,
        store_every=March(t, ray_dt).steps), t)
    critical = profile.regime == "critical"
    solutions = nls.solve_nls_sweep(problems, t, plan.dts)

    def measure(eps, sol):
        approx = profile.assemble(eps, include_modulation=critical)
        row = {"eps": eps, "resolved": True,
               "error": l2_linf_norm(sol.final() - approx),
               "mass_drift": sol.mass_drift(),
               "energy_drift": sol.energy_drift()}
        if not critical:
            shift = profile.assemble(eps) - approx
            row["modulation_size"] = l2_linf_norm(shift)
        return row

    rows, flagged, resolution = _flag_unresolved(config.eps, solutions, measure)
    resolved = [r for r in rows if r["resolved"]]
    errors = [r["error"] for r in resolved]
    ref_norm = l2_linf_norm(problems[0].a0)

    verdicts = []
    monotone = all(b < a for a, b in zip(errors, errors[1:]))
    verdicts.append(_data_verdict("error_decreases", errors, monotone,
                                  f"errors across eps grid: {errors}"))
    threshold = 0.05 * ref_norm
    small = bool(errors and errors[-1] < threshold)
    verdicts.append(_verdict(
        "final_error_small", small,
        f"error {errors[-1] if errors else None} vs 0.05*|a0| = {threshold}"))
    if not critical:
        budget_ok = all(r["modulation_size"] <= r["error"] for r in resolved)
        verdicts.append(_data_verdict(
            "modulation_below_error", resolved, budget_ok,
            "slow-phase correction stays below the measured error"))
    csv_rows = [(r["eps"], "", "profile_L2Linf", r["error"]) for r in resolved]
    if not critical:
        csv_rows += [(r["eps"], "", "modulation_L2Linf", r["modulation_size"])
                     for r in resolved]
    body = {"t": t, "per_eps": rows, "reference_norm": ref_norm,
            "fits": {}, "under_resolved": flagged}
    return body, verdicts + resolution, csv_rows, ()


# ---------------------------------------------------------------------------
# instability, norm growth and ODE window drivers


def _run_instability(config: ExperimentConfig, plan: Plan) -> tuple:
    c = config.instability.time_factor

    def one(row):
        eps, delta, t_eps, dt = row.eps, row.delta, row.t_eps, row.dt
        outputs = list(row.times)
        horizon = taylor.validity_horizon(eps, 2)    # the Taylor window of order 2
        for size in row.grid_ladder:
            base = config.problem(eps, size)
            b0 = config.data.b0.build(base.grid, role="perturbation")
            a_tilde = ComplexField(base.grid, base.a0.values + delta * b0.values,
                                   role="perturbed-amplitude")
            pair = nls.solve_nls_sweep([base, replace(base, a0=a_tilde)], t_eps,
                                       [dt, dt], output_times=outputs)
            try:
                _raise_failed(pair)
                break
            except ResolutionError as exc:
                failure = exc
        else:
            raise ResolutionError(
                f"instability run still under-resolved at N={size}: {failure}",
                time=failure.time, eps=eps) from failure
        sol_u, sol_v = pair

        separations = [lp_norm(sol_u.state_at(tt) - sol_v.state_at(tt), 2)
                       for tt in outputs]
        data_gap = ComplexField(base.grid, delta * b0.values, role="data-gap")
        distances = {s: sobolev_norm(data_gap, s) for s in SOBOLEV_ORDERS}
        sup_sep = max(separations)
        ratios = {s: sup_sep / distances[s] for s in distances}

        # analytic prediction, compared where the phase argument is O(1)
        cal_idx = max(0, int(round(len(outputs) / (2 * c))) - 1)
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
                "mass_drift": max(sol_u.mass_drift(), sol_v.mass_drift())}

    rows = [one(row) for row in plan.rows]
    eps_list = [r["eps"] for r in rows]
    finals = [r["separation_final"] for r in rows]
    verdicts = []

    floor = 0.5 * finals[0]
    stays_up = all(f >= floor for f in finals)
    verdicts.append(_verdict(
        "separation_persists", stays_up,
        f"separations {finals} vs 0.5x largest-eps value {floor}"))

    # the data distance and the blow-up ratio are read in H^1
    dists = [r["initial_distances"][1] for r in rows]
    alpha = config.instability.alpha
    fits = {}
    _slope_verdict(fits, verdicts, "distance_H1", eps_list, dists, alpha,
                   (alpha - 0.05, alpha + 0.05), name="data_distance_H1_slope",
                   detail=f"H^1 distance slope {{}} vs {alpha} +- 0.05")

    ratio_rows = [r["ratios"][1] for r in rows]
    ratio_monotone = all(b > a for a, b in zip(ratio_rows, ratio_rows[1:]))
    verdicts.append(_verdict(
        "blowup_ratio_monotone", ratio_monotone,
        f"sup-separation / H^1 data distance: {ratio_rows}"))

    # two gaps separate the run from the analytic profile: a bounded shape
    # mismatch (the profile's sin(theta) vs the exact 2 sin(theta/2), about
    # 11% at the calibration time) and O(delta) dropped data terms; the 20%
    # band only accommodates both once the perturbation itself is small
    small = [r for r in rows if r["delta"] <= 0.15]
    agreements = [r["prediction_agreement"] for r in small]
    agree_ok = all(a <= 0.2 for a in agreements)
    verdicts.append(_data_verdict(
        "prediction_agreement", agreements, agree_ok,
        f"relative gap to the analytic profile at t*delta/eps=O(1), "
        f"runs with delta <= 0.15: {agreements}"))

    csv_rows = [(r["eps"], "", key, r[key]) for r in rows for key in
                ("separation_final", "separation_sup", "prediction_agreement")]
    csv_rows += [(r["eps"], s, metric, r[key][s])
                 for r in rows for s in SOBOLEV_ORDERS
                 for metric, key in (("initial_distance_H", "initial_distances"),
                                     ("blowup_ratio", "ratios"))]
    body = {"per_eps": rows, "fits": fits,
            "window_flagged": [r["eps"] for r in rows if r["window_flagged"]]}
    return body, verdicts, csv_rows, ()


def _run_normgrowth(config: ExperimentConfig, plan: Plan) -> tuple:
    t = plan.rows[0].times[-1]
    problems = [config.problem(eps) for eps in config.eps]
    initial_norms = {m: sobolev_norm(problems[0].a0, m, homogeneous=True)
                     for m in NORMGROWTH_ORDERS}

    solutions = nls.solve_nls_sweep(problems, t, plan.dts)
    _raise_failed(solutions)
    rows = []
    for eps, sol in zip(config.eps, solutions):
        state = sol.final()
        norms = {m: sobolev_norm(state, m, homogeneous=True)
                 for m in NORMGROWTH_ORDERS}
        rows.append({"eps": eps, "norms": norms,
                     "compensated": {m: eps**m * norms[m] for m in norms},
                     "mass": lp_norm(state, 2), "mass_drift": sol.mass_drift()})
    verdicts = []
    spreads = {}
    for m in NORMGROWTH_ORDERS:
        vals = [r["compensated"][m] for r in rows]
        spread = max(vals) / min(vals)
        spreads[m] = spread
        verdicts.append(_verdict(
            f"compensated_spread_m{m}", spread <= 4.0,
            f"eps^{m}*Hdot^{m} ratios {vals}, max/min {spread:.3f} <= 4"))

    masses = [r["mass"] for r in rows]
    mass_spread = max(masses) - min(masses)
    verdicts.append(_verdict(
        "mass_eps_independent", mass_spread <= 1e-10 * max(masses),
        f"L2 at probe time across eps: spread {mass_spread:.3e}"))

    expo = config.growth.exponents
    exponents = flow_exponents(expo.n, expo.s, expo.k)
    csv_rows = [(r["eps"], "", "mass", r["mass"]) for r in rows]
    csv_rows += [(r["eps"], m, metric, r[key][m])
                 for r in rows for m in NORMGROWTH_ORDERS
                 for metric, key in (("Hdot_norm", "norms"),
                                     ("compensated", "compensated"))]
    body = {"t": t, "per_eps": rows, "initial_norms": initial_norms,
            "spreads": spreads, "exponents": exponents}
    return body, verdicts, csv_rows, ()


def _run_odewindow(config: ExperimentConfig, plan: Plan) -> tuple:
    powers = list(plan.schedule)
    a0 = config.problem(config.eps[0]).a0
    ref_norm = lp_norm(a0, 2)
    coeffs = taylor.taylor_phase_coefficients(a0, order=1)

    rows = []
    for row in plan.rows:
        eps, times = row.eps, list(row.times)
        sol = nls.solve_nls(config.problem(eps), times[-1], dt=row.dt,
                            output_times=times)
        errors = []
        for tt in times:
            u1 = taylor.assemble_uK(coeffs, eps, tt, order=1)
            errors.append(lp_norm(sol.state_at(tt) - u1, 2))
        rows.append({"eps": eps, "times": times, "errors": errors,
                     "mass_drift": sol.mass_drift()})
    verdicts = []
    for r in rows:
        first_three = r["errors"][:3]
        mono = all(b > a for a, b in zip(first_three, first_three[1:]))
        verdicts.append(_verdict(
            f"error_grows_eps{r['eps']:g}", mono,
            f"L2 errors across the window {r['errors']}"))
        verdicts.append(_verdict(
            f"start_small_eps{r['eps']:g}", r["errors"][0] <= 0.25 * ref_norm,
            f"error {r['errors'][0]:.3e} at t=eps^{powers[0]}"))
        verdicts.append(_verdict(
            f"end_order_one_eps{r['eps']:g}", r["errors"][-1] >= 0.25 * ref_norm,
            f"error {r['errors'][-1]:.3e} at t=eps^{powers[-1]}"))
    csv_rows = [(r["eps"], "", f"ode_error_p{p:g}", err)
                for r in rows for p, err in zip(powers, r["errors"])]
    body = {"powers": powers, "per_eps": rows}
    return body, verdicts, csv_rows, ()


# ---------------------------------------------------------------------------
# single-run drivers: one eps, one solver


def _run_rays(config: ExperimentConfig, plan: Plan) -> tuple:
    [row] = plan.rows
    eps, t = row.eps, row.times[-1]
    problem = config.problem(eps)
    bundle = rays.integrate_flow(problem, problem.a0.grid, t, dt=row.dt)
    residual = rays.hamilton_jacobi_residual(bundle, problem.a0.grid)
    consistency = rays.jacobian_consistency(bundle, t)
    verdicts = [
        _verdict("eikonal_residual", residual <= 1e-6,
                 f"sup residual {residual:.3e} <= 1e-6"),
        _verdict("jacobian_consistency", consistency <= 1e-6,
                 f"relative defect {consistency:.3e} <= 1e-6"),
    ]
    body = {"eps": eps, "caustic_time": bundle.t_caustic,
            "min_jacobian": bundle.min_jacobian[::10].tolist(),
            "hamilton_jacobi_residual": residual,
            "jacobian_consistency": consistency}
    rows = [(eps, "", "hj_residual", residual),
            (eps, "", "jacobian_consistency", consistency)]
    return body, verdicts, rows, ()


def _run_wkb(config: ExperimentConfig, plan: Plan) -> tuple:
    [row] = plan.rows
    eps, t = row.eps, row.times[-1]
    problem = config.problem(eps)
    bundle = rays.integrate_flow(problem, problem.a0.grid, t, dt=row.ray_dt,
                                 store_every=March(t, row.ray_dt).steps)
    profile = wkb.build_approximant(problem, bundle, t)
    approx = profile.assemble(eps)
    sol = nls.solve_nls(problem, t, dt=row.dt)
    err = l2_linf_norm(sol.final() - approx)
    body = {"eps": eps, "t": t, "error_L2Linf": err,
            "regime": profile.regime, "horizon": profile.horizon,
            "mass_drift": sol.mass_drift()}
    dumps = [("wkb_approximant", approx, t), ("reference_state", sol.final(), t)]
    return body, [], [(eps, "", "profile_L2Linf", err)], dumps


def _run_grenier(config: ExperimentConfig, plan: Plan) -> tuple:
    [row] = plan.rows
    eps, t = row.eps, row.times[-1]
    traj = phase_amplitude.solve_phase_amplitude(
        config.problem(eps), t, row.dt, variant=config.variant)
    drift = traj.mass_drift()
    tol = 1e-8 if config.variant != "full" else 1e-6
    verdicts = [_verdict("mass_conservation", drift <= tol,
                         f"relative drift {drift:.3e} <= {tol:g}")]
    body = {"eps": eps, "variant": config.variant, "dt": traj.dt,
            "mass_drift": drift,
            "tail_fraction_max": float(traj.tail_fraction.max())}
    if config.variant == "limit":
        body["euler_residual"] = phase_amplitude.euler_residual(traj)
    st = traj.final()
    dumps = [("amplitude", st.a, st.time), ("phase", st.phi, st.time)]
    return body, verdicts, [(eps, "", "mass_drift", drift)], dumps


def _run_nls(config: ExperimentConfig, plan: Plan) -> tuple:
    [row] = plan.rows
    eps, t = row.eps, row.times[-1]
    sol = nls.solve_nls(config.problem(eps), t, dt=row.dt)
    verdicts = [
        _verdict("mass_conservation", sol.mass_drift() <= 1e-10,
                 f"relative drift {sol.mass_drift():.3e} <= 1e-10"),
        _verdict("energy_drift", sol.energy_drift() <= 1e-6,
                 f"relative drift {sol.energy_drift():.3e} <= 1e-6"),
    ]
    body = {"eps": eps, "t": t, "mass_drift": sol.mass_drift(),
            "energy_drift": sol.energy_drift(), "dt": sol.dt}
    rows = [(eps, "", "mass_drift", sol.mass_drift()),
            (eps, "", "energy_drift", sol.energy_drift())]
    return body, verdicts, rows, [("reference_state", sol.final(), t)]


# ---------------------------------------------------------------------------
# the drivers, one record per value of ExperimentConfig.driver; their order
# is that of the solvers and targets in NAMED and of the CLI subcommands

DRIVERS = {
    "rays": Driver("single", _run_rays, None, march_dt=1e-3, rays="march"),
    "wkb": Driver("single", _run_wkb, (1.0, 2.0), rays="wkb",
                  keys=("data.a1", "output.dump_fields")),
    "grenier": Driver("single", _run_grenier, (0.0,), march_dt=2e-3,
                      keys=("data.a1", "variant", "output.dump_fields")),
    "nls": Driver("single", _run_nls, SUPPORTED_KAPPA,
                  keys=("data.a1", "output.dump_fields")),
    "supercritical_leading": Driver(
        "converge", _run_supercritical, (0.0,), march_dt=2e-3,
        keys=("data.a1",)),
    "supercritical_corrector": Driver(
        "converge", partial(_run_supercritical, corrector_mode=True), (0.0,),
        march_dt=2e-3, keys=("data.a1",), checks=(_needs_a1,)),
    "critical": Driver("converge", _run_profile, (1.0,), rays="wkb"),
    "subcritical": Driver("converge", _run_profile, (2.0,), rays="wkb"),
    "skew_free": Driver("converge", _run_skew_free, (0.0,), march_dt=2.5e-3,
                        times="schedule", schedule=(0.05, 0.1, 0.2, 0.3)),
    "instability": Driver(
        "instability", _run_instability, (0.0,), times="instability",
        keys=("data.b0", "instability"),
        flat=True, checks=(_check_instability,)),
    "normgrowth": Driver(
        "normgrowth", _run_normgrowth, (0.0,),
        keys=("growth.exponents",),
        flat=True, checks=(_check_normgrowth,)),
    "odewindow": Driver("odewindow", _run_odewindow, (0.0,), times="eps_powers",
                        schedule=(0.6, 0.45, 0.3, 0.2), flat=True),
}


KINDS = tuple(sorted({d.kind for d in DRIVERS.values()}))
# kind -> the key that selects its driver; a kind of one driver has none
SELECTORS = {"single": "solver", "converge": "target"}
# selector key -> the drivers it names, in table order
NAMED = {key: tuple(name for name, d in DRIVERS.items() if d.kind == kind)
         for kind, key in SELECTORS.items()}


def run_experiment(config: ExperimentConfig, plan: Plan) -> ExperimentResult:
    """Run the driver of `config`, a config from `config_from_dict`, on
    `plan`, which `Plan.build` made of it; the field dumps are kept under
    output.dump_fields."""
    body, verdicts, rows, dumps = DRIVERS[config.driver].run(config, plan)
    report = {"kind": config.kind, "config": asdict(config), "verdicts": verdicts,
              "passed": all(v["passed"] for v in verdicts), **body}
    dumps = list(dumps) if config.output.dump_fields else []
    return ExperimentResult(report=report, csv_rows=rows, field_dumps=dumps)
