"""The stages of the single-run and convergence drivers, the verdicts that
every driver's stages share, and the one failure rule of a sweep.

A driver of the experiments module is an ordered tuple of named stages,
one module-level tuple of (name, body) pairs such as PROFILE, and
`experiments.run_experiment` calls their bodies in order as
body(config, plan, run), where `run` is the namespace that the stages of
one run share.  A "rays" stage traces the rays the driver needs.  A
"solve" stage runs the solves; a sweep's outcomes go to run.sweeps, one
list per sweep with one outcome per eps in config order, where a failed
solve is its error.  After the solve stage the runner applies the failure
rule to them: it raises the first failed outcome (`_raise_failed`), or,
for a driver that records an under-resolved eps, puts the row
{"eps", "resolved": False, "detail"} in place of each ResolutionError
and lists its eps in run.flagged (`_flag_unresolved`).  The "measure"
stage appends its verdicts to run.verdicts and its slope fits to
run.fits, which the runner starts empty, and sets run.body, the report
body; it may set run.dumps, the field dumps, and run.csv_rows, the
errors.csv rows that the body does not hold.  No body touches the
filesystem.
"""
from __future__ import annotations

import math
from itertools import chain

from . import nls, phase_amplitude, rays, wkb
from .errors import ResolutionError
from .fields import RealField, l2_linf_norm, sobolev_norm
from .fitting import fit_power_law
from .problem import March

SOBOLEV_ORDERS = (0, 1, 2)    # the H^s norms of the convergence and instability runs


def _verdict(name: str, passed: bool, detail: str) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def _data_verdict(name: str, data: list, passed: bool, detail: str) -> dict:
    """The verdict `name` on `data`; with no data it fails, with detail
    "no data", whatever `passed` says of the empty list."""
    return _verdict(name, passed, detail) if data else _verdict(name, False, "no data")


def _final_error_verdict(errors: list, ref_norm: float) -> dict:
    """The verdict that the last of the WKB `errors` lies below 0.05 times
    `ref_norm`, the L2/Linf norm of a0."""
    threshold = 0.05 * ref_norm
    return _data_verdict("final_error_small", errors,
                         bool(errors and errors[-1] < threshold),
                         f"error {errors[-1] if errors else None} vs "
                         f"0.05*|a0| = {threshold}")


def _raise_failed(*sweeps) -> None:
    """Raise the first error among the outcomes of sweeps over the same eps:
    eps by eps in config order, and at one eps in the order the sweeps are
    given.  That is the error the solves, run one after the other, raise."""
    for outcome in chain.from_iterable(zip(*sweeps)):
        if isinstance(outcome, Exception):
            raise outcome


def _flag_unresolved(eps_list, run) -> None:
    """Record each eps of the one sweep of `run` whose solve ended in a
    ResolutionError: its outcome becomes the row {"eps", "resolved": False,
    "detail"}, and its eps joins run.flagged.  Any other error is raised
    first."""
    [outcomes] = run.sweeps
    _raise_failed([out for out in outcomes if not isinstance(out, ResolutionError)])
    run.sweeps = ([{"eps": eps, "resolved": False, "detail": str(out)}
                   if isinstance(out, ResolutionError) else out
                   for eps, out in zip(eps_list, outcomes)],)
    run.flagged = [eps for eps, out in zip(eps_list, outcomes)
                   if isinstance(out, ResolutionError)]


def _rows(eps_list, outcomes, measure) -> list:
    """The per-eps rows of a sweep that flags an under-resolved eps: its
    flagged row, or measure(eps, outcome)."""
    return [out if isinstance(out, dict) else measure(eps, out)
            for eps, out in zip(eps_list, outcomes)]


def _slope_verdict(run, key: str, x, y, expected: float,
                   window: tuple[float, float], name: str | None = None,
                   detail: str = "slope {} in {window}",
                   min_points: int = 4) -> None:
    """Fit y ~ x^slope into run.fits[key] and append to run.verdicts the
    verdict `name` (by default `key`) that the slope lies in `window`.  Its
    detail is `detail` formatted with the slope (None below `min_points`
    points) and the window."""
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
    run.fits[key] = block
    run.verdicts.append(_verdict(name or key, block["passed"],
                                 detail.format(block["slope"], window=window)))


# ---------------------------------------------------------------------------
# convergence drivers


def _supercritical_solve(config, plan, run) -> None:
    """The full phase-amplitude sweep, and the eps -> 0 limit (marched with
    its first-order corrector for the corrector target).  The march takes
    one dt for every eps, and only the final states are read."""
    first = plan.rows[0]
    t, dt = first.times[-1], first.dt
    limit_problem = config.problem(config.eps[0])
    if config.driver == "supercritical_corrector":
        run.limit = phase_amplitude.solve_corrector(limit_problem, t, dt,
                                                    store_every=first.steps).final()
    else:
        run.limit = phase_amplitude.solve_phase_amplitude(
            limit_problem, t, dt, variant="limit",
            store_every=first.steps).final()
    run.sweeps = (phase_amplitude.solve_phase_amplitude_sweep(
        [config.problem(eps) for eps in config.eps], t, dt, variant="full",
        store_every=first.steps),)


def _supercritical_measure(config, plan, run) -> None:
    """The sweep against the limit, or in corrector mode against the limit
    plus eps times its corrector."""
    t, dt = plan.rows[0].times[-1], plan.rows[0].dt
    corrector_mode = config.driver == "supercritical_corrector"
    lim = run.limit

    def measure(eps, traj):
        st = traj.final()
        da, dphi = st.a - lim.a, st.phi.values - lim.phi.values
        if corrector_mode:
            da, dphi = da - eps * lim.a1, dphi - eps * lim.phi1.values
        dphi = RealField(st.grid, dphi, role="phase-gap")
        return {"eps": eps, "resolved": True, "mass_drift": traj.mass_drift(),
                "errors": {s: {"a": sobolev_norm(da, s), "phi": sobolev_norm(dphi, s)}
                           for s in SOBOLEV_ORDERS}}

    rows = _rows(config.eps, *run.sweeps, measure)
    resolved = [r for r in rows if r["resolved"]]
    eps_used = [r["eps"] for r in resolved]
    if corrector_mode:
        sums = [sum(r["errors"][s]["a"] + r["errors"][s]["phi"]
                    for s in SOBOLEV_ORDERS) for r in resolved]
        _slope_verdict(run, "corrector_combined", eps_used, sums,
                       2.0, (1.7, 2.3), name="corrector_combined_slope")
    else:
        for s in SOBOLEV_ORDERS:
            _slope_verdict(run, f"a_H{s}", eps_used,
                           [r["errors"][s]["a"] for r in resolved],
                           1.0, (0.8, 1.2), name=f"amplitude_H{s}_slope")
            _slope_verdict(run, f"phi_H{s}_over_t", eps_used,
                           [r["errors"][s]["phi"] / t for r in resolved],
                           1.0, (0.8, 1.2), name=f"phase_H{s}_slope")
        # the body holds the phase errors, not these errors over t
        run.csv_rows = [(r["eps"], s, "phi_H_over_t", r["errors"][s]["phi"] / t)
                        for r in resolved for s in SOBOLEV_ORDERS]
    run.body = {"t": t, "dt": dt, "per_eps": rows, "fits": run.fits,
                "under_resolved": run.flagged}


SUPERCRITICAL = (("solve", _supercritical_solve), ("measure", _supercritical_measure))


def _skew_free_solve(config, plan, run) -> None:
    """The full and the skew-free phase-amplitude sweeps.  One dt and one
    schedule serve every eps; the driver's dt divides each schedule time,
    so storing every `stride` steps keeps a state at each."""
    first = plan.rows[0]
    times, dt = first.times, first.dt
    stride = math.gcd(*(March(tt, dt).steps for tt in times))
    problems = [config.problem(eps) for eps in config.eps]
    run.sweeps = tuple(phase_amplitude.solve_phase_amplitude_sweep(
        problems, times[-1], dt, variant=variant, store_every=stride)
        for variant in ("full", "skew_free"))


def _skew_free_measure(config, plan, run) -> None:
    """The phase gap between the two sweeps, against eps and against t."""
    times, dt = list(plan.rows[0].times), plan.rows[0].dt
    rows = []
    for eps, full, free in zip(config.eps, *run.sweeps):
        errors = {}
        for tt in times:
            sf = full.state_at(tt)
            sk = free.state_at(tt)
            gap = RealField(sf.grid, sf.phi.values - sk.phi.values,
                            role="phase-gap")
            errors[tt] = {s: sobolev_norm(gap, s) for s in SOBOLEV_ORDERS}
        rows.append({"eps": eps, "errors": errors})
    eps_used = [r["eps"] for r in rows]
    for s in SOBOLEV_ORDERS:
        _slope_verdict(run, f"eps_slope_H{s}", eps_used,
                       [r["errors"][times[-1]][s] for r in rows], 1.0, (0.8, 1.2))
    for r in rows:
        _slope_verdict(run, f"t_slope_H0_eps{r['eps']:g}",
                       times, [r["errors"][tt][0] for tt in times],
                       2.0, (1.7, 2.3), detail="t-slope {} in {window}",
                       min_points=min(4, len(times)))
    run.body = {"times": times, "dt": dt, "per_eps": rows, "fits": run.fits,
                "under_resolved": []}


SKEW_FREE = (("solve", _skew_free_solve), ("measure", _skew_free_measure))


def _profile_rays(config, plan, run) -> None:
    """The WKB profile at the final time: critical (kappa=1) or sub-critical
    (kappa=2).  It does not depend on eps, so one bundle and one profile
    serve every eps of a sweep, and a profile that cannot be built fails
    before the NLS sweep runs.  The profile reads the final ray node alone,
    so the bundle stores only that node and the first."""
    problem, row = config.problem(config.eps[0]), plan.rows[0]
    t, ray_dt = row.times[-1], row.ray_dt
    run.profile = wkb.build_approximant(problem, rays.integrate_flow(
        problem, problem.a0.grid, t, dt=ray_dt, store_every=March(t, ray_dt).steps), t)


def _nls_sweep_solve(config, plan, run) -> None:
    """The NLS sweep over every eps, to the final time."""
    run.problems = [config.problem(eps) for eps in config.eps]
    run.sweeps = (nls.solve_nls_sweep(run.problems, plan.rows[0].times[-1],
                                      plan.dts),)


def _profile_measure(config, plan, run) -> None:
    """The NLS sweep against the profile in the combined L2/Linf metric."""
    t = plan.rows[0].times[-1]
    profile = run.profile
    critical = profile.regime == "critical"

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

    rows = _rows(config.eps, *run.sweeps, measure)
    resolved = [r for r in rows if r["resolved"]]
    errors = [r["error"] for r in resolved]
    ref_norm = l2_linf_norm(run.problems[0].a0)

    monotone = all(b < a for a, b in zip(errors, errors[1:]))
    run.verdicts += [
        _data_verdict("error_decreases", errors, monotone,
                      f"errors across eps grid: {errors}"),
        _final_error_verdict(errors, ref_norm)]
    if not critical:
        budget_ok = all(r["modulation_size"] <= r["error"] for r in resolved)
        run.verdicts.append(_data_verdict(
            "modulation_below_error", resolved, budget_ok,
            "slow-phase correction stays below the measured error"))
    run.body = {"t": t, "per_eps": rows, "reference_norm": ref_norm,
                "fits": {}, "under_resolved": run.flagged}


PROFILE = (("rays", _profile_rays), ("solve", _nls_sweep_solve),
           ("measure", _profile_measure))


# ---------------------------------------------------------------------------
# single-run drivers: one eps, one solver


def _ray_march(config, plan, run) -> None:
    """The march of the rays, which takes the eikonal residual node by node
    and stores only its first and final nodes."""
    [row] = plan.rows
    problem = config.problem(row.eps)
    run.residual = rays.HamiltonJacobiResidual(problem, problem.a0.grid)
    run.bundle = rays.integrate_flow(problem, problem.a0.grid, row.times[-1],
                                     dt=row.dt, store_every=row.steps,
                                     visit=run.residual.add)


def _rays_measure(config, plan, run) -> None:
    """The eikonal residual of the march and the Jacobian consistency of
    its final node."""
    [row] = plan.rows
    bundle = run.bundle
    residual = run.residual.value()
    consistency = rays.jacobian_consistency(bundle, row.times[-1])
    run.verdicts += [
        _verdict("eikonal_residual", residual <= 1e-6,
                 f"sup residual {residual:.3e} <= 1e-6"),
        _verdict("jacobian_consistency", consistency <= 1e-6,
                 f"relative defect {consistency:.3e} <= 1e-6"),
    ]
    run.body = {"eps": row.eps, "caustic_time": bundle.t_caustic,
                "min_jacobian": bundle.min_jacobian[::10].tolist(),
                "hamilton_jacobi_residual": residual,
                "jacobian_consistency": consistency}


RAYS = (("rays", _ray_march), ("measure", _rays_measure))


def _nls_solve(config, plan, run) -> None:
    [row] = plan.rows
    run.solution = nls.solve_nls(config.problem(row.eps), row.times[-1], dt=row.dt)


def _wkb_measure(config, plan, run) -> None:
    """The NLS solution against the WKB approximant, with the final-error
    verdict of the convergence drivers."""
    [row] = plan.rows
    eps, t = row.eps, row.times[-1]
    profile, sol = run.profile, run.solution
    approx = profile.assemble(eps)
    err = l2_linf_norm(sol.final() - approx)
    run.verdicts.append(_final_error_verdict([err], l2_linf_norm(sol.problem.a0)))
    run.body = {"eps": eps, "t": t, "error_L2Linf": err,
                "regime": profile.regime, "horizon": profile.horizon,
                "mass_drift": sol.mass_drift()}
    run.dumps = [("wkb_approximant", approx, t), ("reference_state", sol.final(), t)]


WKB = (("rays", _profile_rays), ("solve", _nls_solve), ("measure", _wkb_measure))


def _grenier_solve(config, plan, run) -> None:
    """The eps -> 0 limit march of the phase-amplitude system."""
    [row] = plan.rows
    run.trajectory = phase_amplitude.solve_phase_amplitude(
        config.problem(row.eps), row.times[-1], row.dt, variant="limit")


def _grenier_measure(config, plan, run) -> None:
    """The mass drift of the limit march and its Euler residual."""
    traj = run.trajectory
    drift = traj.mass_drift()
    run.verdicts.append(_verdict("mass_conservation", drift <= 1e-8,
                                 f"relative drift {drift:.3e} <= 1e-08"))
    run.body = {"eps": plan.rows[0].eps, "dt": traj.dt,
                "mass_drift": drift,
                "tail_fraction_max": float(traj.tail_fraction.max()),
                "euler_residual": phase_amplitude.euler_residual(traj)}
    st = traj.final()
    run.dumps = [("amplitude", st.a, st.time), ("phase", st.phi, st.time)]


GRENIER = (("solve", _grenier_solve), ("measure", _grenier_measure))


def _nls_measure(config, plan, run) -> None:
    [row] = plan.rows
    sol = run.solution
    run.verdicts += [
        _verdict("mass_conservation", sol.mass_drift() <= 1e-10,
                 f"relative drift {sol.mass_drift():.3e} <= 1e-10"),
        _verdict("energy_drift", sol.energy_drift() <= 1e-6,
                 f"relative drift {sol.energy_drift():.3e} <= 1e-6"),
    ]
    run.body = {"eps": row.eps, "t": row.times[-1], "mass_drift": sol.mass_drift(),
                "energy_drift": sol.energy_drift(), "dt": sol.dt}
    run.dumps = [("reference_state", sol.final(), row.times[-1])]


NLS = (("solve", _nls_solve), ("measure", _nls_measure))
