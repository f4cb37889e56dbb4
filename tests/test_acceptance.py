"""Acceptance gate: the eleven headline checks, one pass/fail line each.

Each test prints `criterion NN <name>: PASS|FAIL [detail]` (visible with
pytest -s, or in the failure report) and asserts the same condition, so
`pytest -v tests/test_acceptance.py` reads as the scorecard.  Experiment
criteria run the shipped configs from configs/ end to end, through the
session fixtures of conftest.py that the golden test shares.
"""
import numpy as np
import pytest

from nlswkb import phase_amplitude, rays, taylor
from nlswkb.fitting import fit_power_law
from nlswkb.grids import PeriodicGrid
from nlswkb.instability import flow_exponents
from nlswkb.nls import solve_nls
from nlswkb.potentials import InitialPhaseSpec, PotentialSpec
from nlswkb.problem import SemiclassicalProblem, gaussian_field


def verdicts(result):
    return {v["name"]: v for v in result.report["verdicts"]}


def check(num, name, ok, detail):
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} [{detail}]"
    print(line)
    assert ok, line


def flat_problem(eps, size=1024):
    grid = PeriodicGrid(32.0, size)
    return SemiclassicalProblem(eps=eps, kappa=0.0,
                                a0=gaussian_field(grid, 1.0, 1.0),
                                potential=PotentialSpec.zero(),
                                phase=InitialPhaseSpec.zero())


def streamed_residual(problem, markers, t_final, window):
    """The eikonal residual on `window`, taken during a march of dt 1e-3."""
    residual = rays.HamiltonJacobiResidual(problem, window)
    rays.integrate_flow(problem, markers, t_final, dt=1e-3, visit=residual.add)
    return residual.value()


def test_criterion_01_ray_oracle():
    markers = PeriodicGrid(128.0, 512)
    window = PeriodicGrid(32.0, 256)
    harmonic = SemiclassicalProblem(eps=1e-2, kappa=0.0,
                                    a0=gaussian_field(markers, 1.0, 1.0),
                                    potential=PotentialSpec.harmonic(1.0),
                                    phase=InitialPhaseSpec.zero())
    residual = rays.HamiltonJacobiResidual(harmonic, window)
    bundle = rays.integrate_flow(harmonic, markers, 1.8, dt=1e-3,
                                 visit=residual.add)
    it = bundle.time_index(1.0)
    t = bundle.times[it]
    ray_err = max(
        np.max(np.abs(bundle.x[it] - bundle.y * np.cos(t))),
        np.max(np.abs(bundle.jac[it] - np.cos(t))))
    caustic_err = abs(rays.caustic_time(bundle, threshold=1e-12) - np.pi / 2)

    residuals = [residual.value()]

    free_markers = PeriodicGrid(128.0, 1024)
    free = SemiclassicalProblem(eps=1e-2, kappa=0.0,
                                a0=gaussian_field(free_markers, 1.0, 1.0),
                                potential=PotentialSpec.zero(),
                                phase=InitialPhaseSpec.quadratic(-1.0))
    residuals.append(streamed_residual(free, free_markers, 0.6, window))

    cosine = SemiclassicalProblem(eps=1e-2, kappa=0.0,
                                  a0=gaussian_field(window, 1.0, 1.0),
                                  potential=PotentialSpec.cosine(0.5, 32.0, 1),
                                  phase=InitialPhaseSpec.zero())
    residuals.append(streamed_residual(cosine, window, 0.3, window))

    ok = (ray_err <= 1e-8 and caustic_err <= 1e-8
          and all(r <= 1e-6 for r in residuals))
    check(1, "ray_oracle", ok,
          f"ray/jacobian err {ray_err:.2e}, caustic err {caustic_err:.2e}, "
          f"eikonal residuals {[f'{r:.2e}' for r in residuals]}")


def test_criterion_02_critical_regime(critical_result):
    v = verdicts(critical_result)
    rows = [r for r in critical_result.report["per_eps"] if r["resolved"]]
    errors = [r["error"] for r in rows]
    threshold = 0.05 * critical_result.report["reference_norm"]
    ok = v["error_decreases"]["passed"] and v["final_error_small"]["passed"]
    check(2, "critical_self_modulation", ok,
          f"errors {[f'{e:.3e}' for e in errors]} monotone, "
          f"final {errors[-1]:.3e} < {threshold:.3e}")


def test_criterion_03_subcritical_regime(subcritical_result):
    v = verdicts(subcritical_result)
    rows = [r for r in subcritical_result.report["per_eps"] if r["resolved"]]
    ok = (v["error_decreases"]["passed"] and v["final_error_small"]["passed"]
          and v["modulation_below_error"]["passed"])
    check(3, "subcritical_free_profile", ok,
          f"final error {rows[-1]['error']:.3e}, slow-phase correction "
          f"{rows[-1]['modulation_size']:.3e} below it")


def test_criterion_04_supercritical_leading_rates(supercritical_result):
    v = verdicts(supercritical_result)
    fits = supercritical_result.report["fits"]
    names = [f"{kind}_H{s}_slope" for s in (0, 1, 2)
             for kind in ("amplitude", "phase")]
    ok = all(v[name]["passed"] for name in names)
    slopes = {key: round(fits[key]["slope"], 3)
              for key in sorted(fits) if fits[key].get("slope") is not None}
    check(4, "supercritical_leading_rates", ok, f"eps-slopes {slopes}")


def test_criterion_05_corrector_rate(corrector_result):
    v = verdicts(corrector_result)
    slope = corrector_result.report["fits"]["corrector_combined"]["slope"]
    check(5, "corrector_rate", v["corrector_combined_slope"]["passed"],
          f"combined first-order remainder slope {slope:.3f} in [1.7, 2.3]")


def test_criterion_06_phase_shift_vanishes():
    corr = phase_amplitude.solve_corrector(flat_problem(1e-2), 0.2, 2e-3,
                                           store_every=5)
    worst = max(np.max(np.abs(st.phi1.values)) for st in corr.states)
    check(6, "phase_shift_vanishes", worst <= 1e-10,
          f"real data, no first-order correction: sup |phi1| = {worst:.2e}")


def test_criterion_07_skew_free_comparison(skewfree_result):
    v = verdicts(skewfree_result)
    fits = skewfree_result.report["fits"]
    eps_names = [f"eps_slope_H{s}" for s in (0, 1, 2)]
    t_names = [name for name in v if name.startswith("t_slope_")]
    ok = all(v[n]["passed"] for n in eps_names + t_names)
    eps_slopes = [round(fits[n]["slope"], 3) for n in eps_names]
    t_slopes = [round(fits[n]["slope"], 3) for n in t_names]
    check(7, "skew_free_comparison", ok,
          f"eps-slopes {eps_slopes} in [0.8, 1.2], "
          f"t-slopes {t_slopes} in [1.7, 2.3]")


def test_criterion_08_taylor_remainders():
    problem = flat_problem(1e-2)
    coeffs = taylor.taylor_phase_coefficients(problem.initial_amplitude(), 3)
    traj = phase_amplitude.solve_phase_amplitude(
        problem, 0.2, 2e-4, variant="skew_free", store_every=250)
    ts = [0.2, 0.1, 0.05]
    slopes = {}
    for order in (1, 2, 3):
        rems = [np.max(np.abs(traj.state_at(t).phi.values
                              - taylor.phase_sum(coeffs, t, order=order).values))
                for t in ts]
        slopes[order] = fit_power_law(np.array(ts), np.array(rems)).slope
    ok = all(abs(slopes[k] - (2 * k + 1)) <= 0.3 for k in slopes)
    check(8, "taylor_remainders", ok,
          f"t-slopes {({k: round(s, 2) for k, s in slopes.items()})} "
          f"vs targets {{1: 3, 2: 5, 3: 7}} within 0.3")


def test_criterion_09_instability(instability_result):
    v = verdicts(instability_result)
    names = ["separation_persists", "data_distance_H1_slope",
             "blowup_ratio_monotone", "prediction_agreement"]
    ok = all(v[n]["passed"] for n in names)
    rows = instability_result.report["per_eps"]
    finals = [round(r["separation_final"], 3) for r in rows]
    slope = instability_result.report["fits"]["distance_H1"]["slope"]
    check(9, "instability", ok,
          f"separations {finals} persist, data-distance slope {slope:.3f} "
          f"in [0.45, 0.55], blow-up ratios monotone")


def test_criterion_10_norm_growth(normgrowth_result):
    v = verdicts(normgrowth_result)
    ok = (v["compensated_spread_m1"]["passed"]
          and v["compensated_spread_m2"]["passed"]
          and v["mass_eps_independent"]["passed"])
    spreads = normgrowth_result.report["spreads"]
    expo = normgrowth_result.report["exponents"]
    exact = (expo["exponent"] == -0.0625 and expo["diverges"] is True
             and flow_exponents(3, 0.25, 0.2)["exponent"] == 0.0)
    check(10, "norm_growth", ok and exact,
          f"compensated spreads {({m: round(s, 2) for m, s in spreads.items()})} "
          f"<= 4, exponent algebra exact ({expo['exponent']})")


def test_criterion_11_solver_hygiene(normgrowth_result, instability_result,
                                     step_audit):
    drifts = [r["mass_drift"] for r in normgrowth_result.report["per_eps"]]
    drifts += [r["mass_drift"] for r in instability_result.report["per_eps"]]
    grid = PeriodicGrid(32.0, 1024)
    problem = SemiclassicalProblem(eps=1e-2, kappa=1.0,
                                   a0=gaussian_field(grid, 1.0, 1.0),
                                   potential=PotentialSpec.zero(),
                                   phase=InitialPhaseSpec.zero())
    sol = solve_nls(problem, 0.2)
    drifts.append(sol.mass_drift())
    mass_ok = all(d <= 1e-10 for d in drifts)

    audit = step_audit
    audit_ok = abs(audit["slope"] - 2.0) <= 0.2 and audit["r2"] >= 0.99

    coarse = phase_amplitude.solve_phase_amplitude(
        flat_problem(1e-2), 0.1, 4e-3, variant="limit")
    fine = phase_amplitude.solve_phase_amplitude(
        flat_problem(1e-2), 0.1, 2e-3, variant="limit")
    ratio = (phase_amplitude.euler_residual(coarse)["max"]
             / phase_amplitude.euler_residual(fine)["max"])
    euler_ok = 3.0 <= ratio <= 5.0

    check(11, "solver_hygiene", mass_ok and audit_ok and euler_ok,
          f"max mass drift {max(drifts):.2e} <= 1e-10, step slope "
          f"{audit['slope']:.3f} (r2 {audit['r2']:.6f}), Euler residual "
          f"halving ratio {ratio:.2f} in [3, 5]")
