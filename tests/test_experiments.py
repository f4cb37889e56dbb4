"""Config schema, fits, exponent algebra, artifacts, and the CLI contract."""
import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlswkb import nls, phase_amplitude, rays
from nlswkb.cli import main
from nlswkb.errors import ConfigError
from nlswkb.experiments import (apply_overrides, config_from_dict,
                                dry_run_plan, flow_exponents, run_experiment)
from nlswkb.fitting import fit_power_law
from nlswkb.reporting import (errors_csv_bytes, load_field_dump,
                              write_artifacts)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def cheap_nls_raw(**extra):
    raw = {"kind": "single", "solver": "nls", "eps": [0.05], "kappa": 1.0,
           "grid": {"size": 256}, "time": {"final": 0.05}}
    raw.update(extra)
    return raw


class TestPowerLawFit:
    def test_exact_recovery_on_synthetic_data(self):
        x = np.array([0.1, 0.05, 0.02, 0.01])
        fit = fit_power_law(x, 3.7 * x ** 1.5)
        assert fit.slope == pytest.approx(1.5, abs=1e-12)
        assert fit.prefactor == pytest.approx(3.7, rel=1e-12)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(fit.predict(x), 3.7 * x ** 1.5, rtol=1e-10)

    def test_rejects_nonpositive_data(self):
        with pytest.raises(ConfigError):
            fit_power_law([0.1, 0.05, 0.02], [1.0, 0.0, 0.1])
        with pytest.raises(ConfigError):
            fit_power_law([0.1, -0.05, 0.02], [1.0, 0.5, 0.1])

    def test_rejects_short_or_mismatched_input(self):
        with pytest.raises(ConfigError):
            fit_power_law([0.1, 0.05], [1.0, 0.5])
        with pytest.raises(ConfigError):
            fit_power_law([0.1, 0.05, 0.02], [1.0, 0.5])

    @settings(max_examples=30, deadline=None)
    @given(magnitude=st.floats(0.05, 3), sign=st.sampled_from([-1.0, 1.0]),
           prefactor=st.floats(0.1, 10))
    def test_recovers_any_power_law(self, magnitude, sign, prefactor):
        # slope bounded away from 0 so the log-variance is not pure roundoff
        slope = sign * magnitude
        x = np.array([1.0, 0.3, 0.1, 0.03, 0.01])
        fit = fit_power_law(x, prefactor * x ** slope)
        assert fit.slope == pytest.approx(slope, abs=1e-9)
        assert fit.r2 == pytest.approx(1.0, abs=1e-9)


class TestFlowExponents:
    def test_reference_values(self):
        out = flow_exponents(3, 0.25, 0.25)
        assert out["exponent"] == -0.0625
        assert out["diverges"] is True
        assert out["k_lower"] == pytest.approx(0.2)
        out = flow_exponents(4, 0.5, 0.5)
        assert out["exponent"] == -0.25
        assert out["diverges"] is True
        assert out["k_lower"] == pytest.approx(1.0 / 3.0)

    def test_window_boundary_is_exact(self):
        # factored form s - k(n/2 - s) vanishes exactly at k = s/(n/2 - s)
        out = flow_exponents(3, 0.25, 0.2)
        assert out["exponent"] == 0.0
        assert out["diverges"] is False

    def test_argument_validation(self):
        with pytest.raises(ConfigError):
            flow_exponents(2, 0.25, 0.25)
        with pytest.raises(ConfigError):
            flow_exponents(3, 0.5, 0.25)
        with pytest.raises(ConfigError):
            flow_exponents(3, 0.0, 0.25)


class TestConfigSchema:
    @pytest.mark.parametrize("name", [p.name for p in sorted(CONFIG_DIR.glob("*.json"))])
    def test_shipped_configs_round_trip(self, name):
        with open(CONFIG_DIR / name, encoding="utf-8") as fh:
            raw = json.load(fh)
        cfg = config_from_dict(raw)
        again = config_from_dict(cfg.to_dict())
        assert again == cfg
        json.dumps(cfg.to_dict())

    def test_chirp_survives_serialization(self):
        raw = cheap_nls_raw(data={"a0": {"shape": "gaussian", "chirp": 0.5}})
        cfg = config_from_dict(raw)
        assert cfg.a0.chirp == 0.5
        assert config_from_dict(cfg.to_dict()).a0.chirp == 0.5

    def test_unknown_keys_rejected_at_every_level(self):
        with pytest.raises(ConfigError):
            config_from_dict(cheap_nls_raw(typo=1))
        with pytest.raises(ConfigError):
            config_from_dict(cheap_nls_raw(time={"final": 0.05, "stepsize": 1}))
        with pytest.raises(ConfigError):
            config_from_dict(cheap_nls_raw(
                data={"a0": {"shape": "gaussian", "sigma": 2.0}}))
        with pytest.raises(ConfigError):
            config_from_dict(cheap_nls_raw(
                growth={"exponents": {"n": 3, "p": 1}}))

    def test_eps_list_discipline(self):
        with pytest.raises(ConfigError):
            config_from_dict(cheap_nls_raw(eps=[]))
        with pytest.raises(ConfigError):
            config_from_dict(cheap_nls_raw(eps=[0.01, 0.05]))
        with pytest.raises(ConfigError):
            config_from_dict(cheap_nls_raw(eps=[0.05, -0.01]))
        with pytest.raises(ConfigError):
            config_from_dict(cheap_nls_raw(eps=[1.5]))

    def test_kappa_and_grid_validation(self):
        with pytest.raises(ConfigError):
            config_from_dict(cheap_nls_raw(kappa=0.5))
        with pytest.raises(ConfigError):
            config_from_dict(cheap_nls_raw(grid={"size": 300}))

    def test_converge_target_fixes_kappa(self):
        raw = {"kind": "converge", "target": "critical", "eps": [0.1, 0.05],
               "kappa": 0.0}
        with pytest.raises(ConfigError):
            config_from_dict(raw)

    def test_chirp_requires_gaussian_envelope(self):
        raw = cheap_nls_raw(
            data={"a0": {"shape": "constant", "chirp": 0.3}})
        with pytest.raises(ConfigError):
            config_from_dict(raw)

    def instability_raw(self, alpha):
        return {"kind": "instability", "eps": [0.01], "kappa": 0.0,
                "data": {"b0": {"shape": "gaussian"}},
                "instability": {"alpha": alpha, "window_order": 2}}

    def test_alpha_window_boundary_is_inclusive(self):
        config_from_dict(self.instability_raw(0.5))
        with pytest.raises(ConfigError):
            config_from_dict(self.instability_raw(0.51))
        with pytest.raises(ConfigError):
            config_from_dict(self.instability_raw(0.0))

    def test_normgrowth_resolution_rule(self):
        raw = {"kind": "normgrowth", "eps": [0.1, 0.05, 0.02, 0.01, 0.005],
               "kappa": 0.0, "grid": {"size": 1024}}
        with pytest.raises(ConfigError, match="grid size >= 1600"):
            config_from_dict(raw)
        raw["grid"]["size"] = 2048
        config_from_dict(raw)


class TestOverrides:
    def test_dotted_path_updates_nested_value(self):
        raw = {"time": {"final": 0.2, "rule": "fixed"}}
        out = apply_overrides(raw, ["time.final=0.3"])
        assert out["time"] == {"final": 0.3, "rule": "fixed"}
        assert raw["time"]["final"] == 0.2

    def test_missing_intermediate_nodes_created(self):
        out = apply_overrides({}, ["grid.size=512"])
        assert out == {"grid": {"size": 512}}

    def test_values_parse_as_json_with_string_fallback(self):
        out = apply_overrides({}, ["eps=[0.1, 0.05]", "target=critical"])
        assert out["eps"] == [0.1, 0.05]
        assert out["target"] == "critical"

    def test_malformed_override_rejected(self):
        with pytest.raises(ConfigError):
            apply_overrides({}, ["no-equals-sign"])


class _SolverReached(Exception):
    """Raised by a patched solver entry point to stop the driver."""

    def __init__(self, eps, dt):
        super().__init__(f"solver reached at eps={eps} with dt={dt}")
        self.eps, self.dt = eps, dt


def _solver_entry(cfg):
    """(module, function name, position of dt) of the driver's time stepper."""
    if (cfg.kind, cfg.solver) == ("single", "rays"):
        return rays, "integrate_flow", 3
    if ((cfg.kind, cfg.solver) == ("single", "grenier")
            or cfg.target in ("supercritical_leading",
                              "supercritical_corrector", "skew_free")):
        return phase_amplitude, "solve_phase_amplitude", 2
    return nls, "solve_nls", 2


def _shipped_raw(name, overrides=()):
    with open(CONFIG_DIR / name, encoding="utf-8") as fh:
        return apply_overrides(json.load(fh), list(overrides))


class TestDryRunPlan:
    @pytest.mark.parametrize("name, overrides", [
        *[(p.name, ()) for p in sorted(CONFIG_DIR.glob("*.json"))],
        ("skewfree.json", ("time.rule=eps_over",)),
        ("grenier.json", ("time.rule=eps_over",)),
    ])
    def test_planned_dt_is_the_dt_the_driver_runs(self, name, overrides,
                                                   monkeypatch):
        cfg = config_from_dict(_shipped_raw(name, overrides))
        planned = {e["eps"]: e["dt"] for e in dry_run_plan(cfg)["plan"]}
        module, fn, pos = _solver_entry(cfg)

        def stop(problem, *args, **kwargs):
            dt = kwargs["dt"] if "dt" in kwargs else args[pos - 1]
            raise _SolverReached(problem.eps, dt)

        monkeypatch.setattr(module, fn, stop)
        with pytest.raises(_SolverReached) as caught:
            run_experiment(cfg)
        assert caught.value.dt == planned[caught.value.eps]

    def test_skew_free_steps_run_to_the_last_schedule_time(self):
        raw = _shipped_raw("skewfree.json", ("time.schedule=[0.05, 0.1]",))
        entry = dry_run_plan(config_from_dict(raw))["plan"][0]
        assert entry["steps"] == round(0.1 / entry["dt"])

    def test_single_plan_counts_steps(self):
        plan = dry_run_plan(config_from_dict(cheap_nls_raw()))
        assert plan["kind"] == "single"
        entry = plan["plan"][0]
        assert entry["eps"] == 0.05
        assert entry["dt"] == pytest.approx(0.001)
        assert entry["steps"] == 50

    def test_instability_plan_reports_scales(self):
        raw = {"kind": "instability", "eps": [0.01], "kappa": 0.0,
               "data": {"b0": {"shape": "gaussian"}}}
        entry = dry_run_plan(config_from_dict(raw))["plan"][0]
        assert entry["delta"] == pytest.approx(0.1)
        assert entry["t_eps"] == pytest.approx(2.0 * 0.01 / 0.1)


class TestArtifacts:
    def test_reports_are_byte_deterministic(self, tmp_path):
        cfg = config_from_dict(cheap_nls_raw())
        paths = [write_artifacts(run_experiment(cfg), str(tmp_path / d),
                                 stamp=False) for d in ("a", "b")]
        for name in ("report.json", "errors.csv"):
            with open(paths[0][name], "rb") as fh:
                first = fh.read()
            with open(paths[1][name], "rb") as fh:
                second = fh.read()
            assert first == second

    def test_stamped_report_carries_timestamp(self, tmp_path):
        cfg = config_from_dict(cheap_nls_raw())
        paths = write_artifacts(run_experiment(cfg), str(tmp_path / "out"))
        with open(paths["report.json"], encoding="utf-8") as fh:
            report = json.load(fh)
        assert report["meta"]["format"] == "nlswkb-report-v1"
        assert "generated_at" in report["meta"]
        assert report["passed"] is True

    def test_csv_rows_sorted_and_parseable(self):
        rows = [(0.01, 1, "err", 2.0), (0.1, 0, "err", 1.0),
                (0.1, 1, "aaa", 3.0)]
        lines = errors_csv_bytes(rows).decode().splitlines()
        assert lines[0] == "epsilon,s,metric,value"
        assert lines[1].startswith("0.1,1,aaa")
        assert lines[2].startswith("0.1,0,err")
        assert lines[3].startswith("0.01,1,err")
        assert float(lines[1].split(",")[3]) == 3.0

    def test_field_dump_round_trip(self, tmp_path):
        cfg = config_from_dict(cheap_nls_raw(output={"dump_fields": True}))
        result = run_experiment(cfg)
        assert [d[0] for d in result.field_dumps] == ["reference_state"]
        paths = write_artifacts(result, str(tmp_path / "out"))
        base = paths["reference_state.bin"][:-len(".bin")]
        field, meta = load_field_dump(base)
        assert meta["time"] == 0.05
        assert meta["complex"] is True
        assert np.array_equal(field.values, result.field_dumps[0][1].values)


class TestCli:
    def write(self, tmp_path, raw, name="cfg.json"):
        path = tmp_path / name
        path.write_text(json.dumps(raw))
        return str(path)

    def test_missing_config_exits_2_without_artifacts(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = main(["nls", "--config", str(tmp_path / "absent.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_kind_mismatch_exits_2(self, tmp_path, capsys):
        raw = {"kind": "converge", "target": "critical",
               "eps": [0.1, 0.05], "kappa": 1.0}
        code = main(["nls", "--config", self.write(tmp_path, raw)])
        assert code == 2
        assert "does not match subcommand" in capsys.readouterr().err

    def test_dry_run_prints_plan_and_exits_0(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = main(["nls", "--config", self.write(tmp_path, cheap_nls_raw()),
                     "--dry-run"])
        assert code == 0
        plan = json.loads(capsys.readouterr().out)
        assert plan["plan"][0]["steps"] == 50
        assert not (tmp_path / "runs").exists()

    def test_runtime_error_exit_names_the_failure_time(self, tmp_path, capsys):
        # 64 nodes cannot hold the eps = 0.01 oscillation of configs/nls.json
        code = main(["nls", "--config", str(CONFIG_DIR / "nls.json"),
                     "--set", "grid.size=64", "--output", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "ResolutionError at t=0.2:" in err
        assert not (tmp_path / "out").exists()

    def test_set_override_reaches_the_plan(self, tmp_path, capsys):
        code = main(["nls", "--config", self.write(tmp_path, cheap_nls_raw()),
                     "--dry-run", "--set", "time.final=0.1"])
        assert code == 0
        plan = json.loads(capsys.readouterr().out)
        assert plan["plan"][0]["steps"] == 100

    def test_passing_run_exits_0_and_writes_report(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = main(["nls", "--config", self.write(tmp_path, cheap_nls_raw()),
                     "--output", str(out_dir)])
        assert code == 0
        assert "[PASS] mass_conservation" in capsys.readouterr().out
        assert (out_dir / "report.json").is_file()
        assert (out_dir / "errors.csv").is_file()

    def test_failing_verdict_exits_1(self, tmp_path, capsys):
        # three eps points cannot support the four-point slope fit, so the
        # convergence verdicts must fail while the run itself completes
        raw = {"kind": "converge", "target": "skew_free",
               "eps": [0.1, 0.05, 0.02], "kappa": 0.0,
               "grid": {"size": 256},
               "data": {"a0": {"shape": "gaussian", "chirp": 0.5}},
               "time": {"schedule": [0.02, 0.04], "dt": 0.01, "rule": "fixed"}}
        code = main(["converge", "--config", self.write(tmp_path, raw),
                     "--output", str(tmp_path / "out")])
        assert code == 1
        assert "[FAIL]" in capsys.readouterr().out
        assert (tmp_path / "out" / "report.json").is_file()
