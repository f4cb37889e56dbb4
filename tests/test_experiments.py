"""Config schema, fits, exponent algebra, artifacts, and the CLI contract."""
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import asdict, fields, is_dataclass, replace
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlswkb import cli, nls, phase_amplitude, rays, wkb
from nlswkb.cli import main
from nlswkb.errors import (ConfigError, DivergenceError, FieldError,
                           GridError, ResolutionError)
from nlswkb.config import ExperimentConfig, apply_overrides, config_from_dict
from nlswkb.experiments import DRIVERS, run_experiment
from nlswkb.fields import ComplexField
from nlswkb.fitting import fit_power_law
from nlswkb.instability import flow_exponents
from nlswkb.plan import Plan, plan_json
from nlswkb.problem import March
from nlswkb.reporting import (errors_csv_bytes, load_field_dump,
                              write_artifacts)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def run_config(cfg):
    """The result of `cfg` run on its plan, as the CLI runs it."""
    return run_experiment(cfg, Plan.build(cfg))


def error_line(err: str) -> str:
    """The error line the CLI printed to standard error."""
    return next(line for line in err.splitlines() if line.startswith("error: "))


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
        again = config_from_dict(asdict(cfg))
        assert again == cfg
        json.dumps(asdict(cfg))

    def test_settable_values(self):
        # every leaf field of the schema, the six fields of each optional
        # profile included; a rule of the method is a constant, not a value
        def count(tp):
            total, hints = 0, get_type_hints(tp)
            for f in fields(tp):
                hint, args = hints[f.name], get_args(hints[f.name])
                if type(None) in args:
                    (hint,) = (a for a in args if a is not type(None))
                total += count(hint) if is_dataclass(hint) else 1
            return total

        assert count(ExperimentConfig) == 32

    def test_readme_schema_lists_every_key(self):
        # the jsonc block of README.md "Config schema", comments stripped,
        # against the config echo of a default config
        text = (CONFIG_DIR.parent / "README.md").read_text(encoding="utf-8")
        block = text.split("## Config schema", 1)[1]
        block = block.split("```jsonc\n", 1)[1].split("```", 1)[0]
        schema = json.loads(re.sub(r"//[^\n]*", "", block))

        def keys(node, prefix=""):
            if not isinstance(node, dict):
                return set()
            return {prefix + k for k in node}.union(
                *(keys(v, f"{prefix}{k}.") for k, v in node.items()))

        default = config_from_dict({"kind": "single", "solver": "nls",
                                    "eps": [0.1]})
        assert keys(schema) == keys(asdict(default))

    def test_chirp_survives_serialization(self):
        raw = cheap_nls_raw(data={"a0": {"shape": "gaussian", "chirp": 0.5}})
        cfg = config_from_dict(raw)
        assert cfg.data.a0.chirp == 0.5
        assert config_from_dict(asdict(cfg)).data.a0.chirp == 0.5

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
                growth={"exponents": {"n": 3, "s": 0.25, "k": 0.25}}))

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
                "instability": {"alpha": alpha}}

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


class TestTypedLoading:
    """Each value must have its field's type: an integer may stand for a
    float, and nothing else is converted."""

    CASES = [
        ({"data": {"a0": {"width": "2"}}}, "data.a0.width must be a number"),
        ({"kappa": True}, "kappa must be a number, got True"),
        ({"grid": {"size": 1024.7}}, "grid.size must be an integer, got 1024.7"),
        ({"output": {"dump_fields": "false"}},
         "output.dump_fields must be a boolean, got 'false'"),
    ]

    IDS = ["width-string", "kappa-bool", "size-fraction", "flag-string"]

    @pytest.mark.parametrize("extra, message", CASES, ids=IDS)
    def test_mistyped_value_is_rejected_by_name(self, extra, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            config_from_dict(cheap_nls_raw(**extra))

    @pytest.mark.parametrize("override, message", [
        ("data.a0.width=\"2\"", CASES[0][1]),
        ("kappa=true", CASES[1][1]),
        ("grid.size=1024.7", CASES[2][1]),
        ("output.dump_fields=\"false\"", CASES[3][1]),
    ], ids=IDS)
    def test_mistyped_override_exits_2(self, tmp_path, capsys, override,
                                       message):
        code = main(["nls", "--config", str(CONFIG_DIR / "nls.json"),
                     "--set", override, "--output", str(tmp_path / "out")])
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_integers_load_as_floats(self):
        cfg = config_from_dict(cheap_nls_raw(kappa=1,
                                             data={"a0": {"width": 1}}))
        assert type(cfg.kappa) is float and type(cfg.data.a0.width) is float
        assert asdict(cfg) == asdict(config_from_dict(cheap_nls_raw()))


# one row per ConfigError of the schema, the loader, validation and the plan:
# (shipped config or raw dict, --set overrides, message fragment)
CONFIG_ERRORS = [
    # loader
    ([], (), "config must be an object"),
    ({"eps": [0.1]}, (), "config is missing 'kind'"),
    ("nls.json", ("eps=0.1",), "eps must be a list"),
    ("nls.json", ("time=0.2",), "time must be an object"),
    ("nls.json", ("data.a0=null",), "data.a0 must be an object"),
    ("nls.json", ("typo=1",), "unknown keys in config: ['typo']"),
    ("nls.json", ("data.a0.sigma=2",), "unknown keys in data.a0: ['sigma']"),
    ("nls.json", ("time.rule=fixed",), "unknown keys in time: ['rule']"),
    # the NLS step, the normgrowth grid rule and the instability ladder are
    # constants, not keys
    ("nls.json", ("time.factor=50",), "unknown keys in time: ['factor']"),
    ("normgrowth.json", ("growth.resolution_const=0.25",),
     "unknown keys in config: ['growth']"),
    ("instability.json", ("growth.max_resolution_doublings=2",),
     "unknown keys in config: ['growth']"),
    # the box length, the norm orders and the instability window and Taylor
    # orders are constants, not keys
    ("nls.json", ("grid.length=32",), "unknown keys in grid: ['length']"),
    ("supercritical.json", ("norms.sobolev_orders=[0, 1, 2]",),
     "unknown keys in config: ['norms']"),
    ("normgrowth.json", ("norms.m_orders=[1, 2]",),
     "unknown keys in config: ['norms']"),
    ("instability.json", ("instability.window_order=2",),
     "unknown keys in instability: ['window_order']"),
    ("instability.json", ("instability.taylor_order=2",),
     "unknown keys in instability: ['taylor_order']"),
    # the output schedules, the instability time factor and the norm-growth
    # exponents are constants, not keys
    ("skewfree.json", ("time.schedule=[0.05, 0.1, 0.2, 0.3]",),
     "unknown keys in time: ['schedule']"),
    ("instability.json", ("instability.time_factor=2.0",),
     "unknown keys in instability: ['time_factor']"),
    ("normgrowth.json", ('growth.exponents={"n": 3, "s": 0.25, "k": 0.25}',),
     "unknown keys in config: ['growth']"),
    # each march steps at its driver's dt, grenier always marches the limit,
    # and --output names the artifact directory: none of them is a key
    ("corrector.json", ("time.dt=0.002",), "unknown keys in time: ['dt']"),
    ("grenier.json", ("variant=limit",), "unknown keys in config: ['variant']"),
    ("nls.json", ('output.dir="runs/nls"',), "unknown keys in output: ['dir']"),
    # loader: a list element of the wrong type
    ("nls.json", ('eps=[0.1, "0.05"]',), "eps[1] must be a number, got '0.05'"),
    # loader: json reads NaN, Infinity and -Infinity as numbers
    ("nls.json", ("time.final=NaN",), "time.final must be a finite number, got nan"),
    ("nls.json", ("eps=[NaN]",), "eps[0] must be a finite number, got nan"),
    ("nls.json", ("data.a0.amplitude=NaN",),
     "data.a0.amplitude must be a finite number, got nan"),
    ("nls.json", ("data.a0.width=NaN",),
     "data.a0.width must be a finite number, got nan"),
    ("nls.json", ("time.final=Infinity",),
     "time.final must be a finite number, got inf"),
    # loader, Literal fields
    ({"kind": "bogus", "eps": [0.1]}, (), "kind must be one of ('converge', "),
    ("nls.json", ("data.a0.shape=square",),
     "data.a0.shape must be one of ('gaussian', 'constant', 'zero'), got 'square'"),
    ("nls.json", ("potential.kind=harmonic",),
     "potential.kind must be one of ('zero', 'cosine'), got 'harmonic'"),
    ("nls.json", ("phase.kind=cubic",), "phase.kind must be one of ('zero', "),
    ("critical.json", ("target=critcal",), "target must be one of ("),
    ("nls.json", ("solver=spectral",), "solver must be one of ('rays', "),
    # profiles
    ("nls.json", ("data.a1.width=0",), "data.a1.width must be positive"),
    ("nls.json", ("data.b0.shape=zero", "data.b0.chirp=0.5"),
     "data.b0.chirp needs a gaussian envelope"),
    # a field that its profile's shape or its section's kind does not read
    ("nls.json", ("data.a0.shape=constant", "data.a0.width=2"),
     'data.a0.width is not read under data.a0.shape "constant"; leave it out'),
    ("nls.json", ("data.a1.shape=zero", "data.a1.amplitude=0.5"),
     'data.a1.amplitude is not read under data.a1.shape "zero"'),
    ("nls.json", ("potential.amplitude=0.5",),
     'potential.amplitude is not read under potential.kind "zero"; leave it out'),
    ("nls.json", ("potential.cycles=2",),
     'potential.cycles is not read under potential.kind "zero"'),
    ("nls.json", ("phase.curvature=-0.3",),
     'phase.curvature is not read under phase.kind "zero"; leave it out'),
    # validation
    ("nls.json", ("eps=[]",), "eps list is empty"),
    ("nls.json", ("eps=[1.5]",), "eps values must lie in (0, 1]"),
    ("nls.json", ("eps=[0.01, 0.05]",), "eps list must be strictly decreasing"),
    ("nls.json", ("kappa=0.5",), "kappa must be 0, 1 or 2"),
    ("nls.json", ("grid.size=4",), "grid size must be a power of two >= 8, got 4"),
    ("nls.json", ("grid.size=300",), "grid size must be a power of two"),
    ("nls.json", ("time.final=0",), "t_final must be positive"),
    ("critical.json", ("target=null",), "converge runs need a target"),
    ("critical.json", ("kappa=2",), "target critical requires kappa=1.0"),
    ("corrector.json", ("data.a1=null",), "corrector target needs a1 data"),
    ("nls.json", ("solver=null",), "single runs need a solver"),
    ("nls.json", ("eps=[0.1, 0.05]",), "single runs take one eps, got 2"),
    ("odewindow.json", ("kappa=1",), "odewindow runs require kappa=0"),
    ("grenier.json", ("kappa=1",), "solver grenier requires kappa=0.0"),
    ("wkb.json", ("kappa=0",), "solver wkb requires kappa=1.0 or kappa=2.0"),
    ("normgrowth.json", ("potential.kind=cosine",),
     "normgrowth runs require V=0 and zero initial phase"),
    ("instability.json", ("data.b0=null",),
     "instability needs a b0 perturbation profile"),
    ("instability.json", ("instability.alpha=0.6",), "alpha must satisfy"),
    ("instability.json", ("data.b0.imaginary=true",),
     "perturbation is not polarized along a0"),
    ("normgrowth.json", ("grid.size=1024",), "needs grid size >= 1600"),
    # the compensated spreads divide by the Hdot^m norms
    *[("normgrowth.json", (override,),
       "the Hdot^m norms of a zero or constant profile vanish")
      for override in ("data.a0.shape=zero", "data.a0.shape=constant",
                       "data.a0.amplitude=0")],
    # plan: time keys the driver never reads
    ("skewfree.json", ("time.final=5",),
     "time.final is not read by the skew_free driver"),
    ("instability.json", ("time.final=0.3",),
     "time.final is not read by the instability driver"),
    ("odewindow.json", ("time.final=0.3",),
     "time.final is not read by the odewindow driver"),
    # plan: data profiles the driver never reads
    ("critical.json", ('data.a1={"amplitude": 0.5}',),
     "data.a1 is not read by the critical driver; leave it out"),
    ("instability.json", ('data.a1={"amplitude": 0.5}',),
     "data.a1 is not read by the instability driver"),
    ("grenier.json", ('data.a1={"amplitude": 0.5}',),
     "data.a1 is not read by the grenier driver; leave it out"),
    ("normgrowth.json", ('data.b0={"amplitude": 0.5}',),
     "data.b0 is not read by the normgrowth driver; leave it out"),
    ("supercritical.json", ('data.b0={"amplitude": 0.5}',),
     "data.b0 is not read by the supercritical_leading driver"),
    # plan: the keys of other sections that only some drivers read
    ("instability.json", ("output.dump_fields=true",),
     "output.dump_fields is not read by the instability driver"),
    ("critical.json", ("instability.alpha=0.3",),
     "instability.alpha is not read by the critical driver; leave it out"),
    ("odewindow.json", ("instability.alpha=0.3",),
     "instability.alpha is not read by the odewindow driver"),
    ("critical.json", ("output.dump_fields=true",),
     "output.dump_fields is not read by the critical driver"),
    ("rays.json", ("kappa=1",), "kappa is not read by the rays driver"),
    ("nls.json", ("target=critical",), "target is not read by the nls driver"),
    ("instability.json", ("solver=nls",),
     "solver is not read by the instability driver"),
    # plan
    ("odewindow.json", ("eps=[1.0]",),
     "output times at eps=1.0 must be strictly increasing, got [1.0, 1.0, 1.0, 1.0]"),
]


@pytest.mark.parametrize("raw, overrides, message", CONFIG_ERRORS,
                         ids=[re.sub(r"[^\w.=-]+", "-", m).strip("-")
                              for _, _, m in CONFIG_ERRORS])
def test_every_config_check_fires(raw, overrides, message):
    if isinstance(raw, str):
        raw = _shipped_raw(raw, overrides)
    with pytest.raises(ConfigError, match=re.escape(message)):
        Plan.build(config_from_dict(raw))


class TestOverrides:
    def test_dotted_path_updates_nested_value(self):
        raw = {"potential": {"kind": "cosine", "amplitude": 0.5}}
        out = apply_overrides(raw, ["potential.amplitude=0.3"])
        assert out["potential"] == {"kind": "cosine", "amplitude": 0.3}
        assert raw["potential"]["amplitude"] == 0.5

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
    """Raised by a patched solver entry point to stop the driver; carries
    the (eps, dt) of every problem of the call."""

    def __init__(self, pairs):
        super().__init__(f"solver reached with (eps, dt) {pairs}")
        self.pairs = pairs


def _solver_entry(cfg):
    """(module, function name, position of dt) of the driver's time stepper.
    Every phase-amplitude and NLS solve goes through a sweep, whose first
    argument is the list of problems; the NLS sweep takes one dt per
    problem."""
    if (cfg.kind, cfg.solver) == ("single", "rays"):
        return rays, "integrate_flow", 3
    if ((cfg.kind, cfg.solver) == ("single", "grenier")
            or cfg.target in ("supercritical_leading",
                              "supercritical_corrector", "skew_free")):
        return phase_amplitude, "solve_phase_amplitude_sweep", 2
    return nls, "solve_nls_sweep", 2


def _shipped_raw(name, overrides=()):
    with open(CONFIG_DIR / name, encoding="utf-8") as fh:
        return apply_overrides(json.load(fh), list(overrides))


# the supercritical targets read a1 in their golden configs
@pytest.mark.parametrize("name, overrides", [
    ("wkb.json", ()),
    ("nls.json", ()),
])
def test_drivers_that_read_a1_accept_it(name, overrides):
    raw = _shipped_raw(name, overrides + ('data.a1={"amplitude": 0.5}',))
    Plan.build(config_from_dict(raw))


class TestDryRunPlan:
    @pytest.mark.parametrize("name, overrides", [
        *[(p.name, ()) for p in sorted(CONFIG_DIR.glob("*.json"))],
    ])
    def test_planned_dt_is_the_dt_the_driver_runs(self, name, overrides,
                                                   monkeypatch):
        cfg = config_from_dict(_shipped_raw(name, overrides))
        planned = {row.eps: row.dt for row in Plan.build(cfg).rows}
        module, fn, pos = _solver_entry(cfg)

        def stop(problem, *args, **kwargs):
            dt = kwargs["dt"] if "dt" in kwargs else args[pos - 1]
            problems = problem if isinstance(problem, list) else [problem]
            dts = dt if isinstance(dt, list) else [dt] * len(problems)
            raise _SolverReached([(p.eps, d) for p, d in zip(problems, dts)])

        monkeypatch.setattr(module, fn, stop)
        with pytest.raises(_SolverReached) as caught:
            run_config(cfg)
        assert caught.value.pairs
        for eps, dt in caught.value.pairs:
            assert dt == planned[eps]

    @pytest.mark.parametrize("name", ["corrector.json", "grenier.json",
                                      "skewfree.json", "supercritical.json"])
    def test_a_shipped_dt_is_the_march_dt_of_its_driver(self, name):
        # each march steps at its driver's own dt, which divides the final
        # time of every shipped march config
        cfg = config_from_dict(_shipped_raw(name))
        assert Plan.build(cfg).dts == [DRIVERS[cfg.driver].march_dt] * len(cfg.eps)

    RAY_CONFIGS = ("critical.json", "rays.json", "subcritical.json", "wkb.json")

    def test_ray_dt_is_planned_for_the_configs_that_integrate_rays(self):
        planned = {p.name for p in sorted(CONFIG_DIR.glob("*.json"))
                   if all(row.ray_dt is not None for row in Plan.build(
                       config_from_dict(_shipped_raw(p.name))).rows)}
        assert planned == set(self.RAY_CONFIGS)

    @pytest.mark.parametrize("name", RAY_CONFIGS)
    def test_planned_ray_dt_is_the_dt_the_rays_run(self, name, monkeypatch):
        cfg = config_from_dict(_shipped_raw(name))
        planned = {row.eps: row.ray_dt for row in Plan.build(cfg).rows}

        strides = []

        def stop(problem, markers, t_final, dt, store_every=1):
            strides.append((store_every, March(t_final, dt).steps))
            raise _SolverReached([(problem.eps, dt)])

        monkeypatch.setattr(rays, "integrate_flow", stop)
        with pytest.raises(_SolverReached) as caught:
            run_config(cfg)
        [(eps, dt)] = caught.value.pairs
        assert dt == planned[eps]
        # the rays driver checks every step; a WKB profile reads the final
        # node alone
        [(store_every, steps)] = strides
        assert store_every == (1 if name == "rays.json" else steps)

    @staticmethod
    def skew_free_schedule(monkeypatch, schedule):
        """Give the skew_free driver the output times `schedule`."""
        monkeypatch.setitem(DRIVERS, "skew_free",
                            replace(DRIVERS["skew_free"], schedule=schedule))

    def test_skew_free_keeps_every_schedule_time(self, monkeypatch):
        # 0.075 is no multiple of the first time 0.05; the march must still
        # store a state there, and the shared times must not move
        def errors(schedule):
            self.skew_free_schedule(monkeypatch, schedule)
            raw = _shipped_raw("skewfree.json", ("eps=[0.1]",))
            return run_config(config_from_dict(raw)).report["per_eps"][0]["errors"]

        three = errors((0.05, 0.075, 0.1))
        assert list(three) == [0.05, 0.075, 0.1]
        two = errors((0.05, 0.1))
        assert {t: three[t] for t in two} == two

    def test_a_march_dt_divides_each_time_of_its_schedule(self):
        # a march stores states at whole steps only: a driver's dt that
        # divides each schedule time lets _skew_free_solve's gcd stride land
        # a stored node on every one
        marched = {name: d for name, d in DRIVERS.items()
                   if d.schedule is not None and d.march_dt is not None}
        assert "skew_free" in marched
        for name, d in marched.items():
            for tt in d.schedule:
                steps = tt / d.march_dt
                assert abs(steps - round(steps)) <= 1e-9, (name, tt)

    def test_skew_free_steps_run_to_the_last_schedule_time(self, monkeypatch):
        self.skew_free_schedule(monkeypatch, (0.05, 0.1))
        row = Plan.build(config_from_dict(_shipped_raw("skewfree.json"))).rows[0]
        assert row.steps == round(0.1 / row.dt)

    def test_planned_march_dt_is_the_dt_reported(self, monkeypatch):
        # 0.2 / 0.0035 is 57.1: the march takes 57 steps of 0.2 / 57, and
        # the plan prints that step, not the driver's dt
        monkeypatch.setitem(DRIVERS, "grenier",
                            replace(DRIVERS["grenier"], march_dt=0.0035))
        cfg = config_from_dict(_shipped_raw("grenier.json"))
        [row] = Plan.build(cfg).rows
        assert row.dt == run_config(cfg).report["dt"] == 0.2 / 57

    def test_single_plan_counts_steps(self):
        cfg = config_from_dict(cheap_nls_raw())
        plan = plan_json(cfg, Plan.build(cfg))
        assert plan["kind"] == "single"
        entry = plan["plan"][0]
        assert entry["eps"] == 0.05
        assert entry["dt"] == pytest.approx(0.001)
        assert entry["steps"] == 50

    def test_instability_plan_lists_its_grid_ladder(self, capsys):
        # grid.size, then each of its INSTABILITY_DOUBLINGS doublings; no
        # other driver plans one
        for path in sorted(CONFIG_DIR.glob("*.json")):
            raw = _shipped_raw(path.name)
            command = raw["solver"] if raw["kind"] == "single" else raw["kind"]
            assert main([command, "--config", str(path), "--dry-run"]) == 0
            ladders = [e.get("grid_ladder")
                       for e in json.loads(capsys.readouterr().out)["plan"]]
            if path.name == "instability.json":
                assert ladders == [[2048, 4096, 8192]] * 7
            else:
                assert ladders == [None] * len(raw["eps"])

    def test_instability_plan_reports_scales(self):
        raw = {"kind": "instability", "eps": [0.01], "kappa": 0.0,
               "data": {"b0": {"shape": "gaussian"}}}
        row = Plan.build(config_from_dict(raw)).rows[0]
        assert row.delta == pytest.approx(0.1)
        assert row.t_eps == pytest.approx(2.0 * 0.01 / 0.1)


def _executed_nls_steps(sol):
    # the solver's rule, read back from its output: each output segment is
    # split into max(1, ceil(seg/dt - 1e-12)) equal steps
    times = [float(t) for t in sol.times]
    return sum(max(1, math.ceil((b - a) / sol.dt - 1e-12))
               for a, b in zip(times, times[1:]))


class TestInstabilityDoubling:
    def _run(self, *overrides):
        raw = _shipped_raw("instability.json", ("eps=[0.1]",) + overrides)
        return run_config(config_from_dict(raw))

    def test_doubled_run_equals_a_run_started_on_the_final_grid(self):
        doubled = self._run("grid.size=256").report["per_eps"]
        assert doubled[0]["grid_size_used"] == 1024
        assert doubled == self._run("grid.size=1024").report["per_eps"]

    def test_exhausted_doublings_raise_the_first_failure_of_the_pair(self):
        # a 256 start ends on 1024, so each rung of 128, 256, 512 fails
        with pytest.raises(ResolutionError) as caught:
            self._run("grid.size=128")
        cfg = config_from_dict(_shipped_raw("instability.json",
                                            ("eps=[0.1]", "grid.size=128")))
        row = Plan.build(cfg).rows[0]
        assert row.grid_ladder == (128, 256, 512)
        # on the last rung the base row runs through and the perturbed row
        # fails; its own solve raises the same error
        base = cfg.problem(0.1, 512)
        b0 = cfg.data.b0.build(base.grid, role="perturbation")
        perturbed = replace(base, a0=ComplexField(
            base.grid, base.a0.values + row.delta * b0.values,
            role="perturbed-amplitude"))
        t_eps = row.t_eps
        outputs = [t_eps * (j + 1) / 8 for j in range(8)]
        nls.solve_nls(base, t_eps, dt=row.dt, output_times=outputs)
        with pytest.raises(ResolutionError) as single:
            nls.solve_nls(perturbed, t_eps, dt=row.dt, output_times=outputs)
        assert (caught.value.eps, caught.value.time) == (0.1, single.value.time)
        assert str(caught.value) == (
            f"instability run still under-resolved at N=512: {single.value}")

    def test_prediction_agreement_without_a_small_delta_fails(self):
        # delta = 0.1^0.5 is above the 0.15 the analytic profile needs
        [verdict] = [v for v in self._run("grid.size=1024").report["verdicts"]
                     if v["name"] == "prediction_agreement"]
        assert verdict == {"name": "prediction_agreement", "passed": False,
                           "detail": "no data"}

    def test_the_doubled_grid_is_a_rung_of_the_planned_ladder(self):
        cfg = config_from_dict(_shipped_raw("instability.json",
                                            ("eps=[0.1]", "grid.size=256")))
        [planned] = Plan.build(cfg).rows
        assert planned.grid_ladder == (256, 512, 1024)
        [row] = run_config(cfg).report["per_eps"]
        assert row["grid_size_used"] in planned.grid_ladder


class TestPlannedSteps:
    @pytest.mark.parametrize("name, overrides", [
        ("instability.json", ()),
        ("odewindow.json", ()),
        # 0.07 / (0.5 / 50) is one ulp above 7: ceil without the solver's
        # tolerance plans 8 steps where the solver runs 7
        ("nls.json", ("eps=[0.5]", "time.final=0.07", "grid.size=256")),
    ])
    def test_planned_steps_are_the_steps_run(self, name, overrides,
                                             monkeypatch):
        cfg = config_from_dict(_shipped_raw(name, overrides))
        planned = {row.eps: row.steps for row in Plan.build(cfg).rows}
        executed = []
        solve = nls.solve_nls_sweep

        def recording(problems, *args, **kwargs):
            # a failed row returns its error, which ran no whole solve
            outcomes = solve(problems, *args, **kwargs)
            executed.extend((p.eps, _executed_nls_steps(sol))
                            for p, sol in zip(problems, outcomes)
                            if not isinstance(sol, Exception))
            return outcomes

        monkeypatch.setattr(nls, "solve_nls_sweep", recording)
        run_config(cfg)
        assert {eps for eps, _ in executed} == set(planned)
        assert all(steps == planned[eps] for eps, steps in executed), (
            executed, planned)

    # 0.2 / 0.0035 is 57.1: marches of that dt run 57 steps of 0.2 / 57,
    # where a ceiling would plan 58
    @pytest.mark.parametrize("name, overrides", [
        ("grenier.json", ()),
        ("supercritical.json", ("eps=[0.1, 0.05]",)),
        ("corrector.json", ("eps=[0.1, 0.05]",)),
        ("rays.json", ("time.final=0.2",)),
    ])
    def test_planned_steps_are_the_steps_the_march_ran(self, name, overrides,
                                                      monkeypatch):
        cfg = config_from_dict(_shipped_raw(name, overrides))
        monkeypatch.setitem(DRIVERS, cfg.driver,
                            replace(DRIVERS[cfg.driver], march_dt=0.0035))
        [planned] = {row.steps for row in Plan.build(cfg).rows}
        executed = []
        sweep, flow = phase_amplitude.solve_phase_amplitude_sweep, rays.integrate_flow
        corrector = phase_amplitude.solve_corrector

        def recording_sweep(*args, **kwargs):
            # a march of n steps of h ends at n h
            outcomes = sweep(*args, **kwargs)
            executed.extend(("sweep", round(traj.times[-1] / traj.dt))
                            for traj in outcomes)
            return outcomes

        def recording_corrector(*args, **kwargs):
            corr = corrector(*args, **kwargs)
            executed.append(("corrector", round(corr.states[-1].time / corr.dt)))
            return corr

        def recording_flow(*args, **kwargs):
            bundle = flow(*args, **kwargs)
            executed.append(("flow", len(bundle.times) - 1))
            return bundle

        monkeypatch.setattr(phase_amplitude, "solve_phase_amplitude_sweep",
                            recording_sweep)
        monkeypatch.setattr(phase_amplitude, "solve_corrector", recording_corrector)
        monkeypatch.setattr(rays, "integrate_flow", recording_flow)
        run_config(cfg)
        assert planned == 57
        assert executed and {steps for _, steps in executed} == {planned}
        marches = {march for march, _ in executed}
        assert ("corrector" in marches) == (name == "corrector.json")


class TestSweepOutcomes:
    """A sweep driver raises the first failed solve of its sweep, except
    that the supercritical and profile drivers record an under-resolved eps
    and go on."""

    # (config, overrides, the module and name of the sweep entry point)
    DRIVERS = {
        "supercritical": ("supercritical.json", ("eps=[0.1, 0.05]",),
                          phase_amplitude, "solve_phase_amplitude_sweep"),
        "skew_free": ("skewfree.json", ("eps=[0.1, 0.05]",),
                      phase_amplitude, "solve_phase_amplitude_sweep"),
        "critical": ("critical.json", ("eps=[0.1, 0.05]",),
                     nls, "solve_nls_sweep"),
        "normgrowth": ("normgrowth.json", ("eps=[0.1, 0.05]", "grid.size=512"),
                       nls, "solve_nls_sweep"),
        "instability": ("instability.json", ("eps=[0.1, 0.05]",),
                        nls, "solve_nls_sweep"),
    }

    def run(self, driver, error, monkeypatch):
        """Run `driver` with the outcome of every eps = 0.05 solve replaced
        by `error`."""
        name, overrides, module, fn = self.DRIVERS[driver]
        real = getattr(module, fn)

        def failing(problems, *args, **kwargs):
            outcomes = real(problems, *args, **kwargs)
            return [error if p.eps == 0.05 else out
                    for p, out in zip(problems, outcomes)]

        monkeypatch.setattr(module, fn, failing)
        return run_config(config_from_dict(_shipped_raw(name, overrides)))

    @pytest.mark.parametrize("driver", list(DRIVERS))
    def test_a_failed_solve_is_raised(self, driver, monkeypatch):
        error = DivergenceError("injected", time=0.01, eps=0.05)
        with pytest.raises(DivergenceError) as caught:
            self.run(driver, error, monkeypatch)
        assert caught.value is error

    @pytest.mark.parametrize("driver", ["skew_free", "normgrowth"])
    def test_an_under_resolved_solve_is_raised(self, driver, monkeypatch):
        error = ResolutionError("injected", time=0.01, eps=0.05)
        with pytest.raises(ResolutionError) as caught:
            self.run(driver, error, monkeypatch)
        assert caught.value is error

    @pytest.mark.parametrize("driver", ["supercritical", "critical"])
    def test_an_under_resolved_eps_is_flagged(self, driver, monkeypatch):
        error = ResolutionError("injected", time=0.01, eps=0.05)
        report = self.run(driver, error, monkeypatch).report
        assert report["per_eps"][0]["resolved"] is True
        assert report["per_eps"][1] == {"eps": 0.05, "resolved": False,
                                        "detail": "injected"}
        assert report["under_resolved"] == [0.05]
        assert report["verdicts"][-1] == {
            "name": "resolution", "passed": False,
            "detail": "under-resolved eps excluded: [0.05]"}


class TestOneProfilePerSweep:
    @pytest.mark.parametrize("name", ["critical.json", "subcritical.json"])
    def test_rays_are_traced_and_inverted_once(self, name, monkeypatch):
        calls = []

        def count(module, fn):
            real = getattr(module, fn)

            def counting(*args, **kwargs):
                calls.append(fn)
                return real(*args, **kwargs)
            monkeypatch.setattr(module, fn, counting)

        for module, fn in ((rays, "integrate_flow"), (wkb, "build_approximant"),
                           (rays, "invert_flow"), (wkb, "invert_flow")):
            count(module, fn)
        raw = _shipped_raw(name, ("eps=[0.1, 0.05, 0.025]",))
        rows = run_config(config_from_dict(raw)).report["per_eps"]
        assert [r["resolved"] for r in rows] == [True] * 3
        assert sorted(calls) == ["build_approximant", "integrate_flow", "invert_flow"]


class TestArtifacts:
    def test_reports_are_byte_deterministic(self, tmp_path):
        cfg = config_from_dict(cheap_nls_raw())
        paths = [write_artifacts(run_config(cfg), str(tmp_path / d),
                                 stamp=False) for d in ("a", "b")]
        for name in ("report.json", "errors.csv"):
            with open(paths[0][name], "rb") as fh:
                first = fh.read()
            with open(paths[1][name], "rb") as fh:
                second = fh.read()
            assert first == second

    def test_stamped_report_carries_timestamp(self, tmp_path):
        cfg = config_from_dict(cheap_nls_raw())
        paths = write_artifacts(run_config(cfg), str(tmp_path / "out"))
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
        result = run_config(cfg)
        assert [d[0] for d in result.field_dumps] == ["reference_state"]
        paths = write_artifacts(result, str(tmp_path / "out"))
        base = paths["reference_state.bin"][:-len(".bin")]
        field, meta = load_field_dump(base)
        assert meta["time"] == 0.05
        assert meta["complex"] is True
        assert np.array_equal(field.values, result.field_dumps[0][1].values)

    def test_truncated_field_dump_is_refused(self, tmp_path):
        cfg = config_from_dict(cheap_nls_raw(output={"dump_fields": True}))
        paths = write_artifacts(run_config(cfg), str(tmp_path / "out"))
        dump = Path(paths["reference_state.bin"])
        dump.write_bytes(dump.read_bytes()[:-16])
        with pytest.raises(FieldError, match="has 510 scalars, expected 512"):
            load_field_dump(str(dump)[:-len(".bin")])

    def test_two_dimensional_sidecar_is_refused(self, tmp_path):
        # a grid is one length and one size: the loader, where a grid comes
        # from outside the program, refuses a sidecar of another dimension
        cfg = config_from_dict(cheap_nls_raw(output={"dump_fields": True}))
        paths = write_artifacts(run_config(cfg), str(tmp_path / "out"))
        sidecar = Path(paths["reference_state.json"])
        meta = json.loads(sidecar.read_text())
        meta["grid"]["lengths"] = [32.0, 32.0]
        sidecar.write_text(json.dumps(meta))
        base = str(sidecar)[:-len(".json")]
        with pytest.raises(GridError, match=re.escape(
                f"dump {base} records 2 lengths and 1 sizes")):
            load_field_dump(base)


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
        assert ("error: config kind 'converge' does not match subcommand "
                "'nls' (expects 'single')") in capsys.readouterr().err
        # a single-run config of another solver
        code = main(["rays", "--config", str(CONFIG_DIR / "wkb.json")])
        assert code == 2
        assert ("error: config solver 'wkb' does not match subcommand "
                "'rays'") in capsys.readouterr().err

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text('{"kind": "single",')
        assert main(["nls", "--config", str(path)]) == 2
        assert f"error: config file {path} is not valid JSON" in (
            capsys.readouterr().err)

    def test_non_object_config_exits_2(self, tmp_path, capsys):
        assert main(["nls", "--config", self.write(tmp_path, [1, 2])]) == 2
        assert "error: config must be an object" in capsys.readouterr().err

    @pytest.mark.parametrize("dry_run", [False, True], ids=["run", "dry-run"])
    def test_a_run_builds_one_plan_and_runs_it(self, tmp_path, capsys,
                                               monkeypatch, dry_run):
        built, ran = [], []
        build, driver = Plan.build, DRIVERS["nls"]

        def counting(config):
            built.append(build(config))
            return built[-1]

        def record(config, plan, run):
            ran.append(plan)

        monkeypatch.setattr(Plan, "build", staticmethod(counting))
        monkeypatch.setitem(DRIVERS, "nls", replace(
            driver, stages=(("record", record),) + driver.stages))
        args = ["nls", "--config", self.write(tmp_path, cheap_nls_raw()),
                "--output", str(tmp_path / "out")]
        assert main(args + ["--dry-run"] * dry_run) == 0
        assert len(built) == 1
        if dry_run:
            printed = json.loads(capsys.readouterr().out)
            assert printed["plan"][0]["steps"] == built[0].rows[0].steps == 50
            assert ran == []
        else:
            assert len(ran) == 1 and ran[0] is built[0]

    @pytest.mark.parametrize("command, name, dry_run", [
        ("nls", None, False),
        ("nls", None, True),
        # the instability check builds the eps[0] problem and its b0 profile
        ("instability", "instability.json", True),
    ], ids=["nls-run", "nls-dry-run", "instability-dry-run"])
    def test_a_run_validates_its_config_once(self, tmp_path, capsys, monkeypatch,
                                             command, name, dry_run):
        calls = []
        validate = ExperimentConfig.validate

        def counting(config):
            calls.append(config)
            return validate(config)

        monkeypatch.setattr(ExperimentConfig, "validate", counting)
        path = (str(CONFIG_DIR / name) if name
                else self.write(tmp_path, cheap_nls_raw()))
        args = [command, "--config", path, "--output", str(tmp_path / "out")]
        assert main(args + ["--dry-run"] * dry_run) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("dry_run", [False, True], ids=["run", "dry-run"])
    def test_an_output_path_under_a_file_exits_2_before_solving(
            self, tmp_path, capsys, monkeypatch, dry_run):
        taken = tmp_path / "taken"
        taken.write_text("kept")

        def solve(config, plan, run):
            pytest.fail("the run solved before it checked its output path")

        monkeypatch.setitem(DRIVERS, "nls", replace(DRIVERS["nls"],
                                                    stages=(("solve", solve),)))
        for out in (taken, taken / "sub"):
            args = ["nls", "--config", str(CONFIG_DIR / "nls.json"),
                    "--output", str(out)]
            assert main(args + ["--dry-run"] * dry_run) == 2
            assert (f"error: output directory {out} cannot be made: {taken} "
                    "is not a directory") in capsys.readouterr().err
        assert taken.read_text() == "kept"

    def test_dry_run_prints_plan_and_exits_0(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = main(["nls", "--config", self.write(tmp_path, cheap_nls_raw()),
                     "--dry-run"])
        assert code == 0
        plan = json.loads(capsys.readouterr().out)
        assert plan["plan"][0]["steps"] == 50
        assert not (tmp_path / "runs").exists()

    def test_runtime_error_exit_names_the_failure_time(self, tmp_path, capsys):
        # 128 nodes hold the initial state of configs/nls.json, but not the
        # eps = 0.01 oscillation it has grown by t = 0.2
        code = main(["nls", "--config", str(CONFIG_DIR / "nls.json"),
                     "--set", "grid.size=128", "--output", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "ResolutionError at t=0.2:" in err
        assert not (tmp_path / "out").exists()

    # each march checks its initial state: a state the grid cannot hold
    # fails at t = 0, before the first step
    CHIRP_PROBE = ("grid.size=64", "data.a0.chirp=-2")

    @pytest.mark.parametrize("command, name, overrides, message, stage", [
        ("nls", "nls.json", ("grid.size=128",),
         "ResolutionError at t=0.2: eps=0.01: spectral tail fraction", "solve"),
        ("grenier", "grenier.json", ("grid.size=128", "data.a0.width=1.2"),
         "ResolutionError at t=0.044: eps=0.01: amplitude spectrum tail", "solve"),
        ("nls", "nls.json", CHIRP_PROBE,
         "ResolutionError at t=0: eps=0.01: spectral tail fraction", "solve"),
        ("grenier", "grenier.json", CHIRP_PROBE,
         "ResolutionError at t=0: eps=0.01: amplitude spectrum tail", "solve"),
        ("converge", "corrector.json", CHIRP_PROBE,
         "ResolutionError at t=0: eps=0.1: amplitude spectrum tail", "solve"),
    ], ids=["nls", "grenier", "nls-t0", "grenier-t0", "corrector-t0"])
    def test_runtime_error_exit_names_the_eps(self, tmp_path, capsys, command,
                                              name, overrides, message, stage):
        args = [command, "--config", str(CONFIG_DIR / name),
                "--output", str(tmp_path / "out")]
        for item in overrides:
            args += ["--set", item]
        code = main(args)
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert error_line(err).endswith(f" (stage {stage})")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name, stage", [
        ("critical.json", "rays"),
        ("subcritical.json", "rays"),
    ], ids=["critical.json", "subcritical.json"])
    def test_focusing_phase_fails_before_the_nls_sweep(self, tmp_path, capsys,
                                                       monkeypatch, name, stage):
        # the problem grid is the marker grid, and a focusing phase pulls
        # the ray map off its edges: the profile fails, so no eps is solved
        sweeps = []
        solve = nls.solve_nls_sweep

        def spy(*args, **kwargs):
            sweeps.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(nls, "solve_nls_sweep", spy)
        code = main(["converge", "--config", str(CONFIG_DIR / name),
                     "--set", "phase.kind=quadratic",
                     "--set", "phase.curvature=-0.5",
                     "--output", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert ("error: InversionError at t=0.5: the stored ray map covers "
                "[-12, 11.9766], short of the grid [-16, 15.9688]") in err
        assert "use the problem grid as the marker grid" in err
        assert error_line(err).endswith(f" (stage {stage})")
        assert sweeps == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, name, overrides, message, stage", [
        ("rays", "rays.json", ("potential.amplitude=1e300",),
         "DivergenceError at t=0.001: ray integration produced non-finite "
         "values", "rays"),
        # eight markers, one per period of the potential: rays cross between
        # markers while the Jacobian at every marker stays above the caustic
        # threshold
        ("wkb", "wkb.json", ("grid.size=8", "potential.kind=cosine",
                             "potential.amplitude=1", "potential.cycles=8",
                             "phase.kind=quadratic", "phase.curvature=-0.3",
                             "time.final=2.4"),
         "InversionError at t=2.4: the stored ray map is not strictly "
         "increasing", "rays"),
        # three steps of 1e-3 store four nodes, one short of the residual's
        # time stencil
        ("rays", "rays.json", ("time.final=0.003",),
         "StencilError at t=0.003: not enough stored nodes below the Jacobian "
         "floor", "plan"),
    ], ids=["ray-divergence", "folded-ray-map", "short-ray-run"])
    def test_ray_guard_rails_exit_2(self, tmp_path, capsys, command, name,
                                    overrides, message, stage):
        args = [command, "--config", str(CONFIG_DIR / name),
                "--output", str(tmp_path / "out")]
        for item in overrides:
            args += ["--set", item]
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(args) == 2
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert error_line(err).endswith(f" (stage {stage})")
        assert not (tmp_path / "out").exists()

    def test_an_error_in_a_stage_names_the_stage(self, tmp_path, capsys,
                                                 monkeypatch):
        def measure(config, plan, run):
            raise FieldError("injected")

        driver = DRIVERS["nls"]
        monkeypatch.setitem(DRIVERS, "nls", replace(
            driver, stages=driver.stages[:-1] + (("measure", measure),)))
        code = main(["nls", "--config", self.write(tmp_path, cheap_nls_raw()),
                     "--output", str(tmp_path / "out")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == "error: FieldError: injected (stage measure)\n"
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_cli_import_loads_no_scipy(self):
        # scipy costs about 0.4 s of start-up; the CLI loads it only when a
        # run needs it
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        probe = ("import sys, nlswkb.cli; "
                 "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    @pytest.mark.parametrize("command, name, override, message", [
        ("odewindow", "odewindow.json", "eps=[1.0]",
         "output times at eps=1.0 must be strictly increasing"),
        # each march steps at its driver's dt, grenier always marches the
        # limit, and --output names the artifact directory
        ("grenier", "grenier.json", "variant=limit",
         "unknown keys in config: ['variant']"),
        ("converge", "corrector.json", "time.dt=0.002", "unknown keys in time: ['dt']"),
        ("nls", "nls.json", "output.dir=runs/nls", "unknown keys in output: ['dir']"),
        ("grenier", "grenier.json", "time.rule=fixed",
         "unknown keys in time: ['rule']"),
        # the NLS step, the normgrowth grid rule and the instability ladder
        # are constants
        ("nls", "nls.json", "time.factor=50", "unknown keys in time: ['factor']"),
        ("normgrowth", "normgrowth.json", "growth.resolution_const=0",
         "unknown keys in config: ['growth']"),
        ("instability", "instability.json", "growth.max_resolution_doublings=0",
         "unknown keys in config: ['growth']"),
        # so are the box length, the norm orders and the instability window
        # and Taylor orders
        ("nls", "nls.json", "grid.length=32", "unknown keys in grid: ['length']"),
        ("converge", "supercritical.json", "norms.sobolev_orders=[0, 1, 2]",
         "unknown keys in config: ['norms']"),
        ("normgrowth", "normgrowth.json", "norms.m_orders=[1, 2]",
         "unknown keys in config: ['norms']"),
        ("instability", "instability.json", "instability.window_order=2",
         "unknown keys in instability: ['window_order']"),
        ("instability", "instability.json", "instability.taylor_order=2",
         "unknown keys in instability: ['taylor_order']"),
        # and so are the output schedules, the instability time factor and
        # the norm-growth exponents
        ("converge", "skewfree.json", "time.schedule=[0.05,0.1,0.2,0.3]",
         "unknown keys in time: ['schedule']"),
        ("instability", "instability.json", "instability.time_factor=2.0",
         "unknown keys in instability: ['time_factor']"),
        ("normgrowth", "normgrowth.json", "growth.exponents.n=3",
         "unknown keys in config: ['growth']"),
        # the compensated spreads divide by the Hdot^m norms
        ("normgrowth", "normgrowth.json", "data.a0.shape=constant",
         "normgrowth needs a nonconstant a0"),
        ("nls", "nls.json", "time.final=Infinity",
         "time.final must be a finite number, got inf"),
        ("nls", "nls.json", "time.final=NaN",
         "time.final must be a finite number, got nan"),
        # three steps of 1e-3 store four ray nodes, one short of the
        # residual's time stencil: the plan fails as the run did
        ("rays", "rays.json", "time.final=0.003",
         "StencilError at t=0.003: not enough stored nodes below the Jacobian "
         "floor: 4, the time stencil needs 5"),
        # a field that its section's kind or its profile's shape does not read
        ("nls", "nls.json", "phase.curvature=-0.3",
         'phase.curvature is not read under phase.kind "zero"; leave it out'),
        ("nls", "nls.json", "potential.amplitude=0.5",
         'potential.amplitude is not read under potential.kind "zero"'),
        ("converge", "corrector.json", "data.a1.shape=constant",
         'data.a1.width is not read under data.a1.shape "constant"'),
    ], ids=["odewindow-increasing-powers", "grenier-variant", "time-dt",
            "output-dir", "time-rule",
            "time-factor", "growth-resolution-const",
            "growth-max-resolution-doublings", "grid-length",
            "norms-sobolev-orders", "norms-m-orders", "instability-window-order",
            "instability-taylor-order", "time-schedule", "instability-time-factor",
            "growth-exponents", "normgrowth-constant-a0", "final-infinite",
            "final-nan", "short-ray-march", "phase-curvature",
            "potential-amplitude", "a1-width"])
    def test_dry_run_makes_the_checks_of_the_run(self, tmp_path, capsys,
                                                 command, name, override,
                                                 message):
        args = [command, "--config", str(CONFIG_DIR / name), "--set", override]
        assert main(args + ["--dry-run"]) == 2
        dry = capsys.readouterr()
        assert main(args + ["--output", str(tmp_path / "out")]) == 2
        run = capsys.readouterr()
        assert f"error: {message}" in dry.err
        assert dry.err == run.err and dry.out == run.out == ""
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

    def test_a_run_without_output_writes_under_runs(self, tmp_path, monkeypatch,
                                                     capsys):
        # without --output the artifacts go to runs/<subcommand>
        monkeypatch.chdir(tmp_path)
        assert main(["nls", "--config", self.write(tmp_path, cheap_nls_raw())]) == 0
        out = tmp_path / "runs" / "nls"
        assert f"report: {Path('runs', 'nls', 'report.json')}" in capsys.readouterr().out
        assert (out / "report.json").is_file()
        assert (out / "errors.csv").is_file()

    def test_a_run_calls_run_experiment_once(self, tmp_path, monkeypatch):
        # the one run entry, which the benchmark tracer times as the driver
        calls = []

        def counting(config, plan):
            calls.append(config.driver)
            return run_experiment(config, plan)

        monkeypatch.setattr(cli, "run_experiment", counting)
        assert main(["nls", "--config", self.write(tmp_path, cheap_nls_raw()),
                     "--output", str(tmp_path / "out")]) == 0
        assert calls == ["nls"]

    @pytest.mark.parametrize("name, overrides, failed", [
        ("critical.json", ("data.a0.chirp=-2",),
         ["error_decreases", "final_error_small"]),
        ("subcritical.json", ("data.a0.chirp=-2",),
         ["error_decreases", "final_error_small", "modulation_below_error"]),
        ("critical.json", (), ["error_decreases", "final_error_small"]),
        ("subcritical.json", (), ["error_decreases", "final_error_small",
                                  "modulation_below_error"]),
    ], ids=["critical.json-failed0", "subcritical.json-failed1",
            "critical.json-unchirped", "subcritical.json-unchirped"])
    def test_a_verdict_on_no_data_fails(self, tmp_path, capsys, name, overrides,
                                        failed):
        # 64 nodes hold no eps of the chirped profile, nor of the shipped
        # one: every eps is flagged under-resolved, and the verdicts over
        # the resolved ones have none
        args = ["converge", "--config", str(CONFIG_DIR / name),
                "--set", "grid.size=64", "--output", str(tmp_path / "out")]
        for item in overrides:
            args += ["--set", item]
        code = main(args)
        assert code == 1
        out = capsys.readouterr().out
        for verdict in failed:
            assert f"[FAIL] {verdict}: no data" in out
        assert "[PASS]" not in out

    def test_failing_verdict_exits_1(self, tmp_path, capsys, monkeypatch):
        # three eps points cannot support the four-point slope fit, so the
        # convergence verdicts must fail while the run itself completes; two
        # short output times keep the 256-node run resolved
        monkeypatch.setitem(DRIVERS, "skew_free",
                            replace(DRIVERS["skew_free"], schedule=(0.02, 0.04)))
        raw = {"kind": "converge", "target": "skew_free",
               "eps": [0.1, 0.05, 0.02], "kappa": 0.0,
               "grid": {"size": 256},
               "data": {"a0": {"shape": "gaussian", "chirp": 0.5}}}
        code = main(["converge", "--config", self.write(tmp_path, raw),
                     "--output", str(tmp_path / "out")])
        assert code == 1
        assert "[FAIL]" in capsys.readouterr().out
        assert (tmp_path / "out" / "report.json").is_file()
