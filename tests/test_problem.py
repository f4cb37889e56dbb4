"""The problem container's checks and the step rule of the fixed-dt marches."""
import pytest

from nlswkb.errors import ConfigError
from nlswkb.grids import PeriodicGrid
from nlswkb.problem import SemiclassicalProblem, gaussian_field, march_steps


class TestMarchSteps:
    @pytest.mark.parametrize("t_final, dt, steps", [
        (0.2, 0.002, 100),      # divides exactly
        (0.2, 0.0035, 57),      # 57.1: rounds down, where a ceiling gives 58
        (0.3, 0.0035, 86),      # 85.7: rounds up
        (-0.2, 0.002, 100),     # backward
        (0.001, 0.5, 1),        # at least one step
    ])
    def test_nearest_whole_number_of_steps(self, t_final, dt, steps):
        assert march_steps(t_final, dt) == steps


class TestProblemChecks:
    grid = PeriodicGrid(32.0, 64)

    def problem(self, **kwargs):
        args = {"eps": 0.1, "kappa": 0.0, "a0": gaussian_field(self.grid)}
        return SemiclassicalProblem(**{**args, **kwargs})

    @pytest.mark.parametrize("eps", [0.0, 1.5, float("nan")])
    def test_eps_must_lie_in_the_unit_interval(self, eps):
        with pytest.raises(ConfigError, match=r"eps must lie in \(0, 1\]"):
            self.problem(eps=eps)

    def test_fractional_kappa_is_rejected(self):
        with pytest.raises(ConfigError, match="kappa must be one of"):
            self.problem(kappa=0.5)

    def test_a1_must_share_the_a0_grid(self):
        other = PeriodicGrid(32.0, 128)
        with pytest.raises(ConfigError, match="must share the a0 grid"):
            self.problem(a1=gaussian_field(other))
