"""Fixtures shared by the solver tests."""
import numpy as np
import pytest


class FFTCounter:
    """Counts the np.fft transform calls made while it is installed."""

    def __init__(self, monkeypatch):
        self.calls = 0
        for name in ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn"):
            monkeypatch.setattr(np.fft, name, self._counted(getattr(np.fft, name)))

    def _counted(self, fn):
        def counted(*args, **kwargs):
            self.calls += 1
            return fn(*args, **kwargs)
        return counted


@pytest.fixture
def fft_counter(monkeypatch):
    return FFTCounter(monkeypatch)
