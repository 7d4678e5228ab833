"""Pytest hooks: show collected acceptance check lines after the run.

The `products` fixture, shared by the test modules, counts the ring
matrix products made while a test runs.

Hypothesis draws from a fixed seed (derandomize), so every run of the
suite tries the same examples; tests keep their own max_examples.
"""

import pytest
from hypothesis import settings

import helpers
from gridforge import coxeter

settings.register_profile("gridforge", derandomize=True, deadline=None)
settings.load_profile("gridforge")


def pytest_terminal_summary(terminalreporter):
    if helpers.ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in helpers.ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def products(monkeypatch):
    """Counts ring-matrix products made through coxeter._mat_mul."""
    count = [0]
    inner = coxeter._mat_mul

    def counted(a, b):
        count[0] += 1
        return inner(a, b)

    monkeypatch.setattr(coxeter, "_mat_mul", counted)
    return count
