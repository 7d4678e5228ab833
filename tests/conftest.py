"""Pytest hooks: show collected acceptance check lines after the run.

Hypothesis draws from a fixed seed (derandomize), so every run of the
suite tries the same examples; tests keep their own max_examples.
"""

from hypothesis import settings

import helpers

settings.register_profile("gridforge", derandomize=True, deadline=None)
settings.load_profile("gridforge")


def pytest_terminal_summary(terminalreporter):
    if helpers.ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in helpers.ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
