"""Shared pytest plumbing.

The acceptance module records one summary line per criterion; the terminal
summary hook replays them after the test table so the pass/fail ledger is
visible even though pytest captures stdout. The `grid_calls` fixture counts
the calls of a `grid` function.
"""

import importlib

import pytest

ACCEPTANCE_LINES = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


@pytest.fixture
def grid_calls(monkeypatch):
    """grid_calls(name) wraps the `sqgfronts.grid` function `name` at every
    module-level name bound to it in the package, and returns the list of
    the first arguments of its calls."""

    def count(name):
        calls = []
        grid = importlib.import_module("sqgfronts.grid")
        fn = getattr(grid, name)
        for layer in ("", ".grid", ".quadrature", ".velocity", ".dynamics", ".cli"):
            mod = importlib.import_module("sqgfronts" + layer)
            for attr, obj in list(vars(mod).items()):
                if obj is fn:
                    monkeypatch.setattr(mod, attr, lambda first, *a, **k: calls.append(first) or fn(first, *a, **k))
        return calls

    return count
