"""Shared pytest plumbing: acceptance verdicts, the CLI child environment and step draws."""

import os
from pathlib import Path
from unittest import mock

import pytest

import gravsim
import gravsim.analysis

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def gravsim_env() -> dict[str, str]:
    """Environment for a `python -m gravsim` child that imports this suite's gravsim.

    The package's source root goes first on PYTHONPATH, so the child finds
    gravsim from any working directory, also when the suite found it through
    a relative entry such as `PYTHONPATH=src`. Entries already set are kept.
    """
    env = os.environ.copy()
    source_root = str(Path(gravsim.__file__).resolve().parent.parent)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join([source_root, existing]) if existing else source_root
    return env


@pytest.fixture
def step_draws(monkeypatch):
    """The Monte Carlo step draws of min_detectable_b (analysis._mc_trials), from no kept steps."""
    monkeypatch.setattr(gravsim.analysis, "_kept_steps", (None, {}))
    draw = gravsim.analysis._mc_trials
    with mock.patch.object(gravsim.analysis, "_mc_trials", wraps=draw) as draws:
        yield draws


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
