"""Shared test plumbing."""

import os
from pathlib import Path

import heatjets

_capmanager = None


def pytest_configure(config):
    global _capmanager
    _capmanager = config.pluginmanager.getplugin("capturemanager")
    # a `python -m heatjets.cli` subprocess imports the sources under test,
    # installed or not
    src = str(Path(heatjets.__file__).resolve().parents[1])
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))


def emit(line):
    """Print a line even under fd-level capture (criterion reporting)."""
    if _capmanager is None:
        print(line, flush=True)
    else:
        with _capmanager.global_and_fixture_disabled():
            print(line, flush=True)
