"""The registry of known mutants (scripts/mutants.py) still applies."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "mutants", ROOT / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS,
                         ids=[m[0].replace(" ", "-") for m in mutants.MUTANTS])
def test_every_patch_applies_and_names_existing_tests(mutant):
    # the old text occurs once in the current source, the patch changes it,
    # and every test that must catch the mutant is defined where it is named
    name, file, old, new, tests = mutant
    assert old != new and tests
    assert mutants.patched_source(file, old, new) != (
        ROOT / "src" / "heatjets" / file).read_text()
    for node in tests:
        path, function = node.split("::")
        assert f"\ndef {function}(" in (ROOT / path).read_text(), node
