"""The repository's scripts still run against the package."""

import importlib.util
from pathlib import Path

import pytest

from qkdsim.reconcile import RATE_TABLE

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("row", [RATE_TABLE[0], RATE_TABLE[-1]])
def test_calibrate_rates_decodes_every_trial_at_the_table_ends(row):
    bound, rate = row
    assert _load("calibrate_rates").success_count(bound, rate, 3) == 3
