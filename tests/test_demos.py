"""The demo scripts run to completion (demo 04 trains for minutes and is left out)."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.slow
@pytest.mark.parametrize("name", [
    "01_overlap_save_filtering",
    "02_classic_baselines",
    "03_structures_and_cost",
    "05_echo_cancellation_session",
])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out.strip()
