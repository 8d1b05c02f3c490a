"""Smoke runs of the demos that call the clustering and calibration layers.

The other two demos take seconds each and use only the top-level training
API, which the simulator and CLI tests exercise.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["clustering_walkthrough.py", "calibration_adaptation.py"])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out.strip()
