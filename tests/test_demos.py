"""Smoke runs of the demos that call the clustering, calibration and latency layers.

The other demo, method_comparison.py, takes seconds and uses only the
top-level training API, which the simulator and CLI tests exercise.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["clustering_walkthrough.py", "calibration_adaptation.py",
                                  "straggler_study.py"])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out.strip()
