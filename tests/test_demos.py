"""The quick demos run to completion against the current public API.

Each of 01-03 takes under a second. 04 (trains the wave model, about 52 s)
and 05 (the scaling ladder, about 13 s) are left out to keep Tier-1 short.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", [
    "01_sign_loss_basics.py",
    "02_persistence_and_distance.py",
    "03_calibrate_sharpness.py",
])
def test_demo_runs(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out
