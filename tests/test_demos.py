"""The demos run start to finish (in-process, as `python3 demos/<name>.py`)."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert [p.name for p in DEMOS] == ["characters_and_mackey.py",
                                       "np_group_walkthrough.py", "trichotomy_tour.py"]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys, monkeypatch):
    monkeypatch.delenv("SYMPAL_CACHE_DIR", raising=False)
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
