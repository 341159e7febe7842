"""`sympal classify --json` output, byte for byte, against a recorded file.

The criterion-3 fixtures (reducible, induced, huge over F5 and over F25)
and seeds 1-3 of each conjugated are written as fixture files and run
through `cli.main`; stdout and the exit code must equal
tests/data/classify_golden.json.  A change to how `classify` finds its
subgroups must not change a byte of this.

To record the file anew (only when a verdict's output is meant to change):

    PYTHONPATH=src:tests python tests/test_classify_golden.py
"""

import contextlib
import io
import json
import pathlib
import tempfile

import pytest

from sympal.cli import main
from sympal.groupkit import to_fixture
from test_stabilizer_chain import CRITERION_3, build

GOLDEN = pathlib.Path(__file__).parent / "data" / "classify_golden.json"


def run(name: str, workdir: pathlib.Path) -> dict:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(to_fixture(build(name))))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["classify", "--input", str(path), "--json"])
    return {"name": name, "exit": code, "stdout": out.getvalue()}


def record() -> list[dict]:
    with tempfile.TemporaryDirectory() as tmp:
        return [run(name, pathlib.Path(tmp)) for name in CRITERION_3]


@pytest.mark.parametrize("want", json.loads(GOLDEN.read_text()) if GOLDEN.exists() else [],
                         ids=lambda want: want["name"])
def test_classify_json_is_byte_identical(tmp_path, want):
    assert run(want["name"], tmp_path) == want


def test_golden_file_covers_criterion_3():
    assert [want["name"] for want in json.loads(GOLDEN.read_text())] == CRITERION_3


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record(), indent=1) + "\n")
