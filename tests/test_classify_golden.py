"""`sympal classify --json` output, byte for byte, against a recorded file.

The criterion-3 fixtures (reducible, induced, huge over F5 and over F25)
and seeds 1-3 of each conjugated are written as fixture files and run
through `cli.main`; stdout and the exit code must equal
tests/data/classify_golden.json.  The induced runs on Sp2(F7) wr C2 and on
Sp2(F5) wr C2 written over F25, each unconjugated and conjugated by seeds
1 and 2, must equal tests/data/classify_wreath.json: an induced verdict's
block order is what a change to how `classify` picks its transvection
could move.  A change to how `classify` finds its subgroups must not
change a byte of either file.

To record both files anew (only when a verdict's output is meant to change):

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
from test_stabilizer_chain import CRITERION_3, WREATH, build

GOLDEN = pathlib.Path(__file__).parent / "data" / "classify_golden.json"
WREATH_FILE = GOLDEN.with_name("classify_wreath.json")


def run(name: str, workdir: pathlib.Path) -> dict:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(to_fixture(build(name))))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["classify", "--input", str(path), "--json"])
    return {"name": name, "exit": code, "stdout": out.getvalue()}


def record(names: list[str]) -> list[dict]:
    with tempfile.TemporaryDirectory() as tmp:
        return [run(name, pathlib.Path(tmp)) for name in names]


def recorded(path: pathlib.Path) -> list[dict]:
    return json.loads(path.read_text()) if path.exists() else []


@pytest.mark.parametrize("want", recorded(GOLDEN) + recorded(WREATH_FILE),
                         ids=lambda want: want["name"])
def test_classify_json_is_byte_identical(tmp_path, want):
    assert run(want["name"], tmp_path) == want


def test_golden_file_covers_criterion_3():
    assert [want["name"] for want in json.loads(GOLDEN.read_text())] == CRITERION_3


def test_wreath_file_covers_the_wreath_runs():
    assert [want["name"] for want in json.loads(WREATH_FILE.read_text())] == WREATH


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    for path, names in ((GOLDEN, CRITERION_3), (WREATH_FILE, WREATH)):
        path.write_text(json.dumps(record(names), indent=1) + "\n")
