"""CLI exit-code contract and document round trips."""

import json
import time

import pytest

from sympal import mackey
from sympal.cli import main
from sympal.ffield import field_make
from sympal.groupkit import from_fixture, group, to_fixture
from sympal.symplectic import SympSpace, make_transvection


@pytest.fixture
def huge_fixture_path(tmp_path):
    f5 = field_make(5, 1)
    s = SympSpace.standard(f5, 2)
    g = group(s, [make_transvection(s, (1, 0), 1),
                  make_transvection(s, (0, 1), 1)])
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(to_fixture(g)))
    return str(path)


def test_classify_ok(huge_fixture_path, capsys):
    rc = main(["classify", "--input", huge_fixture_path, "--json"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["case"] == "huge" and out["subfield_degree"] == 1


def test_classify_missing_file():
    assert main(["classify", "--input", "/no/such/file.json"]) == 1


def test_classify_malformed(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"field\": {}}")
    assert main(["classify", "--input", str(bad)]) == 1


def test_classify_char_too_small(tmp_path):
    f3 = field_make(3, 1)
    s = SympSpace.standard(f3, 2)
    g = group(s, [make_transvection(s, (1, 0), 1)])
    path = tmp_path / "f3.json"
    path.write_text(json.dumps(to_fixture(g)))
    assert main(["classify", "--input", str(path)]) == 2


def test_classify_cap_exceeded(huge_fixture_path):
    assert main(["classify", "--input", huge_fixture_path, "--cap", "10"]) == 3


def test_np_group_n8_classify_enumerates_multiword_keys(capsys):
    # 272 elements whose 272 rows need 8 * 9 = 72-bit element keys
    rc = main(["np-group", "--n", "8", "--q", "19", "--p", "17", "--ell", "103",
               "--classify"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "no nontrivial transvection" in captured.out + captured.err


def test_np_group_emits_consumable_fixture(capsys):
    rc = main(["np-group", "--n", "2", "--q", "5", "--p", "3", "--ell", "7",
               "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    g = from_fixture(doc)
    assert len(g.generators) == 2
    assert doc["form"]  # the invariant Gram matrix rides along


def test_np_group_classify_pipeline_reports_no_transvection(capsys):
    rc = main(["np-group", "--n", "2", "--q", "5", "--p", "3", "--ell", "7",
               "--classify"])
    assert rc == 2   # expected: monomial group carries no transvection


def test_np_group_invalid_params():
    assert main(["np-group", "--n", "2", "--q", "5", "--p", "7",
                 "--ell", "11"]) == 2


def test_np_group_metadata_gcd_guard(capsys):
    rc = main(["np-group", "--n", "2", "--q", "5", "--p", "3", "--ell", "7",
               "--N1", "4", "--N2", "6"])
    assert rc == 2
    rc = main(["np-group", "--n", "2", "--q", "5", "--p", "3", "--ell", "7",
               "--N1", "4", "--N2", "9", "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["metadata"] == {"N1": 4, "N2": 9}


def test_find_primes(capsys):
    assert main(["find-primes", "--n", "2", "--q-max", "10", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [5, 3] in doc["pairs"]
    assert main(["find-primes", "--n", "3", "--q-max", "10"]) == 2
    capsys.readouterr()
    assert main(["find-primes", "--n", "2", "--q-max", "2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["pairs"] == []


def test_regularity_verdicts(tmp_path, capsys):
    ok = tmp_path / "ok.json"
    ok.write_text(json.dumps(
        {"ell": 7, "n": 2, "parts": [{"niveau": 2, "weights": [0, 1]}]}))
    assert main(["regularity", "--input", str(ok)]) == 0

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(
        {"ell": 5, "n": 2, "parts": [{"niveau": 1, "weights": [0]},
                                     {"niveau": 1, "weights": [2]}]}))
    capsys.readouterr()
    assert main(["regularity", "--input", str(bad), "--json"]) == 4
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "Collision" and doc["pair"] == [0, 1]

    garbled = tmp_path / "garbled.json"
    garbled.write_text("{\"ell\": 4}")
    assert main(["regularity", "--input", str(garbled)]) == 1


def test_regularity_twist(tmp_path):
    prof = tmp_path / "p.json"
    prof.write_text(json.dumps(
        {"ell": 7, "n": 2, "parts": [{"niveau": 2, "weights": [0, 1]}]}))
    assert main(["regularity", "--input", str(prof), "--twist", "2"]) == 0
    edge = tmp_path / "edge.json"
    edge.write_text(json.dumps(
        {"ell": 7, "n": 2, "parts": [{"niveau": 2, "weights": [0, 6]}]}))
    assert main(["regularity", "--input", str(edge), "--twist", "1"]) == 4


def test_mackey_sweep(tmp_path, capsys):
    doc = tmp_path / "sweep.json"
    doc.write_text(json.dumps(
        {"group": {"semidirect": [7, 3]}, "sweep": "prop-nh", "p": 7}))
    assert main(["mackey", "--input", str(doc), "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["counterexamples"] == 0 and out["checks"] > 0

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"group": {"semidirect": [7, 3]},
                               "sweep": "nonsense"}))
    assert main(["mackey", "--input", str(bad)]) == 1

    # Z/202 with row 1's entries at columns 2 and 3 swapped: no group
    table = [[(a + b) % 202 for b in range(202)] for a in range(202)]
    table[1][2], table[1][3] = table[1][3], table[1][2]
    bad.write_text(json.dumps({"group": {"table": table}, "sweep": "mackey"}))
    t0 = time.perf_counter()
    assert main(["mackey", "--input", str(bad)]) == 1
    assert time.perf_counter() - t0 < 10


def test_mackey_permutation_group_input(tmp_path, capsys):
    doc = tmp_path / "s3.json"
    doc.write_text(json.dumps(
        {"group": {"permutations": [[1, 0, 2], [1, 2, 0]]},
         "sweep": "mackey"}))
    assert main(["mackey", "--input", str(doc), "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["counterexamples"] == 0


@pytest.mark.parametrize("sweep,tables", [
    ({"group": {"permutations": [[1, 0, 2, 3], [1, 2, 3, 0]]}, "sweep": "mackey"}, 13),
    ({"group": {"semidirect": [7, 3]}, "sweep": "prop-nh", "p": 7}, 4),
])
def test_mackey_sweep_runs_dixon_once_per_subgroup_table(tmp_path, capsys, monkeypatch,
                                                         sweep, tables):
    # S4 has 30 subgroups with 13 distinct multiplication tables; 7:3 has 10
    # subgroups with 4 (orders 1, 3, 7, 21)
    seen = []
    real = mackey.character_table
    monkeypatch.setattr(mackey, "character_table",
                        lambda g, n=None: seen.append(g.table) or real(g, n))
    doc = tmp_path / "sweep.json"
    doc.write_text(json.dumps(sweep))
    assert main(["mackey", "--input", str(doc), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["counterexamples"] == 0
    assert len(seen) == len(set(seen)) == tables
