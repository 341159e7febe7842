"""CLI exit-code contract and document round trips."""

import json
import time

import pytest

from sympal import mackey
from sympal.cli import main
from sympal.ffield import field_make
from sympal.groupkit import from_fixture, group, to_fixture
from sympal.symplectic import SqMatrix, SympSpace, make_transvection


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


@pytest.mark.parametrize("degree, entry", [(1, [1, 1]), (2, [1, 0, 1]), (1, [5]),
                                           (1, [-1]), (1, 3), (1, [True])])
def test_classify_rejects_malformed_entries(tmp_path, capsys, degree, entry):
    s = SympSpace.standard(field_make(5, degree), 2)
    doc = to_fixture(group(s, [make_transvection(s, (1, 0), 1),
                               make_transvection(s, (0, 1), 1)]))
    doc["generators"][0][0][0] = entry
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["classify", "--input", str(path)]) == 1
    assert "malformed fixture: fixture entry" in capsys.readouterr().err
    doc["generators"][0][0][0] = [1]
    doc["gram"] = [[[0], [1]], [[4], entry]]
    path.write_text(json.dumps(doc))
    assert main(["classify", "--input", str(path)]) == 1
    assert "malformed fixture: fixture entry" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("ell", 5.9), ("degree", 1.2), ("n", 2.7),
                                        ("ell", True), ("n", "2")])
def test_classify_rejects_non_int_header(tmp_path, capsys, key, value):
    s = SympSpace.standard(field_make(5, 1), 2)
    doc = to_fixture(group(s, [make_transvection(s, (1, 0), 1)]))
    if key == "n":
        doc["n"] = value
    else:
        doc["field"][key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["classify", "--input", str(path)]) == 1
    assert f"malformed fixture: fixture {key}" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("ell", 7.9), ("n", 2.5), ("ell", True), ("n", "2"),
                                        ("niveau", 1.0), ("niveau", True), ("weight", 3.7)])
def test_regularity_rejects_non_int_numbers(tmp_path, capsys, key, value):
    doc = {"ell": 7, "n": 2, "parts": [{"niveau": 1, "weights": [1]},
                                       {"niveau": 1, "weights": [3]}]}
    if key == "niveau":
        doc["parts"][0]["niveau"] = value
    elif key == "weight":
        doc["parts"][1]["weights"][0] = value
    else:
        doc[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["regularity", "--input", str(bad)]) == 1
    assert f"malformed profile: profile {key}" in capsys.readouterr().err


def test_classify_char_too_small(tmp_path):
    f3 = field_make(3, 1)
    s = SympSpace.standard(f3, 2)
    g = group(s, [make_transvection(s, (1, 0), 1)])
    path = tmp_path / "f3.json"
    path.write_text(json.dumps(to_fixture(g)))
    assert main(["classify", "--input", str(path)]) == 2


def test_classify_cap_exceeded(huge_fixture_path):
    assert main(["classify", "--input", huge_fixture_path, "--cap", "10"]) == 3


@pytest.mark.parametrize("cap, message", [
    # |Sp2(F5)| = 120 from the stabilizer chain; no element is enumerated
    (100, "the group order 120 is past the enumeration cap 100"),
    # the row search stops at 12 rows, past n·cap = 10, before any order
    (5, "12 rows reached, more than n·cap = 10, so the group order is past the cap"),
])
def test_classify_cap_message_says_what_was_counted(huge_fixture_path, capsys, cap, message):
    assert main(["classify", "--input", huge_fixture_path, "--cap", str(cap)]) == 3
    assert capsys.readouterr().err == f"cap exceeded: {message}\n"


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


def test_mackey_semidirect_refuses_a_composite_modulus(tmp_path, capsys):
    doc = tmp_path / "c9.json"
    doc.write_text(json.dumps({"group": {"semidirect": [9, 2]}, "sweep": "mackey"}))
    t0 = time.perf_counter()
    assert main(["mackey", "--input", str(doc)]) == 1
    assert time.perf_counter() - t0 < 10
    assert "9 is not prime" in capsys.readouterr().err


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


def _write_docs(tmp_path) -> dict:
    f5 = field_make(5, 1)
    s = SympSpace.standard(f5, 2)
    huge = to_fixture(group(s, [make_transvection(s, (1, 0), 1),
                                make_transvection(s, (0, 1), 1)]))
    f3 = SympSpace.standard(field_make(3, 1), 2)
    docs = {
        "huge": huge,
        "f3": to_fixture(group(f3, [make_transvection(f3, (1, 0), 1)])),
        # -I: a group of order 2 with no transvection
        "minus": to_fixture(group(s, [SqMatrix(s, ((4, 0), (0, 4)))])),
        "ell4": {**huge, "field": {"ell": 4, "degree": 1}},
        "header": {**huge, "n": 2.5},
        "ok": {"ell": 7, "n": 2, "parts": [{"niveau": 2, "weights": [0, 1]}]},
        "edge": {"ell": 7, "n": 2, "parts": [{"niveau": 2, "weights": [0, 6]}]},
        "short": {"ell": 4},
        "ell4profile": {"ell": 4, "n": 1, "parts": [{"niveau": 1, "weights": [0]}]},
        "c9": {"group": {"semidirect": [9, 2]}, "sweep": "mackey"},
        "nogroup": {"group": {}, "sweep": "mackey"},
        "nonsense": {"group": {"semidirect": [7, 3]}, "sweep": "nonsense"},
    }
    paths = {}
    for key, doc in docs.items():
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps(doc))
        paths[key] = str(path)
    (tmp_path / "garbled.json").write_text("{")
    paths["garbled"] = str(tmp_path / "garbled.json")
    paths["missing"] = str(tmp_path / "missing.json")
    return paths


NP = ["np-group", "--n", "2", "--q", "5", "--p", "3", "--ell", "7"]


@pytest.mark.parametrize("argv, code, prefix", [
    (["classify", "--input", "huge"], 0, ""),
    # CapExceeded
    (["classify", "--input", "huge", "--cap", "100"], 3, "cap exceeded: "),
    (NP + ["--classify", "--cap", "10"], 3, "cap exceeded: "),
    # TwistBreaksRegularity
    (["regularity", "--input", "edge", "--twist", "1"], 4, "collision: "),
    # NoTransvection, CharTooSmall, InvalidParams
    (["classify", "--input", "minus"], 2, "precondition failed: no nontrivial transvection"),
    (["classify", "--input", "f3"], 2, "precondition failed: characteristic 3"),
    (["np-group", "--n", "3", "--q", "5", "--p", "3", "--ell", "7"], 2, "precondition failed: "),
    (NP + ["--N1", "4", "--N2", "6"], 2, "precondition failed: N1 and N2 must be coprime"),
    (["find-primes", "--n", "3", "--q-max", "10"], 2, "precondition failed: "),
    (NP + ["--classify"], 2, "classify: precondition failed as expected: "),
    # any other SympalError
    (["classify", "--input", "ell4"], 2, "error: 4 is not prime"),
    # parse errors
    (["classify", "--input", "missing"], 1, "error: cannot read input: "),
    (["regularity", "--input", "garbled"], 1, "error: cannot read input: "),
    (["classify", "--input", "header"], 1, "error: malformed fixture: fixture n 2.5"),
    (["regularity", "--input", "short"], 1, "error: malformed profile: 'n'"),
    (["regularity", "--input", "ell4profile"], 1, "error: malformed profile: 4 is not prime"),
    (["mackey", "--input", "c9"], 1, "error: malformed sweep document: 9 is not prime"),
    (["mackey", "--input", "nogroup"], 1, "error: malformed sweep document: "),
    (["mackey", "--input", "nonsense"], 1, "error: "),
    # InvalidParams: a p that is not prime, a cap below 1
    (["np-group", "--n", "2", "--q", "5", "--p", "0", "--ell", "7"], 2, "precondition failed: "),
    (["np-group", "--n", "2", "--q", "5", "--p", "6", "--ell", "3"], 2, "precondition failed: "),
    (["classify", "--input", "huge", "--cap", "0"], 2, "precondition failed: cap must be"),
    (NP + ["--classify", "--cap", "0"], 2, "precondition failed: cap must be"),
])
def test_exit_code_table(tmp_path, capsys, argv, code, prefix):
    paths = _write_docs(tmp_path)
    argv = [paths.get(a, a) if i and argv[i - 1] == "--input" else a for i, a in enumerate(argv)]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix) and (err == "") == (prefix == "")


@pytest.mark.parametrize("command", ["classify", "regularity", "mackey"])
def test_undecodable_input_exits_1(tmp_path, capsys, command):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe\x00{")
    assert main([command, "--input", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: cannot read input: ")


@pytest.mark.parametrize("doc", [
    {"group": {"semidirect": [7.9, 3.2]}, "sweep": "prop-nh", "p": 7.5},
    {"group": {"semidirect": [7, 3]}, "sweep": "prop-nh", "p": 7.5},
    {"group": {"semidirect": [7, 3]}, "sweep": "prop-nh"},
    {"group": {"semidirect": [7, 3]}, "sweep": "res-nontrivial"},
    {"group": {"semidirect": [7, 3]}, "sweep": "prop-nh", "p": "x"},
    {"group": {"semidirect": [7, 3]}, "sweep": "prop-nh", "p": True},
    {"group": {"semidirect": [7, 0]}, "sweep": "mackey"},
    {"group": {"semidirect": [7, -2]}, "sweep": "mackey"},
    {"group": {"semidirect": [7]}, "sweep": "mackey"},
    {"group": {"semidirect": [7, 3]}, "sweep": "res-nontrivial", "p": 7, "bound": -1},
    {"group": {"semidirect": [7, 3]}, "sweep": "res-nontrivial", "p": 7, "bound": 2.0},
    {"group": {"semidirect": [7, 3]}, "sweep": "nonsense"},
    {"group": {"semidirect": [7, 3]}},
])
def test_mackey_rejects_malformed_sweep_documents(tmp_path, capsys, doc):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(doc))
    assert main(["mackey", "--input", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: malformed sweep document: ")


@pytest.mark.parametrize("doc, checks", [
    ({"sweep": "mackey"}, 16),
    ({"sweep": "prop-nh", "p": 7}, 0),
    ({"sweep": "res-nontrivial", "p": 7}, 0),
    ({"sweep": "res-nontrivial", "p": 7, "bound": 0}, 0),
])
def test_mackey_sweeps_the_cyclic_group_as_a_semidirect_product(tmp_path, capsys, doc, checks):
    # C_7 : C_1 = C_7 (its only proper normal subgroup is trivial)
    path = tmp_path / "c7.json"
    path.write_text(json.dumps({"group": {"semidirect": [7, 1]}, **doc}))
    assert main(["mackey", "--input", str(path), "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["counterexamples"] == 0 and out["checks"] == checks
