"""Verdict checks raise typed errors, never `assert` (stripped by -O)."""

import ast
import importlib
import inspect

import pytest

from sympal import npgroup
from sympal.classify import Huge, is_huge
from sympal.errors import InvalidParams, WitnessCheckFailed
from sympal.ffield import field_make, one
from sympal.groupkit import group
from sympal.symplectic import SympSpace, make_transvection

# mackey and cyclotomic still assert inside the character layer
CHECKED = ["ffield", "linalg", "symplectic", "groupkit", "classify", "npgroup"]


@pytest.mark.parametrize("name", CHECKED)
def test_no_assert_statements(name):
    module = importlib.import_module(f"sympal.{name}")
    tree = ast.parse(inspect.getsource(module))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"assert statements in sympal/{name}.py at lines {lines}"


def test_is_huge_rejects_a_transvection_subgroup_below_sp_n(monkeypatch):
    classify_mod = importlib.import_module("sympal.classify")
    s = SympSpace.standard(field_make(5, 1), 2)
    g = group(s, [make_transvection(s, (1, 0), 1), make_transvection(s, (0, 1), 1)])
    assert is_huge(g)
    monkeypatch.setattr(classify_mod, "classify", lambda g, cap: Huge(1, 119))
    with pytest.raises(WitnessCheckFailed):
        is_huge(g)


def test_build_chi_rejects_a_non_primitive_root(monkeypatch):
    params = npgroup.np_params(2, 5, 3, 7)
    monkeypatch.setattr(npgroup, "mult_generator", one)   # zeta would be 1
    with pytest.raises(InvalidParams):
        npgroup.build_chi(params)
