"""Verdict checks raise typed errors, never `assert` (stripped by -O)."""

import ast
import importlib
import inspect
import pkgutil
import time

import pytest

import sympal
from sympal import groupkit, mackey, npgroup
from sympal.classify import Huge, is_huge
from sympal.errors import InvalidParams, WitnessCheckFailed
from sympal.ffield import field_make, one
from sympal.groupkit import group
from sympal.symplectic import SympSpace, make_transvection

CHECKED = sorted(m.name for m in pkgutil.iter_modules(sympal.__path__))


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


def test_dixon_split_check_raises_typed_error(monkeypatch):
    real = mackey.poly_factors
    # dropping an eigenvalue leaves the class-matrix eigenspaces unsplit
    monkeypatch.setattr(mackey, "poly_factors", lambda spec, f, rng: real(spec, f, rng)[1:])
    with pytest.raises(WitnessCheckFailed):
        mackey.character_table(mackey.symmetric_group(3))


def test_class_functions_on_different_groups_raise_typed_error():
    a = mackey.trivial_character(mackey.symmetric_group(3), 6)
    b = mackey.trivial_character(mackey.cyclic_group(3), 6)
    with pytest.raises(InvalidParams):
        a + b
    with pytest.raises(InvalidParams):
        mackey.inner_product(a, b)
    with pytest.raises(InvalidParams):
        mackey.character_order(mackey.regular_character(mackey.symmetric_group(3), 6))


def test_norton_rounds_are_bounded(monkeypatch):
    # a bug that keeps every theta from offering a deciding factor must
    # raise once the round limit is reached, not loop forever
    s = SympSpace.standard(field_make(5, 1), 4)
    g = group(s, [make_transvection(s, v, 1) for v in ((1, 0, 0, 0), (0, 1, 0, 0),
                                                       (0, 0, 1, 0), (1, 0, 0, 1))])
    assert groupkit.is_irreducible(g).irreducible
    monkeypatch.setattr(groupkit, "poly_factors", lambda spec, f, rng: [])
    t0 = time.perf_counter()
    with pytest.raises(WitnessCheckFailed, match="rounds"):
        groupkit.is_irreducible(g)
    assert time.perf_counter() - t0 < 10
