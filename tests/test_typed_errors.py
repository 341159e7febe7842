"""Verdict checks raise typed errors, never `assert` (stripped by -O), and
no function in sympal keeps a parameter it never reads."""

import ast
import importlib
import inspect
import pkgutil
import time

import pytest

import sympal
from sympal import ffield, groupkit, linalg, mackey, npgroup
from sympal.classify import Huge, is_huge
from sympal.errors import InvalidParams, NoOrderMatch, NotIrreducible, WitnessCheckFailed
from sympal.ffield import field_make, one
from sympal.groupkit import group
from sympal.symplectic import SqMatrix, Subspace, SympSpace, make_transvection

CHECKED = sorted(m.name for m in pkgutil.iter_modules(sympal.__path__))


def _raises_assertion_error(node) -> bool:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


@pytest.mark.parametrize("name", CHECKED)
def test_no_assert_statements(name):
    module = importlib.import_module(f"sympal.{name}")
    tree = ast.parse(inspect.getsource(module))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"assert statements in sympal/{name}.py at lines {lines}"
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Raise) and node.exc is not None and _raises_assertion_error(node)]
    assert lines == [], f"raise AssertionError in sympal/{name}.py at lines {lines}"


def _unread_parameters(tree) -> list[str]:
    """`function(parameter):line` for each parameter of a def that its body
    never reads; dunder protocol methods take what the protocol passes, so
    they are exempt."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name.startswith("__") and node.name.endswith("__"):
            continue
        a = node.args
        params = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if x]
        read = {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out += [f"{node.name}({p}):{node.lineno}" for p in params if p not in read]
    return out


@pytest.mark.parametrize("name", CHECKED)
def test_no_unread_parameters(name):
    tree = ast.parse(inspect.getsource(importlib.import_module(f"sympal.{name}")))
    unread = _unread_parameters(tree)
    assert unread == [], f"parameters never read in sympal/{name}.py: {unread}"


def test_unread_parameter_check_sees_a_dead_parameter():
    tree = ast.parse("def f(spec, n):\n    return [n]\n"
                     "def g(a, *rest, **kw):\n    return lambda: (a, rest, kw)\n"
                     "class C:\n    def __eq__(self, other):\n        return True\n")
    assert _unread_parameters(tree) == ["f(spec):1"]


def test_field_make_scan_raises_typed_error(monkeypatch):
    monkeypatch.setattr(ffield, "_is_irreducible", lambda mod, ctx: False)
    with pytest.raises(WitnessCheckFailed):
        ffield.field_make.__wrapped__(7, 2)   # past the cache, which holds the real spec


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
    real = mackey.poly_roots
    # dropping an eigenvalue leaves the class-matrix eigenspaces unsplit
    monkeypatch.setattr(mackey, "poly_roots", lambda spec, f: real(spec, f)[1:])
    with pytest.raises(WitnessCheckFailed):
        mackey.character_table(mackey.symmetric_group(3))


def test_dixon_prime_without_the_roots_of_unity_raises_typed_error(monkeypatch):
    # zeta_3 is not in F_5, so C3's class matrices do not split over it
    monkeypatch.setattr(mackey, "_dixon_prime", lambda exponent, order: 5)
    with pytest.raises(WitnessCheckFailed, match="does not split"):
        mackey.character_table(mackey.cyclic_group(3))


def test_class_functions_on_different_groups_raise_typed_error():
    a = mackey.trivial_character(mackey.symmetric_group(3), 6)
    b = mackey.trivial_character(mackey.cyclic_group(3), 6)
    with pytest.raises(InvalidParams):
        a + b
    with pytest.raises(InvalidParams):
        mackey.inner_product(a, b)
    with pytest.raises(InvalidParams):
        mackey.character_order(mackey.regular_character(mackey.symmetric_group(3), 6))


def test_subfield_recognition_without_a_transvection_generator_raises_typed_error():
    classify_mod = importlib.import_module("sympal.classify")
    s = SympSpace.standard(field_make(5, 1), 2)
    t1, t2 = make_transvection(s, (1, 0), 1), make_transvection(s, (0, 1), 1)
    with pytest.raises(NoOrderMatch, match="transvection"):
        classify_mod.recognize_sp_over_subfield(group(s, [t1 * t2, t2 * t1]))


def test_np_irreducibility_proof_refuses_what_it_cannot_prove():
    g, _ = npgroup.build_np_group(npgroup.build_chi(npgroup.np_params(4, 7, 5, 11)))
    d, f = g.generators
    scalar = SqMatrix(g.space, linalg.scalar_mat(4, d.rows[0][0]))   # one entry, repeated
    with pytest.raises(NotIrreducible, match="distinct"):
        npgroup._assert_irreducible(group(g.space, [scalar, f]))
    # F^2 permutes the lines <e_i> in two cycles, so <e_1, e_3> is invariant
    with pytest.raises(NotIrreducible, match="proper invariant subspace"):
        npgroup._assert_irreducible(group(g.space, [d, f * f]))


def test_classify_checks_the_reducibility_witness(monkeypatch):
    classify_mod = importlib.import_module("sympal.classify")
    s = SympSpace.standard(field_make(5, 1), 2)
    g = group(s, [make_transvection(s, (1, 0), 1), make_transvection(s, (0, 1), 1)])
    # the line of T's direction, which the second generator moves
    monkeypatch.setattr(classify_mod, "spin",
                        lambda space, gens, seed: Subspace.from_vectors(space, [seed]))
    with pytest.raises(WitnessCheckFailed, match="invalid reducibility witness"):
        classify_mod.classify(g)


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
