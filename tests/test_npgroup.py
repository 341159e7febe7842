"""The monomial (n,p)-group construction and prime search."""

import pytest

import sympal.errors
from sympal import npgroup
from sympal.errors import InvalidParams, NotIrreducible
from sympal.ffield import field_make, multiplicative_order
from sympal.groupkit import group, group_order, is_irreducible, spin
from sympal.linalg import mat_mul, scalar_mat
from sympal.npgroup import (
    build_chi,
    build_np_group,
    find_np_primes,
    induced_irreducible_criterion,
    np_params,
    twist_unramified,
)
from sympal.symplectic import multiplier_of


def fixture_2357():
    return build_chi(np_params(2, 5, 3, 7))


def test_find_primes_n2():
    pairs = find_np_primes(2, 50)
    assert (5, 3) in pairs
    for q, p in pairs:
        assert multiplicative_order(q, p) == 2
        assert p % 2 == 1 % 2 and p > 2 and q > 2
        assert (q * q - 1) % p == 0 and (q - 1) % p != 0


def test_find_primes_n4():
    pairs = find_np_primes(4, 50)
    assert (7, 5) in pairs
    for q, p in pairs:
        assert multiplicative_order(q, p) == 4
        assert p % 4 == 1
        assert (q ** 4 - 1) % p == 0 and (q ** 2 - 1) % p != 0
        assert p > 4 and q > 4


def test_find_primes_empty_below_threshold():
    assert find_np_primes(2, 2) == []


def test_find_primes_rejects_odd_n():
    with pytest.raises(InvalidParams):
        find_np_primes(3, 50)


def test_params_validation():
    with pytest.raises(InvalidParams):
        np_params(2, 5, 7, 11)   # 7 does not divide 24
    with pytest.raises(InvalidParams):
        np_params(2, 5, 3, 3)    # ell = p
    with pytest.raises(InvalidParams):
        np_params(2, 5, 3, 2)    # ell must be odd


def test_chi_fixture_values():
    chi = fixture_2357()
    # F_7 generator is 3; zeta_3 = 3^2 = 2; chi(q) = -1 = 6
    assert chi.zeta_index == 2
    assert chi.value_at_q == 6
    assert chi.torsion_exponents() == [1, 2]
    assert chi.params.ext_degree == 1


def test_chi_order_is_2p():
    chi = fixture_2357()
    ctx = chi.params.field().ctx
    # torsion part: zeta has order p
    assert ctx.pow(chi.zeta_index, 3) == 1 and chi.zeta_index != 1
    # value at q has order 2; lcm = 2p
    assert ctx.mul(chi.value_at_q, chi.value_at_q) == 1


def test_np_group_fixture_shape():
    g, j = build_np_group(fixture_2357())
    assert g.generators[0].rows == ((2, 0), (0, 4))
    assert g.generators[1].rows == ((0, 6), (1, 0))
    assert group_order(g) == 12


def test_invariant_form_multiplier_one():
    g, j = build_np_group(fixture_2357())
    assert g.space.gram == j
    assert multiplier_of(g.generators[0]) == 1
    assert multiplier_of(g.generators[1]) == 1


def test_induction_relation():
    g, _ = build_np_group(fixture_2357())
    d, f = g.generators
    spec = g.space.field
    lhs = f * d * f.inv()
    # F D F^-1 = D^q (exponent permutes the diagonal by the q-power map)
    dq = d
    for _ in range(4):   # q - 1 = 4 more multiplications
        dq = dq * d
    assert lhs.rows == dq.rows


def test_f_power_n_is_minus_identity():
    g, _ = build_np_group(fixture_2357())
    spec = g.space.field
    f = g.generators[1]
    assert (f * f).rows == scalar_mat(2, spec.ctx.neg(1))


def test_criterion():
    assert induced_irreducible_criterion([1, 2])
    assert not induced_irreducible_criterion([1, 1])
    assert induced_irreducible_criterion([0])


def test_twists_preserve_irreducibility_and_identity_twist():
    g, _ = build_np_group(fixture_2357())
    t1 = twist_unramified(g, 1)
    assert [m.rows for m in t1.generators] == [m.rows for m in g.generators]
    for alpha in range(1, 7):
        tg = twist_unramified(g, alpha)
        assert group_order(tg) % 12 == 0
    minus = twist_unramified(g, 6)
    assert group_order(minus) == 12   # -F is in <D, F> already


def test_n4_case():
    params = np_params(4, 7, 5, 3)
    assert params.ext_degree == 4
    chi = build_chi(params)
    assert sorted(chi.torsion_exponents()) == [1, 2, 3, 4]
    g, j = build_np_group(chi)
    assert group_order(g) == 40   # 2 p n
    assert multiplier_of(g.generators[0]) == 1
    assert multiplier_of(g.generators[1]) == 1
    d, f = g.generators
    f4 = f * f * f * f
    spec = g.space.field
    assert f4.rows == scalar_mat(4, spec.ctx.neg(1))
    # diagonal entries pairwise distinct
    assert len({d.rows[i][i] for i in range(4)}) == 4


def test_n4_group_over_a_large_field_is_proved_irreducible():
    g, _ = build_np_group(build_chi(np_params(4, 7, 5, 41)))
    assert g.space.field.order ** 4 > 10**6   # past the old exhaustive limit
    assert is_irreducible(g)
    assert is_irreducible(twist_unramified(g, 3))
    assert not hasattr(sympal.errors, "UnverifiedIrreducibility")


def test_reducible_verdict_is_not_swallowed():
    # F^2 permutes the lines <e_i> in the two cycles (e_1 e_3)(e_2 e_4), so
    # <D, F^2> keeps <e_1, e_3>: a reducible module, which is refused
    g, _ = build_np_group(build_chi(np_params(4, 7, 5, 11)))
    d, f = g.generators
    f2 = f * f
    assert spin(g.space, [d, f2], (1, 0, 0, 0)).dim == 2
    with pytest.raises(NotIrreducible, match="proper invariant subspace"):
        npgroup._assert_irreducible(group(g.space, [d, f2]))
