import random

import pytest

from oqa import (
    AlgebraMap,
    SingularError,
    SymbolTable,
    TensorSquareElement,
    apply_map_tensor,
    build_rho_abc,
    matrix_algebra,
    opposite,
    qybe_check,
    sweedler_algebra,
    sweedler_oqa,
    tensor_invert,
    tensor_mul,
    tensor_unit,
)
from oqa.algebra import qybe_defect

from oracles import oracle_qybe_defect
from test_structures import _structure_from_params, sample_params, tamper_params


@pytest.fixture(scope="module")
def t():
    return SymbolTable(["a", "sbc", "b"])


@pytest.fixture(scope="module")
def m2(t):
    return matrix_algebra(t, 2)


def test_matrix_unit_products(t, m2):
    E11, E12, E21, E22 = [m2.basis_element(i) for i in range(4)]
    assert E12 * E21 == E11
    assert (E12 * E12).is_zero
    assert E11 * E12 == E12 and E12 * E22 == E12


def test_matrix_unit_identity(t):
    m3 = matrix_algebra(t, 3)
    assert m3.one().coeffs == {0: t.one, 4: t.one, 8: t.one}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_matrix_algebra_axioms(t, n):
    m = matrix_algebra(t, n)
    m.check_unital()
    m.check_associative()


def test_sweedler_relations(t):
    h4 = sweedler_algebra(t)
    h4.check_unital()
    h4.check_associative()
    one, g, x, gx = [h4.basis_element(i) for i in range(4)]
    assert g * g == one
    assert (x * x).is_zero
    assert x * g == -(g * x)
    # (gx)(gx) = g(xg)x = -g(gx)x = -x^2 = 0, expanded by hand
    assert (gx * gx).is_zero
    assert g * x == gx
    assert gx * g == -x


def test_tensor_mul_unit(t, m2):
    v = TensorSquareElement(m2, {(1, 2): t.sym("a")})
    assert tensor_mul(m2, tensor_unit(m2), v) == v
    assert tensor_mul(m2, v, tensor_unit(m2)) == v


def test_tensor_mul_opposite_flag(t, m2):
    u = TensorSquareElement(m2, {(0, 1): t.one})  # E11 (x) E12
    v = TensorSquareElement(m2, {(0, 2): t.one})  # E11 (x) E21
    # second factors multiply reversed: E21 * E12 = E22
    assert tensor_mul(m2, u, v, second_factor_opposite=True) == TensorSquareElement(
        m2, {(0, 3): t.one}
    )
    # plain order: first E11*E11 = E11, second E12*E21 = E11
    assert tensor_mul(m2, u, v) == TensorSquareElement(m2, {(0, 0): t.one})


def test_opposite_agrees_on_commuting_tensorands(t, m2):
    # diagonal second tensorands commute, so both products coincide
    u = TensorSquareElement(m2, {(1, 0): t.sym("a"), (2, 3): t.one})
    v = TensorSquareElement(m2, {(0, 0): t.sym("b"), (1, 3): t.one})
    assert tensor_mul(m2, u, v) == tensor_mul(m2, u, v, second_factor_opposite=True)


def test_tensor_invert_unit(t, m2):
    assert tensor_invert(m2, tensor_unit(m2)) == tensor_unit(m2)


@pytest.mark.parametrize("n", [2, 3])
def test_rho_abc_closed_form_inverse(n):
    syms = ["a", "sbc"] + [f"b{i}{j}" for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    t = SymbolTable(syms)
    a, sbc = t.syms("a", "sbc")
    bc = sbc * sbc
    B = {
        (i, j): t.sym(f"b{i}{j}")
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    }
    algebra = matrix_algebra(t, n)
    rho = build_rho_abc(t, n, a, bc, B, algebra)
    q = tensor_invert(algebra, rho)

    # slot-by-slot closed form: Q_ilil = 1/rho_ilil and
    # Q_illi = -rho_illi / (rho_ilil rho_lili), all other slots zero
    def unit(i, j):
        return (i - 1) * n + (j - 1)

    expected = {}
    for i in range(1, n + 1):
        for l in range(1, n + 1):
            r_ilil = rho.coeffs[(unit(i, i), unit(l, l))]
            expected[(unit(i, i), unit(l, l))] = r_ilil.inv()
    x = a - bc / a
    for i in range(1, n + 1):
        for l in range(i + 1, n + 1):
            r_ilil = rho.coeffs[(unit(i, i), unit(l, l))]
            r_lili = rho.coeffs[(unit(l, l), unit(i, i))]
            expected[(unit(i, l), unit(l, i))] = -x / (r_ilil * r_lili)
    assert q == TensorSquareElement(algebra, expected)
    assert tensor_invert(algebra, q) == rho


def test_tensor_invert_singular(t, m2):
    u = TensorSquareElement(m2, {(0, 0): t.one})  # E11 (x) E11
    with pytest.raises(SingularError):
        tensor_invert(m2, u)


@pytest.mark.parametrize("n", [2, 3])
def test_qybe_rho_abc(n):
    t = SymbolTable(["a", "sbc", "b"])
    a, sbc, b = t.syms("a", "sbc", "b")
    bc = sbc * sbc
    B = {(i, j): b for i in range(1, n + 1) for j in range(i + 1, n + 1)}
    algebra = matrix_algebra(t, n)
    rho = build_rho_abc(t, n, a, bc, B, algebra)
    assert qybe_check(algebra, rho)
    # the inverse satisfies the equation as well
    assert qybe_check(algebra, tensor_invert(algebra, rho))


def test_qybe_unit_and_perturbed(t, m2):
    assert qybe_check(m2, tensor_unit(m2))
    a, sbc, b = t.syms("a", "sbc", "b")
    rho = build_rho_abc(t, 2, a, sbc * sbc, {(1, 2): b}, m2)
    perturbed = rho + TensorSquareElement(m2, {(0, 1): t.one})
    assert not qybe_check(m2, perturbed)


# -- the direct-sum QYBE defect against the embedded route -------------------


def _assert_defect_matches(algebra, rho):
    got = qybe_defect(algebra, rho)
    want = oracle_qybe_defect(algebra, rho)
    assert got == want
    assert {k: c.text() for k, c in got.items()} == {k: c.text() for k, c in want.items()}
    return got


@pytest.mark.parametrize("n", [2, 3, 4])
def test_qybe_defect_matches_oracle_rho_abc(n):
    t = SymbolTable(["a", "sbc", "b"])
    a, sbc, b = t.syms("a", "sbc", "b")
    B = {(i, j): b * (i + j) for i in range(1, n + 1) for j in range(i + 1, n + 1)}
    algebra = matrix_algebra(t, n)
    rho = build_rho_abc(t, n, a, sbc * sbc, B, algebra)
    assert _assert_defect_matches(algebra, rho) == {}
    perturbed = rho + TensorSquareElement(algebra, {(1, 0): a, (0, n + 1): t.one})
    assert _assert_defect_matches(algebra, perturbed)
    if n < 4:
        assert _assert_defect_matches(algebra, tensor_invert(algebra, rho)) == {}


def test_qybe_defect_matches_oracle_tampered_thm5():
    """Sampled Gaussian Thm-5 tables, each tampered in at most one clause."""
    rng = random.Random(7)
    failing = 0
    for _ in range(12):
        params = sample_params(rng, rng.choice([2, 3]))
        tampered, sigma_scale, _ = tamper_params(rng, params)
        S = _structure_from_params(tampered, sigma_scale)
        failing += bool(_assert_defect_matches(S.algebra, S.rho))
    assert failing


def test_qybe_defect_matches_oracle_example2(ex2_n2, ex2_n3):
    for S in (ex2_n2, ex2_n3):
        assert _assert_defect_matches(S.algebra, S.rho) == {}
        assert _assert_defect_matches(S.algebra, S.rho_inv) == {}
    t = ex2_n2.algebra.table
    broken = ex2_n2.rho + TensorSquareElement(ex2_n2.algebra, {(0, 3): t.sym("b")})
    assert _assert_defect_matches(ex2_n2.algebra, broken)


def test_qybe_defect_matches_oracle_sweedler(t):
    """H4's structure constants include -1; so do those of its opposite."""
    S = sweedler_oqa(t, t.sym("a"))
    for T in (S, opposite(S)):
        assert _assert_defect_matches(T.algebra, T.rho) == {}
        assert _assert_defect_matches(T.algebra, T.rho_inv) == {}
        broken = T.rho + TensorSquareElement(T.algebra, {(1, 2): t.sym("b")})
        assert _assert_defect_matches(T.algebra, broken)


def test_qybe_defect_matches_oracle_unit(t, m2):
    for algebra in (m2, matrix_algebra(t, 3), sweedler_algebra(t)):
        assert _assert_defect_matches(algebra, tensor_unit(algebra)) == {}


def test_apply_map_tensor(t, m2):
    a, sbc, b = t.syms("a", "sbc", "b")
    rho = build_rho_abc(t, 2, a, sbc * sbc, {(1, 2): b}, m2)
    ident = AlgebraMap.identity(m2)
    assert apply_map_tensor(ident, ident, rho) == rho
    q = a / sbc
    # diagonal automorphism with ratio entries fixes rho
    tm = AlgebraMap.diagonal(m2, {0: t.one, 1: q.inv(), 2: q, 3: t.one})
    assert apply_map_tensor(tm, tm, rho) == rho
    # (t (x) 1)(E12 (x) E11) picks up the ratio of the first factor
    u = TensorSquareElement(m2, {(1, 0): t.one})
    assert apply_map_tensor(tm, ident, u) == TensorSquareElement(
        m2, {(1, 0): q.inv()}
    )


def test_map_inverse_and_powers(t, m2):
    q = t.sym("a") / t.sym("sbc")
    tm = AlgebraMap.diagonal(m2, {0: t.one, 1: q.inv(), 2: q, 3: t.one})
    assert tm.inverse().compose(tm).is_identity()
    assert tm.power(3).apply_basis(2).coeffs == {2: q**3}
    assert tm.power(-2).apply_basis(2).coeffs == {2: q**-2}
    assert tm.is_multiplicative()
    singular = AlgebraMap(m2, {0: {0: t.one}})
    with pytest.raises(SingularError):
        singular.inverse()
