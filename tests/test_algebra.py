import random
from fractions import Fraction

import pytest

import oqa.algebra
from oqa import (
    AlgebraError,
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
from oqa.algebra import qybe_defect, solve_sparse

from oracles import oracle_qybe_defect, oracle_solve_sparse
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


def test_qybe_defect_matches_oracle_random_sparse(t):
    """Seeded sparse rho with rational coefficients, some times a symbol, over
    M_2, M_3 and H4 and their opposites.  Each rho has an E11 (x) E12 slot (on
    H4, 1 (x) g), which none of Thm 5's slot patterns has."""
    rng = random.Random(2701)
    a = t.sym("a")
    failing = 0
    for base in (matrix_algebra(t, 2), matrix_algebra(t, 3), sweedler_algebra(t)):
        for algebra in (base, base.opposite()):
            for _ in range(3):
                slots = [(i, j) for i in range(algebra.dim) for j in range(algebra.dim)]
                coeffs = {}
                for slot in [(0, 1)] + rng.sample(slots, rng.randint(1, 4)):
                    c = t.scalar(Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.randint(1, 4)))
                    coeffs[slot] = c * a if rng.random() < 0.3 else c
                rho = TensorSquareElement(algebra, coeffs)
                failing += bool(_assert_defect_matches(algebra, rho))
    assert failing


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


def test_tables_of_different_algebras_do_not_add(t, m2):
    """Elements and tensors of M_2 and H4 neither add nor subtract, and an
    element never equals a tensor, not even when both are zero."""
    h4 = sweedler_algebra(t)
    for x, y in (
        (m2.basis_element(1), h4.basis_element(1)),
        (TensorSquareElement(m2, {(0, 1): t.one}), TensorSquareElement(h4, {(0, 1): t.one})),
    ):
        with pytest.raises(AlgebraError, match="elements of different algebras"):
            x + y
        with pytest.raises(AlgebraError, match="elements of different algebras"):
            x - y
    for x, u in ((m2.zero(), TensorSquareElement(m2, {})),
                 (m2.one(), TensorSquareElement(m2, {(0, 0): t.one}))):
        assert x != u and u != x and not x == u


def test_map_power_memo(t, m2, monkeypatch):
    """power(n) agrees with n composes of the map or of its inverse, in any
    order of asking, and inverts the map once; power(3000) needs no
    recursion and is the diagonal of the 3000th powers."""
    import sys

    a = t.sym("a")
    P, P_inv = _nilpotent_conjugation(m2, 2, {(1, 2): a})
    conj = lambda: AlgebraMap(m2, {j: (P * m2.basis_element(j) * P_inv).coeffs for j in range(4)})

    def composed(m, n):
        step, out = (m if n >= 0 else m.inverse()), AlgebraMap.identity(m2)
        for _ in range(abs(n)):
            out = step.compose(out)
        return out

    want = {n: composed(conj(), n) for n in range(-3, 4)}
    inverses = []
    inverse = AlgebraMap.inverse
    monkeypatch.setattr(AlgebraMap, "inverse", lambda m: inverses.append(m) or inverse(m))
    m = conj()
    for n in (2, -3, 3, 0, -1, 1, -2):
        assert m.power(n) == want[n], n
    assert len(inverses) == 1
    q = a / t.sym("sbc")
    entries = {0: t.one, 1: q.inv(), 2: q, 3: t.one}
    diag = AlgebraMap.diagonal(m2, entries)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        got = diag.power(3000)
    finally:
        sys.setrecursionlimit(limit)
    assert got == AlgebraMap.diagonal(m2, {j: c**3000 for j, c in entries.items()})


# -- the reached-block solver against the full elimination -------------------


def _random_system(rng, table, entry):
    """A sparse system with its kind: "consistent" (rhs = A x, with a kernel
    when there are fewer rows than unknowns), "random" (mostly inconsistent
    when rows outnumber unknowns), "empty" (an empty row with rhs 1) or
    "chain" (x_1 + x_2 = 0, ..., x_m = 1 up to scale, rows shuffled: one
    nonzero rhs and a dense solution, reached only row by row).

    Explicit zero entries and zero right-hand sides are kept, and unknowns
    come in small bands so that some blocks go unreached.
    """
    nunknowns = rng.randint(1, 8)
    kind = rng.choice(["consistent", "consistent", "random", "empty", "chain"])
    if kind == "chain":
        def nonzero():
            v = entry(rng)
            return table.one if v.is_zero else v

        order = rng.sample(range(nunknowns), nunknowns)
        rows = [{c: nonzero(), d: nonzero()} for c, d in zip(order, order[1:])]
        rows.append({order[-1]: nonzero()})
        rhs = [table.zero] * (len(rows) - 1) + [nonzero()]
        shuffled = rng.sample(range(len(rows)), len(rows))
        return [rows[k] for k in shuffled], [rhs[k] for k in shuffled], nunknowns, kind
    width = rng.randint(1, 3)
    rows = []
    for _ in range(rng.randint(1, nunknowns + 3)):
        start = rng.randrange(nunknowns)
        band = range(start, min(nunknowns, start + width + 1))
        rows.append({rng.choice(band): entry(rng) for _ in range(rng.randint(1, width + 1))})
    if kind == "consistent":
        x = [entry(rng) if rng.random() < 0.6 else table.zero for _ in range(nunknowns)]
        rhs = []
        for r in rows:
            b = table.zero
            for c, v in r.items():
                b = b + v * x[c]
            rhs.append(b)
    else:
        rhs = [entry(rng) if rng.random() < 0.4 else table.zero for _ in rows]
    if kind == "empty":
        k = rng.randrange(len(rows) + 1)
        rows.insert(k, {})
        rhs.insert(k, table.one)
    return rows, rhs, nunknowns, kind


def test_solve_sparse_matches_full_elimination():
    """Seeded random systems over QQ, a symbolic and a Gaussian table."""
    rng = random.Random(2024)
    qq = SymbolTable([])
    sym = SymbolTable(["a", "b"])
    gauss = SymbolTable([], gaussian=True)
    small = lambda r: r.choice([-2, -1, 0, 1, 1, 2, 3])
    monomials = [sym.one, *sym.syms("a", "b"), sym.sym("a") / sym.sym("b")]
    entries = [
        (qq, 120, lambda r: qq.rational(small(r), r.randint(1, 3))),
        (sym, 60, lambda r: r.choice(monomials) * small(r) + small(r)),
        (gauss, 120, lambda r: gauss.scalar(small(r)) + gauss.i * small(r)),
    ]
    seen = dict.fromkeys(["consistent", "random", "empty", "chain", "none", "free", "tall"], 0)
    for table, count, entry in entries:
        for _ in range(count):
            rows, rhs, nunknowns, kind = _random_system(rng, table, entry)
            want = oracle_solve_sparse(table, [dict(r) for r in rows], list(rhs), nunknowns)
            got = solve_sparse(table, rows, rhs, nunknowns)
            if want is None:
                assert got is None, (rows, rhs)
                seen["none"] += 1
            else:
                assert got is not None, (rows, rhs)
                assert [c.text() for c in got] == [c.text() for c in want], (rows, rhs)
            seen[kind] += 1
            seen["tall"] += len(rows) > nunknowns
            seen["free"] += kind == "consistent" and len(rows) < nunknowns
    # every shape the reach has to get right turns up
    assert min(seen.values()) >= 20, seen


def test_tensor_invert_matches_full_elimination(t, monkeypatch):
    """Inverses on H4, a dense random rho on M_2 and Thm-5 rhos on M_4."""
    rng = random.Random(11)
    sweedler = sweedler_oqa(t, t.sym("a"))
    m2 = matrix_algebra(SymbolTable([]), 2)
    qq = m2.table
    dense = [
        TensorSquareElement(
            m2,
            {(i, j): qq.rational(rng.randint(-3, 3), rng.randint(1, 2))
             for i in range(4) for j in range(4)},
        )
        for _ in range(3)
    ]
    thm5 = [
        _structure_from_params(sample_params(rng, 4), {}).rho for _ in range(2)
    ]
    cases = [(sweedler.algebra, sweedler.rho)] + [(m2, u) for u in dense]
    cases += [(rho.algebra, rho) for rho in thm5]

    def invert_all():
        out = []
        for algebra, u in cases:
            try:
                out.append(tensor_invert(algebra, u).coeffs)
            except SingularError as exc:
                out.append(str(exc))
        return out

    got = invert_all()
    monkeypatch.setattr(oqa.algebra, "solve_sparse", oracle_solve_sparse)
    assert got == invert_all()
    assert all(isinstance(v, dict) for v in got)


def _nilpotent_conjugation(algebra, n, entries):
    """x -> P x P^-1 for P = 1 + N with N nilpotent (P^-1 = 1 - N + N^2 - ...)."""
    t = algebra.table
    unit = lambda i, j: (i - 1) * n + (j - 1)
    N = algebra.element({unit(i, j): c for (i, j), c in entries.items()})
    P, P_inv, power, sign = algebra.one() + N, algebra.one(), algebra.one(), -t.one
    for _ in range(n - 1):
        power = power * N
        P_inv = P_inv + power.scale(sign)
        sign = -sign
    assert P * P_inv == algebra.one()
    return P, P_inv


def test_map_inverse_matches_full_elimination(monkeypatch):
    """Conjugation on M_3 by a non-diagonal element, and a singular map."""
    t = SymbolTable(["a"])
    a = t.sym("a")
    m3 = matrix_algebra(t, 3)
    upper, upper_inv = _nilpotent_conjugation(
        m3, 3, {(1, 2): a, (2, 3): t.scalar(2), (1, 3): t.one}
    )
    lower, lower_inv = _nilpotent_conjugation(m3, 3, {(2, 1): t.scalar(3), (3, 2): a})
    P, P_inv = upper * lower, lower_inv * upper_inv
    conj = AlgebraMap(
        m3, {j: (P * m3.basis_element(j) * P_inv).coeffs for j in range(9)}
    )
    assert conj.is_multiplicative()
    assert any(len(col) > 1 for col in conj.columns.values())
    # E33 goes to a E11 + E12, inside the span of the first two columns
    singular = AlgebraMap(m3, {j: {j: t.one} for j in range(8)} | {8: {0: a, 1: t.one}})

    def invert(m):
        try:
            return m.inverse().columns
        except SingularError as exc:
            return str(exc)

    got = [invert(conj), invert(singular)]
    assert conj.inverse().compose(conj).is_identity()
    assert got[1] == "map is not invertible"
    monkeypatch.setattr(oqa.algebra, "solve_sparse", oracle_solve_sparse)
    assert got == [invert(conj), invert(singular)]
