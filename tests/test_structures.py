import json
import random
from fractions import Fraction

import pytest

from oqa import (
    AlgebraElement,
    AlgebraMap,
    MnStructureParams,
    build_balanced_example2,
    OrientedQuantumAlgebraStructure,
    ScalarError,
    SingularError,
    StructureError,
    SymbolTable,
    TensorSquareElement,
    TwistError,
    attach_twist,
    build_rho_abc,
    build_thm5,
    check_axioms,
    classify_thm5,
    matrix_algebra,
    minimal_subalgebra,
    opposite,
    params_from_json,
    single_block_params,
    standardize,
    structure_from_json,
    structure_to_json,
    sweedler_oqa,
    tensor_unit,
)


def test_rho_abc_slots_n2():
    t = SymbolTable(["a", "sbc", "b"])
    a, sbc, b = t.syms("a", "sbc", "b")
    bc = sbc * sbc
    rho = build_rho_abc(t, 2, a, bc, {(1, 2): b})
    # slots (E12,E21), (E11,E11), (E22,E22), (E11,E22), (E22,E11)
    assert rho.coeffs == {
        (1, 2): a - bc / a,
        (0, 0): a,
        (3, 3): a,
        (0, 3): b,
        (3, 0): bc / b,
    }


def test_rho_abc_numeric_coefficient():
    t = SymbolTable([])
    rho = build_rho_abc(t, 2, t.scalar(2), t.one, {(1, 2): t.one})
    assert rho.coeffs[(1, 2)] == t.rational(3, 2)


def test_example2_axioms_n2(ex2_n2):
    report = check_axioms(ex2_n2)
    assert report.all_true and report.witnesses == ()


def test_example2_axioms_n3(ex2_n3):
    assert check_axioms(ex2_n3).all_true


def test_example2_omega_squares(table2, ex2_n2):
    a, sbc = table2.syms("a", "sbc")
    r = a * a / (sbc * sbc)
    g = ex2_n2.twist.g
    assert g.coeffs[0] == table2.one
    assert g.coeffs[3] == r


def test_twist_conjugation(table2, ex2_n2):
    # (t_d o t_u)(E12) = G E12 G^-1 = (omega_1^2/omega_2^2) E12
    a, sbc = table2.syms("a", "sbc")
    r = a * a / (sbc * sbc)
    e12 = ex2_n2.algebra.basis_element(1)
    assert ex2_n2.d_then_u().apply(e12) == e12.scale(r.inv())
    assert ex2_n2.twist.g * e12 * ex2_n2.twist.g_inv == e12.scale(r.inv())


def test_sweedler_axioms_symbolic():
    t = SymbolTable(["alpha"])
    S = sweedler_oqa(t, t.sym("alpha"))
    assert check_axioms(S).all_true
    assert S.is_standard
    # (s^-2 (x) s^-2) fixes rho_alpha
    from oqa import apply_map_tensor

    assert apply_map_tensor(S.t_u, S.t_u, S.rho) == S.rho


def test_sweedler_axioms_alpha_zero():
    t = SymbolTable(["alpha"])
    S = sweedler_oqa(t, t.zero)
    assert check_axioms(S).all_true


def test_broken_automorphism_fails_qa1(table2, ex2_n2):
    swapped = OrientedQuantumAlgebraStructure(
        algebra=ex2_n2.algebra,
        rho=ex2_n2.rho,
        rho_inv=ex2_n2.rho_inv,
        t_d=ex2_n2.t_d.inverse(),
        t_u=ex2_n2.t_u,
        twist=None,
        trace=ex2_n2.trace,
    )
    report = check_axioms(swapped)
    assert not report.qa1
    assert report.qa2 and report.qa3
    assert any("qa1" in w for w in report.witnesses)


def test_standardize(ex2_n2):
    S = standardize(ex2_n2)
    assert S.is_standard
    assert S.t_u == ex2_n2.t_u.compose(ex2_n2.t_d)
    assert check_axioms(S).all_true
    again = standardize(S)
    assert again.t_d == S.t_d and again.t_u == S.t_u
    assert S.twist == ex2_n2.twist


def test_opposite(ex2_n2):
    Sop = opposite(ex2_n2)
    assert check_axioms(Sop).all_true
    assert Sop.twist.g == AlgebraElement(Sop.algebra, dict(ex2_n2.twist.g_inv.coeffs))
    Sopop = opposite(Sop)
    assert Sopop.rho == ex2_n2.rho
    assert Sopop.algebra.structure == ex2_n2.algebra.structure
    assert Sopop.twist.g.coeffs == ex2_n2.twist.g.coeffs


def test_attach_twist_scaling(table2, ex2_n2):
    z = table2.sym("b")  # any invertible scalar
    g = ex2_n2.twist.g.scale(z)
    S = attach_twist(ex2_n2, g)
    assert S.twist.g == g
    # non-invertible twist is rejected by name
    e11 = ex2_n2.algebra.basis_element(0)
    with pytest.raises(TwistError, match="invertible"):
        attach_twist(ex2_n2, e11)


def test_attach_twist_wrong_conjugation(table2, ex2_n2):
    bad = ex2_n2.algebra.one()
    with pytest.raises(TwistError, match="conjugation"):
        attach_twist(ex2_n2, bad)


def test_sweedler_twist_accepted():
    t = SymbolTable(["alpha"])
    S = sweedler_oqa(t, t.sym("alpha"))
    g = S.algebra.basis_element(1)  # the grouplike generator implements s^-2
    S2 = attach_twist(S, g)
    assert S2.twist.g == g


def test_minimal_subalgebra(table2, ex2_n2):
    basis = minimal_subalgebra(ex2_n2)
    assert len(basis) == 4
    # rho = 1 (x) 1 generates only the scalars
    trivial = OrientedQuantumAlgebraStructure.create(
        ex2_n2.algebra,
        tensor_unit(ex2_n2.algebra),
        AlgebraMap.identity(ex2_n2.algebra),
        AlgebraMap.identity(ex2_n2.algebra),
        validate_maps=False,
    )
    assert len(minimal_subalgebra(trivial)) == 1


def test_minimal_subalgebra_sweedler():
    t = SymbolTable(["alpha"])
    assert len(minimal_subalgebra(sweedler_oqa(t, t.sym("alpha")))) == 4
    assert len(minimal_subalgebra(sweedler_oqa(t, t.zero))) == 2


def test_minimal_subalgebra_stability(ex2_n2):
    basis = minimal_subalgebra(ex2_n2)
    from oqa.algebra import echelon_basis

    span = echelon_basis(basis)

    def in_span(x):
        return len(echelon_basis(span + [x])) == len(span)

    for u in (ex2_n2.rho, ex2_n2.rho_inv):
        for v in u.first_tensorand_span() + u.second_tensorand_span():
            assert in_span(v)
    for x in basis:
        assert in_span(ex2_n2.t_d.apply(x))
        assert in_span(ex2_n2.t_u.apply(x))
        for y in basis:
            assert in_span(x * y)


# -- the diagonal-block classification -----------------------------------------


def test_classify_example2_params(table2):
    a, sbc, b = table2.syms("a", "sbc", "b")
    params = single_block_params(table2, 2, [a, a], sbc * sbc, {(1, 2): b}, table2.one)
    assert classify_thm5(params).ok


def test_singleton_blocks_any_off_diagonal():
    t = SymbolTable([])
    params = MnStructureParams(
        table=t,
        n=2,
        blocks=((1,), (2,)),
        bc={},
        diag={1: t.scalar(3), 2: t.scalar(5)},
        off_diag={(1, 2): t.scalar(7), (2, 1): t.scalar(11)},
        omega_sq={1: t.scalar(4), 2: t.scalar(9)},
        omega_base_root={1: t.scalar(2), 2: t.scalar(3)},
    )
    assert classify_thm5(params).ok
    S = build_thm5(params)
    assert check_axioms(S).all_true
    # no exchange term: only E_ii (x) E_jj slots survive
    assert set(S.rho.coeffs) <= {(0, 0), (0, 3), (3, 0), (3, 3)}


def test_params_coerced_at_construction():
    """Ints and Fractions become Scalars of the table at construction, so a
    raw table classifies and builds exactly as its Scalar twin; a Scalar of
    another table is refused there."""
    t = SymbolTable([])
    raw = dict(
        n=3,
        blocks=((1, 2), (3,)),
        bc={0: 4, 1: 1},
        diag={1: 3, 2: 3, 3: 5},
        off_diag={(1, 2): 2, (2, 1): 2, (1, 3): 7, (3, 1): 1, (2, 3): 7, (3, 2): 1},
        omega_sq={1: 1, 2: Fraction(9, 4), 3: 1},
        omega_base_root={1: 1, 3: 1},
    )

    def params(exchange, convert):
        fields = dict(raw, exchange={(1, 2): exchange})
        fields = {
            k: {key: convert(v) for key, v in vals.items()} if isinstance(vals, dict) else vals
            for k, vals in fields.items()
        }
        return MnStructureParams(table=t, **fields)

    keep = lambda v: v
    for exchange, failing in ((Fraction(5, 3), []), (1, ["d_iii"])):
        from_raw, from_scalars = params(exchange, keep), params(exchange, t.scalar)
        report = classify_thm5(from_raw)
        assert report == classify_thm5(from_scalars) and report.failing() == failing
        assert from_raw == from_scalars
    built = [build_thm5(params(Fraction(5, 3), f)) for f in (keep, t.scalar)]
    assert structure_to_json(built[0]) == structure_to_json(built[1])

    other = SymbolTable(["a"])
    for field in ("bc", "diag", "off_diag", "omega_sq", "exchange", "omega_base_root"):
        fields = dict(raw, exchange={(1, 2): Fraction(5, 3)})
        fields[field] = {k: other.scalar(v) for k, v in fields[field].items()}
        with pytest.raises(ScalarError, match="different symbol table"):
            MnStructureParams(table=t, **fields)


def test_alexander_branch_builds(alexander_n2):
    assert check_axioms(alexander_n2).all_true
    trace_g = alexander_n2.twist.g.pairing(alexander_n2.trace)
    assert trace_g.is_zero


def test_classify_tampered_exchange(table2):
    a, sbc, b = table2.syms("a", "sbc", "b")
    bc = sbc * sbc
    params = single_block_params(table2, 2, [a, a], bc, {(1, 2): b}, table2.one)
    tampered = MnStructureParams(
        table=params.table,
        n=params.n,
        blocks=params.blocks,
        bc=params.bc,
        diag=params.diag,
        off_diag=params.off_diag,
        omega_sq=params.omega_sq,
        exchange={(1, 2): a},  # should be a - bc/a
    )
    report = classify_thm5(tampered)
    assert not report.ok and report.failing() == ["d_iii"]
    with pytest.raises(StructureError, match="d_iii"):
        build_thm5(tampered)


def test_classify_tampered_omega(table2):
    a, sbc, b = table2.syms("a", "sbc", "b")
    bc = sbc * sbc
    base = single_block_params(table2, 2, [a, a], bc, {(1, 2): b}, table2.one)
    tampered_omega = dict(base.omega_sq)
    tampered_omega[2] = tampered_omega[2] * table2.scalar(4)
    params = MnStructureParams(
        table=base.table,
        n=base.n,
        blocks=base.blocks,
        bc=base.bc,
        diag=base.diag,
        off_diag=base.off_diag,
        omega_sq=tampered_omega,
    )
    report = classify_thm5(params)
    assert report.failing() == ["d_i"]
    # and the corresponding structure (ratios scaled by 2) breaks (qa.1)
    S = _structure_from_params(params, {2: table2.scalar(2)})
    rep = check_axioms(S)
    assert not rep.qa1


def test_cross_block_clause_matches_yang_baxter():
    """Clauses (a)-(d) alone miss a Yang-Baxter constraint across blocks."""
    t = SymbolTable([])
    sc = t.scalar
    common = dict(
        table=t,
        n=3,
        blocks=((1, 2), (3,)),
        bc={0: sc(4), 1: sc(1)},
        diag={1: sc(3), 2: sc(3), 3: sc(5)},
        omega_sq={1: sc(1), 2: sc(Fraction(9, 4)), 3: sc(1)},
        omega_base_root={1: sc(1), 3: sc(1)},
    )
    good = MnStructureParams(
        off_diag={(1, 2): sc(2), (2, 1): sc(2),
                  (1, 3): sc(7), (3, 1): sc(1),
                  (2, 3): sc(7), (3, 2): sc(1)},
        **common,
    )
    bad = MnStructureParams(
        off_diag={(1, 2): sc(2), (2, 1): sc(2),
                  (1, 3): sc(7), (3, 1): sc(1),
                  (2, 3): sc(11), (3, 2): sc(1)},
        **common,
    )
    assert classify_thm5(good).ok
    assert check_axioms(build_thm5(good)).all_true
    report = classify_thm5(bad)
    assert report.failing() == ["cross"]
    S = _structure_from_params(bad, {})
    rep = check_axioms(S)
    assert rep.qa1 and rep.qa2 and not rep.qa3


def _structure_from_params(params, sigma_scale):
    """Assemble the structure a (possibly tampered) table describes.

    sigma_scale optionally multiplies individual automorphism roots, matching
    omega-square tampering by perfect squares.
    """
    t = params.table
    n = params.n
    algebra = matrix_algebra(t, n)
    idx = lambda i, j: (i - 1) * n + (j - 1)
    coeffs = {}
    for i in range(1, n + 1):
        coeffs[(idx(i, i), idx(i, i))] = t.scalar(params.diag[i])
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                coeffs[(idx(i, i), idx(j, j))] = t.scalar(params.off_diag[(i, j)])
                v = params.exchange_value(i, j)
                if not v.is_zero:
                    coeffs[(idx(i, j), idx(j, i))] = v
    rho = TensorSquareElement(algebra, coeffs)

    from oqa import perfect_sqrt

    sigma = {}
    for k, blk in enumerate(params.blocks):
        base = params.omega_base_root[blk[0]] if params.omega_base_root else t.one
        sigma[blk[0]] = base
        for prev, cur in zip(blk, blk[1:]):
            ratio = perfect_sqrt(
                t.scalar(params.bc[k])
                / (t.scalar(params.diag[prev]) * t.scalar(params.diag[cur]))
            )
            assert ratio is not None
            sigma[cur] = sigma[prev] / ratio
    for i, z in sigma_scale.items():
        sigma[i] = sigma[i] * z
    cols = {
        idx(i, j): {idx(i, j): sigma[i] / sigma[j]}
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    }
    tm = AlgebraMap(algebra, cols)
    return OrientedQuantumAlgebraStructure.create(
        algebra, rho, tm, tm, validate_maps=False
    )


# -- randomized classification sampling (shared with the acceptance suite) ----


def _rand_fraction(rng, nonzero=True):
    while True:
        v = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        if v != 0 or not nonzero:
            return v


def sample_params(rng, n):
    """A random parameter table plus the matching automorphism root scales.

    Returns (params, sigma_scale, expected_ok): by construction the table is
    valid; tampering happens outside.
    """
    t = SymbolTable([], gaussian=True)
    sc = lambda v: t.scalar(v)

    indices = list(range(1, n + 1))
    rng.shuffle(indices)
    blocks = []
    while indices:
        size = rng.randint(1, len(indices))
        blocks.append(tuple(indices[:size]))
        indices = indices[size:]
    blocks = tuple(blocks)

    bc = {}
    diag = {}
    omega_base_root = {}
    for k, blk in enumerate(blocks):
        beta = _rand_fraction(rng)
        bc[k] = sc(beta * beta)
        while True:
            a_e = sc(_rand_fraction(rng))
            if a_e * a_e != bc[k]:
                break
        for pos, i in enumerate(blk):
            if pos == 0 or rng.random() < 0.6:
                diag[i] = a_e
            else:
                diag[i] = -bc[k] / a_e
        omega_base_root[blk[0]] = sc(_rand_fraction(rng))

    # block-pair constants force the cross-block Yang-Baxter coupling
    pair_const = {}
    for k1 in range(len(blocks)):
        for k2 in range(k1, len(blocks)):
            if k1 == k2:
                pair_const[(k1, k2)] = bc[k1]
            else:
                c = sc(_rand_fraction(rng))
                pair_const[(k1, k2)] = pair_const[(k2, k1)] = c

    block_of = {i: k for k, blk in enumerate(blocks) for i in blk}
    off_diag = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            c = pair_const[(block_of[i], block_of[j])]
            v = sc(_rand_fraction(rng))
            off_diag[(i, j)] = v
            off_diag[(j, i)] = c / v

    omega_sq = {}
    for k, blk in enumerate(blocks):
        e = blk[0]
        w = omega_base_root[e] * omega_base_root[e]
        omega_sq[e] = w
        for pos in range(1, len(blk)):
            u = blk[pos]
            val = (t.scalar(diag[e]) * t.scalar(diag[u]) / bc[k]) * w
            for j in blk[1:pos]:
                val = val * (t.scalar(diag[j]) ** 2 / bc[k])
            omega_sq[u] = val

    params = MnStructureParams(
        table=t,
        n=n,
        blocks=blocks,
        bc=bc,
        diag=diag,
        off_diag=off_diag,
        omega_sq=omega_sq,
        omega_base_root=omega_base_root,
    )
    return params


TAMPER_KINDS = ("none", "off_diag_pair", "exchange", "diag_value", "omega", "cross")


def tamper_params(rng, params):
    """Break one clause (or none); returns (params', sigma_scale, kind)."""
    t = params.table
    kind = rng.choice(TAMPER_KINDS)
    multi = [k for k, blk in enumerate(params.blocks) if len(blk) >= 2]
    fields = dict(
        table=t,
        n=params.n,
        blocks=params.blocks,
        bc=params.bc,
        diag=dict(params.diag),
        off_diag=dict(params.off_diag),
        omega_sq=dict(params.omega_sq),
        exchange=None,
        omega_base_root=params.omega_base_root,
    )
    sigma_scale = {}
    if kind == "off_diag_pair" and params.n >= 2:
        i, j = sorted(rng.sample(range(1, params.n + 1), 2))
        fields["off_diag"][(j, i)] = fields["off_diag"][(j, i)] * t.scalar(3)
    elif kind == "exchange" and multi:
        blk = params.blocks[multi[0]]
        i, j = blk[0], blk[1]
        fields["exchange"] = {
            (a, b): params.exchange_value(a, b)
            for a in range(1, params.n + 1)
            for b in range(1, params.n + 1)
            if a != b and not params.exchange_value(a, b).is_zero
        }
        fields["exchange"][(i, j)] = params.exchange_value(i, j) + t.one
    elif kind == "diag_value" and multi:
        blk = params.blocks[multi[0]]
        u = blk[-1]
        g = t.scalar(Fraction(2))
        fields["diag"][u] = fields["diag"][u] * g * g
        sigma_scale[u] = g.inv()  # keep a consistent square root choice
    elif kind == "omega" and multi:
        blk = params.blocks[multi[0]]
        u = blk[-1]
        fields["omega_sq"][u] = fields["omega_sq"][u] * t.scalar(4)
        sigma_scale[u] = t.scalar(2)
    elif kind == "cross" and len(params.blocks) >= 2 and multi:
        blk = params.blocks[multi[0]]
        other = [i for k, b in enumerate(params.blocks) if k != multi[0] for i in b]
        if other:
            i, k = blk[0], other[0]
            fields["off_diag"][(i, k)] = fields["off_diag"][(i, k)] * t.scalar(5)
        else:
            kind = "none"
    else:
        kind = "none"
    return MnStructureParams(**fields), sigma_scale, kind


def test_closed_form_rho_inv_matches_tensor_invert():
    """build_thm5's closed-form rho^-1 equals the linear solve on seeded
    Thm-5 tables (n = 2-4, 1-3 blocks), on symbolic copies of them and on
    symbolic example2 parameters, also where both exchange slots of a pair
    are set."""
    from oqa import tensor_invert
    from oqa.structures import _params_rho, _params_rho_inv

    rng = random.Random(5)
    ts = SymbolTable(["s"], gaussian=True)
    s = ts.sym("s")
    cases = []
    for n in (2, 3, 4, 2, 3, 4, 3, 4):
        params = sample_params(rng, n)
        cases.append(params)
        # rho_ijij -> s rho_ijij and rho_jiji -> rho_jiji / s keep every clause
        lift = lambda v: ts.parse(v.text())
        off = {(i, j): lift(v) * (s if i < j else s.inv()) for (i, j), v in params.off_diag.items()}
        cases.append(MnStructureParams(
            table=ts, n=n, blocks=params.blocks,
            bc={k: lift(v) for k, v in params.bc.items()},
            diag={k: lift(v) for k, v in params.diag.items()}, off_diag=off,
            omega_sq={k: lift(v) for k, v in params.omega_sq.items()},
            omega_base_root={k: lift(v) for k, v in params.omega_base_root.items()},
        ))
    assert {len(p.blocks) for p in cases} >= {1, 2, 3}
    for n in (2, 3, 4):
        t = SymbolTable(["a", "sbc", "b"])
        a, sbc, b = t.syms("a", "sbc", "b")
        B = {(i, j): b * (i + j) for i in range(1, n + 1) for j in range(i + 1, n + 1)}
        cases.append(single_block_params(t, n, [a] * n, sbc * sbc, B, t.one))
    both = cases[0]
    exchange = {(i, j): both.table.scalar(i + 2 * j) for i in range(1, 3) for j in range(1, 3) if i != j}
    cases.append(MnStructureParams(
        table=both.table, n=2, blocks=((1, 2),), bc={0: both.table.one},
        diag={1: both.table.one, 2: both.table.scalar(3)},
        off_diag={(1, 2): both.table.scalar(5), (2, 1): both.table.scalar(7)},
        omega_sq={1: both.table.one, 2: both.table.one}, exchange=exchange,
    ))
    for params in cases:
        A = matrix_algebra(params.table, params.n)
        assert _params_rho_inv(params, A) == tensor_invert(A, _params_rho(params, A))
    assert all(classify_thm5(p).ok for p in cases[:-1])


def classification_matches_axioms(params, sigma_scale):
    """classify verdict == axiom verdict for the assembled structure."""
    report = classify_thm5(params)
    try:
        S = _structure_from_params(params, sigma_scale)
    except SingularError:
        return report.ok is False
    axioms = check_axioms(S)
    return report.ok == axioms.all_true


@pytest.mark.parametrize("seed", [0, 1])
def test_classification_equivalence_sampled(seed):
    rng = random.Random(seed)
    checked = 0
    for _ in range(30):
        n = rng.choice([2, 3])
        params = sample_params(rng, n)
        assert classify_thm5(params).ok, "generator must produce valid tables"
        tampered, sigma_scale, kind = tamper_params(rng, params)
        assert classification_matches_axioms(tampered, sigma_scale), (
            seed,
            n,
            kind,
        )
        checked += 1
    assert checked == 30


# -- serialization --------------------------------------------------------------


def test_structure_json_round_trip(ex2_n2):
    blob = json.dumps(structure_to_json(ex2_n2))
    S = structure_from_json(json.loads(blob))
    assert S.rho == ex2_n2.rho
    assert S.rho_inv == ex2_n2.rho_inv
    assert S.t_d == ex2_n2.t_d and S.t_u == ex2_n2.t_u
    assert S.twist.g == ex2_n2.twist.g
    assert S.trace == ex2_n2.trace
    # and the text form is stable under another round trip
    assert structure_to_json(S) == structure_to_json(ex2_n2)


def test_structure_json_round_trip_sweedler():
    t = SymbolTable(["alpha"])
    S = sweedler_oqa(t, t.sym("alpha"))
    S2 = structure_from_json(structure_to_json(S))
    assert S2.rho == S.rho and S2.t_u == S.t_u


def _assert_json_round_trip(S):
    blob = json.dumps(structure_to_json(S))
    S2 = structure_from_json(json.loads(blob))
    assert S2.algebra.structure == S.algebra.structure
    assert S2.algebra.name == S.algebra.name
    assert S2.rho == S.rho and S2.rho_inv == S.rho_inv
    assert S2.t_d == S.t_d and S2.t_u == S.t_u
    assert (S2.twist is None) == (S.twist is None)
    if S.twist is not None:
        assert S2.twist.g == S.twist.g and S2.twist.g_inv == S.twist.g_inv
    assert S2.trace == S.trace
    assert json.dumps(structure_to_json(S2)) == blob
    return json.loads(blob)


def test_structure_json_round_trip_opposite_sweedler():
    t = SymbolTable(["alpha"])
    S = sweedler_oqa(t, t.sym("alpha"))
    assert "opposite" not in _assert_json_round_trip(S)["algebra"]
    data = _assert_json_round_trip(opposite(S))
    assert data["algebra"] == {"kind": "sweedler", "opposite": True}


def test_structure_json_round_trip_opposite_matrix(ex2_n2):
    assert "opposite" not in _assert_json_round_trip(ex2_n2)["algebra"]
    data = _assert_json_round_trip(opposite(ex2_n2))
    assert data["algebra"] == {"kind": "matrix", "n": 2, "opposite": True}


def test_params_from_json():
    """The shared parameter reader: a missing b_ij is 1, a key may carry
    spaces, a_values override a, and example2 files build from the result."""
    t = SymbolTable(["a", "sbc", "b"])
    a, sbc, b = t.syms("a", "sbc", "b")
    data = {"symbols": ["a", "sbc", "b"], "n": 3, "a": "a", "bc": "sbc**2",
            "b": {"1, 3": "b"}, "omega1_sq": "2"}
    B = {(1, 2): t.one, (1, 3): b, (2, 3): t.one}
    assert params_from_json(data) == single_block_params(t, 3, [a] * 3, sbc * sbc, B, t.scalar(2))
    a_values = [a, -sbc * sbc / a, a]
    got = params_from_json(dict(data, a_values=["a", "-sbc**2/a", "a"]))
    assert got == single_block_params(t, 3, a_values, sbc * sbc, B, t.scalar(2))
    built = structure_from_json(dict(data, builder="example2"))
    assert built.name == "example2(n=3)"
    want = build_balanced_example2(t, 3, a, sbc * sbc, B, t.scalar(2))
    assert structure_to_json(built) == structure_to_json(want)


def test_example2_numeric_n4():
    """Numeric spot check at n = 4: all axioms, twist, trace identities."""
    t = SymbolTable([])
    sc = t.scalar
    a = sc(3)
    bc = sc(4)  # sbc = 2
    B = {(i, j): sc(1 + i + j) for i in range(1, 5) for j in range(i + 1, 5)}
    S = build_balanced_example2(t, 4, a, bc, B, t.one)
    assert check_axioms(S).all_true
    g = S.twist.g
    r = a * a / bc
    assert g.pairing(S.trace) == 1 + r + r**2 + r**3
