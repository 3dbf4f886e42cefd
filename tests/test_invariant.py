import random
import re
from dataclasses import replace
from fractions import Fraction

import pytest

from oqa import (
    InvariantError,
    MnStructureParams,
    SymbolTable,
    build_thm5,
    builtin,
    compose_tangles,
    evaluate_knot,
    evaluate_link,
    evaluate_tangle,
    formal_word,
    mirror,
    opposite,
    orientation_reverse,
    parse_diagram,
    standardize,
    sweedler_oqa,
    traverse,
)
from oqa.diagram import word
from oqa.diagram import upward_points

from oracles import oracle_evaluate


def _direct_rho_sum(S, expr):
    """sum over rho entries of expr(first factor, second factor), scaled."""
    total = S.algebra.zero()
    for (i, j), c in S.rho.coeffs.items():
        total = total + expr(
            S.algebra.basis_element(i), S.algebra.basis_element(j)
        ).scale(c)
    return total


def test_formal_word_shapes(ex2_n2):
    fw = formal_word(builtin("trefoil_tangle"))
    assert len(fw.components) == 1
    assert [f[1] for f in fw.components[0]] == [1, 0, 1, 0, 1, 0]
    fw_curl = formal_word(builtin("curl"))
    assert [f[1:] for f in fw_curl.components[0]] == [(0, -1, -1), (1, 0, 0)]
    empty = formal_word(word(boundary="open"))
    assert empty.components == ((),)
    assert "td" in fw_curl.component_text(0)


def test_identity_strand(ex2_n2):
    assert evaluate_tangle(ex2_n2, word(boundary="open")) == ex2_n2.algebra.one()


def test_curl_formula(ex2_n2):
    T = ex2_n2.d_then_u()
    got = evaluate_tangle(ex2_n2, builtin("curl"))
    assert got == _direct_rho_sum(ex2_n2, lambda x, y: x * T.apply(y))


def test_curl_op_formula(ex2_n2):
    T = ex2_n2.d_then_u()
    got = evaluate_tangle(ex2_n2, builtin("curl_op"))
    assert got == _direct_rho_sum(ex2_n2, lambda x, y: T.apply(y) * x)


def test_trefoil_tangle_formula(ex2_n2):
    """w equals the six-factor reformulated word, summed over three copies."""
    S = ex2_n2
    T = S.d_then_u()
    A = S.algebra
    total = A.zero()
    for (i1, j1), c1 in S.rho.coeffs.items():
        for (i2, j2), c2 in S.rho.coeffs.items():
            for (i3, j3), c3 in S.rho.coeffs.items():
                el = (
                    T.apply(A.basis_element(j1))
                    * T.apply(A.basis_element(i2))
                    * T.apply(A.basis_element(j3))
                    * A.basis_element(i1)
                    * A.basis_element(j2)
                    * A.basis_element(i3)
                )
                total = total + el.scale(c1 * c2 * c3)
    assert evaluate_tangle(S, builtin("trefoil_tangle")) == total


def test_hopf_closed_form_n2(ex2_n2):
    S = ex2_n2
    A, g, gi, tr = S.algebra, S.twist.g, S.twist.g_inv, S.trace
    total = S.table.zero
    for (i1, j1), c1 in S.rho.coeffs.items():
        for (i2, j2), c2 in S.rho.coeffs.items():
            t1 = (gi * A.basis_element(i1) * A.basis_element(j2)).pairing(tr)
            t2 = (g * A.basis_element(j1) * A.basis_element(i2)).pairing(tr)
            total = total + c1 * c2 * t1 * t2
    assert evaluate_link(S, builtin("hopf")) == total


def test_hopf_closed_form_n3(ex2_n3):
    S = ex2_n3
    A, g, gi, tr = S.algebra, S.twist.g, S.twist.g_inv, S.trace
    total = S.table.zero
    for (i1, j1), c1 in S.rho.coeffs.items():
        for (i2, j2), c2 in S.rho.coeffs.items():
            t1 = (gi * A.basis_element(i1) * A.basis_element(j2)).pairing(tr)
            t2 = (g * A.basis_element(j1) * A.basis_element(i2)).pairing(tr)
            total = total + c1 * c2 * t1 * t2
    assert evaluate_link(S, builtin("hopf")) == total


def test_unknot_values(ex2_n2):
    S = ex2_n2
    assert evaluate_link(S, builtin("unknot_ccw")) == S.twist.g_inv.pairing(S.trace)
    assert evaluate_link(S, builtin("unknot_cw")) == S.twist.g.pairing(S.trace)


def test_knot_wrapper(ex2_n2, monkeypatch):
    """evaluate_knot is evaluate_link on one component, and it counts the
    components on the one traversal it sums over."""
    import oqa.invariant

    d = builtin("trefoil_knot")
    want = evaluate_link(ex2_n2, d)
    walks = 0
    walk = oqa.invariant.traverse

    def counted(*args):
        nonlocal walks
        walks += 1
        return walk(*args)

    monkeypatch.setattr(oqa.invariant, "traverse", counted)
    assert evaluate_knot(ex2_n2, d, preferred_starts=[upward_points(d)[-1]]) == want
    assert walks == 1
    with pytest.raises(InvariantError, match="one component"):
        evaluate_knot(ex2_n2, builtin("hopf"))


def test_missing_twist_and_trace_errors(ex2_n2):
    t = SymbolTable(["alpha"])
    S = sweedler_oqa(t, t.sym("alpha"))
    with pytest.raises(InvariantError, match="twist"):
        evaluate_link(S, builtin("unknot_ccw"))
    bad_trace = {0: ex2_n2.table.one, 1: ex2_n2.table.one}
    with pytest.raises(InvariantError, match="tracelike"):
        evaluate_link(ex2_n2, builtin("hopf"), trace=bad_trace)


def test_non_tracelike_functional_rejected(ex2_n2):
    # an unevenly weighted diagonal functional is not tracelike on M_2:
    # it separates E12 E21 from E21 E12
    t = ex2_n2.table
    weighted = {0: t.one, 3: t.sym("b")}
    with pytest.raises(InvariantError, match="tracelike"):
        evaluate_link(ex2_n2, builtin("hopf"), trace=weighted)


def test_tangle_closed_components_check_the_trace(ex2_n2):
    """evaluate_tangle closes extra components only with a trace that
    evaluate_link accepts; a tangle without them does not consult it."""
    t = ex2_n2.table
    weighted = replace(ex2_n2, trace={0: t.one, 3: t.scalar(2)})
    strand_and_circle = parse_diagram("boundary: open\ncup_ccw 1\ncap_ccw 1")
    with pytest.raises(InvariantError, match="functional is not tracelike"):
        evaluate_link(weighted, builtin("hopf"))
    with pytest.raises(InvariantError, match="functional is not tracelike"):
        evaluate_tangle(weighted, strand_and_circle)
    assert not evaluate_tangle(ex2_n2, strand_and_circle).is_zero
    curl = builtin("curl")
    assert evaluate_tangle(weighted, curl) == evaluate_tangle(ex2_n2, curl)


def test_basepoint_independence(ex2_n2):
    for name in ("hopf", "trefoil_knot"):
        d = builtin(name)
        base = evaluate_link(ex2_n2, d)
        for pt in upward_points(d):
            assert evaluate_link(ex2_n2, d, preferred_starts=[pt]) == base


def test_multiplicativity_random_compositions(ex2_n2):
    rng = random.Random(7)
    pieces = [
        builtin("curl"),
        builtin("curl_op"),
        builtin("trefoil_tangle"),
        mirror(builtin("curl")),
        word(boundary="open"),
    ]
    for _ in range(8):
        t1, t2 = rng.choice(pieces), rng.choice(pieces)
        left = evaluate_tangle(ex2_n2, compose_tangles(t1, t2))
        right = evaluate_tangle(ex2_n2, t1) * evaluate_tangle(ex2_n2, t2)
        assert left == right


def test_standardization_agreement(ex2_n2):
    Sstd = standardize(ex2_n2)
    for name, m in [
        ("hopf", None), ("trefoil_knot", None), ("figure8_knot", None),
        ("unknot_ccw", None), ("unknot_cw", None),
        ("c_r_plus", 2), ("c_l_plus", 2), ("c_r_minus", 1), ("c_l_minus", 1),
    ]:
        d = builtin(name, m)
        assert evaluate_link(ex2_n2, d) == evaluate_link(Sstd, d), name
    for name in ("curl", "curl_op", "trefoil_tangle"):
        d = builtin(name)
        assert evaluate_tangle(ex2_n2, d) == evaluate_tangle(Sstd, d), name


def test_opposite_orientation_tangles(ex2_n2):
    Sop = opposite(ex2_n2)
    for name in ("curl", "trefoil_tangle"):
        d = builtin(name)
        left = evaluate_tangle(ex2_n2, orientation_reverse(d))
        right = evaluate_tangle(Sop, d)
        # elements of A and A^op share coefficients on the same basis
        assert left.coeffs == right.coeffs, name


def test_opposite_orientation_knot(ex2_n2):
    Sop = opposite(ex2_n2)
    d = builtin("trefoil_knot")
    assert evaluate_link(ex2_n2, orientation_reverse(d)) == evaluate_link(Sop, d)


def test_oracle_agreement_symbolic(ex2_n2):
    for name, m in [
        ("unknot_cw", None), ("hopf", None), ("trefoil_knot", None),
        ("c_r_plus", 2), ("c_l_minus", 1),
    ]:
        d = builtin(name, m)
        assert oracle_evaluate(ex2_n2, d) == evaluate_link(ex2_n2, d), name
    for name in ("curl", "curl_op", "trefoil_tangle"):
        d = builtin(name)
        assert oracle_evaluate(ex2_n2, d) == evaluate_tangle(ex2_n2, d), name


def test_alexander_branch_values_vanish(alexander_n2):
    """With Tr G = 0 every closed diagram evaluates to zero.

    The skein relation plus vanishing curled unknots forces this; it is the
    reason the degenerate branch cannot follow the Alexander polynomial on
    closed diagrams.
    """
    for name, m in [
        ("unknot_ccw", None), ("hopf", None), ("trefoil_knot", None),
        ("figure8_knot", None), ("c_r_plus", 2),
    ]:
        assert evaluate_link(alexander_n2, builtin(name, m)).is_zero, name
    # open tangles remain informative
    w = evaluate_tangle(alexander_n2, builtin("trefoil_tangle"))
    assert not w.is_zero


def test_sweedler_tangle_invariants():
    t = SymbolTable(["alpha"])
    S = sweedler_oqa(t, t.sym("alpha"))
    w = evaluate_tangle(S, builtin("curl"))
    # invariance under a cancelling kink pair appended
    composite = compose_tangles(builtin("curl"), mirror(builtin("curl_op")))
    assert evaluate_tangle(S, composite) == S.algebra.one()
    assert not w.is_zero


def _two_block_m3():
    """A numeric Thm-5 structure on M_3 with blocks (1, 2) and (3,)."""
    t = SymbolTable([])
    params = MnStructureParams(
        table=t,
        n=3,
        blocks=((1, 2), (3,)),
        bc={0: 4, 1: 1},
        diag={1: 3, 2: 3, 3: 5},
        off_diag={(1, 2): 2, (2, 1): 2, (1, 3): 7, (3, 1): 1, (2, 3): 7, (3, 2): 1},
        omega_sq={1: 1, 2: Fraction(9, 4), 3: 1},
        omega_base_root={1: 1, 3: 1},
    )
    return build_thm5(params, name="two_blocks")


def test_state_sum_vs_oracle_random(ex2_n2, ex2_n3, alexander_n2):
    """Both entry points equal the full-expansion oracle on random diagrams.

    Open tangles with and without extra closed components on a numeric M_2
    structure, on the Tr G = 0 structure and on a two-block Thm-5 structure
    on M_3, open tangles on Sweedler's H4, and closed diagrams at every upward
    basepoint, also on the symbolic M_3 structure and on the standardized
    (unbalanced) numeric M_2 structure.  Bead products die at
    different depths there, and the coefficient, multiplied in only on the
    surviving branches, must still match the oracle exactly.
    """
    from oqa.scalar import substitute
    from oqa.structures import _map_scalars

    from test_acceptance import _random_small_diagram

    t = ex2_n2.table
    binds = {"a": t.scalar(3), "sbc": t.rational(5, 2), "b": t.rational(2, 7)}
    m2 = _map_scalars(ex2_n2, lambda s: substitute(s, binds))
    ts = SymbolTable(["alpha"])
    h4 = sweedler_oqa(ts, ts.sym("alpha"))
    rng = random.Random(4)

    # H4 has no twist or trace, so its tangles have no extra components
    cases = (
        (m2, (False, True)), (alexander_n2, (False, True)), (h4, (False,)),
        (_two_block_m3(), (False, True)),
    )
    for S, extras in cases:
        for extra in extras:
            for crossings in (0, 1, 2, 2):
                while True:
                    d = _random_small_diagram(rng, "open")
                    has_extra = len(traverse(d).components) > 1
                    if d.crossing_count == crossings and has_extra == extra:
                        break
                assert evaluate_tangle(S, d) == oracle_evaluate(S, d), d

    closed = [(S, None) for S in (m2, alexander_n2) for _ in range(6)]
    closed += [(ex2_n3, crossings) for crossings in (1, 2, 3)]
    # t_d = 1 != t_u: the twist exponent meets the oracle's separate rules
    closed += [(standardize(m2), None) for _ in range(6)]
    for S, crossings in closed:
        while True:
            d = _random_small_diagram(rng)
            if crossings in (None, d.crossing_count):
                break
        want = oracle_evaluate(S, d)
        for pt in upward_points(d):
            assert evaluate_link(S, d, preferred_starts=[pt]) == want, (d, pt)


def test_state_sum_scalar_product_count(ex2_n3, alexander_n2, monkeypatch):
    """Scalar products per evaluation: entry coefficients are multiplied in
    only on branches whose bead products survive."""
    from oqa.scalar import Scalar

    calls = 0
    mul = Scalar.__mul__

    def counted(self, other):
        nonlocal calls
        calls += 1
        return mul(self, other)

    monkeypatch.setattr(Scalar, "__mul__", counted)

    def count(evaluate, S, d):
        nonlocal calls
        calls = 0
        evaluate(S, d)
        return calls

    # with the product taken before the bead products were checked, the
    # counts were 1702, 3871 and 619; with separate t_d and t_u power memos
    # composed per (u_d, u_u) pair they were 1023, 2305, 479, 421 and 412;
    # with the trace check multiplying basis elements they were 1005, 2260,
    # 459, 412 and 385
    assert count(evaluate_link, ex2_n3, builtin("trefoil_knot")) == 957
    assert count(evaluate_link, ex2_n3, builtin("figure8_knot")) == 2212
    assert count(evaluate_link, alexander_n2, builtin("figure8_knot")) == 447
    # two components of Whitney degree -1 share one G^-1, and an open
    # tangle's extra closed component is traced like a link's
    link = parse_diagram("cup_ccw 0 / cup_ccw 1 / xp 2 / xp 2 / cap_ccw 1 / cap_ccw 0")
    assert [c.whitney for c in traverse(link).components] == [-1, -1]
    assert count(evaluate_link, ex2_n3, link) == 364
    tangle = parse_diagram("boundary: open / cup_cw 1 / xp 0 / xp 0 / cap_cw 1")
    assert [c.is_open for c in traverse(tangle).components] == [True, False]
    assert count(evaluate_tangle, ex2_n3, tangle) == 337


def test_component_text_names_past_twelve_crossings():
    """Every crossing of T(2,13) gets its own name: the letters e..s for the
    first 12 crossings, then the letters again with a round suffix."""
    d = word(
        ("cup_ccw", 0), ("cup_cw", 2), *[("xp", 1)] * 13,
        ("cap_cw", 2), ("cap_ccw", 0),
    )
    fw = formal_word(d)
    (factors,) = fw.components
    syms = re.findall(r"[efghklmnpqrs]\d*'?", fw.component_text(0))
    assert len(syms) == len(factors) == 26
    names = {}
    for (crossing, tensorand, _, _), sym in zip(factors, syms):
        assert sym.endswith("'") == bool(tensorand)
        assert names.setdefault(crossing, sym.rstrip("'")) == sym.rstrip("'")
    assert len(set(names.values())) == 13
    assert names[min(names)] == "e" and names[max(names)] == "e2"
