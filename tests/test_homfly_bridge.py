import random
import sys
from fractions import Fraction

import pytest

from oqa import (
    CROSS_POS_IS_SKEIN_POSITIVE,
    DiagramError,
    SkeinPolynomial,
    StructureError,
    SymbolTable,
    attach_twist,
    builtin,
    conway,
    crossing_triple,
    curl_family_values,
    cut_open,
    evaluate_link,
    evaluate_tangle,
    homfly,
    identify_F,
    identify_open,
    laurent_homogeneous_degree,
    mirror,
    section6_context,
    single_block_params,
    skein_triple_check,
    stats,
    traverse,
)
from oqa.diagram import (
    MOVES,
    apply_move,
    builtin_names,
    insertion_sites,
    move_sites,
    upward_points,
    validate,
    word,
)
import oqa.diagram
import oqa.homfly_bridge
from oqa.homfly_bridge import _Node, _reduced, _skein
from oracles import oracle_conway, oracle_homfly


def _mono(ea, ez, c=1):
    return SkeinPolynomial({(ea, ez): c})


def _braid_closure(strands, gens):
    """Left closure of a braid word; +i is sigma_i (xp), -i its inverse (xn).

    ``cup_ccw 0..strands-1`` nest below the braid, which acts at positions
    strands + i - 1, and ``cap_ccw strands-1..0`` close it above.
    """
    return word(
        *[("cup_ccw", i) for i in range(strands)],
        *[("xp" if g > 0 else "xn", strands + abs(g) - 1) for g in gens],
        *[("cap_ccw", i) for i in reversed(range(strands))],
    )


# -- skein engine ----------------------------------------------------------------


def test_unknot_normalizations():
    assert homfly(builtin("unknot_ccw")) == SkeinPolynomial.one()
    assert conway(builtin("unknot_cw")) == SkeinPolynomial.one()


def test_conway_goldens():
    assert conway(builtin("trefoil_knot")).text() == "z^2 + 1"
    assert conway(builtin("figure8_knot")).text() == "-z^2 + 1"
    assert conway(builtin("hopf")).text() == "z"


def test_conway_split_links_vanish():
    unlink = word(("cup_ccw", 0), ("cup_ccw", 0), ("cap_ccw", 0), ("cap_ccw", 0))
    assert conway(unlink).is_zero
    nested = word(("cup_ccw", 0), ("cup_ccw", 1), ("cap_ccw", 1), ("cap_ccw", 0))
    assert conway(nested).is_zero


def test_homfly_goldens():
    """Frozen from the engine; independently certified by the trace formula."""
    assert homfly(builtin("hopf")) == SkeinPolynomial(
        {(1, 1): 1, (1, -1): 1, (-1, -1): -1}
    )
    assert homfly(builtin("trefoil_knot")) == SkeinPolynomial(
        {(1, 2): 1, (1, 0): 2, (-1, 0): -1}
    )
    assert homfly(builtin("figure8_knot")) == SkeinPolynomial(
        {(2, 0): 1, (0, 2): -1, (0, 0): -1, (-2, 0): 1}
    )


def test_homfly_curl_axiom():
    for m in range(4):
        assert homfly(builtin("c_r_plus", m)) == _mono(m, 0)
        assert homfly(builtin("c_l_plus", m)) == _mono(m, 0)
        assert homfly(builtin("c_r_minus", m)) == _mono(-m, 0)
        assert homfly(builtin("c_l_minus", m)) == _mono(-m, 0)


def test_homfly_disjoint_union_factor():
    unlink = word(("cup_ccw", 0), ("cup_ccw", 0), ("cap_ccw", 0), ("cap_ccw", 0))
    delta = SkeinPolynomial({(1, -1): 1, (-1, -1): -1})
    assert homfly(unlink) == delta


def test_mirror_symmetry():
    # switching every crossing inverts alpha and negates z in the engine's
    # conventions: check on the trefoil via direct recomputation
    d = mirror(builtin("trefoil_knot"))
    got = homfly(d)
    want = SkeinPolynomial({(-1, 2): 1, (-1, 0): 2, (1, 0): -1})
    assert got == want


def test_skein_recursion_consistency():
    # H(L+) - H(L-) = z H(L0) holds for the engine itself at a chosen site
    lp = builtin("hopf")
    from oqa.diagram import Slice, SliceKind

    lm = lp.with_slices(lp.slices[:2] + (Slice(SliceKind.X_NEG, 1),) + lp.slices[3:])
    l0 = lp.with_slices(lp.slices[:2] + lp.slices[3:])
    z = _mono(0, 1)
    assert homfly(lp) - homfly(lm) == z * homfly(l0)
    assert conway(lp) - conway(lm) == z * conway(l0)


# -- reduced words -----------------------------------------------------------------


def _is_reduced(d):
    """No two adjacent crossings that swap (positions p >= q + 2) or cancel."""
    for s, t in zip(d.slices, d.slices[1:]):
        if s.kind.is_crossing and t.kind.is_crossing:
            if s.pos >= t.pos + 2 or (s.pos == t.pos and s.kind is not t.kind):
                return False
    return True


def test_reduced_word_cases():
    """Each reduction step on 4-strand closures (braid at positions 4..6)."""
    cases = [
        # a cancelling pair is removed, in either order
        ([1, 2, -2, 3], [1, 3]),
        ([-3, 3], []),
        # a same-sign pair stays
        ([2, 2], [2, 2]),
        # a far pair is swapped, and a pair at distance 1 is not
        ([3, 1], [1, 3]),
        ([3, 2], [3, 2]),
        ([2, 1], [2, 1]),
        # a crossing sinks past several, and a swap brings a cancelling
        # pair together
        ([3, -3, 3, 1], [1, 3]),
        ([1, 3, -1], [3]),
    ]
    for gens, want in cases:
        got = _reduced(_braid_closure(4, gens))
        assert got == _braid_closure(4, want), gens
        validate(got)
        assert _is_reduced(got)
    # a cup (and its cap) between two crossings blocks both steps
    cup, cap = ("cup_ccw", 8), ("cap_ccw", 8)
    cups = [("cup_ccw", i) for i in range(4)]
    caps = [("cap_ccw", i) for i in reversed(range(4))]
    for a, b in ((("xp", 4), ("xn", 4)), (("xp", 6), ("xp", 4))):
        d = word(*cups, a, cup, b, cap, *caps)
        assert _reduced(d) == d
        d = word(*cups, a, b, cup, cap, *caps)
        assert _reduced(d) != d


def _seeded_braid_closures(rng, count):
    """Closures on 2-5 strands, half of them positive; a word has at least
    strands - 1 crossings and need not use every generator."""
    out = []
    for k in range(count):
        strands = rng.randint(2, 5)
        crossings = rng.randint(max(1, strands - 1), strands + 4)
        signs = [1] if k % 2 else [1, -1]
        gens = [rng.choice(signs) * rng.randint(1, strands - 1) for _ in range(crossings)]
        out.append(_braid_closure(strands, gens))
    return out


def _differential_diagrams():
    """Seeded braid closures, every closed builtin with curl counts 0-3, and
    criterion-13 random closed diagrams."""
    from test_acceptance import _random_small_diagram

    rng = random.Random(10)
    diagrams = _seeded_braid_closures(rng, 320)
    for name in builtin_names():
        if name.startswith("c_"):
            diagrams += [builtin(name, m) for m in range(4)]
        elif builtin(name).boundary == "closed":
            diagrams.append(builtin(name))
    diagrams += [_random_small_diagram(rng) for _ in range(40)]
    return diagrams


def test_skein_matches_unreduced_oracle():
    """homfly and conway on reduced words equal the recursion on the words
    themselves (tests/oracles.py), on ``_differential_diagrams``."""
    for d in _differential_diagrams():
        reduced = _reduced(d)
        validate(reduced)
        assert _is_reduced(reduced) and _reduced(reduced) == reduced, d
        assert homfly(d) == oracle_homfly(d), d
        assert conway(d) == oracle_conway(d), d


def test_skein_node_count_on_braid_closure():
    """Reduced words let the memo merge smoothings that differ by far
    commutations and M2 pairs.

    The recursion on unreduced words memoizes 21,670 nodes for this positive
    4-strand, 21-crossing closure (``oracle_skein``: about 5 s); on reduced
    words it memoizes exactly 389, so a change to the recursion shows here.
    """
    gens = [1, 1, 1, 2, 1, 3, 3, 2, 2, 3, 1, 3, 1, 3, 3, 1, 2, 3, 2, 3, 3]
    memo = {}
    _skein(_braid_closure(4, gens), memo)
    assert len(memo) == 389


def test_skein_lines_are_traversal_lines(monkeypatch):
    """A skein node's crossing lines are traverse's labels less the twist
    exponent, component by component, on every diagram of the differential
    test and on its reduced word; and the skein runs neither traverse nor
    crossing_triple."""
    for d in _differential_diagrams():
        for word_ in (d, _reduced(d)):
            want = [
                [(l.crossing, l.tensorand) for l in comp.labels]
                for comp in traverse(word_).components
            ]
            assert _Node(word_, word_.key()).lines == want, word_

    def refuse(*args, **kwargs):
        raise AssertionError("the skein walks its nodes with _walks alone")

    d = _braid_closure(3, [1, -2, 1, -2, 1, -2])
    want = homfly(d), conway(d)
    for module in (oqa.diagram, oqa.homfly_bridge):
        monkeypatch.setattr(module, "traverse", refuse)
        monkeypatch.setattr(module, "crossing_triple", refuse)
    assert (homfly(d), conway(d)) == want


def test_torus_link_recurrence():
    """T(2,k), the closure of sigma_1^k: switching the last crossing gives
    sigma_1^(k-2) after an M2 cancellation, and smoothing it gives T(2,k-1).
    So H(k) = H(k-2) + z H(k-1) from H(0) = delta = (alpha - alpha^-1)/z and
    H(1) = alpha, and nabla(k) = nabla(k-2) + z nabla(k-1) from 0 and 1.  The
    mirror words sigma_1^-k give H(-k) = H(-k+2) - z H(-k+1) from alpha^-1,
    and nabla alike from 0 and 1."""
    delta = _mono(1, -1) - _mono(-1, -1)
    for sign in (1, -1):
        closures = [_braid_closure(2, [sign] * k) for k in range(41)]
        h = [homfly(d) for d in closures]
        nabla = [conway(d) for d in closures]
        assert h[0] == delta and h[1] == _mono(sign, 0)
        assert nabla[0].is_zero and nabla[1] == SkeinPolynomial.one()
        step = _mono(0, 1, sign)
        for k in range(2, 41):
            assert h[k] == h[k - 2] + step * h[k - 1], (sign, k)
            assert nabla[k] == nabla[k - 2] + step * nabla[k - 1], (sign, k)


def _depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_skein_depth_meets_no_recursion_limit():
    """The smoothings of T(2,60), the closure of sigma_1^60, nest 60 deep;
    homfly and conway evaluate them under a recursion limit a few dozen
    frames above the caller's, to the values they give at the normal one."""
    d = _braid_closure(2, [1] * 60)
    want = homfly(d), conway(d)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_depth() + 40)
    try:
        got = homfly(d), conway(d)
    finally:
        sys.setrecursionlimit(limit)
    assert got == want
    assert want[1].terms[(0, 59)] == 1 and want[1].terms[(0, 57)] == 58


def test_polynomial_moves_invariance(table2):
    diagrams = [
        builtin("hopf"), builtin("trefoil_knot"), builtin("figure8_knot"),
        builtin("c_r_plus", 2), builtin("unknot_cw"),
    ]
    checked = 0
    for d in diagrams:
        h, c = homfly(d), conway(d)
        for move in MOVES:
            for site in move_sites(d, move):
                try:
                    d2 = apply_move(d, move, site)
                except Exception:
                    continue
                assert homfly(d2) == h and conway(d2) == c, (move, site)
                checked += 1
            if any(not rhs for _, rhs in MOVES[move]):
                for site in insertion_sites(d, move)[:3]:
                    d2 = apply_move(d, move, site)
                    assert homfly(d2) == h and conway(d2) == c
                    checked += 1
    assert checked >= 70


def test_polynomial_text_and_eval():
    p = SkeinPolynomial({(1, 1): 1, (-1, -1): -1, (0, 0): 2})
    assert p.text() == "a*z + 2 - a^-1*z^-1"
    t = SymbolTable(["a", "sbc"])
    a, sbc = t.syms("a", "sbc")
    v = p.eval_at(t, a, sbc)
    assert v == a * sbc + 2 - (a * sbc).inv()


# -- single-block closed forms ------------------------------------------------


@pytest.fixture(scope="module")
def ctx2(table2):
    a, sbc, b = table2.syms("a", "sbc", "b")
    params = single_block_params(
        table2, 2, [a, a], sbc * sbc, {(1, 2): b}, table2.one
    )
    return section6_context(params)


@pytest.fixture(scope="module")
def ctx2_alex():
    t = SymbolTable(["a", "sbc", "b"], gaussian=True)
    a, sbc, b = t.syms("a", "sbc", "b")
    bc = sbc * sbc
    params = single_block_params(t, 2, [a, -bc / a], bc, {(1, 2): b}, t.one)
    return section6_context(params)


def test_context_constants(ctx2):
    t = ctx2.table
    a, sbc = t.syms("a", "sbc")
    r = a * a / (sbc * sbc)
    assert ctx2.q == a / sbc and ctx2.r == r
    assert ctx2.e == 2
    assert ctx2.trace_g == 1 + r
    assert ctx2.trace_g_inv == 1 + r.inv()
    assert ctx2.hbar == r
    assert ctx2.trace_g / ctx2.trace_g_inv == ctx2.hbar
    assert ctx2.kappa == ctx2.rho_norm * ctx2.trace_g
    assert ctx2.kappa == ctx2.rho_norm.inv() * ctx2.trace_g_inv


def test_alexander_context_constants(ctx2_alex):
    assert ctx2_alex.e == 0
    assert ctx2_alex.trace_g.is_zero and ctx2_alex.trace_g_inv.is_zero
    assert ctx2_alex.rho_norm is None and ctx2_alex.kappa is None


def _mixed_ctx4():
    t = SymbolTable(["a", "sbc", "x"], gaussian=True)
    a, sbc = t.syms("a", "sbc")
    bc = sbc * sbc
    pattern = [a, a, -bc / a, a]
    B = {(i, j): t.one for i in range(1, 5) for j in range(i + 1, 5)}
    params = single_block_params(t, 4, pattern, bc, B, t.one)
    return section6_context(params)


def test_omega_family_inverse_identity():
    """omega_i(x^-1)^2 = omega_i(x)^-2 for i <= 4, symbolically in x."""
    ctx = _mixed_ctx4()
    x = ctx.table.sym("x")
    fam = ctx.omega_sq_family(x)
    fam_inv = ctx.omega_sq_family(x.inv())
    for i in range(4):
        assert fam_inv[i] == fam[i].inv()


def test_omega_family_partial_sums():
    """Tail sums telescope through the prefix exponent, for every split."""
    ctx = _mixed_ctx4()
    t = ctx.table
    x = t.sym("x")
    fam = ctx.omega_sq_family(x)
    n = ctx.n
    for split in range(0, n + 1):
        tail = t.zero
        for j in range(split + 1, n + 1):
            tail = tail + fam[j - 1]
        ep = ctx.eta_plus(0, split) - ctx.eta_minus(0, split)
        et = ctx.eta_plus(split, n) - ctx.eta_minus(split, n)
        expected = x**ep * (t.one - x**et) / (t.one - x)
        assert tail == expected, split


def test_telescoping_identity():
    """(prod_{i<=j<m} z_j) - z_i = sum_{i<l<m} (prod_{i<=j<l} z_j)(z_l - 1)."""
    t = SymbolTable(["z1", "z2", "z3", "z4", "z5"])
    zs = [t.sym(f"z{k}") for k in range(1, 6)]
    for i in range(1, 5):
        for m in range(i + 1, 6):
            prod = t.one
            for j in range(i, m):
                prod = prod * zs[j - 1]
            lhs = prod - zs[i - 1]
            rhs = t.zero
            for l in range(i + 1, m):
                partial = t.one
                for j in range(i, l):
                    partial = partial * zs[j - 1]
                rhs = rhs + partial * (zs[l - 1] - 1)
            assert lhs == rhs, (i, m)


def test_kink_tangle_closed_forms(ctx2, ctx2_alex):
    """w of the four one-kink tangles matches the diagonal closed forms."""
    for ctx in (ctx2, ctx2_alex):
        t = ctx.table
        S = ctx.structure
        A = S.algebra
        n, a, r = ctx.n, ctx.a, ctx.r

        def diag(entry_fn):
            return A.element(
                {(i - 1) * n + (i - 1): entry_fn(i) for i in range(1, n + 1)}
            )

        def delta(i):
            return 1 if ctx.a_values[i - 1] == a else 0

        def eta(i, hi=None):
            return ctx.eta_plus(i, n if hi is None else hi) - ctx.eta_minus(
                i, n if hi is None else hi
            )

        w_r_plus = diag(lambda i: a * (-r) ** (delta(i) - 1) * r ** eta(i))
        assert evaluate_tangle(S, builtin("curl")) == w_r_plus
        w_l_minus = diag(
            lambda i: a.inv() * (-r.inv()) ** (delta(i) - 1) * r ** (-eta(i))
        )
        assert evaluate_tangle(S, mirror(builtin("curl_op"))) == w_l_minus
        w_l_plus = diag(
            lambda i: a * r.inv() * (-r.inv()) ** (delta(i) - 1) * r ** eta(0, i)
        )
        assert evaluate_tangle(S, builtin("curl_op")) == w_l_plus
        w_r_minus = diag(
            lambda i: a.inv() * r * (-r) ** (delta(i) - 1) * r ** (-eta(0, i))
        )
        assert evaluate_tangle(S, mirror(builtin("curl"))) == w_r_minus


@pytest.mark.parametrize("family,name", [
    ("r+", "c_r_plus"), ("r-", "c_r_minus"), ("l+", "c_l_plus"), ("l-", "c_l_minus"),
])
def test_curl_family_values_n2(ctx2, family, name):
    for m in range(4):
        got = evaluate_link(ctx2.structure, builtin(name, m))
        assert got == curl_family_values(ctx2, family, m), (family, m)


def test_curl_family_unknown(ctx2):
    with pytest.raises(DiagramError):
        curl_family_values(ctx2, "up", 1)


def test_curl_closed_form_consistency(ctx2):
    """F(C) = kappa (a rho_norm^-1)^writhe rho_norm^-Wd on the curl closures."""
    for name in ("c_r_plus", "c_r_minus", "c_l_plus", "c_l_minus"):
        for m in range(3):
            d = builtin(name, m)
            st = stats(d)
            want = (
                ctx2.kappa
                * (ctx2.a * ctx2.rho_norm.inv()) ** st.writhe
                * ctx2.rho_norm ** (-st.total_whitney)
            )
            assert evaluate_link(ctx2.structure, d) == want, (name, m)


def test_identify_generic_branch(ctx2):
    for name in ("unknot_ccw", "hopf", "trefoil_knot", "figure8_knot"):
        report = identify_F(ctx2, builtin(name))
        assert report.branch == "homfly" and report.passed, name


def test_identify_report_json(ctx2):
    report = identify_F(ctx2, builtin("hopf"))
    blob = report.to_json()
    assert blob["passed"] is True and blob["branch"] == "homfly"
    assert "lhs" in blob and "polynomial" in blob


def test_scaled_twist_rescales_by_whitney(ctx2, table2):
    """Replacing G by zG multiplies the invariant by z^(total Whitney)."""
    z = table2.sym("b") ** 2 + 1  # any invertible scalar
    S = ctx2.structure
    S_scaled = attach_twist(S, S.twist.g.scale(z))
    for name in ("hopf", "trefoil_knot"):
        d = builtin(name)
        wd = stats(d).total_whitney
        assert evaluate_link(S_scaled, d) == z**wd * evaluate_link(S, d), name


def test_skein_triples(ctx2):
    from oqa.diagram import Slice, SliceKind

    def triple(d, index):
        s = d.slices[index]
        lp = d.with_slices(
            d.slices[:index] + (Slice(SliceKind.X_POS, s.pos),) + d.slices[index + 1 :]
        )
        lm = d.with_slices(
            d.slices[:index] + (Slice(SliceKind.X_NEG, s.pos),) + d.slices[index + 1 :]
        )
        l0 = d.with_slices(d.slices[:index] + d.slices[index + 1 :])
        return lp, lm, l0

    assert CROSS_POS_IS_SKEIN_POSITIVE
    for name, index in (("hopf", 2), ("trefoil_knot", 3), (("c_r_plus", 1), 2)):
        d = builtin(*name) if isinstance(name, tuple) else builtin(name)
        assert crossing_triple(d, index) == triple(d, index), name
        assert skein_triple_check(ctx2, *triple(d, index)), name
    with pytest.raises(DiagramError):
        crossing_triple(builtin("hopf"), 1)


def test_skein_triple_rejects_mismatch(ctx2):
    hopf = builtin("hopf")
    tre = builtin("trefoil_knot")
    with pytest.raises(DiagramError):
        skein_triple_check(ctx2, hopf, mirror(tre), hopf)
    with pytest.raises(DiagramError):
        skein_triple_check(ctx2, hopf, hopf, hopf)


def _random_braid3_closure(rng, crossings):
    """Left closure of a random mixed-sign 3-strand braid word."""
    return _braid_closure(
        3, [rng.choice([1, -1]) * rng.choice([1, 2]) for _ in range(crossings)]
    )


def test_skein_vs_state_sum_random():
    """The skein engine against the state sum, and its own skein relation.

    Seeded closed diagrams of criterion 13 and 3-strand braid closures with
    5-7 mixed-sign crossings, on a numeric generic-branch M_2 structure.
    """
    from test_acceptance import _random_small_diagram

    t = SymbolTable([])
    params = single_block_params(
        t, 2, [t.scalar(3)] * 2, t.scalar(4), {(1, 2): t.scalar(Fraction(5, 7))}, t.one
    )
    ctx = section6_context(params)
    rng = random.Random(5)
    diagrams = [_random_small_diagram(rng) for _ in range(20)]
    diagrams += [_random_braid3_closure(rng, rng.randint(5, 7)) for _ in range(8)]
    z = _mono(0, 1)
    for d in diagrams:
        assert identify_F(ctx, d).passed, d
        for k, s in enumerate(d.slices):
            if not s.kind.is_crossing:
                continue
            l_plus, l_minus, l_zero = crossing_triple(d, k)
            for poly in (homfly, conway):
                assert poly(l_plus) - poly(l_minus) == z * poly(l_zero), (d, k, poly)


def test_homogeneity_degree_equals_writhe(ctx2):
    items = [
        ("unknot_ccw", None), ("unknot_cw", None), ("hopf", None),
        ("trefoil_knot", None), ("figure8_knot", None),
        ("c_r_plus", 0), ("c_r_plus", 2), ("c_r_minus", 1),
        ("c_l_plus", 2), ("c_l_minus", 3),
    ]
    for name, m in items:
        d = builtin(name, m)
        value = evaluate_link(ctx2.structure, d)
        assert laurent_homogeneous_degree(value, ("a", "sbc")) == stats(d).writhe, name


def test_alexander_branch_reality(ctx2_alex):
    """Tr G = 0 collapses the closed invariant; the stated identification
    with the Alexander polynomial cannot hold on closed diagrams (its right
    side is 1 on the unknot).  The skein oracle still produces the Alexander
    polynomial, and identify_F reports the literal comparison honestly; the
    identification that holds is on the cut-open tangle (identify_open)."""
    assert conway(builtin("trefoil_knot")).text() == "z^2 + 1"
    report = identify_F(ctx2_alex, builtin("unknot_ccw"))
    assert report.branch == "alexander"
    assert report.lhs.is_zero and report.rhs.is_one
    assert not report.passed


# -- cut-open tangles -----------------------------------------------------------


def _torus2(k):
    """Closure of the 2-braid sigma_1^k, left arc at position 0."""
    x = "xp" if k > 0 else "xn"
    return word(
        ("cup_ccw", 0), ("cup_cw", 2), *[(x, 1)] * abs(k), ("cap_cw", 2), ("cap_ccw", 0)
    )


def _ctx4(pattern):
    """Single block on M_4, a_i = a for 'a' and -bc/a for 'm'."""
    t = SymbolTable(["a", "sbc"], gaussian=True)
    a, sbc = t.syms("a", "sbc")
    bc = sbc * sbc
    diag = [a if c == "a" else -bc / a for c in pattern]
    B = {(i, j): t.one for i in range(1, 5) for j in range(i + 1, 5)}
    return section6_context(single_block_params(t, 4, diag, bc, B, t.one))


def test_cut_open_words():
    assert cut_open(builtin("unknot_ccw")) == word(boundary="open")
    assert cut_open(builtin("hopf")) == word(
        ("cup_cw", 1), ("xp", 0), ("xp", 0), ("cap_cw", 1), boundary="open"
    )
    t = cut_open(builtin("figure8_knot"))
    assert t.boundary == "open" and t.crossing_count == 4
    assert len(stats(t).whitney) == 1  # the open strand alone


def test_cut_open_rejects_other_words():
    cases = [
        builtin("unknot_cw"),
        builtin("c_l_plus", 1),
        builtin("trefoil_tangle"),
        word(),
        # the inner cup_ccw 0 sits on the arc that cut_open removes
        word(("cup_ccw", 0), ("cup_ccw", 0), ("cap_ccw", 0), ("cap_ccw", 0)),
    ]
    for d in cases:
        with pytest.raises(DiagramError) as info:
            cut_open(d)
        message = str(info.value)
        assert message and "\n" not in message, d


def test_identify_open_alexander_n2(ctx2_alex):
    for d in (_torus2(-3), _torus2(4), builtin("c_r_plus", 2), builtin("c_r_minus", 3)):
        report = identify_open(ctx2_alex, d)
        assert report.branch == "alexander" and report.passed, d
        assert not report.lhs.is_zero


def test_identify_open_generic_branch(ctx2, ctx2_alex):
    """One formula for both branches: at e = 0, H_L(1, z) = nabla_L(z)."""
    t = ctx2_alex.table
    z0 = ctx2_alex.q - ctx2_alex.q.inv()
    for d in (builtin("unknot_ccw"), builtin("hopf"), builtin("trefoil_knot"),
              builtin("figure8_knot"), _torus2(1)):
        generic = identify_open(ctx2, d)
        assert generic.branch == "homfly" and generic.passed, d
        assert generic.polynomial == homfly(d)
        alexander = identify_open(ctx2_alex, d)
        assert alexander.branch == "alexander" and alexander.passed, d
        assert alexander.polynomial == conway(d)
        assert homfly(d).eval_at(t, t.one, z0) == conway(d).eval_at(t, t.one, z0)


@pytest.mark.parametrize("pattern", ["amam", "aamm"])
def test_identify_open_alexander_n4(pattern):
    """Both e = 0 patterns on M_4.  Only (a, a, m, m) has G^-1 != G, so only
    there does the identity tell G^-d0 from G^d0."""
    ctx = _ctx4(pattern)
    assert ctx.e == 0 and ctx.trace_g.is_zero
    g = ctx.structure.twist
    for d in (builtin("hopf"), builtin("trefoil_knot"), builtin("c_r_plus", 2)):
        report = identify_open(ctx, d)
        assert report.branch == "alexander" and report.passed, d
        d0 = stats(cut_open(d)).whitney[0]
        if d0:
            swapped = report.rhs * g.power(2 * d0)  # G^+d0 in place of G^-d0
            assert (report.lhs == swapped) == (pattern == "amam"), d


def test_identify_open_basepoint_independence(ctx2_alex):
    ctx4 = _ctx4("aamm")
    cases = [
        (ctx2_alex, builtin("hopf")),
        (ctx2_alex, _torus2(4)),
        (ctx4, builtin("hopf")),
    ]
    for ctx, d in cases:
        report = identify_open(ctx, d)
        assert report.passed
        t = cut_open(d)
        for point in upward_points(t):
            assert evaluate_tangle(ctx.structure, t, [point]) == report.rhs, (d, point)


def test_context_rejects_bad_shapes(table2):
    a, sbc, b = table2.syms("a", "sbc", "b")
    params = single_block_params(table2, 2, [a, a], sbc * sbc, {(1, 2): b}, table2.one)
    bad = single_block_params(table2, 2, [a, a], sbc * sbc, {(1, 2): b}, table2.scalar(4))
    with pytest.raises(StructureError, match="omega_1"):
        section6_context(bad)
    # multi-block rejected
    from oqa import MnStructureParams

    two_blocks = MnStructureParams(
        table=params.table, n=2, blocks=((1,), (2,)), bc={},
        diag=params.diag, off_diag=params.off_diag,
        omega_sq={1: table2.one, 2: table2.one},
    )
    with pytest.raises(StructureError, match="single block"):
        section6_context(two_blocks)


def test_context_classifies_once(table2, monkeypatch):
    """section6_context classifies the table once, for its own message, and
    then assembles the structure without classifying it again."""
    from oqa import homfly_bridge, structures

    calls = []

    def counting(params, original=structures.classify_thm5):
        calls.append(params)
        return original(params)

    monkeypatch.setattr(structures, "classify_thm5", counting)
    monkeypatch.setattr(homfly_bridge, "classify_thm5", counting)
    a, sbc, b = table2.syms("a", "sbc", "b")
    params = single_block_params(table2, 2, [a, a], sbc * sbc, {(1, 2): b}, table2.one)
    ctx = section6_context(params)
    assert len(calls) == 1
    assert ctx.structure == structures.build_thm5(params, name=ctx.structure.name)


def test_identify_generic_branch_n3(table3):
    a, sbc = table3.syms("a", "sbc")
    B = {
        (1, 2): table3.sym("b12"),
        (1, 3): table3.sym("b13"),
        (2, 3): table3.sym("b23"),
    }
    ctx = section6_context(
        single_block_params(table3, 3, [a] * 3, sbc * sbc, B, table3.one)
    )
    for name in ("hopf", "trefoil_knot", "figure8_knot"):
        report = identify_F(ctx, builtin(name))
        assert report.passed and report.branch == "homfly", name


def test_identify_mixed_pattern_generic_branch():
    """A mixed diagonal pattern with unequal sign counts stays generic.

    Pattern (a, -bc/a, a) gives e = 1 and Tr G = 1, so the two-variable
    identification applies even though the automorphism needs the Gaussian
    square-root branch.
    """
    t = SymbolTable(["a", "sbc", "b12", "b13", "b23"], gaussian=True)
    a, sbc = t.syms("a", "sbc")
    bc = sbc * sbc
    B = {(1, 2): t.sym("b12"), (1, 3): t.sym("b13"), (2, 3): t.sym("b23")}
    ctx = section6_context(
        single_block_params(t, 3, [a, -bc / a, a], bc, B, t.one)
    )
    assert ctx.e == 1 and ctx.trace_g.is_one
    for name in ("unknot_ccw", "hopf", "trefoil_knot"):
        report = identify_F(ctx, builtin(name))
        assert report.passed and report.branch == "homfly", name


def test_random_move_walk_preserves_both_routes(table2):
    import random

    from oqa import build_balanced_example2, evaluate_link

    a, sbc, b = table2.syms("a", "sbc", "b")
    S = build_balanced_example2(table2, 2, a, sbc * sbc, {(1, 2): b}, table2.one)
    rng = random.Random(11)
    d = builtin("hopf")
    base_v, base_h, base_c = evaluate_link(S, d), homfly(d), conway(d)
    for _ in range(6):
        moves = list(MOVES)
        rng.shuffle(moves)
        for mv in moves:
            sites = move_sites(d, mv)
            if rng.random() < 0.5 and any(not rhs for _, rhs in MOVES[mv]):
                sites = sites + insertion_sites(d, mv)[:2]
            if not sites:
                continue
            try:
                d = apply_move(d, mv, rng.choice(sites))
                break
            except Exception:
                continue
        assert evaluate_link(S, d) == base_v
        assert homfly(d) == base_h and conway(d) == base_c


def _right_closure(d):
    """A closed diagram from an open tangle: its strand returns down on the right."""
    return word(("cup_cw", 0), *d.slices, ("cap_cw", 0))


def _random_move(rng, d):
    """One seeded rewrite at a matched site or, while the diagram has at most
    five crossings, at an insertion site; None when nothing applies."""
    moves = list(MOVES)
    rng.shuffle(moves)
    for move in moves:
        sites = move_sites(d, move)
        if d.crossing_count <= 5 and any(not rhs for _, rhs in MOVES[move]):
            sites += insertion_sites(d, move)
        rng.shuffle(sites)
        for site in sites:
            try:
                return apply_move(d, move, site)
            except DiagramError:
                continue
    return None


def test_random_move_chains():
    """Seeded chains of MOVES rewrites leave the state sum, homfly and conway
    unchanged at every step.

    Criterion-13 random diagrams (closed and open) and 3-strand braid
    closures, on a numeric generic-branch M_2 structure.  An open diagram is
    compared through evaluate_tangle and the polynomials of its closure.
    """
    from test_acceptance import _random_small_diagram

    t = SymbolTable([])
    params = single_block_params(
        t, 2, [t.scalar(3)] * 2, t.scalar(4), {(1, 2): t.scalar(Fraction(5, 7))}, t.one
    )
    S = section6_context(params).structure
    rng = random.Random(6)
    diagrams = [_random_small_diagram(rng) for _ in range(8)]
    diagrams += [_random_small_diagram(rng, "open") for _ in range(6)]
    diagrams += [_random_braid3_closure(rng, rng.randint(3, 5)) for _ in range(4)]
    cups = [("cup_ccw", 0), ("cup_ccw", 1), ("cup_ccw", 2)]
    caps = [("cap_ccw", 2), ("cap_ccw", 1), ("cap_ccw", 0)]

    def values(d):
        if d.boundary == "open":
            return evaluate_tangle(S, d), homfly(_right_closure(d)), conway(_right_closure(d))
        return evaluate_link(S, d), homfly(d), conway(d)

    # the braid relation rarely has a site in random words: start two chains
    # with it
    steps = 0
    for sign, move in (("xp", "M3"), ("xn", "M3rev")):
        d = word(*cups, (sign, 3), (sign, 4), (sign, 3), ("xp", 4), *caps)
        assert values(apply_move(d, move, (3, 3))) == values(d)
        diagrams.append(d)
        steps += 1
    for d in diagrams:
        base = values(d)
        for _ in range(6):
            d = _random_move(rng, d)
            if d is None:
                break
            assert values(d) == base, d
            steps += 1
    assert steps >= 100
