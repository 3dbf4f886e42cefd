"""Acceptance suite: one test per release criterion, exact tolerances.

Every criterion prints a single pass/fail line (visible with `pytest -rA`
or `-s`).  All comparisons are exact equalities of canonical scalars or
polynomials; runtime-limited criteria assert their wall-clock budget.

Criterion 11's degenerate branch (a_2 = -bc/a, Tr G = 0) is checked on the
cut-open tangle.  With Tr G = 0 the closed-diagram trace formula vanishes
identically (the skein relation plus the vanishing curled unknots force it,
and the state sum confirms it), so the closed comparison with
a^w q^-w nabla(q - q^-1) cannot hold, already for the unknot (lhs 0, rhs 1).
Cutting the diagram open along its left arc keeps the information:
w(T) = a^w q^-w q^-Wd nabla_L(q - q^-1) G^-d0 as elements of the algebra,
with the polynomial from the skein engine.  See
test_homfly_bridge.py::test_alexander_branch_reality for the closed side.
"""

import random
import time
from fractions import Fraction

from oqa import (
    SkeinPolynomial,
    SymbolTable,
    build_balanced_example2,
    build_rho_abc,
    builtin,
    check_axioms,
    classify_thm5,
    conway,
    curl_family_values,
    cut_open,
    evaluate_link,
    evaluate_tangle,
    formal_word,
    identify_F,
    identify_open,
    laurent_homogeneous_degree,
    matrix_algebra,
    opposite,
    orientation_reverse,
    qybe_check,
    section6_context,
    single_block_params,
    skein_triple_check,
    standardize,
    stats,
    sweedler_oqa,
    tensor_invert,
)
from oqa.diagram import MOVES, apply_move, insertion_sites, move_sites, upward_points
from oqa.invariant import evaluate_knot

from oracles import oracle_evaluate
from test_structures import (
    classification_matches_axioms,
    sample_params,
    tamper_params,
)


def _report(number: int, label: str, ok: bool, extra: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f"  [{extra}]" if extra else ""
    print(f"criterion {number:2d} ({label}): {verdict}{suffix}", flush=True)


def _example2(n, table=None):
    if n == 2:
        table = table or SymbolTable(["a", "sbc", "b"])
        a, sbc, b = table.syms("a", "sbc", "b")
        return build_balanced_example2(table, 2, a, sbc * sbc, {(1, 2): b}, table.one)
    table = table or SymbolTable(["a", "sbc", "b12", "b13", "b23"])
    a, sbc = table.syms("a", "sbc")
    B = {(1, 2): table.sym("b12"), (1, 3): table.sym("b13"), (2, 3): table.sym("b23")}
    return build_balanced_example2(table, 3, a, sbc * sbc, B, table.one)


def _ctx(n=2, alexander=False):
    if alexander:
        t = SymbolTable(["a", "sbc", "b"], gaussian=True)
        a, sbc, b = t.syms("a", "sbc", "b")
        params = single_block_params(
            t, 2, [a, -sbc * sbc / a], sbc * sbc, {(1, 2): b}, t.one
        )
        return section6_context(params)
    if n == 2:
        t = SymbolTable(["a", "sbc", "b"])
        a, sbc, b = t.syms("a", "sbc", "b")
        params = single_block_params(t, 2, [a, a], sbc * sbc, {(1, 2): b}, t.one)
        return section6_context(params)
    t = SymbolTable(["a", "sbc", "b12", "b13", "b23"])
    a, sbc = t.syms("a", "sbc")
    B = {(1, 2): t.sym("b12"), (1, 3): t.sym("b13"), (2, 3): t.sym("b23")}
    params = single_block_params(t, 3, [a] * 3, sbc * sbc, B, t.one)
    return section6_context(params)


CLOSED_BUILTINS = (
    [("hopf", None), ("trefoil_knot", None), ("figure8_knot", None),
     ("unknot_ccw", None), ("unknot_cw", None)]
    + [(f"c_{side}_{sign}", m) for side in "rl" for sign in ("plus", "minus")
       for m in (1, 2)]
)


def test_criterion_01_qybe():
    """rho_{a,B,C} satisfies the Yang-Baxter equation symbolically, n = 2, 3."""
    start = time.monotonic()
    ok = True
    for n in (2, 3):
        syms = ["a", "sbc"] + [
            f"b{i}{j}" for i in range(1, n + 1) for j in range(i + 1, n + 1)
        ]
        t = SymbolTable(syms)
        a, sbc = t.syms("a", "sbc")
        B = {
            (i, j): t.sym(f"b{i}{j}")
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
        }
        algebra = matrix_algebra(t, n)
        rho = build_rho_abc(t, n, a, sbc * sbc, B, algebra)
        ok = ok and qybe_check(algebra, rho)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10.0
    _report(1, "Yang-Baxter for rho_aBC", ok, f"{elapsed:.2f}s")
    assert ok


def test_criterion_02_axioms():
    """All three axioms hold for the balanced families and the 4-dim example."""
    ok = check_axioms(_example2(2)).all_true
    ok = ok and check_axioms(_example2(3)).all_true
    t = SymbolTable(["alpha"])
    ok = ok and check_axioms(sweedler_oqa(t, t.sym("alpha"))).all_true
    _report(2, "structure axioms", ok)
    assert ok


def test_criterion_03_closed_form_inverse():
    """tensor_invert(rho_aBC) equals the closed-form inverse slot-by-slot."""
    ok = True
    for n in (2, 3):
        syms = ["a", "sbc"] + [
            f"b{i}{j}" for i in range(1, n + 1) for j in range(i + 1, n + 1)
        ]
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
        unit = lambda i, j: (i - 1) * n + (j - 1)
        expected = {}
        for i in range(1, n + 1):
            for l in range(1, n + 1):
                expected[(unit(i, i), unit(l, l))] = rho.coeffs[
                    (unit(i, i), unit(l, l))
                ].inv()
        x = a - bc / a
        for i in range(1, n + 1):
            for l in range(i + 1, n + 1):
                denom = (
                    rho.coeffs[(unit(i, i), unit(l, l))]
                    * rho.coeffs[(unit(l, l), unit(i, i))]
                )
                expected[(unit(i, l), unit(l, i))] = -x / denom
        ok = ok and dict(q.coeffs) == expected
    _report(3, "closed-form tensor inverse", ok)
    assert ok


def test_criterion_04_classification_equivalence():
    """>= 50 seeded tables at n in {2,3}: classify <=> axioms, both directions."""
    rng = random.Random(0)
    cases = 0
    ok = True
    while cases < 56:
        n = rng.choice([2, 3])
        params = sample_params(rng, n)
        ok = ok and classify_thm5(params).ok
        ok = ok and classification_matches_axioms(params, {})
        tampered, sigma_scale, kind = tamper_params(rng, params)
        ok = ok and classification_matches_axioms(tampered, sigma_scale)
        cases += 2
    _report(4, "classification equivalence sampling", ok, f"{cases} cases")
    assert ok


def test_criterion_05_displayed_words():
    """The one-kink and three-crossing tangle words match their closed forms."""
    S = _example2(2)
    A = S.algebra
    T = S.d_then_u()

    def rho_sum(expr):
        total = A.zero()
        for (i, j), c in S.rho.coeffs.items():
            total = total + expr(A.basis_element(i), A.basis_element(j)).scale(c)
        return total

    ok = evaluate_tangle(S, builtin("curl")) == rho_sum(
        lambda x, y: x * T.apply(y)
    )
    ok = ok and evaluate_tangle(S, builtin("curl_op")) == rho_sum(
        lambda x, y: T.apply(y) * x
    )
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
    ok = ok and evaluate_tangle(S, builtin("trefoil_tangle")) == total
    # and the formal factor pattern: second/first factors alternating with
    # the twist applied to the first three factors
    fw = formal_word(builtin("trefoil_tangle"))
    ok = ok and [f[1:] for f in fw.components[0]] == [
        (1, 1, 1), (0, 1, 1), (1, 1, 1), (0, 0, 0), (1, 0, 0), (0, 0, 0),
    ]
    _report(5, "displayed tangle words", ok)
    assert ok


def test_criterion_06_hopf_closed_form():
    """The two-crossing link value equals its double-trace closed form, n = 2, 3."""
    ok = True
    for n in (2, 3):
        S = _example2(n)
        A, g, gi, tr = S.algebra, S.twist.g, S.twist.g_inv, S.trace
        total = S.table.zero
        for (i1, j1), c1 in S.rho.coeffs.items():
            for (i2, j2), c2 in S.rho.coeffs.items():
                t1 = (gi * A.basis_element(i1) * A.basis_element(j2)).pairing(tr)
                t2 = (g * A.basis_element(j1) * A.basis_element(i2)).pairing(tr)
                total = total + c1 * c2 * t1 * t2
        ok = ok and evaluate_link(S, builtin("hopf")) == total
    _report(6, "Hopf closed form", ok)
    assert ok


def test_criterion_07_move_invariance_and_basepoints():
    """>= 100 move applications leave every builtin's invariant unchanged."""
    S = _example2(2)
    applications = 0
    ok = True
    for name, m in CLOSED_BUILTINS:
        d = builtin(name, m)
        base = evaluate_link(S, d)
        insert_cap = 2 if d.crossing_count >= 4 else 4
        for move in MOVES:
            for site in move_sites(d, move):
                try:
                    d2 = apply_move(d, move, site)
                except Exception:
                    continue
                ok = ok and evaluate_link(S, d2) == base
                applications += 1
            if any(not rhs for _, rhs in MOVES[move]):
                for site in insertion_sites(d, move)[:insert_cap]:
                    d2 = apply_move(d, move, site)
                    ok = ok and evaluate_link(S, d2) == base
                    applications += 1
    for name in ("curl", "curl_op", "trefoil_tangle"):
        d = builtin(name)
        base = evaluate_tangle(S, d)
        for move in MOVES:
            for site in move_sites(d, move):
                try:
                    d2 = apply_move(d, move, site)
                except Exception:
                    continue
                ok = ok and evaluate_tangle(S, d2) == base
                applications += 1
    basepoints = 0
    for name in ("hopf", "trefoil_knot"):
        d = builtin(name)
        base = evaluate_link(S, d)
        for pt in upward_points(d):
            ok = ok and evaluate_link(S, d, preferred_starts=[pt]) == base
            basepoints += 1
    ok = ok and applications >= 100
    _report(
        7,
        "regular-isotopy move suite",
        ok,
        f"{applications} applications, {basepoints} basepoints",
    )
    assert ok


def test_criterion_08_standardize_and_opposite():
    """Invariants agree with the standardized and opposite structures."""
    S = _example2(2)
    Sstd = standardize(S)
    Sop = opposite(S)
    ok = True
    for name, m in CLOSED_BUILTINS:
        d = builtin(name, m)
        ok = ok and evaluate_link(S, d) == evaluate_link(Sstd, d)
    for name in ("curl", "trefoil_tangle"):
        d = builtin(name)
        ok = (
            ok
            and evaluate_tangle(S, orientation_reverse(d)).coeffs
            == evaluate_tangle(Sop, d).coeffs
        )
    d = builtin("trefoil_knot")
    ok = ok and evaluate_knot(S, orientation_reverse(d)) == evaluate_knot(Sop, d)
    _report(8, "standardization and opposite", ok)
    assert ok


def test_criterion_09_curl_families():
    """Kink-closure values match the four closed forms, m <= 3, n = 2 and 3."""
    ok = True
    for n in (2, 3):
        ctx = _ctx(n)
        for family, name in (
            ("r+", "c_r_plus"), ("r-", "c_r_minus"),
            ("l+", "c_l_plus"), ("l-", "c_l_minus"),
        ):
            for m in range(4):
                got = evaluate_link(ctx.structure, builtin(name, m))
                ok = ok and got == curl_family_values(ctx, family, m)
    _report(9, "kink-closure closed forms", ok)
    assert ok


def test_criterion_10_skein_relation():
    """The crossing-switch relation holds at three distinct sites."""
    ctx = _ctx(2)
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

    ok = True
    count = 0
    for name, index in (("hopf", 2), ("trefoil_knot", 3), (("c_r_plus", 1), 2)):
        d = builtin(*name) if isinstance(name, tuple) else builtin(name)
        ok = ok and skein_triple_check(ctx, *triple(d, index))
        count += 1
    ok = ok and count >= 3
    _report(10, "skein relation triples", ok, f"{count} sites")
    assert ok


def test_criterion_11_homfly_identification():
    """Trace formula = skein polynomial bridge, generic branch, < 60 s."""
    start = time.monotonic()
    ctx = _ctx(2)
    ok = True
    for name in ("unknot_ccw", "hopf", "trefoil_knot", "figure8_knot"):
        report = identify_F(ctx, builtin(name))
        ok = ok and report.passed and report.branch == "homfly"
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    _report(11, "polynomial identification (generic branch)", ok, f"{elapsed:.1f}s")
    assert ok


def test_criterion_11_alexander_branch():
    """Degenerate branch (Tr G = 0): nabla through the cut-open tangle.

    The closed trace formula vanishes on this branch, so identify_F's closed
    comparison with a^w q^-w nabla(q - q^-1) fails honestly (its right side
    is 1 on the unknot).  The identity that holds is on T = cut_open(L):

        w(T) = a^w q^-w q^-Wd nabla_L(q - q^-1) G^-d0,

    Wd the total Whitney degree of T and d0 its open strand's degree.  The
    right side is built here from ``conway`` and compared exactly with the
    state sum's element; identify_open must agree.
    """
    ctx = _ctx(alexander=True)
    ok = conway(builtin("trefoil_knot")) == SkeinPolynomial({(0, 2): 1, (0, 0): 1})
    names = ("unknot_ccw", "hopf", "trefoil_knot", "figure8_knot")
    closed = {name: identify_F(ctx, builtin(name)) for name in names}
    ok = ok and all(
        r.branch == "alexander" and r.lhs.is_zero for r in closed.values()
    )
    assert ok, "the skein prerequisite and the vanishing closed side must hold"

    z0 = ctx.q - ctx.q.inv()
    identified = True
    for name in names:
        d = builtin(name)
        t = cut_open(d)
        st = stats(t)
        d0 = st.whitney[0]  # the open strand
        nabla = conway(d).eval_at(ctx.table, ctx.table.one, z0)
        coeff = ctx.a**st.writhe * ctx.q ** (-st.writhe - st.total_whitney) * nabla
        rhs = ctx.structure.twist.power(-d0).scale(coeff)
        lhs = evaluate_tangle(ctx.structure, t)
        report = identify_open(ctx, d)
        identified = (
            identified
            and lhs == rhs
            and report.passed
            and report.branch == "alexander"
            and report.lhs == lhs
            and report.rhs == rhs
        )
    _report(11, "polynomial identification (degenerate branch, cut open)", identified)
    assert identified, (
        "w(T) = a^w q^-w q^-Wd nabla_L(q - q^-1) G^-d0 fails on a cut-open tangle"
    )


def test_criterion_12_homogeneity():
    """Every closed builtin's value is Laurent-homogeneous of degree writhe."""
    ctx = _ctx(2)
    ok = True
    for name, m in CLOSED_BUILTINS + [("c_r_plus", 3), ("c_l_minus", 3)]:
        d = builtin(name, m)
        value = evaluate_link(ctx.structure, d)
        ok = ok and laurent_homogeneous_degree(value, ("a", "sbc")) == stats(d).writhe
    _report(12, "Laurent homogeneity = writhe", ok)
    assert ok


def _random_small_diagram(rng, boundary="closed"):
    """A random valid diagram with at most 4 crossings.

    An open diagram starts and ends with one upward strand at position 0;
    its other strands close into extra components.
    """
    from oqa.diagram import MorseDiagram, Slice, SliceKind, validate

    final = ["u"] if boundary == "open" else []
    for _ in range(200):
        slices = []
        dirs = list(final)
        crossings = 0
        for _ in range(rng.randint(2, 9)):
            options = []
            for p in range(len(dirs) + 1):
                options.append(Slice(rng.choice([SliceKind.CUP_CCW, SliceKind.CUP_CW]), p))
            for p in range(len(dirs) - 1):
                if dirs[p] == "u" and dirs[p + 1] == "u" and crossings < 4:
                    options.append(Slice(rng.choice([SliceKind.X_POS, SliceKind.X_NEG]), p))
                if (dirs[p], dirs[p + 1]) == ("u", "d"):
                    options.append(Slice(SliceKind.CAP_CW, p))
                if (dirs[p], dirs[p + 1]) == ("d", "u"):
                    options.append(Slice(SliceKind.CAP_CCW, p))
            s = rng.choice(options)
            slices.append(s)
            if s.kind is SliceKind.CUP_CCW:
                dirs[s.pos : s.pos] = ["d", "u"]
            elif s.kind is SliceKind.CUP_CW:
                dirs[s.pos : s.pos] = ["u", "d"]
            elif s.kind.is_cap:
                del dirs[s.pos : s.pos + 2]
            else:
                crossings += 1
        # close whatever is left
        guard = 0
        while len(dirs) > len(final) and guard < 50:
            guard += 1
            closed = False
            for p in range(len(dirs) - 1):
                if (dirs[p], dirs[p + 1]) == ("u", "d"):
                    slices.append(Slice(SliceKind.CAP_CW, p))
                    del dirs[p : p + 2]
                    closed = True
                    break
                if (dirs[p], dirs[p + 1]) == ("d", "u"):
                    slices.append(Slice(SliceKind.CAP_CCW, p))
                    del dirs[p : p + 2]
                    closed = True
                    break
            if not closed:
                break
        if dirs != final:
            continue
        d = MorseDiagram(tuple(slices), boundary)
        try:
            validate(d)
        except Exception:
            continue
        return d
    raise RuntimeError("diagram generator starved")


def test_criterion_13_state_sum_vs_brute_force():
    """Evaluator = independent full-expansion oracle, >= 20 seeded cases."""
    rng = random.Random(0)
    t = SymbolTable(["a", "sbc", "b"])
    a, sbc, b = t.syms("a", "sbc", "b")
    S = build_balanced_example2(t, 2, a, sbc * sbc, {(1, 2): b}, t.one)
    from oqa.scalar import substitute
    from oqa.structures import _map_scalars

    cases = 0
    ok = True
    while cases < 20:
        d = _random_small_diagram(rng)
        if d.crossing_count == 0:
            continue
        while True:
            av = Fraction(rng.randint(2, 9), rng.randint(1, 3))
            sv = Fraction(rng.randint(1, 9), rng.randint(1, 3))
            bv = Fraction(rng.randint(1, 9), rng.randint(1, 5))
            if av**2 not in (sv**2, 1) and av != 0 and sv != 0:
                break
        binds = {"a": t.scalar(av), "sbc": t.scalar(sv), "b": t.scalar(bv)}
        Sn = _map_scalars(S, lambda s: substitute(s, binds))
        ok = ok and oracle_evaluate(Sn, d) == evaluate_link(Sn, d)
        cases += 1
    ok = ok and cases >= 20
    _report(13, "state sum vs brute force", ok, f"{cases} seeded cases")
    assert ok
