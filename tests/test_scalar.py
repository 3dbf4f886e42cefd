import ast
import copy
import operator
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oqa import (
    NotLaurentError,
    Scalar,
    ScalarError,
    SymbolTable,
    UndeclaredSymbolError,
    ZeroDenominatorError,
    laurent_homogeneous_degree,
    laurent_view,
    make_scalar,
    perfect_sqrt,
    substitute,
)


@pytest.fixture(scope="module")
def t():
    return SymbolTable(["a", "sbc", "w"])


def test_polynomial_identity(t):
    a, sbc = t.syms("a", "sbc")
    assert (a**2 - sbc**2) / (a - sbc) == a + sbc


def test_inverse_cancellation(t):
    a, sbc = t.syms("a", "sbc")
    assert ((a / sbc) * (sbc / a)).is_one


def test_bc_over_a_form(t):
    a, sbc = t.syms("a", "sbc")
    x = a - sbc**2 / a
    assert x.text() == "(a**2 - sbc**2)/a"


def test_substitute_examples(t):
    a, sbc = t.syms("a", "sbc")
    assert substitute(a - sbc**2 / a, {"a": 2, "sbc": 1}) == t.rational(3, 2)
    q = a / sbc
    assert substitute(q - q.inv(), {"a": 2, "sbc": 1}) == t.rational(3, 2)
    x = t.sym("w")
    assert substitute(x, {}) == x


def test_substitute_errors(t):
    a, sbc = t.syms("a", "sbc")
    with pytest.raises(UndeclaredSymbolError):
        substitute(a, {"zz": 1})
    with pytest.raises(ZeroDenominatorError):
        substitute(1 / (a - sbc), {"a": 1, "sbc": 1})


def test_make_scalar_and_parse(t):
    assert make_scalar(t, "(a**2 - sbc**2)/(a - sbc)") == t.sym("a") + t.sym("sbc")
    assert make_scalar(t, 7) == t.scalar(7)
    assert t.parse("0**0") == t.zero**0 == t.one
    with pytest.raises(UndeclaredSymbolError):
        t.parse("a + undeclared")
    with pytest.raises(ScalarError):
        t.parse("1/(a - a)")


def test_division_by_zero(t):
    a = t.sym("a")
    with pytest.raises(ZeroDenominatorError):
        a / t.zero
    with pytest.raises(ZeroDenominatorError):
        t.zero.inv()


def test_laurent_degrees(t):
    a, sbc = t.syms("a", "sbc")
    assert laurent_homogeneous_degree(a / sbc + sbc / a, ["a", "sbc"]) == 0
    assert laurent_homogeneous_degree(a - sbc**2 / a, ["a", "sbc"]) == 1
    assert laurent_homogeneous_degree(a + a**2, ["a"]) is None
    with pytest.raises(NotLaurentError):
        laurent_homogeneous_degree(1 / (a + sbc), ["a", "sbc"])


def test_laurent_view_with_other_symbols(t):
    a, sbc, w = t.syms("a", "sbc", "w")
    s = (w + 1) * a**2 / sbc + (w**2) * sbc / a
    view = laurent_view(s, ["a", "sbc"])
    assert set(view.terms) == {(2, -1), (-1, 1)}
    assert view.terms[(2, -1)] == w + 1
    assert laurent_homogeneous_degree(s, ["a", "sbc"]) is None
    s2 = (w + 1) * a / sbc + w * sbc / a
    assert laurent_homogeneous_degree(s2, ["a", "sbc"]) == 0


def test_canonical_uniqueness(t):
    a, sbc, w = t.syms("a", "sbc", "w")
    left = (a + sbc) * (a + w) * (a - sbc)
    right = (a**2 - sbc**2) * a + (a**2 - sbc**2) * w
    assert left == right
    assert left.text() == right.text()
    assert hash(left) == hash(right)


def test_text_round_trip(t):
    a, sbc, w = t.syms("a", "sbc", "w")
    values = [
        a - sbc**2 / a,
        (a + w) / (sbc**3 - w),
        t.rational(-7, 3),
        t.zero,
        (a * w - 1) ** 2 / (a + 2),
    ]
    for v in values:
        assert t.parse(v.text()) == v


def test_perfect_sqrt(t):
    a, sbc = t.syms("a", "sbc")
    assert perfect_sqrt((a / sbc) ** 2) in (a / sbc, -(a / sbc))
    assert perfect_sqrt(t.rational(9, 4)) == t.rational(3, 2)
    assert perfect_sqrt(a * sbc) is None
    assert perfect_sqrt(t.scalar(2)) is None


def test_perfect_sqrt_monomial_route_matches_sympy_route(monkeypatch):
    """On seeded Laurent monomials c x**e, plain and Gaussian, the root taken
    without sympy is the one sympy's factoring returns, and both return None
    on the same values: negative constants, odd exponents, coefficients that
    are not squares and values without symbols included."""
    import random

    from oqa import scalar

    rng = random.Random(17)
    tables = [SymbolTable(syms, gaussian) for syms in ([], ["a", "sbc", "w"])
              for gaussian in (False, True)]
    squares = [1, 4, 9, 25, 36, 49, 144]
    values = []
    for _ in range(2000):
        table = rng.choice(tables)
        p = rng.choice(squares) if rng.random() < 0.7 else rng.randint(2, 30)
        q = rng.choice(squares) if rng.random() < 0.7 else rng.randint(2, 30)
        value = table.rational(rng.choice((-1, 1)) * p, q)
        for name in table.symbols:
            e = rng.randint(-4, 4)
            if e and rng.random() < 0.8:
                e += e % 2
            value = value * table.sym(name) ** e
        values.append(value)
    # where the monomial route declines, perfect_sqrt is the sympy route itself
    fast = {k: perfect_sqrt(v) for k, v in enumerate(values) if scalar._monomial_sqrt(v)}
    monkeypatch.setattr(scalar, "_monomial_sqrt", lambda s: None)
    assert {k: perfect_sqrt(values[k]) for k in fast} == fast
    assert 500 < len(fast) < 1500
    assert any(not root.table.symbols for root in fast.values())
    assert any(root.table.gaussian and not root.is_zero and (root * root).text().startswith("-")
               for root in fast.values())


def test_gaussian_table():
    tg = SymbolTable(["a"], gaussian=True)
    i = tg.i
    assert i * i == tg.scalar(-1)
    assert perfect_sqrt(tg.scalar(-1)) in (i, -i)
    a = tg.sym("a")
    assert perfect_sqrt(-(a**2)) in (i * a, -i * a)
    assert tg.parse((i * a + 1).text()) == i * a + 1
    with pytest.raises(ScalarError):
        SymbolTable(["a"]).parse("I*a")


def test_table_mixing_rejected():
    t1 = SymbolTable(["a"])
    t2 = SymbolTable(["a", "b"])
    with pytest.raises(ScalarError):
        t1.sym("a") + t2.sym("a")


# -- property tests -----------------------------------------------------------

_table = SymbolTable(["a", "sbc", "w"])


@st.composite
def scalars(draw, nonzero=False):
    a, sbc, w = _table.syms("a", "sbc", "w")
    atoms = [a, sbc, w, _table.one, _table.scalar(2), _table.scalar(-3)]
    value = draw(st.sampled_from(atoms))
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(["+", "-", "*"]))
        other = draw(st.sampled_from(atoms))
        if op == "+":
            value = value + other
        elif op == "-":
            value = value - other
        else:
            value = value * other
    if nonzero and value.is_zero:
        value = value + _table.one
    return value


@settings(max_examples=60, deadline=None)
@given(scalars(), scalars(), scalars())
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x and x * y == y * x


@settings(max_examples=40, deadline=None)
@given(scalars(nonzero=True))
def test_multiplicative_inverse(x):
    assert (x * x.inv()).is_one


@settings(max_examples=40, deadline=None)
@given(scalars(), scalars())
def test_substitute_is_homomorphism(x, y):
    bindings = {"a": _table.rational(5, 3), "w": _table.scalar(-2)}
    assert substitute(x * y, bindings) == substitute(x, bindings) * substitute(
        y, bindings
    )
    assert substitute(x + y, bindings) == substitute(x, bindings) + substitute(
        y, bindings
    )


# -- Laurent fast path against the FracField route ---------------------------

_laurent_tables = (
    SymbolTable(["a", "sbc", "w"]),
    SymbolTable(["a", "sbc"], gaussian=True),
    SymbolTable([], gaussian=True),
)


@st.composite
def laurent_scalars(draw, table):
    """A random polynomial over a random monomial, canonicalized by sympy."""
    dom = table._domain
    ring = table._field.ring
    exps = st.tuples(*[st.integers(0, 2)] * len(table.symbols))
    coeff = st.builds(
        lambda p, q, r: dom.convert(p) / dom.convert(q)
        + (dom(0, r) if table.gaussian else dom.zero),
        st.integers(-3, 3),
        st.integers(1, 3),
        st.integers(-2, 2),
    )
    terms = draw(st.dictionaries(exps, coeff, max_size=3))
    den = ring.from_dict({draw(exps): 1})
    return Scalar(table, table._field.new(ring.from_dict(terms), den))


def _assert_same(got, table, ref_elem):
    ref = Scalar(table, ref_elem)
    assert (got.elem.numer, got.elem.denom) == (ref.elem.numer, ref.elem.denom)
    assert got.text() == ref.text() and hash(got) == hash(ref)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_laurent_ops_match_fracfield(data):
    table = data.draw(st.sampled_from(_laurent_tables))
    x = data.draw(laurent_scalars(table))
    partners = [laurent_scalars(table), st.just(x), st.just(-x)]
    num = x.elem.numer
    if len(num) == 1:
        # a monomial times a constant: its inverse cancels x completely
        partners.append(st.just(x.inv()))
    if len(table.symbols) >= 2:
        # a non-monomial denominator takes the FracField route
        s0, s1 = table.syms(*table.symbols[:2])
        partners.append(laurent_scalars(table).map(lambda y: y / (s0 - s1)))
    y = data.draw(st.one_of(partners))
    for op in (operator.mul, operator.add, operator.sub):
        _assert_same(op(x, y), table, op(x.elem, y.elem))
    _assert_same(y.__rsub__(x), table, x.elem - y.elem)
    _assert_same(2 - x, table, table.scalar(2).elem - x.elem)


def test_laurent_cancellations(t):
    a, sbc = t.syms("a", "sbc")
    full = (a / sbc) * (sbc / a)
    assert full.elem.numer == 1 and full.elem.denom == 1
    assert (a**2 / sbc - a**2 / sbc).is_zero and (a / sbc + (-a) / sbc).is_zero
    assert ((a + sbc) / a - sbc / a).text() == "1"
    assert (sbc**2 / a * (a**3 / sbc)).text() == "a**2*sbc"
    mixed = (a / sbc) * (1 / (a - sbc))
    assert mixed.text() == "a/(a*sbc - sbc**2)"
    assert (mixed - 1 / (a - sbc)).text() == "1/sbc"


# -- products by the unit -------------------------------------------------------


def _unit_operands(table):
    """Symbolic (over a non-monomial too), Gaussian and zero operands."""
    ops = [laurent_scalars(table), st.just(table.zero)]
    if len(table.symbols) >= 2:
        s0, s1 = table.syms(*table.symbols[:2])
        ops.append(laurent_scalars(table).map(lambda y: y / (s0 - s1)))
    return st.one_of(ops)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_unit_products_match_full_product(data):
    table = data.draw(st.sampled_from(_laurent_tables))
    x = data.draw(_unit_operands(table))
    one = table.one
    for got in (x * one, one * x, x * 1, 1 * x, x * table.scalar(1)):
        _assert_same(got, table, x.elem * one.elem)
        # the unit rule hands back the other factor itself
        assert got.elem is x.elem
    # a 1 reached by arithmetic is not the field's one: full route, same value
    if x:
        computed = x / x
        assert computed.is_one and computed.elem is not one.elem
        _assert_same(x * computed, table, x.elem * computed.elem)
        _assert_same(computed * x, table, computed.elem * x.elem)


def test_equal_tables_share_a_field():
    t1 = SymbolTable(["a", "b"], gaussian=True)
    t2 = SymbolTable(["a", "b"], gaussian=True)
    assert t1 is not t2 and t1 == t2 and t1._field is t2._field
    assert SymbolTable(["a", "b"])._field is not t1._field
    assert SymbolTable(["b", "a"], gaussian=True)._field is not t1._field
    a1, b1 = t1.syms("a", "b")
    a2, b2 = t2.syms("a", "b")
    x = (a1 + t1.i * b1) / (a1 - b1)
    y = (b2 - 3) / (a2 * b2)
    assert x * y == y * x == ((a1 + t1.i * b1) / (a1 - b1)) * ((b1 - 3) / (a1 * b1))
    assert (x * y).text() == (y * x).text()
    assert x * t2.one == x and t2.one * x == x and (t2.one * x).text() == x.text()
    assert a1 == a2 and hash(a1) == hash(a2) and a1 * b2 == b1 * a2
    assert x + y == y + x and x - y == -(y - x) and x / y == (y / x).inv()
    assert t1.one == t2.one and t1.zero * x == t2.zero
    with pytest.raises(ScalarError, match="different symbol tables"):
        x * SymbolTable(["a", "b"]).sym("a")


# -- constant factors off the Laurent route ------------------------------------


def _off_laurent(rng, table):
    """A reduced fraction over a denominator that is not a monomial."""
    ring, dom = table._field.ring, table._domain
    while True:
        polys = []
        for size in (rng.randint(1, 4), rng.randint(2, 3)):
            terms = {
                (rng.randint(0, 2), rng.randint(0, 2)): dom.convert(rng.randint(-5, 5))
                + (dom(0, rng.randint(-2, 2)) if table.gaussian else dom.zero)
                for _ in range(size)
            }
            polys.append(ring.from_dict(terms))
        if polys[1]:
            x = Scalar(table, table._field.new(*polys))
            if len(x.elem.denom) > 1:
                return x


def _constants(rng, table):
    out = [table.zero, table.scalar(-1), table.rational(3, 7), table.rational(-5, 2)]
    if table.gaussian:
        out += [table.i, table.rational(1, 2) - 3 * table.i]
    return out + [table.rational(rng.randint(-9, 9), rng.randint(1, 9))]


def test_constant_factors_match_fracfield():
    """A product with a constant, or a quotient by one, of a fraction whose
    denominator is not a monomial keeps that denominator, equals sympy's
    FracField result, and counts gcd degree 0; over Q and over Q(i)."""
    from oqa.scalar import _gcd_degree

    rng = random.Random(26)
    for table in (SymbolTable(["a", "b"]), SymbolTable(["a", "b"], gaussian=True)):
        for _ in range(12):
            x = _off_laurent(rng, table)
            for c in _constants(rng, table):
                for got in (x * c, c * x):
                    _assert_same(got, table, x.elem * c.elem)
                assert _gcd_degree(operator.mul, x, c) == 0
                assert _gcd_degree(operator.mul, c, x) == 0
                if c:
                    _assert_same(x / c, table, x.elem / c.elem)
                    assert _gcd_degree(operator.truediv, x, c) == 0
                    assert (x * c).elem.denom == (x / c).elem.denom == x.elem.denom


def test_constant_chain_reads():
    """Each *2 of the chain scales the numerator; no gcd degree is counted."""
    from oqa.scalar import _gcd_degree

    table = SymbolTable(["a", "b"])
    base = table.parse("(a+b+1)**60/(a+b+2)**60")
    value, two = base, table.scalar(2)
    for _ in range(5):
        assert _gcd_degree(operator.mul, value, two) == 0
        value = value * two
    assert value.elem.numer == base.elem.numer * 32
    assert value.elem.denom == base.elem.denom
    assert table.parse("((a+b+1)**60/(a+b+2)**60)*2*2*2*2*2") == value


# -- Laurent quotients, ground substitution and the text reader ---------------


def _dividends(table):
    """Laurent scalars, and (with two symbols) ones over a non-monomial."""
    out = [laurent_scalars(table)]
    if len(table.symbols) >= 2:
        s0, s1 = table.syms(*table.symbols[:2])
        out.append(laurent_scalars(table).map(lambda y: y / (s0 + s1)))
    return st.one_of(out)


def _divisors(table):
    """Nonzero divisors: monomial numerators (Laurent rule) and not."""
    dom = table._domain
    ring = table._field.ring
    exps = st.tuples(*[st.integers(0, 2)] * len(table.symbols))
    coeff = st.sampled_from([1, -1, 2, -3]).map(dom.convert)
    mono = st.builds(
        lambda m, c, e: Scalar(
            table, table._field.new(ring.from_dict({m: c}), ring.from_dict({e: 1}))
        ),
        exps, coeff, exps,
    )
    return st.one_of(mono, _dividends(table)).filter(bool)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_quotients_match_fracfield(data):
    from oqa.scalar import _laurent_quotient

    table = data.draw(st.sampled_from(_laurent_tables))
    x = data.draw(_dividends(table))
    y = data.draw(_divisors(table))
    _assert_same(x / y, table, x.elem / y.elem)
    _assert_same(y.inv(), table, y.elem**-1)
    k = data.draw(st.integers(1, 3))
    _assert_same(y**-k, table, y.elem**-k)
    # the rule applies exactly when x's denominator and y's numerator are
    # monomials; every other pair stays on the FracField route
    laurent = len(x.elem.denom) == 1 and len(y.elem.numer) == 1
    assert (_laurent_quotient(table, x.elem, y.elem) is not None) == laurent
    zero = table.zero
    for call, message in (
        (lambda: x / zero, "division by the zero scalar"),
        (zero.inv, "inverse of the zero scalar"),
        (lambda: zero**-k, "negative power of the zero scalar"),
    ):
        with pytest.raises(ZeroDenominatorError, match=f"^{message}$"):
            call()


@st.composite
def _bindings(draw, table):
    """Partial or full bindings: small constants (often colliding, so that
    denominators vanish), and now and then another symbol."""
    consts = [0, 1, -1, 2, Fraction(1, 2)]
    if table.gaussian:
        consts.append(table.i)
    out = {}
    for name in table.symbols:
        kind = draw(st.sampled_from(["const", "const", "const", "free", "sym"]))
        if kind == "const":
            c = draw(st.sampled_from(consts))
            out[name] = c if isinstance(c, Scalar) else table.scalar(c)
        elif kind == "sym":
            out[name] = table.sym(draw(st.sampled_from(table.symbols))) + 1
    return out


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_substitute_matches_eval_poly(data):
    from oqa.scalar import _eval_poly

    table = data.draw(st.sampled_from(_laurent_tables))
    x = data.draw(_dividends(table))
    if len(table.symbols) >= 2:
        s0, s1 = table.syms(*table.symbols[:2])
        x = data.draw(st.sampled_from([x, x / (s0 - s1), x / (s0 * s1 - 1)]))
    bindings = data.draw(_bindings(table))
    values = [bindings.get(n, table.sym(n)) for n in table.symbols]
    num = _eval_poly(table, x.elem.numer, values)
    den = _eval_poly(table, x.elem.denom, values)
    if den.is_zero:
        message = (
            f"substitution {dict(bindings)!r} makes the denominator of "
            f"{x.text()} vanish"
        )
        with pytest.raises(ZeroDenominatorError) as info:
            substitute(x, bindings)
        assert str(info.value) == message
    else:
        _assert_same(substitute(x, bindings), table, num.elem / den.elem)


def _parse_expr_route(table, text):
    """sympy's parse_expr, the reference that ``parse`` is checked against."""
    import sympy

    try:
        expr = sympy.parse_expr(text, local_dict=dict(table._sympy_syms), evaluate=True)
    except Exception as exc:
        raise ScalarError(f"cannot parse scalar text {text!r}: {exc}") from exc
    return table.from_expr(expr)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_parse_reads_canonical_text(data):
    from oqa.scalar import _read

    table = data.draw(st.sampled_from(_laurent_tables))
    x = data.draw(_dividends(table))
    if len(table.symbols) >= 2:
        s0, s1 = table.syms(*table.symbols[:2])
        x = data.draw(st.sampled_from([x, x / (s0 - s1), x**2 / (s0 * s1 - 1)]))
    text = x.text()
    assert _read(table, text) == x
    assert table.parse(text) == x == _parse_expr_route(table, text)


@st.composite
def _expression_texts(draw, table):
    """Texts in and around the reader's grammar, spaces and unary signs
    included."""
    names = list(table.symbols) + (["I"] if table.gaussian else [])
    atoms = st.sampled_from(names + ["0", "1", "2", "12", "007", "zz"])
    exponent = st.sampled_from(["2", "-1", "(-2)", "+3", "0", "(1)", "a", "1/2"])

    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from(["+", "-", "*", "/", " * ", " - "]), inner)
            .map("".join),
            st.tuples(st.sampled_from(["-", "+", "--"]), inner).map("".join),
            inner.map(lambda e: f"({e})"),
            st.tuples(inner, exponent).map(lambda p: f"{p[0]}**{p[1]}"),
        )

    return draw(st.recursive(atoms, extend, max_leaves=6))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_reader_agrees_with_parse_expr(data):
    """Whatever parse reads, sympy's parse_expr reads to the same Scalar; any
    other text raises a one-line ScalarError."""
    table = data.draw(st.sampled_from(_laurent_tables))
    text = data.draw(_expression_texts(table))
    try:
        got = table.parse(text)
    except ScalarError as exc:
        assert "\n" not in str(exc)
    else:
        assert got == _parse_expr_route(table, text)


_REFUSED = "cannot parse scalar text"


@pytest.mark.parametrize(
    "text,error,message",
    [
        ("a^2", ScalarError, f"{_REFUSED} 'a^2': 'a^2' is outside the grammar"),
        ("a + zz", UndeclaredSymbolError,
         "symbol 'zz' not declared in SymbolTable(['a', 'sbc', 'w'], domain=QQ)"),
        ("1/0", ZeroDenominatorError, "division by the zero scalar"),
        ("(a - a)**-1", ZeroDenominatorError, "negative power of the zero scalar"),
        ("007", ScalarError,
         f"{_REFUSED} '007': leading zeros in decimal integer literals are not permitted; "
         "use an 0o prefix for octal integers"),
        ("I*a", ScalarError, "imaginary unit requires a Gaussian symbol table"),
        ("True", ScalarError, f"{_REFUSED} 'True': 'True' is not a decimal integer"),
        ("None", ScalarError, f"{_REFUSED} 'None': 'None' is not a decimal integer"),
        ("[1]", ScalarError, f"{_REFUSED} '[1]': '[1]' is outside the grammar"),
        ("(1, a)", ScalarError, f"{_REFUSED} '(1, a)': '(1, a)' is outside the grammar"),
        # sympy's parse_expr read these, decimals inexactly
        ("0.5", ScalarError, f"{_REFUSED} '0.5': '0.5' is not a decimal integer"),
        ("3.14159", ScalarError, f"{_REFUSED} '3.14159': '3.14159' is not a decimal integer"),
        ("1e-20", ScalarError, f"{_REFUSED} '1e-20': '1e-20' is not a decimal integer"),
        ("a**2**2", ScalarError, f"{_REFUSED} 'a**2**2': '2**2' is not a decimal integer"),
        # refused before anything is multiplied out
        ("(a + w + 1)**40000", ScalarError,
         f"{_REFUSED} '(a + w + 1)**40000': exponent 40000 of a base other than a symbol "
         "is outside -1000..1000"),
        ("(2*a)**-1001", ScalarError,
         f"{_REFUSED} '(2*a)**-1001': exponent -1001 of a base other than a symbol "
         "is outside -1000..1000"),
        # a step that may pass 10**6 terms or degree 10**4 is refused before it runs
        ("(a+w+1)**60*(a+w+1)**60", ScalarError,
         f"{_REFUSED} '(a+w+1)**60*(a+w+1)**60': '(a+w+1)**60*(a+w+1)**60' "
         "may have up to 3575881 terms, more than 1000000"),
        ("(a+w+1)**150*(a+w+1)**150", ScalarError,
         f"{_REFUSED} '(a+w+1)**150*(a+w+1)**150': '(a+w+1)**150' "
         "may have up to 8561476 terms, more than 1000000"),
        ("(a+1)**1000 + 1/(w+1)**1000", ScalarError,
         f"{_REFUSED} '(a+1)**1000 + 1/(w+1)**1000': '(a+1)**1000 + 1/(w+1)**1000' "
         "may have up to 1002002 terms, more than 1000000"),
        # off the Laurent route FracField cancels by a polynomial gcd, which
        # the term and degree bounds do not count; unbounded, these took from
        # under a second to a minute
        ("1/(a+1)**200 + 1/(w+1)**200", ScalarError,
         f"{_REFUSED} '1/(a+1)**200 + 1/(w+1)**200': '1/(a+1)**200 + 1/(w+1)**200' "
         "needs a polynomial gcd on up to 40401 terms, more than 4096"),
        ("1/(a+1)**100 + 1/(w+1)**100", ScalarError,
         f"{_REFUSED} '1/(a+1)**100 + 1/(w+1)**100': '1/(a+1)**100 + 1/(w+1)**100' "
         "needs a polynomial gcd on up to 10201 terms, more than 4096"),
        ("(a+1)**1000/(a+2)**1000", ScalarError,
         f"{_REFUSED} '(a+1)**1000/(a+2)**1000': '(a+1)**1000/(a+2)**1000' "
         "needs a polynomial gcd of degree up to 1000, more than 64"),
        ("(a+1)**500/(w+1)**500", ScalarError,
         f"{_REFUSED} '(a+1)**500/(w+1)**500': '(a+1)**500/(w+1)**500' "
         "needs a polynomial gcd of degree up to 500, more than 64"),
        ("a**3000000", ScalarError,
         f"{_REFUSED} 'a**3000000': 'a**3000000' may have degree up to 3000000, more than 10000"),
        ("a**1000000000", ScalarError,
         f"{_REFUSED} 'a**1000000000': 'a**1000000000' "
         "may have degree up to 1000000000, more than 10000"),
        ("a**10000 * w", ScalarError,
         f"{_REFUSED} 'a**10000 * w': 'a**10000 * w' may have degree up to 10001, more than 10000"),
        ("__import__('os').getcwd() or a", ScalarError,
         f"{_REFUSED} \"__import__('os').getcwd() or a\": "
         "\"__import__('os').getcwd() or a\" is outside the grammar"),
        # Python would fold the fullwidth letter into a declared name
        ("\uff41", ScalarError, f"{_REFUSED} '\uff41': it is not printable ASCII"),
        ("a\n+ 1", ScalarError, f"{_REFUSED} 'a\\n+ 1': it is not printable ASCII"),
    ],
)
def test_reader_declines_to_parse_expr(t, text, error, message):
    """The reader refuses text outside its grammar with one line of its own,
    in well under a second; no other reader takes the text."""
    start = time.perf_counter()
    with pytest.raises(error) as info:
        t.parse(text)
    assert time.perf_counter() - start < 0.5
    assert type(info.value) is error and str(info.value) == message


def test_exponent_bound_spares_lone_symbols(t):
    """A power of a lone symbol is one monomial and reads, as text() writes
    it, up to the degree bound 10**4; any other base takes exponents up to
    1000 in size."""
    a = t.sym("a")
    for k in (5000, -5000, 10000, -10000):
        assert t.parse(f"a**{k}") == a**k and t.parse((a**k).text()) == a**k
    assert t.parse("(2*a)**1000") == t.scalar(2) ** 1000 * a**1000
    assert t.parse("(2*a)**-1000") == (2 * a) ** -1000


def test_parse_reads_long_sums():
    """Sums walk in a loop: a 2,000-term numerator reads back at any length,
    alone and over a binomial, with no recursion per term."""
    table = SymbolTable(["a", "b"])
    a, b = table.syms("a", "b")
    x = table.zero
    for i in range(45):
        for j in range(45):
            x = x + (45 * i + j + 1) * a**i * b**j
    assert len(x.elem.numer) == 2025
    for value in (x, x / (a - b)):
        text = value.text()
        start = time.perf_counter()
        assert table.parse(text) == value
        assert time.perf_counter() - start < 1.0


def test_parse_refuses_a_sum_too_deep_for_pythons_parser():
    """Where Python's parser gives up on a long sum, parse raises one line."""
    table = SymbolTable(["a"])
    text = " + ".join(f"a**{i}" for i in range(5000))
    try:
        ast.parse(text, mode="eval")
    except (RecursionError, MemoryError):
        with pytest.raises(ScalarError) as info:
            table.parse(text)
        assert str(info.value) == f"cannot parse scalar text {text!r}: " + (
            "it nests too deeply for Python's parser"
        )
    else:  # a parser that builds the tree (3.10, 3.13) leaves it to the loop
        assert table.parse(text) == sum((table.sym("a") ** i for i in range(5000)), table.zero)


@pytest.mark.parametrize("name", ["lambda", "None", "\u03b1", "\uff41", 1, "2a", "I"])
def test_table_refuses_names_parse_cannot_read(name):
    """Every declared name reads back: no keyword, no non-ASCII name (Python
    folds it by NFKC), nothing that is not a string."""
    with pytest.raises(ScalarError):
        SymbolTable([name])


def _frozenset_hash(x: Scalar) -> int:
    num, den = x.elem.numer, x.elem.denom
    return hash((frozenset(num.items()), frozenset(den.items())))


@pytest.mark.parametrize(
    "symbols, gaussian, text",
    [
        (["a", "sbc"], False, "(a**2 - 3*sbc)/(2*a*sbc + 1)"),
        (["a", "sbc"], True, "(I*a - 1/2)/sbc**2"),
        ([], True, "(3 + 4*I)/5"),
        ([], False, "-7/3"),
        ([], False, "0"),
    ],
)
def test_hash_is_kept_and_unchanged(symbols, gaussian, text):
    """The hash is made on first use, kept in its slot, and equals the
    frozenset formula; equal scalars of separately built tables hash equal."""
    x = SymbolTable(symbols, gaussian).parse(text)
    assert getattr(x, "_hash", None) is None
    assert hash(x) == _frozenset_hash(x)
    assert x._hash == hash(x)
    assert copy.copy(x) == x and hash(copy.copy(x)) == hash(x)
    y = SymbolTable(symbols, gaussian).parse(text)
    assert y == x and y.table is not x.table
    assert hash(y) == hash(x)
    assert len({x, y, x * 1}) == 1
    assert repr(x) == f"Scalar({x.text()})"
