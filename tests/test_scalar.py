import operator

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
