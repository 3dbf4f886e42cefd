"""Exact scalar arithmetic: rational functions over Q (or Q(i)) in declared symbols.

Every coefficient in this package is a :class:`Scalar`: an exact fraction of
multivariate integer-coefficient polynomials in the parameter symbols of one
:class:`SymbolTable`.  Square roots that the matrix constructions need are
handled by declaring the root itself as a symbol (e.g. ``sbc`` with
``bc = sbc**2``) or, for square roots of -1, by building the table over the
Gaussian rationals.

Canonical form is maintained eagerly (content/GCD reduction with a monic
denominator), so ``==`` is exact mathematical equality and Scalars are
hashable.  All values are immutable.

A Scalar keeps one of two things.  A constant keeps its ground element (a
``PythonMPQ`` on Q, a ``GaussianRational`` on Q(i)) in the slot
``_ground_value`` and no polynomial; any other value keeps its canonical
``FracElement``.  ``elem`` reads that element, and for a constant builds it
on demand (ground element over 1) without keeping it, for ``text()``,
``substitute``, ``laurent_view`` and pickling.

Arithmetic takes the first of four routes that fits its operands:

* **Ground.**  Two constants: ``+ - * /``, ``inv``, powers, negation, ``==``
  and ``hash`` compute on the ground elements and build one small Scalar
  (or none), with no polynomial.
* **Constant operand.**  A constant and any other value n/d need no gcd,
  since a constant cannot change one: a product, or a quotient by the
  constant, scales n and keeps d; a sum or difference is (c d +- n)/d over
  the same d; and c / x scales the inverse of x, a swapped reduced fraction.
* **Laurent.**  Products and sums of Laurent scalars -- both denominators
  single monomials -- reach canonical form without a gcd: the result's
  denominator is again a monomial, and the only common factor left to
  cancel is the power of each symbol that divides the whole numerator.
  Division, inverse and negative powers take the same route when the
  dividend's denominator and the divisor's numerator are single monomials.
* **FracField.**  Any other operand pair goes through sympy's ``FracField``
  arithmetic, which cancels by a polynomial gcd.

The public constructor ``Scalar(table, elem)`` checks that ``elem`` belongs
to the table's field and makes its denominator monic (sympy reduces the
fraction but, over Q(i), does not fix the denominator's unit); results of
the FracField route and of inverting a fraction go through it.  The other
routes build results that are canonical by construction -- a scaled or
shifted numerator over a kept monic denominator, a Laurent numerator over a
monic monomial, a negated numerator, a power of a reduced fraction -- so
``_canonical`` builds their Scalars once, without that check.

Every constant, from any route, is built by ``SymbolTable._ground``: 0 is
the table's ``zero`` and 1 its ``one``, both built once per table, and any
other constant is a new Scalar holding its ground element.  The public
constructor hands a constant element to it too, so a 1 from the FracField
route (say (a+b)/(a+b)) is ``one`` as well.  A product with the unit costs
nothing: when either factor is the table's ``one``, the product is the
other factor, unchanged.  This is an identity test, so it is exact.  Equal
tables share one ``FracField``, so every operation holds across tables
built separately from the same symbols and domain.

Pickle and ``copy`` rebuild a table from its symbols and domain, and a
Scalar from its table and its terms as plain integers; no sympy object is
pickled.

Substitution of constants for every symbol evaluates numerator and
denominator in the ground domain (Q or Q(i)) and divides once.  Parsing walks
the ``ast`` tree of the one grammar ``text()`` writes with Scalar arithmetic
(see ``_read``): no text is run as Python, and other text raises ScalarError.
Each step of that walk is size-bounded before it runs, a step off the Laurent
route also by the size of the gcd that cancels it.
"""

from __future__ import annotations

import ast
import keyword
import math
from dataclasses import FrozenInstanceError, dataclass
from operator import add, mul, sub, truediv
from typing import Iterable, Mapping, Optional, Sequence, Union

import sympy
from sympy.polys.domains import QQ, QQ_I
from sympy.polys.fields import FracField
from sympy.printing.str import StrPrinter

__all__ = [
    "ScalarError",
    "UndeclaredSymbolError",
    "ZeroDenominatorError",
    "NotLaurentError",
    "SymbolTable",
    "Scalar",
    "LaurentView",
    "substitute",
    "laurent_view",
    "laurent_homogeneous_degree",
    "perfect_sqrt",
]


class ScalarError(ValueError):
    """Base class for scalar-arithmetic errors."""


class UndeclaredSymbolError(ScalarError):
    """An expression mentions a symbol the table does not declare."""


class ZeroDenominatorError(ScalarError):
    """A division or substitution produced an identically zero denominator."""


class NotLaurentError(ScalarError):
    """The scalar is not a Laurent polynomial in the requested symbols."""


_PRINTER = StrPrinter({"order": "lex"})

# one FracField per (symbols, gaussian), shared by equal tables: sympy builds
# a new field and ring on every FracField call
_FIELDS: dict = {}

ScalarLike = Union["Scalar", int]


class SymbolTable:
    """An ordered set of parameter symbols fixing the ground field k.

    All Scalars reference exactly one table; mixing tables raises.  With
    ``gaussian=True`` the coefficient domain is Q(i), which is needed for
    automorphism square-root branches on mixed diagonal blocks.
    """

    def __init__(self, symbols: Sequence[str] = (), gaussian: bool = False):
        symbols = tuple(symbols)
        for name in symbols:
            # parse reads every name back: Python folds non-ASCII (NFKC) names
            if not (isinstance(name, str) and name.isascii() and name.isidentifier()):
                raise ScalarError(f"symbol name {name!r} is not an ASCII identifier")
            if keyword.iskeyword(name):
                raise ScalarError(f"symbol name {name!r} is a Python keyword")
            if name == "I":
                raise ScalarError("'I' is reserved for the imaginary unit")
        if len(set(symbols)) != len(symbols):
            raise ScalarError(f"duplicate symbols in {symbols!r}")
        self.symbols = symbols
        self.gaussian = bool(gaussian)
        self._domain = QQ_I if gaussian else QQ
        key = (symbols, self.gaussian)
        field = _FIELDS.get(key)
        if field is None:
            field = _FIELDS[key] = FracField(symbols, self._domain)
        self._field = field
        self._zero_monom = field.ring.zero_monom
        self._sympy_syms = {name: sympy.Symbol(name) for name in symbols}
        self._gens = dict(zip(symbols, self._field.gens))
        # built once; every 0 and 1 of this table is one of these
        self.zero = _constant(self, self._domain.zero)
        self.one = _constant(self, self._domain.one)

    def __repr__(self) -> str:
        dom = "QQ_I" if self.gaussian else "QQ"
        return f"SymbolTable({list(self.symbols)!r}, domain={dom})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SymbolTable)
            and self.symbols == other.symbols
            and self.gaussian == other.gaussian
        )

    def __hash__(self) -> int:
        return hash((self.symbols, self.gaussian))

    def __reduce__(self):
        # sympy's fields do not pickle; an equal table shares the field
        return SymbolTable, (self.symbols, self.gaussian)

    # -- constructors ------------------------------------------------------

    def sym(self, name: str) -> "Scalar":
        if name not in self._gens:
            raise UndeclaredSymbolError(f"symbol {name!r} not declared in {self!r}")
        return Scalar(self, self._gens[name])

    def syms(self, *names: str) -> tuple:
        return tuple(self.sym(n) for n in names)

    @property
    def i(self) -> "Scalar":
        """The imaginary unit (Gaussian tables only)."""
        if not self.gaussian:
            raise ScalarError("imaginary unit requires a Gaussian symbol table")
        return self._ground(QQ_I(0, 1))

    def scalar(self, value: ScalarLike) -> "Scalar":
        """Coerce an int, Fraction-like or Scalar into this table's field."""
        if isinstance(value, Scalar):
            if value.table != self:
                raise ScalarError("scalar belongs to a different symbol table")
            return value
        if isinstance(value, (float, complex, sympy.Float)):
            # a binary float is not the decimal it prints as: 0.1 is not 1/10
            raise ScalarError(
                f"cannot coerce {value!r} into {self!r}: floats are inexact; "
                "use an int or a Fraction"
            )
        try:
            c = self._domain.convert(value)
        except Exception as exc:
            raise ScalarError(f"cannot coerce {value!r} into {self!r}") from exc
        return self._ground(c)

    def _ground(self, c) -> "Scalar":
        """The constant Scalar of a ground-domain element: ``zero`` for 0,
        ``one`` for 1 (so products by it take the unit rule), else a new
        Scalar holding c."""
        if not c:
            return self.zero
        if c == self._domain.one:
            return self.one
        return _constant(self, c)

    def rational(self, p: int, q: int = 1) -> "Scalar":
        if q == 0:
            raise ZeroDenominatorError("rational with zero denominator")
        return self.scalar(p) / self.scalar(q)

    def parse(self, text: str) -> "Scalar":
        """Read text in the grammar ``text()`` writes (see ``_read``) or raise."""
        if not isinstance(text, str):
            raise ScalarError(f"cannot parse scalar text {text!r}: it is not a string")
        return _read(self, text)

    def from_expr(self, expr: sympy.Expr) -> "Scalar":
        """Convert a sympy expression built from +,-,*,/,** over ints and symbols."""
        free = expr.free_symbols - set(self._sympy_syms.values()) - {sympy.I}
        if free:
            raise UndeclaredSymbolError(
                f"undeclared symbols {sorted(map(str, free))} in expression {expr}"
            )
        if expr.has(sympy.I) and not self.gaussian:
            raise ScalarError("imaginary unit requires a Gaussian symbol table")
        if expr.has(sympy.Float):
            raise ScalarError(
                f"expression {expr} has a float; floats are inexact; use an int or a Fraction"
            )
        try:
            elem = self._field.from_expr(expr)
        except ZeroDivisionError:
            raise ZeroDenominatorError(f"division by zero in {expr}") from None
        except Exception as exc:
            raise ScalarError(f"expression {expr} is not a rational function: {exc}") from exc
        return Scalar(self, elem)


def make_scalar(table: SymbolTable, expr) -> "Scalar":
    """Build a canonical Scalar from an expression tree.

    Accepts Scalars (identity), ints, strings in the serialization grammar,
    and sympy expressions over declared symbols.
    """
    if isinstance(expr, Scalar):
        return table.scalar(expr)
    if isinstance(expr, int):
        return table.scalar(expr)
    if isinstance(expr, str):
        return table.parse(expr)
    if isinstance(expr, sympy.Expr):
        return table.from_expr(expr)
    raise ScalarError(f"cannot build a scalar from {expr!r}")


class Scalar:
    """An exact rational function; immutable, canonical, hashable.

    ``Scalar(table, elem)`` takes an element of the table's ``FracField``.
    """

    # a constant holds its ground element in _ground_value and None in
    # _elem; any other value None and its canonical FracElement.  _hash stays
    # unset until the first hash() (see __hash__), so that making a Scalar
    # costs no more for it
    __slots__ = ("table", "_ground_value", "_elem", "_hash")

    def __new__(cls, table: SymbolTable, elem) -> "Scalar":
        if elem.field is not table._field:
            raise ScalarError("element does not belong to the table's field")
        # sympy reduces the fraction but (over the Gaussian rationals) does
        # not fix the denominator's unit; canonical form here is a monic
        # denominator
        den = elem.denom
        lc = den.LC
        if lc != table._domain.one:
            elem = table._field.raw_new(elem.numer.quo_ground(lc), den.quo_ground(lc))
        c = _ground_of(elem)
        return _canonical(table, elem) if c is None else table._ground(c)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @property
    def elem(self):
        """The canonical sympy ``FracElement``; a constant's is built anew on
        every read."""
        e = self._elem
        if e is not None:
            return e
        c, field = self._ground_value, self.table._field
        if not c:
            return field.zero
        return field.raw_new(field.ring.dtype({self.table._zero_monom: c}), field.one.denom)

    # -- basic protocol ----------------------------------------------------

    def _coerce(self, other: ScalarLike) -> "Scalar":
        if isinstance(other, Scalar):
            if other.table is not self.table and other.table != self.table:
                raise ScalarError("scalars from different symbol tables")
            return other
        return self.table.scalar(other)

    def _sum(self, x: "Scalar", y: "Scalar", op) -> "Scalar":
        """``op(x, y)`` for Scalars x, y of this table and op one of add, sub."""
        table = self.table
        cx, cy = x._ground_value, y._ground_value
        if cx is not None and cy is not None:
            return table._ground(op(cx, cy))
        if cx is not None or cy is not None:
            # c + n/d = (c d + n)/d is reduced over the same monic d
            if cx is not None:
                f = y._elem
                num = op(f.denom.mul_ground(cx), f.numer)
            else:
                f = x._elem
                num = op(f.numer, f.denom.mul_ground(cy))
            return _canonical(table, table._field.raw_new(num, f.denom))
        x, y = x._elem, y._elem
        ex, ey = _monomial(x.denom), _monomial(y.denom)
        if ex is None or ey is None:
            return Scalar(table, op(x, y))
        if ex == ey:
            return _laurent(table, op(x.numer, y.numer), ex)
        e = tuple(map(max, ex, ey))
        num = op(
            x.numer.mul_monom(tuple(map(sub, e, ex))),
            y.numer.mul_monom(tuple(map(sub, e, ey))),
        )
        return _laurent(table, num, e)

    def __add__(self, other: ScalarLike) -> "Scalar":
        return self._sum(self, self._coerce(other), add)

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> "Scalar":
        return self._sum(self, self._coerce(other), sub)

    def __rsub__(self, other: ScalarLike) -> "Scalar":
        return self._sum(self._coerce(other), self, sub)

    def __mul__(self, other: ScalarLike) -> "Scalar":
        other = self._coerce(other)
        table = self.table
        one = table.one
        if self is one:
            return other
        if other is one:
            return self
        cx, cy = self._ground_value, other._ground_value
        if cy is not None:
            if cx is not None:
                return table._ground(cx * cy)
            return _scaled(table, self._elem, cy)
        if cx is not None:
            return _scaled(table, other._elem, cx)
        x, y = self._elem, other._elem
        ex, ey = _monomial(x.denom), _monomial(y.denom)
        if ex is None or ey is None:
            return Scalar(table, x * y)
        return _laurent(table, x.numer * y.numer, tuple(map(add, ex, ey)))

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "Scalar":
        other = self._coerce(other)
        table = self.table
        c = other._ground_value
        if c is not None:
            if not c:
                raise ZeroDenominatorError("division by the zero scalar")
            cx = self._ground_value
            if cx is not None:
                return table._ground(cx / c)
            return _scaled(table, self._elem, table._domain.one / c)
        cx = self._ground_value
        if cx is not None:
            return _scaled(table, other._inverse()._elem, cx)
        x, y = self._elem, other._elem
        q = _laurent_quotient(table, x, y)
        return Scalar(table, x / y) if q is None else q

    def __rtruediv__(self, other: ScalarLike) -> "Scalar":
        return self._coerce(other) / self

    def __pow__(self, exponent: int) -> "Scalar":
        if not isinstance(exponent, int):
            raise ScalarError("only integer powers are supported")
        if exponent < 0:
            if not self:
                raise ZeroDenominatorError("negative power of the zero scalar")
            return self._inverse() ** -exponent
        if not exponent:
            # sympy refuses 0**0; here, as in Python and sympy's Pow, it is 1
            return self.table.one
        c = self._ground_value
        if c is not None:
            return self.table._ground(c**exponent)
        # a power of a reduced fraction over a monic denominator is one too
        return _canonical(self.table, self._elem**exponent)

    def __neg__(self) -> "Scalar":
        c = self._ground_value
        if c is not None:
            return self.table._ground(-c)
        return _canonical(self.table, -self._elem)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = self.table.scalar(other)
        elif not isinstance(other, Scalar):
            return NotImplemented
        if self.table is not other.table and self.table != other.table:
            return False
        c, d = self._ground_value, other._ground_value
        if c is None:
            return d is None and self._elem == other._elem
        return d is not None and c == d

    def __hash__(self) -> int:
        # not hash(self.elem): sympy caches a polynomial's hash, and
        # PolyElement.square caches it before it has added every term.  A
        # Scalar never changes, so its own hash is made on first use and kept.
        # A constant hashes as the terms of its element: c over 1.
        h = getattr(self, "_hash", None)
        if h is None:
            c = self._ground_value
            if c is None:
                num, den = self._elem.numer.items(), self._elem.denom.items()
            else:
                zero = self.table._zero_monom
                num, den = ((zero, c),) if c else (), ((zero, self.table._domain.one),)
            h = hash((frozenset(num), frozenset(den)))
            _set_hash(self, h)
        return h

    def __reduce__(self):
        # sympy's polynomials do not pickle; plain integers do, and rebuild
        # any value, also one past the bounds of the text reader
        table, e = self.table, self.elem
        return _rebuild, (table, _int_terms(table, e.numer), _int_terms(table, e.denom))

    def __bool__(self) -> bool:
        c = self._ground_value
        return c is None or bool(c)

    def __repr__(self) -> str:
        return f"Scalar({self.text()})"

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self

    @property
    def is_one(self) -> bool:
        return self is self.table.one

    def inv(self) -> "Scalar":
        if not self:
            raise ZeroDenominatorError("inverse of the zero scalar")
        return self._inverse()

    def _inverse(self) -> "Scalar":
        """1 / self for a nonzero scalar; swapping a reduced fraction needs
        no gcd, and a monomial numerator takes the Laurent rule."""
        table = self.table
        c = self._ground_value
        if c is not None:
            return table._ground(table._domain.one / c)
        q = _laurent_quotient(table, table._field.one, self._elem)
        return Scalar(table, self._elem ** -1) if q is None else q

    def as_expr(self) -> sympy.Expr:
        return self.elem.as_expr()

    def text(self) -> str:
        """Canonical `num / den` text with a fixed (lex) monomial order."""
        return _PRINTER.doprint(self.elem.as_expr())


_new = object.__new__
_set_table = Scalar.table.__set__
_set_ground_value = Scalar._ground_value.__set__
_set_elem = Scalar._elem.__set__
_set_hash = Scalar._hash.__set__


def _constant(table: SymbolTable, c) -> Scalar:
    """The Scalar holding the ground element c; ``SymbolTable._ground`` is
    the one caller after the table's ``zero`` and ``one`` are built."""
    s = _new(Scalar)
    _set_table(s, table)
    _set_ground_value(s, c)
    _set_elem(s, None)
    return s


def _canonical(table: SymbolTable, elem) -> Scalar:
    """The Scalar of an element of ``table``'s field that is no constant and
    already reduced with a monic denominator, built without the checks of
    ``Scalar(table, elem)``.

    Only internal results whose form is canonical by construction come here;
    the public constructor keeps the checks for every other element.
    """
    s = _new(Scalar)
    _set_table(s, table)
    _set_ground_value(s, None)
    _set_elem(s, elem)
    return s


def _int_terms(table: SymbolTable, poly) -> tuple:
    """The terms of a polynomial as (monomial, integers) pairs: p, q of each
    rational coefficient p/q, and of its real and imaginary parts on Q(i)."""
    parts = (lambda c: (c.x, c.y)) if table.gaussian else (lambda c: (c,))
    return tuple(
        (monom, tuple(int(n) for q in parts(c) for n in (q.numerator, q.denominator)))
        for monom, c in poly.items()
    )


def _rebuild(table: SymbolTable, numer: tuple, denom: tuple) -> Scalar:
    """The Scalar whose numerator and denominator have the given
    ``_int_terms``; a 0 or 1 is the table's ``zero`` or ``one``."""
    field = table._field

    def poly(terms):
        coeffs = {}
        for monom, ints in terms:
            q = [QQ(p, d) for p, d in zip(ints[::2], ints[1::2])]
            coeffs[monom] = table._domain(*q) if table.gaussian else q[0]
        return field.ring.from_dict(coeffs)

    return Scalar(table, field.raw_new(poly(numer), poly(denom)))


def _monomial(den) -> Optional[tuple]:
    """The exponent vector of a monomial denominator, else None.

    Canonical denominators are monic, so a one-term denominator is exactly
    x**exponent.
    """
    if len(den) == 1:
        (monom,) = den
        return monom
    return None


def _ground_of(e):
    """The ground element of the canonical FracElement e when e is a
    constant (0 included), else None.

    A canonical constant's denominator is 1, so its value is the numerator's
    constant term.
    """
    num, den = e.numer, e.denom
    if len(num) > 1 or len(den) != 1:
        return None
    zero = num.ring.zero_monom
    if zero not in den:
        return None
    return num.get(zero) if num else num.ring.domain.zero


def _scaled(table: SymbolTable, f, c) -> Scalar:
    """``c * f`` for a FracElement f that is no constant and a ground
    element c.

    A constant cannot change a gcd: times a reduced fraction with a monic
    denominator it scales the numerator alone, and the result is reduced
    with the same denominator.
    """
    if not c:
        return table.zero
    return _canonical(table, table._field.raw_new(f.numer.mul_ground(c), f.denom))


def _laurent(table: SymbolTable, num, exp: tuple) -> Scalar:
    """The canonical Scalar ``num / x**exp``.

    The gcd of a polynomial and a monomial is, per symbol, the smaller of the
    numerator's valuation and the denominator's exponent; dividing it out
    leaves a reduced fraction whose monomial denominator is already monic.
    """
    if not num:
        return table.zero
    if any(exp):
        low = exp
        for monom in num:
            low = tuple(map(min, low, monom))
        if any(low):
            num = num.new([(tuple(map(sub, m, low)), c) for m, c in num.items()])
            exp = tuple(map(sub, exp, low))
    field = table._field
    if any(exp):
        den = field.ring.dtype([(exp, table._domain.one)])
    elif len(num) == 1 and table._zero_monom in num:
        return table._ground(num[table._zero_monom])
    else:
        # a zero exponent shares the denominator of the field's one
        den = field.one.denom
    return _canonical(table, field.raw_new(num, den))


def _laurent_quotient(table: SymbolTable, x, y) -> Optional[Scalar]:
    """``x / y`` for FracElements (y nonzero) when x's denominator and y's
    numerator are single monomials, else None.

    Then x / y = (x.numer * y.denom / c) / x**(e_x + e_y), where c x**e_y is
    y's numerator and x**e_x x's denominator, and `_laurent` reduces it.
    """
    ex = _monomial(x.denom)
    if ex is None or len(y.numer) != 1:
        return None
    ((ey, c),) = y.numer.items()
    num = x.numer * y.denom
    if c != table._domain.one:
        num = num.quo_ground(c)
    return _laurent(table, num, tuple(map(add, ex, ey)))


# -- parsing ---------------------------------------------------------------

_BINARY = {ast.Add: add, ast.Sub: sub, ast.Mult: mul, ast.Div: truediv}

# the largest |exponent| scalar text may put on a base other than a lone
# symbol: multiplying such a power out costs steeply more with the exponent
# ((a+b+1)**400 takes about half a second), and text() writes exponents on
# symbols only
_MAX_EXPONENT = 1000

# the most terms, and the highest total degree, that one step of reading
# scalar text may make: a product of about 10**6 term pairs, such as
# (a+b+1)**43 * (a+b+1)**43, takes sympy on the order of a second, and
# substituting a number into a symbol's power builds that number's power
# exactly
_MAX_TERMS = 1_000_000
_MAX_DEGREE = 10_000

# the most terms, and the highest gcd degree, that one step may give a
# polynomial gcd: off the Laurent route sympy's FracField cancels every
# product, quotient and sum by a gcd, which the bounds above do not count;
# 1/(a+1)**99 + 1/(b+1)**99 (10**4 terms, degree 99) takes about 2 s, and
# 1/(a+1)**30 + 1/(b+1)**30 + 1/(w+1)**30 (29791 terms) about 11 s
_MAX_GCD_TERMS = 4096
_MAX_GCD_DEGREE = 64


def _degree(x: Scalar) -> int:
    """The highest total degree in x's numerator and denominator."""
    if x._ground_value is not None:
        return 0
    return max(sum(m) for p in (x._elem.numer, x._elem.denom) for m in p)


def _sizes(x: Scalar) -> tuple:
    """The numbers of terms in x's numerator and denominator."""
    c = x._ground_value
    if c is not None:
        return (1 if c else 0), 1
    return len(x._elem.numer), len(x._elem.denom)


def _bounds(op, x: Scalar, y) -> tuple:
    """Upper bounds on the terms of op(x, y)'s numerator and denominator and
    on its total degree; op is pow (y an int exponent) or one of + - * /.

    Multiplying a t-term by a u-term polynomial makes at most t*u terms, and
    p**j has at most C(j + t - 1, t - 1); a power counts as the product of
    its two halves.  A sum is bounded in terms only: it adds degrees just in
    the denominators.
    """
    nx, dx = _sizes(x)
    if op is pow:
        t, e = max(nx, dx), abs(y)
        power = lambda j: math.comb(j + t - 1, t - 1)
        return power((e + 1) // 2) * power(e // 2), e * _degree(x)
    ny, dy = _sizes(y)
    if op is mul:
        return max(nx * ny, dx * dy), _degree(x) + _degree(y)
    if op is truediv:
        return max(nx * dy, dx * ny), _degree(x) + _degree(y)
    return max(nx * dy + ny * dx, dx * dy), 0


def _gcd_degree(op, x: Scalar, y: Scalar) -> int:
    """An upper bound on the degree of the gcd that cancels op(x, y), for op
    one of + - * /; 0 on the ground route, 0 on the Laurent route, where
    both denominators (after x / y is taken as x times y.denom / y.numer) are
    monomials, and 0 when either operand is a constant, which ``Scalar``
    adds, scales or inverts without a gcd.

    The bound is the lower of those on the degrees of the numerator and the
    denominator sympy cancels.
    """
    if x._ground_value is not None or y._ground_value is not None:
        return 0
    xn, xd, yn, yd = x._elem.numer, x._elem.denom, y._elem.numer, y._elem.denom
    if op is truediv:
        yn, yd = yd, yn
    if _monomial(xd) is not None and _monomial(yd) is not None:
        return 0
    deg = lambda p: max((sum(m) for m in p), default=0)
    if op is mul or op is truediv:
        num = deg(xn) + deg(yn)
    else:
        num = max(deg(xn) + deg(yd), deg(xd) + deg(yn))
    return min(num, deg(xd) + deg(yd))


def _read(table: SymbolTable, text: str) -> Scalar:
    """Read the grammar ``text()`` writes with Scalar arithmetic.

    Python's own parser builds the tree, so precedence is Python's (``-a**2``
    is ``-(a**2)``).  The walk evaluates ``+ - * /``, unary signs, decimal
    integer literals, declared symbols and ``I`` on Gaussian tables; an
    exponent must be a signed integer literal, within ``_MAX_EXPONENT`` of 0
    unless its base is a lone symbol, checked before the base is read.  Each
    step that combines two values or takes a power is refused before it runs
    if ``_bounds`` lets its result pass ``_MAX_TERMS`` terms or degree
    ``_MAX_DEGREE``, or if it leaves the Laurent route for a gcd that may
    pass ``_MAX_GCD_TERMS`` terms or degree ``_MAX_GCD_DEGREE``
    (``_gcd_degree``).
    Chains of operators and signs are walked in a loop, so any sum Python
    parses is read.  Other text, an undeclared symbol and a zero divisor
    raise a one-line ScalarError.
    """
    source = text.lstrip(" ")  # Python rejects an indented expression
    segment = lambda node: source[node.col_offset : node.end_col_offset]  # text is one line
    refuse = lambda why: ScalarError(f"cannot parse scalar text {text!r}: {why}")

    def unsigned(node) -> tuple:  # the operand under a run of signs, and its sign
        negate = False
        while isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            negate ^= isinstance(node.op, ast.USub)
            node = node.operand
        return node, negate

    def integer(node) -> int:
        literal, negate = unsigned(node)
        # only a decimal literal reads back as its value; 0x10, 1_0, 00, True do not
        value = getattr(literal, "value", None)
        if type(value) is not int or segment(literal) != str(value):
            raise refuse(f"{segment(node)!r} is not a decimal integer")
        return -value if negate else value

    def step(node, op, x: Scalar, y) -> Scalar:  # op(x, y) within the size bounds
        terms, degree = _bounds(op, x, y)
        if terms > _MAX_TERMS:
            raise refuse(
                f"{segment(node)!r} may have up to {terms} terms, more than {_MAX_TERMS}"
            )
        if degree > _MAX_DEGREE:
            raise refuse(
                f"{segment(node)!r} may have degree up to {degree}, more than {_MAX_DEGREE}"
            )
        gcd = 0 if op is pow else _gcd_degree(op, x, y)
        if gcd and terms > _MAX_GCD_TERMS:
            raise refuse(
                f"{segment(node)!r} needs a polynomial gcd on up to {terms} terms, "
                f"more than {_MAX_GCD_TERMS}"
            )
        if gcd > _MAX_GCD_DEGREE:
            raise refuse(
                f"{segment(node)!r} needs a polynomial gcd of degree up to {gcd}, "
                f"more than {_MAX_GCD_DEGREE}"
            )
        return op(x, y)

    def scalar(node) -> Scalar:
        node, negate = unsigned(node)
        rights = []  # a + b - c and a * b / c nest to the left
        while isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
            rights.append((_BINARY[type(node.op)], node))
            node = node.left
        if rights:
            value = scalar(node)
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            exponent = integer(node.right)
            # a symbol's power is one monomial; any other base is multiplied out
            if abs(exponent) > _MAX_EXPONENT and not isinstance(node.left, ast.Name):
                raise refuse(
                    f"exponent {exponent} of a base other than a symbol "
                    f"is outside -{_MAX_EXPONENT}..{_MAX_EXPONENT}"
                )
            value = step(node, pow, scalar(node.left), exponent)
        elif isinstance(node, ast.Name):
            value = table.i if node.id == "I" else table.sym(node.id)
        elif isinstance(node, ast.Constant):
            value = table.scalar(integer(node))
        else:
            raise refuse(f"{segment(node)!r} is outside the grammar")
        for op, binop in reversed(rights):
            value = step(binop, op, value, scalar(binop.right))
        return -value if negate else value

    if not (source.isascii() and source.isprintable()):  # no NFKC folding, one line
        raise refuse("it is not printable ASCII")
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise refuse(exc.msg) from None
    except (RecursionError, MemoryError):
        raise refuse("it nests too deeply for Python's parser") from None
    return scalar(tree.body)


# -- substitution ----------------------------------------------------------


def _eval_poly(table: SymbolTable, poly, values: Sequence[Scalar]) -> Scalar:
    """Evaluate a PolyElement at Scalar values for every generator."""
    total = table.zero
    for monom, coeff in poly.terms():
        term = table._ground(coeff)
        for v, e in zip(values, monom):
            if e:
                term = term * v**e
        total = total + term
    return total


def _ground_point(values: Sequence[Scalar]) -> Optional[list]:
    """The ground-domain values of constant Scalars, or None if one is not."""
    point = []
    for v in values:
        c = v._ground_value
        if c is None:
            return None
        point.append(c)
    return point


def _eval_ground(table: SymbolTable, poly, point: Sequence):
    """Evaluate a PolyElement at ground-domain values for every generator."""
    total = table._domain.zero
    for monom, coeff in poly.items():
        for v, e in zip(point, monom):
            if e:
                coeff = coeff * v**e
        total = total + coeff
    return total


def substitute(s: Scalar, bindings: Mapping[str, ScalarLike]) -> Scalar:
    """Replace symbols by Scalars and re-canonicalize.

    Bindings may be partial; unbound symbols stay symbolic.  Raises
    ZeroDenominatorError when the substitution kills the denominator.
    """
    table = s.table
    for name in bindings:
        if name not in table._sympy_syms:
            raise UndeclaredSymbolError(f"binding for undeclared symbol {name!r}")
    values = []
    for name in table.symbols:
        if name in bindings:
            values.append(table.scalar(bindings[name]))
        else:
            values.append(table.sym(name))
    point = _ground_point(values)
    if point is None:
        num = _eval_poly(table, s.elem.numer, values)
        den = _eval_poly(table, s.elem.denom, values)
    elif s._ground_value is not None:
        return s
    else:
        num = _eval_ground(table, s.elem.numer, point)
        den = _eval_ground(table, s.elem.denom, point)
    if not den:
        raise ZeroDenominatorError(
            f"substitution {dict(bindings)!r} makes the denominator of {s.text()} vanish"
        )
    return num / den if point is None else table._ground(num / den)


# -- Laurent structure -----------------------------------------------------


@dataclass(frozen=True)
class LaurentView:
    """A scalar written as a finite Laurent sum over a subset of symbols.

    ``terms`` maps exponent vectors (over `symbols`, entries possibly
    negative) to nonzero Scalar coefficients free of those symbols.
    """

    symbols: tuple
    terms: Mapping[tuple, Scalar]

    def total_degrees(self) -> set:
        return {sum(e) for e in self.terms}


def _split_monomial(monom: tuple, idx: Sequence[int]) -> tuple:
    return tuple(monom[k] for k in idx)


def laurent_view(s: Scalar, symbols: Optional[Iterable[str]] = None) -> LaurentView:
    """View ``s`` as a Laurent polynomial in ``symbols`` (default: all).

    Requires the denominator to be a monomial in the chosen symbols (times a
    factor free of them); otherwise raises NotLaurentError.
    """
    table = s.table
    names = tuple(symbols) if symbols is not None else table.symbols
    for name in names:
        if name not in table._sympy_syms:
            raise UndeclaredSymbolError(f"unknown symbol {name!r}")
    idx = [table.symbols.index(name) for name in names]
    others = [k for k in range(len(table.symbols)) if k not in idx]

    den = s.elem.denom
    den_exps = {_split_monomial(m, idx) for m in den.monoms()}
    if len(den_exps) > 1:
        raise NotLaurentError(
            f"{s.text()} is not Laurent in {names}: denominator mixes their exponents"
        )
    den_exp = den_exps.pop() if den_exps else tuple(0 for _ in idx)

    field = table._field
    ring = s.elem.numer.ring
    groups: dict = {}
    for monom, coeff in s.elem.numer.terms():
        key = tuple(a - b for a, b in zip(_split_monomial(monom, idx), den_exp))
        rest = [0] * len(table.symbols)
        for k in others:
            rest[k] = monom[k]
        part = field(ring.from_dict({tuple(rest): coeff}))
        groups[key] = groups.get(key, field.zero) + part

    den_rest = {
        tuple(0 if k in idx else m[k] for k in range(len(table.symbols))): c
        for m, c in den.terms()
    }
    den_other = field(ring.from_dict(den_rest))

    terms = {}
    for key, num_part in groups.items():
        coeff = Scalar(table, num_part / den_other)
        if not coeff.is_zero:
            terms[key] = coeff
    return LaurentView(names, terms)


def laurent_homogeneous_degree(
    s: Scalar, symbols: Optional[Iterable[str]] = None
) -> Optional[int]:
    """Common total degree of all Laurent terms in ``symbols``, or None if mixed.

    Raises NotLaurentError when ``s`` is not Laurent in the symbols.  The zero
    scalar has no distinguished degree and returns None.
    """
    view = laurent_view(s, symbols)
    degrees = view.total_degrees()
    if len(degrees) == 1:
        return degrees.pop()
    return None


# -- exact square roots ----------------------------------------------------


def perfect_sqrt(s: Scalar) -> Optional[Scalar]:
    """An exact square root of ``s`` inside the scalar field, or None.

    Used by the matrix-algebra builders, whose automorphism entries are square
    roots of ratios of the stored squared parameters.

    A Laurent monomial c x**e with c rational, every exponent even and |c| a
    square rational takes its root without sympy: sqrt(|c|) x**(e/2), times
    ``I`` when c < 0 on a Gaussian table.  That is the root the factoring
    route below returns.  Any other scalar takes that route.
    """
    if s.is_zero:
        return s
    root = _monomial_sqrt(s)
    if root is None:
        root = _sympy_sqrt(s)
    return root if root is not None and root * root == s else None


def _monomial_sqrt(s: Scalar) -> Optional[Scalar]:
    """The root of a Laurent monomial with a square rational coefficient, or
    None when ``s`` is not one (``perfect_sqrt`` then factors it)."""
    table = s.table
    c = s._ground_value
    if c is not None:
        root = _ground_sqrt(table, c)
        return None if root is None else table._ground(root)
    num, den = s._elem.numer, s._elem.denom
    if len(num) != 1 or len(den) != 1:
        return None
    ((num_exp, c),) = num.items()
    (den_exp,) = den  # canonical denominators are monic
    if any(e % 2 for e in num_exp + den_exp):
        return None
    root = _ground_sqrt(table, c)
    if root is None:
        return None
    half = lambda exp: tuple(e // 2 for e in exp)
    return _laurent(table, num.new([(half(num_exp), root)]), half(den_exp))


def _ground_sqrt(table: SymbolTable, c):
    """sqrt(|c|), times ``I`` when c < 0 on a Gaussian table, for a nonzero
    ground element c that is a rational with square numerator and
    denominator; else None."""
    if table.gaussian:
        if c.y:
            return None
        c = c.x
    p, q = abs(c.numerator), c.denominator
    rp, rq = math.isqrt(p), math.isqrt(q)
    if rp * rp != p or rq * rq != q:
        return None
    if c < 0:
        if not table.gaussian:
            return None
        return table._domain(0, QQ(rp, rq))
    return table._domain.convert(QQ(rp, rq))


def _sympy_sqrt(s: Scalar) -> Optional[Scalar]:
    """A square root of ``s`` from sympy's factorization of its numerator and
    denominator, or None when a factor has an odd power or the root leaves
    the field; the caller checks that it squares to ``s``."""

    def half(expr: sympy.Expr) -> Optional[sympy.Expr]:
        const, factors = sympy.factor_list(expr)
        pieces = [sympy.sqrt(const)]
        for f, e in factors:
            if e % 2:
                return None
            pieces.append(f ** (e // 2))
        return sympy.Mul(*pieces)

    num, den = sympy.together(s.as_expr()).as_numer_denom()
    num_root, den_root = half(num), half(den)
    if num_root is None or den_root is None:
        return None
    try:
        return s.table.from_expr(num_root / den_root)
    except ScalarError:
        return None
