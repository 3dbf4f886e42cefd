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

Products and sums of Laurent scalars -- both denominators single monomials,
which covers constants and every table without symbols -- reach that same
canonical form without a gcd: the result's denominator is again a monomial,
and the only common factor left to cancel is the power of each symbol that
divides the whole numerator.  Division, inverse and negative powers take the
same Laurent route when the dividend's denominator and the divisor's
numerator are single monomials.  Any other operand pair goes through sympy's
``FracField`` arithmetic, which cancels by a polynomial gcd.

A product with the unit costs nothing: when either factor's element is the
field's own ``one`` (the element ``SymbolTable.one`` and every constant 1
hold), the product is the other factor, unchanged.  This is an identity test,
so it is exact; a 1 reached by arithmetic is a different object and takes the
ordinary route to the same canonical value.  Equal tables share one
``FracField``, so the rule and every other operation hold across tables built
separately from the same symbols and domain.

Substitution of constants for every symbol evaluates numerator and
denominator in the ground domain (Q or Q(i)) and divides once.  Parsing lets
Python's ``ast`` parser read the text and evaluates the tree of the grammar
``text()`` writes (decimal integers, declared symbols, ``I``, ``+ - * /``,
integer powers) with Scalar arithmetic; any other text goes to sympy's
``parse_expr``.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass
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
        if len(set(symbols)) != len(symbols):
            raise ScalarError(f"duplicate symbols in {symbols!r}")
        for name in symbols:
            if not name.isidentifier():
                raise ScalarError(f"symbol name {name!r} is not an identifier")
            if name == "I":
                raise ScalarError("'I' is reserved for the imaginary unit")
        self.symbols = symbols
        self.gaussian = bool(gaussian)
        self._domain = QQ_I if gaussian else QQ
        key = (symbols, self.gaussian)
        field = _FIELDS.get(key)
        if field is None:
            field = _FIELDS[key] = FracField(symbols, self._domain)
        self._field = field
        self._sympy_syms = {name: sympy.Symbol(name) for name in symbols}
        self._gens = dict(zip(symbols, self._field.gens))

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

    # -- constructors ------------------------------------------------------

    @property
    def zero(self) -> "Scalar":
        return Scalar(self, self._field.zero)

    @property
    def one(self) -> "Scalar":
        return Scalar(self, self._field.one)

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
            raise ScalarError("table was not built over the Gaussian rationals")
        return self._ground(QQ_I(0, 1))

    def scalar(self, value: ScalarLike) -> "Scalar":
        """Coerce an int, Fraction-like or Scalar into this table's field."""
        if isinstance(value, Scalar):
            if value.table != self:
                raise ScalarError("scalar belongs to a different symbol table")
            return value
        try:
            c = self._domain.convert(value)
        except Exception as exc:
            raise ScalarError(f"cannot coerce {value!r} into {self!r}") from exc
        return self._ground(c)

    def _ground(self, c) -> "Scalar":
        """The constant Scalar of a ground-domain element.

        ``FracField.ground_new`` would cancel c / 1 through a gcd; a constant
        over 1 is already reduced with a monic denominator, and shares the
        denominator of the field's ``one`` (``ring.one`` is a fresh copy on
        every read).  The constant 1 is the field's ``one`` itself, so
        products by it take the unit rule.
        """
        field = self._field
        if c == self._domain.one:
            return Scalar(self, field.one)
        return Scalar(self, field.raw_new(field.ring.ground_new(c), field.one.denom))

    def rational(self, p: int, q: int = 1) -> "Scalar":
        if q == 0:
            raise ZeroDenominatorError("rational with zero denominator")
        return self.scalar(p) / self.scalar(q)

    def parse(self, text: str) -> "Scalar":
        """Parse canonical scalar text (the serialization format) back to a Scalar."""
        if not isinstance(text, str):
            raise ScalarError(f"cannot parse scalar text {text!r}: it is not a string")
        value = _read(self, text)
        if value is not None:
            return value
        local = dict(self._sympy_syms)
        try:
            expr = sympy.parse_expr(text, local_dict=local, evaluate=True)
        except Exception as exc:
            raise ScalarError(f"cannot parse scalar text {text!r}: {exc}") from exc
        # True, None and [1] read as Python values; sympy objects that are
        # not expressions (a < 1) are rejected by from_expr
        if not isinstance(expr, sympy.Basic):
            raise ScalarError(
                f"cannot parse scalar text {text!r}: "
                f"it reads as a {type(expr).__name__}, not an expression"
            )
        return self.from_expr(expr)

    def from_expr(self, expr: sympy.Expr) -> "Scalar":
        """Convert a sympy expression built from +,-,*,/,** over ints and symbols."""
        free = expr.free_symbols - set(self._sympy_syms.values()) - {sympy.I}
        if free:
            raise UndeclaredSymbolError(
                f"undeclared symbols {sorted(map(str, free))} in expression {expr}"
            )
        if expr.has(sympy.I) and not self.gaussian:
            raise ScalarError("imaginary unit requires a Gaussian symbol table")
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


@dataclass(frozen=True, slots=True)
class Scalar:
    """An exact rational function; immutable, canonical, hashable."""

    table: SymbolTable
    elem: object  # sympy FracElement

    # -- basic protocol ----------------------------------------------------

    def __post_init__(self):
        if self.elem.field is not self.table._field:
            raise ScalarError("element does not belong to the table's field")
        # sympy reduces the fraction but (over the Gaussian rationals) does
        # not fix the denominator's unit; canonical form here is a monic
        # denominator
        den = self.elem.denom
        lc = den.LC
        if lc != self.table._domain.one:
            field = self.table._field
            num = self.elem.numer.quo_ground(lc)
            object.__setattr__(self, "elem", field.raw_new(num, den.quo_ground(lc)))

    def _coerce(self, other: ScalarLike) -> "Scalar":
        if isinstance(other, Scalar):
            if other.table is not self.table and other.table != self.table:
                raise ScalarError("scalars from different symbol tables")
            return other
        return self.table.scalar(other)

    def _sum(self, x, y, op) -> "Scalar":
        """``op(x, y)`` for FracElements x, y and op one of add, sub."""
        ex, ey = _monomial(x.denom), _monomial(y.denom)
        if ex is None or ey is None:
            return Scalar(self.table, op(x, y))
        if ex == ey:
            return _laurent(self.table, op(x.numer, y.numer), ex)
        e = tuple(map(max, ex, ey))
        num = op(
            x.numer.mul_monom(tuple(map(sub, e, ex))),
            y.numer.mul_monom(tuple(map(sub, e, ey))),
        )
        return _laurent(self.table, num, e)

    def __add__(self, other: ScalarLike) -> "Scalar":
        return self._sum(self.elem, self._coerce(other).elem, add)

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> "Scalar":
        return self._sum(self.elem, self._coerce(other).elem, sub)

    def __rsub__(self, other: ScalarLike) -> "Scalar":
        return self._sum(self._coerce(other).elem, self.elem, sub)

    def __mul__(self, other: ScalarLike) -> "Scalar":
        other = self._coerce(other)
        x, y = self.elem, other.elem
        one = self.table._field.one
        if x is one:
            return other
        if y is one:
            return self
        ex, ey = _monomial(x.denom), _monomial(y.denom)
        if ex is None or ey is None:
            return Scalar(self.table, x * y)
        return _laurent(self.table, x.numer * y.numer, tuple(map(add, ex, ey)))

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "Scalar":
        x, y = self.elem, self._coerce(other).elem
        if not y:
            raise ZeroDenominatorError("division by the zero scalar")
        q = _laurent_quotient(self.table, x, y)
        return Scalar(self.table, x / y) if q is None else q

    def __rtruediv__(self, other: ScalarLike) -> "Scalar":
        return self._coerce(other) / self

    def __pow__(self, exponent: int) -> "Scalar":
        if not isinstance(exponent, int):
            raise ScalarError("only integer powers are supported")
        if exponent < 0:
            if not self.elem:
                raise ZeroDenominatorError("negative power of the zero scalar")
            return self._inverse() ** -exponent
        return Scalar(self.table, self.elem ** exponent)

    def __neg__(self) -> "Scalar":
        return Scalar(self.table, -self.elem)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = self.table.scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.table == other.table and self.elem == other.elem

    def __hash__(self) -> int:
        # not hash(self.elem): sympy caches a polynomial's hash, and
        # PolyElement.square caches it before it has added every term
        num, den = self.elem.numer, self.elem.denom
        return hash((frozenset(num.items()), frozenset(den.items())))

    def __bool__(self) -> bool:
        return bool(self.elem)

    def __repr__(self) -> str:
        return f"Scalar({self.text()})"

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.elem

    @property
    def is_one(self) -> bool:
        return self.elem == self.table._field.one

    def inv(self) -> "Scalar":
        if not self.elem:
            raise ZeroDenominatorError("inverse of the zero scalar")
        return self._inverse()

    def _inverse(self) -> "Scalar":
        """1 / self for a nonzero scalar; swapping a reduced fraction needs
        no gcd, and a monomial numerator takes the Laurent rule."""
        q = _laurent_quotient(self.table, self.table._field.one, self.elem)
        return Scalar(self.table, self.elem ** -1) if q is None else q

    def as_expr(self) -> sympy.Expr:
        return self.elem.as_expr()

    def text(self) -> str:
        """Canonical `num / den` text with a fixed (lex) monomial order."""
        return _PRINTER.doprint(self.elem.as_expr())


def _monomial(den) -> Optional[tuple]:
    """The exponent vector of a monomial denominator, else None.

    Canonical denominators are monic, so a one-term denominator is exactly
    x**exponent.
    """
    if len(den) == 1:
        (monom,) = den
        return monom
    return None


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
    # a zero exponent shares the denominator of the field's one
    den = field.ring.dtype([(exp, table._domain.one)]) if any(exp) else field.one.denom
    return Scalar(table, field.raw_new(num, den))


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


def _read(table: SymbolTable, text: str) -> Optional[Scalar]:
    """Read the grammar ``text()`` writes with Scalar arithmetic, or None.

    Python's own parser builds the tree, so precedence is Python's (``-a**2``
    is ``-(a**2)``).  The walk evaluates ``+ - * /``, unary signs, decimal
    integer literals, declared symbols and ``I`` on Gaussian tables; an
    exponent must be a signed integer literal.  Any other node, non-ASCII
    text (Python normalizes non-ASCII names, ``parse_expr`` does not), and
    any error (a zero divisor included) give None, leaving the text to
    ``parse_expr``.
    """

    def integer(node) -> int:
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            n = integer(node.operand)
            return n if isinstance(node.op, ast.UAdd) else -n
        # a decimal literal without leading zeros or underscores reads back
        # as its own value; 0x10, 1_0, 00 and True do not
        value = getattr(node, "value", None)
        if type(value) is not int or node.lineno != 1 or (
            source[node.col_offset : node.end_col_offset] != str(value)
        ):
            raise ValueError(text)
        return value

    def scalar(node) -> Scalar:
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Pow):
                return scalar(node.left) ** integer(node.right)
            return _BINARY[type(node.op)](scalar(node.left), scalar(node.right))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            value = scalar(node.operand)
            return value if isinstance(node.op, ast.UAdd) else -value
        if isinstance(node, ast.Name):
            if node.id == "I" and table.gaussian:
                return table.i
            return table.sym(node.id)
        return table.scalar(integer(node))

    source = text.lstrip(" ")  # Python rejects an indented expression
    if not source.isascii():
        return None
    try:
        return scalar(ast.parse(source, mode="eval").body)
    except Exception:
        return None


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
        num, den = v.elem.numer, v.elem.denom
        if not (num.is_ground and den.is_ground):
            return None
        # canonical constants have denominator 1
        point.append(num.LC)
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
    num, den = s.elem.numer, s.elem.denom
    if len(num) != 1 or len(den) != 1:
        return None
    ((num_exp, c),) = num.items()
    (den_exp,) = den  # canonical denominators are monic
    if any(e % 2 for e in num_exp + den_exp):
        return None
    table = s.table
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
        coeff = table._domain(0, QQ(rp, rq))
    else:
        coeff = table._domain.convert(QQ(rp, rq))
    half = lambda exp: tuple(e // 2 for e in exp)
    return _laurent(table, num.new([(half(num_exp), coeff)]), half(den_exp))


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
