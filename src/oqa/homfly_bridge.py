"""Independent skein-recursion polynomials and the trace-formula bridge.

This module computes the two-variable regular-isotopy polynomial H_L(alpha, z)
(skein H(L+) - H(L-) = z H(L0), positive/negative kinks scale by alpha^{+-1},
unknot value 1, distant unions scale by (alpha - alpha^-1)/z) directly on
Morse diagrams, by switching crossings toward descending diagrams.  Each
skein node is walked once, by the walker ``traverse`` is built on, for its
crossing lines alone; the node's word is then switched in place, one slice
at a time, and only the smoothings L0 are new nodes, kept on an explicit
stack rather than in Python recursion, so that no recursion limit bounds the
depth.  Every node is reduced before it is looked up: inside each run of
consecutive crossing slices, crossings on disjoint strand pairs are put in
position order and opposite crossings that meet cancel (M2).  Both are
regular isotopies, so H is unchanged, and smoothings reached along
different paths share one memo entry.  The one-variable Alexander
polynomial nabla_L(z) (same skein, unknot 1, split links 0) is H_L(1, z).
Nothing here touches the state-sum evaluator, so the two provide
independent routes to the same invariants.

For a single-block diagonal structure on M_n with parameters a (= rho_1111)
and bc = sbc^2, writing q = a/sbc and r = q^2, the closed-link trace formula
F = prod_c tr(G^{d_c} w(L_c)) is identified with these polynomials:

  * generic branch (Tr G != 0):
      F(L) = a^writhe * kappa * q^-writhe * rho_norm^-Wd
             * H_L(q^e, q - q^-1),
    where e counts indices with a_i = a minus the rest, rho_norm = q^{1-e},
    kappa = rho_norm Tr(G) = rho_norm^-1 Tr(G^-1), Wd = total Whitney degree;
  * degenerate branch (Tr G = 0):
      the classical identification F(L) = a^writhe q^-writhe
      nabla_L(q - q^-1) is checked literally and fails: the trace formula
      vanishes identically on closed diagrams, the unknot included.

Cutting a strand open keeps the information the closed trace loses
(Kauffman-Saleur: the quantum dimension vanishes, so cut).  For T the
cut-open tangle of L (``cut_open``), identify_open checks the element

      w(T) = a^writhe q^-writhe q^((e-1) Wd(T)) H_L(q^e, q - q^-1) G^-d0

of the algebra, with Wd(T) the total Whitney degree of T (open strand
included) and d0 the open strand's own degree.  It holds on both branches;
at e = 0, H_L(1, z) = nabla_L(z) and it identifies the Alexander polynomial.

The positive Morse crossing is calibrated as the skein-positive crossing L+;
``CROSS_POS_IS_SKEIN_POSITIVE`` freezes that convention and the triple check
certifies it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .algebra import AlgebraElement
# traverse is not called here; perfbench/spans.py traces the name in this module
from .diagram import (
    _SWITCH,
    _X_POS,
    DiagramError,
    MorseDiagram,
    Slice,
    _tensorand,
    _walks,
    crossing_triple,
    cut_open,
    stats,
    traverse,
)
from .invariant import evaluate_link, evaluate_tangle
from .scalar import Scalar, SymbolTable, perfect_sqrt
# classify_thm5 is not called here; perfbench/spans.py traces the name in this module
from .structures import (
    MnStructureParams,
    OrientedQuantumAlgebraStructure,
    StructureError,
    build_thm5,
    classify_thm5,
)

__all__ = [
    "SkeinPolynomial",
    "homfly",
    "conway",
    "SectionSixContext",
    "section6_context",
    "curl_family_values",
    "IdentifyReport",
    "identify_F",
    "identify_open",
    "skein_triple_check",
    "CROSS_POS_IS_SKEIN_POSITIVE",
]

# the xp slice plays L+ in every skein relation of this package; certified by
# the skein_triple_check tests
CROSS_POS_IS_SKEIN_POSITIVE = True


@dataclass(frozen=True)
class SkeinPolynomial:
    """Laurent polynomial in (alpha, z) with integer coefficients."""

    terms: Mapping[Tuple[int, int], int]

    def __post_init__(self):
        object.__setattr__(
            self, "terms", {k: c for k, c in self.terms.items() if c}
        )

    @staticmethod
    def zero() -> "SkeinPolynomial":
        return SkeinPolynomial({})

    @staticmethod
    def one() -> "SkeinPolynomial":
        return SkeinPolynomial({(0, 0): 1})

    @staticmethod
    def monomial(ea: int, ez: int, c: int = 1) -> "SkeinPolynomial":
        return SkeinPolynomial({(ea, ez): c})

    def __add__(self, other: "SkeinPolynomial") -> "SkeinPolynomial":
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return SkeinPolynomial(out)

    def __sub__(self, other: "SkeinPolynomial") -> "SkeinPolynomial":
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) - c
        return SkeinPolynomial(out)

    def __mul__(self, other: "SkeinPolynomial") -> "SkeinPolynomial":
        out: Dict[Tuple[int, int], int] = {}
        for (a1, z1), c1 in self.terms.items():
            for (a2, z2), c2 in other.terms.items():
                k = (a1 + a2, z1 + z2)
                out[k] = out.get(k, 0) + c1 * c2
        return SkeinPolynomial(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SkeinPolynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def text(self) -> str:
        """Canonical text, e.g. ``z^2 + 1`` or ``a^2 - a*z^-1``."""
        if not self.terms:
            return "0"

        def mono(ea: int, ez: int) -> str:
            parts = []
            if ea:
                parts.append("a" if ea == 1 else f"a^{ea}")
            if ez:
                parts.append("z" if ez == 1 else f"z^{ez}")
            return "*".join(parts)

        pieces = []
        for (ea, ez) in sorted(self.terms, reverse=True):
            c = self.terms[(ea, ez)]
            m = mono(ea, ez)
            body = f"{abs(c)}" if not m else (m if abs(c) == 1 else f"{abs(c)}*{m}")
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(("+ " if c > 0 else "- ") + body)
        return " ".join(pieces)

    def eval_at(self, table: SymbolTable, alpha: Scalar, z: Scalar) -> Scalar:
        total = table.zero
        for (ea, ez), c in self.terms.items():
            total = total + table.scalar(c) * alpha**ea * z**ez
        return total


def _descending_value(
    word: Sequence[Slice], lines: Sequence[Sequence[Tuple[int, int]]]
) -> SkeinPolynomial:
    """Value of a descending diagram: layered curled unlinks.

    ``lines`` holds each component's crossing lines in walk order, and
    ``word`` the crossings' signs.  Each component is a curled unknot, alpha
    to its self-writhe; pulling the r components apart (inter-component
    crossings change nothing) scales by delta^(r - 1),
    delta = (alpha - alpha^-1)/z.
    """
    r = len(lines)
    if r == 0:
        return SkeinPolynomial.one()
    self_writhe = 0
    for comp in lines:
        met = set()
        for crossing, _ in comp:
            if crossing in met:
                self_writhe += 1 if word[crossing].kind is _X_POS else -1
            else:
                met.add(crossing)
    # delta^(r-1) = sum_k C(r-1, k) (-1)^k alpha^(r-1-2k) z^(1-r)
    return SkeinPolynomial(
        {
            (self_writhe + r - 1 - 2 * k, 1 - r): (-1) ** k * comb(r - 1, k)
            for k in range(r)
        }
    )


def _reduced(d: MorseDiagram) -> MorseDiagram:
    """``d`` with each run of consecutive crossing slices reduced.

    A crossing sinks below the crossings two or more positions above it
    (disjoint strand pairs: a height exchange), and cancels with an opposite
    crossing at its own position that it meets (M2, M2rev).  Cups and caps
    end runs and keep their places.  A word already reduced comes back as
    itself.
    """
    out: List[Slice] = []
    changed = False
    for s in d.slices:
        kind, pos = s
        k = len(out)
        if kind.is_crossing:
            while k and out[k - 1].kind.is_crossing and out[k - 1].pos >= pos + 2:
                k -= 1
            if k and out[k - 1].pos == pos and out[k - 1].kind is _SWITCH[kind]:
                del out[k - 1]
                changed = True
                continue
            changed = changed or k < len(out)
        out.insert(k, s)
    return d.with_slices(out) if changed else d


class _Node:
    """A memo miss of ``_skein``: its word as a slice list, switched in place
    so far, its boundary, each component's crossing lines ``(crossing,
    tensorand)`` in walk order, the crossings left to switch (last first),
    and its terms gathered so far."""

    __slots__ = ("key", "word", "boundary", "lines", "todo", "terms", "sign")

    def __init__(self, d: MorseDiagram, key: Tuple) -> None:
        self.key = key
        slices = d.slices
        self.word = list(slices)
        self.boundary = d.boundary
        self.lines = [
            [
                (ev[1], _tensorand(slices[ev[1]].kind, ev[2]))
                for ev in events
                if ev[0] == "line"
            ]
            for _, _, events in _walks(d)
        ]
        # crossings first met on their under line, in the order met
        seen: set = set()
        todo = []
        for comp in self.lines:
            for crossing, tensorand in comp:
                if crossing not in seen:
                    seen.add(crossing)
                    if tensorand == 1:
                        todo.append(crossing)
        todo.reverse()
        self.todo = todo
        self.terms: Dict[Tuple[int, int], int] = {}
        self.sign = 0  # +-1 for the smoothing being evaluated


def _skein(d: MorseDiagram, memo: Dict) -> SkeinPolynomial:
    """H(d) by switching d toward its descending diagram.

    ``d`` is first reduced (``_reduced``) by regular isotopies, which leave H
    unchanged; smoothings reached along different switching paths then often
    share one reduced word and one memo entry.

    Scanning components in order, every crossing first met on its under line
    (tensorand 1: the first tensor factor rides the over strand) is switched
    in the order met, and each switch adds +-z H(L0) for the smoothing of the
    word switched so far.  Switching a crossing changes neither the strand
    connectivity nor which line of another crossing is met first, so the
    one walk of ``d`` (``_walks``) serves every switched word and the
    descending leaf: each memo miss is walked once.  A switch replaces one
    slot of the node's slice list; the smoothing is that list less one
    slice, reduced and looked up as a new node.

    The smoothings are evaluated on an explicit stack of nodes rather than by
    Python recursion, so the depth (one node per smoothing) meets no
    recursion limit.  A node gathers its terms in one dict, where the factor
    z shifts the z exponent, and becomes one SkeinPolynomial at the end.
    """
    d = _reduced(d)
    key = d.key()
    value = memo.get(key)
    if value is not None:
        return value
    stack = [_Node(d, key)]
    while stack:
        node = stack[-1]
        if value is not None:
            # the smoothing node.sign * z H(L0) of the last switch
            terms = node.terms
            for (ea, ez), c in value.terms.items():
                k = (ea, ez + 1)
                terms[k] = terms.get(k, 0) + node.sign * c
            value = None
        if node.todo:
            index = node.todo.pop()
            word = node.word
            kind, pos = word[index]
            # H(L+) = H(L-) + z H(L0), and H(L-) = H(L+) - z H(L0)
            node.sign = 1 if kind is _X_POS else -1
            smoothed = word.copy()
            del smoothed[index]
            word[index] = Slice(_SWITCH[kind], pos)
            l_zero = _reduced(MorseDiagram(smoothed, node.boundary))
            zero_key = l_zero.key()
            value = memo.get(zero_key)
            if value is None:
                stack.append(_Node(l_zero, zero_key))
            continue
        terms = node.terms
        for k, c in _descending_value(node.word, node.lines).terms.items():
            terms[k] = terms.get(k, 0) + c
        value = memo[node.key] = SkeinPolynomial(terms)
        stack.pop()
    return value


def homfly(d: MorseDiagram) -> SkeinPolynomial:
    """Regular-isotopy two-variable polynomial of a closed diagram."""
    if d.boundary != "closed":
        raise DiagramError("homfly needs a closed diagram")
    return _skein(d, memo={})


def conway(d: MorseDiagram) -> SkeinPolynomial:
    """Alexander polynomial in z of a closed diagram (unknot 1, splits 0).

    This is H_L(1, z): at alpha = 1 the distant-union factor
    (alpha - alpha^-1)/z is 0 and every kink weighs 1.
    """
    if d.boundary != "closed":
        raise DiagramError("conway needs a closed diagram")
    terms: Dict[Tuple[int, int], int] = {}
    for (_, ez), c in _skein(d, memo={}).terms.items():
        terms[(0, ez)] = terms.get((0, ez), 0) + c
    return SkeinPolynomial(terms)


# -- the single-block context -------------------------------------------------


@dataclass(frozen=True)
class SectionSixContext:
    """Closed-form data of a single-block structure, normalized to omega_1^2 = 1.

    ``e`` is eta_plus(0:n) - eta_minus(0:n); the generic-branch constants
    rho_norm = q^(1-e) and kappa exist only when Tr G != 0.
    """

    table: SymbolTable
    n: int
    a: Scalar
    sbc: Scalar
    a_values: Tuple[Scalar, ...]
    q: Scalar
    r: Scalar
    e: int
    trace_g: Scalar
    trace_g_inv: Scalar
    hbar: Scalar
    structure: OrientedQuantumAlgebraStructure
    rho_norm: Optional[Scalar]
    kappa: Optional[Scalar]

    def eta_plus(self, lo: int, hi: int) -> int:
        return sum(1 for i in range(lo + 1, hi + 1) if self.a_values[i - 1] == self.a)

    def eta_minus(self, lo: int, hi: int) -> int:
        return (hi - lo) - self.eta_plus(lo, hi)

    def omega_sq_family(self, x: Scalar) -> List[Scalar]:
        """omega_i(x)^2 = -(-x)^(-[a_i = a]) x^(eta+(0:i) - eta-(0:i))."""
        out = []
        for i in range(1, self.n + 1):
            delta = 1 if self.a_values[i - 1] == self.a else 0
            val = -((-x) ** (-delta)) * x ** (self.eta_plus(0, i) - self.eta_minus(0, i))
            out.append(val)
        return out


def section6_context(params: MnStructureParams) -> SectionSixContext:
    """Closed forms for a one-block structure with a_i in {a, -bc/a}.

    Asserts the coherence identities tying the omega squares, Tr G and hbar
    together; raises StructureError when the parameter shape does not fit.
    """
    if len(params.blocks) != 1:
        raise StructureError("the closed forms need a single block")
    table = params.table
    n = params.n
    bc = params.bc[0]
    sbc = _require_sqrt(table, bc)
    structure = build_thm5(params, f"single_block(n={n})")
    block = params.blocks[0]
    a = params.diag[block[0]]
    a_values = tuple(params.diag[i] for i in block)
    for i, ai in enumerate(a_values, start=1):
        if not (ai == a or ai == -bc / a):
            raise StructureError(f"a_{i} must be a or -bc/a")
    if params.omega_sq[block[0]] != table.one:
        raise StructureError("the closed forms assume omega_1^2 = 1")

    q = a / sbc
    r = q * q
    if r.is_one:
        raise StructureError(
            "a^2 = bc: q = a/sbc is 1 or -1, so the skein variable q - q^-1 is zero"
        )

    e = sum(1 if ai == a else -1 for ai in a_values)

    trace_g = structure.twist.g.pairing(structure.trace)
    trace_g_inv = structure.twist.g_inv.pairing(structure.trace)
    hbar = r ** (e - 1)

    ctx_rho = kappa = None
    if not trace_g.is_zero:
        ctx_rho = q ** (1 - e)
        kappa = ctx_rho * trace_g
        if kappa != ctx_rho.inv() * trace_g_inv:
            raise StructureError("kappa's two expressions disagree")
        if trace_g / trace_g_inv != hbar:
            raise StructureError("Tr(G)/Tr(G^-1) != hbar")

    ctx = SectionSixContext(
        table, n, a, sbc, a_values, q, r, e,
        trace_g, trace_g_inv, hbar, structure, ctx_rho, kappa,
    )

    # coherence of the stored squares with the closed-form family
    family = ctx.omega_sq_family(r)
    for i in range(1, n + 1):
        if params.omega_sq[block[i - 1]] != family[i - 1]:
            raise StructureError(f"omega_{i}^2 differs from the closed form")
    # geometric-sum identity (1 - r^e) = Tr(G)(1 - r)
    if trace_g * (table.one - r) != table.one - r**e:
        raise StructureError("Tr(G) geometric-sum identity fails")
    return ctx


def _require_sqrt(table: SymbolTable, bc: Scalar) -> Scalar:
    root = perfect_sqrt(bc)
    if root is None:
        raise StructureError(
            "bc needs a square root in the scalar field (declare sbc, set bc = sbc^2)"
        )
    return root


_CURL_FORMS = {"r+", "l-", "l+", "r-"}


def curl_family_values(ctx: SectionSixContext, family: str, m: int) -> Scalar:
    """Closed-form invariant of the m-fold kink closures.

    r+ : (a hbar)^m Tr(G^-1)     l- : (a hbar)^-m Tr(G)
    l+ : a^m Tr(G)               r- : a^-m Tr(G^-1)
    """
    if family not in _CURL_FORMS:
        raise DiagramError(f"unknown curl family {family!r}; use one of {_CURL_FORMS}")
    if m < 0:
        raise DiagramError("kink count must be >= 0")
    a, hbar = ctx.a, ctx.hbar
    if family == "r+":
        return (a * hbar) ** m * ctx.trace_g_inv
    if family == "l-":
        return (a * hbar) ** (-m) * ctx.trace_g
    if family == "l+":
        return a**m * ctx.trace_g
    return a ** (-m) * ctx.trace_g_inv


@dataclass(frozen=True)
class IdentifyReport:
    """One identification; lhs and rhs are Scalars for closed diagrams
    (identify_F) and AlgebraElements for cut-open tangles (identify_open)."""

    passed: bool
    branch: str  # "homfly" | "alexander"
    lhs: Union[Scalar, AlgebraElement]
    rhs: Union[Scalar, AlgebraElement]
    writhe: int
    total_whitney: int
    polynomial: SkeinPolynomial

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "branch": self.branch,
            "lhs": self.lhs.text(),
            "rhs": self.rhs.text(),
            "writhe": self.writhe,
            "total_whitney": self.total_whitney,
            "polynomial": self.polynomial.text(),
        }


def _skein_at(
    ctx: SectionSixContext, d: MorseDiagram
) -> Tuple[str, SkeinPolynomial, Scalar]:
    """The branch, the skein polynomial of ``d`` and its value at (q^e, q - q^-1).

    The Tr G = 0 branch takes nabla_L = H_L(1, z); it has no alpha terms, so
    its value does not depend on the alpha argument.
    """
    if ctx.trace_g.is_zero:
        branch, poly = "alexander", conway(d)
    else:
        branch, poly = "homfly", homfly(d)
    return branch, poly, poly.eval_at(ctx.table, ctx.q**ctx.e, ctx.q - ctx.q.inv())


def identify_F(
    ctx: SectionSixContext,
    d: MorseDiagram,
    F_value: Optional[Scalar] = None,
) -> IdentifyReport:
    """Check the trace formula against the skein polynomial of ``d``.

    Generic branch:  F = a^w kappa q^-w rho_norm^-Wd H_L(q^e, q - q^-1).
    Tr G = 0 branch: F = a^w q^-w nabla_L(q - q^-1), checked as stated; it
    never passes, since F vanishes on every closed diagram there.  The
    identity that does hold on that branch lives on the cut-open tangle:
    see identify_open.
    """
    if F_value is None:
        F_value = evaluate_link(ctx.structure, d)
    st = stats(d)
    w = st.writhe
    wd = st.total_whitney
    branch, poly, value = _skein_at(ctx, d)
    if branch == "alexander":
        rhs = ctx.a**w * ctx.q ** (-w) * value
    else:
        rhs = ctx.a**w * ctx.kappa * ctx.q ** (-w) * ctx.rho_norm ** (-wd) * value
    return IdentifyReport(F_value == rhs, branch, F_value, rhs, w, wd, poly)


def identify_open(ctx: SectionSixContext, d: MorseDiagram) -> IdentifyReport:
    """Check the cut-open tangle of ``d`` against the skein polynomial of ``d``.

    With T = cut_open(d), w its writhe, Wd its total Whitney degree (open
    strand included) and d0 the open strand's degree:

        w(T) = a^w q^-w q^((e-1) Wd) H_L(q^e, q - q^-1) G^-d0,

    an equality of algebra elements.  On the Tr G = 0 branch e = 0 and
    H_L(1, z) = nabla_L(z), so the polynomial comes from ``conway`` and the
    identity reads w(T) = a^w q^-w q^-Wd nabla_L(q - q^-1) G^-d0.  The
    report's ``branch`` follows Tr G as in identify_F.
    """
    t = cut_open(d)
    st = stats(t)
    w = st.writhe
    wd = st.total_whitney
    d0 = st.whitney[0]  # the open strand is walked first
    branch, poly, value = _skein_at(ctx, d)
    coeff = ctx.a**w * ctx.q ** (-w) * ctx.q ** ((ctx.e - 1) * wd) * value
    rhs = ctx.structure.twist.power(-d0).scale(coeff)
    lhs = evaluate_tangle(ctx.structure, t)
    return IdentifyReport(lhs == rhs, branch, lhs, rhs, w, wd, poly)


def skein_triple_check(
    ctx: SectionSixContext,
    l_plus: MorseDiagram,
    l_minus: MorseDiagram,
    l_zero: MorseDiagram,
) -> bool:
    """G(L+) - G(L-) = (q - q^-1) G(L0) with G(L) = sbc^-writhe F(L).

    The three diagrams must be ``crossing_triple(L+, k)`` for the one slice k
    at which L+ and L- differ.
    """
    diff = [
        k
        for k, (sp, sm) in enumerate(zip(l_plus.slices, l_minus.slices))
        if sp != sm
    ]
    if len(diff) != 1 or crossing_triple(l_plus, diff[0]) != (l_plus, l_minus, l_zero):
        raise DiagramError(
            "L+, L- and L0 must be xp, xn and the smoothing at one crossing slice"
        )

    def g_of(diag: MorseDiagram) -> Scalar:
        f = evaluate_link(ctx.structure, diag)
        return ctx.sbc ** (-stats(diag).writhe) * f

    lhs = g_of(l_plus) - g_of(l_minus)
    rhs = (ctx.q - ctx.q.inv()) * g_of(l_zero)
    return lhs == rhs
