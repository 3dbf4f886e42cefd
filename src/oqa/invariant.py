"""State-sum evaluation of the bead-sliding invariants.

Every crossing of a diagram carries a copy of rho (positive) or rho^-1
(negative); traversal assigns each crossing line a tensor factor and a twist
exponent u, minus the Whitney degree of the rest of the walk.  Substituting
the sparse entries of the copies and multiplying the (t_d o t_u)^u-twisted
factors componentwise gives each component c a bead product w_c.  One rule
closes every diagram: an open strand keeps w_c, and a closed component
becomes tr(G^{d_c} w_c), with G the twist, tr a tracelike,
automorphism-invariant functional and d_c the Whitney degree of c.  An open
tangle thus gives an element w(T) of the algebra, a closed diagram the scalar
prod_c tr(G^{d_c} w(L_c)); both are regular-isotopy invariants.

One state sum applies the rule: it runs over the assignments of one nonzero
entry of its copy to every crossing, the two factor indices of an entry
feeding the two lines of its crossing, closes each assignment's components
and adds the result.  A branch dies as soon as a bead product vanishes, and
an entry's coefficient is multiplied in only after the bead products at its
depth survive.  The entry points only check their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

from .algebra import AlgebraElement
from .diagram import _X_POS, MorseDiagram, TraversalRecord, traverse
from .scalar import Scalar
from .structures import OrientedQuantumAlgebraStructure, is_tracelike

__all__ = [
    "InvariantError",
    "FormalWord",
    "formal_word",
    "evaluate_tangle",
    "evaluate_link",
    "evaluate_knot",
]


class InvariantError(ValueError):
    pass


@dataclass(frozen=True)
class FormalWord:
    """The per-component factor lists of a diagram, before substitution.

    Each factor is (crossing id, tensorand 0|1, u_d, u_u); the factor stands
    for t_d^{u_d} o t_u^{u_u} applied to that tensorand of the crossing's
    copy.  Crossing ids are slice indices, so each id appears exactly twice
    across all components.
    """

    components: Tuple[Tuple[Tuple[int, int, int, int], ...], ...]
    whitney: Tuple[int, ...]
    is_open: Tuple[bool, ...]

    def component_text(self, c: int) -> str:
        """Component c's factors, crossings named e, f, ..., s in id order;
        past the 12th crossing the letters repeat with a round suffix (e2, f2,
        ..., e3, ...), so every crossing has its own name."""
        letters = "efghklmnpqrs"
        ids = sorted({f[0] for comp in self.components for f in comp})
        per_round = len(letters)
        names = {}
        for k, crossing in enumerate(ids):
            suffix = str(k // per_round + 1) if k >= per_round else ""
            names[crossing] = letters[k % per_round] + suffix
        parts = []
        for crossing, tensorand, ud, uu in self.components[c]:
            sym = names[crossing] + ("'" if tensorand else "")
            if ud == 0 and uu == 0:
                parts.append(sym)
            else:
                parts.append(f"(td^{ud} tu^{uu})({sym})")
        return " ".join(parts) if parts else "1"


def formal_word(
    d: MorseDiagram, preferred_starts: Sequence[Tuple[int, int]] = ()
) -> FormalWord:
    record = traverse(d, preferred_starts)
    comps = tuple(
        tuple((l.crossing, l.tensorand, l.u, l.u) for l in c.labels)
        for c in record.components
    )
    return FormalWord(
        comps,
        tuple(c.whitney for c in record.components),
        tuple(c.is_open for c in record.components),
    )


def _state_sum(
    S: OrientedQuantumAlgebraStructure,
    d: MorseDiagram,
    record: TraversalRecord,
    functional: Optional[Mapping[int, Scalar]],
) -> Scalar | AlgebraElement:
    """The sum over crossing-entry assignments of each assignment's closed value.

    An assignment's value is its coefficient (the product of the chosen
    entries) times tr(G^{d_c} w_c) for each closed component c, in component
    order, with w_c the product of c's twisted beads and tr the functional;
    G^{d_c} is built once per distinct Whitney degree.  A tangle's value is
    the open strand's product scaled by that, a link's the scalar itself, and
    the sum starts from the matching zero; a value that vanishes is not added.

    A bead is its label's tensorand of the chosen entry twisted by
    (t_d o t_u)^u, which is t_d^u o t_u^u as the automorphisms commute;
    ``AlgebraMap.power`` memoizes the powers.  Crossings are assigned in
    order of first traversal encounter; each component's product is extended
    as soon as its next label's crossing is assigned, so a vanishing product
    prunes the whole subtree.  An entry's coefficient is multiplied into the
    coefficient only after the bead products at its depth survive, so pruned
    branches cost no Scalar product.  Without crossings the one assignment is empty,
    with coefficient 1 and unit products.
    """
    algebra = S.algebra
    entries = {
        i: sorted((S.rho if s.kind is _X_POS else S.rho_inv).coeffs.items())
        for i, s in enumerate(d.slices)
        if s.kind.is_crossing
    }
    comps = record.components
    order = list(dict.fromkeys(l.crossing for c in comps for l in c.labels))
    depth_of = {crossing: k for k, crossing in enumerate(order)}
    degrees = {c.whitney for c in comps if not c.is_open}
    g_powers = {n: S.twist.power(n) for n in degrees}

    du = S.d_then_u()
    # per depth, in component and then label order: (component, depth of the
    # label's crossing, twisted basis element of the label's tensorand per
    # entry); a label extends its component at the deepest crossing among
    # itself and the labels before it
    steps: List[list] = [[] for _ in order]
    for ci, comp in enumerate(comps):
        reach = 0
        for label in comp.labels:
            at = depth_of[label.crossing]
            reach = max(reach, at)
            twist = du.power(label.u)
            per_entry = tuple(
                twist.apply_basis(pair[label.tensorand]) for pair, _ in entries[label.crossing]
            )
            steps[reach].append((ci, at, per_entry))
    entry_coeffs = [tuple(c for _, c in entries[crossing]) for crossing in order]
    K = len(order)
    choices = [0] * K
    total = algebra.zero() if d.boundary == "open" else algebra.table.zero

    def rec(depth: int, coeff: Scalar, prods: List[AlgebraElement]):
        nonlocal total
        if depth == K:
            open_part = None
            for w, comp in zip(prods, comps):
                if comp.is_open:
                    open_part = w
                else:
                    coeff = coeff * (g_powers[comp.whitney] * w).pairing(functional)
                    if coeff.is_zero:
                        return
            total = total + (coeff if open_part is None else open_part.scale(coeff))
            return
        for idx, c in enumerate(entry_coeffs[depth]):
            choices[depth] = idx
            prods2 = list(prods)
            for ci, at, per_entry in steps[depth]:
                w = prods2[ci] * per_entry[choices[at]]
                if w.is_zero:
                    break
                prods2[ci] = w
            else:
                # entries are nonzero, so a product of them never vanishes
                rec(depth + 1, coeff * c, prods2)

    rec(0, algebra.table.one, [algebra.one()] * len(comps))
    return total


def _check_functional(S: OrientedQuantumAlgebraStructure, functional: Mapping) -> None:
    """Raise unless functional is tracelike and invariant under t_d and t_u."""
    if not is_tracelike(S.algebra, functional):
        raise InvariantError("functional is not tracelike")
    for m, tag in ((S.t_d, "t_d"), (S.t_u, "t_u")):
        for j in range(S.algebra.dim):
            want = functional.get(j, S.algebra.table.zero)
            if m.apply_basis(j).pairing(functional) != want:
                raise InvariantError(f"functional is not {tag}-invariant")


def evaluate_tangle(
    S: OrientedQuantumAlgebraStructure,
    d: MorseDiagram,
    preferred_starts: Sequence[Tuple[int, int]] = (),
) -> AlgebraElement:
    """w(T) for an open tangle; a regular-isotopy invariant element of A.

    Extra closed components, if any, are traced against the twist with the
    structure's trace, which must pass evaluate_link's checks; a diagram
    without them needs neither.
    """
    if d.boundary != "open":
        raise InvariantError("evaluate_tangle needs an open tangle")
    record = traverse(d, preferred_starts)
    if not all(c.is_open for c in record.components):
        if S.trace is None:
            raise InvariantError("closed components need a trace functional")
        if S.twist is None:
            raise InvariantError("closed components need a twist on the structure")
        _check_functional(S, S.trace)
    return _state_sum(S, d, record, S.trace)


def _link_functional(
    S: OrientedQuantumAlgebraStructure,
    d: MorseDiagram,
    trace: Optional[Mapping[int, Scalar]],
) -> Mapping[int, Scalar]:
    """evaluate_link's checks; the functional that closes the components."""
    if d.boundary != "closed":
        raise InvariantError("evaluate_link needs a closed diagram")
    if S.twist is None:
        raise InvariantError(
            "closed diagrams need a twist element "
            "(an invertible G implementing t_d o t_u by conjugation)"
        )
    functional = trace if trace is not None else S.trace
    if functional is None:
        raise InvariantError("no trace functional supplied")
    _check_functional(S, functional)
    return functional


def evaluate_link(
    S: OrientedQuantumAlgebraStructure,
    d: MorseDiagram,
    trace: Optional[Mapping[int, Scalar]] = None,
    preferred_starts: Sequence[Tuple[int, int]] = (),
) -> Scalar:
    """prod_c tr(G^{d_c} w(L_c)) for a closed diagram.

    Requires the structure's twist and a tracelike functional invariant under
    both automorphisms (the structure's own trace by default).
    """
    functional = _link_functional(S, d, trace)
    return _state_sum(S, d, traverse(d, preferred_starts), functional)


def evaluate_knot(
    S: OrientedQuantumAlgebraStructure,
    d: MorseDiagram,
    trace: Optional[Mapping[int, Scalar]] = None,
    preferred_starts: Sequence[Tuple[int, int]] = (),
) -> Scalar:
    """Single-component specialization of evaluate_link."""
    record = traverse(d, preferred_starts)
    if len(record.components) != 1:
        raise InvariantError(
            f"knot evaluation expects one component, found {len(record.components)}"
        )
    return _state_sum(S, d, record, _link_functional(S, d, trace))
