"""State-sum evaluation of the bead-sliding invariants.

Every crossing of a diagram carries a copy of rho (positive) or rho^-1
(negative); traversal assigns each crossing line a tensor factor and the
extremum counters u_d, u_u.  Substituting the sparse entries of the copies
and multiplying the (t_d^{u_d} o t_u^{u_u})-twisted factors componentwise
yields

  * for an open tangle: the element w(T) of the algebra,
  * for a closed diagram with a twist G and a tracelike, automorphism-
    invariant functional tr: the scalar  prod_c tr(G^{d_c} w(L_c)),

with d_c the Whitney degree of component c.  Both are regular-isotopy
invariants.  One state sum computes both: it runs over the assignments of
one nonzero entry of its copy to every crossing, the two factor indices of
an entry feeding the two lines of its crossing, and hands each assignment's
coefficient and per-component bead products to a leaf supplied by the entry
point.  A branch dies as soon as a bead product vanishes, and an entry's
coefficient is multiplied in only after the bead products at its depth
survive.  The leaf of evaluate_link closes every component with
tr(G^{d_c} .); the leaf of evaluate_tangle keeps the open strand's product
as it is and closes the other components the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, TypeVar

from .algebra import AlgebraElement, AlgebraMap
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


T = TypeVar("T", Scalar, AlgebraElement)


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
        tuple((l.crossing, l.tensorand, l.u_d, l.u_u) for l in c.labels)
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
    leaf: Callable[[Scalar, List[AlgebraElement]], T],
    zero: T,
) -> T:
    """zero + the sum of leaf(coeff, products) over crossing-entry assignments.

    coeff is the product of the chosen entries and products[c] the product of
    component c's twisted beads.  Crossings are assigned in order of first
    traversal encounter; each component's product is extended as soon as its
    next label's crossing is assigned, so a vanishing product prunes the whole
    subtree.  An entry's coefficient is multiplied into coeff only after the
    bead products at its depth survive, so pruned branches cost no Scalar
    product.  Without crossings the leaf is reached once, with coefficient 1
    and unit products.
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

    def powers(m: AlgebraMap) -> Callable[[int], AlgebraMap]:
        """n -> m^n, each power one compose away from a memoized neighbour;
        m is inverted (a linear solve per column) at most once."""
        memo = {0: AlgebraMap.identity(algebra)}

        def power(n: int) -> AlgebraMap:
            if n not in memo:
                if n > 0:
                    memo[n] = m.compose(power(n - 1))
                else:
                    nearer = power(n + 1)
                    step = memo[-1] if n < -1 else m.inverse()
                    memo[n] = step.compose(nearer)
            return memo[n]

        return power

    t_d, t_u = powers(S.t_d), powers(S.t_u)
    # per component, in label order: (assignment depth, twisted basis
    # element of the label's tensorand, per entry of its crossing)
    maps: Dict[Tuple[int, int], AlgebraMap] = {}
    plans = []
    for comp in comps:
        plan = []
        for label in comp.labels:
            key = (label.u_d, label.u_u)
            if key not in maps:
                maps[key] = t_d(label.u_d).compose(t_u(label.u_u))
            per_entry = tuple(
                maps[key].apply_basis(pair[label.tensorand])
                for pair, _ in entries[label.crossing]
            )
            plan.append((depth_of[label.crossing], per_entry))
        plans.append(plan)
    entry_coeffs = [tuple(c for _, c in entries[crossing]) for crossing in order]
    K = len(order)
    choices = [0] * K
    total = zero

    def rec(depth: int, coeff: Scalar, prods: List[AlgebraElement], ptrs: List[int]):
        nonlocal total
        if depth == K:
            total = total + leaf(coeff, prods)
            return
        for idx, c in enumerate(entry_coeffs[depth]):
            choices[depth] = idx
            prods2 = list(prods)
            ptrs2 = list(ptrs)
            for ci, plan in enumerate(plans):
                ptr = ptrs2[ci]
                w = prods2[ci]
                while ptr < len(plan) and plan[ptr][0] <= depth:
                    d_req, per_entry = plan[ptr]
                    w = w * per_entry[choices[d_req]]
                    ptr += 1
                    if w.is_zero:
                        break
                if w.is_zero:
                    break
                prods2[ci] = w
                ptrs2[ci] = ptr
            else:
                # entries are nonzero, so a product of them never vanishes
                rec(depth + 1, coeff * c, prods2, ptrs2)

    rec(0, algebra.table.one, [algebra.one()] * len(comps), [0] * len(comps))
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


def _twist_powers(S: OrientedQuantumAlgebraStructure, record: TraversalRecord):
    """G^{d_c} per distinct Whitney degree d_c of a closed component."""
    degrees = {c.whitney for c in record.components if not c.is_open}
    return {n: S.twist.power(n) for n in degrees}


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
    comps = record.components
    if not all(c.is_open for c in comps):
        if S.trace is None:
            raise InvariantError("closed components need a trace functional")
        if S.twist is None:
            raise InvariantError("closed components need a twist on the structure")
        _check_functional(S, S.trace)
    g_powers = _twist_powers(S, record)

    def leaf(coeff: Scalar, prods: List[AlgebraElement]) -> AlgebraElement:
        for w, comp in zip(prods, comps):
            if comp.is_open:
                open_part = w
            else:
                coeff = coeff * (g_powers[comp.whitney] * w).pairing(S.trace)
                if coeff.is_zero:
                    return S.algebra.zero()
        return open_part.scale(coeff)

    return _state_sum(S, d, record, leaf, S.algebra.zero())


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
    if d.boundary != "closed":
        raise InvariantError("evaluate_link needs a closed diagram")
    if S.twist is None:
        raise InvariantError(
            "closed diagrams need a twist element on the structure"
        )
    functional = trace if trace is not None else S.trace
    if functional is None:
        raise InvariantError("no trace functional supplied")
    _check_functional(S, functional)

    record = traverse(d, preferred_starts)
    comps = record.components
    g_powers = _twist_powers(S, record)

    def leaf(coeff: Scalar, prods: List[AlgebraElement]) -> Scalar:
        for w, comp in zip(prods, comps):
            coeff = coeff * (g_powers[comp.whitney] * w).pairing(functional)
            if coeff.is_zero:
                break
        return coeff

    return _state_sum(S, d, record, leaf, S.algebra.table.zero)


def evaluate_knot(
    S: OrientedQuantumAlgebraStructure,
    d: MorseDiagram,
    trace: Optional[Mapping[int, Scalar]] = None,
    preferred_starts: Sequence[Tuple[int, int]] = (),
) -> Scalar:
    """Single-component specialization of evaluate_link."""
    record = traverse(d)
    if len(record.components) != 1:
        raise InvariantError(
            f"knot evaluation expects one component, found {len(record.components)}"
        )
    return evaluate_link(S, d, trace, preferred_starts)
