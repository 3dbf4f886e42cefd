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
invariants.  The evaluation here is a sum over assignments of one nonzero
entry of its copy to every crossing, the two factor indices of an entry
feeding the two lines of its crossing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .algebra import AlgebraElement, AlgebraMap
from .diagram import (
    MorseDiagram,
    SliceKind,
    TraversalRecord,
    traverse,
)
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
        names = "efghklmnpqrs"
        ids = sorted({f[0] for comp in self.components for f in comp})
        parts = []
        for crossing, tensorand, ud, uu in self.components[c]:
            sym = names[ids.index(crossing) % len(names)] + ("'" if tensorand else "")
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


class _Evaluator:
    def __init__(
        self,
        S: OrientedQuantumAlgebraStructure,
        d: MorseDiagram,
        record: TraversalRecord,
    ):
        self.S = S
        self.d = d
        self.record = record
        self.algebra = S.algebra
        self._t_d_pows: Dict[int, AlgebraMap] = {0: AlgebraMap.identity(S.algebra)}
        self._t_u_pows: Dict[int, AlgebraMap] = {0: AlgebraMap.identity(S.algebra)}
        self._maps: Dict[Tuple[int, int], AlgebraMap] = {}
        self.crossings = [
            i for i, s in enumerate(d.slices) if s.kind.is_crossing
        ]
        self.entries = {
            i: sorted(
                (S.rho if d.slices[i].kind is SliceKind.X_POS else S.rho_inv)
                .coeffs.items()
            )
            for i in self.crossings
        }
        self.g_powers: Dict[int, AlgebraElement] = {}

    def _pow(self, cache: Dict[int, AlgebraMap], base: AlgebraMap, n: int) -> AlgebraMap:
        if n not in cache:
            if n > 0:
                cache[n] = base.compose(self._pow(cache, base, n - 1))
            else:
                if -1 not in cache:
                    cache[-1] = base.inverse()
                cache[n] = cache[-1].compose(self._pow(cache, base, n + 1))
        return cache[n]

    def twist_map(self, ud: int, uu: int) -> AlgebraMap:
        key = (ud, uu)
        if key not in self._maps:
            md = self._pow(self._t_d_pows, self.S.t_d, ud)
            mu = self._pow(self._t_u_pows, self.S.t_u, uu)
            self._maps[key] = md.compose(mu)
        return self._maps[key]

    def g_power(self, n: int) -> AlgebraElement:
        if n not in self.g_powers:
            if self.S.twist is None:
                raise InvariantError(
                    "closed components need a twist on the structure"
                )
            self.g_powers[n] = self.S.twist.power(n)
        return self.g_powers[n]

    def prepare(self):
        """Per component: list of (crossing position in self.crossings,
        tensorand picker, cached twisted basis elements per entry)."""
        crossing_pos = {c: k for k, c in enumerate(self.crossings)}
        plans = []
        for comp in self.record.components:
            factors = []
            for label in comp.labels:
                m = self.twist_map(label.u_d, label.u_u)
                per_entry = []
                for (i, j), _ in self.entries[label.crossing]:
                    idx = i if label.tensorand == 0 else j
                    per_entry.append(m.apply_basis(idx))
                factors.append((crossing_pos[label.crossing], tuple(per_entry)))
            plans.append(tuple(factors))
        return plans


def _sum_assignments(ev: _Evaluator, plans, closed_value):
    """Depth-first state-sum over crossing-entry assignments.

    Crossings are assigned in order of first traversal encounter; each
    component's bead product is extended as soon as its next label's crossing
    is assigned, so mismatched basis chains prune whole subtrees.
    ``closed_value(w, comp)`` turns a closed component's product into a
    Scalar.  Returns (scalar total, open-component total).
    """
    algebra = ev.algebra
    table = algebra.table
    comps = ev.record.components

    order: List[int] = []
    for plan in plans:
        for pos, _ in plan:
            if pos not in order:
                order.append(pos)
    for pos in range(len(ev.crossings)):
        if pos not in order:
            order.append(pos)
    depth_of = {pos: k for k, pos in enumerate(order)}
    # per component, in label order: (assignment depth, twisted elements)
    work = [
        tuple((depth_of[pos], per_entry) for pos, per_entry in plan)
        for plan in plans
    ]
    entry_coeffs = [
        tuple(c for _, c in ev.entries[ev.crossings[pos]]) for pos in order
    ]
    nchoices = [len(cs) for cs in entry_coeffs]
    K = len(order)

    def finish(coeff: Scalar, prods) -> Tuple[Scalar, AlgebraElement]:
        scalar_part = coeff
        open_part = None
        for w, comp in zip(prods, comps):
            if comp.is_open:
                open_part = w
            else:
                scalar_part = scalar_part * closed_value(w, comp)
                if scalar_part.is_zero:
                    return table.zero, algebra.zero()
        if open_part is None:
            return scalar_part, algebra.zero()
        return table.zero, open_part.scale(scalar_part)

    def rec(depth, coeff, prods, ptrs, choices):
        total_scalar = table.zero
        total_open = algebra.zero()
        if depth == K:
            return finish(coeff, prods)
        for idx in range(nchoices[depth]):
            choices[depth] = idx
            coeff2 = coeff * entry_coeffs[depth][idx]
            if coeff2.is_zero:
                continue
            prods2 = list(prods)
            ptrs2 = list(ptrs)
            dead = False
            for ci, plan in enumerate(work):
                ptr = ptrs2[ci]
                w = prods2[ci]
                while ptr < len(plan) and plan[ptr][0] <= depth:
                    d_req, per_entry = plan[ptr]
                    w = w * per_entry[choices[d_req]]
                    ptr += 1
                    if w.is_zero:
                        dead = True
                        break
                prods2[ci] = w
                ptrs2[ci] = ptr
                if dead:
                    break
            if dead:
                continue
            s, o = rec(depth + 1, coeff2, prods2, ptrs2, choices)
            total_scalar = total_scalar + s
            total_open = total_open + o
        return total_scalar, total_open

    return rec(
        0, table.one, [algebra.one()] * len(comps), [0] * len(comps), [0] * K
    )


def evaluate_tangle(
    S: OrientedQuantumAlgebraStructure,
    d: MorseDiagram,
    preferred_starts: Sequence[Tuple[int, int]] = (),
) -> AlgebraElement:
    """w(T) for an open tangle; a regular-isotopy invariant element of A.

    Extra closed components, if any, are traced against the twist; a diagram
    without them needs no twist.
    """
    if d.boundary != "open":
        raise InvariantError("evaluate_tangle needs an open tangle")
    record = traverse(d, preferred_starts)
    ev = _Evaluator(S, d, record)
    plans = ev.prepare()

    def closed_value(w: AlgebraElement, comp) -> Scalar:
        trace = S.trace
        if trace is None:
            raise InvariantError("closed components need a trace functional")
        return (ev.g_power(comp.whitney) * w).pairing(trace)

    if not ev.crossings:
        value = S.algebra.one()
        extra = S.algebra.table.one
        for comp in record.components:
            if not comp.is_open:
                extra = extra * closed_value(S.algebra.one(), comp)
        return value.scale(extra)
    _, open_total = _sum_assignments(ev, plans, closed_value)
    return open_total


def evaluate_link(
    S: OrientedQuantumAlgebraStructure,
    d: MorseDiagram,
    trace: Optional[Mapping[int, Scalar]] = None,
    preferred_starts: Sequence[Tuple[int, int]] = (),
    check_trace: bool = True,
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
    if check_trace:
        if not is_tracelike(S.algebra, functional):
            raise InvariantError("functional is not tracelike")
        for m, tag in ((S.t_d, "t_d"), (S.t_u, "t_u")):
            for j in range(S.algebra.dim):
                want = functional.get(j, S.algebra.table.zero)
                if m.apply_basis(j).pairing(functional) != want:
                    raise InvariantError(f"functional is not {tag}-invariant")

    record = traverse(d, preferred_starts)
    ev = _Evaluator(S, d, record)
    plans = ev.prepare()

    def closed_value(w: AlgebraElement, comp) -> Scalar:
        return (ev.g_power(comp.whitney) * w).pairing(functional)

    if not ev.crossings:
        total = S.algebra.table.one
        for comp in record.components:
            total = total * closed_value(S.algebra.one(), comp)
        return total
    scalar_total, _ = _sum_assignments(ev, plans, closed_value)
    return scalar_total


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
