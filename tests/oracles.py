"""Independent references for the library's fast paths.

Each reference re-derives its answer from the definitions, by the plainest
route, and the differential tests compare it with the library.  None of them
reads a private table or helper of ``oqa``: every name this file imports is in
its module's ``__all__``, and ``tests/test_oracles.py`` checks that.  What a
reference still shares with the library is named with it.

``_directions`` is the word checker.  It builds the strand directions at
every gap, bottom to top, and raises the type and message that
``oqa.diagram._link`` raises, at the first bad slice and then on the strands
left at the top.  It checks ``validate``, ``strand_dirs`` and the basepoint
judging of ``traverse``, and it gives ``oracle_insertion_sites`` its rows.
Shared: the public ``MorseDiagram``, ``SliceKind`` and error types.

``_walk_all`` is the walker.  It steps each component point by point through
the slices, reads the tensorand off its own over/under rule and counts each
label's twist exponent u as the d+ minus d- suffix sum of its own extremum
events.  It checks ``traverse``: components, start points, line labels,
extrema, Whitney degrees and events.
Shared: the public record types ``TraversalRecord``, ``ComponentRecord`` and
``LineLabel``.

``oracle_evaluate`` checks the pruned state sum of ``evaluate_link`` and
``evaluate_tangle``.  It walks with ``_walk_all``, pushes every bead through
the local extremum rules one extremum at a time (t_u^-1 at a clockwise cap,
t_d^-1 at a clockwise cup, t_d at a counterclockwise cap, t_u at a
counterclockwise cup) and sums plain full products over every choice of one
term of rho or rho^-1 per crossing, via itertools.product.  Shared: the algebra
arithmetic and the structure's tables.

``oracle_qybe_defect`` checks ``oqa.algebra.qybe_defect``: each of rho_12,
rho_13, rho_23 is written out as a triple tensor with the algebra's unit in
its free slot, and the two triple products are multiplied out slot by slot,
where the library sums the same products directly over rho's terms.  Shared:
the structure constants and scalar arithmetic.

``oracle_solve_sparse`` checks ``oqa.algebra.solve_sparse``: it eliminates
over every row, where the library skips the rows no nonzero right-hand side
reaches, so a block the library leaves out is still solved.  Shared: scalar
arithmetic.

``oracle_skein`` (and ``oracle_homfly``, ``oracle_conway``) checks the skein
recursion of ``homfly`` and ``conway``: every smoothing is memoized as the
word it is, with no height exchange and no M2 cancellation, the recursion is
Python's own, the walk is ``_walk_all``'s and the descending leaf is worked
out here.  It switches and smooths with ``crossing_triple``, which the
skein engine no longer calls.  Shared: ``SkeinPolynomial`` arithmetic.

``oracle_insertion_sites`` checks ``insertion_sites``: it tries a full
``apply_move``, which validates the whole rewritten word, at every (gap,
position).  Shared: ``apply_move``.
"""

import itertools

from typing import List, Sequence, Tuple

from oqa.diagram import (
    ComponentRecord,
    DiagramError,
    DiagramValidationError,
    LineLabel,
    MorseDiagram,
    MoveError,
    SliceKind,
    TraversalRecord,
    apply_move,
    crossing_triple,
)
from oqa.homfly_bridge import SkeinPolynomial

# read off the module docstring of oqa.diagram: the (left, right) directions
# a cup makes or a cap consumes, and each extremum's type; t_u slides beads
# past u+/u- extrema, t_d past d+/d-, and the clockwise ones are u- and d-
_LEGS = {
    SliceKind.CUP_CCW: ("d", "u"),
    SliceKind.CUP_CW: ("u", "d"),
    SliceKind.CAP_CCW: ("d", "u"),
    SliceKind.CAP_CW: ("u", "d"),
}
_TYPE = {
    SliceKind.CUP_CCW: "u+",
    SliceKind.CUP_CW: "d-",
    SliceKind.CAP_CCW: "d+",
    SliceKind.CAP_CW: "u-",
}
_CW = ("u-", "d-")


def _directions(d: MorseDiagram) -> List[List[str]]:
    """Strand directions at every gap 0..len(slices); raises on a bad word."""

    def bad(why):
        return DiagramValidationError(f"slice {g} ({s}): {why}")

    dirs = ["u"] if d.boundary == "open" else []
    final = list(dirs)
    per_gap = [list(dirs)]
    for g, s in enumerate(d.slices):
        p = s.pos
        if p < 0:
            raise bad("negative position")
        if s.kind.is_cup:
            if p > len(dirs):
                raise bad(f"position beyond {len(dirs)} strands")
            dirs[p:p] = _LEGS[s.kind]
        else:
            if p + 2 > len(dirs):
                raise bad(f"needs strands {p},{p + 1}, have {len(dirs)}")
            found = tuple(dirs[p : p + 2])
            if s.kind.is_cap:
                if found != _LEGS[s.kind]:
                    raise bad(f"needs directions {_LEGS[s.kind]}, found {found}")
                del dirs[p : p + 2]
            elif found != ("u", "u"):
                raise bad(f"crossings need two upward strands, found {found}")
        per_gap.append(list(dirs))
    if dirs != final:
        raise DiagramValidationError(
            f"diagram ends with strands {dirs}, boundary {d.boundary} needs {final}"
        )
    return per_gap


def _tensorand(d: MorseDiagram, crossing: int, side: str) -> int:
    """0 when the line entering ``crossing`` on ``side`` passes over: the
    left line of a positive crossing, the right line of a negative one."""
    over = "L" if d.slices[crossing].kind is SliceKind.X_POS else "R"
    return 0 if side == over else 1


def _walk_all(
    d: MorseDiagram, preferred_starts: Sequence[Tuple[int, int]] = ()
) -> TraversalRecord:
    """Every component, walked point by point: the open strand first, then
    one from each basepoint, then one from each upward point in scan order
    (gaps bottom to top, positions left to right) that no walk has passed."""
    per_gap = _directions(d)
    for g, p in preferred_starts:
        if not (0 <= g < len(per_gap) and 0 <= p < len(per_gap[g])):
            raise DiagramError(f"basepoint {(g, p)} outside the diagram")
        if per_gap[g][p] != "u":
            raise DiagramError(f"basepoint {(g, p)} is not on an upward strand")
    top = len(d.slices)
    seen = set()

    def step(g, p, up):
        """(event or None, next gap, next position, next heading)."""
        if up:
            s = d.slices[g]
            q = s.pos
            if s.kind.is_cup:
                return None, g + 1, (p + 2 if p >= q else p), True
            if s.kind.is_cap:
                if p in (q, q + 1):
                    return ("ext", _TYPE[s.kind]), g, 2 * q + 1 - p, False
                return None, g + 1, (p - 2 if p > q + 1 else p), True
            if p in (q, q + 1):
                return ("line", g, "L" if p == q else "R"), g + 1, 2 * q + 1 - p, True
            return None, g + 1, p, True
        s = d.slices[g - 1]
        q = s.pos
        if s.kind.is_cup:
            if p in (q, q + 1):
                return ("ext", _TYPE[s.kind]), g, 2 * q + 1 - p, True
            return None, g - 1, (p - 2 if p > q + 1 else p), False
        if s.kind.is_cap:
            return None, g - 1, (p + 2 if p >= q else p), False
        return None, g - 1, p, False

    def walk(start, is_open):
        events = []
        g, p, up = *start, True
        while True:
            seen.add((g, p))
            if up and g == top:
                break
            ev, g, p, up = step(g, p, up)
            if ev:
                events.append(ev)
            if up and (g, p) == start and not is_open:
                break
        labels = []
        for k, ev in enumerate(events):
            if ev[0] == "line":
                after = [e[1] for e in events[k + 1 :] if e[0] == "ext"]
                u = after.count("d+") - after.count("d-")
                labels.append(LineLabel(ev[1], _tensorand(d, ev[1], ev[2]), u))
        extrema = tuple(e[1] for e in events if e[0] == "ext")
        cw = sum(t in _CW for t in extrema)
        whitney = (cw - (len(extrema) - cw)) // 2
        return ComponentRecord(
            is_open, start, tuple(labels), extrema, whitney, tuple(events)
        )

    components = [walk((0, 0), True)] if d.boundary == "open" else []
    upward = [
        (g, p) for g, row in enumerate(per_gap) for p, x in enumerate(row) if x == "u"
    ]
    for point in [*preferred_starts, *upward]:
        if point not in seen:
            components.append(walk(point, False))
    return TraversalRecord(tuple(components))


# local sliding rule at each extremum type
def _rules(S):
    return {"u-": S.t_u.inverse(), "d-": S.t_d.inverse(), "d+": S.t_d, "u+": S.t_u}


def oracle_evaluate(S, d: MorseDiagram):
    """Invariant by exhaustive expansion; Scalar for closed, element for open."""
    algebra = S.algebra
    table = algebra.table
    rules = _rules(S)
    comps = _walk_all(d).components
    crossings = [i for i, s in enumerate(d.slices) if s.kind.is_crossing]
    tables = {
        i: list(
            (S.rho if d.slices[i].kind is SliceKind.X_POS else S.rho_inv).coeffs.items()
        )
        for i in crossings
    }

    open_total = algebra.zero()
    scalar_total = table.zero
    is_open_diagram = d.boundary == "open"

    for choice in itertools.product(*(range(len(tables[c])) for c in crossings)):
        pick = {c: tables[c][k] for c, k in zip(crossings, choice)}
        coeff = table.one
        for c in crossings:
            coeff = coeff * pick[c][1]
        open_part = None
        closed_part = table.one
        for comp in comps:
            events = comp.events
            word = algebra.one()
            for k, ev in enumerate(events):
                if ev[0] != "line":
                    continue
                _, crossing, side = ev
                x = algebra.basis_element(pick[crossing][0][_tensorand(d, crossing, side)])
                for later in events[k + 1 :]:
                    if later[0] == "ext":
                        x = rules[later[1]].apply(x)
                word = word * x
            if comp.is_open:
                open_part = word
            else:
                gpow = algebra.one()
                base = S.twist.g if comp.whitney >= 0 else S.twist.g_inv
                for _ in range(abs(comp.whitney)):
                    gpow = gpow * base
                closed_part = closed_part * (gpow * word).pairing(S.trace)
        if is_open_diagram:
            open_total = open_total + open_part.scale(coeff * closed_part)
        else:
            scalar_total = scalar_total + coeff * closed_part
    return open_total if is_open_diagram else scalar_total


# -- the embedded QYBE route -------------------------------------------------


def _embed(rho, slots):
    """rho placed in two of three tensor slots, the unit in the third."""
    algebra = rho.algebra
    unit_slot = ({0, 1, 2} - set(slots)).pop()
    out = {}
    for (i, j), c in rho.coeffs.items():
        for k, ck in algebra.unit:
            key = [0, 0, 0]
            key[slots[0]] = i
            key[slots[1]] = j
            key[unit_slot] = k
            out[tuple(key)] = c * ck
    return out


def _triple_mul(algebra, u, v):
    """Product of two triple tensors given as {(i, j, k): Scalar}."""
    out = {}
    structure = algebra.structure
    for (i, j, k), cu in u.items():
        for (p, q, r), cv in v.items():
            t1 = structure.get((i, p))
            t2 = structure.get((j, q))
            t3 = structure.get((k, r))
            if not (t1 and t2 and t3):
                continue
            c = cu * cv
            for a1, c1 in t1:
                for a2, c2 in t2:
                    for a3, c3 in t3:
                        key = (a1, a2, a3)
                        contrib = c * c1 * c2 * c3
                        out[key] = contrib if key not in out else out[key] + contrib
    return {key: c for key, c in out.items() if not c.is_zero}


def oracle_qybe_defect(algebra, rho):
    """Nonzero slots of rho_12 rho_13 rho_23 - rho_23 rho_13 rho_12."""
    r12, r13, r23 = (_embed(rho, slots) for slots in ((0, 1), (0, 2), (1, 2)))
    lhs = _triple_mul(algebra, _triple_mul(algebra, r12, r13), r23)
    rhs = _triple_mul(algebra, _triple_mul(algebra, r23, r13), r12)
    out = dict(lhs)
    for key, c in rhs.items():
        out[key] = out.get(key, algebra.table.zero) - c
    return {key: c for key, c in out.items() if not c.is_zero}


# -- the full sparse elimination ---------------------------------------------


def oracle_solve_sparse(table, rows, rhs, nunknowns):
    """Eliminate over every row; None when the system is inconsistent."""
    rows = [{c: v for c, v in r.items() if not v.is_zero} for r in rows]
    rhs = list(rhs)
    assignments = {}
    active = [k for k, r in enumerate(rows) if r or not rhs[k].is_zero]
    solved_order = []
    while True:
        best = None
        for k in active:
            row = rows[k]
            if not row:
                if not rhs[k].is_zero:
                    return None
                continue
            score = len(row)
            if best is None or score < best[0]:
                best = (score, k)
        if best is None:
            break
        _, k = best
        row, b = rows[k], rhs[k]
        col = min(row)
        pivot = row[col]
        inv = pivot.inv()
        norm_row = {c: v * inv for c, v in row.items() if c != col}
        norm_b = b * inv
        assignments[col] = (norm_row, norm_b)
        solved_order.append(col)
        active = [m for m in active if m != k]
        for m in active:
            r = rows[m]
            factor = r.pop(col, None)
            if factor is None or factor.is_zero:
                continue
            for c, v in norm_row.items():
                s = r.get(c)
                nv = (s - factor * v) if s is not None else -factor * v
                if nv.is_zero:
                    r.pop(c, None)
                else:
                    r[c] = nv
            rhs[m] = rhs[m] - factor * norm_b
        active = [m for m in active if rows[m] or not rhs[m].is_zero]

    solution = [table.zero] * nunknowns
    known = {}
    for col in reversed(solved_order):
        row, b = assignments[col]
        val = b
        for c, v in row.items():
            if c in known:
                val = val - v * known[c]
            # unsolved columns are free; set to zero
        known[col] = val
        solution[col] = val
    return solution


# -- the unreduced skein recursion -------------------------------------------


def _descending_leaf(d: MorseDiagram, record: TraversalRecord) -> SkeinPolynomial:
    """H of a descending diagram, a stack of curled unknots: each component
    is worth alpha to its self-writhe, and pulling the r components apart
    scales by delta^(r - 1), delta = (alpha - alpha^-1)/z."""
    sign = {SliceKind.X_POS: 1, SliceKind.X_NEG: -1}
    self_writhe = 0
    for comp in record.components:
        crossings = [label.crossing for label in comp.labels]
        self_writhe += sum(
            sign[d.slices[c].kind] for c in set(crossings) if crossings.count(c) == 2
        )
    delta = SkeinPolynomial.monomial(1, -1) - SkeinPolynomial.monomial(-1, -1)
    leaf = SkeinPolynomial.monomial(self_writhe, 0)
    for _ in range(len(record.components) - 1):
        leaf = leaf * delta
    return leaf


def oracle_skein(d: MorseDiagram, memo) -> SkeinPolynomial:
    """H(d) by switching d toward its descending diagram, word for word."""
    key = d.key()
    hit = memo.get(key)
    if hit is not None:
        return hit
    record = _walk_all(d)
    z = SkeinPolynomial.monomial(0, 1)
    value = SkeinPolynomial.zero()
    switched = d
    seen: set = set()
    for comp in record.components:
        for label in comp.labels:
            if label.crossing in seen:
                continue
            seen.add(label.crossing)
            if label.tensorand != 1:
                continue
            l_plus, l_minus, l_zero = crossing_triple(switched, label.crossing)
            if switched.slices[label.crossing].kind is SliceKind.X_POS:
                # H(L+) = H(L-) + z H(L0)
                value = value + z * oracle_skein(l_zero, memo)
                switched = l_minus
            else:
                value = value - z * oracle_skein(l_zero, memo)
                switched = l_plus
    # switching a crossing changes no strand's connectivity: d's walk holds
    value = value + _descending_leaf(switched, record)
    memo[key] = value
    return value


def oracle_homfly(d: MorseDiagram) -> SkeinPolynomial:
    return oracle_skein(d, {})


def oracle_conway(d: MorseDiagram) -> SkeinPolynomial:
    """H at alpha = 1, as ``oqa.homfly_bridge.conway`` takes it."""
    terms = {}
    for (_, ez), c in oracle_skein(d, {}).terms.items():
        terms[(0, ez)] = terms.get((0, ez), 0) + c
    return SkeinPolynomial(terms)


# -- move sites ------------------------------------------------------------------


def oracle_insertion_sites(d: MorseDiagram, move: str) -> List[Tuple[int, int]]:
    """Sites where ``apply_move(d, move, site)`` succeeds, one rewrite at a time."""
    out = []
    for index, row in enumerate(_directions(d)):
        for p in range(len(row) + 1):
            try:
                apply_move(d, move, (index, p))
            except MoveError:
                continue
            out.append((index, p))
    return out
