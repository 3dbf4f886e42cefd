"""Independent full-expansion oracle for the bead-sliding invariants.

This evaluator deliberately avoids the package's traversal record, counter
formula and pruned state sum.  It re-derives strand directions, walks each
component with its own stepper, pushes every bead through the local extremum
rules one extremum at a time (t_u^-1 at a clockwise cap, t_d^-1 at a
clockwise cup, t_d at a counterclockwise cap, t_u at a counterclockwise cup),
and sums plain full products over every assignment of matrix units to
crossings via itertools.product.  Shared with the package: only the algebra
arithmetic, the structure's tensor tables and the decoration convention
(first tensor factor on the over strand).

It also holds the embedded route to the quantum Yang-Baxter defect: each of
rho_12, rho_13, rho_23 is written out as a triple tensor with the algebra's
unit in its free slot, and the two triple products are multiplied out slot by
slot.  The library sums the same products directly over rho's terms.

It holds the full sparse elimination ``oqa.algebra.solve_sparse`` ran
before it learned to skip the rows that no nonzero right-hand side reaches:
here every row takes part, so a block the library leaves out is still solved.

It holds the word checker ``oqa.diagram.strand_dirs`` ran before the
library's word check became one linking pass, ``oqa.diagram._link``:
``oracle_strand_dirs`` builds the per-gap direction table slice by slice, as
that checker did, and also refuses a negative position (it read one from the
right).  ``oracle_traverse`` is the traversal ``traverse`` ran before it
checked the word in its linking pass: it checks the word with
``oracle_strand_dirs``, edges live in dicts, and a component walk is tried
from every upward edge.

It holds the site search ``oqa.diagram.insertion_sites`` ran before it
judged each site from the strand row at its gap: ``oracle_insertion_sites``
tries a full ``apply_move``, which validates the whole rewritten word, at
every (gap, position).

Last, it holds the skein recursion ``oqa.homfly_bridge._skein`` ran before it
reduced each word: here every smoothing is memoized as the word it is, with
no height exchange and no M2 cancellation, and the recursion is Python's
own.  It walks with ``oracle_traverse`` and shares ``crossing_triple`` and
the descending leaf with the library, so it checks the reduction, the
explicit stack and the library's walker.
"""

import itertools

from typing import Dict, List, Optional, Sequence, Tuple

from oqa import (
    MorseDiagram,
    OrientedQuantumAlgebraStructure,
    SkeinPolynomial,
    SliceKind,
    crossing_triple,
)
from oqa.diagram import (
    _CAP_DIRS,
    _CLOCKWISE,
    _CUP_DIRS,
    EXTREMUM_TYPE,
    ComponentRecord,
    DiagramError,
    DiagramValidationError,
    LineLabel,
    MoveError,
    TraversalRecord,
    _tensorand,
    apply_move,
    strand_dirs,
)
from oqa.homfly_bridge import _descending_value


def _directions(d: MorseDiagram):
    dirs = ["u"] if d.boundary == "open" else []
    per_gap = [list(dirs)]
    for s in d.slices:
        p = s.pos
        if s.kind is SliceKind.CUP_CCW:
            dirs[p:p] = ["d", "u"]
        elif s.kind is SliceKind.CUP_CW:
            dirs[p:p] = ["u", "d"]
        elif s.kind in (SliceKind.CAP_CCW, SliceKind.CAP_CW):
            del dirs[p : p + 2]
        per_gap.append(list(dirs))
    return per_gap


def _walk_all(d: MorseDiagram):
    """Components as event lists: ('x', slice_idx, side) / ('e', kind)."""
    per_gap = _directions(d)
    seen = set()
    components = []

    def step(g, p, going_up):
        if going_up:
            s = d.slices[g]
            q = s.pos
            if s.kind.is_cup:
                return None, g + 1, (p + 2 if p >= q else p), True
            if s.kind.is_cap:
                if p == q:
                    return ("e", s.kind), g, q + 1, False
                if p == q + 1:
                    return ("e", s.kind), g, q, False
                return None, g + 1, (p - 2 if p > q + 1 else p), True
            if p == q:
                return ("x", g, "L"), g + 1, q + 1, True
            if p == q + 1:
                return ("x", g, "R"), g + 1, q, True
            return None, g + 1, p, True
        s = d.slices[g - 1]
        q = s.pos
        if s.kind.is_cup:
            if p == q:
                return ("e", s.kind), g, q + 1, True
            if p == q + 1:
                return ("e", s.kind), g, q, True
            return None, g - 1, (p - 2 if p > q + 1 else p), False
        if s.kind.is_cap:
            return None, g - 1, (p + 2 if p >= q else p), False
        return None, g - 1, p, False

    def walk(g0, p0, is_open):
        events = []
        g, p, up = g0, p0, True
        while True:
            seen.add((g, p))
            if up and g == len(d.slices):
                break
            ev, g, p, up = step(g, p, up)
            if ev:
                events.append(ev)
            if not is_open and (g, p, up) == (g0, p0, True):
                break
        return events

    order = []
    if d.boundary == "open" and per_gap[0]:
        order.append((0, 0, True))
    for g in range(len(per_gap)):
        for p in range(len(per_gap[g])):
            if per_gap[g][p] == "u" and (g, p) not in seen:
                is_open = d.boundary == "open" and (g, p) == (0, 0)
                components.append(walk(g, p, is_open) + [("open", is_open)])
    return components


# local sliding rule at each extremum kind
def _rules(S: OrientedQuantumAlgebraStructure):
    return {
        SliceKind.CAP_CW: S.t_u.inverse(),
        SliceKind.CUP_CW: S.t_d.inverse(),
        SliceKind.CAP_CCW: S.t_d,
        SliceKind.CUP_CCW: S.t_u,
    }


_CW = (SliceKind.CAP_CW, SliceKind.CUP_CW)


def oracle_evaluate(S: OrientedQuantumAlgebraStructure, d: MorseDiagram):
    """Invariant by exhaustive expansion; Scalar for closed, element for open."""
    algebra = S.algebra
    table = algebra.table
    rules = _rules(S)
    comps = _walk_all(d)
    crossings = [i for i, s in enumerate(d.slices) if s.kind.is_crossing]
    tables = {
        i: list(
            (S.rho if d.slices[i].kind is SliceKind.X_POS else S.rho_inv).coeffs.items()
        )
        for i in crossings
    }

    def bead(slice_idx, side, pair):
        over_first = d.slices[slice_idx].kind is SliceKind.X_POS
        first = side == ("L" if over_first else "R")
        return algebra.basis_element(pair[0] if first else pair[1])

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
            is_open = comp[-1][1]
            events = comp[:-1]
            word = algebra.one()
            for k, ev in enumerate(events):
                if ev[0] != "x":
                    continue
                x = bead(ev[1], ev[2], pick[ev[1]][0])
                for later in events[k + 1 :]:
                    if later[0] == "e":
                        x = rules[later[1]].apply(x)
                word = word * x
            if is_open:
                open_part = word
            else:
                cw = sum(1 for ev in events if ev[0] == "e" and ev[1] in _CW)
                ccw = sum(1 for ev in events if ev[0] == "e") - cw
                dgr = (cw - ccw) // 2
                gpow = algebra.one()
                base = S.twist.g if dgr >= 0 else S.twist.g_inv
                for _ in range(abs(dgr)):
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


# -- the per-gap traversal -----------------------------------------------------


def oracle_strand_dirs(d: MorseDiagram) -> List[List[str]]:
    """Strand directions at every gap 0..len(slices); raises on inconsistency."""
    dirs = ["u"] if d.boundary == "open" else []
    out = [list(dirs)]
    for idx, s in enumerate(d.slices):
        p = s.pos
        if p < 0:
            raise DiagramValidationError(f"slice {idx} ({s}): negative position")
        if s.kind.is_cup:
            if p > len(dirs):
                raise DiagramValidationError(
                    f"slice {idx} ({s}): position beyond {len(dirs)} strands"
                )
            dirs[p:p] = list(_CUP_DIRS[s.kind])
        elif s.kind.is_cap:
            if p + 1 > len(dirs) - 1:
                raise DiagramValidationError(
                    f"slice {idx} ({s}): needs strands {p},{p + 1}, have {len(dirs)}"
                )
            want = _CAP_DIRS[s.kind]
            got = tuple(dirs[p : p + 2])
            if got != want:
                raise DiagramValidationError(
                    f"slice {idx} ({s}): needs directions {want}, found {got}"
                )
            del dirs[p : p + 2]
        else:
            if p + 1 > len(dirs) - 1:
                raise DiagramValidationError(
                    f"slice {idx} ({s}): needs strands {p},{p + 1}, have {len(dirs)}"
                )
            if dirs[p] != "u" or dirs[p + 1] != "u":
                raise DiagramValidationError(
                    f"slice {idx} ({s}): crossings need two upward strands, "
                    f"found {(dirs[p], dirs[p + 1])}"
                )
        out.append(list(dirs))
    final = ["u"] if d.boundary == "open" else []
    if dirs != final:
        raise DiagramValidationError(
            f"diagram ends with strands {dirs}, boundary {d.boundary} needs {final}"
        )
    return out


def oracle_traverse(
    d: MorseDiagram, preferred_starts: Sequence[Tuple[int, int]] = ()
) -> TraversalRecord:
    """Walk every component, labelling crossing lines and counting extrema."""
    all_dirs = oracle_strand_dirs(d)
    for g, p in preferred_starts:
        if not (0 <= g < len(all_dirs) and 0 <= p < len(all_dirs[g])):
            raise DiagramError(f"basepoint {(g, p)} outside the diagram")
        if all_dirs[g][p] != "u":
            raise DiagramError(f"basepoint {(g, p)} is not on an upward strand")
    wanted = {g for g, _ in preferred_starts}

    # every edge's first point and direction; the event that ends an edge and
    # the edge the walk takes next (none past the top boundary)
    first: List[Tuple[int, int]] = []
    upward: List[bool] = []
    event: Dict[int, Tuple] = {}
    after: Dict[int, int] = {}

    def new_edges(g: int, q: int, dirs: Tuple[str, str]) -> List[int]:
        """The two edges slice g makes at positions q, q + 1."""
        first.extend(((g + 1, q), (g + 1, q + 1)))
        upward.extend(x == "u" for x in dirs)
        return [len(first) - 2, len(first) - 1]

    if d.boundary == "open":
        first.append((0, 0))
        upward.append(True)
    row = list(range(len(first)))
    rows = {0: list(row)} if 0 in wanted else {}
    for g, s in enumerate(d.slices):
        q = s.pos
        if s.kind.is_cup:
            a, b = new_edges(g, q, _CUP_DIRS[s.kind])
            down, up = (b, a) if upward[a] else (a, b)
            event[down], after[down] = ("ext", EXTREMUM_TYPE[s.kind]), up
            row[q:q] = [a, b]
        elif s.kind.is_cap:
            a, b = row[q], row[q + 1]
            up, down = (a, b) if upward[a] else (b, a)
            event[up], after[up] = ("ext", EXTREMUM_TYPE[s.kind]), down
            del row[q : q + 2]
        else:
            a, b = row[q], row[q + 1]
            row[q : q + 2] = left, right = new_edges(g, q, ("u", "u"))
            event[a], after[a] = ("line", g, "L"), right
            event[b], after[b] = ("line", g, "R"), left
        if g + 1 in wanted:
            rows[g + 1] = list(row)

    visited = [False] * len(first)
    components: List[ComponentRecord] = []

    def start_component(e: Optional[int], start: Tuple[int, int], is_open: bool) -> None:
        if visited[e]:
            return
        events: List[Tuple] = []
        while e is not None and not visited[e]:
            visited[e] = True
            if e in event:
                events.append(event[e])
            e = after.get(e)
        extrema = tuple(ev[1] for ev in events if ev[0] == "ext")
        cw = sum(1 for t in extrema if t in _CLOCKWISE)
        whitney2 = cw - (len(extrema) - cw)
        if whitney2 % 2:
            raise DiagramValidationError("odd extremum imbalance on a component")
        # one pass from the end: u_d / u_u count the extrema after each line
        labels = []
        ud = uu = 0
        for ev in reversed(events):
            if ev[0] == "ext":
                t = ev[1]
                if t == "d+":
                    ud += 1
                elif t == "d-":
                    ud -= 1
                elif t == "u+":
                    uu += 1
                else:
                    uu -= 1
            else:
                _, crossing, side = ev
                labels.append(
                    LineLabel(crossing, _tensorand(d.slices[crossing].kind, side), ud, uu)
                )
        labels.reverse()
        components.append(
            ComponentRecord(
                is_open, start, tuple(labels), extrema, whitney2 // 2, tuple(events)
            )
        )

    if d.boundary == "open":
        start_component(0, (0, 0), True)
    for g, p in preferred_starts:
        start_component(rows[g][p], (g, p), False)
    for e, point in enumerate(first):
        if upward[e]:
            start_component(e, point, False)
    if not all(visited):
        missing = first[visited.index(False)]
        raise DiagramValidationError(f"edge from {missing} not on any component")
    return TraversalRecord(tuple(components))


# -- the unreduced skein recursion -------------------------------------------


def oracle_skein(d: MorseDiagram, memo) -> SkeinPolynomial:
    """H(d) by switching d toward its descending diagram, word for word."""
    key = d.key()
    hit = memo.get(key)
    if hit is not None:
        return hit
    record = oracle_traverse(d)
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
    value = value + _descending_value(switched, record)
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
    dirs = strand_dirs(d)
    out = []
    for index in range(len(d.slices) + 1):
        for p in range(len(dirs[index]) + 1):
            try:
                apply_move(d, move, (index, p))
            except MoveError:
                continue
            out.append((index, p))
    return out
