"""Oriented tangle, knot and link diagrams as validated Morse words.

A diagram is a bottom-to-top sequence of elementary slices acting on a row of
strands:

  cup_ccw p   create strands (down, up) at positions p, p+1   (type u+)
  cup_cw  p   create strands (up, down)                       (type d-)
  cap_ccw p   consume strands (down, up)                      (type d+)
  cap_cw  p   consume strands (up, down)                      (type u-)
  xp      p   positive crossing of two upward strands
  xn      p   negative crossing of two upward strands

Only upward-pointing crossings are representable; every other crossing
orientation is reachable by composing with cups and caps (the twist
equivalences), which pushes all automorphism bookkeeping into one extremum
counter u per crossing line.  Clockwise extrema are cap_cw and cup_cw; the
Whitney degree of a closed component is (clockwise - counterclockwise) / 2.

For a positive crossing the strand entering on the left passes over; for a
negative crossing the strand entering on the right passes over.  Decoration
sides (which tensor factor of the crossing's tensor-square element rides
which line) follow the same rule: the first factor rides the over strand.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import (
    Collection, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple,
)

__all__ = [
    "DiagramError",
    "DiagramSyntaxError",
    "DiagramValidationError",
    "MoveError",
    "SliceKind",
    "Slice",
    "MorseDiagram",
    "parse_diagram",
    "read_int",
    "validate",
    "serialize",
    "traverse",
    "TraversalRecord",
    "ComponentRecord",
    "LineLabel",
    "stats",
    "DiagramStats",
    "compose_tangles",
    "cut_open",
    "crossing_triple",
    "orientation_reverse",
    "mirror",
    "builtin",
    "builtin_names",
    "MOVES",
    "apply_move",
    "move_sites",
    "insertion_sites",
]


class DiagramError(ValueError):
    pass


class DiagramSyntaxError(DiagramError):
    pass


class DiagramValidationError(DiagramError):
    pass


class MoveError(DiagramError):
    pass


class SliceKind(enum.Enum):
    CUP_CCW = "cup_ccw"
    CUP_CW = "cup_cw"
    CAP_CCW = "cap_ccw"
    CAP_CW = "cap_cw"
    X_POS = "xp"
    X_NEG = "xn"

    # members are singletons: hash them by identity, at C speed
    __hash__ = object.__hash__

    @cached_property
    def is_cup(self) -> bool:
        return self in (SliceKind.CUP_CCW, SliceKind.CUP_CW)

    @cached_property
    def is_cap(self) -> bool:
        return self in (SliceKind.CAP_CCW, SliceKind.CAP_CW)

    @cached_property
    def is_crossing(self) -> bool:
        return self in (SliceKind.X_POS, SliceKind.X_NEG)


# the crossing kinds, read in per-slice code: a module global is a dict read,
# an enum member read through its class several times slower
_X_POS, _X_NEG = SliceKind.X_POS, SliceKind.X_NEG

# extremum types keyed by slice kind: u+/u- twist t_u, d+/d- twist t_d;
# cw extrema are {u-, d-}
EXTREMUM_TYPE = {
    SliceKind.CUP_CCW: "u+",
    SliceKind.CUP_CW: "d-",
    SliceKind.CAP_CCW: "d+",
    SliceKind.CAP_CW: "u-",
}

_CLOCKWISE = {"u-", "d-"}

# directions created by cups / required by caps, as (left, right)
_CUP_DIRS = {SliceKind.CUP_CCW: ("d", "u"), SliceKind.CUP_CW: ("u", "d")}
_CAP_DIRS = {SliceKind.CAP_CCW: ("d", "u"), SliceKind.CAP_CW: ("u", "d")}


class Slice(NamedTuple):
    """One slice of a Morse word: ``kind`` acting at strand position ``pos``.

    A tuple underneath, so that words hash at C speed (the skein memo is
    keyed by them); a slice still equals only another slice.
    """

    kind: SliceKind
    pos: int

    def __repr__(self) -> str:
        return f"{self.kind.value} {self.pos}"

    def __eq__(self, other) -> bool:
        return other.__class__ is Slice and tuple.__eq__(self, other)

    def __ne__(self, other) -> bool:
        return not self == other

    __hash__ = tuple.__hash__


@dataclass(frozen=True)
class MorseDiagram:
    slices: Tuple[Slice, ...]
    boundary: str = "closed"  # "closed" | "open"

    def __post_init__(self):
        if self.boundary not in ("closed", "open"):
            raise DiagramError(f"unknown boundary {self.boundary!r}")
        object.__setattr__(self, "slices", tuple(self.slices))

    def __repr__(self) -> str:
        return f"MorseDiagram({serialize(self, sep=' / ')})"

    @property
    def crossing_count(self) -> int:
        return sum(1 for s in self.slices if s.kind.is_crossing)

    def with_slices(self, slices: Iterable[Slice]) -> "MorseDiagram":
        return MorseDiagram(tuple(slices), self.boundary)

    def key(self) -> Tuple:
        return (self.boundary, self.slices)


def word(*tokens: Tuple[str, int] | Slice, boundary: str = "closed") -> MorseDiagram:
    slices = [
        t if isinstance(t, Slice) else Slice(SliceKind(t[0]), t[1]) for t in tokens
    ]
    return MorseDiagram(tuple(slices), boundary)


# -- parsing / serialization --------------------------------------------------


_DECIMAL = re.compile(r"-?[0-9]+")


def read_int(token: str) -> int:
    """The integer that ASCII decimal text names: digits after an optional
    leading ``-``, nothing else (no ``+``, ``_``, space or other digits).

    Raises ValueError for any other text.
    """
    if not _DECIMAL.fullmatch(token):
        raise ValueError(f"{token!r} is not a decimal integer")
    return int(token)


def parse_diagram(text: str) -> MorseDiagram:
    """Parse the slice-token grammar; `/` and newlines both separate slices.

    An optional header ``boundary: closed|open`` sets the boundary; the
    default is closed.  There is at most one header, before the first slice,
    with exactly one of those values.  Positions are read by ``read_int``.
    The result is validated.
    """
    tokens: List[Slice] = []
    declared = None
    for lineno, raw_line in enumerate(text.splitlines() or [""], start=1):
        for chunk in raw_line.split("/"):
            chunk = chunk.strip()
            if not chunk or chunk.startswith("#"):
                continue
            if chunk.startswith("boundary:"):
                value = chunk.split(":", 1)[1].strip()
                if declared is not None:
                    raise DiagramSyntaxError(f"line {lineno}: a second boundary header")
                if tokens:
                    raise DiagramSyntaxError(
                        f"line {lineno}: boundary header after the first slice"
                    )
                if value not in ("closed", "open"):
                    raise DiagramSyntaxError(
                        f"line {lineno}: boundary {value!r} is not closed or open"
                    )
                declared = value
                continue
            parts = chunk.split()
            if len(parts) != 2:
                raise DiagramSyntaxError(
                    f"line {lineno}: expected '<kind> <position>', got {chunk!r}"
                )
            kind_token, pos_token = parts
            try:
                kind = SliceKind(kind_token)
            except ValueError:
                raise DiagramSyntaxError(
                    f"line {lineno}: unknown slice kind {kind_token!r}"
                ) from None
            try:
                pos = read_int(pos_token)
            except ValueError:
                raise DiagramSyntaxError(
                    f"line {lineno}: bad position {pos_token!r}"
                ) from None
            if pos < 0:
                raise DiagramSyntaxError(f"line {lineno}: negative position {pos}")
            tokens.append(Slice(kind, pos))
    d = MorseDiagram(tuple(tokens), declared or "closed")
    validate(d)
    return d


def serialize(d: MorseDiagram, sep: str = "\n") -> str:
    body = sep.join(f"{s.kind.value} {s.pos}" for s in d.slices)
    head = f"boundary: {d.boundary}"
    return head + (sep + body if body else "")


# -- validation and linking ---------------------------------------------------


_EXT_EVENT = {kind: ("ext", t) for kind, t in EXTREMUM_TYPE.items()}
# (left, right) leg is upward, for the legs a cup makes or a cap needs
_UP = {
    kind: (left == "u", right == "u")
    for kind, (left, right) in {**_CUP_DIRS, **_CAP_DIRS}.items()
}


def _dirs(upward: List[bool], edges: Iterable[int]) -> List[str]:
    return ["u" if upward[e] else "d" for e in edges]


def _link(
    d: MorseDiagram,
    keep: Collection[int] = (),
    below: Optional[Sequence[str]] = None,
    above: Optional[Sequence[str]] = None,
) -> Tuple:
    """Check the word of ``d`` and link its strand edges, in one pass.

    An edge runs from the slice that makes it (a cup, a crossing, or the
    bottom boundary) to the slice that consumes it (a cap, a crossing, or the
    top boundary).  Edges are numbered as they are made: the strands at the
    bottom (the open strand of a tangle) come first, and each cup or crossing
    makes the next two, left to right.  Upward edges are walked up and
    downward edges down, so each edge ends in at most one event and hands the
    walk on to one edge: a crossing to its other output, a cap down its other
    leg, and the cup that made a downward edge up its other leg.

    ``below`` and ``above`` are the strand directions ("u" or "d") at the
    bottom and the top, the boundary's by default: one upward strand for an
    open diagram, none for a closed one.

    Returns ``(upward, event, after, rows)``: whether each edge points up,
    the event that ends it and the edge the walk takes next (None past the
    boundary), and for each gap in ``keep`` the edges there, left to right.
    Raises DiagramValidationError at the first slice, bottom to top, that has
    a negative position, reaches past the strands, or meets legs pointing the
    wrong way; then if the strands left at the top are not ``above``.
    """
    boundary_row = ("u",) if d.boundary == "open" else ()
    below = boundary_row if below is None else below
    e = len(below)  # the next edge a slice makes
    size = e + 2 * len(d.slices)  # edges at most; trimmed to e at the end
    # the bottom strands as given; a made edge points up unless its cup says not
    upward: List[bool] = [x == "u" for x in below] + [True] * (size - e)
    event: List[Optional[Tuple]] = [None] * size
    after: List[Optional[int]] = [None] * size
    row = list(range(e))
    rows = {0: list(row)} if 0 in keep else {}
    for g, s in enumerate(d.slices):
        kind, q = s
        if q < 0:
            raise DiagramValidationError(f"slice {g} ({s}): negative position")
        if kind.is_cup:
            if q > len(row):
                raise DiagramValidationError(
                    f"slice {g} ({s}): position beyond {len(row)} strands"
                )
            upward[e : e + 2] = _UP[kind]
            # the downward leg ends at the cup and turns up the other leg
            down, up = (e + 1, e) if upward[e] else (e, e + 1)
            event[down], after[down] = _EXT_EVENT[kind], up
            row[q:q] = (e, e + 1)
            e += 2
        else:
            if q + 1 > len(row) - 1:
                raise DiagramValidationError(
                    f"slice {g} ({s}): needs strands {q},{q + 1}, have {len(row)}"
                )
            a, b = row[q], row[q + 1]
            if kind.is_cap:
                if (upward[a], upward[b]) != _UP[kind]:
                    raise DiagramValidationError(
                        f"slice {g} ({s}): needs directions {_CAP_DIRS[kind]}, "
                        f"found {tuple(_dirs(upward, (a, b)))}"
                    )
                up, down = (a, b) if upward[a] else (b, a)
                event[up], after[up] = _EXT_EVENT[kind], down
                del row[q : q + 2]
            else:
                if not (upward[a] and upward[b]):
                    raise DiagramValidationError(
                        f"slice {g} ({s}): crossings need two upward strands, "
                        f"found {tuple(_dirs(upward, (a, b)))}"
                    )
                event[a], after[a] = ("line", g, "L"), e + 1
                event[b], after[b] = ("line", g, "R"), e
                row[q : q + 2] = (e, e + 1)
                e += 2
        if keep and g + 1 in keep:
            rows[g + 1] = list(row)
    final = list(boundary_row if above is None else above)
    if _dirs(upward, row) != final:
        raise DiagramValidationError(
            f"diagram ends with strands {_dirs(upward, row)}, "
            f"boundary {d.boundary} needs {final}"
        )
    del upward[e:], event[e:], after[e:]
    return upward, event, after, rows


def validate(d: MorseDiagram) -> None:
    """Raise DiagramValidationError unless the word passes ``_link``'s check."""
    _link(d)


def strand_dirs(d: MorseDiagram) -> List[List[str]]:
    """Strand directions at every gap 0..len(slices); raises as ``validate``.

    Read off the edges ``_link`` keeps at each gap.
    """
    gaps = range(len(d.slices) + 1)
    upward, _, _, rows = _link(d, gaps)
    return [_dirs(upward, rows[g]) for g in gaps]


# -- traversal ----------------------------------------------------------------


class LineLabel(NamedTuple):
    """One crossing line met during traversal.

    ``crossing`` is the slice index of the crossing, ``tensorand`` 0 or 1 (the
    factor of the crossing's tensor-square element riding this line), and
    ``u`` the twist exponent: the d+ minus the d- extrema from this line to
    the end of the traversal (back to the basepoint for closed components).
    Caps and cups alternate along a component, so u is also the u+ minus
    u- count and minus the Whitney degree of the rest of the walk; the bead
    on this line is twisted by t_d^u o t_u^u.

    A tuple underneath, so that the labels every skein node's traversal makes
    are cheap to build; a label still equals only another label.
    """

    crossing: int
    tensorand: int
    u: int

    def __eq__(self, other) -> bool:
        return other.__class__ is LineLabel and tuple.__eq__(self, other)

    def __ne__(self, other) -> bool:
        return not self == other

    __hash__ = tuple.__hash__


@dataclass(frozen=True)
class ComponentRecord:
    is_open: bool
    start: Tuple[int, int]
    labels: Tuple[LineLabel, ...]
    extrema: Tuple[str, ...]
    whitney: int
    events: Tuple[Tuple, ...] = ()


@dataclass(frozen=True)
class TraversalRecord:
    components: Tuple[ComponentRecord, ...]

    @property
    def whitney_degrees(self) -> Tuple[int, ...]:
        return tuple(c.whitney for c in self.components)


def _tensorand(kind: SliceKind, side: str) -> int:
    if kind is _X_POS:
        return 0 if side == "L" else 1
    return 1 if side == "L" else 0


def traverse(
    d: MorseDiagram, preferred_starts: Sequence[Tuple[int, int]] = ()
) -> TraversalRecord:
    """Walk every component, labelling crossing lines and counting extrema.

    ``_link`` checks the word (raising what ``validate`` raises) and links
    the strand edges, keeping the edges at the gaps of the basepoints; the
    basepoints are checked against those after the word.  The walk then
    follows each component edge to edge.

    The open strand of a tangle is walked first, from the bottom boundary to
    the top.  ``preferred_starts`` then seeds components at explicit upward
    points (basepoint overrides).  Every other component starts at its first
    upward point in scan order (gaps bottom-to-top, positions left-to-right),
    which is the first point of one of its upward edges.  Closed components
    cycle back to their basepoint.
    """
    slices = d.slices
    upward, event, after, rows = _link(d, {g for g, _ in preferred_starts})
    for g, p in preferred_starts:
        if not (0 <= g <= len(slices) and 0 <= p < len(rows[g])):
            raise DiagramError(f"basepoint {(g, p)} outside the diagram")
        if not upward[rows[g][p]]:
            raise DiagramError(f"basepoint {(g, p)} is not on an upward strand")

    visited = [False] * len(upward)
    components: List[ComponentRecord] = []

    def walk(e: int, start: Tuple[int, int], is_open: bool) -> None:
        events: List[Tuple] = []
        while e is not None and not visited[e]:
            visited[e] = True
            if event[e] is not None:
                events.append(event[e])
            e = after[e]
        # one pass from the end: u counts the d+ minus d- extrema after each line
        labels = []
        extrema = []
        u = 0
        for ev in reversed(events):
            if ev[0] == "ext":
                t = ev[1]
                extrema.append(t)
                u += (t == "d+") - (t == "d-")
            else:
                _, crossing, side = ev
                labels.append(
                    LineLabel(crossing, _tensorand(slices[crossing].kind, side), u)
                )
        cw = sum(1 for t in extrema if t in _CLOCKWISE)
        whitney2 = cw - (len(extrema) - cw)
        if whitney2 % 2:
            raise DiagramValidationError("odd extremum imbalance on a component")
        labels.reverse()
        extrema.reverse()
        components.append(
            ComponentRecord(
                is_open, start, tuple(labels), tuple(extrema), whitney2 // 2,
                tuple(events),
            )
        )

    if d.boundary == "open":
        walk(0, (0, 0), True)
    for g, p in preferred_starts:
        e = rows[g][p]
        if not visited[e]:
            walk(e, (g, p), False)
    # each cup or crossing g makes the next two edges (see _link), whose first
    # points (g + 1, q) and (g + 1, q + 1) come in scan order
    e = int(d.boundary == "open")
    for g, (kind, q) in enumerate(slices):
        if not kind.is_cap:
            for k in (0, 1):
                if upward[e + k] and not visited[e + k]:
                    walk(e + k, (g + 1, q + k), False)
            e += 2
    if not all(visited):
        missing = visited.index(False)
        raise DiagramValidationError(f"edge {missing} not on any component")
    return TraversalRecord(tuple(components))


def upward_points(d: MorseDiagram) -> List[Tuple[int, int]]:
    """All admissible basepoints: upward points in scan order."""
    all_dirs = strand_dirs(d)
    return [
        (g, p)
        for g in range(len(all_dirs))
        for p in range(len(all_dirs[g]))
        if all_dirs[g][p] == "u"
    ]


# -- statistics ---------------------------------------------------------------


@dataclass(frozen=True)
class DiagramStats:
    writhe: int
    whitney: Tuple[int, ...]

    @property
    def total_whitney(self) -> int:
        return sum(self.whitney)


def stats(d: MorseDiagram) -> DiagramStats:
    """Writhe (sum of crossing signs) and per-component Whitney degrees."""
    writhe = 0
    for s in d.slices:
        if s.kind is _X_POS:
            writhe += 1
        elif s.kind is _X_NEG:
            writhe -= 1
    record = traverse(d)
    return DiagramStats(writhe, record.whitney_degrees)


# -- composition and reversal ---------------------------------------------------


def compose_tangles(t1: MorseDiagram, t2: MorseDiagram) -> MorseDiagram:
    """Vertical concatenation of open tangles, t1 below t2."""
    if t1.boundary != "open" or t2.boundary != "open":
        raise DiagramError("compose_tangles needs two open tangles")
    return MorseDiagram(t1.slices + t2.slices, "open")


def cut_open(d: MorseDiagram) -> MorseDiagram:
    """The 1-1 tangle obtained by cutting a closed diagram along its left arc.

    ``d`` must open with ``cup_ccw 0``, close with ``cap_ccw 0`` and have no
    other slice at position 0, so that the downward arc at position 0 joins
    the two extrema untouched.  Dropping both extrema and that arc leaves the
    upward strand at position 1 running from bottom to top; every remaining
    slice moves down one position.
    """
    if d.boundary != "closed":
        raise DiagramError("cut_open needs a closed diagram")
    validate(d)
    first, last = Slice(SliceKind.CUP_CCW, 0), Slice(SliceKind.CAP_CCW, 0)
    if len(d.slices) < 2 or d.slices[0] != first or d.slices[-1] != last:
        raise DiagramError(
            "cut_open needs a diagram that opens with cup_ccw 0 and closes with cap_ccw 0"
        )
    inner = d.slices[1:-1]
    for idx, s in enumerate(inner, start=1):
        if s.pos == 0:
            raise DiagramError(
                f"cut_open: slice {idx} ({s}) touches the arc at position 0"
            )
    return MorseDiagram(tuple(Slice(s.kind, s.pos - 1) for s in inner), "open")


# the crossing of the other sign
_SWITCH = {_X_POS: _X_NEG, _X_NEG: _X_POS}


def crossing_triple(
    d: MorseDiagram, index: int
) -> Tuple[MorseDiagram, MorseDiagram, MorseDiagram]:
    """The skein triple (L+, L-, L0) at the crossing slice ``index`` of ``d``.

    L+ and L- carry xp and xn at that slice and agree with ``d`` elsewhere;
    the one whose sign ``d`` already has is ``d`` itself.  L0 is ``d`` with
    the crossing slice removed (its oriented smoothing).
    """
    s = d.slices[index]
    if not s.kind.is_crossing:
        raise DiagramError(f"slice {index} ({s}) is not a crossing")
    before, after = d.slices[:index], d.slices[index + 1 :]
    switched = d.with_slices(before + (Slice(_SWITCH[s.kind], s.pos),) + after)
    smoothed = d.with_slices(before + after)
    if s.kind is _X_POS:
        return d, switched, smoothed
    return switched, d, smoothed


_REVERSE_KIND = {
    SliceKind.CUP_CCW: SliceKind.CAP_CW,
    SliceKind.CUP_CW: SliceKind.CAP_CCW,
    SliceKind.CAP_CCW: SliceKind.CUP_CW,
    SliceKind.CAP_CW: SliceKind.CUP_CCW,
    SliceKind.X_POS: SliceKind.X_POS,
    SliceKind.X_NEG: SliceKind.X_NEG,
}


def orientation_reverse(d: MorseDiagram) -> MorseDiagram:
    """The diagram with all orientations reversed, re-normalized upward.

    Reversing every arrow turns all crossings downward; rotating the plane by
    a half turn restores them.  Net effect on the Morse word: reverse the
    slice order, swap cups and caps (a clockwise cap becomes a
    counterclockwise cup and so on), mirror positions, keep crossing signs.
    """
    all_dirs = strand_dirs(d)
    out: List[Slice] = []
    for idx in range(len(d.slices) - 1, -1, -1):
        s = d.slices[idx]
        kind = _REVERSE_KIND[s.kind]
        if s.kind.is_cup:
            width = len(all_dirs[idx + 1])  # legs live above the cup
        else:
            width = len(all_dirs[idx])
        out.append(Slice(kind, width - 2 - s.pos))
    rev = MorseDiagram(tuple(out), d.boundary)
    validate(rev)
    return rev


def mirror(d: MorseDiagram) -> MorseDiagram:
    """Switch every crossing (xp <-> xn)."""
    return d.with_slices(
        Slice(_SWITCH.get(s.kind, s.kind), s.pos) for s in d.slices
    )


# -- builtin catalogue ----------------------------------------------------------


def _curl_word(loop_right: bool, positive: bool) -> List[Tuple[str, int]]:
    x = "xp" if positive else "xn"
    if loop_right:
        return [("cup_cw", 1), (x, 0), ("cap_cw", 1)]
    return [("cup_ccw", 0), (x, 1), ("cap_ccw", 0)]


def _closed_curl_family(loop_right: bool, positive: bool, m: int) -> MorseDiagram:
    if m < 0:
        raise DiagramError("curl count must be >= 0")
    toks: List[Tuple[str, int]] = []
    if loop_right:
        toks.append(("cup_ccw", 0))
        toks += m * [("cup_cw", 2), ("xp" if positive else "xn", 1), ("cap_cw", 2)]
        toks.append(("cap_ccw", 0))
    else:
        toks.append(("cup_cw", 0))
        toks += m * [("cup_ccw", 0), ("xp" if positive else "xn", 1), ("cap_ccw", 0)]
        toks.append(("cap_cw", 0))
    return word(*toks)


_FIXED_BUILTINS: Dict[str, MorseDiagram] = {
    "curl": word(*_curl_word(True, True), boundary="open"),
    "trefoil_tangle": word(
        ("cup_ccw", 0), ("xp", 1), ("xp", 1), ("xp", 1), ("cap_ccw", 0),
        boundary="open",
    ),
    "trefoil_knot": word(
        ("cup_ccw", 0), ("cup_cw", 2),
        ("xp", 1), ("xp", 1), ("xp", 1),
        ("cap_cw", 2), ("cap_ccw", 0),
    ),
    "hopf": word(
        ("cup_ccw", 0), ("cup_cw", 2),
        ("xp", 1), ("xp", 1),
        ("cap_cw", 2), ("cap_ccw", 0),
    ),
    "figure8_knot": word(
        ("cup_ccw", 0), ("cup_ccw", 1), ("cup_ccw", 2),
        ("xp", 3), ("xn", 4), ("xp", 3), ("xn", 4),
        ("cap_ccw", 2), ("cap_ccw", 1), ("cap_ccw", 0),
    ),
    "unknot_ccw": word(("cup_ccw", 0), ("cap_ccw", 0)),
    "unknot_cw": word(("cup_cw", 0), ("cap_cw", 0)),
}

_CURL_FAMILIES = {
    "c_r_plus": (True, True),
    "c_r_minus": (True, False),
    "c_l_plus": (False, True),
    "c_l_minus": (False, False),
}


def builtin(name: str, m: Optional[int] = None) -> MorseDiagram:
    """Catalogue diagrams; only the curl families take the kink count m."""
    if m is not None and (name == "curl_op" or name in _FIXED_BUILTINS):
        raise DiagramError(f"builtin {name!r} takes no count")
    if name == "curl_op":
        return orientation_reverse(builtin("curl"))
    if name in _FIXED_BUILTINS:
        d = _FIXED_BUILTINS[name]
        validate(d)
        return d
    if name in _CURL_FAMILIES:
        if m is None:
            raise DiagramError(f"builtin {name!r} needs a kink count m")
        loop_right, positive = _CURL_FAMILIES[name]
        d = _closed_curl_family(loop_right, positive, m)
        validate(d)
        return d
    raise DiagramError(f"unknown builtin diagram {name!r}")


def builtin_names() -> List[str]:
    return sorted(list(_FIXED_BUILTINS) + ["curl_op"] + list(_CURL_FAMILIES))


# -- regular-isotopy moves -------------------------------------------------------

_K = SliceKind
# each move: list of (lhs, rhs) pattern pairs; a pattern is a tuple of
# (kind, offset) instantiated at a base position p
MOVES: Dict[str, List[Tuple[Tuple, Tuple]]] = {
    # cancelling zig-zags (four chiralities grouped by shape)
    "M1a": [
        (((_K.CUP_CCW, 1), (_K.CAP_CW, 0)), ()),
        (((_K.CUP_CCW, 0), (_K.CAP_CW, 1)), ()),
    ],
    "M1b": [
        (((_K.CUP_CW, 0), (_K.CAP_CCW, 1)), ()),
        (((_K.CUP_CW, 1), (_K.CAP_CCW, 0)), ()),
    ],
    # cancelling opposite crossings
    "M2": [(((_K.X_POS, 0), (_K.X_NEG, 0)), ())],
    "M2rev": [(((_K.X_NEG, 0), (_K.X_POS, 0)), ())],
    # braid relation
    "M3": [
        (
            ((_K.X_POS, 0), (_K.X_POS, 1), (_K.X_POS, 0)),
            ((_K.X_POS, 1), (_K.X_POS, 0), (_K.X_POS, 1)),
        )
    ],
    "M3rev": [
        (
            ((_K.X_NEG, 0), (_K.X_NEG, 1), (_K.X_NEG, 0)),
            ((_K.X_NEG, 1), (_K.X_NEG, 0), (_K.X_NEG, 1)),
        )
    ],
    # sliding a strand under the far leg of a cap / cup (rotation moves)
    "M4a": [
        (
            ((_K.X_POS, 0), (_K.CAP_CW, 1)),
            ((_K.CUP_CCW, 1), (_K.X_POS, 2), (_K.CAP_CW, 3), (_K.CAP_CW, 0)),
        )
    ],
    "M4rev_a": [
        (
            ((_K.X_NEG, 0), (_K.CAP_CW, 1)),
            ((_K.CUP_CCW, 1), (_K.X_NEG, 2), (_K.CAP_CW, 3), (_K.CAP_CW, 0)),
        )
    ],
    "M4b": [
        (
            ((_K.CUP_CCW, 0), (_K.X_POS, 1)),
            ((_K.CUP_CCW, 1), (_K.CUP_CCW, 0), (_K.X_POS, 1), (_K.CAP_CW, 2)),
        )
    ],
    "M4rev_b": [
        (
            ((_K.CUP_CCW, 0), (_K.X_NEG, 1)),
            ((_K.CUP_CCW, 1), (_K.CUP_CCW, 0), (_K.X_NEG, 1), (_K.CAP_CW, 2)),
        )
    ],
    # cancelling opposite kinks on opposite loop sides (Whitney pairs)
    "TwistR": [
        (
            (
                (_K.CUP_CW, 1), (_K.X_POS, 0), (_K.CAP_CW, 1),
                (_K.CUP_CCW, 0), (_K.X_NEG, 1), (_K.CAP_CCW, 0),
            ),
            (),
        )
    ],
    "TwistL": [
        (
            (
                (_K.CUP_CCW, 0), (_K.X_POS, 1), (_K.CAP_CCW, 0),
                (_K.CUP_CW, 1), (_K.X_NEG, 0), (_K.CAP_CW, 1),
            ),
            (),
        )
    ],
}


def _instantiate(pattern: Tuple, p: int) -> Tuple[Slice, ...]:
    return tuple(Slice(kind, p + off) for kind, off in pattern)


def _matches(d: MorseDiagram, index: int, pattern: Tuple, p: int) -> bool:
    """Whether ``pattern``, based at ``p``, is the window of ``d`` that
    starts at slice ``index``; an empty pattern matches nothing."""
    window = d.slices[index : index + len(pattern)]
    if not pattern or len(window) != len(pattern):
        return False
    for (kind, pos), (want, off) in zip(window, pattern):
        if kind is not want or pos != p + off:
            return False
    return True


def _patterns(move: str) -> List[Tuple[Tuple, Tuple]]:
    try:
        return MOVES[move]
    except KeyError:
        raise MoveError(f"unknown move {move!r}") from None


def _rewrites(
    d: MorseDiagram, patterns: List[Tuple[Tuple, Tuple]], index: int, p: int
) -> List[Tuple[Tuple, Tuple]]:
    """The (old, new) pattern pairs ``apply_move`` tries at site (index, p).

    Whichever side of a pattern pair matches the window at the site is old;
    when neither does, an empty side makes an insertion, with old empty.
    """
    out = []
    for lhs, rhs in patterns:
        if _matches(d, index, lhs, p):
            out.append((lhs, rhs))
        elif _matches(d, index, rhs, p):
            out.append((rhs, lhs))
        elif not rhs:
            out.append(((), lhs))
    return out


def apply_move(
    d: MorseDiagram, move: str, site: Tuple[int, int]
) -> MorseDiagram:
    """Rewrite the slice window at ``site`` = (slice index, base position).

    Whichever side of the move matches the window is replaced by the other
    side; for cancellation moves an empty side means insertion at the site.
    The slice index must lie in 0..len(slices).  The rewritten diagram is
    validated before being returned.
    """
    patterns = _patterns(move)
    index, p = site
    if not 0 <= index <= len(d.slices):
        raise MoveError(f"slice index {index} outside 0..{len(d.slices)}")
    last_error: Optional[Exception] = None
    for old, new in _rewrites(d, patterns, index, p):
        slices = d.slices[:index] + _instantiate(new, p) + d.slices[index + len(old) :]
        candidate = d.with_slices(slices)
        try:
            validate(candidate)
            return candidate
        except DiagramValidationError as exc:
            last_error = exc
    raise MoveError(
        f"move {move} does not apply at slice {index}, position {p}"
        + (f": {last_error}" if last_error else "")
    )


def move_sites(d: MorseDiagram, move: str) -> List[Tuple[int, int]]:
    """All (index, position) sites where a non-empty side of ``move`` matches."""
    patterns = _patterns(move)
    max_p = max((s.pos for s in d.slices), default=0) + 3
    out = []
    for index in range(len(d.slices) + 1):
        for p in range(max_p):
            if any(
                _matches(d, index, side, p)
                for lhs, rhs in patterns
                for side in (lhs, rhs)
            ):
                out.append((index, p))
    return out


@lru_cache(maxsize=None)
def _reach(pattern: Tuple) -> int:
    """How many strands of the starting row, from its base position,
    ``pattern`` can read.

    A slice at offset o reads the strands at o and o + 1 of the row as it
    stands then, and each cap before it may have removed two strands to
    their left.  A starting row at least this wide passes every width check
    of the pattern.
    """
    reach = caps = 0
    for kind, off in pattern:
        reach = max(reach, off + 2 + 2 * caps)
        caps += kind.is_cap
    return reach


@lru_cache(maxsize=4096)
def _fits(pattern: Tuple, below: Tuple[str, ...], above: Tuple[str, ...]) -> bool:
    """Whether ``pattern``, based at 0, passes ``_link`` from the strand
    directions ``below`` and leaves ``above``."""
    try:
        _link(MorseDiagram(_instantiate(pattern, 0)), below=below, above=above)
    except DiagramValidationError:
        return False
    return True


def insertion_sites(d: MorseDiagram, move: str) -> List[Tuple[int, int]]:
    """Sites (index, position) where ``apply_move(d, move, site)`` succeeds.

    For a cancellation move these are the places where its empty side can be
    expanded (or, where its other side already stands, removed); for a move
    with no empty side, the matched windows whose rewrite validates.  Sites
    come gap by gap, bottom to top, positions left to right, each position
    from 0 to the number of strands at its gap.

    ``d`` is checked once, and every site is judged from the strand rows
    that check reads at its gaps.  Rewriting the window ``old`` at slice i
    into ``new`` leaves a valid word exactly when ``new`` passes the slice
    rules from the row at gap i and ends on the row at gap i + len(old): the
    slices below the window see what they saw in ``d``, and the slices above
    it, as ``d`` passed them, map distinct rows to distinct rows.  A window
    based at position p touches no strand left of p, and ``_reach`` bounds
    what it reads to the right, so ``_fits`` judges it on that stretch of
    the two rows and runs ``_link`` once per distinct stretch.

    So the search is one check of ``d`` and one pass over (gap, position),
    each site a window match and a cached lookup.  Validating every
    rewritten word, as ``apply_move`` does, costs slices x strands per site.
    """
    patterns = _patterns(move)
    dirs = [tuple(row) for row in strand_dirs(d)]
    out = []
    for index, row in enumerate(dirs):
        for p in range(len(row) + 1):
            for old, new in _rewrites(d, patterns, index, p):
                below = row[p:]
                above = dirs[index + len(old)][p:]
                # both windows carry the strands past their reach up unchanged
                # (old does so in d): drop them from both rows
                tail = max(len(below) - max(_reach(old), _reach(new)), 0)
                if _fits(new, below[: len(below) - tail], above[: len(above) - tail]):
                    out.append((index, p))
                    break
    return out
