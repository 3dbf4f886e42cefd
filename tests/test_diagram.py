import random
from typing import Tuple

import pytest

from oqa import (
    DiagramError,
    DiagramSyntaxError,
    DiagramValidationError,
    MorseDiagram,
    MoveError,
    Slice,
    SliceKind,
    apply_move,
    builtin,
    builtin_names,
    compose_tangles,
    cut_open,
    insertion_sites,
    mirror,
    move_sites,
    orientation_reverse,
    parse_diagram,
    serialize,
    stats,
    traverse,
)
from oqa.diagram import MOVES, strand_dirs, upward_points, validate, word


HOPF_TEXT = "cup_ccw 0 / cup_cw 2 / xp 1 / xp 1 / cap_cw 2 / cap_ccw 0"


def test_parse_hopf():
    d = parse_diagram(HOPF_TEXT)
    assert d.boundary == "closed"
    assert len(traverse(d).components) == 2
    assert d.key() == builtin("hopf").key()


def test_parse_empty():
    d = parse_diagram("")
    assert len(traverse(d).components) == 0


def test_parse_errors():
    with pytest.raises(DiagramValidationError):
        parse_diagram("xp 0")
    with pytest.raises(DiagramValidationError):
        parse_diagram("cup_ccw 0 / cap_cw 0")
    with pytest.raises(DiagramSyntaxError):
        parse_diagram("xq 0")
    with pytest.raises(DiagramSyntaxError):
        parse_diagram("xp")
    with pytest.raises(DiagramSyntaxError):
        parse_diagram("xp one")
    # a position is ASCII digits after an optional leading -; int() would
    # read each of these tokens as 1
    hopf = "cup_ccw 0 / cup_cw 2 / xp {} / xp 1 / cap_cw 2 / cap_ccw 0"
    assert parse_diagram(hopf.format(1)).key() == builtin("hopf").key()
    for token in ("0_1", "+1", "\u0661", "\uff11"):
        with pytest.raises(DiagramSyntaxError) as info:
            parse_diagram(hopf.format(token))
        assert str(info.value) == f"line 1: bad position {token!r}"
    # one boundary header, before the first slice, spelled exactly
    loop = "cup_ccw 0\ncap_ccw 0"
    for text, message in (
        ("boundary: open\nboundary: closed\n" + loop, "line 2: a second boundary header"),
        ("boundary: closed / boundary: closed / " + loop, "line 1: a second boundary header"),
        ("boundary:\n" + loop, "line 1: boundary '' is not closed or open"),
        ("boundary: Open\n" + loop, "line 1: boundary 'Open' is not closed or open"),
        ("cup_ccw 0 / boundary: closed / cap_ccw 0",
         "line 1: boundary header after the first slice"),
        (loop + "\nboundary: closed", "line 3: boundary header after the first slice"),
    ):
        with pytest.raises(DiagramSyntaxError) as info:
            parse_diagram(text)
        assert str(info.value) == message, text
    assert parse_diagram("# a loop\nboundary:closed\n" + loop).key() == builtin("unknot_ccw").key()


def test_validate_direction_rules():
    # cup_ccw makes (down, up); a clockwise cap needs (up, down)
    with pytest.raises(DiagramValidationError, match="directions"):
        parse_diagram("cup_ccw 0\ncap_cw 0")
    # crossings need two upward strands
    with pytest.raises(DiagramValidationError, match="upward"):
        parse_diagram("cup_ccw 0 / xp 0 / cap_ccw 0")
    # open tangles must end on a single upward strand
    with pytest.raises(DiagramValidationError):
        parse_diagram("boundary: open / cup_ccw 0")


def test_serialize_round_trip():
    names = [n for n in builtin_names() if not n.startswith("c_")]
    diagrams = [builtin(n) for n in names] + [
        builtin("c_r_plus", 2),
        builtin("c_l_minus", 1),
    ]
    for d in diagrams:
        assert parse_diagram(serialize(d)).key() == d.key()
        assert parse_diagram(serialize(d, sep=" / ")).key() == d.key()


def test_hopf_stats():
    st = stats(builtin("hopf"))
    assert st.writhe == 2
    assert tuple(sorted(st.whitney)) == (-1, 1)


def test_mirror_hopf_stats():
    st = stats(mirror(builtin("hopf")))
    assert st.writhe == -2
    assert tuple(sorted(st.whitney)) == (-1, 1)


def test_curl_stats():
    assert stats(builtin("curl")).writhe == 1
    assert stats(builtin("trefoil_knot")).writhe == 3
    assert stats(builtin("figure8_knot")).writhe == 0


def test_unknot_whitney():
    assert stats(builtin("unknot_ccw")).whitney == (-1,)
    assert stats(builtin("unknot_cw")).whitney == (1,)


@pytest.mark.parametrize("m", range(4))
def test_curl_family_whitney(m):
    assert stats(builtin("c_r_plus", m)).whitney == (m - 1,)
    assert stats(builtin("c_r_minus", m)).whitney == (m - 1,)
    assert stats(builtin("c_l_plus", m)).whitney == (1 - m,)
    assert stats(builtin("c_l_minus", m)).whitney == (1 - m,)
    assert stats(builtin("c_r_plus", m)).writhe == m
    assert stats(builtin("c_l_minus", m)).writhe == -m


def test_hopf_traversal_decorations():
    rec = traverse(builtin("hopf"))
    pattern = sorted(
        tuple((l.crossing, l.tensorand) for l in c.labels) for c in rec.components
    )
    # one component carries the first factors' pattern (0 then 1), the other
    # the complementary one
    assert pattern == [((2, 0), (3, 1)), ((2, 1), (3, 0))]
    # each crossing id appears exactly twice globally
    ids = [l.crossing for c in rec.components for l in c.labels]
    assert sorted(ids) == [2, 2, 3, 3]


def test_curl_traversal_counters():
    rec = traverse(builtin("curl"))
    labels = rec.components[0].labels
    assert [(l.tensorand, l.u) for l in labels] == [(0, -1), (1, 0)]


def test_trefoil_tangle_counters():
    rec = traverse(builtin("trefoil_tangle"))
    labels = rec.components[0].labels
    assert [(l.tensorand, l.u) for l in labels] == [
        (1, 1), (0, 1), (1, 1), (0, 0), (1, 0), (0, 0),
    ]
    assert [l.crossing for l in labels] == [1, 2, 3, 1, 2, 3]


def test_straight_strand():
    d = word(boundary="open")
    rec = traverse(d)
    assert len(rec.components) == 1
    assert rec.components[0].labels == ()
    assert rec.components[0].whitney == 0


@pytest.mark.parametrize(
    "name,m",
    [("hopf", None), ("trefoil_knot", None), ("figure8_knot", None),
     ("c_r_plus", 2), ("c_l_minus", 2), ("curl", None), ("trefoil_tangle", None)],
)
def test_counter_whitney_identity(name, m):
    """u(l) = -d(l), d(l) the Whitney degree of the remaining walk.

    The d+/d- and u+/u- suffix counts and the suffix Whitney degree are
    recomputed here from the raw interleaved event list, independently of the
    counter code path, and all three must give u.
    """
    d = builtin(name, m)
    _check_counters(traverse(d))
    for point in upward_points(d):
        _check_counters(traverse(d, [point]))


# (is_open, start, [(crossing, tensorand, u), ...]) per component, in
# traversal order; the CLI whitney lists follow this order
_PINNED_TRAVERSALS = [
    ("hopf", builtin("hopf"), (), [
        (False, (1, 1), [(2, 0, 1), (3, 1, 1)]),
        (False, (2, 2), [(2, 1, -1), (3, 0, -1)]),
    ]),
    ("trefoil_knot", builtin("trefoil_knot"), (), [
        (False, (1, 1), [(2, 0, 0), (3, 1, 0), (4, 0, 0),
                         (2, 1, 1), (3, 0, 1), (4, 1, 1)]),
    ]),
    ("figure8_knot", builtin("figure8_knot"), (), [
        (False, (1, 1), [(4, 0, 3), (5, 1, 3), (3, 0, 2), (4, 1, 2),
                         (6, 0, 2), (3, 1, 1), (5, 0, 1), (6, 1, 1)]),
    ]),
    ("open tangle with a closed component",
     word(("cup_cw", 1), ("xp", 0), ("cup_ccw", 0), ("xn", 1), ("xp", 2),
          ("cap_cw", 3), ("cap_ccw", 0), boundary="open"), (), [
        (True, (0, 0), [(1, 0, 0), (4, 1, 0)]),
        (False, (1, 1), [(1, 1, 0), (3, 0, 0), (3, 1, -1), (4, 0, -1)]),
    ]),
    ("hopf from (3, 2)", builtin("hopf"), [(3, 2)], [
        (False, (3, 2), [(3, 1, 1), (2, 0, 0)]),
        (False, (2, 2), [(2, 1, -1), (3, 0, -1)]),
    ]),
]


@pytest.mark.parametrize(
    "d,starts,want", [case[1:] for case in _PINNED_TRAVERSALS],
    ids=[case[0] for case in _PINNED_TRAVERSALS],
)
def test_traversal_order_pinned(d, starts, want):
    """Component order, start points and line labels of traverse."""
    got = [
        (c.is_open, c.start, [(l.crossing, l.tensorand, l.u) for l in c.labels])
        for c in traverse(d, starts).components
    ]
    assert got == want


def test_counter_whitney_identity_random():
    """The brute-force suffix check on seeded criterion-13 diagrams (closed
    and open) and mixed-sign braid closures, at every upward basepoint."""
    from test_acceptance import _random_small_diagram

    rng = random.Random(13)
    diagrams = [_random_small_diagram(rng) for _ in range(15)]
    diagrams += [_random_small_diagram(rng, "open") for _ in range(10)]
    for strands in (3, 4):
        for _ in range(4):
            gens = [
                (rng.choice(["xp", "xn"]), rng.randint(strands, 2 * strands - 2))
                for _ in range(rng.randint(4, 9))
            ]
            diagrams.append(_braid_closure(strands, *gens))
    for d in diagrams:
        _check_counters(traverse(d))
        for point in upward_points(d):
            _check_counters(traverse(d, [point]))


def _traverse_inputs(rng):
    """Every builtin (curl counts 0-3), seeded criterion-13 closed and open
    diagrams, and mixed-sign braid closures on 2-5 strands."""
    from test_acceptance import _random_small_diagram

    diagrams = []
    for name in builtin_names():
        if name.startswith("c_"):
            diagrams += [builtin(name, m) for m in range(4)]
        else:
            diagrams.append(builtin(name))
    diagrams += [_random_small_diagram(rng) for _ in range(15)]
    diagrams += [_random_small_diagram(rng, "open") for _ in range(10)]
    for strands in (2, 3, 4, 5):
        for _ in range(4):
            gens = [
                (rng.choice(["xp", "xn"]), rng.randint(strands, 2 * strands - 2))
                for _ in range(rng.randint(3, 9))
            ]
            diagrams.append(_braid_closure(strands, *gens))
    return diagrams


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the type and the message must agree
        return type(exc), str(exc)


def test_slices_and_labels_equal_only_their_own_kind():
    """Slice and LineLabel are tuples underneath, but equal only another of
    their own class; their hash is the hash of their fields' tuple."""
    from oqa.diagram import LineLabel

    for value, fields in (
        (Slice(SliceKind.X_POS, 1), (SliceKind.X_POS, 1)),
        (LineLabel(3, 1, -1), (3, 1, -1)),
    ):
        assert value == type(value)(*fields) and not value != type(value)(*fields)
        assert value != fields and fields != value and not value == fields
        assert hash(value) == hash(fields)
    assert Slice(SliceKind.X_POS, 1) != LineLabel(3, 1, -1)


def test_traverse_matches_oracle():
    """traverse and the word checker against the reference checker and
    walker (tests/oracles.py): equal records at every upward basepoint and
    equal strand_dirs tables, and the same error type and message from
    validate, strand_dirs and traverse on words broken by a dropped, retyped
    or moved slice or a swapped boundary, and from traverse on a basepoint off
    the upward strands, with or without a basepoint on the broken word."""
    from oracles import _directions, _walk_all

    rng = random.Random(17)
    diagrams = _traverse_inputs(rng)
    kinds = list(SliceKind)
    broken = []
    for d in diagrams:
        # record equality compares every field: components, starts, labels,
        # extrema, whitney degrees and events
        assert traverse(d) == _walk_all(d), d
        assert strand_dirs(d) == _directions(d), d
        for point in upward_points(d):
            assert traverse(d, [point]) == _walk_all(d, [point]), (d, point)
        n = len(d.slices)
        broken.append(MorseDiagram(d.slices, "open" if d.boundary == "closed" else "closed"))
        for _ in range(6):
            k = rng.randrange(n)
            s = d.slices[k]
            mutated = [
                d.slices[:k] + d.slices[k + 1 :],
                d.slices[:k] + (Slice(rng.choice(kinds), s.pos),) + d.slices[k + 1 :],
                d.slices[:k] + (Slice(s.kind, s.pos + rng.choice((-2, -1, 1, 2, 9))),)
                + d.slices[k + 1 :],
            ]
            broken += [MorseDiagram(m, d.boundary) for m in mutated]
    checked = negative = 0
    for d in broken:
        want = _outcome(_walk_all, d)
        assert _outcome(traverse, d) == want, d
        dirs = _outcome(_directions, d)
        assert _outcome(strand_dirs, d) == dirs, d
        assert _outcome(validate, d) == (dirs if isinstance(dirs, tuple) else None), d
        checked += isinstance(dirs, tuple)
        negative += isinstance(dirs, tuple) and dirs[1].endswith("negative position")
        # a broken word raises before its basepoint is judged
        point = [(1, 0)]
        assert _outcome(traverse, d, point) == _outcome(_walk_all, d, point), d
    assert checked > 500 and negative > 10
    for d in diagrams[:12]:
        gaps = len(d.slices) + 1
        points = [(gaps, 0), (0, 5), (-1, 0), (0, -1)] + [(g, 0) for g in range(gaps)]
        for point in points:
            assert _outcome(traverse, d, [point]) == _outcome(_walk_all, d, [point])


def test_negative_position_is_refused():
    """A crossing at -1 is not one between the last and first strands: every
    entry point that checks the word refuses it with one message, before any
    basepoint is judged, and the parser keeps its own syntax error."""
    from oqa import evaluate_tangle
    from test_acceptance import _example2

    d = word(("cup_cw", 0), ("xn", -1), ("cap_cw", 0), boundary="open")
    S = _example2(2)
    message = "slice 1 (xn -1): negative position"
    for call in (
        lambda: validate(d),
        lambda: strand_dirs(d),
        lambda: traverse(d),
        lambda: traverse(d, [(1, 0)]),
        lambda: upward_points(d),
        lambda: evaluate_tangle(S, d),
    ):
        with pytest.raises(DiagramValidationError) as info:
            call()
        assert str(info.value) == message
    with pytest.raises(DiagramSyntaxError, match="line 3: negative position -1"):
        parse_diagram("boundary: open\ncup_cw 0\nxn -1\ncap_cw 0")


def _check_counters(rec) -> None:
    from oqa.diagram import _CLOCKWISE

    for comp in rec.components:
        events = comp.events
        label_iter = iter(comp.labels)
        for k, ev in enumerate(events):
            if ev[0] != "line":
                continue
            label = next(label_iter)
            suffix = [e[1] for e in events[k + 1 :] if e[0] == "ext"]
            u_d = suffix.count("d+") - suffix.count("d-")
            u_u = suffix.count("u+") - suffix.count("u-")
            cw = sum(1 for e in suffix if e in _CLOCKWISE)
            suffix_whitney2 = cw - (len(suffix) - cw)
            assert label.u == u_d == u_u
            assert 2 * label.u == -suffix_whitney2
        assert next(label_iter, None) is None
        cw = sum(1 for e in comp.extrema if e in _CLOCKWISE)
        assert comp.whitney == (cw - (len(comp.extrema) - cw)) // 2


def test_compose_identity():
    ident = word(boundary="open")
    curl = builtin("curl")
    assert compose_tangles(ident, curl).key() == curl.key()
    assert stats(compose_tangles(curl, curl)).writhe == 2
    with pytest.raises(DiagramError):
        compose_tangles(curl, builtin("hopf"))


def test_builtin_counts():
    """Only the curl families take a kink count."""
    assert builtin("c_r_plus", 0).key() != builtin("c_r_plus", 2).key()
    with pytest.raises(DiagramError, match="needs a kink count"):
        builtin("c_l_minus")
    for name in builtin_names():
        if not name.startswith("c_"):
            with pytest.raises(DiagramError, match="takes no count"):
                builtin(name, 7)


def test_orientation_reverse_involution():
    for name in ("curl", "trefoil_tangle", "curl_op"):
        d = builtin(name)
        assert orientation_reverse(orientation_reverse(d)).key() == d.key()
    assert builtin("curl_op").key() == orientation_reverse(builtin("curl")).key()


def test_orientation_reverse_closed():
    d = builtin("hopf")
    rev = orientation_reverse(d)
    assert stats(rev).writhe == stats(d).writhe
    assert sorted(stats(rev).whitney) == sorted(-w for w in stats(d).whitney)


# -- moves ---------------------------------------------------------------------


def test_move_m1_cancellation():
    d = word(("cup_ccw", 1), ("cap_cw", 0), boundary="open")
    out = apply_move(d, "M1a", (0, 0))
    assert out.slices == ()
    back = apply_move(out, "M1a", (0, 0))
    assert back.key() == d.key()
    d2 = word(("cup_cw", 0), ("cap_ccw", 1), boundary="open")
    assert apply_move(d2, "M1b", (0, 0)).slices == ()


def test_move_m2():
    d = word(("cup_ccw", 0), ("xp", 0), ("xn", 0), ("cap_ccw", 0))
    out = apply_move(d, "M2", (1, 0))
    assert out.key() == builtin("unknot_ccw").key()
    with pytest.raises(MoveError):
        apply_move(builtin("unknot_ccw"), "M3", (0, 0))
    # a slice index is not read from the right, nor past the top
    trefoil = builtin("trefoil_knot")
    n = len(trefoil.slices)
    assert len(apply_move(trefoil, "M2", (n - 2, 1)).slices) == n + 2
    for index in (-2, -1, n + 1):
        with pytest.raises(MoveError, match=f"slice index {index} outside 0..{n}"):
            apply_move(trefoil, "M2", (index, 1))
    assert apply_move(builtin("curl"), "M1a", (3, 0)).slices[3:] == (
        Slice(SliceKind.CUP_CCW, 1), Slice(SliceKind.CAP_CW, 0)
    )


def _braid_closure(strands: int, *gens: Tuple[str, int]) -> MorseDiagram:
    """Left closure of a braid; generator positions are strands..2*strands-2."""
    toks = [("cup_ccw", p) for p in range(strands)]
    toks += list(gens)
    toks += [("cap_ccw", p) for p in reversed(range(strands))]
    return word(*toks)


def test_move_m3_braid_relation():
    d = _braid_closure(3, ("xp", 3), ("xp", 4), ("xp", 3))
    sites = move_sites(d, "M3")
    assert sites == [(3, 3)]
    out = apply_move(d, "M3", (3, 3))
    assert [s.pos for s in out.slices[3:6]] == [4, 3, 4]
    # applying at the same site flips back
    assert apply_move(out, "M3", (3, 3)).key() == d.key()


def test_move_sites_and_insertions():
    hopf = builtin("hopf")
    assert move_sites(hopf, "M2") == []
    ins = insertion_sites(hopf, "M2")
    assert ins
    bigger = apply_move(hopf, "M2", ins[0])
    assert bigger.crossing_count == 4
    assert move_sites(bigger, "M2") != []


def test_unknown_move_is_refused_everywhere():
    hopf = builtin("hopf")
    for fn in (insertion_sites, move_sites):
        with pytest.raises(MoveError, match="^unknown move 'bogus'$"):
            fn(hopf, "bogus")
    with pytest.raises(MoveError, match="^unknown move 'bogus'$"):
        apply_move(hopf, "bogus", (0, 0))


def _site_inputs(rng):
    """Builtins (curl families at m = 1 and 2), seeded braid closures
    (positive, negative and mixed) with a seeded cancelling pair inserted in
    each, the tangles cut open from the closed ones, and random small words."""
    from oracles import oracle_insertion_sites
    from test_acceptance import _random_small_diagram

    words = [
        builtin(name, m)
        for name in builtin_names()
        for m in ((1, 2) if name.startswith("c_") else (None,))
    ]
    for strands in (2, 3, 4):
        for signs in (("xp",), ("xn",), ("xp", "xn")):
            for _ in range(2):
                gens = [
                    (rng.choice(signs), strands + rng.randrange(strands - 1))
                    for _ in range(5)
                ]
                d = _braid_closure(strands, *gens)
                move = rng.choice(("M1a", "M1b", "M2"))
                words += [d, apply_move(d, move, rng.choice(oracle_insertion_sites(d, move)))]
    for d in list(words):
        if d.boundary == "closed":
            try:
                words.append(cut_open(d))
            except DiagramError:
                pass
    words += [_random_small_diagram(rng) for _ in range(15)]
    words += [_random_small_diagram(rng, "open") for _ in range(10)]
    return words


def test_insertion_sites_match_oracle():
    """The one-pass site search against a full apply_move at every (gap,
    position) (tests/oracles.py): the same sites in the same order, for every
    move, on every input of ``_site_inputs``."""
    from oracles import oracle_insertion_sites

    diagrams = _site_inputs(random.Random(20))
    assert len(diagrams) > 80 and any(d.boundary == "open" for d in diagrams)
    found = 0
    for d in diagrams:
        for move in MOVES:
            sites = insertion_sites(d, move)
            assert sites == oracle_insertion_sites(d, move), (d, move)
            found += len(sites)
    assert found > 5000


def test_insertion_sites_check_the_word_once(monkeypatch):
    """insertion_sites validates the word once and rewrites none: no
    apply_move or validate per site, and the word checker runs a number of
    times that does not grow with the word (the local judgements are shared)."""
    import oqa.diagram as dg

    calls = {"apply_move": 0, "validate": 0, "_link": 0}
    for name in calls:
        def counted(*args, _real=getattr(dg, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(dg, name, counted)

    short = _braid_closure(3, *[("xp", 3), ("xp", 4)] * 3)
    long = _braid_closure(3, *[("xp", 3), ("xp", 4)] * 24)
    assert len(dg.insertion_sites(long, "M1a")) > 100
    assert calls["apply_move"] == calls["validate"] == 0

    def link_calls(d, move):
        dg._fits.cache_clear()
        calls["_link"] = 0
        sites = dg.insertion_sites(d, move)
        return calls["_link"], len(sites)

    for move in ("M1a", "M1b", "M2", "TwistR"):
        (short_links, short_sites), (long_links, long_sites) = (
            link_calls(short, move), link_calls(long, move)
        )
        assert long_sites > 3 * short_sites
        assert long_links == short_links < 30, move


def test_m4_rewrites_validate():
    curl = builtin("curl")
    # M4a window [xp p, cap_cw p+1] at slice 1, base position 0
    assert move_sites(curl, "M4a") == [(1, 0)]
    out = apply_move(curl, "M4a", (1, 0))
    assert out.crossing_count == curl.crossing_count
    assert apply_move(out, "M4a", (1, 0)).key() == curl.key()
    cop = builtin("curl_op")
    out2 = apply_move(cop, "M4b", move_sites(cop, "M4b")[0])
    assert apply_move(out2, "M4b", move_sites(cop, "M4b")[0]).key() == cop.key()


def test_every_move_has_a_valid_example():
    # build one diagram per move where some site applies
    samples = {
        "M1a": word(("cup_ccw", 1), ("cap_cw", 0), boundary="open"),
        "M1b": word(("cup_cw", 0), ("cap_ccw", 1), boundary="open"),
        "M2": word(("xp", 0), ("xn", 0), boundary="open").with_slices(
            [Slice(SliceKind.CUP_CCW, 0), Slice(SliceKind.X_POS, 1),
             Slice(SliceKind.X_NEG, 1), Slice(SliceKind.CAP_CCW, 0)]
        ),
        "M2rev": word(("cup_ccw", 0), ("xn", 1), ("xp", 1), ("cap_ccw", 0)),
        "M3": _braid_closure(3, ("xp", 3), ("xp", 4), ("xp", 3)),
        "M3rev": _braid_closure(3, ("xn", 3), ("xn", 4), ("xn", 3)),
        "M4a": builtin("curl"),
        "M4rev_a": mirror(builtin("curl")),
        "M4b": builtin("curl_op"),
        "M4rev_b": mirror(builtin("curl_op")),
        "TwistR": compose_tangles(
            builtin("curl"), mirror(builtin("curl_op"))
        ),
        "TwistL": compose_tangles(
            builtin("curl_op"), mirror(builtin("curl"))
        ),
    }
    assert set(samples) == set(MOVES)
    for move, d in samples.items():
        sites = move_sites(d, move)
        assert sites, move
        out = apply_move(d, move, sites[0])
        assert out.key() != d.key()


def test_upward_points_hopf():
    pts = upward_points(builtin("hopf"))
    assert len(pts) >= 6
    rec = traverse(builtin("hopf"), preferred_starts=[pts[-1]])
    assert len(rec.components) == 2
    with pytest.raises(DiagramError):
        traverse(builtin("hopf"), preferred_starts=[(0, 0)])


def test_random_diagram_round_trip_and_moves():
    """Random valid diagrams: parse/serialize identity and move validity."""
    import random

    from test_acceptance import _random_small_diagram

    rng = random.Random(3)
    for _ in range(15):
        d = _random_small_diagram(rng)
        assert parse_diagram(serialize(d)).key() == d.key()
        for move in ("M1a", "M1b", "M2", "M3", "M4a", "TwistR"):
            for site in move_sites(d, move)[:2]:
                try:
                    d2 = apply_move(d, move, site)
                except MoveError:
                    continue
                # rewrites validate and preserve writhe
                assert stats(d2).writhe == stats(d).writhe
