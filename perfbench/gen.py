"""Seeded input generators for the benchmark workloads.

Every generator takes a ``random.Random`` and returns plain data (Morse-word
text, Thm-5 parameter tables, numeric bindings).  Sizes are capped by
structural parameters only (strands, crossings, n), never by measured time.
Nothing here imports the repository's tests.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from oqa import diagram as dg
from oqa import structures as st
from oqa.scalar import SymbolTable

# -- diagrams -------------------------------------------------------------------


def braid_closure_text(strands: int, gens: Sequence[int]) -> str:
    """Morse word of the closure of a braid word on ``strands`` strands.

    ``gens`` holds signed 1-based generator indices: +i is sigma_i (xp), -i its
    inverse (xn).  The closure nests ``cup_ccw 0..s-1`` below the braid, which
    acts at positions s+i-1, and ``cap_ccw s-1..0`` above it.
    """
    lines = [f"cup_ccw {i}" for i in range(strands)]
    for g in gens:
        lines.append(f"{'xp' if g > 0 else 'xn'} {strands + abs(g) - 1}")
    lines += [f"cap_ccw {i}" for i in reversed(range(strands))]
    return "\n".join(lines) + "\n"


def random_braid(
    rng: random.Random, strands: int, crossings: int, positive: bool = False
) -> List[int]:
    """A braid word that uses every generator, so the closure is a knot or link
    on ``strands`` strands rather than a split union.

    With ``positive`` every crossing is positive.  The skein cost of a positive
    braid closure of a given shape varies far less with the word than that of
    a mixed-sign one, which may unknot after a few switches.
    """
    while True:
        gens = [
            (1 if positive else rng.choice((1, -1))) * rng.randint(1, strands - 1)
            for _ in range(crossings)
        ]
        if {abs(g) for g in gens} == set(range(1, strands)):
            return gens


def isotopy_variant(rng: random.Random, d: dg.MorseDiagram) -> dg.MorseDiagram:
    """A seeded regular-isotopy variant built from ``insertion_sites``: one
    cancelling pair (zig-zag or opposite crossings) inserted at a seeded site."""
    move = rng.choice(("M1a", "M1b", "M2"))
    sites = dg.insertion_sites(d, move)
    return dg.apply_move(d, move, rng.choice(sites))


# -- Thm-5 parameter tables --------------------------------------------------


def rand_fraction(rng: random.Random) -> Fraction:
    while True:
        v = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        if v:
            return v


def sample_thm5(rng: random.Random, sizes: Sequence[int]) -> st.MnStructureParams:
    """A valid diagonal-block parameter table over the Gaussian rationals.

    ``sizes`` fixes the block sizes (n is their sum); the seed picks which
    indices form each block and every value.  Every block constant is a
    square (bc = beta^2) and the leading diagonal value avoids a^2 = bc; the
    other diagonal values are a or -bc/a.  Block pair constants tie the
    off-diagonal products across blocks.
    """
    t = SymbolTable([], gaussian=True)
    sc = t.scalar
    n = sum(sizes)
    indices = list(range(1, n + 1))
    rng.shuffle(indices)
    cuts = [sum(sizes[:k]) for k in range(len(sizes) + 1)]
    blocks = tuple(tuple(indices[lo:hi]) for lo, hi in zip(cuts, cuts[1:]))

    bc, diag, root = {}, {}, {}
    for k, blk in enumerate(blocks):
        beta = rand_fraction(rng)
        bc[k] = sc(beta * beta)
        while True:
            a_e = sc(rand_fraction(rng))
            if a_e * a_e != bc[k]:
                break
        for pos, i in enumerate(blk):
            diag[i] = a_e if pos == 0 or rng.random() < 0.6 else -bc[k] / a_e
        root[blk[0]] = sc(rand_fraction(rng))

    pair = {}
    for k1 in range(len(blocks)):
        pair[(k1, k1)] = bc[k1]
        for k2 in range(k1 + 1, len(blocks)):
            pair[(k1, k2)] = pair[(k2, k1)] = sc(rand_fraction(rng))
    block_of = {i: k for k, blk in enumerate(blocks) for i in blk}
    off = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            v = sc(rand_fraction(rng))
            off[(i, j)] = v
            off[(j, i)] = pair[(block_of[i], block_of[j])] / v

    omega_sq = {}
    for k, blk in enumerate(blocks):
        e = blk[0]
        w = root[e] * root[e]
        omega_sq[e] = w
        for pos in range(1, len(blk)):
            val = (diag[e] * diag[blk[pos]] / bc[k]) * w
            for j in blk[1:pos]:
                val = val * (diag[j] ** 2 / bc[k])
            omega_sq[blk[pos]] = val

    return st.MnStructureParams(
        table=t, n=n, blocks=blocks, bc=bc, diag=diag, off_diag=off,
        omega_sq=omega_sq, omega_base_root=root,
    )


def tamper(
    rng: random.Random, params: st.MnStructureParams, kind: str
) -> Tuple[st.MnStructureParams, Dict[int, object]]:
    """Break one clause of a valid table.

    Returns (params', sigma_scale); ``sigma_scale`` multiplies single
    automorphism roots so that a tampered diagonal or omega value keeps a
    consistent square-root choice.  Every kind but "off_diag_pair" needs a
    block of size >= 2, and "cross" a second block.
    """
    t = params.table
    n = params.n
    multi = [blk for blk in params.blocks if len(blk) >= 2]
    diag = dict(params.diag)
    off = dict(params.off_diag)
    omega_sq = dict(params.omega_sq)
    exchange = None
    sigma_scale: Dict[int, object] = {}
    if kind == "off_diag_pair":
        pool = multi[0] if multi else range(1, n + 1)
        i, j = sorted(rng.sample(list(pool), 2))
        off[(j, i)] = off[(j, i)] * t.scalar(3)
    elif kind == "exchange":
        blk = multi[0]
        exchange = {
            (i, j): params.exchange_value(i, j)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            if i != j and not params.exchange_value(i, j).is_zero
        }
        exchange[(blk[0], blk[1])] = exchange[(blk[0], blk[1])] + t.one
    elif kind == "diag_value":
        u = multi[0][-1]
        diag[u] = diag[u] * t.scalar(4)
        sigma_scale[u] = t.rational(1, 2)
    elif kind == "omega":
        u = multi[0][-1]
        omega_sq[u] = omega_sq[u] * t.scalar(4)
        sigma_scale[u] = t.scalar(2)
    elif kind == "cross":
        blk = multi[0]
        other = next(i for b in params.blocks if b is not blk for i in b)
        off[(blk[0], other)] = off[(blk[0], other)] * t.scalar(5)
    else:
        raise ValueError(f"unknown tamper kind {kind!r}")
    tampered = st.MnStructureParams(
        table=t, n=n, blocks=params.blocks, bc=params.bc, diag=diag,
        off_diag=off, omega_sq=omega_sq, exchange=exchange,
        omega_base_root=params.omega_base_root,
    )
    return tampered, sigma_scale


# -- numeric bindings for the symbolic example2 builder ------------------------


_VALUES = (
    Fraction(2), Fraction(3), Fraction(5), Fraction(-2), Fraction(-3),
    Fraction(1, 2), Fraction(3, 2), Fraction(-5, 3), Fraction(7), Fraction(2, 7),
)


def example2_bindings(rng: random.Random, n: int) -> Dict[str, Fraction]:
    """Nonzero numeric a, sbc and b_ij with a^2 != bc.

    sbc is positive: the closed forms take the positive root of bc.
    """
    while True:
        a, sbc = rng.sample(_VALUES, 2)
        if sbc > 0 and a * a != sbc * sbc:
            break
    out = {"a": a, "sbc": sbc}
    for name in b_symbols(n):
        out[name] = rng.choice(_VALUES)
    return out


def b_symbols(n: int) -> List[str]:
    if n == 2:
        return ["b"]
    return [f"b{i}{j}" for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def b_key(name: str) -> Tuple[int, int]:
    return (1, 2) if name == "b" else (int(name[1]), int(name[2]))
