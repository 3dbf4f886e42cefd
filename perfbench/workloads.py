"""The three benchmark workloads.

A workload is built once per run from its seed (that is the set-up the
benchmark times) and then hands out rounds of ops.  A round is a fixed list
of op shapes (structure, diagram family, sizes, tamper clause) whose content
the seed fills in, so every round costs about the same and runs can be
compared across seeds.  Rounds are generated in order from one seeded
stream; no (structure, diagram) pair or parameter table repeats in a run.

Each op carries its correctness gate, run after the timed loop, and a
perturbation the gate self-check uses to show that the gate can fail.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Sequence, Tuple

from oqa import algebra, cli, diagram, homfly_bridge, invariant, structures
from oqa.scalar import SymbolTable, perfect_sqrt

import gen


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], bool]
    perturb: Callable[[object], object]
    gate: str


class Workload:
    """Subclasses set ``name``, ``why`` (one line for BENCHMARK.json) and:

    ``setup_rounds``: rounds generated during set-up, enough for one run at
    the baseline; later rounds are generated on demand.
    ``trace_rounds``: rounds per pass of the traced run.
    ``tail_percentile``: the op_tail_ms percentile.  At the baseline's round
    count it has at least 10 samples beyond it and falls inside a class of
    near-equal ops rather than on the edge between two.  It is fixed so that
    a faster commit, which runs more rounds, is compared at the same point
    of the op mix.
    """

    name: str
    why: str
    setup_rounds: int
    trace_rounds = 1
    tail_percentile: int

    def __init__(self, seed: int, workdir: str):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.workdir = workdir
        self.seen: set = set()
        self._rounds: List[List[Op]] = []
        self.build()
        for _ in range(self.setup_rounds):
            self._rounds.append(self.make_round())

    def round(self, r: int) -> List[Op]:
        while len(self._rounds) <= r:
            self._rounds.append(self.make_round())
        return self._rounds[r]

    def build(self) -> None:
        raise NotImplementedError

    def make_round(self) -> List[Op]:
        raise NotImplementedError


# -- knots_symbolic -----------------------------------------------------------


# (structure, family, argument): family "torus" takes k, "builtin" a name,
# "curl" the kink count of c_r_plus, "braid" (strands, generator indices).
# Braids get seeded crossing signs.  Every round has its own three
# structures, whose b_ij are seeded multiples of the symbols: that keeps
# (structure, diagram) pairs from repeating while an op's cost stays within a
# few percent (a seeded zig-zag in the diagram moved it by up to half).
# Narrow-and-deep braids stop at 7 crossings on M_2 and 5 on M_3, wide ones
# at 5 strands on M_3: beyond that one op costs several seconds.
# By cost a round has 7 cheap ops (under 0.1 s unscaled), 10 in 0.15-0.35 s,
# which hold the median, and 7 above 0.4 s, whose two cheapest (figure8 and
# the 4-crossing braid on M_3) hold op_tail_ms.  A cheap op added or removed
# moves the median towards the edge of its class.
KNOT_SHAPES: Tuple[Tuple[str, str, object], ...] = (
    ("M2", "torus", 3),
    ("M2", "torus", 5),
    ("M2", "torus", 6),
    ("M2", "torus", 7),
    ("M2", "builtin", "hopf"),
    ("M2", "builtin", "figure8_knot"),
    ("M2", "curl", 3),
    ("M2", "braid", (3, (1, 2, 1, 2, 1, 2, 1))),
    ("M2", "braid", (3, (1, 2, 1, 2, 1))),
    ("M2", "braid", (5, (1, 2, 3, 4, 1))),
    ("M2", "braid", (6, (1, 2, 3, 4, 5))),
    ("M3", "torus", 3),
    ("M3", "torus", 4),
    ("M3", "torus", 5),
    ("M3", "builtin", "hopf"),
    ("M3", "builtin", "figure8_knot"),
    ("M3", "curl", 2),
    ("M3", "braid", (3, (1, 2, 1, 2, 1))),
    ("M3", "braid", (3, (1, 2, 1, 2))),
    ("M3", "braid", (5, (1, 2, 3, 4))),
    ("G0", "torus", 3),
    ("G0", "torus", 4),
    ("G0", "builtin", "hopf"),
    ("G0", "builtin", "figure8_knot"),
)


class KnotsSymbolic(Workload):
    name = "knots_symbolic"
    why = (
        "evaluate_link on seeded closed diagrams over symbolic M_2/M_3: the "
        "state sum (invariant) and FracField products (scalar, algebra) do the work"
    )
    setup_rounds = 3
    tail_percentile = 77

    def build(self) -> None:
        self.tables = {
            "M2": (SymbolTable(["a", "sbc", "b"]), 2),
            "M3": (SymbolTable(["a", "sbc"] + gen.b_symbols(3)), 3),
            "G0": (SymbolTable(["a", "sbc", "b"], gaussian=True), 2),
        }

    def _contexts(self) -> Dict[str, homfly_bridge.SectionSixContext]:
        """This round's structures: M_2, M_3 and Tr G = 0 (a_2 = -bc/a)."""
        out = {}
        for key, (table, n) in self.tables.items():
            while True:
                scales = tuple(gen.rand_fraction(self.rng) for _ in gen.b_symbols(n))
                if (key, scales) not in self.seen:
                    self.seen.add((key, scales))
                    break
            a, sbc = table.syms("a", "sbc")
            a_values = [a, -sbc * sbc / a] if key == "G0" else [a] * n
            B = {
                gen.b_key(name): table.scalar(c) * table.sym(name)
                for name, c in zip(gen.b_symbols(n), scales)
            }
            out[key] = homfly_bridge.section6_context(
                structures.single_block_params(table, n, a_values, sbc * sbc, B, table.one)
            )
        return out

    def _diagram(self, family: str, arg) -> diagram.MorseDiagram:
        if family == "torus":
            text = gen.braid_closure_text(2, [1] * arg)
        elif family == "braid":
            strands, indices = arg
            text = gen.braid_closure_text(
                strands, [i * self.rng.choice((1, -1)) for i in indices]
            )
        elif family == "curl":
            text = diagram.serialize(diagram.builtin("c_r_plus", arg))
        else:
            text = diagram.serialize(diagram.builtin(arg))
        return diagram.parse_diagram(text)

    def make_round(self) -> List[Op]:
        contexts = self._contexts()
        ops = []
        for key, family, arg in KNOT_SHAPES:
            label = f"{key}/{family}/" + (
                f"s{arg[0]}c{len(arg[1])}" if family == "braid" else str(arg)
            )
            d = self._diagram(family, arg)
            ctx = contexts[key]
            if key == "G0":
                check, gate = (lambda v: v.is_zero), "zero_value"
            else:
                check = lambda v, ctx=ctx, d=d: homfly_bridge.identify_F(
                    ctx, d, F_value=v
                ).passed
                gate = "identify_F"
            ops.append(
                Op(
                    kind=label,
                    call=lambda S=ctx.structure, d=d: invariant.evaluate_link(S, d),
                    check=check,
                    perturb=lambda v: v + 1,
                    gate=gate,
                )
            )
        return ops


# -- structures_sampled ---------------------------------------------------------


def _unit(n: int, i: int, j: int) -> int:
    return (i - 1) * n + (j - 1)


def assemble(params: structures.MnStructureParams, sigma_scale) -> structures.OrientedQuantumAlgebraStructure:
    """The structure an explicit (possibly tampered) table describes.

    rho is read slot by slot from the table and t from the positive-branch
    roots, scaled per index by ``sigma_scale``; the inverse comes from
    ``create`` (a linear solve that raises SingularError).
    """
    t = params.table
    n = params.n
    A = algebra.matrix_algebra(t, n)
    coeffs = {}
    for i in range(1, n + 1):
        coeffs[(_unit(n, i, i), _unit(n, i, i))] = params.diag[i]
        for j in range(1, n + 1):
            if i != j:
                coeffs[(_unit(n, i, i), _unit(n, j, j))] = params.off_diag[(i, j)]
                v = params.exchange_value(i, j)
                if not v.is_zero:
                    coeffs[(_unit(n, i, j), _unit(n, j, i))] = v
    rho = algebra.TensorSquareElement(A, coeffs)
    sigma = {}
    for k, blk in enumerate(params.blocks):
        sigma[blk[0]] = params.omega_base_root[blk[0]]
        for prev, cur in zip(blk, blk[1:]):
            ratio = perfect_sqrt(
                params.bc[k] / (params.diag[prev] * params.diag[cur])
            )
            sigma[cur] = sigma[prev] / ratio
    for i, z in sigma_scale.items():
        sigma[i] = sigma[i] * z
    cols = {
        _unit(n, i, j): {_unit(n, i, j): sigma[i] / sigma[j]}
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    }
    tm = algebra.AlgebraMap(A, cols)
    return structures.OrientedQuantumAlgebraStructure.create(
        A, rho, tm, tm, validate_maps=False
    )


def _axioms_hold(build: Callable[[], structures.OrientedQuantumAlgebraStructure]) -> bool:
    """check_axioms verdict, with a singular rho counted as failing."""
    try:
        S = build()
    except algebra.SingularError:
        return False
    return structures.check_axioms(S).all_true


def _classify_op(params, tampered: bool, sigma_scale) -> Tuple[bool, bool]:
    verdict = structures.classify_thm5(params).ok
    if tampered:
        holds = _axioms_hold(lambda: assemble(params, sigma_scale))
    else:
        holds = _axioms_hold(lambda: structures.build_thm5(params))
    return verdict, holds


def _example2_op(table, n, B, omega1_sq) -> Tuple[bool, bool]:
    a, sbc = table.syms("a", "sbc")
    S = structures.build_balanced_example2(table, n, a, sbc * sbc, B, omega1_sq)
    return True, structures.check_axioms(S).all_true


# (block sizes, tamper clause or None); six of the eleven tables are
# tampered.  By cost a round has 4 cheap ops (the n = 2 table and the three
# example2 structures), 6 n = 3 tables of near-equal cost, which hold the
# median and op_tail_ms, and 4 costly ones: the exchange-tampered n = 3
# table and the n = 4 tables.  Cheaper n = 3 tables, such as a valid (2, 1)
# one, would sit between the classes and move the median to an edge; so
# would an exchange-tampered (2, 1) table, whose rho is singular for some
# seeds, which ends the op early.
TABLE_SHAPES: Tuple[Tuple[Tuple[int, ...], object], ...] = (
    ((2,), None),
    ((3,), None),
    ((3,), "omega"),
    ((2, 1), "diag_value"),
    ((2, 1), "off_diag_pair"),
    ((2, 1), "cross"),
    ((2, 1), "cross"),
    ((3,), "exchange"),
    ((4,), None),
    ((2, 1, 1), None),
    ((3, 1), "cross"),
)

# symbolic example2 structures checked each round: n
EXAMPLE2_SHAPES = (2, 3, 4)


class StructuresSampled(Workload):
    name = "structures_sampled"
    why = (
        "classify_thm5 + check_axioms on seeded zero-symbol Gaussian tables, "
        "half tampered: tensor products, inverses and QYBE (structures, algebra)"
    )
    setup_rounds = 3
    tail_percentile = 64

    def build(self) -> None:
        self.table = SymbolTable(["a", "sbc"])

    def make_round(self) -> List[Op]:
        ops = []
        flip = lambda out: (out[0], not out[1])
        for sizes, kind in TABLE_SHAPES:
            params = gen.sample_thm5(self.rng, sizes)
            sigma_scale = {}
            if kind is not None:
                params, sigma_scale = gen.tamper(self.rng, params, kind)
            ops.append(
                Op(
                    kind=f"n{params.n}/{'+'.join(map(str, sizes))}/{kind or 'valid'}",
                    call=lambda p=params, k=kind, s=sigma_scale: _classify_op(
                        p, k is not None, s
                    ),
                    check=lambda out: out[0] == out[1],
                    perturb=flip,
                    gate="classify_vs_axioms",
                )
            )
        table = self.table
        for n in EXAMPLE2_SHAPES:
            while True:
                B = {
                    (i, j): gen.rand_fraction(self.rng)
                    for i in range(1, n + 1)
                    for j in range(i + 1, n + 1)
                }
                omega1_sq = gen.rand_fraction(self.rng) ** 2
                key = (n, tuple(sorted(B.items())), omega1_sq)
                if key not in self.seen:
                    self.seen.add(key)
                    break
            ops.append(
                Op(
                    kind=f"n{n}/example2",
                    call=lambda t=table, n=n, B=B, w=omega1_sq: _example2_op(
                        t, n, {k: t.scalar(v) for k, v in B.items()}, t.scalar(w)
                    ),
                    check=lambda out: out[0] == out[1],
                    perturb=flip,
                    gate="classify_vs_axioms",
                )
            )
        return ops


# -- cli_mixed --------------------------------------------------------------------


def run_cli(argv: Sequence[str]) -> Tuple[int, str]:
    """oqa.cli.main in process, stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue()


# The op mix is laid out in cost classes so that op_p50_ms and op_tail_ms
# each fall inside a class of like ops, not on the edge between two, where
# a seeded braid word would decide which class is read:
#   cheap   the n = 2 invariant and check-axioms ops (7 per round);
#   middle  the 16 skein ops, which hold the median;
#   upper   the n = 3 invariant ops on hopf and c_r_plus (3);
#   tail    n = 4 invariant on c_r_plus:1 and n = 3 check-axioms, two each,
#           and n = 3 invariant on the trefoil (5), which hold op_tail_ms;
#   top     one n = 4 check-axioms (1).
# (strands, crossings) of the skein braid files, sized to cost about the
# same.  Their words are positive: the skein cost of a mixed-sign braid of
# one shape spans a factor of ten across words, that of a positive one
# about a factor of two.
SKEIN_SHAPES = ((3, 11), (3, 11), (3, 11), (4, 9), (4, 9), (5, 8), (5, 8), (5, 8))

# (n, diagram spec or mixed-sign braid (strands, crossings)) for `invariant`;
# a braid on n = 3 would sit among the tail ops and bring its word's cost in
INVARIANT_SHAPES = (
    (2, "builtin:hopf"),
    (2, "builtin:trefoil_knot"),
    (2, "builtin:figure8_knot"),
    (2, "builtin:c_r_plus:2"),
    (2, (3, 4)),
    (3, "builtin:hopf"),
    (3, "builtin:c_r_plus:2"),
    (3, "builtin:c_r_plus:1"),
    (3, "builtin:trefoil_knot"),
    (4, "builtin:c_r_plus:1"),
    (4, "builtin:c_r_plus:1"),
)

CHECK_SHAPES = (2, 2, 3, 3, 4)


class CliMixed(Workload):
    name = "cli_mixed"
    why = (
        "oqa.cli.main in process: homfly/conway skein on braid files, invariant "
        "and check-axioms with --bind: parsing, JSON loading, substitute (cli)"
    )
    setup_rounds = 6
    trace_rounds = 2
    tail_percentile = 88

    def build(self) -> None:
        os.makedirs(self.workdir, exist_ok=True)
        self._files = 0
        self.numeric = SymbolTable([])

    def _write(self, suffix: str, text: str) -> str:
        self._files += 1
        path = os.path.join(self.workdir, f"{self._files:05d}{suffix}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def _structure_file(self, n: int) -> Tuple[str, List[str], Dict[Tuple[int, int], Fraction], Dict[str, Fraction]]:
        """An example2 file whose b_ij are seeded multiples of symbols, plus
        numeric bindings; returns (path, --bind args, effective B, bindings)."""
        rng = self.rng
        scale = {name: gen.rand_fraction(rng) for name in gen.b_symbols(n)}
        data = {
            "builder": "example2",
            "symbols": ["a", "sbc"] + gen.b_symbols(n),
            "n": n,
            "a": "a",
            "bc": "sbc**2",
            "b": {
                "{},{}".format(*gen.b_key(name)): f"({c})*{name}"
                for name, c in scale.items()
            },
            "omega1_sq": "1",
        }
        bind = gen.example2_bindings(rng, n)
        args = []
        for name, value in bind.items():
            args += ["--bind", f"{name}={value}"]
        B = {gen.b_key(name): scale[name] * bind[name] for name in scale}
        return self._write(".json", json.dumps(data)), args, B, bind

    def _numeric_ctx(self, n: int, bind, B):
        t = self.numeric
        params = structures.single_block_params(
            t, n, [t.scalar(bind["a"])] * n, t.scalar(bind["sbc"] ** 2),
            {k: t.scalar(v) for k, v in B.items()}, t.one,
        )
        return homfly_bridge.section6_context(params)

    def _braid_file(
        self, strands: int, crossings: int, positive: bool = False
    ) -> Tuple[str, diagram.MorseDiagram]:
        while True:
            text = gen.braid_closure_text(
                strands, gen.random_braid(self.rng, strands, crossings, positive)
            )
            d = diagram.parse_diagram(text)
            if d.key() not in self.seen:
                self.seen.add(d.key())
                return self._write(".txt", text), d

    def make_round(self) -> List[Op]:
        rng = self.rng
        ops = []
        for strands, crossings in SKEIN_SHAPES:
            path, d = self._braid_file(strands, crossings, positive=True)
            for which in ("homfly", "conway"):
                variant = gen.isotopy_variant(rng, d)
                fn = homfly_bridge.homfly if which == "homfly" else homfly_bridge.conway

                def check(out, fn=fn, variant=variant):
                    code, text = out
                    return code == 0 and text.strip() == fn(variant).text()

                ops.append(
                    Op(
                        kind=f"{which}/s{strands}c{crossings}",
                        call=lambda w=which, p=path: run_cli([w, "--diagram", p]),
                        check=check,
                        perturb=lambda out: (out[0], out[1].strip() + " + 1"),
                        gate="skein_polynomial",
                    )
                )
        for n, spec in INVARIANT_SHAPES:
            path, args, B, bind = self._structure_file(n)
            label = f"invariant/n{n}/" + (
                "s{}c{}".format(*spec) if isinstance(spec, tuple) else spec[8:]
            )
            if isinstance(spec, tuple):
                spec, d = self._braid_file(*spec)
            else:
                parts = spec.split(":")
                d = diagram.builtin(parts[1], int(parts[2]) if len(parts) > 2 else None)

            def check(out, n=n, bind=bind, B=B, d=d):
                code, text = out
                if code != 0:
                    return False
                ctx = self._numeric_ctx(n, bind, B)
                value = ctx.table.parse(json.loads(text)["value"])
                return homfly_bridge.identify_F(ctx, d, F_value=value).passed

            def perturb(out):
                payload = json.loads(out[1])
                payload["value"] = f"({payload['value']}) + 1"
                return out[0], json.dumps(payload)

            ops.append(
                Op(
                    kind=label,
                    call=lambda p=path, s=spec, a=args: run_cli(
                        ["--format", "json", "invariant", "--structure", p, "--diagram", s] + a
                    ),
                    check=check,
                    perturb=perturb,
                    gate="invariant_value",
                )
            )
        for n in CHECK_SHAPES:
            path, args, _, _ = self._structure_file(n)
            ops.append(
                Op(
                    kind=f"check-axioms/n{n}",
                    call=lambda p=path, a=args: run_cli(
                        ["check-axioms", "--structure", p] + a
                    ),
                    check=lambda out: out[0] == 0 and out[1].count(": pass") == 3,
                    perturb=lambda out: (1, out[1]),
                    gate="exit_code",
                )
            )
        return ops


WORKLOADS = {w.name: w for w in (KnotsSymbolic, StructuresSampled, CliMixed)}
