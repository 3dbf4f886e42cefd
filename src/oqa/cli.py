"""Command-line front end.

Subcommands:

  check-axioms     verify (qa.1)-(qa.3) for a structure file
  invariant        evaluate the bead-sliding invariant of a diagram
  homfly           regular-isotopy two-variable skein polynomial
  conway           one-variable Alexander polynomial
  verify-section6  closed-form / skein identification suite for a
                   single-block structure

Structures are JSON files (explicit tables or builder shorthands); diagrams
are Morse-word text files or ``builtin:<name>[:m]``; only the curl families
``c_*`` take the count m.  Exit codes: 0 success, 1 semantic failure,
2 input error.

``--bind sym=value`` substitutes a value into every table of the structure
(twist, trace, rho, t_d, t_u, rho^-1); ``sym=symbolic`` leaves the symbol
free.

An ``example2`` file is built once, at the bound values: the bindings go into
its parameters, which are classified there, and the build checks rho^-1 and
the twist as any build does.  t keeps the square-root branch of the unbound
file (its sigma is taken symbolically and then bound), so the result is the
structure the table map below would give.  When that build fails -- a bad
binding, or values at which the parameters do not classify or a denominator
vanishes -- the file takes the table map instead, and its result or message
stands.

Any other file is loaded and its tables mapped.  Loading verified the
structure's tables (rho^-1 inverts rho, and the twist G, G^-1 fixed by t_d,
t_u with G x G^-1 = t_d(t_u(x))), so the bound structure is not verified
again: these conditions, like the axioms, are polynomial identities in the
stored table entries, and substitution at a point where no denominator
vanishes is a ring homomorphism that preserves them.  A binding at which a
denominator vanishes is an input error; the first vanishing denominator, in
the table order above, decides the message.  A binding that makes t_d or t_u
singular is an input error too.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Dict, List, Optional

from .algebra import SingularError
from .diagram import (
    DiagramError,
    MorseDiagram,
    builtin,
    builtin_names,
    crossing_triple,
    parse_diagram,
    serialize,
    stats,
)
from .homfly_bridge import (
    conway,
    homfly,
    identify_F,
    identify_open,
    section6_context,
    skein_triple_check,
)
from .invariant import InvariantError, evaluate_link, evaluate_tangle
from .scalar import (
    NotLaurentError,
    Scalar,
    ScalarError,
    SymbolTable,
    ZeroDenominatorError,
    laurent_homogeneous_degree,
    substitute,
)
from .structures import (
    MnStructureParams,
    OrientedQuantumAlgebraStructure,
    StructureError,
    _bind_thm5,
    _map_scalars,
    check_axioms,
    params_from_json,
    structure_from_json,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


class CliInputError(Exception):
    pass


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise CliInputError(f"no such file: {path}") from None
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:  # a JSONDecodeError, or bytes that are not UTF-8
        raise CliInputError(f"malformed JSON in {path}: {exc}") from None
    if not isinstance(data, dict):
        raise CliInputError(f"{path} holds a JSON {type(data).__name__}, not an object")
    return data


def _load_diagram(spec: str) -> MorseDiagram:
    if spec.startswith("builtin:"):
        parts = spec.split(":")
        name = parts[1]
        m = None
        if len(parts) > 2:
            try:
                m = int(parts[2])
            except ValueError:
                raise CliInputError(
                    f"builtin count {parts[2]!r} in {spec!r} is not an integer"
                ) from None
        try:
            return builtin(name, m)
        except DiagramError as exc:
            known = builtin_names()
            hint = "" if name in known else f" (known: {', '.join(known)})"
            raise CliInputError(f"{exc}{hint}") from None
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise CliInputError(f"no such diagram file: {spec}") from None
    except (OSError, ValueError) as exc:  # ValueError: bytes that are not UTF-8
        raise CliInputError(f"cannot read diagram file {spec}: {exc}") from None
    try:
        return parse_diagram(text)
    except DiagramError as exc:
        raise CliInputError(f"bad diagram {spec}: {exc}") from None


def _parse_bindings(pairs: List[str], table: SymbolTable) -> Dict[str, Scalar]:
    out: Dict[str, Scalar] = {}
    for pair in pairs:
        if "=" not in pair:
            raise CliInputError(f"--bind expects sym=value, got {pair!r}")
        name, value = pair.split("=", 1)
        name = name.strip()
        value = value.strip()
        if name not in table.symbols:
            raise CliInputError(
                f"--bind names undeclared symbol {name!r} "
                f"(declared: {', '.join(table.symbols) or 'none'})"
            )
        if value == "symbolic":
            continue
        try:
            out[name] = table.parse(value)
        except ScalarError as exc:
            raise CliInputError(f"bad binding {pair!r}: {exc}") from None
    return out


def _load_structure(path: str, binds: List[str]) -> OrientedQuantumAlgebraStructure:
    """The structure in ``path`` with the ``--bind`` values substituted into
    every table; the module docstring says when it is built at the bound
    values and why a mapped one is not verified again."""
    data = _load_json(path)
    try:
        if binds and data.get("builder") == "example2":
            S = _build_bound(params_from_json(data), binds)
            if S is not None:
                return S
        S = structure_from_json(data)
    except (ValueError, KeyError, TypeError) as exc:
        raise CliInputError(f"bad structure file {path}: {exc}") from None
    bindings = _parse_bindings(binds, S.table)
    if not bindings:
        return S

    def sub(s: Scalar) -> Scalar:
        try:
            return substitute(s, bindings)
        except ZeroDenominatorError as exc:
            raise CliInputError(str(exc)) from None

    S = _map_scalars(S, sub)
    # det t_d or det t_u can vanish at the bound values; with a twist, t_d o t_u
    # is conjugation by G, so both maps stay bijective and need no check
    if S.twist is None:
        for label, m in (("t_d", S.t_d), ("t_u", S.t_u)):
            try:
                m.inverse()
            except SingularError:
                raise CliInputError(
                    f"{label} is not invertible at the bound values"
                ) from None
    return S


def _build_bound(
    params: MnStructureParams, binds: List[str]
) -> Optional[OrientedQuantumAlgebraStructure]:
    """The example2 structure of ``params`` built once at the bound values, or
    None when a binding is bad, nothing is bound, or the bound build fails;
    the table-map route then reports what it always reported."""
    try:
        bindings = _parse_bindings(binds, params.table)
        if not bindings:
            return None
        return _bind_thm5(
            params, lambda s: substitute(s, bindings), f"example2(n={params.n})"
        )
    except (CliInputError, StructureError, ScalarError, SingularError):
        return None


def _emit(payload: dict, fmt: str, text_lines: List[str]) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


# -- subcommands ---------------------------------------------------------------


def cmd_check_axioms(args) -> int:
    S = _load_structure(args.structure, args.bind)
    report = check_axioms(S, full_report=args.full)
    payload = {
        "structure": S.name,
        "qa1": report.qa1,
        "qa2": report.qa2,
        "qa3": report.qa3,
        "witnesses": list(report.witnesses),
    }
    lines = [
        f"structure: {S.name}",
        f"qa1 (inverses in A(x)A^op): {'pass' if report.qa1 else 'FAIL'}",
        f"qa2 (automorphism invariance): {'pass' if report.qa2 else 'FAIL'}",
        f"qa3 (Yang-Baxter): {'pass' if report.qa3 else 'FAIL'}",
    ] + [f"  witness: {w}" for w in report.witnesses]
    _emit(payload, args.format, lines)
    return EXIT_OK if report.all_true else EXIT_FAIL


def cmd_invariant(args) -> int:
    S = _load_structure(args.structure, args.bind)
    d = _load_diagram(args.diagram)
    st = stats(d)
    if d.boundary == "closed":
        if S.twist is None:
            print(
                "error: closed diagrams need a twist element "
                "(an invertible G implementing t_d o t_u by conjugation)",
                file=sys.stderr,
            )
            return EXIT_FAIL
        value = evaluate_link(S, d).text()
        lines = [f"value: {value}", f"writhe: {st.writhe}", f"whitney: {list(st.whitney)}"]
    else:
        value = evaluate_tangle(S, d).text()
        lines = [f"w(T) = {value}", f"writhe: {st.writhe}"]
    payload = {
        "diagram": serialize(d, sep=" / "),
        "algebra": S.name,
        "value": value,
        "writhe": st.writhe,
        "whitney": list(st.whitney),
    }
    _emit(payload, args.format, lines)
    return EXIT_OK


def _cmd_skein(args, which: str) -> int:
    d = _load_diagram(args.diagram)
    if d.boundary != "closed":
        raise CliInputError(f"{which} needs a closed diagram")
    poly = homfly(d) if which == "homfly" else conway(d)
    payload = {"diagram": serialize(d, sep=" / "), which: poly.text()}
    _emit(payload, args.format, [poly.text()])
    return EXIT_OK


def _load_single_block(path: str):
    """Single-block parameter file for verify-section6."""
    data = _load_json(path)
    try:
        return params_from_json(data)
    except (ValueError, KeyError, TypeError) as exc:
        raise CliInputError(f"bad single-block parameter file {path}: {exc}") from None


def _homogeneous_degree(s: Scalar, symbols) -> Optional[int]:
    try:
        return laurent_homogeneous_degree(s, symbols)
    except NotLaurentError:
        return None


def cmd_verify_section6(args) -> int:
    params = _load_single_block(args.structure)
    try:
        ctx = section6_context(params)
    except StructureError as exc:
        raise CliInputError(str(exc)) from None

    diagrams: List[str] = args.diagrams or [
        "unknot_ccw",
        "unknot_cw",
        "hopf",
        "trefoil_knot",
        "figure8_knot",
        "c_r_plus:2",
        "c_l_minus:1",
    ]
    # on the Tr G = 0 branch the closed trace vanishes, so the verdict is the
    # cut-open tangle's identity (identify_open)
    open_branch = ctx.trace_g.is_zero
    # F is homogeneous of degree writhe in (a, sbc).  The check reads the
    # degree in the symbols that a and sbc hold, so it applies only when
    # scaling those symbols by l scales a and sbc by l; otherwise (numbers
    # included) it reports null
    free = {str(x) for v in (ctx.a, ctx.sbc) for x in v.as_expr().free_symbols}
    degree_symbols = tuple(name for name in ctx.table.symbols if name in free)
    if degree_symbols and not all(
        _homogeneous_degree(v, degree_symbols) == 1 for v in (ctx.a, ctx.sbc)
    ):
        degree_symbols = ()
    results = []
    all_ok = True
    for spec in diagrams:
        if not spec.startswith("builtin:") and not os.path.exists(spec):
            spec_resolved = f"builtin:{spec}"
        else:
            spec_resolved = spec
        d = _load_diagram(spec_resolved)
        rep = identify_F(ctx, d)
        entry = {
            "diagram": spec,
            "branch": rep.branch,
            "identified": rep.passed,
            "polynomial": rep.polynomial.text(),
        }
        if open_branch:
            try:
                entry["open_identified"] = identify_open(ctx, d).passed
            except DiagramError as exc:
                entry["open_identified"] = False
                entry["open_error"] = str(exc)
            all_ok = all_ok and entry["open_identified"]
        else:
            hom_ok = None
            if degree_symbols:
                hom_ok = laurent_homogeneous_degree(rep.lhs, degree_symbols) == rep.writhe
            entry["homogeneous_degree_is_writhe"] = hom_ok
            all_ok = all_ok and rep.passed and hom_ok is not False
        results.append(entry)

    # skein triples at the first crossing of hopf and trefoil, and a curl
    triples = []
    for name in ("hopf", "trefoil_knot", "c_r_plus:1"):
        d = _load_diagram(f"builtin:{name}")
        index = next(i for i, s in enumerate(d.slices) if s.kind.is_crossing)
        ok = skein_triple_check(ctx, *crossing_triple(d, index))
        triples.append({"site": f"{name}[{index}]", "passed": ok})
        all_ok = all_ok and ok

    payload = {"identifications": results, "skein_triples": triples, "ok": all_ok}
    lines = []
    for entry in results:
        mark = "pass" if entry["identified"] else "FAIL"
        line = f"{entry['diagram']:>16}  branch={entry['branch']:<9} identify={mark}  "
        if open_branch:
            line += f"open={'pass' if entry['open_identified'] else 'FAIL'}  "
        line += f"poly={entry['polynomial']}"
        if "open_error" in entry:
            line += f"  ({entry['open_error']})"
        lines.append(line)
    for entry in triples:
        lines.append(
            f"skein triple {entry['site']:>18}: "
            + ("pass" if entry["passed"] else "FAIL")
        )
    _emit(payload, args.format, lines)
    return EXIT_OK if all_ok else EXIT_FAIL


# one parser per process: parse_args starts every call from a fresh namespace,
# and the append action copies its default list before it appends
@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oqa",
        description="Oriented quantum algebra structures and link invariants",
    )
    parser.add_argument(
        "--format", choices=("json", "text"), default="text", help="output format"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-axioms", help="verify the three structure axioms")
    p.add_argument("--structure", required=True)
    p.add_argument("--bind", action="append", default=[], metavar="SYM=VALUE")
    p.add_argument("--full", action="store_true", help="report every witness")
    p.set_defaults(func=cmd_check_axioms)

    p = sub.add_parser("invariant", help="evaluate the bead-sliding invariant")
    p.add_argument("--structure", required=True)
    p.add_argument("--diagram", required=True, help="path or builtin:<name>[:m]")
    p.add_argument("--bind", action="append", default=[], metavar="SYM=VALUE")
    p.set_defaults(func=cmd_invariant)

    p = sub.add_parser("homfly", help="two-variable regular-isotopy polynomial")
    p.add_argument("--diagram", required=True)
    p.set_defaults(func=lambda args: _cmd_skein(args, "homfly"))

    p = sub.add_parser("conway", help="one-variable Alexander polynomial")
    p.add_argument("--diagram", required=True)
    p.set_defaults(func=lambda args: _cmd_skein(args, "conway"))

    p = sub.add_parser(
        "verify-section6",
        help="identify the trace formula with the skein polynomials",
    )
    p.add_argument("--structure", required=True, help="single-block parameter file")
    p.add_argument("--diagrams", nargs="*", help="diagram specs (default: builtins)")
    p.set_defaults(func=cmd_verify_section6)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (DiagramError, InvariantError, StructureError, ScalarError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
