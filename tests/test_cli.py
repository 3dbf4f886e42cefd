import json
import random
from fractions import Fraction

import pytest

from oqa.cli import main


@pytest.fixture()
def ex2_file(tmp_path):
    path = tmp_path / "ex2.json"
    path.write_text(
        json.dumps(
            {
                "builder": "example2",
                "symbols": ["a", "sbc", "b"],
                "n": 2,
                "a": "a",
                "bc": "sbc**2",
                "b": {"1,2": "b"},
                "omega1_sq": "1",
            }
        )
    )
    return str(path)


@pytest.fixture()
def single_block_file(tmp_path):
    path = tmp_path / "sb.json"
    path.write_text(json.dumps({"symbols": ["a", "sbc"], "n": 2, "a": "a", "bc": "sbc**2"}))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_axioms_pass(capsys, ex2_file):
    code, out, _ = run_cli(capsys, "check-axioms", "--structure", ex2_file)
    assert code == 0
    assert "qa3 (Yang-Baxter): pass" in out


def test_check_axioms_tampered(capsys, tmp_path, ex2_file):
    from oqa import structure_to_json, structure_from_json

    S = structure_from_json(json.loads(open(ex2_file).read()))
    blob = structure_to_json(S)
    # perturb a Yang-Baxter-relevant slot of rho and its stored inverse pairing
    blob["rho"].append({"i": "E11", "j": "E12", "c": "1"})
    del blob["rho_inv"]
    del blob["twist"]
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(blob))
    code, out, _ = run_cli(capsys, "check-axioms", "--structure", str(bad))
    assert code == 1
    assert "qa3" in out and "FAIL" in out


def test_check_axioms_full_report(capsys, tmp_path, ex2_file):
    """--full lists every failing qa3 slot in sorted order; the default only
    the first witness per axiom; the CLI's witnesses are the API's."""
    from oqa import check_axioms, structure_from_json, structure_to_json
    from oqa.algebra import qybe_defect

    blob = structure_to_json(structure_from_json(json.loads(open(ex2_file).read())))
    blob["rho"].append({"i": "E11", "j": "E12", "c": "1"})
    del blob["rho_inv"]
    del blob["twist"]
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(blob))
    S = structure_from_json(blob)

    full = check_axioms(S, full_report=True).witnesses
    default = check_axioms(S).witnesses
    labels = S.algebra.basis_labels
    slots = [
        "(x)".join(labels[i] for i in key) for key in sorted(qybe_defect(S.algebra, S.rho))
    ]
    assert len(slots) > 1
    qa3 = [w for w in full if w.startswith("qa3:")]
    assert [w.split(": ")[1] for w in qa3] == [f"slot {slot}" for slot in slots]
    firsts = {}
    for w in full:
        firsts.setdefault(w.split()[0], w)
    assert list(default) == list(firsts.values())
    assert len(default) == 3

    for flags, want in (([], default), (["--full"], full)):
        code, out, _ = run_cli(
            capsys, "--format", "json", "check-axioms", "--structure", str(bad), *flags
        )
        assert code == 1
        assert json.loads(out)["witnesses"] == list(want)


def test_check_axioms_full_report_lists_every_qa1_qa2_slot(capsys, tmp_path, ex2_file):
    """--full lists every slot at which a qa1 product differs from the unit
    and a twisted rho from rho, per table in sorted slot order."""
    from oqa import AlgebraMap, apply_map_tensor, structure_from_json, structure_to_json
    from oqa import tensor_mul, tensor_unit

    blob = structure_to_json(structure_from_json(json.loads(open(ex2_file).read())))
    blob["rho"].append({"i": "E11", "j": "E12", "c": "1"})
    del blob["rho_inv"]
    del blob["twist"]
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(blob))
    S = structure_from_json(blob)
    A, ident = S.algebra, AlgebraMap.identity(S.algebra)
    p = apply_map_tensor(ident, S.t_u, S.rho)
    r = apply_map_tensor(S.t_d, ident, S.rho_inv)
    tables = [
        ("qa1 left", tensor_mul(A, p, r, second_factor_opposite=True), tensor_unit(A)),
        ("qa1 right", tensor_mul(A, r, p, second_factor_opposite=True), tensor_unit(A)),
        ("qa2 t_d", apply_map_tensor(S.t_d, S.t_d, S.rho), S.rho),
        ("qa2 t_u", apply_map_tensor(S.t_u, S.t_u, S.rho), S.rho),
    ]
    zero, labels = S.table.zero, A.basis_labels
    want = []
    for tag, got, ref in tables:
        for i, j in sorted(got.coeffs.keys() | ref.coeffs.keys()):
            g, w = got.coeffs.get((i, j), zero), ref.coeffs.get((i, j), zero)
            if g != w:
                want.append(f"{tag}: slot {labels[i]}(x){labels[j]}: {g.text()} != {w.text()}")

    code, out, _ = run_cli(
        capsys, "--format", "json", "check-axioms", "--structure", str(bad), "--full"
    )
    assert code == 1
    got = [w for w in json.loads(out)["witnesses"] if not w.startswith("qa3:")]
    assert got == want
    assert [sum(w.startswith(tag + ":") for w in got) for tag, _, _ in tables] == [4, 3, 1, 1]


def test_check_axioms_malformed(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "check-axioms", "--structure", str(bad))
    assert code == 2
    assert "malformed" in err


def test_invariant_closed(capsys, ex2_file):
    code, out, _ = run_cli(
        capsys, "invariant", "--structure", ex2_file, "--diagram", "builtin:hopf"
    )
    assert code == 0
    assert "writhe: 2" in out
    assert "(a**6 + a**4*sbc**2 + a**2*sbc**4 + sbc**6)/(a**2*sbc**2)" in out


def test_invariant_tangle(capsys, ex2_file):
    code, out, _ = run_cli(
        capsys, "invariant", "--structure", ex2_file, "--diagram", "builtin:curl"
    )
    assert code == 0
    assert out.startswith("w(T) =")


def test_invariant_bindings_json(capsys, ex2_file):
    args = [
        "--format", "json", "invariant", "--structure", ex2_file,
        "--diagram", "builtin:hopf",
        "--bind", "a=2", "--bind", "sbc=1", "--bind", "b=symbolic",
    ]
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "85/4"
    assert payload["whitney"] == [-1, 1]
    # identical invocation produces byte-identical output
    code2, out2, _ = run_cli(capsys, *args)
    assert out2 == out


def test_invariant_missing_twist(capsys, tmp_path):
    path = tmp_path / "sweedler.json"
    path.write_text(json.dumps({"builder": "sweedler", "symbols": ["alpha"], "alpha": "alpha"}))
    code, out, err = run_cli(
        capsys, "invariant", "--structure", str(path), "--diagram", "builtin:hopf"
    )
    assert (code, out) == (1, "")
    assert err == (
        "error: closed diagrams need a twist element "
        "(an invertible G implementing t_d o t_u by conjugation)\n"
    )


def test_homfly_conway_commands(capsys):
    code, out, _ = run_cli(capsys, "conway", "--diagram", "builtin:trefoil_knot")
    assert code == 0 and out.strip() == "z^2 + 1"
    code, out, _ = run_cli(capsys, "homfly", "--diagram", "builtin:unknot_ccw")
    assert code == 0 and out.strip() == "1"
    code, out, err = run_cli(capsys, "conway", "--diagram", "builtin:nonsense")
    assert code == 2
    # the list of known names is offered only when the name is unknown
    assert "(known: " in err and "c_r_plus" in err
    for spec in ("builtin:hopf:7", "builtin:c_r_plus"):
        code, out, err = run_cli(capsys, "homfly", "--diagram", spec)
        assert code == 2 and "(known: " not in err, spec
    code, out, err = run_cli(capsys, "homfly", "--diagram", "builtin:c_r_plus:x")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    # a count on a builtin that takes none, and an open tangle, are bad input
    for spec in ("builtin:hopf:7", "builtin:curl_op:1"):
        code, out, err = run_cli(capsys, "homfly", "--diagram", spec)
        assert code == 2 and out == "", spec
        assert err.startswith("error: ") and err.count("\n") == 1, spec
        assert "takes no count" in err, spec
    # the count is ASCII decimal digits, with an optional leading -
    for count in ("0_2", " 2", "+2", "\u0662"):
        spec = f"builtin:c_r_plus:{count}"
        code, out, err = run_cli(capsys, "conway", "--diagram", spec)
        assert (code, out) == (2, ""), spec
        assert err == f"error: builtin count {count!r} in {spec!r} is not an integer\n"
    # nothing may follow the count
    for spec in ("c_r_plus:2:3", "hopf::"):
        code, out, err = run_cli(capsys, "conway", "--diagram", f"builtin:{spec}")
        assert code == 2 and out == "", spec
        assert err == f"error: builtin spec {spec!r} is not <name>[:m]\n"
    for command in ("homfly", "conway"):
        code, out, err = run_cli(capsys, command, "--diagram", "builtin:trefoil_tangle")
        assert code == 2 and out == ""
        assert err == f"error: {command} needs a closed diagram\n"


def test_bind_input_errors(capsys, tmp_path, ex2_file):
    """An undeclared symbol, a vanishing denominator and a value that is not
    an expression are input errors, as is such a value in a structure file."""
    not_expressions = ("a=True", "a=None", "a=[1]")
    for command in (["check-axioms"], ["invariant", "--diagram", "builtin:hopf"]):
        for bind in ("zz=3", "zz=symbolic", "a=0") + not_expressions:
            code, out, err = run_cli(
                capsys, *command, "--structure", ex2_file, "--bind", bind
            )
            assert code == 2 and out == "", (command, bind)
            assert err.startswith("error: ") and err.count("\n") == 1, (command, bind)
            if bind in not_expressions:
                assert err.startswith(f"error: bad binding {bind!r}: cannot parse"), err
    _, _, err = run_cli(capsys, "check-axioms", "--structure", ex2_file, "--bind", "zz=3")
    assert "'zz'" in err
    _, _, err = run_cli(capsys, "check-axioms", "--structure", ex2_file, "--bind", "a=0")
    assert "denominator" in err
    blob = json.loads(open(ex2_file).read())
    blob["a"] = "None"
    bad = tmp_path / "none.json"
    bad.write_text(json.dumps(blob))
    code, out, err = run_cli(capsys, "check-axioms", "--structure", str(bad))
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err.startswith(f"error: bad structure file {bad}: cannot parse"), err


def test_bind_naming_a_symbol_twice_is_an_input_error(capsys, ex2_file):
    """A symbol bound twice exits 2 whichever value, a number or symbolic,
    comes first."""
    for binds in (["a=2", "a=3"], ["a=2", "a=symbolic"], ["a=symbolic", "a=2"]):
        argv = ["invariant", "--structure", ex2_file, "--diagram", "builtin:hopf"]
        for bind in binds:
            argv += ["--bind", bind]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", "error: --bind names 'a' twice\n"), binds


def test_bind_making_t_singular_is_an_input_error(capsys, tmp_path, ex2_file):
    """A binding that makes t_u singular on a structure without a twist exits
    2, as the same file with the value written in does; with a twist the
    maps stay bijective and nothing is rejected."""
    from oqa import SymbolTable, structure_to_json, sweedler_oqa

    t = SymbolTable(["c"])
    blob = structure_to_json(sweedler_oqa(t, t.zero))
    del blob["rho_inv"]
    path = tmp_path / "h4c.json"
    for c, binds, message in (
        ("0", [], f"bad structure file {path}: map is not invertible"),
        ("c", ["--bind", "c=0"], "t_u is not invertible at the bound values"),
    ):
        blob["t_u"] = {"1": {"1": "1"}, "g": {"g": "1"}, "x": {"x": c}, "gx": {"gx": c}}
        path.write_text(json.dumps(blob))
        code, out, err = run_cli(capsys, "check-axioms", "--structure", str(path), *binds)
        assert (code, out, err) == (2, "", f"error: {message}\n")
    code, out, _ = run_cli(capsys, "check-axioms", "--structure", str(path), "--bind", "c=2")
    assert code == 0 and "qa3 (Yang-Baxter): pass" in out
    code, _, _ = run_cli(
        capsys, "check-axioms", "--structure", ex2_file,
        "--bind", "a=2", "--bind", "sbc=3", "--bind", "b=5",
    )
    assert code == 0


def test_nonpositive_n_names_n(capsys, tmp_path, ex2_file, single_block_file):
    """example2 and single-block files with n < 1 are rejected for their n,
    with the message an explicit matrix algebra of that size gets."""
    path = tmp_path / "n.json"
    for command, source in (
        ("check-axioms", ex2_file),
        ("verify-section6", single_block_file),
    ):
        for n in (0, -1):
            path.write_text(json.dumps(dict(json.loads(open(source).read()), n=n)))
            code, out, err = run_cli(capsys, command, "--structure", str(path))
            assert code == 2 and out == "", (command, n)
            assert err.startswith("error: bad ") and err.count("\n") == 1, err
            assert err.endswith(f"{path}: matrix algebra needs n >= 1\n"), err


def test_diagram_file_input(capsys, tmp_path, ex2_file):
    p = tmp_path / "hopf.morse"
    p.write_text("boundary: closed\ncup_ccw 0\ncup_cw 2\nxp 1\nxp 1\ncap_cw 2\ncap_ccw 0\n")
    code, out, _ = run_cli(
        capsys, "invariant", "--structure", ex2_file, "--diagram", str(p)
    )
    assert code == 0
    # a second, empty, misspelled or late boundary header is bad input
    loop = "cup_ccw 0\ncap_ccw 0\n"
    for text, message in (
        ("boundary: open\nboundary: closed\n" + loop, "line 2: a second boundary header"),
        ("boundary:\n" + loop, "line 1: boundary '' is not closed or open"),
        ("boundary: Open\n" + loop, "line 1: boundary 'Open' is not closed or open"),
        ("cup_ccw 0 / boundary: closed / cap_ccw 0\n",
         "line 1: boundary header after the first slice"),
    ):
        p.write_text(text)
        for argv in (("invariant", "--structure", ex2_file), ("conway",)):
            code, out, err = run_cli(capsys, *argv, "--diagram", str(p))
            assert (code, out) == (2, ""), (argv, text)
            assert err == f"error: bad diagram {p}: {message}\n", (argv, text)


def test_verify_section6(capsys, single_block_file):
    code, out, _ = run_cli(
        capsys,
        "verify-section6",
        "--structure",
        single_block_file,
        "--diagrams",
        "unknot_ccw",
        "hopf",
        "c_l_plus:1",
    )
    assert code == 0
    assert out.count("identify=pass") == 3
    assert out.count("skein triple") == 3


def test_verify_section6_alexander_branch(capsys, tmp_path):
    path = tmp_path / "alex.json"
    path.write_text(
        json.dumps(
            {
                "symbols": ["a", "sbc"],
                "gaussian": True,
                "n": 2,
                "a": "a",
                "bc": "sbc**2",
                "a_values": ["a", "-sbc**2/a"],
            }
        )
    )
    code, out, _ = run_cli(
        capsys, "verify-section6", "--structure", str(path), "--diagrams", "unknot_ccw"
    )
    # the degenerate branch is selected automatically; the closed trace
    # vanishes there, so the verdict follows the cut-open identity
    assert "branch=alexander" in out
    assert "identify=FAIL  open=pass" in out
    assert code == 0

    code, out, _ = run_cli(
        capsys, "--format", "json", "verify-section6", "--structure", str(path),
        "--diagrams", "hopf", "unknot_cw",
    )
    hopf, unknot_cw = json.loads(out)["identifications"]
    assert (hopf["identified"], hopf["open_identified"]) == (False, True)
    assert "open_error" not in hopf
    # cut_open rejects a diagram that does not open with cup_ccw 0
    assert unknot_cw["open_identified"] is False
    assert unknot_cw["open_error"].startswith("cut_open needs a diagram")
    assert code == 1

    code, out, _ = run_cli(
        capsys, "verify-section6", "--structure", str(path), "--diagrams", "unknot_cw"
    )
    assert "open=FAIL" in out and "(cut_open needs a diagram" in out
    assert len(out.splitlines()) == 4
    assert code == 1


def test_malformed_files_are_input_errors(capsys, tmp_path, ex2_file, single_block_file):
    """Wrong JSON types, bad integers and out-of-range b keys in structure and
    parameter files exit 2 with one error line, never a traceback."""
    from oqa import structure_from_json, structure_to_json

    ex2 = json.loads(open(ex2_file).read())
    explicit = structure_to_json(structure_from_json(ex2))
    block = json.loads(open(single_block_file).read())
    bad_structures = [
        [1, 2],
        "ex2",
        dict(ex2, n="two"),
        dict(ex2, a=2),
        dict(ex2, b={"x": "1"}),
        dict(ex2, b=[]),
        dict(ex2, b={"1,3": "b"}),
        dict(ex2, b={"2,1": "b"}),
        dict(ex2, b={"1,2,3": "b"}),
        dict(ex2, a_values=["a"]),
        dict(explicit, algebra={"kind": "matrix", "n": "x"}),
        dict(explicit, algebra={"kind": "matrix", "n": 2.0}),
        dict(explicit, algebra={"kind": "matrix", "n": True}),
        dict(explicit, t_d=[]),
        dict(explicit, t_u={"E11": []}),
        dict(explicit, trace=[]),
        dict(explicit, trace={"E11": 1}),
        dict(explicit, twist={"g": [], "g_inv": {}}),
    ]
    bad_blocks = [
        [1, 2],
        dict(block, n="2x"),
        dict(block, n=2.7),
        dict(block, n="2"),
        dict(block, n=True),
        dict(block, bc=None),
        dict(block, b={"1,3": "2"}),
        dict(block, b=[]),
        dict(block, a_values=["a", "a", "a"]),
    ]
    path = tmp_path / "bad.json"
    for command, blobs in (("check-axioms", bad_structures), ("verify-section6", bad_blocks)):
        for blob in blobs:
            path.write_text(json.dumps(blob))
            code, out, err = run_cli(capsys, command, "--structure", str(path))
            assert code == 2 and out == "", (command, blob)
            assert err.startswith("error: ") and err.count("\n") == 1, (command, blob, err)
    path.write_text(json.dumps(dict(ex2, b={"1,3": "b"})))
    _, _, err = run_cli(capsys, "check-axioms", "--structure", str(path))
    assert "b key '1,3' is not i,j with 1 <= i < j <= 2" in err
    # n is read only as a JSON integer: no truncation, no string, no bool
    for n, shown in ((2.7, "2.7"), (2.0, "2.0"), ("2", "'2'"), (True, "True")):
        path.write_text(json.dumps(dict(ex2, n=n)))
        code, out, err = run_cli(capsys, "check-axioms", "--structure", str(path))
        assert code == 2 and out == ""
        assert err == f"error: bad structure file {path}: n must be a JSON integer, got {shown}\n"
    path.write_text("[1, 2]")
    _, _, err = run_cli(capsys, "check-axioms", "--structure", str(path))
    assert err == f"error: {path} holds a JSON list, not an object\n"
    # a directory, and bytes that are not UTF-8, as structure or diagram
    path.write_bytes(b"\xff\xfe{}")
    for argv in (
        ["check-axioms", "--structure", str(tmp_path)],
        ["check-axioms", "--structure", str(path)],
        ["invariant", "--structure", ex2_file, "--diagram", str(tmp_path)],
        ["invariant", "--structure", ex2_file, "--diagram", str(path)],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and err.count("\n") == 1, (argv, err)



def test_section6_files_that_cannot_close_are_input_errors(capsys, tmp_path, ex2_file):
    """verify-section6 exits 2 with one line, naming the cause, when a^2 = bc
    (q = a/sbc is 1 or -1, so the skein variable q - q^-1 is zero) and when
    the file's values make the build divide by zero, as check-axioms does."""
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"symbols": ["a"], "n": 1, "a": "a", "bc": "a**2"}))
    code, out, err = run_cli(capsys, "verify-section6", "--structure", str(path))
    assert (code, out) == (2, "")
    assert err == "error: a^2 = bc: q = a/sbc is 1 or -1, so the skein variable q - q^-1 is zero\n"
    blob = dict(json.loads(open(ex2_file).read()), omega1_sq="0")
    path.write_text(json.dumps(blob))
    for command, kind in (("verify-section6", "single-block parameter"), ("check-axioms", "structure")):
        code, out, err = run_cli(capsys, command, "--structure", str(path))
        assert (code, out, err) == (2, "", f"error: bad {kind} file {path}: inverse of the zero scalar\n")


def test_missing_json_fields_are_named(capsys, tmp_path, ex2_file, single_block_file):
    """A field a file lacks is named as such in both loaders, not as the bare
    text of a KeyError."""
    from oqa import structure_from_json, structure_to_json

    explicit = structure_to_json(structure_from_json(json.loads(open(ex2_file).read())))
    block = json.loads(open(single_block_file).read())
    path = tmp_path / "f.json"
    for command, kind, blob, missing in (
        ("check-axioms", "structure", {k: v for k, v in explicit.items() if k != "algebra"}, "'algebra'"),
        ("check-axioms", "structure", dict(explicit, algebra={"n": 2}), "'kind' (in algebra)"),
        ("verify-section6", "single-block parameter", {k: v for k, v in block.items() if k != "n"}, "'n'"),
    ):
        path.write_text(json.dumps(blob))
        code, out, err = run_cli(capsys, command, "--structure", str(path))
        assert (code, out, err) == (2, "", f"error: bad {kind} file {path}: missing field {missing}\n")

def test_successive_calls_share_no_options(capsys, tmp_path, ex2_file):
    """main() builds its parser once per process; the --bind and --full of
    one call do not reach the next."""
    from oqa import cli, structure_from_json, structure_to_json

    parser = cli.build_parser()
    assert cli.build_parser() is parser
    argv = ["check-axioms", "--structure", ex2_file]
    assert parser.parse_args(argv + ["--bind", "a=2", "--full"]).bind == ["a=2"]
    args = parser.parse_args(argv)
    assert args.bind == [] and args.full is False

    hopf = ["invariant", "--structure", ex2_file, "--diagram", "builtin:hopf"]
    _, symbolic, _ = run_cli(capsys, *hopf)
    _, bound, _ = run_cli(capsys, *hopf, "--bind", "a=2", "--bind", "sbc=1")
    _, bound_b, _ = run_cli(capsys, *hopf, "--bind", "b=3")
    _, again, _ = run_cli(capsys, *hopf)
    assert "value: 85/4" in bound and bound_b == symbolic == again != bound

    blob = structure_to_json(structure_from_json(json.loads(open(ex2_file).read())))
    blob["rho"].append({"i": "E11", "j": "E12", "c": "1"})
    del blob["rho_inv"]
    del blob["twist"]
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(blob))
    tampered = ["check-axioms", "--structure", str(bad)]
    _, default, _ = run_cli(capsys, *tampered)
    _, full, _ = run_cli(capsys, *tampered, "--full")
    _, default_again, _ = run_cli(capsys, *tampered)
    assert full.count("witness:") > default.count("witness:")
    assert default_again == default


def _bind_and_reassemble(S, bindings):
    """Binding as it was done before: substituted tables assembled again by
    create, which re-checks rho_inv, and attach_twist, which re-checks the
    twist."""
    from oqa import OrientedQuantumAlgebraStructure, attach_twist
    from oqa.scalar import substitute
    from oqa.structures import _map_scalars

    T = _map_scalars(S, lambda s: substitute(s, bindings))
    R = OrientedQuantumAlgebraStructure.create(
        T.algebra, T.rho, T.t_d, T.t_u, rho_inv=T.rho_inv, trace=T.trace,
        name=T.name, validate_maps=False,
    )
    return R if T.twist is None else attach_twist(R, T.twist.g, T.twist.g_inv)


def test_bound_structure_equals_reassembled_one(tmp_path):
    """--bind maps the tables of the verified structure and checks nothing
    again: on seeded example2 bindings over M_2-M_4 (full, partial and with
    a < 0) and on explicit tables that store rho_inv and a twist, the bound
    structure equals the re-checked re-assembly table for table and
    satisfies the axioms."""
    from oqa import check_axioms, structure_from_json, structure_to_json
    from oqa.cli import _load_structure, _parse_bindings

    def example2(n):
        b = {f"{i},{j}": "b" if (i, j) == (1, 2) else f"{i + j}/{j}"
             for i in range(1, n + 1) for j in range(i + 1, n + 1)}
        return {"builder": "example2", "symbols": ["a", "sbc", "b"], "n": n,
                "a": "a", "bc": "sbc**2", "b": b, "omega1_sq": "1"}

    rng = random.Random(12)

    def draw():
        while True:
            av = Fraction(rng.randint(2, 9), rng.randint(1, 3))
            sv = Fraction(rng.randint(1, 9), rng.randint(1, 3))
            if av**2 not in (sv**2, 1):
                return av, sv, Fraction(rng.randint(1, 9), rng.randint(1, 5))

    files = []
    for n in (2, 3, 4):
        av, sv, bv = draw()
        files.append((example2(n), [
            [f"a={av}", f"sbc={sv}", f"b={bv}"],
            [f"a={av}", f"sbc={sv}", "b=symbolic"],
            [f"a={-av}", f"sbc={sv}", f"b={bv}"],
        ]))
    explicit = structure_to_json(structure_from_json(example2(2)))
    assert "rho_inv" in explicit and "twist" in explicit
    av, sv, bv = draw()
    files.append((explicit, [[f"a={-av}", f"sbc={sv}", f"b={bv}"], [f"b={bv}"]]))

    path = tmp_path / "structure.json"
    for blob, binds_list in files:
        path.write_text(json.dumps(blob))
        S = structure_from_json(blob)
        for binds in binds_list:
            bound = _load_structure(str(path), binds)
            old = _bind_and_reassemble(S, _parse_bindings(binds, S.table))
            for field in ("algebra", "rho", "rho_inv", "t_d", "t_u", "twist", "trace", "name"):
                assert getattr(bound, field) == getattr(old, field), (binds, field)
            assert check_axioms(bound).all_true, binds


def _table_map_load(path, binds):
    """Reference route for --bind: the built structure's tables mapped to the
    bound values, with the CLI's error mapping."""
    from oqa import structure_from_json
    from oqa.cli import CliInputError, _load_json, _parse_bindings
    from oqa.scalar import ZeroDenominatorError, substitute
    from oqa.structures import _map_scalars

    data = _load_json(path)
    try:
        S = structure_from_json(data)
    except (ValueError, KeyError, TypeError) as exc:
        raise CliInputError(f"bad structure file {path}: {exc}") from None
    bindings = _parse_bindings(binds, S.table)
    if not bindings:
        return S

    def sub(s):
        try:
            return substitute(s, bindings)
        except ZeroDenominatorError as exc:
            raise CliInputError(str(exc)) from None

    return _map_scalars(S, sub)


def test_bound_build_matches_table_map_route(capsys, tmp_path, monkeypatch):
    """Every check-axioms and invariant command on a bound example2 file
    prints, byte for byte and with the same exit code, what the table-map
    reference route prints.  Covered: seeded files on M_2-M_4, full and
    partial bindings, a < 0, bindings at which a denominator vanishes (a = 0,
    sbc = 0, b = 0, a = +-sbc), a bad value (a = True), an undeclared symbol
    and an all-symbolic set."""
    import oqa.cli as cli

    rng = random.Random(31)

    def draw():
        while True:
            a = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 3))
            s = Fraction(rng.randint(1, 9), rng.randint(1, 3))
            if a * a not in (s * s, 1):
                return a, s, Fraction(rng.randint(1, 9), rng.randint(1, 5))

    commands = []
    for n in (2, 3, 4):
        path = tmp_path / f"ex2_n{n}.json"
        b = {f"{i},{j}": "b" if (i, j) == (1, 2) else f"{rng.randint(1, 9)}/{rng.randint(1, 4)}"
             for i in range(1, n + 1) for j in range(i + 1, n + 1)}
        path.write_text(json.dumps({"builder": "example2", "symbols": ["a", "sbc", "b"],
                                    "n": n, "a": "a", "bc": "sbc**2", "b": b}))
        a, s, bv = draw()
        bind_sets = [
            [f"a={a}", f"sbc={s}", f"b={bv}"],
            [f"a={a}", f"sbc={s}", "b=symbolic"],
            [f"a={-abs(a)}", f"sbc={s}", f"b={bv}"],
            ["a=0"], ["sbc=0"], ["b=0"], [f"a={s}", f"sbc={s}"], [f"a={-s}", f"sbc={s}"],
            ["a=True"], [f"a={a}", "c=1"], ["a=symbolic", "sbc=symbolic", "b=symbolic"],
        ]
        for k, binds in enumerate(bind_sets):
            tail = ["--structure", str(path)] + [x for v in binds for x in ("--bind", v)]
            for fmt in ("text", "json") if k < 3 else ("text",):
                head = ["--format", fmt]
                commands.append(head + ["check-axioms"] + tail)
                commands.append(head + ["check-axioms", "--full"] + tail)
                for d in ("hopf", "trefoil_knot", "c_r_plus:1", "trefoil_tangle"):
                    commands.append(head + ["invariant", "--diagram", f"builtin:{d}"] + tail)

    def run_all():
        return [run_cli(capsys, *argv) for argv in commands]

    built = run_all()
    assert sum(code == 0 for code, _, _ in built) > len(commands) // 2
    assert {code for code, _, _ in built} == {0, 2}
    monkeypatch.setattr(cli, "_load_structure", _table_map_load)
    assert run_all() == built


def test_bound_example2_load_classifies_once(monkeypatch, ex2_file):
    """A bound example2 file is classified over its unbound parameters only;
    the bound tables are checked by the build's own gate."""
    from oqa import structures
    from oqa.cli import _load_structure

    calls = []

    def counting(params, original=structures.classify_thm5):
        calls.append(params)
        return original(params)

    monkeypatch.setattr(structures, "classify_thm5", counting)
    S = _load_structure(ex2_file, ["a=2", "sbc=1", "b=3"])
    assert len(calls) == 1
    assert S == _table_map_load(ex2_file, ["a=2", "sbc=1", "b=3"])


def test_verify_section6_missing_diagram_file(capsys, single_block_file):
    """A --diagrams spec that is neither a file nor a builtin name is a
    missing file, not an unknown builtin; bare builtin names still resolve."""
    code, out, err = run_cli(
        capsys, "verify-section6", "--structure", single_block_file,
        "--diagrams", "nosuch.txt",
    )
    assert (code, out, err) == (2, "", "error: no such diagram file: nosuch.txt\n")
    code, out, _ = run_cli(
        capsys, "verify-section6", "--structure", single_block_file,
        "--diagrams", "hopf", "c_r_plus:2",
    )
    assert code == 0 and out.count("identify=pass") == 2


def test_verify_section6_reads_the_degree_in_a_and_sbc(capsys, tmp_path):
    """The homogeneity check takes the degree in the symbols of a and sbc,
    whatever their place in "symbols".  Where scaling those symbols does not
    scale a and sbc alike (no symbol at all, or a number for sbc only) it is
    null and does not fail the command."""
    path = tmp_path / "sb.json"
    for blob, expected in (
        ({"symbols": [], "n": 2, "a": "2", "bc": "9", "b": {"1,2": "5"}}, None),
        ({"symbols": ["a"], "n": 2, "a": "a", "bc": "4"}, None),
        ({"symbols": ["s", "b"], "n": 2, "a": "3*s", "bc": "4*s**2", "b": {"1,2": "b"}}, True),
        ({"symbols": ["b", "a", "sbc"], "n": 2, "a": "a", "bc": "sbc**2",
          "b": {"1,2": "b"}}, True),
    ):
        path.write_text(json.dumps(blob))
        code, out, err = run_cli(
            capsys, "--format", "json", "verify-section6", "--structure", str(path)
        )
        payload = json.loads(out)
        assert (code, err, payload["ok"]) == (0, "", True), blob
        assert {e["homogeneous_degree_is_writhe"] for e in payload["identifications"]} == {expected}


def test_verify_section6_open_diagram_is_input_error(capsys, single_block_file):
    """verify-section6 identifies closed diagrams only; an open one is bad
    input, reported in one line that names the spec."""
    for spec in ("trefoil_tangle", "builtin:curl"):
        code, out, err = run_cli(
            capsys, "verify-section6", "--structure", single_block_file,
            "--diagrams", "hopf", spec,
        )
        assert (code, out) == (2, "")
        assert err == f"error: verify-section6 needs closed diagrams, not {spec}\n"


def test_bound_example2_load_shares_one_t_map(ex2_file):
    """t_d and t_u of a Thm-5 build are one map, and a bound load maps it once."""
    from oqa.cli import _load_structure

    S = _load_structure(ex2_file, ["a=2", "sbc=1", "b=3"])
    assert S.t_u is S.t_d


def test_bad_binding_is_reported_before_a_bad_table(capsys, tmp_path):
    """--bind values are read against the file's symbols before its tables."""
    path = tmp_path / "bad.json"
    blob = {"builder": "example2", "symbols": ["a", "sbc"], "n": 2, "a": "a +", "bc": "sbc**2"}
    path.write_text(json.dumps(blob))
    code, out, err = run_cli(capsys, "check-axioms", "--structure", str(path))
    assert (code, out) == (2, "") and err.startswith(f"error: bad structure file {path}: ")
    code, out, err = run_cli(
        capsys, "check-axioms", "--structure", str(path), "--bind", "zz=3"
    )
    assert (code, out) == (2, "")
    assert err == "error: --bind names undeclared symbol 'zz' (declared: a, sbc)\n"


@pytest.mark.parametrize(
    "field,value,message",
    [
        # a string is iterable: "ab" declared a and b
        ("symbols", "ab", "symbols must be a JSON list of strings, got 'ab'"),
        ("symbols", ["a", "b", 1], "symbol name 1 is not an ASCII identifier"),
        # every nonempty string is truthy
        ("gaussian", "false", "gaussian must be a JSON bool, got 'false'"),
        ("a_values", "aa", "a_values must be a JSON list, got 'aa'"),
    ],
)
def test_json_fields_have_their_json_types(capsys, tmp_path, field, value, message):
    """The readers take symbols and a_values only as lists and gaussian only
    as a bool; any other value exits 2 with one line."""
    blob = {"builder": "example2", "symbols": ["a", "b"], "n": 2, "a": "a", "bc": "b**2"}
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(dict(blob, **{field: value})))
    code, out, err = run_cli(capsys, "check-axioms", "--structure", str(path))
    assert (code, out, err) == (2, "", f"error: bad structure file {path}: {message}\n")


@pytest.mark.parametrize(
    "field,value,message",
    [
        (("algebra",), ["matrix"], "algebra must be a JSON object, not list"),
        # every nonempty string is truthy
        (("algebra", "opposite"), "false", "opposite must be a JSON bool, got 'false'"),
        (("rho",), {}, "rho must be a JSON list, not dict"),
        (("rho",), {"i": "E11"}, "rho must be a JSON list, not dict"),
        (("rho",), ["E11"], "rho[0] must be a JSON object, not str"),
        (("rho_inv",), 5, "rho_inv must be a JSON list, not int"),
        (("t_d",), [1], "t_d must be a JSON object, not list"),
        (("t_d", "E11"), [1], 't_d["E11"] must be a JSON object, not list'),
        (("trace",), ["E11"], "trace must be a JSON object, not list"),
        (("twist",), "G", "twist must be a JSON object, not str"),
        (("twist", "g"), ["E11"], 'twist["g"] must be a JSON object, not list'),
        (("name",), 5, "name must be a JSON string, got 5"),
    ],
)
def test_table_fields_have_their_json_types(capsys, tmp_path, ex2_file, field, value, message):
    """Every table of an explicit-table file takes only its JSON shape: a
    value of another type exits 2 with one line that names the field."""
    from oqa import structure_from_json, structure_to_json

    blob = structure_to_json(structure_from_json(json.loads(open(ex2_file).read())))
    *outer, last = field
    entry = blob
    for key in outer:
        entry = entry[key]
    entry[last] = value
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(blob))
    code, out, err = run_cli(capsys, "check-axioms", "--structure", str(path))
    assert (code, out, err) == (2, "", f"error: bad structure file {path}: {message}\n")


def test_scalar_errors_name_their_json_field(capsys, tmp_path, ex2_file):
    """A scalar text a structure file cannot be read from exits 2 with one
    line that ends with the JSON field it sits in: an example2 parameter, a
    row of an explicit rho and an entry of an explicit t_u."""
    from oqa import SymbolTable, structure_to_json, sweedler_oqa

    example2 = json.loads(open(ex2_file).read())
    t = SymbolTable(["c"])
    explicit = structure_to_json(sweedler_oqa(t, t.sym("c")))
    zero = "division by the zero scalar"
    undeclared = "symbol 'zz' not declared in SymbolTable(['c'], domain=QQ)"
    path = tmp_path / "fields.json"
    for blob, field, text, message in (
        (example2, ("b", "1,2"), "1/0", f'{zero} (in b["1,2"])'),
        (explicit, ("rho", 4, "c"), "zz", f'{undeclared} (in rho[4]["c"])'),
        (explicit, ("t_u", "x", "x"), "1/(c - c)", f'{zero} (in t_u["x"]["x"])'),
    ):
        blob = json.loads(json.dumps(blob))
        *outer, last = field
        entry = blob
        for key in outer:
            entry = entry[key]
        entry[last] = text
        path.write_text(json.dumps(blob))
        code, out, err = run_cli(capsys, "check-axioms", "--structure", str(path))
        assert (code, out, err) == (2, "", f"error: bad structure file {path}: {message}\n")


def test_errors_inside_tables_name_their_field(capsys, tmp_path, ex2_file):
    """An unknown basis label, a missing key or a duplicate slot inside a row
    or column of an explicit-table file, and a bad field of its algebra
    object, exit 2 with one line that ends with the field it sits in."""
    from oqa import structure_from_json, structure_to_json

    def renamed(table, old, new):
        return {new if k == old else k: v for k, v in table.items()}

    unknown = "unknown basis label {} in AlgebraSpec(M2, dim=4) (in {})"
    path = tmp_path / "fields.json"
    for edit, message in (
        (lambda b: b["rho"][0].update(i=5), unknown.format(5, 'rho[0]["i"]')),
        (lambda b: b["rho"][0].update(i="E99"), unknown.format("'E99'", 'rho[0]["i"]')),
        (lambda b: b["rho_inv"][1].update(j="E99"), unknown.format("'E99'", 'rho_inv[1]["j"]')),
        (lambda b: b["rho"][0].pop("c"), "missing field 'c' (in rho[0])"),
        (lambda b: b["rho"][2].pop("i"), "missing field 'i' (in rho[2])"),
        (lambda b: b["rho"].append(dict(b["rho"][0])), "duplicate tensor slot E11,E11 (in rho[5])"),
        (
            lambda b: b.update(t_d=renamed(b["t_d"], "E12", "E99")),
            unknown.format("'E99'", 't_d["E99"]'),
        ),
        (
            lambda b: b["t_u"].update(E11=renamed(b["t_u"]["E11"], "E11", "E99")),
            unknown.format("'E99'", 't_u["E11"]["E99"]'),
        ),
        (
            lambda b: b["twist"].update(g=renamed(b["twist"]["g"], "E22", "E99")),
            unknown.format("'E99'", 'twist["g"]["E99"]'),
        ),
        (lambda b: b["twist"].pop("g"), "missing field 'g' (in twist)"),
        (
            lambda b: b.update(trace=renamed(b["trace"], "E11", "E99")),
            unknown.format("'E99'", 'trace["E99"]'),
        ),
        (lambda b: b.update(algebra={"n": 2}), "missing field 'kind' (in algebra)"),
        (
            lambda b: b.update(algebra={"kind": "foo", "n": 2}),
            """unknown algebra kind 'foo' (in algebra["kind"])""",
        ),
        (lambda b: b.update(algebra={"kind": "matrix"}), "missing field 'n' (in algebra)"),
        (
            lambda b: b.update(algebra={"kind": "matrix", "n": "2"}),
            """n must be a JSON integer, got '2' (in algebra["n"])""",
        ),
        (
            lambda b: b.update(algebra={"kind": "matrix", "n": 0}),
            'matrix algebra needs n >= 1 (in algebra["n"])',
        ),
    ):
        blob = structure_to_json(structure_from_json(json.loads(open(ex2_file).read())))
        edit(blob)
        path.write_text(json.dumps(blob))
        code, out, err = run_cli(capsys, "check-axioms", "--structure", str(path))
        assert (code, out, err) == (2, "", f"error: bad structure file {path}: {message}\n")


@pytest.mark.parametrize("route", ["structure field", "--bind", "verify-section6 field"])
def test_outside_text_runs_no_code(capsys, tmp_path, ex2_file, single_block_file, route):
    """Scalar text is read, never evaluated: a call in any text the CLI takes
    in exits 2 and does not run."""
    marker = tmp_path / "marker"
    payload = f"__import__('pathlib').Path({str(marker)!r}).touch() or 2"
    if route == "--bind":
        argv = ["check-axioms", "--structure", ex2_file, "--bind", f"a={payload}"]
    else:
        command, source = (
            ("check-axioms", ex2_file)
            if route == "structure field"
            else ("verify-section6", single_block_file)
        )
        path = tmp_path / "payload.json"
        with open(source) as fh:
            path.write_text(json.dumps(dict(json.load(fh), a=payload)))
        argv = [command, "--structure", str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "") and err.count("\n") == 1
    assert "is outside the grammar" in err
    assert not marker.exists()


@pytest.mark.parametrize("value", ["3.14159", "1e-20"])
def test_decimal_text_is_an_input_error(capsys, ex2_file, value):
    """Scalars are exact: a decimal is not read as a binary fraction."""
    code, out, err = run_cli(
        capsys, "check-axioms", "--structure", ex2_file, "--bind", f"a={value}", "--bind", "sbc=1"
    )
    assert (code, out) == (2, "")
    assert err == (
        f"error: bad binding 'a={value}': cannot parse scalar text {value!r}: "
        f"{value!r} is not a decimal integer\n"
    )
