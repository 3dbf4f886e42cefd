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
    code, _, err = run_cli(
        capsys, "invariant", "--structure", str(path), "--diagram", "builtin:hopf"
    )
    assert code == 1
    assert "twist" in err


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


def test_bound_build_matches_table_map_route(capsys, tmp_path, monkeypatch):
    """A bound example2 file is built once at the bound values; every
    check-axioms and invariant command prints, byte for byte and with the same
    exit code, what the load-then-substitute route prints.  Covered: seeded
    files on M_2-M_4, full and partial bindings, a < 0, and bindings at which
    the bound build fails (a = 0, sbc = 0, b = 0, a = +-sbc, a = True)."""
    import oqa.cli as cli
    from oqa import params_from_json

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
            ["a=True"],
        ]
        params = params_from_json(json.loads(path.read_text()))
        for k, binds in enumerate(bind_sets):
            # the first three build at the bound values, the others fall back
            assert (cli._build_bound(params, binds) is None) == (k >= 3), binds
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
    monkeypatch.setattr(cli, "_build_bound", lambda params, binds: None)
    assert run_all() == built


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
