"""The benchmark's span tracer rebinds library names from outside the
library (perfbench/spans.py); a renamed or dropped import would break only
the traced benchmark run, so every binding it lists is checked here."""

import importlib.util
from pathlib import Path


def test_span_bindings_exist():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in spans.BINDINGS
        # the tracer reads a class attribute from the class's own __dict__
        if not (attr in vars(owner) if isinstance(owner, type) else hasattr(owner, attr))
    ]
    assert spans.BINDINGS and not missing, missing


def test_bound_example2_load_is_traced_as_a_build(tmp_path):
    """A bound example2 load runs through the traced build entry points, so
    the benchmark's structures.build layer sees it."""
    import json

    from oqa import cli

    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    ex2 = tmp_path / "ex2.json"
    ex2.write_text(json.dumps({"builder": "example2", "symbols": ["a", "sbc", "b"], "n": 2,
                               "a": "a", "bc": "sbc**2", "b": {"1,2": "b"}}))
    tracer = spans.Tracer()
    with tracer.active("op"):
        code = cli.main(["invariant", "--structure", str(ex2), "--diagram",
                         "builtin:hopf", "--bind", "a=2", "--bind", "sbc=1"])
    assert code == 0
    assert tracer.calls["structures.build"] >= 1


def test_cli_mixed_inputs_are_pinned(tmp_path, monkeypatch):
    """The files of the cli_mixed seed-1 rounds 0 and 1 (braid closures and
    example2 structures) and the isotopy variants drawn for their skein ops
    hash to a fixed digest.  A library change that alters a seeded draw (a
    different site list for ``insertion_sites``, say) would change the
    benchmark's inputs; this catches it."""
    import hashlib

    from oqa.diagram import serialize

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import gen
    import workloads

    variants = []
    draw = gen.isotopy_variant

    def recorded(rng, d):
        variants.append(draw(rng, d))
        return variants[-1]

    monkeypatch.setattr(gen, "isotopy_variant", recorded)

    class FirstRounds(workloads.CliMixed):
        setup_rounds = 0

    bench = FirstRounds(1, str(tmp_path))
    bench.round(0)
    bench.round(1)
    digest = hashlib.sha256()
    for path in sorted(tmp_path.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    for v in variants:
        digest.update(serialize(v).encode() + b"\0")
    assert len(variants) == 32
    assert digest.hexdigest() == (
        "bc8ad6ea43cad32a7af619f8ad28493778e89f8902d78a2ba90996d258a06132"
    )
