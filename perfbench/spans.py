"""Span tracing installed from outside the library.

Inside ``with tracer.active(phase)`` each public entry point of the ``oqa``
layers is replaced by a wrapper that records calls, self time (span minus
child spans) and raised exceptions per layer.  Modules that imported a name
directly hold their own reference, so those names are rebound as well;
otherwise their calls would go uncounted.  Leaving the block restores every
original, so code outside it runs untouched.

Spans are recorded in the "setup" and "op" phases.  In the "gate" phase only
``homfly_bridge.identify`` is recorded, inclusive of its callees, so that the
correctness gates never leak into the layers the ops are measured on.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from oqa import algebra, cli, diagram, homfly_bridge, invariant, scalar, structures

# (owner, attribute, layer): every binding through which the benchmark or the
# library reaches a layer's entry point
BINDINGS: List[Tuple[object, str, str]] = [
    (scalar.Scalar, "__mul__", "scalar.mul"),
    (scalar.Scalar, "__rmul__", "scalar.mul"),
    (scalar.Scalar, "__add__", "scalar.add"),
    (scalar.Scalar, "__radd__", "scalar.add"),
    (scalar.Scalar, "__sub__", "scalar.add"),
    (scalar.Scalar, "__truediv__", "scalar.div"),
    (scalar.Scalar, "inv", "scalar.div"),
    (scalar.Scalar, "__eq__", "scalar.eq"),
    (scalar, "substitute", "scalar.substitute"),
    (cli, "substitute", "scalar.substitute"),
    (scalar.SymbolTable, "parse", "scalar.parse"),
    (algebra.AlgebraElement, "__mul__", "algebra.elem_mul"),
    (algebra.AlgebraElement, "pairing", "algebra.pairing"),
    (algebra, "tensor_mul", "algebra.tensor_mul"),
    (structures, "tensor_mul", "algebra.tensor_mul"),
    (algebra, "tensor_invert", "algebra.tensor_invert"),
    (structures, "tensor_invert", "algebra.tensor_invert"),
    (algebra, "qybe_check", "algebra.qybe"),
    (structures, "qybe_check", "algebra.qybe"),
    (algebra, "apply_map_tensor", "algebra.map_apply"),
    (structures, "apply_map_tensor", "algebra.map_apply"),
    (structures, "check_axioms", "structures.check_axioms"),
    (cli, "check_axioms", "structures.check_axioms"),
    (structures, "classify_thm5", "structures.classify"),
    (homfly_bridge, "classify_thm5", "structures.classify"),
    (structures, "build_thm5", "structures.build"),
    (homfly_bridge, "build_thm5", "structures.build"),
    (structures, "structure_from_json", "structures.build"),
    (cli, "structure_from_json", "structures.build"),
    (homfly_bridge, "section6_context", "structures.build"),
    (cli, "section6_context", "structures.build"),
    (diagram, "traverse", "diagram.traverse"),
    (invariant, "traverse", "diagram.traverse"),
    (homfly_bridge, "traverse", "diagram.traverse"),
    (diagram, "parse_diagram", "diagram.parse"),
    (cli, "parse_diagram", "diagram.parse"),
    (invariant, "evaluate_link", "invariant.evaluate"),
    (invariant, "evaluate_tangle", "invariant.evaluate"),
    (homfly_bridge, "evaluate_link", "invariant.evaluate"),
    (cli, "evaluate_link", "invariant.evaluate"),
    (cli, "evaluate_tangle", "invariant.evaluate"),
    (homfly_bridge, "homfly", "homfly_bridge.skein"),
    (homfly_bridge, "conway", "homfly_bridge.skein"),
    (cli, "homfly", "homfly_bridge.skein"),
    (cli, "conway", "homfly_bridge.skein"),
    (homfly_bridge, "identify_F", "homfly_bridge.identify"),
    (cli, "identify_F", "homfly_bridge.identify"),
    (cli, "main", "cli.main"),
]

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(layer for _, _, layer in BINDINGS))

GATE_LAYERS = frozenset({"homfly_bridge.identify"})

# (ratio name, inner layer, outer layer): inner calls made inside an outer
# span, per outer call
RATIOS = (
    ("invariant.scalar_mul_per_eval", "scalar.mul", "invariant.evaluate"),
    ("homfly_bridge.traverse_per_skein", "diagram.traverse", "homfly_bridge.skein"),
)


class Tracer:
    """Per-layer counters fed by wrappers around the library's entry points."""

    def __init__(self) -> None:
        self.phase: Optional[str] = None
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.errors: Dict[str, int] = defaultdict(int)
        self.nested: Dict[Tuple[str, str], int] = defaultdict(int)
        self._depth: Dict[str, int] = defaultdict(int)
        self._children: List[float] = []

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        tracer = self
        inner_of = [(inner, outer) for _, inner, outer in RATIOS if inner == layer]
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if (tracer.phase == "gate") != (layer in GATE_LAYERS):
                return fn(*args, **kwargs)
            for key in inner_of:
                if tracer._depth[key[1]]:
                    tracer.nested[key] += 1
            tracer._depth[layer] += 1
            tracer._children.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tracer.errors[layer] += 1
                raise
            finally:
                span = clock() - start
                child = tracer._children.pop()
                tracer.self_s[layer] += span - child
                if tracer._children:
                    tracer._children[-1] += span
                tracer._depth[layer] -= 1
                tracer.calls[layer] += 1

        return wrapper

    @contextlib.contextmanager
    def active(self, phase: str):
        """Record spans of ``phase`` ("setup", "op" or "gate") in this block."""
        saved = []
        for owner, attr, layer in BINDINGS:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(layer, original))
        self.phase = phase
        try:
            yield
        finally:
            self.phase = None
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def metrics(self) -> Dict[str, Tuple[float, str]]:
        out: Dict[str, Tuple[float, str]] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (self.calls[layer], "count")
            out[f"{layer}.self_s"] = (self.self_s[layer], "s")
            out[f"{layer}.errors"] = (self.errors[layer], "count")
        for name, inner, outer in RATIOS:
            outer_calls = self.calls[outer]
            value = self.nested[(inner, outer)] / outer_calls if outer_calls else 0.0
            out[name] = (value, "ratio")
        return out
