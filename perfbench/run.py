"""Benchmark of the oqa library: three seeded workloads timed from outside.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload knots_symbolic --seed 1 --seconds 30 --trace 0

Load shape: one process, one caller, closed loop (the next op starts when the
previous one returns), no threads; OQA_THREADS is removed from the
environment.  The seed makes the inputs; the library sees only them.

With ``--trace 0`` the ops of whole rounds run until their summed (scaled,
see below) latency reaches ``--seconds``; the result holds the end-to-end
metrics.  Set-up
(import of oqa and sympy, building structures and contexts, generating and
writing inputs) is timed here and in two fresh processes, and the median
is reported.

The speed of a shared machine drifts by a third within minutes.  So a fixed
computation that touches no oqa code, the yardstick, is timed between
consecutive ops and after each set-up, and the reported times are rescaled
to a machine on which the yardstick takes YARDSTICK_S.  A change to oqa
moves them in full; most of the machine's drift cancels.  The unscaled
figures are printed in ``detail``.  With ``--trace 1`` a fixed number of
rounds runs untraced,
alternating op by op with the next rounds of a fresh, traced set-up; the
result holds the per-layer metrics of the traced set-up and ops and the
tracing overhead.

Every op's output is checked by its gate after the timed loop, and each gate
is shown to reject a perturbed output.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics; the
lines before it carry machine notes, details and the gate self-check.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import importlib.util
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

WORKLOAD_NAMES = ("knots_symbolic", "structures_sampled", "cli_mixed")
SETUP_PROCESSES = 2
WORK_DIR = ".perfbench-work"
# reported times are scaled to a machine on which yardstick() takes this long
YARDSTICK_S = 0.014
YARDSTICK_WINDOW = 1


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--setup-only", action="store_true",
        help="time one set-up in this process, print it and exit",
    )
    return p.parse_args(argv)


def source_dir(root: str) -> str:
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "oqa", "__init__.py")):
        raise FileNotFoundError(f"no oqa package under {src}; run from a source checkout")
    return src


def source_digest(src: str) -> str:
    h = hashlib.sha256()
    pkg = os.path.join(src, "oqa")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit(root: str):
    """HEAD of a git checkout at ``root``, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def machine_notes(args, root: str, src: str, threads_was) -> dict:
    import sympy
    from sympy.external.gmpy import GROUND_TYPES

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "sympy": sympy.__version__,
        "ground_types": GROUND_TYPES,
        "gmpy2_present": importlib.util.find_spec("gmpy2") is not None,
        "flint_present": importlib.util.find_spec("flint") is not None,
        "git_commit": git_commit(root),
        "source_sha256": source_digest(src),
        "oqa_threads_cleared": True,
        "oqa_threads_was": threads_was,
        "machine": platform.machine(),
    }


def make_workload(name: str, seed: int, workdir: str):
    import workloads

    return workloads.WORKLOADS[name](seed, workdir)


def settle() -> None:
    """Collect garbage and move every live object to the permanent
    generation, so that the collections inside a timed op scan what the ops
    allocate, not the inputs and results the benchmark holds, whose number
    varies with the seed and grows with the rounds run."""
    gc.collect()
    gc.freeze()


def run_op(op):
    """(op, output, error, latency) of one timed call."""
    start = time.perf_counter()
    try:
        out, err = op.call(), None
    except Exception as exc:  # a failing op is counted, not fatal
        out, err = None, exc
    return op, out, err, time.perf_counter() - start


def run_rounds(workload, seconds: float):
    """Run whole rounds until the summed scaled op latency reaches ``seconds``.

    A yardstick is timed before the first op and after each op.  Each op's
    latency is scaled by the mean of the yardsticks timed right before and
    after it and of YARDSTICK_WINDOW more on either side: the machine's
    speed changes within a second, so a wider window follows it less well;
    the stopping test uses the trailing window.  Stopping
    on scaled time ties the round count to the code more than to the
    machine's speed at the time.  Returns the results and scaled latencies.
    """
    w = YARDSTICK_WINDOW
    results = []
    marks = [yardstick()]
    busy = 0.0
    r = 0
    while busy < seconds:
        ops = workload.round(r)
        settle()
        for op in ops:
            results.append(run_op(op))
            marks.append(yardstick())
            busy += scale(results[-1][3], marks[-2 * w - 2:])
        r += 1
    scaled = [
        scale(res[3], marks[max(0, i - w): i + w + 2])
        for i, res in enumerate(results)
    ]
    return results, scaled


def gate(results):
    """Run each op's correctness gate; returns the kinds of failed ops."""
    failed = []
    for op, out, err, _ in results:
        ok = False
        if err is None:
            try:
                ok = bool(op.check(out))
            except Exception as exc:
                print(f"gate error on {op.kind}: {exc!r}", file=sys.stderr)
        else:
            print(f"op {op.kind} raised {err!r}", file=sys.stderr)
        if not ok:
            failed.append(op.kind)
    return failed


def self_check(results):
    """Each gate must reject a perturbed output of an op it accepted."""
    report = {}
    for op, out, err, _ in results:
        if op.gate in report or err is not None:
            continue
        try:
            if not op.check(out):
                continue
            rejected = not op.check(op.perturb(out))
        except Exception:
            rejected = True
        report[op.gate] = rejected
    return report


@functools.cache
def _yardstick_operands():
    from sympy.polys.domains import QQ
    from sympy.polys.fields import FracField

    x, y = FracField(("x", "y"), QQ).gens
    return (x + 1) / (y + 2), (x - y + 3) / (x + y + 5)


def yardstick() -> float:
    """Median of three timings of a fixed computation that touches no oqa
    code: how slow the machine runs right now.  Each timing covers the two
    kinds of work oqa time goes into, sympy rational-function (FracField)
    products and plain interpreter work on dicts and Fractions, which a
    shared machine slows down by different amounts."""
    a, b = _yardstick_operands()
    times = []
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(5):
            a * b + a
        acc = {}
        for i in range(1000):
            k = i * 7919 % 1009
            acc[k] = acc.get(k, 0) + Fraction(i, k + 1)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scale(seconds: float, yardsticks) -> float:
    """``seconds`` rescaled to a machine on which the yardstick takes
    YARDSTICK_S, from the mean of yardstick timings taken around it."""
    return seconds * YARDSTICK_S / statistics.mean(yardsticks)


def percentile(latencies, p: int):
    """Nearest-rank p-th percentile and the number of samples beyond it."""
    xs = sorted(latencies)
    rank = max(1, math.ceil(p / 100 * len(xs)))
    return xs[rank - 1], len(xs) - rank


def setup_in_subprocess(args, root: str, env):
    """(scaled, raw) seconds of one set-up in a fresh process."""
    cmd = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-only",
    ]
    done = subprocess.run(
        cmd, cwd=root, env=env, capture_output=True, text=True, timeout=150
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up process failed: {done.stderr.strip()[-500:]}")
    last = json.loads(done.stdout.strip().splitlines()[-1])
    return last["setup_s"], last["raw_s"]


def per_kind(results):
    kinds = {}
    for op, _, _, latency in results:
        kinds.setdefault(op.kind, []).append(latency)
    return {k: round(statistics.median(v) * 1e3, 2) for k, v in sorted(kinds.items())}


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    try:
        src = source_dir(root)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    threads_was = os.environ.pop("OQA_THREADS", None)
    sys.path.insert(0, src)
    # a terminated run still removes its scratch files and set-up processes
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    workdir = os.path.join(root, WORK_DIR, str(os.getpid()))
    try:
        return measure(args, root, src, workdir, threads_was)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, WORK_DIR))
        except OSError:
            pass


def measure(args, root, src, workdir, threads_was) -> int:
    start = time.perf_counter()
    workload = make_workload(args.workload, args.seed, os.path.join(workdir, "a"))
    setup_raw = time.perf_counter() - start
    settle()
    # timed after the set-up, whose sympy import it must not take over
    setup_s = scale(setup_raw, [yardstick() for _ in range(3)])

    import oqa

    if not os.path.abspath(oqa.__file__).startswith(os.path.abspath(src)):
        print(f"error: oqa imported from {oqa.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "raw_s": setup_raw}))
        return 0

    notes = machine_notes(args, root, src, threads_was)
    print(json.dumps({"notes": notes}))

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        results, metrics, detail = traced_run(args, workload, workdir, tracer)
    else:
        results, scaled = run_rounds(workload, args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        env = dict(os.environ)
        setups = [(setup_s, setup_raw)] + [
            setup_in_subprocess(args, root, env) for _ in range(SETUP_PROCESSES)
        ]
        raw = [r[3] for r in results]
        pct = workload.tail_percentile
        tail_s, beyond = percentile(scaled, pct)
        metrics = {
            "ops_per_s": (len(scaled) / sum(scaled), "1/s"),
            "op_p50_ms": (statistics.median(scaled) * 1e3, "ms"),
            "op_tail_ms": (tail_s * 1e3, "ms"),
            "setup_s": (statistics.median(s for s, _ in setups), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        detail = {
            "rounds": len(results) // len(workload.round(0)),
            "ops": len(results),
            "busy_s": sum(raw),
            "op_tail_percentile": pct,
            "op_tail_samples_beyond": beyond,
            "unscaled": {
                "ops_per_s": len(raw) / sum(raw),
                "op_p50_ms": statistics.median(raw) * 1e3,
                "op_tail_ms": percentile(raw, pct)[0] * 1e3,
                "setup_s": statistics.median(r for _, r in setups),
            },
            "setup_samples_s": setups,
            "op_median_ms_by_kind": per_kind(results),
        }

    if tracer is None:
        failed = gate(results)
    else:
        with tracer.active("gate"):
            failed = gate(results)
        metrics.update(tracer.metrics())
    checks = self_check(results)
    detail["fail_ratio"] = len(failed) / len(results)
    detail["failed_kinds"] = sorted(set(failed))
    print(json.dumps({"detail": detail}))
    print(json.dumps({"gate_self_check": {g: ("rejected" if ok else "ACCEPTED") for g, ok in checks.items()}}))

    correct = not failed and bool(checks) and all(checks.values())
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def traced_run(args, workload, workdir, tracer):
    """Rounds 0..k-1 run untraced, alternating op by op with their twins (same
    shapes, next content) from rounds k..2k-1 of a fresh, traced set-up, so
    that both passes see the same machine and no op repeats."""
    k = workload.trace_rounds
    with tracer.active("setup"):
        traced_workload = make_workload(args.workload, args.seed, os.path.join(workdir, "b"))
    untraced, traced = [], []
    for r in range(k):
        pairs = list(zip(workload.round(r), traced_workload.round(k + r)))
        settle()
        for plain, twin in pairs:
            untraced.append(run_op(plain))
            with tracer.active("op"):
                traced.append(run_op(twin))
    base = len(untraced) / sum(r[3] for r in untraced)
    rate = len(traced) / sum(r[3] for r in traced)
    metrics = {
        "trace.untraced_ops_per_s": (base, "1/s"),
        "trace.traced_ops_per_s": (rate, "1/s"),
        "trace.overhead": (rate / base, "ratio"),
        "trace.pass_ops": (len(traced), "count"),
    }
    detail = {
        "rounds_per_pass": k,
        "untraced": {"ops": len(untraced), "busy_s": sum(r[3] for r in untraced)},
        "traced": {"ops": len(traced), "busy_s": sum(r[3] for r in traced)},
    }
    return untraced + traced, metrics, detail


if __name__ == "__main__":
    sys.exit(main())
