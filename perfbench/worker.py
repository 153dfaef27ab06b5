"""One workload process: set up, then run timed passes, then check.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE
                                [--seconds S] [--out-dir DIR]

MODE ``setup`` imports qlab, builds the workload's inputs, prints ``ready``
and exits; run.py times it from launch to that line.  MODE ``serve`` runs one
warm-up pass, prints ``warm``, then for each ``pass`` line it reads on
standard input runs one speed probe and one timed pass and answers
``pass WALL CPU PROBE``.  At the end of its input it prints ``result`` and,
on the same line, one JSON object with the peak RSS, the operation counts and
the problems the checks found.  run.py uses it to spread the passes over the
whole measured window, between its CLI calls and set-up launches.  MODE
``trace`` runs untraced passes for S/2 seconds and traced passes for S/2
seconds and prints one JSON line with the per-layer metrics.  The checks run
after the timed passes.

Every pass runs every operation of the workload, so a run attempts whole
rounds.  ``cold-verbs`` is driven from run.py, one child per invocation; in
``trace`` mode its pass calls ``qlab.cli.run`` in-process instead.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (after the path is set)
from tracer import LAYERS, MATRIX_PRODUCTS, SECTION_KINDS, Tracer  # noqa: E402

sys.path.insert(0, workloads.SRC)


def digest(value, h=None) -> str:
    """Stable hash of an operation's output, to compare passes."""
    top = h is None
    h = h or hashlib.sha256()
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        h.update(type(value).__name__.encode())
        for f in dataclasses.fields(value):
            digest(getattr(value, f.name), h)
    elif isinstance(value, np.ndarray):
        h.update(f"{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, dict):
        h.update(b"{")
        for key, item in value.items():
            digest(key, h)
            digest(item, h)
        h.update(b"}")
    elif isinstance(value, (list, tuple)):
        h.update(b"[")
        for item in value:
            digest(item, h)
        h.update(b"]")
    else:
        h.update(repr(value).encode() + b";")
    return h.hexdigest() if top else ""


# ------------------------------------------------------------------- passes

def run_pass(ops):
    """Run every operation once; an exception is recorded, not raised."""
    scratch = {}
    outcomes = []
    for op in ops:
        try:
            outcomes.append((True, op.run(scratch)))
        except Exception as exc:  # a failed operation is a measurement
            outcomes.append((False, f"{type(exc).__name__}: {exc}"))
    return outcomes


class Tally:
    """Attempted and failed operations, and problems found by the checks."""

    def __init__(self, ops):
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.failures = {}
        self.first = None
        self.last = None

    def add(self, outcomes):
        digests = []
        for op, (ok, value) in zip(self.ops, outcomes):
            self.attempted += op.weight
            if not ok:
                self.failed += op.weight
                self.failures[op.name] = value
            elif op.failures is not None:
                self.failed += op.failures(value)
            digests.append(digest(value) if ok else value)
        if self.first is None:
            self.first = digests
        elif digests != self.first:
            changed = [op.name for op, a, b in zip(self.ops, digests, self.first)
                       if a != b]
            self.problems.append(f"outputs changed between passes: {changed}")
        self.last = outcomes

    def check(self):
        """Check the last pass; a probe's wrong value is a failed operation."""
        for op, (ok, value) in zip(self.ops, self.last):
            if not ok:
                continue
            found = op.check(value)
            if found and op.probe:
                passes = self.attempted // sum(o.weight for o in self.ops)
                self.failed += passes * op.weight
                self.failures[op.name] = "; ".join(found)
            else:
                self.problems += [f"{op.name}: {p}" for p in found]


def speed_probe():
    """Wall time of a fixed pure-Python loop: how fast the host runs now."""
    t0 = time.perf_counter()
    total = 0.0
    for i in range(1, 180000):
        total += math.sinh(1e-3 * i) / i
    return time.perf_counter() - t0


def timed_pass(ops, tally):
    c0 = time.process_time()
    t0 = time.perf_counter()
    outcomes = run_pass(ops)
    t1 = time.perf_counter()
    c1 = time.process_time()
    tally.add(outcomes)
    return t1 - t0, c1 - c0


def timed_passes(ops, tally, seconds, min_passes=3):
    walls = []
    start = time.perf_counter()
    while len(walls) < min_passes or time.perf_counter() - start < seconds:
        walls.append(timed_pass(ops, tally)[0])
    return walls


# --------------------------------------------------------- cold verbs, in-process

class InProcessVerbs:
    """The cold-verbs list as operations that call qlab.cli.run in-process."""

    def __init__(self, verbs, out_dir):
        from qlab import cli
        self.ops = []
        for verb in verbs.ops:
            argv = out_argv(verb, out_dir)

            def run(scratch, argv=argv, verb=verb):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.run(argv)
                return code, out.getvalue(), err.getvalue(), read_out_file(verb, out_dir)

            self.ops.append(workloads.Op(verb.name, run, cli_check(verb)))


def read_out_file(verb, out_dir):
    """The verb's --out file, removed once read; "" if it was not written."""
    if not verb.out_file:
        return None
    path = os.path.join(out_dir, verb.out_file)
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        return ""
    os.unlink(path)
    return text


def out_argv(verb, out_dir):
    return [os.path.join(out_dir, a) if verb.out_file and a == verb.out_file else a
            for a in verb.argv]


def cli_check(verb):
    def check(result):
        code, out, err, text = result
        if code != verb.expected_code:
            return [f"exit code {code}, expected {verb.expected_code}: {err.strip()[:200]}"]
        return verb.check(code, out, err, text)
    return check


# -------------------------------------------------------------- per-layer metrics

def median_time(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


LAYER_TIMES = (
    "classical.integrate_eom", "level.evolve_one_level",
    "thermo.specific_heat", "thermo.partition_function", "thermo.mean_occupation",
    "thermo.thermo_table",
    "fock.deformed_annihilation", "fock.check_commutator", "fock.linearoid_roundtrip",
    "fock.spectrum_check", "fock.heisenberg_residual",
    "coherent.build_f_coherent", "coherent.eigenvalue_residual",
    "coherent.scalar_product", "wave.solve_mu", "wave.evolve",
)


def layer_metrics(tracer, passes, seed, out_dir, workload):
    """Per-pass per-layer figures from the traced passes, plus the untraced
    cli and experiments timings that do not depend on the workload's pass."""
    from qlab import cli, experiments
    agg, counts, layer_self = tracer.summary()

    def total(name):
        return agg.get(name, (0, 0.0, 0.0))[1] / passes

    def calls(name):
        return agg.get(name, (0, 0.0, 0.0))[0] / passes

    m = {f"{name}_s": total(name) for name in LAYER_TIMES}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer] / passes
    steps = counts.get("classical.rk4_steps", 0) / passes
    level_steps = counts.get("level.rk4_steps", 0) / passes
    m["classical.rk4_steps"] = steps
    m["classical.step_ns"] = total("classical.integrate_eom") / steps * 1e9 if steps else 0.0
    m["level.step_ns"] = (total("level.evolve_one_level") / level_steps * 1e9
                          if level_steps else 0.0)
    m["thermo.log_partition_calls"] = calls("thermo.log_partition")
    m["thermo.terms"] = counts.get("thermo.terms", 0) / passes
    m["deformation.q_number_calls"] = calls("deformation.q_number")
    n_inv = calls("deformation.big_f_inverse")
    m["deformation.big_f_inverse_calls"] = n_inv
    m["deformation.big_f_inverse_us"] = (total("deformation.big_f_inverse") / n_inv * 1e6
                                         if n_inv else 0.0)
    flops = counts.get("fock.flops", 0) / passes
    busy = sum(total(name) for name in MATRIX_PRODUCTS)
    m["fock.flops"] = flops
    m["fock.gflops_per_s"] = flops / busy / 1e9 if busy else 0.0
    m["coherent.cutoff_total"] = counts.get("coherent.cutoff_total", 0) / passes
    for kind in (*SECTION_KINDS, "other"):
        key = f"experiments.section.{kind}_s"
        m[key] = counts.get(key, 0.0) / passes

    # untraced, in-process
    m["cli.build_parser_s"] = median_time(cli.build_parser, 5)
    verbs = InProcessVerbs(workloads.ColdVerbs(seed), out_dir)
    m["cli.run_warm_s"] = median_time(lambda: run_pass(verbs.ops), 3)
    m["experiments.load_suite_s"] = median_time(
        lambda: experiments.load_suite(workloads.SUITE), 5)
    if workload == "acceptance-suite":
        entries = experiments.load_suite(workloads.SUITE)
        m["experiments.suite_serial_s"] = median_time(
            lambda: [experiments.run_experiment(e.command_key, e.params)
                     for e in entries], 2)
    else:
        m["experiments.suite_serial_s"] = 0.0
    return m


# --------------------------------------------------------------------- main

def build(name, seed, out_dir):
    if name == "cold-verbs":
        import qlab.cli  # noqa: F401  (set-up ends once the CLI is importable)
        return InProcessVerbs(workloads.ColdVerbs(seed), out_dir)
    import qlab  # noqa: F401
    return workloads.WORKLOADS[name](seed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "serve", "trace"))
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--out-dir", default=os.path.join(HERE, "out"))
    args = parser.parse_args(argv)

    work = build(args.workload, args.seed, args.out_dir)
    if args.mode == "setup":
        print("ready", flush=True)
        return 0

    tally = Tally(work.ops)
    tally.add(run_pass(work.ops))  # warm-up
    result = {}
    if args.mode == "serve":
        print("warm", flush=True)
        for line in sys.stdin:
            if line.strip() != "pass":
                raise SystemExit(f"unknown request {line.strip()!r}")
            probe = speed_probe()
            wall, cpu = timed_pass(work.ops, tally)
            print(f"pass {wall!r} {cpu!r} {probe!r}", flush=True)
    else:
        walls = timed_passes(work.ops, tally, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = timed_passes(work.ops, tally, args.seconds / 2, min_passes=1)
        finally:
            tracer.remove()
        trace_path = os.path.join(HERE, "out",
                                  f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.write_spans(trace_path)
        metrics = layer_metrics(tracer, len(traced), args.seed, args.out_dir,
                                args.workload)
        metrics["trace.overhead"] = statistics.median(traced) / statistics.median(walls)
        result.update(walls=walls, traced_walls=traced, layers=metrics,
                      trace_file=os.path.relpath(trace_path, workloads.ROOT))
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tally.check()
    result.update(attempted=tally.attempted, failed=tally.failed,
                  failures=tally.failures, problems=tally.problems)
    print(("result " if args.mode == "serve" else "") + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
