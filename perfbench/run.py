"""qlab benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a qlab checkout; it imports the package from ./src.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (setup_s, pass_s, pass_cpu_s,
cli_call_s, peak_rss_mb); with ``--trace 1`` they are the per-layer ones.
See perfbench/README.md for what each workload runs and checks.

The benchmark is one closed-loop client: at most one of its child processes
works at a time, and that child runs no threads beyond qlab's own pool.  On
the in-process workloads the worker waits idle while a CLI call or a set-up
launch runs.  It measures only its own processes.

The host this runs on changes speed by up to half over seconds to minutes.
So the passes, the CLI calls and the set-up launches take turns from the
start of the measured window to its end.  Before each in-process pass the
worker times a fixed pure-Python loop, the speed probe.  On the workloads
in SCALED, pass_s and pass_cpu_s are the medians of the raw pass times
multiplied by PROBE_S / (median probe time of the run), what they would read
on a host where the probe takes PROBE_S.  Other timings are not scaled.
The raw times and the probes are in the result file.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (after the path is set)
from worker import cli_check, out_argv, read_out_file  # noqa: E402

ROOT = workloads.ROOT
SRC = workloads.SRC
OUT = os.path.join(HERE, "out")
WORKLOADS = ("cold-verbs", "acceptance-suite", "thermo-scan", "operators")
SETUP_LAUNCHES = 5      # fresh interpreters timed for setup_s, spread over the run
PROBE_S = 0.030         # the speed probe's time on the host pass times are scaled to
# workloads whose passes are bound by the interpreter, whose speed the probe
# follows; the numpy-bound passes of operators are not scaled
SCALED = ("acceptance-suite", "thermo-scan")
PASS_SHARE = 0.6        # of the busy time for in-process passes; the rest for CLI calls
MIN_PASSES = 3
MIN_CLI_CALLS = 3
IMPORTTIME_LAUNCHES = 3
CHILD_TIMEOUT = 150


def child_env():
    env = dict(os.environ)
    env.pop("QLAB_MAX_THREADS", None)   # the pool keeps its default size
    env["PYTHONPATH"] = SRC
    return env


def worker_argv(workload, seed, mode, seconds, out_dir):
    return [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
            "--seed", str(seed), "--mode", mode, "--seconds", str(seconds),
            "--out-dir", out_dir]


def launch_setup(workload, seed, out_dir):
    """Launch-to-ready wall time of one fresh worker in set-up mode."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(worker_argv(workload, seed, "setup", 0, out_dir),
                            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        with deadline(CHILD_TIMEOUT):
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            out, err = proc.communicate()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up of {workload} failed: {err.strip()[-2000:]}")
    return t1 - t0


class Window:
    """The measured window: its clock, and the set-up launches spread over it.

    Launch i is due at (i + 1/2) / SETUP_LAUNCHES of the window, so setup_s
    samples the host at the same times as the other metrics.  One untimed
    launch first fills the file cache."""

    def __init__(self, workload, seed, seconds, out_dir):
        self.args = (workload, seed, out_dir)
        self.seconds = seconds
        launch_setup(*self.args)
        self.setups = []
        self.start = time.perf_counter()

    def over(self):
        return time.perf_counter() - self.start >= self.seconds

    def setup_if_due(self):
        due = (len(self.setups) + 0.5) * self.seconds / SETUP_LAUNCHES
        if (len(self.setups) < SETUP_LAUNCHES
                and time.perf_counter() - self.start >= due):
            self.setups.append(launch_setup(*self.args))

    def close(self):
        while len(self.setups) < SETUP_LAUNCHES:
            self.setups.append(launch_setup(*self.args))


class Worker:
    """A worker in serve mode: warmed up, then one timed pass per request."""

    def __init__(self, workload, seed, out_dir):
        self.err = tempfile.TemporaryFile(dir=out_dir)
        self.proc = subprocess.Popen(worker_argv(workload, seed, "serve", 0, out_dir),
                                     cwd=ROOT, env=child_env(), stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=self.err, text=True)
        try:
            self.expect("warm")
        except BaseException:
            self.close()
            raise

    def expect(self, word):
        """The rest of the next line that starts with `word`."""
        with deadline(CHILD_TIMEOUT):
            for line in iter(self.proc.stdout.readline, ""):
                if line.split(" ", 1)[0].strip() == word:
                    return line[len(word):].strip()
        self.err.seek(0)
        raise RuntimeError(f"worker ended early: "
                           f"{self.err.read().decode().strip()[-2000:]}")

    def timed_pass(self):
        self.proc.stdin.write("pass\n")
        self.proc.stdin.flush()
        return tuple(float(x) for x in self.expect("pass").split())

    def finish(self):
        self.proc.stdin.close()
        result = json.loads(self.expect("result"))
        with deadline(CHILD_TIMEOUT):
            self.proc.wait()
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited with {self.proc.returncode}")
        return result

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.err.close()


def run_worker(workload, seed, mode, seconds, out_dir):
    proc = subprocess.run(worker_argv(workload, seed, mode, seconds, out_dir),
                          cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_cli(verb, out_dir):
    """One ``python -m qlab.cli`` child: (wall s, cpu s, maxrss kB, outputs)."""
    argv = [sys.executable, "-m", "qlab.cli", *out_argv(verb, out_dir)]
    with tempfile.TemporaryFile(dir=out_dir) as out, \
            tempfile.TemporaryFile(dir=out_dir) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        try:
            with deadline(CHILD_TIMEOUT):   # wait4 has no timeout of its own
                _, status, usage = os.wait4(proc.pid, 0)
        except ChildTimeout:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"{verb.name} did not finish in {CHILD_TIMEOUT} s")
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        text = read_out_file(verb, out_dir)
        outputs = (proc.returncode, out.read().decode(), err.read().decode(), text)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, outputs


class ChildTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise ChildTimeout


@contextlib.contextmanager
def deadline(seconds):
    """Raise ChildTimeout in the block after `seconds`."""
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def check_cli(verb, outputs):
    return [f"{verb.name}: {p}" for p in cli_check(verb)(outputs)]


def cold_verbs(seed, seconds, out_dir):
    """Passes over the verb list, one fresh interpreter per invocation."""
    verbs = workloads.ColdVerbs(seed).ops
    window = Window("cold-verbs", seed, seconds, out_dir)
    walls, cpus, calls, problems = [], [], [], []
    maxrss = 0
    while len(walls) < 2 or not window.over():
        pass_wall = pass_cpu = 0.0
        for verb in verbs:
            window.setup_if_due()
            wall, cpu, rss, outputs = run_cli(verb, out_dir)
            pass_wall += wall
            pass_cpu += cpu
            calls.append(wall)
            maxrss = max(maxrss, rss)
            problems += check_cli(verb, outputs)
        walls.append(pass_wall)
        cpus.append(pass_cpu)
    window.close()
    attempted = len(walls) * len(verbs)
    return {"walls": walls, "cpus": cpus, "calls": calls, "maxrss_kb": maxrss,
            "setups": window.setups, "probes": [], "attempted": attempted,
            "failed": 0, "failures": {}, "problems": sorted(set(problems))}


def in_process(workload, seed, seconds, out_dir):
    """Timed passes in one warm worker, taking turns with CLI calls of the
    workload's own verb so that each keeps PASS_SHARE : 1 - PASS_SHARE of the
    busy time, and with the set-up launches."""
    verb = workloads.WORKLOADS[workload](seed).cli
    worker = Worker(workload, seed, out_dir)
    walls, cpus, probes, calls, problems = [], [], [], [], []
    try:
        window = Window(workload, seed, seconds, out_dir)
        while (len(walls) < MIN_PASSES or len(calls) < MIN_CLI_CALLS
               or not window.over()):
            window.setup_if_due()
            if sum(walls) * (1 - PASS_SHARE) <= sum(calls) * PASS_SHARE:
                wall, cpu, probe = worker.timed_pass()
                walls.append(wall)
                cpus.append(cpu)
                probes.append(probe)
            else:
                wall, _, _, outputs = run_cli(verb, out_dir)
                calls.append(wall)
                problems += check_cli(verb, outputs)
        window.close()
        data = worker.finish()
    finally:
        worker.close()
    data["problems"] += sorted(set(problems))
    return {**data, "walls": walls, "cpus": cpus, "calls": calls,
            "setups": window.setups, "probes": probes}


IMPORT_LINE = re.compile(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|( *)(\S+)")


def import_times():
    """Cumulative import time of qlab, scipy and numpy from -X importtime,
    median over fresh interpreters.  A package's figure is the sum over the
    subtrees of its modules that were first imported from outside it (for
    scipy, chiefly scipy.optimize under qlab.deformation)."""
    found = {"qlab": [], "scipy": [], "numpy": []}
    for _ in range(IMPORTTIME_LAUNCHES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import qlab"],
                              cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT)
        totals = dict.fromkeys(found, 0.0)
        path = []   # package of each enclosing import, outermost first
        # lines are printed as imports finish, so read them backwards to
        # meet each module before the modules it imported
        for line in reversed(proc.stderr.splitlines()):
            match = IMPORT_LINE.match(line)
            if not match:
                continue
            depth = (len(match.group(2)) - 1) // 2
            package = match.group(3).split(".")[0]
            del path[depth:]
            if package in totals and (not path or path[-1] != package):
                totals[package] += int(match.group(1)) * 1e-6
            path.append(package)
        for name, total in totals.items():
            found[name].append(total)
    return {f"import.{name}_s": statistics.median(v) for name, v in found.items()}


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qlab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qlab", "__init__.py")):
        print(f"no qlab sources under {SRC}; run from the root of a qlab checkout",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=OUT, prefix=f"{args.workload}-")
    try:
        result = measure(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for name, why in sorted(result.pop("failures").items()):
        print(f"failed: {name}: {why}")
    for problem in result["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    line = {"correct": not result["problems"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": result["metrics"]}
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**line, "runs": result["runs"]}, fh, indent=1)
    print(json.dumps(line))
    return 0


def measure(args, work_dir):
    if args.trace:
        data = run_worker(args.workload, args.seed, "trace", args.seconds, work_dir)
        layers = data["layers"]
        layers.update(import_times())
        metrics = {name: metric(value, unit_of(name))
                   for name, value in sorted(layers.items())}
        runs = {"untraced_pass_s": data["walls"], "traced_pass_s": data["traced_walls"],
                "trace_file": data["trace_file"]}
        return {**data, "metrics": metrics, "runs": runs}

    if args.workload == "cold-verbs":
        data = cold_verbs(args.seed, args.seconds, work_dir)
    else:
        data = in_process(args.workload, args.seed, args.seconds, work_dir)
    # child processes (set-up launches, CLI calls, the passes of cold-verbs)
    # are not scaled either
    probes = data["probes"]
    scale = PROBE_S / statistics.median(probes) if args.workload in SCALED else 1.0
    metrics = {
        "setup_s": metric(statistics.median(data["setups"]), "s"),
        "pass_s": metric(statistics.median(data["walls"]) * scale, "s"),
        "pass_cpu_s": metric(statistics.median(data["cpus"]) * scale, "s"),
        "cli_call_s": metric(statistics.median(data["calls"]), "s"),
        "peak_rss_mb": metric(data["maxrss_kb"] / 1024.0, "MB"),
    }
    # the raw times; pass_s and pass_cpu_s are their medians times `scale`
    runs = {"scale": scale, "probe_s": probes, "setup_s": data["setups"],
            "pass_s": data["walls"], "pass_cpu_s": data["cpus"],
            "cli_call_s": data["calls"]}
    return {**data, "metrics": metrics, "runs": runs}


UNITS = {
    "classical.rk4_steps": "count", "thermo.log_partition_calls": "count",
    "thermo.terms": "count", "deformation.q_number_calls": "count",
    "deformation.big_f_inverse_calls": "count", "deformation.big_f_inverse_us": "us",
    "fock.flops": "flop-computed", "fock.gflops_per_s": "GFLOP/s",
    "coherent.cutoff_total": "count", "trace.overhead": "ratio",
}


def unit_of(name):
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_ns"):
        return "ns"
    if name.endswith("_s"):
        return "s"
    raise KeyError(f"no unit for {name}")


if __name__ == "__main__":
    sys.exit(main())
