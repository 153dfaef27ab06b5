"""Span tracer that wraps qlab's public functions from outside the package.

`Tracer.install()` replaces every public function of the traced modules by a
timing wrapper, and rebinds each module attribute that holds the original
(including names imported with ``from .x import f``), so that a call from
``thermo`` into ``deformation.q_number`` is timed as ``deformation`` work.
`Tracer.remove()` puts the originals back.

Every wrapped call keeps a frame on a per-thread stack; on exit it adds its
duration to the enclosing frame, so each function gets calls, total time and
self time (duration minus the time of the wrapped calls it made).  Functions
outside `HOT` also keep a span record (id, name, start, end, parent id) in
memory; `HOT` lists the scalar functions called per series term, matrix
element or RK4 sample, whose spans would not fit in memory and are kept as
aggregates only.  A hot wrapper costs about as much as the call it wraps, so
`install()` measures that cost on a no-op and `summary()` takes it out of the
self times: the part spent inside the timed interval from the callee, the
rest from its caller.  Total times keep it; `trace.overhead` shows its size.

Work submitted to the program's own thread pools starts on an empty stack.
Its spans take as parent the innermost span of the thread that installed the
tracer (the thread blocked in ``pool.map``), and are marked ``cross``; the
parent's self time then also loses the union of those children's intervals.
Times are wall-clock: while two pool threads share the interpreter lock each
of their spans also holds the time it waited for the lock, so under a pool
the self times add up to more than the pass.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
import threading
import time

LAYERS = ("deformation", "fock", "classical", "level", "wave", "coherent",
          "thermo", "experiments", "cli")

HOT = frozenset({
    "deformation.q_number", "deformation.lambda_over_sinh", "deformation.f_of_n",
    "deformation.big_f", "deformation.big_f_inverse", "deformation.phi_of_z",
    "deformation.commutator_function", "deformation.f_factorial",
    "deformation.q_deform", "deformation.identity", "deformation.custom",
    "classical.omega_q", "classical.hamiltonian_q", "classical.deform_amplitude",
    "classical.approx_momentum", "classical.momentum_from_velocity",
    "wave.speed_of_mu", "thermo.bose_einstein",
    "thermo.planck_correction_coefficient", "thermo.deformed_planck_approx",
})

# Complex dim x dim matrix products made by each fock check (8 dim^3 flops
# each); matrix-vector products and eigvalsh are not counted.
MATRIX_PRODUCTS = {
    "fock.check_commutator": 2, "fock.check_reordering": 2,
    "fock.linearoid_roundtrip": 2, "fock.heisenberg_residual": 2,
    "fock.spectrum_check": 1,
}

SECTION_KINDS = ("classical", "level", "wave", "operators", "coherent", "thermo")


def section_kind(command_key: str) -> str:
    """Suite section kind: the RK4 runs of ``classical simulate`` are
    "classical", other classical verbs and ``deform table`` are "other"."""
    module = command_key.split(" ")[0]
    if module == "classical":
        return "classical" if command_key == "classical simulate" else "other"
    return module if module in SECTION_KINDS else "other"


def _counts(name, args, result, duration):
    """Work counts read off a call's arguments, result and duration."""
    if name == "classical.integrate_eom":
        return (("classical.rk4_steps", len(result.t) - 1),)
    if name == "level.evolve_one_level":
        return (("level.rk4_steps", len(result.t) - 1),)
    if name == "thermo.partition_function":
        return (("thermo.terms", result[1]),)
    if name == "coherent.build_f_coherent":
        return (("coherent.cutoff_total", result.cutoff),)
    if name == "experiments.run_experiment":
        return ((f"experiments.section.{section_kind(args[0])}_s", duration),)
    if name in MATRIX_PRODUCTS:
        return (("fock.flops", MATRIX_PRODUCTS[name] * 8 * args[0] ** 3),)
    return ()


COUNTED = frozenset({"classical.integrate_eom", "level.evolve_one_level",
                     "thermo.partition_function", "coherent.build_f_coherent",
                     "experiments.run_experiment", *MATRIX_PRODUCTS})


class _ThreadState:
    __slots__ = ("stack", "agg", "counts", "spans")

    def __init__(self):
        self.stack = []    # frames: [child_time, span id for children, hot children]
        self.agg = {}      # name -> [calls, total_s, self_s, hot children]
        self.counts = {}   # counter -> value
        self.spans = []    # (id, name, t0, t1, parent, cross)


class Tracer:
    def __init__(self):
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self._next_id = iter(range(1, 1 << 62)).__next__
        self._restore = []
        self.main = self._state()
        self.inner = self.outer = 0.0   # hot-wrapper cost per call, see calibrate

    def _state(self) -> _ThreadState:
        try:
            return self._tls.st
        except AttributeError:
            st = _ThreadState()
            self._tls.st = st
            with self._lock:
                self._states.append(st)
            return st

    # ------------------------------------------------------------ wrapping

    def _wrap(self, name, fn, hot):
        perf = time.perf_counter
        tls, state, main = self._tls, self._state, self.main
        next_id = self._next_id
        counted = name in COUNTED

        if hot:
            def wrapper(*args, **kwargs):
                try:
                    st = tls.st
                except AttributeError:
                    st = state()
                stack = st.stack
                frame = [0.0, stack[-1][1] if stack else None, 0]
                stack.append(frame)
                t0 = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    d = perf() - t0
                    stack.pop()
                    if stack:
                        up = stack[-1]
                        up[0] += d
                        up[2] += 1
                    a = st.agg.get(name)
                    if a is None:
                        a = st.agg[name] = [0, 0.0, 0.0, 0]
                    a[0] += 1
                    a[1] += d
                    a[2] += d - frame[0]
                    a[3] += frame[2]
        else:
            def wrapper(*args, **kwargs):
                st = state()
                stack = st.stack
                cross = False
                if stack:
                    parent = stack[-1][1]
                elif st is not main and main.stack:
                    parent, cross = main.stack[-1][1], True
                else:
                    parent = None
                span_id = next_id()
                frame = [0.0, span_id, 0]
                stack.append(frame)
                t0 = perf()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = perf()
                    d = t1 - t0
                    stack.pop()
                    if stack:
                        stack[-1][0] += d
                    a = st.agg.get(name)
                    if a is None:
                        a = st.agg[name] = [0, 0.0, 0.0, 0]
                    a[0] += 1
                    a[1] += d
                    a[2] += d - frame[0]
                    a[3] += frame[2]
                    st.spans.append((span_id, name, t0, t1, parent, cross))
                if counted:
                    for key, value in _counts(name, args, result, d):
                        st.counts[key] = st.counts.get(key, 0) + value
                return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def calibrate(self, calls=20000, repeats=5) -> None:
        """Cost of a hot wrapper around a no-op: `inner` is the part inside
        its own timed interval, `outer` the part its caller is charged."""
        def noop():
            return None

        wrapped = self._wrap("calibration.noop", noop, hot=True)
        st = self._state()
        inner, outer = [], []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(calls):
                noop()
            plain = (time.perf_counter() - t0) / calls
            st.stack.append([0.0, None, 0])
            t0 = time.perf_counter()
            for _ in range(calls):
                wrapped()
            full = (time.perf_counter() - t0) / calls
            st.stack.pop()
            timed = st.agg.pop("calibration.noop")[1] / calls
            inner.append(max(timed - plain, 0.0))
            outer.append(max(full - timed, 0.0))
        self.inner, self.outer = statistics.median(inner), statistics.median(outer)

    def install(self) -> None:
        """Wrap every public function of LAYERS and rebind its references."""
        import qlab
        self.calibrate()
        modules = {layer: importlib.import_module(f"qlab.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    name = f"{layer}.{attr}"
                    wrappers[id(obj)] = self._wrap(name, obj, name in HOT)
        for mod in (qlab, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])

    def remove(self) -> None:
        for mod, attr, obj in reversed(self._restore):
            setattr(mod, attr, obj)
        self._restore.clear()

    # ------------------------------------------------------------- results

    def _merged(self):
        agg, counts, spans = {}, {}, []
        with self._lock:
            states = list(self._states)
        for st in states:
            for name, values in st.agg.items():
                a = agg.setdefault(name, [0, 0.0, 0.0, 0])
                for i, v in enumerate(values):
                    a[i] += v
            for key, value in st.counts.items():
                counts[key] = counts.get(key, 0) + value
            spans.extend(st.spans)
        return agg, counts, spans

    def summary(self):
        """(per-function [calls, total_s, self_s], counts, per-layer self_s).

        Self times lose the calibrated hot-wrapper cost, and a span's self
        time loses the union of its cross-thread children's intervals,
        clipped to the span.
        """
        agg, counts, spans = self._merged()
        for name, a in agg.items():
            a[2] -= a[3] * self.outer + (a[0] * self.inner if name in HOT else 0.0)
        cross_children = {}
        for span in spans:
            if span[5] and span[4] is not None:
                cross_children.setdefault(span[4], []).append((span[2], span[3]))
        for span_id, name, t0, t1, _, _ in spans:
            intervals = cross_children.get(span_id)
            if intervals:
                agg[name][2] -= _union_length(intervals, t0, t1)
        layer_self = {layer: 0.0 for layer in LAYERS}
        for name, a in agg.items():
            layer_self[name.split(".")[0]] += a[2]
        return {k: a[:3] for k, a in agg.items()}, counts, layer_self

    def write_spans(self, path: str) -> None:
        """Write every kept span as one JSON object per line."""
        _, _, spans = self._merged()
        spans.sort(key=lambda s: s[2])
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, t0, t1, parent, cross in spans:
                handle.write(json.dumps({"id": span_id, "name": name, "start": t0,
                                         "end": t1, "parent": parent,
                                         "cross_thread": cross}) + "\n")


def _union_length(intervals, lo, hi) -> float:
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total
