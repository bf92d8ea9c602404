"""Outside-in tracer for the apeuler package.

The tracer replaces selected public functions of the package with timing
wrappers while it is installed.  A function is rebound in *every* module
that holds it by name (``from .operators import grad_values`` copies the
binding into ``apeuler.compressible``), otherwise calls made through the
importing module would be missed.  Nothing inside ``src/`` is edited.

Spans are kept in memory: one record per call with its id, parent id,
name, thread, start, end and self time.  Each thread keeps its own span
stack, so calls made by sweep worker threads nest correctly.  A span's
self time is its duration minus the durations of its direct children;
children on one thread never overlap, so that sum is the union of their
intervals.  Summed over all spans of one thread, self time therefore equals
the total duration of that thread's root spans.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import itertools
import os
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager
from typing import NamedTuple

#: (module, function) pairs that get a span.  ``harness.run_experiment`` is
#: traced but the case-study functions it dispatches to are not, so its self
#: time is the harness's own work, including waiting for the sweep pool.
#: ``mesh.Mesh`` is traced through ``Mesh.__init__``.
TARGETS = {
    "mesh": ("Mesh",),
    "operators": ("grad_values", "div_values", "div_upwind_values",
                  "edge_normal_values", "split_advective_velocity",
                  "laplace_values", "project"),
    "linsolve": ("solve_transport", "solve_deflated_spd"),
    "compressible": ("comp_step", "comp_dt", "density_picard",
                     "velocity_update", "total_energy", "total_entropy",
                     "run_comp"),
    "incompressible": ("incomp_step", "incomp_dt", "pressure_solve",
                       "pressure_kernel_basis", "run_incomp"),
    "analysis": ("error_suite", "w1_empirical", "make_ensemble",
                 "restrict_values", "cesaro", "first_variance",
                 "density_deviation"),
    "config": ("parse_config_text",),
    "harness": ("run_experiment",),
    "output": ("write_csv", "write_field_csv"),
    "cli": ("main",),
}

#: spans whose thread CPU time is recorded as well (for sweep efficiency)
CPU_TIMED = ("compressible.run_comp", "incompressible.run_incomp")


PACKAGE = "apeuler"


def rebind(original, replacement) -> list:
    """Point every module-level name in the package that is bound to
    ``original`` at ``replacement``.  Returns the (module, name, original)
    undo list."""
    undo = []
    modules = [m for name, m in list(sys.modules.items())
               if name == PACKAGE or name.startswith(PACKAGE + ".")]
    for mod in modules:
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, replacement)
                undo.append((mod, name, original))
    return undo


def restore(undo: list) -> None:
    for owner, name, original in reversed(undo):
        setattr(owner, name, original)


class Span(NamedTuple):
    sid: int
    parent: int          # 0 for a root span of its thread
    name: str
    thread: int
    start: float
    end: float
    self_s: float
    cpu_s: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and counters while installed (use as a context
    manager around the traced calls)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._undo: list = []

    # -- counters -----------------------------------------------------------

    def count(self, key: str, n: float = 1) -> None:
        with self._lock:
            self.counters[key] += n

    # -- spans --------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, cpu: bool):
        stack = self._stack()
        frame = [next(self._ids), 0.0,
                 time.thread_time() if cpu else 0.0]
        parent = stack[-1][0] if stack else 0
        stack.append(frame)
        return stack, frame, parent

    def _leave(self, name, stack, frame, parent, t0, cpu: bool) -> None:
        t1 = time.perf_counter()
        cpu_s = time.thread_time() - frame[2] if cpu else 0.0
        stack.pop()
        duration = t1 - t0
        if stack:
            stack[-1][1] += duration
        self.spans.append(Span(frame[0], parent, name, threading.get_ident(),
                               t0, t1, duration - frame[1], cpu_s))

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code (e.g. the workload body)."""
        stack, frame, parent = self._enter(False)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._leave(name, stack, frame, parent, t0, False)

    def wrap(self, name: str, fn, before=None, after=None):
        """Timing wrapper around ``fn``.  ``before(args, kwargs)`` may
        replace the arguments; ``after(result)`` reads the result.  Both
        run inside the span."""
        cpu = name in CPU_TIMED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, frame, parent = self._enter(cpu)
            t0 = time.perf_counter()
            try:
                if before is not None:
                    args, kwargs = before(args, kwargs)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result)
                return result
            finally:
                self._leave(name, stack, frame, parent, t0, cpu)

        return traced

    # -- layer hooks ----------------------------------------------------------

    def _count_applies(self, args, kwargs):
        """Count operator applications at the linsolve boundary by wrapping
        the operator handed to the solver."""
        args = list(args)
        op = args[0] if args else kwargs["A"]

        def apply(x):
            self.count("linsolve.operator_applies")
            return op(x)

        counted = (dataclasses.replace(op, apply=apply)
                   if dataclasses.is_dataclass(op) else apply)
        if args:
            args[0] = counted
        else:
            kwargs = dict(kwargs, A=counted)
        return tuple(args), kwargs

    def _solve_report(self, prefix: str):
        def after(result):
            report = result[1]
            self.count(prefix + ".iters", report.iterations)
            self.count(prefix + ".fail", int(not report.converged))
        return after

    def _file_bytes(self, prefix: str):
        def after(path):
            self.count(prefix + ".bytes", os.path.getsize(path))
        return after

    def _picard_sweeps(self, result):
        self.count("compressible.picard_sweeps", result[1].picard_iters)

    def _hooks(self, name: str) -> dict:
        if name.startswith("linsolve."):
            return {"before": self._count_applies,
                    "after": self._solve_report(name)}
        if name.startswith("output."):
            return {"after": self._file_bytes(name)}
        if name == "compressible.comp_step":
            return {"after": self._picard_sweeps}
        return {}

    # -- install / uninstall ------------------------------------------------

    def install(self) -> None:
        for layer, names in TARGETS.items():
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for fname in names:
                target = getattr(mod, fname)
                label = f"{layer}.{fname}"
                if isinstance(target, type):
                    init = target.__init__
                    target.__init__ = self.wrap(label, init)
                    self._undo.append((target, "__init__", init))
                else:
                    wrapper = self.wrap(label, target, **self._hooks(label))
                    self._undo += rebind(target, wrapper)

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
