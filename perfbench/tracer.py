"""Outside-in per-layer tracing of the bnsum package.

Nothing under ``src/`` is changed.  :class:`Tracer` replaces public functions
of the bnsum modules by timing wrappers, everywhere a name is bound to them:
the modules import each other with ``from .x import y``, so wrapping only the
defining module would miss the calls that go through the other bindings.

Each wrapper opens a span on a per-thread stack (``bnsum sweep`` runs its rows
on a thread pool).  A span opened on a worker thread with no open span of its
own is parented to the main thread's innermost open span, so sweep rows are
children of the ``cli.main`` call that started them.  A span's self time is
its duration minus the part of that interval its children cover; children on
other threads may overlap, so the covered part is the union of their
intervals.  Parents close after their children here (the pool is joined
before ``main`` returns), so self time is settled when a span closes and no
span is kept after that.
"""
from __future__ import annotations

import sys
import threading
import time

import numpy as np

# (module, function, metric key that collects the span's self time)
TARGETS = (
    ("kernels", "bessel_rows", "kernels.self_s"),
    ("direct", "sum_series", "direct.self_s"),
    ("direct", "sum_derivative_series", "direct.self_s"),
    ("specfun", "lerch_unit_many", "specfun.integral_self_s"),
    ("specfun", "lerch_local_many", "specfun.local_self_s"),
    ("specfun", "hurwitz_zeta", "specfun.zeta_self_s"),
    ("fseries", "f_eval_many", "fseries.self_s"),
    ("fseries", "f_eval_near_half_many", "fseries.self_s"),
    ("quadrature", "eval_hankel", "quadrature.self_s"),
    ("quadrature", "eval_exp2d", "quadrature.self_s"),
    ("quadrature", "eval_lifted", "quadrature.self_s"),
    ("asymptotics", "eval_form", "asymptotics.self_s"),
    ("asymptotics", "leading_noninteger", "asymptotics.self_s"),
    ("asymptotics", "leading_integer", "asymptotics.self_s"),
    ("asymptotics", "leading_nonneg", "asymptotics.self_s"),
    ("asymptotics", "derivative_series_form", "asymptotics.self_s"),
    ("harness", "oscillation_grid", "harness.self_s"),
    ("harness", "window_envelope", "harness.self_s"),
    ("harness", "fit_loglog_slope", "harness.self_s"),
    ("cli", "main", "cli.self_s"),
    ("cli", "_sweep_row", "cli.self_s"),
)

# Every per-layer metric, in report order; all are printed on every workload.
LAYER_METRICS = {
    "kernels.calls": "count",
    "kernels.columns": "count",
    "kernels.cells": "count",
    "kernels.nonfinite_columns": "count",
    "kernels.self_s": "s",
    "direct.calls": "count",
    "direct.terms": "count",
    "direct.self_s": "s",
    "specfun.integral_nodes": "count",
    "specfun.local_nodes": "count",
    "specfun.integral_self_s": "s",
    "specfun.local_self_s": "s",
    "specfun.zeta_calls": "count",
    "specfun.zeta_self_s": "s",
    "fseries.nodes": "count",
    "fseries.self_s": "s",
    "quadrature.calls": "count",
    "quadrature.levels": "count",
    "quadrature.converged_frac": "ratio",
    "quadrature.self_s": "s",
    "asymptotics.calls": "count",
    "asymptotics.self_s": "s",
    "harness.self_s": "s",
    "cli.self_s": "s",
    "cli.sweep_concurrency": "ratio",
}


def _union_length(intervals, lo: float, hi: float) -> float:
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a = max(a, end)
        b = min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


class _Span:
    __slots__ = ("name", "parent", "t0", "children", "handed", "main_root")

    def __init__(self, name, parent, t0):
        self.name = name
        self.parent = parent
        self.t0 = t0
        self.children = []  # (t0, t1) of closed child spans
        self.handed = 0  # angles lerch_unit_many passed on to lerch_local_many
        self.main_root = False  # outermost span of the main thread


class Tracer:
    """Wraps the bnsum functions in :data:`TARGETS` while installed."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[_Span] = []
        self._saved: list[tuple[object, str, object]] = []
        self.totals = {k: 0 for k in LAYER_METRICS}
        self._hankel_calls = 0
        self._hankel_batches = 0
        self._quad_converged = 0
        self._sweep_wall = 0.0
        self._row_time = 0.0
        self._main_root_time = 0.0

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "bnsum" or name.startswith("bnsum."))]
        for mod_name, fn_name, self_key in TARGETS:
            original = getattr(sys.modules["bnsum." + mod_name], fn_name)
            wrapper = self._wrap(original, fn_name, self_key)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    # -- spans --------------------------------------------------------------

    def _stack(self) -> list[_Span]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str, self_key: str):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            main = tracer._main_stack
            if stack:
                parent = stack[-1]
            else:
                parent = main[-1] if main and stack is not main else None
            span = _Span(name, parent, time.perf_counter())
            span.main_root = stack is main and not stack
            stack.append(span)
            ok = False
            result = None
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer._close(span, self_key, t1, args, result, ok)

        return traced

    def _close(self, span: _Span, self_key: str, t1: float, args, result, ok: bool) -> None:
        dur = t1 - span.t0
        self_time = dur - _union_length(span.children, span.t0, t1)
        with self._lock:
            t = self.totals
            t[self_key] += self_time
            parent = span.parent
            if parent is not None:
                parent.children.append((span.t0, t1))
            if span.main_root:
                self._main_root_time += dur
            name = span.name
            if name == "bessel_rows":
                nmax, rs = args[0], np.asarray(args[1])
                t["kernels.calls"] += 1
                t["kernels.columns"] += rs.size
                t["kernels.cells"] += (nmax + 1) * rs.size
                if ok:
                    t["kernels.nonfinite_columns"] += int(
                        np.count_nonzero(~np.isfinite(result).all(axis=0)))
            elif name in ("sum_series", "sum_derivative_series"):
                t["direct.calls"] += 1
                if ok:
                    t["direct.terms"] += result.work
            elif name == "lerch_unit_many":
                t["specfun.integral_nodes"] += np.asarray(args[0]).size - span.handed
            elif name == "lerch_local_many":
                n = np.asarray(args[0]).size
                t["specfun.local_nodes"] += n
                if parent is not None and parent.name == "lerch_unit_many":
                    parent.handed += n
            elif name == "hurwitz_zeta":
                t["specfun.zeta_calls"] += 1
            elif name in ("f_eval_many", "f_eval_near_half_many"):
                t["fseries.nodes"] += np.asarray(args[1]).size
                if name == "f_eval_many" and parent is not None and parent.name == "eval_hankel":
                    self._hankel_batches += 1
            elif name.startswith("eval_") and name != "eval_form":
                t["quadrature.calls"] += 1
                self._quad_converged += ok
                if name == "eval_hankel":
                    self._hankel_calls += 1
            elif name == "eval_form":
                t["asymptotics.calls"] += 1
            elif name == "main" and args and args[0] and args[0][0] == "sweep":
                self._sweep_wall += dur
            elif name == "_sweep_row":
                self._row_time += dur

    # -- report -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out = dict(self.totals)
        out["quadrature.levels"] = self._hankel_batches / max(1, self._hankel_calls)
        out["quadrature.converged_frac"] = self._quad_converged / max(1, out["quadrature.calls"])
        out["cli.sweep_concurrency"] = self._row_time / self._sweep_wall if self._sweep_wall else 0.0
        return out

    def main_thread_seconds(self) -> float:
        """Seconds the main thread spent inside some layer's span: the sum of
        its outermost spans, which never overlap.  Work on the sweep pool runs
        inside a main-thread ``cli.main`` span, so it is not counted twice."""
        return self._main_root_time
