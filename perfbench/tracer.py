"""Span tracer that wraps coherence_lab functions from outside the package.

Each traced function is replaced at every module attribute bound to it, so a
caller that looks the name up at call time (``scan.decay_rate``,
``coherence.is_physical``, ...) runs the wrapper. The scan kernels are looked
up through ``scan._KERNELS``; that dict is swapped for wrapped copies, which
records the array calls a scan makes and leaves the scalar kernel calls
inside ``closed_measure`` to its own self time.

Spans stay in memory until the pass ends. Every span is folded into a
per-(name, parent) aggregate, kept per thread so the hot path takes no lock;
shallow spans (depth <= 1) and the first span of each pool task are also
kept as full records. A span opened on a thread whose own stack is empty
takes as parent the innermost open span of the main thread: the scan call
that is blocked on its thread pool.

Self time is a span's duration minus what its children cover. Children on
the same thread never overlap, so their durations add up; children on pool
threads can overlap each other, so the union of their intervals is taken.
The two kinds are assumed not to overlap each other, which holds because
the scans wait on their pool and do nothing else meanwhile.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
from time import perf_counter

# layer -> public functions wrapped wherever the package binds them
TRACED = {
    "cli": ("main",),
    "scan": ("frozen_surface", "decay_curve"),
    "decay": ("decay_rate",),
    "channels": (
        "coefficient_map",
        "per_iteration_factors",
        "apply_n",
        "apply_product_channel",
        "single_parameter_kraus_set",
    ),
    "coherence": ("closed_measure", "matrix_measure"),
    "states": (
        "is_physical",
        "validate_density_matrix",
        "to_density_matrix",
        "from_density_matrix",
    ),
    "linalg": ("hermitian_eigensystem", "psd_sqrt", "von_neumann_entropy"),
    "sampling": ("random_physical_state",),
}
LAYERS = tuple(TRACED)
# every invocation runs inside this span
ROOT = "cli.main"

DECAY_CLOSED = "decay.decay_rate.closed"
DECAY_ORACLE = "decay.decay_rate.oracle"
KERNEL = "coherence.kernel"

SPAN_NAMES = tuple(
    name
    for layer, functions in TRACED.items()
    for function in functions
    for name in (
        (DECAY_CLOSED, DECAY_ORACLE)
        if (layer, function) == ("decay", "decay_rate")
        else (f"{layer}.{function}",)
    )
) + (KERNEL,)

# frame fields
_NAME, _ID, _CHILD_S, _POOL, _PARENT, _DEPTH = range(6)


def _decay_rate_name(args, kwargs) -> str:
    query = args[0] if args else kwargs["query"]
    return DECAY_ORACLE if query.engine == "matrix-oracle" else DECAY_CLOSED


def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: list[dict] = []
        self._ids = itertools.count(1)
        self._undo: list[tuple[object, str, object]] = []
        self.spans: list[tuple[int, str, float, float, int, str]] = []
        self._main_stack = self._state()[0]

    def _state(self) -> tuple[list, dict]:
        try:
            return self._local.state
        except AttributeError:
            state = ([], {})
            with self._lock:
                self._tables.append(state[1])
            self._local.state = state
            return state

    def _wrap(self, fn, name: str, namer=None):
        tracer = self
        ids = self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, table = tracer._state()
            span = namer(args, kwargs) if namer is not None else name
            if stack:
                parent = stack[-1]
                pooled = False
            else:
                main = tracer._main_stack
                parent = main[-1] if main and stack is not main else None
                pooled = parent is not None
            depth = parent[_DEPTH] + 1 if parent is not None else 0
            frame = [span, next(ids), 0.0, None, parent, depth]
            stack.append(frame)
            failed = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = perf_counter()
                stack.pop()
                tracer._close(frame, table, start, end, failed, pooled)

        return traced

    def _close(self, frame, table, start, end, failed, pooled) -> None:
        duration = end - start
        covered = frame[_CHILD_S]
        if frame[_POOL]:
            covered += _covered(frame[_POOL], start, end)
        self_s = max(duration - covered, 0.0)
        parent = frame[_PARENT]
        if parent is not None:
            if pooled:
                with self._lock:
                    if parent[_POOL] is None:
                        parent[_POOL] = []
                    parent[_POOL].append((start, end))
            else:
                parent[_CHILD_S] += duration
        key = (frame[_NAME], parent[_NAME] if parent is not None else None)
        agg = table.get(key)
        if agg is None:
            agg = table[key] = [0, 0.0, 0.0, 0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += self_s
        agg[3] += failed
        if pooled or frame[_DEPTH] <= 1:
            self.spans.append((
                frame[_ID],
                frame[_NAME],
                start,
                end,
                parent[_ID] if parent is not None else 0,
                threading.current_thread().name,
            ))

    def install(self) -> None:
        """Wrap every traced function at each package attribute bound to it."""
        modules = [importlib.import_module("coherence_lab")] + [
            importlib.import_module(f"coherence_lab.{layer}") for layer in LAYERS
        ]
        by_layer = dict(zip(LAYERS, modules[1:]))
        for layer, functions in TRACED.items():
            for function in functions:
                original = getattr(by_layer[layer], function)
                namer = _decay_rate_name if (layer, function) == ("decay", "decay_rate") else None
                wrapper = self._wrap(original, f"{layer}.{function}", namer)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._undo.append((module, attr, original))
        scan = by_layer["scan"]
        kernels = scan._KERNELS
        scan._KERNELS = {m: self._wrap(k, KERNEL) for m, k in kernels.items()}
        self._undo.append((scan, "_KERNELS", kernels))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def aggregates(self) -> list[list]:
        """Rows [name, parent, calls, busy_s, self_s, errors], merged over threads."""
        merged: dict[tuple, list] = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for key, (calls, busy, self_s, errors) in table.items():
                row = merged.setdefault(key, [0, 0.0, 0.0, 0])
                row[0] += calls
                row[1] += busy
                row[2] += self_s
                row[3] += errors
        return [[name, parent, *row] for (name, parent), row in sorted(
            merged.items(), key=lambda item: (item[0][0], item[0][1] or ""))]
