"""Outside-in layer tracing: spans recorded around the program's public functions.

:class:`Tracer` replaces every module binding of a traced function (the
originals are imported by name into several modules, so each ``from …
import`` copy is a separate binding) and the traced methods of the
scheduler, shuffle manager and shared filesystem.  Each call records a span
``(layer, start, end, thread, operation, quantities)`` in memory.  The
program is not modified; :meth:`Tracer.uninstall` puts every original back.

:func:`analyse` turns the spans into per-layer numbers: self time per
thread, pool-thread spans parented to the driver-side stage that contains
them in time, and stage idle time.
"""

from __future__ import annotations

import bisect
import importlib
import json
import os
import sys
import threading
import time

#: Modules whose bindings are scanned when a function is traced.  They are
#: imported before the scan so no binding is created after it.
PROGRAM_MODULES = (
    "repro.linalg.semiring", "repro.linalg.kernels", "repro.linalg.witness",
    "repro.core.building_blocks", "repro.core.blocked_collect_broadcast",
    "repro.core.blocked_inmemory", "repro.core.dynamic", "repro.core.base",
    "repro.core.engine", "repro.serve.service", "repro.spark.scheduler",
    "repro.spark.shuffle", "repro.spark.sharedfs",
)

#: Layers that do the work of a task, ranked by their self time on pool
#: threads to name the largest one.
WORK_LAYERS = (
    "linalg.product", "linalg.fw", "linalg.combine", "linalg.rank1",
    "witness.product", "witness.gather", "witness.parent_row",
    "spark.shuffle_write", "spark.shuffle_read",
    "spark.sharedfs_read", "spark.sharedfs_write",
)


def _nbytes(value) -> int:
    return int(getattr(value, "nbytes", 0))


def _product_quantities(args, kwargs, result) -> dict:
    """Element ops and bytes of an ``(m, k) ⊗ (k, n)`` product, from shapes."""
    m, k = args[0].shape
    n = args[1].shape[1]
    return {"gop": 2.0 * m * k * n / 1e9,
            "bytes": _nbytes(args[0]) + _nbytes(args[1]) + _nbytes(result)}


def _shuffle_write_quantities(args, kwargs, result) -> dict:
    return {"bytes": int(result.nbytes)}


def _file_quantities(path) -> dict:
    """Bytes of a staged file; a name that is not a file path reads as -1."""
    try:
        return {"bytes": os.path.getsize(path)}
    except (OSError, TypeError):
        return {"bytes": -1}


def _sharedfs_write_quantities(args, kwargs, result) -> dict:
    return _file_quantities(result)


def _sharedfs_read_quantities(args, kwargs, result) -> dict:
    return _file_quantities(args[1])


#: (module, function, layer, quantities) for every traced function.
FUNCTIONS = (
    ("repro.linalg.semiring", "semiring_product", "linalg.product",
     _product_quantities),
    ("repro.linalg.semiring", "elementwise_combine", "linalg.combine", None),
    ("repro.linalg.kernels", "floyd_warshall_inplace", "linalg.fw", None),
    ("repro.linalg.kernels", "fw_rank1_update", "linalg.rank1", None),
    ("repro.linalg.kernels", "fw_rank1_update_inplace", "linalg.rank1", None),
    ("repro.linalg.witness", "witness_product", "witness.product", None),
    ("repro.linalg.witness", "witness_blocks_to_matrices", "witness.gather",
     None),
    ("repro.linalg.witness", "repair_parents", "witness.gather", None),
    ("repro.linalg.witness", "solve_parent_row", "witness.parent_row", None),
    ("repro.linalg.witness", "rebuild_parent_row", "witness.parent_row", None),
    ("repro.core.dynamic", "apply_incremental", "dynamic.incremental", None),
)

#: (module, class, method, layer, quantities) for every traced method.
METHODS = (
    ("repro.spark.shuffle", "ShuffleManager", "write_map_output",
     "spark.shuffle_write", _shuffle_write_quantities),
    ("repro.spark.shuffle", "ShuffleManager", "read_reduce_input",
     "spark.shuffle_read", None),
    ("repro.spark.sharedfs", "SharedFileSystem", "write",
     "spark.sharedfs_write", _sharedfs_write_quantities),
    ("repro.spark.sharedfs", "SharedFileSystem", "read",
     "spark.sharedfs_read", _sharedfs_read_quantities),
)


class Tracer:
    """In-memory span recorder that wraps the program's public functions."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        #: Operation id stamped on every span; the single driver sets it
        #: before each operation, and pool threads only run inside one.
        self.op: str | None = None
        self.driver_thread = threading.get_ident()
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, fn, layer: str, quantities=None):
        """Return ``fn`` recording one span per call under ``layer``."""
        spans = self.spans

        def traced(*args, **kwargs):
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                qty = (quantities(args, kwargs, result)
                       if quantities is not None and result is not None
                       else None)
                spans.append((layer, start, end, threading.get_ident(),
                              self.op, qty))

        traced.__wrapped__ = fn
        return traced

    def _stage_wrapper(self, run_stage):
        tracer = self

        def traced_run_stage(scheduler, kind, tasks):
            config = scheduler.config
            pool = (config.total_cores
                    if config.backend != "serial" and len(tasks) > 1 else 1)
            wrapped = [tracer.wrap(task, "spark.task") for task in tasks]
            start = time.perf_counter()
            try:
                return run_stage(scheduler, kind, wrapped)
            finally:
                tracer.spans.append(
                    ("spark.stage", start, time.perf_counter(),
                     threading.get_ident(), tracer.op,
                     {"tasks": len(tasks), "pool": pool}))

        traced_run_stage.__wrapped__ = run_stage
        return traced_run_stage

    def install(self) -> None:
        """Wrap every binding of the traced functions and methods."""
        if self._patches:
            return
        for name in PROGRAM_MODULES:
            importlib.import_module(name)
        program = [mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == "repro"
                                           or name.startswith("repro."))]
        for module_name, func_name, layer, quantities in FUNCTIONS:
            original = getattr(sys.modules[module_name], func_name)
            traced = self.wrap(original, layer, quantities)
            for module in program:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, traced)
        for module_name, cls_name, method, layer, quantities in METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            self._patch(cls, method,
                        self.wrap(getattr(cls, method), layer, quantities))
        scheduler = sys.modules["repro.spark.scheduler"].TaskScheduler
        self._patch(scheduler, "run_stage",
                    self._stage_wrapper(scheduler.run_stage))

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Restore every original binding."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def op_span(self, op: str):
        """Context manager marking one benchmark operation on the driver."""
        return _OpSpan(self, op)

    def write_chrome_trace(self, path: str) -> None:
        """Write the spans as Chrome trace-event JSON (one ``X`` event each)."""
        parents = analyse(self.spans, self.driver_thread)["parents"]
        origin = min((s[1] for s in self.spans), default=0.0)
        events = []
        for index, (layer, start, end, tid, op, qty) in enumerate(self.spans):
            args = {"id": index, "parent": parents[index], "op": op}
            if qty:
                args.update(qty)
            events.append({"name": layer, "ph": "X", "pid": 1, "tid": tid,
                           "ts": (start - origin) * 1e6,
                           "dur": (end - start) * 1e6, "args": args})
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


class _OpSpan:
    def __init__(self, tracer: Tracer, op: str) -> None:
        self.tracer, self.op = tracer, op

    def __enter__(self):
        self.tracer.op = self.op
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.tracer.spans.append(("op", self.start, time.perf_counter(),
                                  threading.get_ident(), self.op, None))
        self.tracer.op = None


def analyse(spans: list[tuple], driver_thread: int) -> dict:
    """Parents, per-thread self times and per-layer totals of a span list.

    A span's parent is the innermost span on its own thread that contains
    it; a pool-thread span with none takes the driver-side ``spark.stage``
    span that contains it in time.  Self time is a span's duration minus
    the durations of its children on the same thread.
    """
    count = len(spans)
    parents: list[int | None] = [None] * count
    self_time = [s[2] - s[1] for s in spans]
    by_thread: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        by_thread.setdefault(span[3], []).append(index)
    for indices in by_thread.values():
        indices.sort(key=lambda i: (spans[i][1], -spans[i][2]))
        stack: list[int] = []
        for i in indices:
            while stack and spans[stack[-1]][2] < spans[i][2]:
                stack.pop()
            if stack:
                parents[i] = stack[-1]
                self_time[stack[-1]] -= spans[i][2] - spans[i][1]
            stack.append(i)
    stages = sorted((i for i in by_thread.get(driver_thread, ())
                     if spans[i][0] == "spark.stage"),
                    key=lambda i: spans[i][1])
    stage_starts = [spans[i][1] for i in stages]
    for i in range(count):
        if parents[i] is None and spans[i][3] != driver_thread:
            at = bisect.bisect_right(stage_starts, spans[i][1]) - 1
            if at >= 0 and spans[stages[at]][2] >= spans[i][2]:
                parents[i] = stages[at]
    layers: dict[str, dict] = {}
    for i, (layer, start, end, tid, _op, qty) in enumerate(spans):
        entry = layers.setdefault(layer, {"calls": 0, "self_s": 0.0,
                                          "wall_s": 0.0, "worker_self_s": 0.0,
                                          "gop": 0.0, "bytes": 0})
        entry["calls"] += 1
        entry["self_s"] += self_time[i]
        entry["wall_s"] += end - start
        if tid != driver_thread:
            entry["worker_self_s"] += self_time[i]
        if qty:
            entry["gop"] += qty.get("gop", 0.0)
            entry["bytes"] += qty.get("bytes", 0)
    task_wall: dict[int, float] = {}
    for i, span in enumerate(spans):
        if span[0] == "spark.task":
            stage = _enclosing_stage(i, parents, spans)
            if stage is not None:
                task_wall[stage] = task_wall.get(stage, 0.0) + span[2] - span[1]
    idle = sum((spans[s][2] - spans[s][1]) * spans[s][5]["pool"]
               - task_wall.get(s, 0.0) for s in stages)
    return {"parents": parents, "self_time": self_time, "layers": layers,
            "idle_s": idle,
            "tasks": sum(spans[s][5]["tasks"] for s in stages)}


def _enclosing_stage(index: int, parents: list, spans: list) -> int | None:
    node = parents[index]
    while node is not None and spans[node][0] != "spark.stage":
        node = parents[node]
    return node
