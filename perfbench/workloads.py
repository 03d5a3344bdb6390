"""The three benchmark workloads, driven only through the program's public API.

Each workload sets up an engine several times (the last one is kept),
measures its operations for the requested number of seconds, gates every
answer for correctness and returns a :class:`Run`.  With tracing on, the
measured operations alternate untraced and traced (single solves, or
windows of the request stream) so the tracing overhead is measured in the
same run, and per-layer numbers come from the traced ones only.
"""

from __future__ import annotations

import contextlib
import gc
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.csgraph import floyd_warshall as csgraph_floyd_warshall

from repro import APSPEngine, SolveRequest
from repro.common.config import EngineConfig

from inputs import ServeStream, er_graph
from layers import WORK_LAYERS, Tracer, analyse

#: Floor on measured operations, whatever ``--seconds`` says.  Peak RSS is
#: read once this many have run, so it covers the same work on every run
#: however fast the host is (the engine's memory grows with each solve).
MIN_SOLVES = 3
MIN_UPDATES = 200
#: The serving workload times csgraph T1 on the current graph this often.
T1_EVERY_UPDATES = 8
#: With tracing on, the serving workload alternates untraced and traced
#: windows of this many update cycles (each cycle is one update and the
#: routes before it).
TRACE_WINDOW_CYCLES = 4
#: Hard stop for the measuring loop, well inside the per-run time limit.
MAX_MEASURE_SECONDS = 120.0
#: Relative tolerance of the distance gates (float64 sums of <= n edges).
RTOL = 1e-9


@dataclass
class Run:
    """Outcome of one workload run."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    end_to_end: dict[str, tuple[float, str]] = field(default_factory=dict)
    per_layer: dict[str, tuple[float, str]] = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> bool:
        """Count one operation; record it as failed unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)
        return ok


def engine_config(nproc: int, staging_dir: str) -> EngineConfig:
    """The threads backend with ``nproc`` single-core executors."""
    return EngineConfig(backend="threads", num_executors=nproc,
                        cores_per_executor=1, shared_fs_dir=staging_dir)


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: list[float], pct: int) -> float:
    """The ``pct``-th percentile by :func:`statistics.quantiles` (exclusive)."""
    return statistics.quantiles(values, n=100)[pct - 1]


def timed(fn, *args, **kwargs):
    """``(seconds, result)`` of one call."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


def _start_engine(config: EngineConfig, first_op):
    """Engine start through its first, untimed operation: ``(seconds, engine, out)``."""
    start = time.perf_counter()
    engine = APSPEngine(config).start()
    try:
        out = first_op(engine)
    except BaseException:
        engine.stop()
        raise
    return time.perf_counter() - start, engine, out


def _setups(config: EngineConfig, first_op, count: int,
            check) -> tuple[list[float], APSPEngine, object]:
    """Start the engine ``count`` times, untraced.

    A stopped engine is only freed by the cyclic garbage collector, so each
    is collected before the next start; otherwise their memory piles up in
    the peak RSS and a collection pause can land in any set-up wall.

    Returns the set-up walls and the last engine, which stays running, with
    its first operation's output.
    """
    walls: list[float] = []
    engine = out = None
    for _ in range(count):
        if engine is not None:
            engine.stop()
            engine = out = None
            gc.collect()
        seconds, engine, out = _start_engine(config, first_op)
        walls.append(seconds)
        check(out)
    return walls, engine, out


def _metrics_delta(before: dict, after: dict, key: str) -> int:
    return int(after.get(key, 0)) - int(before.get(key, 0))


# --------------------------------------------------------------------------- solves
@dataclass(frozen=True)
class SolveWorkload:
    """A repeated distributed solve of one seeded graph, against csgraph T1."""

    name: str
    n: int
    request: SolveRequest
    #: Engine start-ups per run; ``setup_s`` is their median.
    setups: int

    def run(self, seed: int, seconds: float, nproc: int, staging_dir: str,
            tracer: Tracer | None) -> Run:
        """Set up, measure solves and T1 for ``seconds``, gate, report."""
        run = Run()
        adj = er_graph(self.n, seed)
        t1_fn = (lambda: csgraph_floyd_warshall(
            adj, directed=True, return_predecessors=self.request.paths))
        reference = _t1_distances(t1_fn())
        sample = np.random.default_rng([seed, 0xA7]).integers(self.n, size=(64, 2))
        config = engine_config(nproc, staging_dir)

        def gate(result) -> None:
            self._gate(run, result, adj, reference, sample)

        setup_walls, engine, _ = _setups(
            config, lambda eng: eng.solve(adj, self.request), self.setups, gate)
        solves: list[float] = []
        traced_solves: list[float] = []
        t1: list[float] = []
        rss_mb = None
        coverage: list[str] = []
        collected: list[int] = []
        try:
            deadline = time.perf_counter() + seconds
            hard_stop = time.perf_counter() + MAX_MEASURE_SECONDS
            index = 0
            while (index < MIN_SOLVES or time.perf_counter() < deadline
                   or (tracer is not None and len(traced_solves) < 2)):
                if time.perf_counter() > hard_stop:
                    break
                if tracer is not None and index % 2 == 1:
                    seconds_taken, result = self._traced_solve(
                        engine, adj, tracer, f"solve-{index}", coverage,
                        collected)
                    traced_solves.append(seconds_taken)
                else:
                    seconds_taken, result = timed(engine.solve, adj, self.request)
                    solves.append(seconds_taken)
                    if len(solves) == MIN_SOLVES:
                        rss_mb = peak_rss_mb()
                gate(result)
                # T1 runs as often as fits in the solve's wall, at least once,
                # so the run spends about as long on the yardstick as on the
                # solver and a cheap T1 gets as many samples as it needs.
                spent = 0.0
                while tracer is None:
                    t1_seconds, out = timed(t1_fn)
                    t1.append(t1_seconds)
                    spent += t1_seconds
                    run.check(np.array_equal(_t1_distances(out), reference),
                              "csgraph T1 is not deterministic")
                    if spent + t1_seconds > seconds_taken:
                        break
                index += 1
        finally:
            engine.stop()
        for problem in coverage:
            run.check(False, problem)
        run.details = {"solves": len(solves), "t1_runs": len(t1),
                       "traced_solves": len(traced_solves)}
        if tracer is None:
            solve_s = statistics.median(solves)
            t1_s = statistics.median(t1)
            # A solve is both what the client waits for and what writes the
            # closure, so the two latency metrics coincide here.
            run.end_to_end = {
                "op_p50_ms": (solve_s * 1e3, "ms"),
                "write_p50_ms": (solve_s * 1e3, "ms"),
                "setup_s": (statistics.median(setup_walls), "s"),
                "peak_rss_mb": (rss_mb, "MB"),
            }
            run.details.update(
                solve_s=solve_s, t1_s=t1_s, t1_ratio=solve_s / t1_s,
                solve_samples=[round(x, 4) for x in solves],
                t1_samples=[round(x, 4) for x in t1])
        else:
            overhead = (statistics.median(traced_solves)
                        / statistics.median(solves) - 1.0)
            traced_ops = [f"solve-{i}" for i in range(1, index, 2)]
            run.per_layer, run.details["largest_worker_layer"] = (
                layer_metrics(tracer, traced_ops, overhead, sum(collected)))
        return run

    def _traced_solve(self, engine, adj, tracer: Tracer, op: str,
                      coverage: list[str], collected: list[int]):
        before = engine.metrics
        tracer.install()
        try:
            with tracer.op_span(op):
                seconds_taken, result = timed(engine.solve, adj, self.request)
        finally:
            tracer.uninstall()
        after = engine.metrics
        collected.append(_metrics_delta(before, after, "collect_bytes"))
        coverage.extend(check_coverage(tracer, op, before, after, result,
                                       self.request))
        return seconds_taken, result

    def _gate(self, run: Run, result, adj, reference, sample) -> None:
        ok = run.check(np.allclose(result.distances, reference, rtol=RTOL),
                       f"{self.name}: distances differ from csgraph")
        if not (ok and self.request.paths):
            return
        for src, dst in sample:
            path = result.reconstruct_path(int(src), int(dst))
            run.check(_folds_to(path, adj, int(src), int(dst),
                                result.distances[src, dst]),
                      f"{self.name}: path {src}->{dst} does not fold to "
                      f"its closure entry")


def _t1_distances(out) -> np.ndarray:
    return out[0] if isinstance(out, tuple) else out


def _folds_to(path, adj: np.ndarray, src: int, dst: int, distance) -> bool:
    """True when ``path`` runs ``src`` to ``dst`` over edges summing to ``distance``."""
    if path is None or len(path) == 0 or path[0] != src or path[-1] != dst:
        return False
    hops = np.asarray(path)
    weight = float(adj[hops[:-1], hops[1:]].sum())
    return bool(np.isclose(weight, distance, rtol=RTOL, atol=0.0))


def check_coverage(tracer: Tracer, op: str, before: dict, after: dict,
                   result, request: SolveRequest) -> list[str]:
    """Wrapper-coverage self-check of one traced solve; returns the problems.

    Blocked collect/broadcast on the triangular layout runs exactly
    ``q (q (q + 1) / 2 - 1)`` block products and ``q`` diagonal closures.
    Traced shuffle bytes must equal the engine's shuffle-byte counter, and
    traced shared-fs file bytes must equal its payload counters plus the
    same per-file overhead for every read and write.
    """
    problems: list[str] = []
    spans = [s for s in tracer.spans if s[4] == op]

    def traced(layer: str) -> list[tuple]:
        return [s for s in spans if s[0] == layer]

    if request.solver == "blocked-cb" and result.layout == "triangular":
        q = result.q
        expected = q * (q * (q + 1) // 2 - 1)
        for layer, want in (("linalg.product", expected), ("linalg.fw", q)):
            got = len(traced(layer))
            if got != want:
                problems.append(f"coverage: {got} traced {layer} calls, "
                                f"expected {want} at q={q}")
    shuffle = sum(s[5]["bytes"] for s in traced("spark.shuffle_write"))
    want = _metrics_delta(before, after, "shuffle_bytes")
    if shuffle != want:
        problems.append(f"coverage: traced shuffle bytes {shuffle} != "
                        f"engine shuffle_bytes delta {want}")
    writes = traced("spark.sharedfs_write")
    reads = traced("spark.sharedfs_read")
    if len(writes) != _metrics_delta(before, after, "sharedfs_files_written"):
        problems.append(f"coverage: {len(writes)} traced shared-fs writes != "
                        f"engine files-written delta")
    overheads = set()
    for ops, key in ((writes, "sharedfs_bytes_written"),
                     (reads, "sharedfs_bytes_read")):
        file_bytes = sum(s[5]["bytes"] for s in ops)
        payload = _metrics_delta(before, after, key)
        if not ops:
            if payload:
                problems.append(f"coverage: engine {key} moved by {payload} "
                                f"with no traced call")
            continue
        extra, remainder = divmod(file_bytes - payload, len(ops))
        if remainder or not 0 <= extra <= 4096:
            problems.append(f"coverage: traced shared-fs bytes {file_bytes} "
                            f"do not reconcile with engine {key} {payload}")
        overheads.add(extra)
    if len(overheads) > 1:
        problems.append(f"coverage: shared-fs reads and writes disagree on "
                        f"per-file overhead {sorted(overheads)}")
    return problems


def layer_metrics(tracer: Tracer, ops: list[str], overhead: float,
                  collect_bytes: int) -> tuple[dict, str]:
    """Per-layer metrics of the traced operations, per operation.

    ``collect_bytes`` is the engine's collect-byte counter delta over them.
    Also returns the work layer with the most self time on pool threads.
    """
    wanted = set(ops)
    spans = [s for s in tracer.spans if s[4] in wanted and s[0] != "op"]
    summary = analyse(spans, tracer.driver_thread)
    layers = summary["layers"]
    per_op = 1.0 / max(1, len(ops))

    def layer(name: str) -> dict:
        return layers.get(name, {"calls": 0, "self_s": 0.0, "wall_s": 0.0,
                                 "worker_self_s": 0.0, "gop": 0.0, "bytes": 0})

    product = layer("linalg.product")
    stage = layer("spark.stage")
    metrics = {
        "linalg.product_s": (product["self_s"] * per_op, "s/op"),
        "linalg.product_calls": (product["calls"] * per_op, "1/op"),
        "linalg.product_gops": (product["gop"] / product["wall_s"]
                                if product["wall_s"] else 0.0, "Gop/s"),
        "linalg.product_bytes": (product["bytes"] * per_op, "B/op"),
        "linalg.fw_s": (layer("linalg.fw")["self_s"] * per_op, "s/op"),
        "linalg.combine_s": (layer("linalg.combine")["self_s"] * per_op, "s/op"),
        "linalg.rank1_s": (layer("linalg.rank1")["self_s"] * per_op, "s/op"),
        "witness.product_s": (layer("witness.product")["self_s"] * per_op,
                              "s/op"),
        "witness.gather_s": (layer("witness.gather")["self_s"] * per_op,
                             "s/op"),
        "witness.parent_row_s": (layer("witness.parent_row")["self_s"] * per_op,
                                 "s/op"),
        "witness.parent_row_calls": (layer("witness.parent_row")["calls"]
                                     * per_op, "1/op"),
        "spark.shuffle_write_s": (layer("spark.shuffle_write")["self_s"]
                                  * per_op, "s/op"),
        "spark.shuffle_read_s": (layer("spark.shuffle_read")["self_s"] * per_op,
                                 "s/op"),
        "spark.shuffle_bytes": (layer("spark.shuffle_write")["bytes"] * per_op,
                                "B/op"),
        "spark.sharedfs_read_s": (layer("spark.sharedfs_read")["self_s"]
                                  * per_op, "s/op"),
        "spark.sharedfs_write_s": (layer("spark.sharedfs_write")["self_s"]
                                   * per_op, "s/op"),
        "spark.sharedfs_bytes": ((layer("spark.sharedfs_read")["bytes"]
                                  + layer("spark.sharedfs_write")["bytes"])
                                 * per_op, "B/op"),
        "spark.collect_bytes": (collect_bytes * per_op, "B/op"),
        "spark.stages": (stage["calls"] * per_op, "1/op"),
        "spark.tasks": (summary["tasks"] * per_op, "1/op"),
        "spark.stage_s": (stage["wall_s"] * per_op, "s/op"),
        "spark.task_glue_s": (layer("spark.task")["self_s"] * per_op, "s/op"),
        "spark.idle_s": (summary["idle_s"] * per_op, "s/op"),
        "dynamic.incremental_s": (layer("dynamic.incremental")["self_s"]
                                  * per_op, "s/op"),
        "trace.overhead_frac": (overhead, "frac"),
        # Serving counters; the serving workload overwrites them.
        "serve.cache_hit_rate": (0.0, "frac"),
        "serve.invalidations": (0.0, "1/op"),
        "dynamic.changed_rows": (0.0, "1/op"),
        "dynamic.resolves": (0.0, "1/op"),
    }
    worker = {name: layers[name]["worker_self_s"] for name in WORK_LAYERS
              if name in layers}
    largest = max(worker, key=worker.get) if worker else "none"
    return metrics, largest


# --------------------------------------------------------------------------- serving
@dataclass(frozen=True)
class ServeWorkload:
    """One closed-loop client mixing route queries and single-edge updates."""

    name: str
    n: int
    request: SolveRequest
    #: Engine start-ups per run; ``setup_s`` is their median.
    setups: int
    max_rows: int
    zipf_s: float
    zipf_q: float
    routes_per_update: int
    worsen_every: int

    def run(self, seed: int, seconds: float, nproc: int, staging_dir: str,
            tracer: Tracer | None) -> Run:
        """Open the service, drive the request mix for ``seconds``, gate, report."""
        run = Run()
        adj = er_graph(self.n, seed)
        reference = csgraph_floyd_warshall(adj, directed=True)
        config = engine_config(nproc, staging_dir)

        def open_service(engine):
            return engine.serve(adj, self.request, max_rows=self.max_rows)

        def gate(service) -> None:
            run.check(np.allclose(service.distances, reference, rtol=RTOL),
                      f"{self.name}: served closure differs from csgraph")

        setup_walls, engine, service = _setups(
            config, open_service, self.setups, gate)
        stream = ServeStream(adj, seed, zipf_s=self.zipf_s, zipf_q=self.zipf_q,
                             routes_per_update=self.routes_per_update,
                             worsen_every=self.worsen_every)
        # Untraced samples give the end-to-end numbers; with tracing on, the
        # traced windows' samples only measure the tracing overhead.
        routes: list[float] = []
        updates: list[float] = []
        traced_routes: list[float] = []
        traced_updates: list[float] = []
        traced_ops: list[str] = []
        window = TRACE_WINDOW_CYCLES * (self.routes_per_update + 1)
        tracing = False
        collected = 0
        t1: list[float] = []
        rss_mb = None
        modes = {"incremental": 0, "resolve": 0}
        changed_rows = 0
        before = service.stats()
        requests = 0
        update_count = 0

        def stop_tracing() -> None:
            nonlocal tracing, collected
            tracer.uninstall()
            collected += _metrics_delta(window_start, engine.metrics,
                                        "collect_bytes")
            tracing = False

        try:
            deadline = time.perf_counter() + seconds
            hard_stop = time.perf_counter() + MAX_MEASURE_SECONDS
            while ((update_count < MIN_UPDATES
                    or time.perf_counter() < deadline)
                   and time.perf_counter() < hard_stop):
                trace_this = (tracer is not None
                              and (requests // window) % 2 == 1)
                if trace_this and not tracing:
                    window_start = engine.metrics
                    tracer.install()
                    tracing = True
                elif tracing and not trace_this:
                    stop_tracing()
                item = next(stream)
                if tracing:
                    traced_ops.append(f"req-{requests}")
                    span = tracer.op_span(traced_ops[-1])
                else:
                    span = contextlib.nullcontext()
                requests += 1
                with span:
                    if item[0] == "route":
                        seconds_taken, out = timed(service.route, *item[1:])
                    else:
                        seconds_taken, out = timed(engine.update, [item[1:4]])
                if item[0] == "route":
                    _, src, dst = item
                    (traced_routes if tracing else routes).append(seconds_taken)
                    run.check(_folds_to(out.path, stream.adjacency, src, dst,
                                        out.distance),
                              f"route {src}->{dst} does not fold to "
                              f"{out.distance}")
                else:
                    _, u, v, weight, worsens = item
                    report = out
                    (traced_updates if tracing else updates).append(seconds_taken)
                    update_count += 1
                    if update_count == MIN_UPDATES:
                        rss_mb = peak_rss_mb()
                    modes[report.mode] = modes.get(report.mode, 0) + 1
                    changed_rows += report.changed_rows
                    kind = report.worsenings if worsens else report.improvements
                    run.check(kind == 1, f"update ({u}, {v}) misclassified")
                    if update_count % T1_EVERY_UPDATES == 0:
                        t1.append(timed(csgraph_floyd_warshall,
                                        stream.adjacency, directed=True)[0])
        finally:
            try:
                if tracing:
                    stop_tracing()
                after = service.stats()
                final = engine.closure.distances.copy()
            finally:
                engine.stop()
        t1_seconds, final_reference = timed(csgraph_floyd_warshall,
                                            stream.adjacency, directed=True)
        t1.append(t1_seconds)
        run.check(np.allclose(final, final_reference, rtol=RTOL),
                  f"{self.name}: maintained closure differs from csgraph on "
                  f"the mutated graph")
        lookups = ((after["cache_hits"] + after["cache_misses"])
                   - (before["cache_hits"] + before["cache_misses"]))
        hit_rate = (after["cache_hits"] - before["cache_hits"]) / max(1, lookups)
        invalidations = (after["cache_invalidations"]
                         - before["cache_invalidations"])
        route_p50 = statistics.median(routes)
        update_p50 = statistics.median(updates)
        t1_s = statistics.median(t1)
        run.details = {
            "requests": requests, "routes": len(routes), "updates": len(updates),
            "worsenings": update_count // self.worsen_every,
            "route_p50_us": route_p50 * 1e6,
            "route_p99_us": percentile(routes, 99) * 1e6,
            "update_p50_ms": update_p50 * 1e3,
            "update_p90_ms": percentile(updates, 90) * 1e3,
            "cache_hit_rate": hit_rate, "modes": modes, "t1_s": t1_s,
            "t1_ratio": update_p50 / t1_s,
        }
        if tracer is None:
            run.end_to_end = {
                "op_p50_ms": (route_p50 * 1e3, "ms"),
                "write_p50_ms": (update_p50 * 1e3, "ms"),
                "setup_s": (statistics.median(setup_walls), "s"),
                "peak_rss_mb": (rss_mb, "MB"),
            }
        else:
            overhead = statistics.median(traced_routes) / route_p50 - 1.0
            run.details.update(
                traced_routes=len(traced_routes),
                traced_updates=len(traced_updates),
                traced_route_p50_us=statistics.median(traced_routes) * 1e6,
                traced_update_p50_ms=statistics.median(traced_updates) * 1e3)
            run.per_layer, run.details["largest_worker_layer"] = (
                layer_metrics(tracer, traced_ops, overhead, collected))
        per_request = 1.0 / max(1, requests)
        run.per_layer.update({
            "serve.cache_hit_rate": (hit_rate, "frac"),
            "serve.invalidations": (invalidations * per_request, "1/op"),
            "dynamic.changed_rows": (changed_rows * per_request, "1/op"),
            "dynamic.resolves": (modes["resolve"] * per_request, "1/op"),
        })
        return run


WORKLOADS = {
    "cb-dense": SolveWorkload(
        "cb-dense", 1024, SolveRequest(solver="blocked-cb", block_size=256),
        setups=5),
    "im-paths": SolveWorkload(
        "im-paths", 512,
        SolveRequest(solver="blocked-im", block_size=64, paths=True),
        setups=7),
    "serve-mix": ServeWorkload(
        "serve-mix", 512, SolveRequest(solver="blocked-cb", block_size=128),
        setups=11, max_rows=128, zipf_s=2.5, zipf_q=10.0, routes_per_update=60,
        worsen_every=10),
}
