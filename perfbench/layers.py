"""Per-layer spans for the traced run, recorded from outside the engine.

The traced run wraps the public entry point of each layer — patched
where its caller looks the name up, e.g. ``parse_statement`` in
``repro.core.pipeline`` because ``compile_statement`` imported it by
name — and records one span per call.  A span's *self time* is its
duration minus the time its child spans cover; per layer, self time,
inclusive time and calls are summed in memory (one table per thread, so
recording takes no lock) and written out when the run ends.

Every process that holds the database records: the benchmark process
for the in-process workloads; for ``oltp`` the load process
(``WireClient.execute``), the server, and each forked snapshot worker,
which writes its table to a file as it exits.  Nothing here changes
what the engine computes; untraced runs install none of it.
"""

from __future__ import annotations

import functools
import importlib.machinery
import json
import os
import sys
import threading
from time import perf_counter_ns
from typing import Dict, List

#: Spans that open no operation: their subtree is background work
#: (the snapshot refresher re-forking pools) and is kept out of every
#: per-operation self time.
BACKGROUND_ROOTS = frozenset({"serve.snapshot_refresh"})

#: Root spans of one end-to-end operation: ``op`` around an in-process
#: ``Database.execute``, ``serve.client`` around ``WireClient.execute``.
#: ``serve.session`` is the server's view of the same operation.
OP_ROOTS = ("op", "serve.client")


class Recorder:
    """Per-layer ``[self_ns, total_ns, calls]`` plus named counters."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._tables: List[dict] = []
        #: True inside a forked snapshot worker (set by its entry hook).
        self.in_worker = False

    def after_fork(self) -> None:
        """Start empty in a forked child: the inherited tables hold the
        parent's spans and the inherited stack the forking thread's."""
        self._lock = threading.Lock()
        self._local = threading.local()
        self._tables = []

    def _state(self):
        local = self._local
        table = getattr(local, "table", None)
        if table is None:
            table = local.table = {}
            local.stack = []
            with self._lock:
                self._tables.append(table)
        return table, local.stack

    def begin(self, name: str, count: bool = True) -> list:
        _table, stack = self._state()
        background = stack[-1][3] if stack else name in BACKGROUND_ROOTS
        frame = [name, perf_counter_ns(), 0, background, count]
        stack.append(frame)
        return frame

    def end(self, frame: list) -> None:
        duration = perf_counter_ns() - frame[1]
        table, stack = self._state()
        stack.pop()
        if stack:
            stack[-1][2] += duration
        key = ("bg:" if frame[3] else "") + frame[0]
        entry = table.get(key)
        if entry is None:
            entry = table[key] = [0, 0, 0]
        entry[0] += duration - frame[2]
        entry[1] += duration
        if frame[4]:
            entry[2] += 1

    def add(self, name: str, value) -> None:
        table, _stack = self._state()
        key = "n:" + name
        table[key] = table.get(key, 0) + value

    def reset(self) -> None:
        with self._lock:
            for table in self._tables:
                table.clear()

    def export(self) -> dict:
        """``{"layers": {name: [self, total, calls]}, "counters": {}}``
        merged over every thread."""
        layers: Dict[str, List[int]] = {}
        counters: Dict[str, float] = {}
        with self._lock:
            tables = [dict(table) for table in self._tables]
        for table in tables:
            for key, value in table.items():
                if key.startswith("n:"):
                    counters[key[2:]] = counters.get(key[2:], 0) + value
                else:
                    entry = layers.setdefault(key, [0, 0, 0])
                    for index in range(3):
                        entry[index] += value[index]
        return {"layers": layers, "counters": counters}


def merge(exports) -> dict:
    """Sum several :meth:`Recorder.export` results (or server reports)."""
    layers: Dict[str, List[int]] = {}
    counters: Dict[str, float] = {}
    for export in exports:
        for name, value in export.get("layers", {}).items():
            entry = layers.setdefault(name, [0, 0, 0])
            for index in range(3):
                entry[index] += value[index]
        for name, value in export.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
    return {"layers": layers, "counters": counters}


# -- patching -----------------------------------------------------------------


def _timed(rec: Recorder, owner, attr: str, layer: str, after=None) -> None:
    """Record a span around every call; ``after(args, result)`` may add
    counters from the result."""
    original = getattr(owner, attr)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        frame = rec.begin(layer)
        try:
            result = original(*args, **kwargs)
        finally:
            rec.end(frame)
        if after is not None:
            after(args, result)
        return result

    setattr(owner, attr, traced)


class _EntryTimer:
    """Times only the ``__enter__`` of a context manager: the wait to
    get in, not the work done inside."""

    __slots__ = ("rec", "layer", "manager")

    def __init__(self, rec: Recorder, layer: str, manager):
        self.rec = rec
        self.layer = layer
        self.manager = manager

    def __enter__(self):
        frame = self.rec.begin(self.layer)
        try:
            return self.manager.__enter__()
        finally:
            self.rec.end(frame)

    def __exit__(self, *exc_info):
        return self.manager.__exit__(*exc_info)


def _timed_entry(rec: Recorder, owner, attr: str, layer: str) -> None:
    original = getattr(owner, attr)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        return _EntryTimer(rec, layer, original(*args, **kwargs))

    setattr(owner, attr, traced)


def _timed_iteration(rec: Recorder, owner, attr: str, layer: str) -> None:
    """Time the call *and* every step of the iterator it returns — the
    work of a lazy plan happens while its rows are pulled."""
    original = getattr(owner, attr)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        frame = rec.begin(layer)
        try:
            iterator = iter(original(*args, **kwargs))
        finally:
            rec.end(frame)
        while True:
            frame = rec.begin(layer, count=False)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                rec.end(frame)
            yield item

    setattr(owner, attr, traced)


def db_counters(db) -> Dict[str, int]:
    """Raw engine counters of one database image (delta them)."""
    cache = db.plan_cache.stats()
    pool = db.engine.pool.stats
    return {
        "plancache.hits": cache["hits"],
        "plancache.misses": cache["misses"],
        "plancache.evictions": cache["evictions"],
        "storage.buffer_hits": pool.hits,
        "storage.buffer_misses": pool.misses,
        "storage.buffer_evictions": pool.evictions,
        "storage.disk_reads": db.engine.disk.stats.reads,
        "storage.wal_records": len(db.engine.log),
    }


def delta(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    return {name: after[name] - before.get(name, 0) for name in after}


class _ImportHook:
    """Applies pending patches to a module right after its first import.

    Installing the traced run must import nothing the untraced run would
    not: a module the server never imported is imported again by every
    snapshot worker it forks (``Database.reinit_locks_after_fork``
    imports the codegen module), and importing it up front once doubled
    the traced server's throughput."""

    def __init__(self):
        self.pending: Dict[str, list] = {}

    def find_spec(self, name, path, target=None):
        patches = self.pending.pop(name, None)
        if patches is None:
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is None:
            return None
        run_module = spec.loader.exec_module

        def exec_module(module):
            run_module(module)
            for patch in patches:
                patch(module)

        spec.loader.exec_module = exec_module
        return spec


#: One import hook per process (the import system is process-wide).
_HOOK = _ImportHook()


def _patch(rec: Recorder, module_name: str, target: str, layer: str,
           wrap=_timed, **options) -> None:
    """Wrap ``target`` ("function" or "Class.method") of ``module_name``
    now if the module is loaded, else as soon as it is imported."""
    owner_path, _dot, attr = target.rpartition(".")

    def apply(module):
        owner = getattr(module, owner_path) if owner_path else module
        wrap(rec, owner, attr, layer, **options)

    module = sys.modules.get(module_name)
    if module is not None:
        apply(module)
        return
    if _HOOK not in sys.meta_path:
        sys.meta_path.insert(0, _HOOK)
    _HOOK.pending.setdefault(module_name, []).append(apply)


def install_engine(rec: Recorder) -> None:
    """Wrap the compile, execute, storage and access entry points."""
    database, pipeline = "repro.core.database", "repro.core.pipeline"
    _patch(rec, database, "fingerprint_statement", "plancache.fingerprint")
    _patch(rec, "repro.core.plancache", "PlanCache.lookup",
           "plancache.lookup")
    _patch(rec, database, "compile_statement", "core.compile")
    _patch(rec, database, "parse_statement", "language.parse")
    _patch(rec, pipeline, "parse_statement", "language.parse")
    _patch(rec, pipeline, "translate", "language.translate")
    _patch(rec, pipeline, "validate_qgm", "qgm.validate")

    def rewrite_fired(_args, report):
        rec.add("rewrite.rules_fired", report.fired)

    _patch(rec, "repro.rewrite.engine", "RewriteEngine.run", "rewrite.run",
           after=rewrite_fired)

    def optimizer_plans(args, _plan):
        for stats in args[0].enumerator_stats:
            rec.add("optimizer.plans_generated", stats.plans_generated)
            rec.add("optimizer.plans_kept", stats.plans_kept)

    _patch(rec, "repro.optimizer.boxopt", "Optimizer.optimize",
           "optimizer.optimize", after=optimizer_plans)
    # Plan refinement: the compile pipeline imports these at call time,
    # so the module attribute is the name it looks up.
    _patch(rec, "repro.executor.compiled", "refine_plan", "executor.refine")
    _patch(rec, "repro.executor.codegen", "select_backends",
           "executor.refine")
    _patch(rec, "repro.executor.vectorized", "select_backends",
           "executor.refine")
    _patch(rec, "repro.optimizer.stars", "parallelize_plan",
           "executor.refine")
    _patch(rec, "repro.executor.codegen", "generate_programs",
           "executor.codegen")

    def execution_stats(_args, result):
        stats = result.stats
        rec.add("executor.rows_scanned", stats.rows_scanned)
        rec.add("executor.rows_returned", result.rowcount)
        rec.add("executor.fallbacks", stats.fallbacks)
        rec.add("executor.batches", stats.batches)
        rec.add("executor.codegen_pipelines", stats.codegen_pipelines)

    _patch(rec, database, "Database.run_compiled", "core.run_compiled",
           after=execution_stats)
    _patch(rec, database, "execute_plan", "executor.execute",
           wrap=_timed_iteration)
    storage = "repro.storage.engine"
    for method in ("insert", "update", "delete"):
        _patch(rec, storage, "StorageEngine." + method, "storage.write")
    for method in ("begin", "commit", "abort"):
        _patch(rec, storage, "StorageEngine." + method, "storage.txn")
    _patch(rec, "repro.access.btree", "BTreeIndex.probe",
           "access.index_probe")
    _patch(rec, "repro.access.hashindex", "HashIndex.probe",
           "access.index_probe")


def install_server(rec: Recorder, spans_dir: str) -> None:
    """Wrap the serving layer and hook snapshot workers so each writes
    its spans to ``spans_dir`` when it exits.  Call before the
    :class:`~repro.serve.server.Server` forks its first pool."""
    server, snapshot = "repro.serve.server", "repro.serve.snapshot"
    _patch(rec, "repro.serve.session", "Session.execute", "serve.session")
    _patch(rec, "repro.serve.admission", "AdmissionController.acquire",
           "serve.admission_wait")
    _patch(rec, server, "parse_statement", "language.parse")
    _patch(rec, server, "ReadGate.shared", "serve.read_gate_wait",
           wrap=_timed_entry)
    _patch(rec, server, "ReadGate.exclusive", "serve.read_gate_wait",
           wrap=_timed_entry)
    _patch(rec, server, "WriteGate.held", "serve.write_gate_wait",
           wrap=_timed_entry)
    _patch(rec, snapshot, "SnapshotPool.execute", "serve.snapshot_roundtrip")
    _patch(rec, snapshot, "SnapshotManager.refresh",
           "serve.snapshot_refresh")
    # Picking the current pool waits on the manager lock, which a
    # refresh holds for its whole fork.
    _patch(rec, snapshot, "SnapshotManager.current_pool",
           "serve.snapshot_pick")
    _patch(rec, "repro.core.database", "Database.execute",
           "serve.snapshot_worker", wrap=_worker_only)
    _patch(rec, snapshot, "_snapshot_worker_main", spans_dir,
           wrap=_worker_entry)


def _worker_only(rec: Recorder, owner, attr: str, layer: str) -> None:
    """Only the snapshot worker's ``Database.execute`` is a layer of its
    own; in the server the same method runs writes and live reads inside
    spans that already account for them."""
    plain = getattr(owner, attr)

    @functools.wraps(plain)
    def traced(*args, **kwargs):
        if not rec.in_worker:
            return plain(*args, **kwargs)
        frame = rec.begin(layer)
        try:
            return plain(*args, **kwargs)
        finally:
            rec.end(frame)

    setattr(owner, attr, traced)


def _worker_entry(rec: Recorder, owner, attr: str, spans_dir: str) -> None:
    """Make each forked snapshot worker start an empty recording and
    write it, with its engine counter deltas, to ``spans_dir`` on exit."""
    worker_main = getattr(owner, attr)

    @functools.wraps(worker_main)
    def traced_worker_main(conn):
        db = owner._FORK_DB
        rec.after_fork()
        rec.in_worker = True
        before = db_counters(db)
        try:
            worker_main(conn)
        finally:
            report = rec.export()
            report["counters"].update(delta(db_counters(db), before))
            path = os.path.join(spans_dir, "worker-%d.json" % os.getpid())
            with open(path, "w") as handle:
                json.dump(report, handle)

    setattr(owner, attr, traced_worker_main)


def install_client(rec: Recorder) -> None:
    _patch(rec, "repro.serve.client", "WireClient.execute", "serve.client")


# -- per-layer metrics --------------------------------------------------------

#: ``name -> unit`` of every per-layer metric, in report order.  Layers
#: a workload does not reach report 0.
PER_LAYER = {}
for _layer in ("serve.wire", "serve.admission_wait", "serve.read_gate_wait",
               "serve.write_gate_wait", "serve.snapshot_pick",
               "serve.snapshot_roundtrip", "serve.snapshot_worker"):
    PER_LAYER[_layer + "_ms"] = "ms/op"
    PER_LAYER[_layer + "_calls"] = "calls/op"
PER_LAYER.update({
    "serve.snapshot_ipc_ms": "ms/op",
    "serve.snapshot_refresh_ms": "ms/op",
    "serve.snapshot_refreshes": "count/op",
    "serve.snapshot_read_ratio": "ratio",
    "serve.shed": "count/op",
})
for _layer in ("core.compile", "core.run_compiled", "plancache.fingerprint",
               "plancache.lookup"):
    PER_LAYER[_layer + "_ms"] = "ms/op"
    PER_LAYER[_layer + "_calls"] = "calls/op"
PER_LAYER.update({"plancache.hit_ratio": "ratio",
                  "plancache.evictions": "count/op"})
for _layer in ("language.parse", "language.translate", "qgm.validate",
               "rewrite.run", "optimizer.optimize", "executor.refine",
               "executor.codegen", "executor.execute"):
    PER_LAYER[_layer + "_ms"] = "ms/op"
    PER_LAYER[_layer + "_calls"] = "calls/op"
PER_LAYER.update({
    "rewrite.rules_fired": "count/op",
    "optimizer.plans_generated": "count/op",
    "optimizer.plans_kept": "count/op",
    "executor.rows_scanned_per_row": "ratio",
    "executor.tuple_fallbacks": "count/op",
    "executor.batches": "count/op",
    "executor.codegen_pipelines": "count/op",
    "storage.buffer_hit_ratio": "ratio",
    "storage.buffer_evictions": "count/op",
    "storage.disk_reads_per_op": "count/op",
    "storage.write_ms": "ms/op",
    "storage.write_calls": "calls/op",
    "storage.txn_ms": "ms/op",
    "storage.txn_calls": "calls/op",
    "storage.wal_records_per_write": "count/write",
    "access.index_probe_ms": "ms/op",
    "access.index_probes_per_op": "calls/op",
    "unattributed_ms": "ms/op",
    "tracing_overhead": "ratio",
    "trace.records_lost": "count",
})

#: Self-time layers that partition an operation's time (the roots, the
#: session and the snapshot round trip are accounted for separately).
_PARTITION = ("serve.admission_wait", "serve.read_gate_wait",
              "serve.write_gate_wait", "serve.snapshot_pick",
              "serve.snapshot_worker",
              "core.compile", "core.run_compiled", "plancache.fingerprint",
              "plancache.lookup", "language.parse", "language.translate",
              "qgm.validate", "rewrite.run", "optimizer.optimize",
              "executor.refine", "executor.codegen", "executor.execute",
              "storage.write", "storage.txn", "access.index_probe")


def layer_metrics(merged: dict, overhead: float, records_lost: int) -> dict:
    """Per-layer metrics (``PER_LAYER`` order) from merged recordings.

    Times are self time per end-to-end operation, except
    ``serve.snapshot_roundtrip_ms`` and ``serve.snapshot_worker_ms``,
    which are inclusive so that ``serve.snapshot_ipc_ms`` is their
    difference, and ``serve.wire_ms``: client-observed time minus the
    server's ``Session.execute``.
    """
    layers = merged["layers"]
    counters = merged["counters"]

    def field(name, index):
        return layers.get(name, (0, 0, 0))[index]

    root = next((name for name in OP_ROOTS if name in layers), None)
    ops = field(root, 2) if root else 0
    if ops == 0:
        raise ValueError("the traced run recorded no operation")
    per_op = 1e6 * ops  # ns -> ms per op

    def count(name):
        return counters.get(name, 0)

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    wire_ns = field("serve.client", 1) - field("serve.session", 1)
    ipc_ns = field("serve.snapshot_roundtrip", 1) \
        - field("serve.snapshot_worker", 1)
    attributed = wire_ns + ipc_ns + sum(field(name, 0)
                                        for name in _PARTITION)
    out = {}
    for name in PER_LAYER:
        if name.endswith("_calls"):
            out[name] = field(name[:-len("_calls")], 2) / ops
        elif name.endswith("_ms"):
            out[name] = field(name[:-len("_ms")], 0) / per_op
    out.update({
        "serve.wire_ms": wire_ns / per_op,
        "serve.wire_calls": field("serve.client", 2) / ops,
        "serve.snapshot_roundtrip_ms":
            field("serve.snapshot_roundtrip", 1) / per_op,
        "serve.snapshot_worker_ms":
            field("serve.snapshot_worker", 1) / per_op,
        "serve.snapshot_ipc_ms": ipc_ns / per_op,
        "serve.snapshot_refresh_ms":
            field("bg:serve.snapshot_refresh", 1) / per_op,
        "serve.snapshot_refreshes":
            field("bg:serve.snapshot_refresh", 2) / ops,
        "serve.snapshot_read_ratio": ratio(
            count("serve.snapshot_reads"),
            count("serve.snapshot_reads") + count("serve.live_reads")),
        "serve.shed": count("serve.shed") / ops,
        "plancache.hit_ratio": ratio(
            count("plancache.hits"),
            count("plancache.hits") + count("plancache.misses")),
        "plancache.evictions": count("plancache.evictions") / ops,
        "rewrite.rules_fired": count("rewrite.rules_fired") / ops,
        "optimizer.plans_generated":
            count("optimizer.plans_generated") / ops,
        "optimizer.plans_kept": count("optimizer.plans_kept") / ops,
        "executor.rows_scanned_per_row": ratio(
            count("executor.rows_scanned"),
            count("executor.rows_returned")),
        "executor.tuple_fallbacks": count("executor.fallbacks") / ops,
        "executor.batches": count("executor.batches") / ops,
        "executor.codegen_pipelines":
            count("executor.codegen_pipelines") / ops,
        "storage.buffer_hit_ratio": ratio(
            count("storage.buffer_hits"),
            count("storage.buffer_hits") + count("storage.buffer_misses")),
        "storage.buffer_evictions": count("storage.buffer_evictions") / ops,
        "storage.disk_reads_per_op": count("storage.disk_reads") / ops,
        "storage.wal_records_per_write": ratio(
            count("storage.wal_records"), count("storage.write_statements")),
        "access.index_probes_per_op": field("access.index_probe", 2) / ops,
        "unattributed_ms": (field(root, 1) - attributed) / per_op,
        "tracing_overhead": overhead,
        "trace.records_lost": records_lost,
    })
    return out
