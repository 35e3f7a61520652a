"""E22 — pipeline-fusion codegen vs the batch backend and the tuple
interpreter.

Section 7 refines QEPs into "iterative programs" [FREY86]; the codegen
backend completes that idea by emitting one specialized Python function
per pipeline — fused scan→filter→project→probe chains with pre-resolved
column offsets and inlined predicates, ``compile()``d once and driven by
morsels.  Three microbenchmarks at 100k rows measure the win over the
column-at-a-time batch backend on the hot paths fusion targets:

- scan → filter → project (no per-operator dispatch, no intermediates),
- hash join (build + probe fused into two tight loops),
- group by (fused accumulation into the hash of accumulators).

Results go to ``benchmarks/latest_results.txt`` (via ``print_table``)
and ``BENCH_codegen.json`` at the repo root.  The speedup assertions
live here — outside tier-1 — so slow CI machines never block functional
work; the dedicated perf-smoke CI job runs this module.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from benchmarks.conftest import bulk_insert, cores as affinity_cores, \
    print_table
from repro import CompileOptions, Database

ROWS = 100_000
DIM_ROWS = 1_000
REPEATS = 3

_JSON_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                          "BENCH_codegen.json")

SCAN_SQL = ("SELECT a, b * 2 + 1, x FROM events "
            "WHERE b < 70 AND a % 3 <> 0")
JOIN_SQL = ("SELECT e.a, e.x, g.label FROM events e, groups g "
            "WHERE e.g = g.k AND g.k < 900")
GROUP_SQL = ("SELECT b, COUNT(*), SUM(x) FROM events "
             "WHERE a % 3 <> 0 GROUP BY b")


@pytest.fixture(scope="module")
def cg_db() -> Database:
    """100k-row fact table, same shape as E17 so the two experiments
    stay comparable."""
    db = Database(pool_capacity=4096)
    db.execute("CREATE TABLE events (a INTEGER, b INTEGER, g INTEGER, "
               "x DOUBLE, tag VARCHAR(8))")
    db.execute("CREATE TABLE groups (k INTEGER, label VARCHAR(12))")
    bulk_insert(db, "events",
                [(i, i % 100, i % DIM_ROWS, float(i % 997) * 0.5,
                  "t%d" % (i % 50)) for i in range(ROWS)])
    bulk_insert(db, "groups",
                [(k, "grp_%d" % k) for k in range(DIM_ROWS)])
    db.analyze()
    return db


def _time_interleaved(db: Database, sql: str, legs):
    """Min-of-N wall time of the execution phase (compiles are shared)
    for each leg's options.  The legs take turns within every repeat, so
    a change in host speed during the measurement reaches all of them
    rather than deciding their ratio."""
    compiled = [db.compile(sql, options=options) for options in legs]
    best = [None] * len(legs)
    results = [None] * len(legs)
    for _ in range(REPEATS):
        for leg, statement in enumerate(compiled):
            started = time.perf_counter()
            results[leg] = db.run_compiled(statement)
            elapsed = time.perf_counter() - started
            if best[leg] is None or elapsed < best[leg]:
                best[leg] = elapsed
    return [(seconds, result.rows, result.stats)
            for seconds, result in zip(best, results)]


def _measure(db: Database, sql: str, force_join=None):
    # The tuple column is the stream interpreter, pinned explicitly:
    # the default execution mode would pick a faster backend here.
    base = CompileOptions.from_settings(db.settings).replace(
        execution_mode="tuple")
    if force_join is not None:
        base = base.replace(forced_join_method=force_join)
    (tuple_s, tuple_rows, _), (batch_s, batch_rows, _), \
        (fused_s, fused_rows, stats) = _time_interleaved(db, sql, [
            base, base.replace(execution_mode="batch"),
            base.replace(execution_mode="compiled")])
    # Fused pipelines must be byte-identical to the tuple interpreter.
    assert fused_rows == tuple_rows
    assert sorted(map(repr, batch_rows)) == sorted(map(repr, tuple_rows))
    assert stats.codegen_pipelines > 0
    return {
        "tuple_s": round(tuple_s, 6),
        "batch_s": round(batch_s, 6),
        "compiled_s": round(fused_s, 6),
        "speedup_vs_tuple": round(tuple_s / fused_s, 2),
        "speedup_vs_batch": round(batch_s / fused_s, 2),
        "pipelines": stats.codegen_pipelines,
        "rows_out": len(tuple_rows),
    }


def test_e22_codegen(cg_db, benchmark):
    scan = _measure(cg_db, SCAN_SQL)
    join = _measure(cg_db, JOIN_SQL, force_join="hash")
    group = _measure(cg_db, GROUP_SQL)
    # Record the headline (fused scan-filter-project) with the benchmark
    # fixture too, so --benchmark-only runs keep this module selected and
    # latest_results.txt always includes the E22 table.
    fused_options = CompileOptions.from_settings(cg_db.settings).replace(
        execution_mode="compiled")
    benchmark(cg_db.run_compiled,
              cg_db.compile(SCAN_SQL, options=fused_options))
    report = {
        "rows": ROWS,
        "cores": affinity_cores(),
        "scan_filter_project": scan,
        "hash_join": join,
        "group_by": group,
    }
    with open(_JSON_PATH, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print_table(
        "E22: pipeline-fusion codegen vs batch backend (%d rows)" % ROWS,
        ["workload", "tuple (s)", "batch (s)", "fused (s)", "vs batch",
         "rows out"],
        [(name, "%.4f" % m["tuple_s"], "%.4f" % m["batch_s"],
          "%.4f" % m["compiled_s"], "%.2fx" % m["speedup_vs_batch"],
          m["rows_out"])
         for name, m in [("scan-filter-project", scan),
                         ("hash join", join), ("group by", group)]])
    # ISSUE acceptance: >=1.5x over the batch backend on both the
    # scan-filter-project chain and the hash join.
    # Backend-vs-backend speedups are single-process and hold on any
    # core count, so they stay asserted unconditionally.
    assert scan["speedup_vs_batch"] >= 1.5, scan
    assert join["speedup_vs_batch"] >= 1.5, join
