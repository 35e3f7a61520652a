"""E8 — §7 evaluate-on-demand subqueries.

"We replace the mechanisms of 'evaluate-at-open' and
'evaluate-at-application' ... by a single uniform mechanism called
'evaluate-on-demand' ... We also include logic to avoid re-evaluating the
subquery when the correlation values have not changed."

Measured: actual subquery evaluations and wall-clock with the correlation
cache on vs off, on a correlated query whose correlation values repeat
(500 outer rows, 2 distinct correlation values).  A second leg runs a
correlated EXISTS whose correlation values never repeat, per row and
set-wise (decorrelated into a hash semijoin).
"""

import time

from benchmarks.conftest import print_table
from repro import CompileOptions
from repro.executor.context import ExecutionContext
from repro.executor.run import execute_plan

SQL = ("SELECT partno FROM inventory i WHERE onhand_qty > "
       "(SELECT avg(onhand_qty) FROM inventory i2 WHERE i2.type = i.type)")


def run(db, compiled, cache):
    ctx = ExecutionContext(db.engine, db.functions)
    ctx.cache_subqueries = cache
    rows = list(execute_plan(compiled.plan, ctx))
    return rows, ctx.stats


def test_e8_cached(parts_db, benchmark):
    compiled = parts_db.compile(SQL)
    _rows, stats = benchmark(run, parts_db, compiled, True)
    assert stats.subquery_evaluations == 2  # one per distinct type
    assert stats.subquery_cache_hits == 500 - 2


def test_e8_uncached(parts_db, benchmark):
    compiled = parts_db.compile(SQL)
    _rows, stats = benchmark(run, parts_db, compiled, False)
    assert stats.subquery_evaluations == 500  # one per outer row


def test_e8_summary(parts_db, benchmark):
    compiled = parts_db.compile(SQL)
    rows_cached, cached = benchmark(run, parts_db, compiled, True)
    rows_plain, plain = run(parts_db, compiled, False)
    assert sorted(rows_cached) == sorted(rows_plain)
    print_table(
        "E8: evaluate-on-demand with correlation caching "
        "(500 outer rows, 2 distinct correlation values)",
        ["variant", "subquery evals", "cache hits"],
        [("cache on", cached.subquery_evaluations,
          cached.subquery_cache_hits),
         ("cache off", plain.subquery_evaluations,
          plain.subquery_cache_hits)])
    assert cached.subquery_evaluations * 100 <= plain.subquery_evaluations


#: Unique correlation values (the outer partno is the primary key), so
#: the correlation cache cannot help the per-row strategy.
SET_WISE_SQL = ("SELECT partno, onhand_qty FROM inventory i "
                "WHERE i.partno < 100 AND EXISTS (SELECT 1 FROM quotations q "
                "WHERE q.partno = i.partno AND q.order_qty > 10)")


def _best_of(db, compiled, repeats=3):
    best = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = db.run_compiled(compiled)
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def test_e8_set_wise(parts_db, benchmark):
    """The same correlated EXISTS per row (SUBQJOIN: one evaluation per
    distinct correlation value) and set-wise (HASHJOIN[exists] over the
    decorrelated subquery, evaluated once as the hash build)."""
    per_row = parts_db.compile(SET_WISE_SQL, options=CompileOptions(
        forced_join_method="nl"))
    set_wise = parts_db.compile(SET_WISE_SQL)
    assert "SUBQJOIN[exists]" in per_row.plan.explain()
    assert "HASHJOIN[exists]" in set_wise.plan.explain()
    per_row_s, per_row_result = _best_of(parts_db, per_row)
    set_wise_s, set_wise_result = benchmark(_best_of, parts_db, set_wise)
    assert sorted(set_wise_result.rows) == sorted(per_row_result.rows)
    print_table(
        "E8: correlated EXISTS per row vs set-wise (100 outer rows, "
        "unique correlation values)",
        ["strategy", "plan", "subquery evals", "wall (s)", "rows"],
        [("per row", "SUBQJOIN[exists]",
          per_row_result.stats.subquery_evaluations, "%.4f" % per_row_s,
          len(per_row_result.rows)),
         ("set-wise", "HASHJOIN[exists]",
          set_wise_result.stats.subquery_evaluations, "%.4f" % set_wise_s,
          len(set_wise_result.rows))])
    assert per_row_result.stats.subquery_evaluations == 100
    assert set_wise_result.stats.subquery_evaluations == 0
    assert set_wise_s < per_row_s
