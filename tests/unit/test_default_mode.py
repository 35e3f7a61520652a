"""The default execution mode: ``auto``, defined once, free for point
statements.

- ``CompileOptions()`` and a fresh database's settings agree on the mode
  (one constant), so they share plan-cache entries,
- the auto pre-check skips backend selection and program generation
  when no plan leaf reads enough rows to leave the tuple backend, and
  the plan it yields is the one full selection would have picked,
- compiling a point statement in a fresh process imports neither the
  batch nor the codegen engine, and neither does a forked snapshot
  worker's lock reinit,
- EXPLAIN ANALYZE under the default settings probes every batch and
  fused region root.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import pytest

import repro
from repro import CompileOptions, Database
from repro.core import pipeline
from repro.core.database import Settings
from repro.core.options import DEFAULT_EXECUTION_MODE

BIG_ROWS = 5000  # above codegen.AUTO_COMPILED_MIN_ROWS


@pytest.fixture(scope="module")
def mode_db() -> Database:
    db = Database(pool_capacity=256)
    db.execute("CREATE TABLE kv (k INTEGER PRIMARY KEY, v INTEGER, "
               "tag VARCHAR(8))")
    db.execute("CREATE TABLE mid (id INTEGER, g INTEGER)")
    db.execute("CREATE TABLE tiny (n INTEGER)")
    txn = db.begin()
    for i in range(BIG_ROWS):
        db.engine.insert(txn, "kv", (i, i % 97, "t%d" % (i % 5)))
    for i in range(300):
        db.engine.insert(txn, "mid", (i, i % 7))
    for i in range(5):
        db.engine.insert(txn, "tiny", (i,))
    db.commit(txn)
    db.analyze()
    yield db
    db.close()


def _backends(plan) -> list:
    return [(node.op_name, node.exec_backend,
             getattr(node, "fallback_mark", None)) for node in plan.walk()]


# ---------------------------------------------------------------------------
# One default
# ---------------------------------------------------------------------------


def test_one_default_execution_mode():
    assert DEFAULT_EXECUTION_MODE == "auto"
    assert CompileOptions().execution_mode == DEFAULT_EXECUTION_MODE
    assert Settings().execution_mode == DEFAULT_EXECUTION_MODE
    assert Database().settings.compile_options().cache_key() == \
        CompileOptions().cache_key()


def test_analyzed_run_hits_plan_cached_under_settings(mode_db):
    sql = "SELECT v FROM kv WHERE k = 11"
    mode_db.execute(sql)
    analyzed = mode_db.execute(sql, options=CompileOptions(analyze=True))
    assert analyzed.timings.pipeline == "cached"
    assert analyzed.rows == [(11 % 97,)]


# ---------------------------------------------------------------------------
# The auto pre-check
# ---------------------------------------------------------------------------

POINT_SQL = [
    "SELECT v, tag FROM kv WHERE k = ?",
    "SELECT n FROM tiny ORDER BY n",
    "UPDATE kv SET v = v + 1 WHERE k = ?",
]


@pytest.mark.parametrize("sql", POINT_SQL)
def test_precheck_skips_selection_on_point_statements(mode_db, sql,
                                                      monkeypatch):
    compiled = mode_db.compile(sql)
    assert all(backend == "tuple"
               for _op, backend, _mark in _backends(compiled.plan))
    # Skipped selection leaves no trace on the plan.
    assert not hasattr(compiled.plan, "codegen_fallbacks")
    assert compiled.timings.codegen == 0.0
    # Full selection (pre-check forced open) picks the very same plan.
    monkeypatch.setattr(pipeline, "_auto_candidate", lambda plan: True)
    forced = mode_db.compile(sql, options=CompileOptions(plan_cache=False))
    assert _backends(forced.plan) == _backends(compiled.plan)


def test_one_big_leaf_keeps_selection(mode_db):
    # tiny's 5-row scan fails the leaf test, mid's 300-row scan passes:
    # one such leaf is enough for selection to run.
    sql = "SELECT tiny.n, mid.id FROM tiny, mid WHERE tiny.n = mid.g"
    compiled = mode_db.compile(sql)
    assert any(backend != "tuple"
               for _op, backend, _mark in _backends(compiled.plan))
    tuple_rows = mode_db.execute(
        sql, options=CompileOptions(execution_mode="tuple")).rows
    assert sorted(mode_db.execute(sql).rows) == sorted(tuple_rows)


def _run_fresh(code: str) -> str:
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src})
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_point_statement_imports_no_batch_or_codegen_engine():
    out = _run_fresh("""
        import sys
        from repro import CompileOptions, Database
        db = Database()
        db.execute("CREATE TABLE acct (id INTEGER PRIMARY KEY, "
                   "bal INTEGER)")
        txn = db.begin()
        for i in range(2000):
            db.engine.insert(txn, "acct", (i, i * 10))
        db.commit(txn)
        db.analyze()
        sql = "SELECT bal FROM acct WHERE id = ?"
        default = db.compile(sql)
        assert db.execute(sql, [42]).rows == [(420,)]
        db.execute("UPDATE acct SET bal = bal + 1 WHERE id = ?", [42])
        loaded = [name for name in ("repro.executor.vectorized",
                                    "repro.executor.codegen")
                  if name in sys.modules]
        pinned = db.compile(sql, options=CompileOptions(
            execution_mode="tuple"))
        same = ([(n.op_name, n.exec_backend) for n in default.plan.walk()]
                == [(n.op_name, n.exec_backend)
                    for n in pinned.plan.walk()])
        print(loaded, same, default.plan.describe() == pinned.plan.describe())
    """)
    assert out.split() == ["[]", "True", "True"]


# ---------------------------------------------------------------------------
# Forked snapshot workers
# ---------------------------------------------------------------------------


def test_reinit_after_fork_does_not_import_codegen():
    out = _run_fresh("""
        import sys
        from repro import Database
        db = Database()
        before = "repro.executor.codegen" in sys.modules
        db.reinit_locks_after_fork()
        after = "repro.executor.codegen" in sys.modules
        from repro.executor import codegen
        old = codegen._CACHE_LOCK
        db.reinit_locks_after_fork()
        print(before, after, codegen._CACHE_LOCK is not old)
    """)
    assert out.split() == ["False", "False", "True"]


# ---------------------------------------------------------------------------
# EXPLAIN ANALYZE on the default path
# ---------------------------------------------------------------------------


def _region_roots(plan):
    """Walk indices of batch/fused nodes under a tuple parent (or at the
    root), in ``plan.walk()`` order."""
    roots = []

    def visit(node, parent_backend):
        if node.exec_backend != "tuple" and parent_backend == "tuple":
            roots.append(len(order))
        order.append(node)
        for child in node.children:
            visit(child, node.exec_backend)
        for binding in getattr(node, "subplans", []):
            visit(binding.plan, "tuple")

    order = []
    visit(plan, "tuple")
    return roots


@pytest.mark.parametrize("sql,root_index,backend", [
    ("SELECT k, v FROM kv WHERE v < 5", 0, "compiled"),
    ("SELECT id, g FROM mid WHERE g = 3", 0, "batch"),
    # a batch scan under the tuple-only SUBQJOIN[exists]
    ("SELECT k FROM kv WHERE v < 3 AND EXISTS "
     "(SELECT 1 FROM mid WHERE mid.id = kv.k)", 2, "batch"),
])
def test_explain_analyze_probes_region_roots(mode_db, sql, root_index,
                                             backend):
    result = mode_db.execute(sql, options=CompileOptions(analyze=True))
    pinned = mode_db.execute(sql, options=CompileOptions(
        analyze=True, execution_mode="tuple"))
    nodes = list(result.profile.plan.walk())
    tuple_nodes = list(pinned.profile.plan.walk())
    roots = _region_roots(result.profile.plan)
    assert roots[0] == root_index
    assert nodes[root_index].exec_backend == backend
    for index in roots:
        # Each region root's probe counts the rows the region produced:
        # what the tuple interpreter's probe counts at the same node.
        probe = result.profile.probe_for(nodes[index])
        assert probe is not None
        assert probe.rows == \
            pinned.profile.probe_for(tuple_nodes[index]).rows > 0
    plan = result.profile.plan
    assert result.profile.probe_for(plan).rows == len(result.rows)
    text = "\n".join(row[0] for row in
                     mode_db.execute("EXPLAIN ANALYZE " + sql).rows)
    root_line = next(line for line in text.splitlines()
                     if line.startswith(plan.op_name))
    assert "rows=%d" % len(result.rows) in root_line
