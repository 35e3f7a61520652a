"""Correlated index probes: a subquery's index access keyed by an outer
column (the index-nested-loop shape R* made famous)."""

import pytest

from repro import CompileOptions, Database
from repro.optimizer.plans import IndexScan


@pytest.fixture
def probe_db():
    db = Database(pool_capacity=256)
    db.execute("CREATE TABLE orders (oid INTEGER, cust INTEGER, "
               "total DOUBLE)")
    db.execute("CREATE TABLE customers (cid INTEGER PRIMARY KEY, "
               "region VARCHAR(8))")
    txn = db.begin()
    for i in range(1500):
        db.engine.insert(txn, "orders", (i, i % 300, float(i % 97)))
    for i in range(300):
        db.engine.insert(txn, "customers",
                         (i, "west" if i % 2 == 0 else "east"))
    db.commit(txn)
    db.analyze()
    return db


class TestCorrelatedIndexProbe:
    SQL = ("SELECT oid FROM orders o WHERE EXISTS "
           "(SELECT 1 FROM customers c WHERE c.cid = o.cust "
           "AND c.region = 'west')")
    #: The per-row strategy (SUBQJOIN): with 1500 outer rows the cost
    #: model otherwise prefers the set-wise hash semijoin.
    PER_ROW = CompileOptions(rewrite_enabled=False, forced_join_method="nl")

    def test_plan_uses_index_inside_subquery(self, probe_db):
        compiled = probe_db.compile(self.SQL, options=self.PER_ROW)
        index_scans = [n for n in compiled.plan.walk()
                       if isinstance(n, IndexScan)]
        assert index_scans, compiled.plan.explain()
        # the probe key is the *outer* correlation column
        assert any("o.cust" in repr(scan.eq_exprs)
                   for scan in index_scans), compiled.plan.explain()

    def test_results_correct_and_probes_counted(self, probe_db):
        compiled = probe_db.compile(self.SQL, options=self.PER_ROW)
        result = probe_db.run_compiled(compiled)
        # even cust ids are 'west': half the orders qualify
        assert len(result.rows) == 750
        assert result.stats.index_probes >= 1

    def test_agrees_with_rewrite_path(self, probe_db):
        direct = sorted(probe_db.execute(self.SQL).rows)
        probe_db.settings.rewrite_enabled = False
        unrewritten = sorted(probe_db.execute(self.SQL).rows)
        probe_db.settings.rewrite_enabled = True
        assert direct == unrewritten

    def test_scalar_correlated_probe(self, probe_db):
        rows = probe_db.execute(
            "SELECT count(*) FROM orders o WHERE 'west' = "
            "(SELECT region FROM customers c WHERE c.cid = o.cust)")
        assert rows.scalar() == 750
