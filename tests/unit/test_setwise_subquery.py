"""Set-wise correlated [NOT] EXISTS: the SubqueryRoot STAR's hash
semi/anti-join strategy next to the per-row SUBQJOIN.

The planner decorrelates a subquery whose outer references all sit in
``inner = outer`` conjuncts of its own SELECT box; the cheaper of
SUBQJOIN and HASHJOIN[exists|not_exists] wins, and a forced hash method
always takes the set-wise plan when it applies.
"""

import pytest

from repro import CompileOptions, Database
from repro.errors import DivisionByZeroError
from repro.optimizer import plans as pl
from repro.testkit.oracle import ReferenceOracle

STORES = 200
SALES = 2000

OLAP_EXISTS = ("SELECT s.store_id, s.name FROM stores s WHERE EXISTS "
               "(SELECT 1 FROM sales f WHERE f.store_id = s.store_id "
               "AND f.qty > 97)")
PK_EXISTS = ("SELECT s.store_id, s.name FROM stores s WHERE "
             "s.store_id = 7 AND EXISTS (SELECT 1 FROM sales f "
             "WHERE f.store_id = s.store_id AND f.qty > 97)")


@pytest.fixture(scope="module")
def olap_db():
    """The perfbench olap shape, smaller: a fact table indexed on the
    correlation column, skewed towards low store ids."""
    db = Database()
    db.execute("CREATE TABLE sales (sale_id INTEGER PRIMARY KEY, "
               "store_id INTEGER, qty INTEGER, note VARCHAR(120))")
    db.execute("CREATE TABLE stores (store_id INTEGER PRIMARY KEY, "
               "name VARCHAR(20))")
    db.execute("CREATE INDEX ix_sales_store ON sales (store_id)")
    txn = db.begin()
    for s in range(STORES):
        db.engine.insert(txn, "stores", (s, "store-%03d" % s))
    for i in range(SALES):
        db.engine.insert(txn, "sales", (
            i, (i * i * 7919) % STORES // ((i % 3) + 1), (i * 37) % 100,
            "n" * 120))
    db.commit(txn)
    db.analyze()
    yield db
    db.close()


@pytest.fixture(scope="module")
def null_db():
    """NULL correlation keys on both sides."""
    db = Database()
    db.execute("CREATE TABLE a (id INTEGER PRIMARY KEY, k INTEGER, "
               "v INTEGER)")
    db.execute("CREATE TABLE b (id INTEGER PRIMARY KEY, k INTEGER, "
               "w INTEGER)")
    for i in range(60):
        k = "NULL" if i % 7 == 0 else str(i % 10)
        db.execute("INSERT INTO a VALUES (%d, %s, %d)" % (i, k, i))
    for i in range(80):
        k = "NULL" if i % 5 == 0 else str(i % 13)
        db.execute("INSERT INTO b VALUES (%d, %s, %d)" % (i, k, i % 11))
    db.analyze()
    yield db
    db.close()


def _plan(db, sql, **options):
    return db.compile(sql, options=CompileOptions(**options)).plan


def _nodes(plan, cls):
    return [node for node in plan.walk() if isinstance(node, cls)]


def _semijoins(plan):
    return [node for node in _nodes(plan, pl.HashJoin)
            if node.kind in ("exists", "not_exists")]


def _expected(db, sql):
    return sorted(ReferenceOracle(db).execute(sql).rows,
                  key=lambda row: tuple((v is None, v) for v in row))


def _rows(db, sql, **options):
    return sorted(db.execute(sql, options=CompileOptions(**options)).rows,
                  key=lambda row: tuple((v is None, v) for v in row))


class TestStrategyChoice:
    def test_olap_exists_plans_a_fast_hash_semijoin(self, olap_db):
        plan = _plan(olap_db, OLAP_EXISTS)
        (join,) = _semijoins(plan)
        assert join.kind == "exists"
        assert join.exec_backend in ("batch", "compiled")
        assert not _nodes(plan, pl.SubqueryJoin)
        text = olap_db.explain(OLAP_EXISTS)
        assert "HASHJOIN[exists]" in text and "SUBQJOIN" not in text
        expected = _expected(olap_db, OLAP_EXISTS)
        assert expected
        assert _rows(olap_db, OLAP_EXISTS) == expected

    def test_set_wise_run_evaluates_no_subquery(self, olap_db):
        result = olap_db.execute(OLAP_EXISTS)
        assert result.stats.subquery_evaluations == 0
        per_row = olap_db.execute(OLAP_EXISTS, options=CompileOptions(
            forced_join_method="nl"))
        assert per_row.stats.subquery_evaluations > 1
        assert sorted(per_row.rows) == sorted(result.rows)

    def test_pk_restricted_outer_keeps_the_index_probe(self, olap_db):
        plan = _plan(olap_db, PK_EXISTS)
        (join,) = _nodes(plan, pl.SubqueryJoin)
        assert join.kind == "exists"
        assert isinstance(join.binding.plan.children[0], pl.IndexScan)
        assert not _semijoins(plan)
        text = olap_db.explain(PK_EXISTS)
        assert "SUBQJOIN[exists]" in text and "ISCAN(sales" in text
        assert _rows(olap_db, PK_EXISTS) == _expected(olap_db, PK_EXISTS)

    def test_forced_hash_takes_the_set_wise_plan(self, olap_db):
        plan = _plan(olap_db, PK_EXISTS, forced_join_method="hash")
        assert _semijoins(plan) and not _nodes(plan, pl.SubqueryJoin)
        for method in ("nl", "merge"):
            plan = _plan(olap_db, OLAP_EXISTS, forced_join_method=method)
            assert _nodes(plan, pl.SubqueryJoin) and not _semijoins(plan)


class TestSubqueryJoinCost:
    """SUBQJOIN bills one inner evaluation per distinct correlation
    value the statistics know, capped at the outer cardinality."""

    def _subqjoin(self, db, sql, **options):
        (join,) = _nodes(_plan(db, sql, forced_join_method="nl",
                               **options), pl.SubqueryJoin)
        return join

    def test_olap_shape_costs_one_evaluation_per_store(self, olap_db):
        join = self._subqjoin(olap_db, OLAP_EXISTS)
        assert join.evaluations == pytest.approx(STORES)
        outer = join.children[0]
        inner = join.binding.plan
        billed = join.props.cost - outer.props.cost
        assert billed == pytest.approx(
            STORES * inner.props.cost
            + 0.01 * outer.props.card * max(1.0, inner.props.card))

    def test_pk_restricted_outer_costs_one_evaluation(self, olap_db):
        assert self._subqjoin(olap_db, PK_EXISTS).evaluations \
            == pytest.approx(1.0)

    def test_unknown_statistics_keep_the_fifth(self, olap_db):
        sql = ("SELECT d.store_id FROM (SELECT store_id FROM stores) d "
               "WHERE EXISTS (SELECT 1 FROM sales f "
               "WHERE f.store_id = d.store_id AND f.qty > 97)")
        # Without rewrite the derived table stays a box of its own, so
        # its column has no catalog statistics.
        join = self._subqjoin(olap_db, sql, rewrite_enabled=False)
        outer_card = join.children[0].props.card
        assert join.evaluations == pytest.approx(
            min(outer_card, max(1.0, outer_card * 0.2)))


NULL_QUERIES = [
    "SELECT a.id FROM a WHERE EXISTS "
    "(SELECT 1 FROM b WHERE b.k = a.k AND b.w > 3)",
    "SELECT a.id FROM a WHERE NOT EXISTS "
    "(SELECT 1 FROM b WHERE b.k = a.k AND b.w > 3)",
    "SELECT a.id FROM a WHERE NOT EXISTS (SELECT 1 FROM b WHERE a.k = b.k)",
    "SELECT a.id, a.v FROM a WHERE EXISTS "
    "(SELECT b.w FROM b WHERE b.k = a.k AND b.w = a.v)",
    "SELECT a.id FROM a WHERE NOT EXISTS "
    "(SELECT 1 FROM b WHERE b.k + 1 = a.k - 1)",
]

CONFIGS = [
    {"execution_mode": "tuple", "forced_join_method": "hash"},
    {"execution_mode": "batch", "forced_join_method": "hash"},
    {"execution_mode": "batch", "forced_join_method": "hash",
     "batch_size": 1},
    {"execution_mode": "compiled", "forced_join_method": "hash"},
    {"execution_mode": "auto", "forced_join_method": "hash"},
    {"execution_mode": "tuple", "forced_join_method": "nl"},
]


class TestNullKeys:
    @pytest.mark.parametrize("sql", NULL_QUERIES)
    def test_hash_semijoin_matches_the_oracle(self, null_db, sql):
        assert _semijoins(_plan(null_db, sql, forced_join_method="hash"))
        expected = _expected(null_db, sql)
        for options in CONFIGS:
            assert _rows(null_db, sql, **options) == expected, options

    def test_compiled_semijoin_is_fused(self, null_db):
        plan = _plan(null_db, NULL_QUERIES[1], execution_mode="compiled",
                     forced_join_method="hash")
        (join,) = _semijoins(plan)
        assert join.exec_backend == "compiled"
        assert plan.codegen_program.n_pipelines == 2


STAYS_PER_ROW = [
    # correlation under OR / NOT
    "SELECT a.id FROM a WHERE EXISTS "
    "(SELECT 1 FROM b WHERE b.k = a.k OR b.w = 2)",
    "SELECT a.id FROM a WHERE NOT EXISTS "
    "(SELECT 1 FROM b WHERE NOT (b.k <> a.k))",
    # correlation in a deeper box
    "SELECT a.id FROM a WHERE EXISTS (SELECT 1 FROM b WHERE b.w > 3 "
    "AND EXISTS (SELECT 1 FROM b c WHERE c.k = a.k AND c.w = b.w))",
    # non-equality correlation
    "SELECT a.id FROM a WHERE EXISTS (SELECT 1 FROM b WHERE b.k < a.k)",
    # one side over both levels
    "SELECT a.id FROM a WHERE EXISTS "
    "(SELECT 1 FROM b WHERE b.k + a.v = a.k)",
    # an outer reference in the head
    "SELECT a.id FROM a WHERE EXISTS (SELECT a.v FROM b WHERE b.k = a.k)",
    # a head that can raise: the set-wise plan would evaluate it on rows
    # the per-row plan never reaches
    "SELECT a.id FROM a WHERE EXISTS "
    "(SELECT b.w / 0 FROM b WHERE b.k = a.k)",
    # IN / NOT IN with NULLs: not the bare EXISTS test
    "SELECT a.id FROM a WHERE a.k IN (SELECT b.k FROM b WHERE b.w = a.v)",
    "SELECT a.id FROM a WHERE a.k NOT IN "
    "(SELECT b.k FROM b WHERE b.w = a.v)",
]


class TestStaysPerRow:
    @pytest.mark.parametrize("sql", STAYS_PER_ROW)
    def test_not_decorrelated(self, null_db, sql):
        for rewrite in (True, False):
            plan = _plan(null_db, sql, forced_join_method="hash",
                         rewrite_enabled=rewrite)
            assert not _semijoins(plan), plan.explain()
        if "/ 0" in sql:
            with pytest.raises(DivisionByZeroError):
                ReferenceOracle(null_db).execute(sql)
            for options in CONFIGS:
                with pytest.raises(DivisionByZeroError):
                    null_db.execute(sql, options=CompileOptions(**options))
            return
        expected = _expected(null_db, sql)
        for options in CONFIGS:
            assert _rows(null_db, sql, **options) == expected, options


def test_fused_and_batch_backends_refuse_per_row_combine_kinds(null_db):
    """Only semi/anti joins run as a hash join outside the interpreter:
    an ALL-kind hash join is neither batch-capable nor fusable."""
    from repro.executor import codegen, vectorized
    from repro.executor.compiled import ExprCompiler
    from repro.executor.kinds import default_join_kinds

    kinds = default_join_kinds()
    plan = _plan(null_db, NULL_QUERIES[0], forced_join_method="hash")
    (join,) = _semijoins(plan)
    assert codegen._fuse_reason(join, kinds, null_db.functions) is None
    join.kind = "all"
    assert codegen._fuse_reason(join, kinds, null_db.functions) \
        == "join kind all"
    assert not vectorized._capable(join, ExprCompiler(null_db.functions),
                                   kinds, null_db.functions)
