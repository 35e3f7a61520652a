"""Unit tests for individual QES operators, driven through plans built by
hand (no SQL front end involved)."""

import pytest

from repro.catalog import Catalog, ColumnDef, TableDef
from repro.datatypes import BOOLEAN, DOUBLE, INTEGER, VARCHAR
from repro.errors import ExecutionError
from repro.executor.context import ExecutionContext
from repro.executor.run import env_iter, execute_plan, rows_iter
from repro.functions import FunctionRegistry, register_builtins
from repro.optimizer.cost import CostModel
from repro.optimizer.plans import (
    Distinct,
    Filter,
    GroupBy,
    HashJoin,
    LimitOp,
    MergeJoin,
    NLJoin,
    Project,
    SetOpPlan,
    Sort,
    TableScan,
    Temp,
    TopSort,
)
from repro.qgm import expressions as qe
from repro.qgm.model import QGM, Predicate
from repro.storage.engine import StorageEngine


@pytest.fixture
def setup():
    catalog = Catalog()
    engine = StorageEngine(catalog, pool_capacity=16)
    engine.create_table(TableDef("left_t", [
        ColumnDef("k", INTEGER), ColumnDef("v", VARCHAR)]))
    engine.create_table(TableDef("right_t", [
        ColumnDef("k", INTEGER), ColumnDef("w", DOUBLE)]))
    txn = engine.begin()
    for k, v in [(1, "a"), (2, "b"), (2, "bb"), (3, "c"), (None, "n")]:
        engine.insert(txn, "left_t", (k, v))
    for k, w in [(2, 1.0), (2, 2.0), (3, 3.0), (9, 9.0), (None, 0.0)]:
        engine.insert(txn, "right_t", (k, w))
    engine.commit(txn)
    for name in ("left_t", "right_t"):
        engine.recompute_statistics(name)

    graph = QGM()
    left_box = graph.base_table(catalog.table("left_t"))
    right_box = graph.base_table(catalog.table("right_t"))
    lq = graph.new_quantifier("F", left_box)
    rq = graph.new_quantifier("F", right_box)
    cm = CostModel(catalog)
    ctx = ExecutionContext(engine, register_builtins(FunctionRegistry()))
    return engine, catalog, cm, ctx, lq, rq


def col(q, name, dtype=INTEGER):
    return qe.ColRef(q, name, dtype)


def key_pred(lq, rq):
    return Predicate(qe.BinOp("=", col(lq, "k"), col(rq, "k"), BOOLEAN))


class TestScansAndFilters:
    def test_table_scan_binds_rows_and_rids(self, setup):
        engine, catalog, cm, ctx, lq, _rq = setup
        scan = TableScan(cm, catalog.table("left_t"), lq, [])
        envs = list(env_iter(scan, ctx, {}))
        assert len(envs) == 5
        assert all(lq in e and ("rid", lq) in e for e in envs)

    def test_scan_applies_pushed_predicates(self, setup):
        engine, catalog, cm, ctx, lq, _rq = setup
        pred = Predicate(qe.BinOp(">", col(lq, "k"), qe.Const(1, INTEGER),
                                  BOOLEAN))
        scan = TableScan(cm, catalog.table("left_t"), lq, [pred])
        values = sorted(e[lq][0] for e in env_iter(scan, ctx, {}))
        assert values == [2, 2, 3]  # NULL excluded by 3VL

    def test_filter(self, setup):
        engine, catalog, cm, ctx, lq, _rq = setup
        scan = TableScan(cm, catalog.table("left_t"), lq, [])
        pred = Predicate(qe.LikeOp(col(lq, "v", VARCHAR),
                                   qe.Const("b%", VARCHAR)))
        out = list(env_iter(Filter(cm, scan, [pred]), ctx, {}))
        assert sorted(e[lq][1] for e in out) == ["b", "bb"]


class TestJoinMethods:
    def join_rows(self, setup, cls, **kwargs):
        engine, catalog, cm, ctx, lq, rq = setup
        left = TableScan(cm, catalog.table("left_t"), lq, [])
        right = TableScan(cm, catalog.table("right_t"), rq, [])
        if cls is NLJoin:
            join = NLJoin(cm, left, right, kwargs.get("kind", "regular"),
                          [key_pred(lq, rq)])
        else:
            join = cls(cm, left, right, kwargs.get("kind", "regular"),
                       [col(lq, "k")], [col(rq, "k")],
                       [key_pred(lq, rq)], kwargs.get("residual", []))
        return sorted(
            ((e[lq][0] if e[lq] else None, e[rq][1] if e[rq] else None)
             for e in env_iter(join, ctx, {})),
            key=lambda t: tuple((x is None, x) for x in t))

    EXPECTED_INNER = [(2, 1.0), (2, 1.0), (2, 2.0), (2, 2.0), (3, 3.0)]

    def test_nl_merge_hash_agree(self, setup):
        nl = self.join_rows(setup, NLJoin)
        merge = self.join_rows(setup, MergeJoin)
        hashed = self.join_rows(setup, HashJoin)
        assert nl == merge == hashed == self.EXPECTED_INNER

    def test_null_keys_never_match(self, setup):
        rows = self.join_rows(setup, HashJoin)
        assert all(k is not None for k, _ in rows)

    def test_left_outer_kind(self, setup):
        for cls in (NLJoin, MergeJoin, HashJoin):
            rows = self.join_rows(setup, cls, kind="left_outer")
            # 5 matches + unmatched left rows (1, 'a'), (None,'n')
            assert len(rows) == 7
            assert (1, None) in rows

    def semijoin_rows(self, setup, cls, kind, residual=()):
        engine, catalog, cm, ctx, lq, rq = setup
        left = TableScan(cm, catalog.table("left_t"), lq, [])
        right = TableScan(cm, catalog.table("right_t"), rq, [])
        if cls is NLJoin:
            join = NLJoin(cm, left, right, kind,
                          [key_pred(lq, rq)] + list(residual))
        else:
            join = cls(cm, left, right, kind, [col(lq, "k")],
                       [col(rq, "k")], [key_pred(lq, rq)], list(residual))
        envs = list(env_iter(join, ctx, {}))
        assert all(rq not in env for env in envs)  # never binds the inner
        return sorted((env[lq] for env in envs),
                      key=lambda row: (row[0] is None, row))

    @pytest.mark.parametrize("cls", [NLJoin, MergeJoin, HashJoin])
    def test_semi_and_anti_join_kinds(self, setup, cls):
        # Each outer row at most once; a NULL outer key matches nothing.
        assert self.semijoin_rows(setup, cls, "exists") == [
            (2, "b"), (2, "bb"), (3, "c")]
        assert self.semijoin_rows(setup, cls, "not_exists") == [
            (1, "a"), (None, "n")]
        _engine, _catalog, _cm, _ctx, _lq, rq = setup
        residual = Predicate(qe.BinOp(">", col(rq, "w", DOUBLE),
                                      qe.Const(2.5, DOUBLE), BOOLEAN))
        assert self.semijoin_rows(setup, cls, "exists", [residual]) == [
            (3, "c")]
        assert self.semijoin_rows(setup, cls, "not_exists", [residual]) \
            == [(1, "a"), (2, "b"), (2, "bb"), (None, "n")]

    @pytest.mark.parametrize("cls", [NLJoin, MergeJoin, HashJoin])
    def test_per_row_combine_kinds_are_refused(self, setup, cls):
        # ALL needs every inner row's three-valued outcome: SUBQJOIN only.
        with pytest.raises(ExecutionError, match="SUBQJOIN"):
            self.semijoin_rows(setup, cls, "all")

    def test_temp_inner_nl_join(self, setup):
        engine, catalog, cm, ctx, lq, rq = setup
        left = TableScan(cm, catalog.table("left_t"), lq, [])
        right = Temp(cm, TableScan(cm, catalog.table("right_t"), rq, []))
        join = NLJoin(cm, left, right, "regular", [key_pred(lq, rq)])
        rows = sorted((e[lq][0], e[rq][1]) for e in env_iter(join, ctx, {}))
        assert rows == self.EXPECTED_INNER

    def test_merge_residual_predicate(self, setup):
        engine, catalog, cm, ctx, lq, rq = setup
        residual = Predicate(qe.BinOp(">", col(rq, "w", DOUBLE),
                                      qe.Const(1.5, DOUBLE), BOOLEAN))
        rows = self.join_rows(setup, MergeJoin, residual=[residual])
        assert rows == [(2, 2.0), (2, 2.0), (3, 3.0)]


class TestSortAndProject:
    def test_sort_env_orders_with_nulls_last(self, setup):
        engine, catalog, cm, ctx, lq, _rq = setup
        scan = TableScan(cm, catalog.table("left_t"), lq, [])
        ordered = Sort(cm, scan, [(col(lq, "k"), True)])
        keys = [e[lq][0] for e in env_iter(ordered, ctx, {})]
        assert keys == [1, 2, 2, 3, None]

    def test_sort_descending(self, setup):
        engine, catalog, cm, ctx, lq, _rq = setup
        scan = TableScan(cm, catalog.table("left_t"), lq, [])
        ordered = Sort(cm, scan, [(col(lq, "k"), False)])
        keys = [e[lq][0] for e in env_iter(ordered, ctx, {})]
        assert keys == [3, 2, 2, 1, None]

    def test_project_and_topsort_and_limit(self, setup):
        engine, catalog, cm, ctx, lq, _rq = setup
        scan = TableScan(cm, catalog.table("left_t"), lq, [])
        project = Project(cm, scan, [col(lq, "v", VARCHAR), col(lq, "k")],
                          ["v", "k"])
        ordered = TopSort(cm, project, [(1, False)])
        limited = LimitOp(cm, ordered, 2)
        assert list(rows_iter(limited, ctx, {})) == [("c", 3), ("b", 2)]

    def test_distinct_rows(self, setup):
        engine, catalog, cm, ctx, lq, _rq = setup
        scan = TableScan(cm, catalog.table("left_t"), lq, [])
        project = Project(cm, scan, [col(lq, "k")], ["k"])
        out = list(rows_iter(Distinct(cm, project), ctx, {}))
        assert sorted(out, key=lambda r: (r[0] is None, r[0])) == [
            (1,), (2,), (3,), (None,)]


class TestGroupByOperator:
    def test_group_and_aggregate(self, setup):
        engine, catalog, cm, ctx, lq, _rq = setup
        scan = TableScan(cm, catalog.table("left_t"), lq, [])
        agg = qe.AggCall("count", None, False, INTEGER)
        plan = GroupBy(cm, scan, [col(lq, "k")], [agg], ["k", "n"])
        rows = sorted(rows_iter(plan, ctx, {}),
                      key=lambda r: (r[0] is None, r[0]))
        assert rows == [(1, 1), (2, 2), (3, 1), (None, 1)]

    def test_distinct_aggregate(self, setup):
        engine, catalog, cm, ctx, _lq, rq = setup
        scan = TableScan(cm, catalog.table("right_t"), rq, [])
        agg = qe.AggCall("count", col(rq, "k"), True, INTEGER)
        plan = GroupBy(cm, scan, [], [agg], ["n"])
        assert list(rows_iter(plan, ctx, {})) == [(3,)]  # 2, 3, 9

    def test_sum_skips_nulls(self, setup):
        engine, catalog, cm, ctx, _lq, rq = setup
        scan = TableScan(cm, catalog.table("right_t"), rq, [])
        agg = qe.AggCall("sum", col(rq, "k"), False, INTEGER)
        plan = GroupBy(cm, scan, [], [agg], ["s"])
        assert list(rows_iter(plan, ctx, {})) == [(16,)]


class TestSetOpOperator:
    def make_rows(self, setup, table, quantifier, column):
        engine, catalog, cm, ctx, lq, rq = setup
        scan = TableScan(cm, catalog.table(table), quantifier, [])
        return Project(cm, scan, [col(quantifier, column)], [column])

    def test_union_all_and_distinct(self, setup):
        engine, catalog, cm, ctx, lq, rq = setup
        left = self.make_rows(setup, "left_t", lq, "k")
        right = self.make_rows(setup, "right_t", rq, "k")
        union_all = SetOpPlan(cm, "union", True, [left, right])
        assert len(list(rows_iter(union_all, ctx, {}))) == 10
        union = SetOpPlan(cm, "union", False, [left, right])
        distinct_rows = list(rows_iter(union, ctx, {}))
        assert len(distinct_rows) == 5  # 1,2,3,9,NULL

    def test_intersect_bag(self, setup):
        engine, catalog, cm, ctx, lq, rq = setup
        left = self.make_rows(setup, "left_t", lq, "k")
        right = self.make_rows(setup, "right_t", rq, "k")
        out = list(rows_iter(SetOpPlan(cm, "intersect", True,
                                       [left, right]), ctx, {}))
        # left bag: {1,2,2,3,None}; right bag: {2,2,3,9,None}
        assert sorted(out, key=lambda r: (r[0] is None, r[0])) == [
            (2,), (2,), (3,), (None,)]

    def test_except_bag(self, setup):
        engine, catalog, cm, ctx, lq, rq = setup
        left = self.make_rows(setup, "left_t", lq, "k")
        right = self.make_rows(setup, "right_t", rq, "k")
        out = list(rows_iter(SetOpPlan(cm, "except", True, [left, right]),
                             ctx, {}))
        assert out == [(1,)]

    def test_null_groups_in_setops(self, setup):
        """NULLs compare equal for set-operation purposes (SQL)."""
        engine, catalog, cm, ctx, lq, rq = setup
        left = self.make_rows(setup, "left_t", lq, "k")
        right = self.make_rows(setup, "right_t", rq, "k")
        out = list(rows_iter(SetOpPlan(cm, "intersect", False,
                                       [left, right]), ctx, {}))
        assert (None,) in out
