"""Operator interpreters: lazy streams over plan trees.

Two mutually recursive generators drive execution:

- :func:`env_iter` — binding streams (environments {quantifier: row}),
- :func:`rows_iter` — row streams (plain tuples).

Every produced environment *includes* the base environment it was opened
with, so correlated references into enclosing queries resolve naturally and
nested-loop re-evaluation is just re-opening the inner stream with the
current outer environment.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import ExecutionError, SubqueryError
from repro.executor.context import ExecutionContext
from repro.executor.evaluator import Env, Evaluator, kleene_and
from repro.executor.kinds import JoinKindRegistry, default_join_kinds
from repro.optimizer import plans as pl
from repro.qgm import expressions as qe

#: Registry used when the context does not carry its own.
_DEFAULT_KINDS = default_join_kinds()


def _kinds(ctx: ExecutionContext) -> JoinKindRegistry:
    return getattr(ctx, "join_kinds", None) or _DEFAULT_KINDS


def execute_plan(plan: pl.PlanOp, ctx: ExecutionContext
                 ) -> Iterator[Tuple[Any, ...]]:
    """Run a complete (row-producing) plan."""
    if plan.exec_backend == "batch":
        from repro.executor import vectorized

        # The plan root always hands rows to the caller, so this
        # adaptation is the contract, not a fallback.
        return vectorized.rows_from_batches(plan, ctx, {},
                                            count_fallback=False)
    if plan.exec_backend == "compiled":
        from repro.executor import codegen

        return codegen.rows_from_compiled(plan, ctx, {},
                                          count_fallback=False)
    return rows_iter(plan, ctx, {})


#: Auto mode only batches subtrees whose leaf scans *read* at least this
#: many rows; below it, batch setup overhead beats per-row dispatch.
AUTO_MIN_ROWS = 32.0


def _leaf_rows_ok(node: pl.PlanOp) -> bool:
    """Auto-mode heuristic: does this leaf *read* enough rows to batch?

    Scans record their ``TableStatistics``-driven input cardinality
    (table row count for SCAN, matched-range size for ISCAN) at plan
    time; that — not the post-predicate output estimate in
    ``props.card`` — is the work the batch backend amortizes, so a
    large-table scan behind a selective filter still batches.  Lives
    here, beside the backend dispatch, so the compile pipeline's auto
    pre-check can ask it without importing the batch engine.
    """
    if not node.children:
        rows = getattr(node, "input_rows", None)
        if rows is None:
            rows = node.props.card
        return rows >= AUTO_MIN_ROWS
    return True


# ---------------------------------------------------------------------------
# Row streams
# ---------------------------------------------------------------------------


def rows_iter(plan: pl.PlanOp, ctx: ExecutionContext,
              env: Env) -> Iterator[Tuple[Any, ...]]:
    if plan.exec_backend == "batch":
        from repro.executor import vectorized

        return vectorized.rows_from_batches(plan, ctx, env)
    if plan.exec_backend == "compiled":
        from repro.executor import codegen

        return codegen.rows_from_compiled(plan, ctx, env)
    handler = _ROW_OPS.get(type(plan))
    if handler is None:
        raise ExecutionError("no interpreter for %s" % plan.op_name)
    if ctx.profile is not None:
        return ctx.profile.iter_stream(plan, handler, ctx, env)
    return handler(plan, ctx, env)


def _run_project(plan: pl.Project, ctx: ExecutionContext,
                 env: Env) -> Iterator[Tuple[Any, ...]]:
    evaluator = Evaluator(ctx)
    compiled = getattr(plan, "compiled_exprs", None)
    if compiled is None:
        compiled = [None] * len(plan.exprs)
    params = ctx.params
    ctx.bind_subplans(plan.subplans)
    try:
        for binding_env in env_iter(plan.children[0], ctx, env):
            row = tuple(
                fn(binding_env, params) if fn is not None
                else _eval_head(evaluator, expr, binding_env)
                for fn, expr in zip(compiled, plan.exprs))
            ctx.stats.rows_emitted += 1
            yield row
    finally:
        ctx.unbind_subplans(plan.subplans)


def _eval_head(evaluator: Evaluator, expr: qe.QExpr, env: Env) -> Any:
    """Head expressions may be boolean trees over subquery quantifiers."""
    unbound = evaluator._unbound_subqueries(expr, env)
    if any(q.qtype != "S" for q in unbound):
        return evaluator.eval_bool(expr, env)
    return evaluator.eval(expr, env)


def _run_distinct(plan: pl.Distinct, ctx: ExecutionContext,
                  env: Env) -> Iterator[Tuple[Any, ...]]:
    seen = set()
    for row in rows_iter(plan.children[0], ctx, env):
        if row not in seen:
            seen.add(row)
            yield row


def _run_limit(plan: pl.LimitOp, ctx: ExecutionContext,
               env: Env) -> Iterator[Tuple[Any, ...]]:
    return itertools.islice(rows_iter(plan.children[0], ctx, env),
                            plan.limit)


def _null_last_key(row: Tuple[Any, ...],
                   positions: List[Tuple[int, bool]]):
    key = []
    for position, ascending in positions:
        value = row[position]
        null_rank = value is None
        if ascending:
            key.append((null_rank, value if value is not None else 0, 0))
        else:
            key.append((null_rank, _Reversed(value if value is not None
                                             else 0), 0))
    return tuple(key)


class _Reversed:
    """Wrapper inverting comparison order for DESC sort keys."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def __lt__(self, other: "_Reversed") -> bool:
        return other.value < self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversed) and other.value == self.value


def _run_topsort(plan: pl.TopSort, ctx: ExecutionContext,
                 env: Env) -> Iterator[Tuple[Any, ...]]:
    rows = list(rows_iter(plan.children[0], ctx, env))
    ctx.stats.sorts += 1
    rows.sort(key=lambda row: _null_last_key(row, plan.positions))
    return iter(rows)


def _run_setop(plan: pl.SetOpPlan, ctx: ExecutionContext,
               env: Env) -> Iterator[Tuple[Any, ...]]:
    streams = [rows_iter(child, ctx, env) for child in plan.children]
    if plan.op == "union":
        if plan.all_rows:
            for stream in streams:
                yield from stream
            return
        seen = set()
        for stream in streams:
            for row in stream:
                if row not in seen:
                    seen.add(row)
                    yield row
        return
    # INTERSECT / EXCEPT over three or more children associate pairwise,
    # left to right.  Summing all right-hand bags into one Counter is NOT
    # equivalent: for A INTERSECT ALL B INTERSECT ALL C the count is
    # min(a, b, c), not min(a, b + c), and distinct INTERSECT requires
    # membership in every child, not in the union of the rest.
    left = list(streams[0])
    for stream in streams[1:]:
        right_counts = Counter(stream)
        if plan.op == "intersect":
            if plan.all_rows:
                budget = Counter(right_counts)
                folded = []
                for row in left:
                    if budget[row] > 0:
                        budget[row] -= 1
                        folded.append(row)
            else:
                emitted = set()
                folded = []
                for row in left:
                    if right_counts[row] > 0 and row not in emitted:
                        emitted.add(row)
                        folded.append(row)
        else:  # except
            if plan.all_rows:
                budget = Counter(right_counts)
                folded = []
                for row in left:
                    if budget[row] > 0:
                        budget[row] -= 1
                    else:
                        folded.append(row)
            else:
                emitted = set()
                folded = []
                for row in left:
                    if right_counts[row] == 0 and row not in emitted:
                        emitted.add(row)
                        folded.append(row)
        left = folded
    yield from left


def _run_groupby(plan: pl.GroupBy, ctx: ExecutionContext,
                 env: Env) -> Iterator[Tuple[Any, ...]]:
    evaluator = Evaluator(ctx)
    groups: Dict[Tuple, List[Any]] = {}
    distinct_seen: Dict[Tuple[Tuple, int], set] = {}
    order: List[Tuple] = []

    def new_accumulators() -> List[Any]:
        accumulators = []
        for agg in plan.aggregates:
            function = ctx.functions.aggregate(agg.name)
            if function is None:
                raise ExecutionError("unknown aggregate %s" % agg.name)
            accumulators.append(function.factory())
        return accumulators

    for binding_env in env_iter(plan.children[0], ctx, env):
        key = tuple(evaluator.eval(k, binding_env) for k in plan.group_exprs)
        accumulators = groups.get(key)
        if accumulators is None:
            accumulators = new_accumulators()
            groups[key] = accumulators
            order.append(key)
        for index, agg in enumerate(plan.aggregates):
            function = ctx.functions.aggregate(agg.name)
            if agg.arg is None:
                value: Any = 1  # COUNT(*)
            else:
                value = evaluator.eval(agg.arg, binding_env)
                if value is None and not function.handles_null:
                    continue
            if agg.distinct:
                seen = distinct_seen.setdefault((key, index), set())
                if value in seen:
                    continue
                seen.add(value)
            accumulators[index].step(value)

    if not groups and not plan.group_exprs:
        # SQL: aggregation over an empty input yields one row.
        accumulators = new_accumulators()
        yield tuple(acc.final() for acc in accumulators)
        return
    for key in order:
        accumulators = groups[key]
        yield key + tuple(acc.final() for acc in accumulators)


def _run_table_function(plan: pl.TableFunctionPlan, ctx: ExecutionContext,
                        env: Env) -> Iterator[Tuple[Any, ...]]:
    function = ctx.functions.table_function(plan.function_name)
    if function is None:
        raise ExecutionError(
            "unknown table function %s" % plan.function_name)
    evaluator = Evaluator(ctx)
    args = [evaluator.eval(a, env) for a in plan.scalar_args]
    inputs = []
    for child, quantifier in zip(plan.children, plan.box.quantifiers):
        head = quantifier.input.head
        inputs.append((head.column_names(),
                       [c.dtype for c in head.columns],
                       list(rows_iter(child, ctx, env))))
    try:
        _names, _types, rows = function.invoke(args, inputs)
    except ExecutionError:
        raise
    except Exception as exc:
        raise ExecutionError(
            "table function %s failed: %s" % (plan.function_name, exc)
        ) from exc
    arity = len(plan.box.head.columns)
    for row in rows:
        row = tuple(row)
        if len(row) != arity:
            raise ExecutionError(
                "table function %s produced a %d-column row, expected %d"
                % (plan.function_name, len(row), arity))
        yield row


def _run_recurse(plan: pl.Recurse, ctx: ExecutionContext,
                 env: Env) -> Iterator[Tuple[Any, ...]]:
    """Fixpoint evaluation with set semantics (guarantees termination)."""
    total = set()
    delta: List[Tuple[Any, ...]] = []
    for base in plan.base_plans:
        for row in rows_iter(base, ctx, env):
            if row not in total:
                total.add(row)
                delta.append(row)
                yield row
    max_iterations = 100_000
    while delta:
        max_iterations -= 1
        if max_iterations <= 0:
            raise ExecutionError(
                "recursive query exceeded the iteration bound")
        ctx.stats.recursion_iterations += 1
        ctx.recursion_deltas[plan.box] = (sorted(total) if plan.naive
                                          else delta)
        produced: List[Tuple[Any, ...]] = []
        for recursive in plan.recursive_plans:
            produced.extend(rows_iter(recursive, ctx, env))
        delta = []
        for row in produced:
            if row not in total:
                total.add(row)
                delta.append(row)
                yield row
    ctx.recursion_deltas.pop(plan.box, None)


def _run_temp_rows(plan: pl.Temp, ctx: ExecutionContext,
                   env: Env) -> Iterator:
    if plan.produces_rows:
        return iter(list(rows_iter(plan.children[0], ctx, env)))
    return iter(list(env_iter(plan.children[0], ctx, env)))


def _run_ship_rows(plan: pl.Ship, ctx: ExecutionContext, env: Env):
    runtime = ctx.parallel
    if (runtime is not None and plan.produces_rows and not env
            and ctx.txn is None):
        # Real data movement: the child runs in a worker process at the
        # remote "site" and its rows travel back wire-encoded.  Opened
        # with bindings or inside a transaction, SHIP stays a local
        # pass-through (workers fork without either).
        return runtime.run_ship(plan, ctx)
    if plan.produces_rows:
        return rows_iter(plan.children[0], ctx, env)
    return env_iter(plan.children[0], ctx, env)


# -- DML ------------------------------------------------------------------------


def _run_insert(plan: pl.InsertPlan, ctx: ExecutionContext,
                env: Env) -> Iterator[Tuple[Any, ...]]:
    if ctx.txn is None:
        raise ExecutionError("DML requires a transaction")
    evaluator = Evaluator(ctx)
    if plan.literal_rows is not None:
        source_rows = [tuple(evaluator.eval(value, env) for value in row)
                       for row in plan.literal_rows]
    else:
        source_rows = list(rows_iter(plan.children[0], ctx, env))
    count = 0
    arity = plan.table.arity
    for values in source_rows:
        full: List[Any] = [None] * arity
        for position, value in zip(plan.column_positions, values):
            full[position] = value
        ctx.engine.insert(ctx.txn, plan.table.name, tuple(full))
        count += 1
    ctx.rowcount = count
    return iter(())


def _run_update(plan: pl.UpdatePlan, ctx: ExecutionContext,
                env: Env) -> Iterator[Tuple[Any, ...]]:
    if ctx.txn is None:
        raise ExecutionError("DML requires a transaction")
    evaluator = Evaluator(ctx)
    quantifier = plan.target_quantifier
    ctx.bind_subplans(plan.subplans)
    try:
        pending: List[Tuple[Any, Tuple[Any, ...]]] = []
        for binding_env in env_iter(plan.children[0], ctx, env):
            rid = binding_env.get(("rid", quantifier))
            if rid is None:
                raise ExecutionError("UPDATE target has no RID")
            current = binding_env[quantifier]
            new_row = list(current)
            for name, expr in plan.assignments:
                position = plan.table.column_index(name)
                new_row[position] = evaluator.eval(expr, binding_env)
            pending.append((rid, tuple(new_row)))
        for rid, new_row in pending:
            ctx.engine.update(ctx.txn, plan.table.name, rid, new_row)
        ctx.rowcount = len(pending)
    finally:
        ctx.unbind_subplans(plan.subplans)
    return iter(())


def _run_delete(plan: pl.DeletePlan, ctx: ExecutionContext,
                env: Env) -> Iterator[Tuple[Any, ...]]:
    if ctx.txn is None:
        raise ExecutionError("DML requires a transaction")
    quantifier = plan.target_quantifier
    pending = []
    for binding_env in env_iter(plan.children[0], ctx, env):
        rid = binding_env.get(("rid", quantifier))
        if rid is None:
            raise ExecutionError("DELETE target has no RID")
        pending.append(rid)
    for rid in pending:
        ctx.engine.delete(ctx.txn, plan.table.name, rid)
    ctx.rowcount = len(pending)
    return iter(())


# ---------------------------------------------------------------------------
# Binding streams
# ---------------------------------------------------------------------------


def env_iter(plan: pl.PlanOp, ctx: ExecutionContext,
             env: Env) -> Iterator[Env]:
    if plan.exec_backend == "batch":
        from repro.executor import vectorized

        return vectorized.envs_from_batches(plan, ctx, env)
    if plan.exec_backend == "compiled":
        from repro.executor import codegen

        return codegen.envs_from_compiled(plan, ctx, env)
    handler = _ENV_OPS.get(type(plan))
    if handler is None:
        raise ExecutionError("no binding interpreter for %s" % plan.op_name)
    if ctx.profile is not None:
        return ctx.profile.iter_stream(plan, handler, ctx, env)
    return handler(plan, ctx, env)


def _scan_preds_ok(evaluator: Evaluator, preds, env: Env) -> bool:
    for predicate in preds:
        compiled = getattr(predicate, "compiled", None)
        if compiled is not None:
            if compiled(env, evaluator.ctx.params) is not True:
                return False
        elif not evaluator.eval_predicate(predicate.expr, env):
            return False
    return True


def _pruned_partition(evaluator: Evaluator, plan: pl.TableScan,
                      env: Env, ctx: ExecutionContext) -> Optional[int]:
    """Equality-predicate partition pruning on a sharded table scan.

    ``q.part_col = const`` routes every qualifying row to one shard, so
    the scan can skip the others (row order within the shard equals the
    global scan order restricted to it, so results are byte-identical).
    """
    table = plan.table
    for predicate in plan.preds:
        expr = predicate.expr
        if not isinstance(expr, qe.BinOp) or expr.op != "=":
            continue
        for side, other in ((expr.left, expr.right),
                            (expr.right, expr.left)):
            if not (isinstance(side, qe.ColRef)
                    and side.quantifier is plan.quantifier
                    and side.column == table.partition_by):
                continue
            if plan.quantifier in qe.quantifiers_in(other):
                continue
            try:
                value = evaluator.eval(other, env)
            except Exception:
                continue  # unbound correlation etc. — no pruning
            ctx.stats.partitions_pruned += table.partitions - 1
            return ctx.engine.partition_for(table.name, value)
    return None


def _scan_partition(plan: pl.TableScan, ctx: ExecutionContext,
                    env: Env) -> Optional[int]:
    """The one shard a table scan reads, or None for the whole table:
    the worker's assigned partition under a PARTITIONGATHER, else the
    shard an equality predicate prunes to.  Shared by all three
    backends' table scans."""
    if ctx.partition_map is not None:
        return ctx.partition_map.get(id(plan))
    if plan.table.partition_by and plan.table.partitions > 1:
        return _pruned_partition(Evaluator(ctx), plan, env, ctx)
    return None


def _run_table_scan(plan: pl.TableScan, ctx: ExecutionContext,
                    env: Env) -> Iterator[Env]:
    evaluator = Evaluator(ctx)
    quantifier = plan.quantifier
    page_range = ctx.morsel_range if plan is ctx.morsel_scan else None
    partition = _scan_partition(plan, ctx, env)
    for rid, row in ctx.engine.scan(ctx.txn, plan.table.name, page_range,
                                    partition=partition):
        ctx.stats.rows_scanned += 1
        out = dict(env)
        out[quantifier] = row
        out[("rid", quantifier)] = rid
        if _scan_preds_ok(evaluator, plan.preds, out):
            yield out


def _run_index_scan(plan: pl.IndexScan, ctx: ExecutionContext,
                    env: Env) -> Iterator[Env]:
    evaluator = Evaluator(ctx)
    quantifier = plan.quantifier
    access = ctx.engine.access_method(plan.index.name)
    eq_values = tuple(evaluator.eval(expr, env) for expr in plan.eq_exprs)
    ctx.stats.index_probes += 1

    if (plan.range_bounds is None
            and len(eq_values) == len(plan.index.column_names)):
        rid_stream = ((eq_values, rid) for rid in access.probe(eq_values))
    elif plan.range_bounds is not None:
        low_expr, low_inc, high_expr, high_inc = plan.range_bounds
        low = list(eq_values)
        high = list(eq_values)
        if low_expr is not None:
            low.append(evaluator.eval(low_expr, env))
        if high_expr is not None:
            high.append(evaluator.eval(high_expr, env))
        rid_stream = access.range_scan(
            tuple(low) if low else None,
            tuple(high) if high else None,
            low_inclusive=low_inc, high_inclusive=high_inc)
    elif eq_values:
        rid_stream = access.range_scan(eq_values, eq_values)
    else:
        rid_stream = access.range_scan(None, None)

    table_name = plan.table.name
    for _key, rid in rid_stream:
        ctx.stats.rows_scanned += 1
        row = ctx.engine.fetch(ctx.txn, table_name, rid)
        out = dict(env)
        out[quantifier] = row
        out[("rid", quantifier)] = rid
        if _scan_preds_ok(evaluator, plan.preds, out):
            yield out


def _run_derived_scan(plan: pl.DerivedScan, ctx: ExecutionContext,
                      env: Env) -> Iterator[Env]:
    evaluator = Evaluator(ctx)
    quantifier = plan.quantifier
    for row in rows_iter(plan.children[0], ctx, env):
        out = dict(env)
        out[quantifier] = row
        if _scan_preds_ok(evaluator, plan.preds, out):
            yield out


def _run_delta_scan(plan: pl.DeltaScan, ctx: ExecutionContext,
                    env: Env) -> Iterator[Env]:
    rows = ctx.recursion_deltas.get(plan.box)
    if rows is None:
        raise ExecutionError(
            "DELTA scan outside a recursive fixpoint (%s)"
            % plan.box.label())
    quantifier = plan.quantifier
    for row in rows:
        ctx.stats.rows_scanned += 1
        out = dict(env)
        out[quantifier] = row
        yield out


def _run_singleton(plan, ctx: ExecutionContext, env: Env) -> Iterator[Env]:
    yield dict(env)


def _run_filter(plan: pl.Filter, ctx: ExecutionContext,
                env: Env) -> Iterator[Env]:
    evaluator = Evaluator(ctx)
    for binding_env in env_iter(plan.children[0], ctx, env):
        if _scan_preds_ok(evaluator, plan.preds, binding_env):
            yield binding_env


def _run_quantified_filter(plan: pl.QuantifiedFilter, ctx: ExecutionContext,
                           env: Env) -> Iterator[Env]:
    """The OR operator: predicates over subquery streams, short-circuited."""
    evaluator = Evaluator(ctx)
    ctx.bind_subplans(plan.subplans)
    try:
        for binding_env in env_iter(plan.children[0], ctx, env):
            if _scan_preds_ok(evaluator, plan.preds, binding_env):
                yield binding_env
    finally:
        ctx.unbind_subplans(plan.subplans)


def _run_sort(plan: pl.Sort, ctx: ExecutionContext,
              env: Env) -> Iterator[Env]:
    evaluator = Evaluator(ctx)
    envs = list(env_iter(plan.children[0], ctx, env))
    ctx.stats.sorts += 1

    def key_of(binding_env: Env):
        key = []
        for expr, ascending in plan.keys:
            value = evaluator.eval(expr, binding_env)
            null_rank = value is None
            base = value if value is not None else 0
            key.append((null_rank, base if ascending else _Reversed(base)))
        return tuple(key)

    envs.sort(key=key_of)
    return iter(envs)


def _inner_quantifiers(plan: pl.PlanOp) -> List:
    return sorted(plan.props.quantifiers, key=lambda q: q.uid)


def _pad_nulls(env: Env, quantifiers) -> Env:
    out = dict(env)
    for quantifier in quantifiers:
        out[quantifier] = None
    return out


def _method_kind(plan, ctx: ExecutionContext):
    """A join method's kind, plus its semi/anti join verdicts (None for
    binding kinds).  Other combine kinds need every inner row's
    three-valued outcome, which only SUBQJOIN computes."""
    kind = _kinds(ctx).get(plan.kind, ctx.functions)
    if kind.combine is None:
        return kind, None
    if not kind.semijoin:
        raise ExecutionError("join kind %s cannot run as %s; it needs "
                             "SUBQJOIN" % (kind.name, plan.op_name))
    return kind, kind.semijoin_verdicts()


def _run_nl_join(plan: pl.NLJoin, ctx: ExecutionContext,
                 env: Env) -> Iterator[Env]:
    evaluator = Evaluator(ctx)
    kind, verdicts = _method_kind(plan, ctx)
    outer_plan, inner_plan = plan.children
    inner_cached: Optional[List[Env]] = None
    if isinstance(inner_plan, pl.Temp):
        inner_cached = list(env_iter(inner_plan.children[0], ctx, env))
    inner_pad = _inner_quantifiers(inner_plan)

    for outer_env in env_iter(outer_plan, ctx, env):
        matched = False
        if inner_cached is not None:
            inner_stream: Iterator[Env] = (
                {**outer_env, **cached} for cached in inner_cached)
        else:
            inner_stream = env_iter(inner_plan, ctx, outer_env)
        if verdicts is not None:
            if verdicts[any(_scan_preds_ok(evaluator, plan.preds, merged)
                            for merged in inner_stream)]:
                yield outer_env
            continue
        for merged in inner_stream:
            if _scan_preds_ok(evaluator, plan.preds, merged):
                matched = True
                yield merged
        if not matched and kind.preserves_outer:
            yield _pad_nulls(outer_env, inner_pad)


def _join_key(evaluator: Evaluator, exprs, env: Env) -> Optional[Tuple]:
    values = []
    for expr in exprs:
        value = evaluator.eval(expr, env)
        if value is None:
            return None  # SQL join keys never match on NULL
        values.append(value)
    return tuple(values)


def _run_hash_join(plan: pl.HashJoin, ctx: ExecutionContext,
                   env: Env) -> Iterator[Env]:
    evaluator = Evaluator(ctx)
    kind, verdicts = _method_kind(plan, ctx)
    outer_plan, inner_plan = plan.children
    table: Dict[Tuple, List[Env]] = {}
    for inner_env in env_iter(inner_plan, ctx, env):
        key = _join_key(evaluator, plan.inner_keys, inner_env)
        if key is not None:
            table.setdefault(key, []).append(inner_env)
    inner_pad = _inner_quantifiers(inner_plan)

    for outer_env in env_iter(outer_plan, ctx, env):
        key = _join_key(evaluator, plan.outer_keys, outer_env)
        bucket = table.get(key, ()) if key is not None else ()
        if verdicts is not None:
            if verdicts[any(_scan_preds_ok(evaluator, plan.residual,
                                           {**outer_env, **inner_env})
                            for inner_env in bucket)]:
                yield outer_env
            continue
        matched = False
        for inner_env in bucket:
            merged = {**outer_env, **inner_env}
            if _scan_preds_ok(evaluator, plan.residual, merged):
                matched = True
                yield merged
        if not matched and kind.preserves_outer:
            yield _pad_nulls(outer_env, inner_pad)


def _run_merge_join(plan: pl.MergeJoin, ctx: ExecutionContext,
                    env: Env) -> Iterator[Env]:
    """Merge join over a streamed outer and a (sorted) materialized inner.

    Matching groups are located with binary search on the sorted inner —
    semantically a merge, robust to unsorted-looking duplicates.
    """
    import bisect

    evaluator = Evaluator(ctx)
    kind, verdicts = _method_kind(plan, ctx)
    outer_plan, inner_plan = plan.children
    inner: List[Tuple[Tuple, Env]] = []
    for inner_env in env_iter(inner_plan, ctx, env):
        key = _join_key(evaluator, plan.inner_keys, inner_env)
        if key is not None:
            inner.append((key, inner_env))
    inner.sort(key=lambda pair: pair[0])
    keys_only = [pair[0] for pair in inner]
    inner_pad = _inner_quantifiers(inner_plan)

    def group(key) -> Iterator[Env]:
        if key is None:
            return
        index = bisect.bisect_left(keys_only, key)
        while index < len(inner) and inner[index][0] == key:
            yield inner[index][1]
            index += 1

    for outer_env in env_iter(outer_plan, ctx, env):
        key = _join_key(evaluator, plan.outer_keys, outer_env)
        if verdicts is not None:
            if verdicts[any(_scan_preds_ok(evaluator, plan.residual,
                                           {**outer_env, **inner_env})
                            for inner_env in group(key))]:
                yield outer_env
            continue
        matched = False
        for inner_env in group(key):
            merged = {**outer_env, **inner_env}
            if _scan_preds_ok(evaluator, plan.residual, merged):
                matched = True
                yield merged
        if not matched and kind.preserves_outer:
            yield _pad_nulls(outer_env, inner_pad)


def _run_subquery_join(plan: pl.SubqueryJoin, ctx: ExecutionContext,
                       env: Env) -> Iterator[Env]:
    evaluator = Evaluator(ctx)
    kind = _kinds(ctx).get(plan.kind, ctx.functions)
    binding = plan.binding
    quantifier = binding.quantifier

    for outer_env in env_iter(plan.children[0], ctx, env):
        rows = evaluator.subquery_rows(binding, outer_env)
        if kind.scalar:
            if len(rows) > 1:
                raise SubqueryError(
                    "scalar subquery returned %d rows" % len(rows))
            out = dict(outer_env)
            out[quantifier] = rows[0] if rows else None
            if _scan_preds_ok(evaluator, plan.preds, out):
                yield out
            continue
        if kind.combine is None:
            raise ExecutionError(
                "join kind %s cannot drive a subquery join" % kind.name)

        def outcomes():
            for row in rows:
                inner_env = dict(outer_env)
                inner_env[quantifier] = row
                verdict: Optional[bool] = True
                for predicate in plan.preds:
                    verdict = kleene_and(
                        verdict,
                        evaluator.eval_bool(predicate.expr, inner_env))
                    if verdict is False:
                        break
                yield verdict

        if kind.combine(outcomes()) is True:
            yield outer_env


def _run_temp_env(plan: pl.Temp, ctx: ExecutionContext,
                  env: Env) -> Iterator[Env]:
    return iter(list(env_iter(plan.children[0], ctx, env)))


# ---------------------------------------------------------------------------
# Exchange operators (intra-query parallelism)
# ---------------------------------------------------------------------------


def _run_exchange_rows(plan: pl.Exchange, ctx: ExecutionContext,
                       env: Env) -> Iterator[Tuple[Any, ...]]:
    """Run an Exchange: fan the child subtree out over page-range morsels
    via the database's parallel runtime, or degrade to inline dop=1.

    Inline execution of the child is always byte-identical to the
    parallel path, so every degradation is safe; reasons are recorded in
    ``stats.parallel_reasons``.
    """
    runtime = ctx.parallel
    if runtime is None:
        # No runtime attached (serial serve, EXPLAIN, inside a worker):
        # the child runs inline at dop=1.
        return rows_iter(plan.children[0], ctx, env)
    if env:
        # Opened with outer bindings (e.g. as a re-opened join inner):
        # workers fork from an empty environment, so degrade per subtree.
        ctx.stats.parallel_fallbacks += 1
        ctx.stats.parallel_reasons.append(
            "%s opened with outer bindings" % plan.op_name)
        return rows_iter(plan.children[0], ctx, env)
    if plan.mode == "repartition":
        # A bare REPARTITION (DBC-built) has no PARTITIONGATHER consumer
        # to drive the shuffle protocol; degrade honestly.
        ctx.stats.parallel_fallbacks += 1
        ctx.stats.parallel_reasons.append(
            "REPARTITION without a PARTITIONGATHER consumer")
        return rows_iter(plan.children[0], ctx, env)
    return runtime.run_exchange(plan, ctx)


def _run_partition_gather(plan, ctx: ExecutionContext,
                          env: Env) -> Iterator[Tuple[Any, ...]]:
    """Run a PARTITIONGATHER: shuffle the sources across worker
    processes, execute the child partition-wise, merge back into serial
    order.  Degrades to inline dop=1 like every Exchange."""
    runtime = ctx.parallel
    if runtime is None:
        return rows_iter(plan.children[0], ctx, env)
    if env:
        ctx.stats.parallel_fallbacks += 1
        ctx.stats.parallel_reasons.append(
            "%s opened with outer bindings" % plan.op_name)
        return rows_iter(plan.children[0], ctx, env)
    return runtime.run_partitioned(plan, ctx)


def _run_exchange_env(plan: pl.Exchange, ctx: ExecutionContext,
                      env: Env) -> Iterator[Env]:
    """Binding-stream Exchange: inside a partition-wise worker a
    REPARTITION node's stream is the shuffled feed for this worker's
    partition; everywhere else (serial execution, fallbacks, DBC-built
    plans) the node is a transparent pass-through of its child."""
    feeds = ctx.repartition_feeds
    if feeds is not None:
        feed = feeds.get(id(plan))
        if feed is not None:
            return iter(feed)
    return env_iter(plan.children[0], ctx, env)


# ---------------------------------------------------------------------------
# Dispatch tables
# ---------------------------------------------------------------------------

from repro.optimizer.boxopt import _SingletonPlan  # noqa: E402

_ROW_OPS = {
    pl.Project: _run_project,
    pl.Distinct: _run_distinct,
    pl.LimitOp: _run_limit,
    pl.TopSort: _run_topsort,
    pl.SetOpPlan: _run_setop,
    pl.GroupBy: _run_groupby,
    pl.TableFunctionPlan: _run_table_function,
    pl.Recurse: _run_recurse,
    pl.Temp: _run_temp_rows,
    pl.Ship: _run_ship_rows,
    pl.InsertPlan: _run_insert,
    pl.UpdatePlan: _run_update,
    pl.DeletePlan: _run_delete,
    pl.Exchange: _run_exchange_rows,
    pl.Gather: _run_exchange_rows,
    pl.MergeGather: _run_exchange_rows,
    pl.Repartition: _run_exchange_rows,
    pl.PartitionGather: _run_partition_gather,
}

_ENV_OPS = {
    pl.TableScan: _run_table_scan,
    pl.IndexScan: _run_index_scan,
    pl.DerivedScan: _run_derived_scan,
    pl.DeltaScan: _run_delta_scan,
    pl.Filter: _run_filter,
    pl.QuantifiedFilter: _run_quantified_filter,
    pl.Sort: _run_sort,
    pl.NLJoin: _run_nl_join,
    pl.HashJoin: _run_hash_join,
    pl.MergeJoin: _run_merge_join,
    pl.SubqueryJoin: _run_subquery_join,
    pl.Temp: _run_temp_env,
    pl.Ship: _run_ship_rows,
    pl.Exchange: _run_exchange_env,
    pl.Gather: _run_exchange_env,
    pl.MergeGather: _run_exchange_env,
    pl.Repartition: _run_exchange_env,
    pl.PartitionGather: _run_exchange_env,
    _SingletonPlan: _run_singleton,
}


def register_row_operator(plan_class, handler) -> None:
    """DBC extension point: interpreter for a new row-producing LOLEPOP."""
    _ROW_OPS[plan_class] = handler


def register_env_operator(plan_class, handler) -> None:
    """DBC extension point: interpreter for a new binding-stream LOLEPOP."""
    _ENV_OPS[plan_class] = handler
