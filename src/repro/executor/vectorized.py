"""Batch-at-a-time (vectorized) execution engine.

Section 7's algebraic QEP interface "can also serve as the input
specification to a component that compiles QEPs into iterative programs
[FREY86]".  This module is that component's second half (the expression
half lives in :mod:`repro.executor.compiled`): instead of the stream
interpreter's one-environment-per-row dispatch, operators here move
**batches** of rows — per-column Python lists plus a selection vector —
and evaluate expressions column-wise over a whole batch at once.

Two batch containers mirror the interpreter's two stream flavours:

- :class:`EnvBatch` — a *binding* batch: columns keyed by
  ``(quantifier, position)`` (plus ``("rid", q)`` and an optional
  ``("present", q)`` mask for NULL-padded outer-join rows),
- :class:`RowBatch` — a *row* batch: positional output columns.

Columns may be lazy (thunks): a table scan registers one decode thunk per
column, so only the columns an expression actually touches are ever
deserialized (column pruning — the main source of the scan speedup).

**Fallback boundaries.**  Not every LOLEPOP has a batch form (on-demand
E/A/S subqueries, lateral-correlated setformers, DBC join kinds,
recursion, DML).  The refinement phase marks each node's
``exec_backend`` via the ExecBackend STAR; adapters convert between
batch and tuple streams at every boundary, so an unsupported fragment
falls back **per subtree, never per query**.  ``ctx.stats.batches``
counts produced batches and ``ctx.stats.fallbacks`` counts boundary
crossings, so EXPLAIN-style inspection and benchmarks can show what
actually ran.

**Error equivalence.**  Batch operators replicate the interpreter's
evaluation order: predicates narrow the selection vector one predicate
at a time (later predicates never see filtered-out rows), head
expressions run only on surviving rows, and the batch expression
closures mask error-capable sub-expressions to exactly the rows the
scalar closures would evaluate.  Within one batch, errors surface in
evaluation-stage order rather than strict row order; every error class
the workload can produce (division by zero) is typed identically across
backends, so this is unobservable.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import ExecutionError, SubqueryError
from repro.executor.compiled import ExprCompiler, _NotCompilable
from repro.executor.context import ExecutionContext
from repro.executor.evaluator import Env, Evaluator
from repro.executor.kinds import default_join_kinds
from repro.executor.run import (
    _inner_quantifiers,
    _kinds,
    _leaf_rows_ok,
    _null_last_key,
    _Reversed,
    _scan_partition,
    env_iter,
    rows_iter,
)
from repro.optimizer import plans as pl
from repro.qgm import expressions as qe


# ---------------------------------------------------------------------------
# Batch containers
# ---------------------------------------------------------------------------


class EnvBatch:
    """A batch of binding-stream rows, stored column-wise.

    ``cols``/``lazy`` map keys to full-length (physical) columns:

    - ``(quantifier, position)`` — one column of one iterator's rows,
    - ``("rid", quantifier)`` — record ids (table/index scans),
    - ``("present", quantifier)`` — False where an outer join padded the
      quantifier's row with NULLs (absent = all rows present).

    ``sel`` is the selection vector: the physical row indices that are
    logically alive, in order (None = all of ``range(n)``).  Filters
    narrow ``sel`` instead of copying columns.
    """

    __slots__ = ("n", "sel", "cols", "lazy", "arity")

    def __init__(self, n: int, arity: Optional[Dict] = None):
        self.n = n
        self.sel: Optional[List[int]] = None
        self.cols: Dict[Any, Any] = {}
        self.lazy: Dict[Any, Any] = {}
        #: quantifier -> number of columns in its rows.
        self.arity: Dict[Any, int] = dict(arity) if arity else {}

    def col(self, quantifier, position: int):
        """Full-length column for one iterator column (the batch-compiled
        closures' accessor)."""
        return self.column((quantifier, position))

    def column(self, key):
        col = self.cols.get(key)
        if col is None:
            thunk = self.lazy.pop(key, None)
            if thunk is None:
                raise ExecutionError("batch has no column %r" % (key,))
            col = thunk()
            self.cols[key] = col
        return col

    def has(self, key) -> bool:
        return key in self.cols or key in self.lazy

    def keys(self):
        out = set(self.cols)
        out.update(self.lazy)
        return out

    def indices(self) -> List[int]:
        return self.sel if self.sel is not None else list(range(self.n))

    def take(self, indices: List[int]) -> "EnvBatch":
        """A new batch gathering the given physical rows (lazily)."""
        out = EnvBatch(len(indices), self.arity)
        for key in self.keys():
            out.lazy[key] = _gather_thunk(self, key, indices)
        return out

    def compact(self) -> "EnvBatch":
        if self.sel is None:
            return self
        return self.take(self.sel)

    def envs(self, base_env: Env) -> Iterator[Env]:
        """Reconstruct tuple-interpreter environments (the batch → tuple
        adapter).  Padded rows come back as ``env[q] = None`` exactly as
        ``_pad_nulls`` produces them."""
        per_quantifier = []
        for quantifier in sorted(self.arity, key=lambda q: q.uid):
            cols = [self.column((quantifier, position))
                    for position in range(self.arity[quantifier])]
            present = (self.column(("present", quantifier))
                       if self.has(("present", quantifier)) else None)
            rid = (self.column(("rid", quantifier))
                   if self.has(("rid", quantifier)) else None)
            per_quantifier.append((quantifier, cols, present, rid))
        for i in self.indices():
            env = dict(base_env)
            for quantifier, cols, present, rid in per_quantifier:
                if present is not None and not present[i]:
                    env[quantifier] = None
                else:
                    env[quantifier] = tuple(col[i] for col in cols)
                if rid is not None and rid[i] is not None:
                    env[("rid", quantifier)] = rid[i]
            yield env


class RowBatch:
    """A batch of plain output rows, stored column-wise."""

    __slots__ = ("n", "columns", "sel")

    def __init__(self, columns: List[List[Any]], n: int):
        self.columns = columns
        self.n = n
        self.sel: Optional[List[int]] = None

    def indices(self) -> List[int]:
        return self.sel if self.sel is not None else list(range(self.n))

    def iter_rows(self) -> Iterator[Tuple[Any, ...]]:
        if self.sel is None:
            return zip(*self.columns) if self.columns else iter(())
        return zip(*[[col[i] for i in self.sel] for col in self.columns])

    @classmethod
    def from_rows(cls, rows: List[Tuple[Any, ...]]) -> "RowBatch":
        if not rows:
            return cls([], 0)
        return cls([list(col) for col in zip(*rows)], len(rows))


def _gather_thunk(batch: EnvBatch, key, indices: List[int]):
    def thunk():
        col = batch.column(key)
        return [col[i] for i in indices]
    return thunk


def _pad_gather_thunk(batch: EnvBatch, key, indices: List[int]):
    """Like :func:`_gather_thunk` but index -1 yields None (outer-join
    padding)."""
    def thunk():
        col = batch.column(key)
        return [col[i] if i >= 0 else None for i in indices]
    return thunk


class _RecordSource:
    """Shared lazy decode state for one scan batch: per-column decoding
    with one NULL-bitmap screening pass (and at most one whole-row decode
    when a column has no static offset)."""

    __slots__ = ("records", "serializer", "_dirty", "_rows")

    def __init__(self, records, serializer):
        self.records = records
        self.serializer = serializer
        self._dirty: Optional[List[int]] = None
        self._rows: Optional[List[Tuple[Any, ...]]] = None

    def column(self, position: int) -> List[Any]:
        serializer = self.serializer
        decoder = serializer.column_decoder(position)
        if decoder is None:
            if self._rows is None:
                deserialize = serializer.deserialize
                self._rows = [deserialize(rec) for rec in self.records]
            return [row[position] for row in self._rows]
        col = decoder(self.records)
        if self._dirty is None:
            self._dirty = serializer.null_rows(self.records)
        if self._dirty:
            byte, bit = position // 8, 1 << (position % 8)
            records = self.records
            for i in self._dirty:
                if records[i][byte] & bit:
                    col[i] = None
        return col


def _source_thunk(source: _RecordSource, position: int):
    return lambda: source.column(position)


# ---------------------------------------------------------------------------
# Predicate application
# ---------------------------------------------------------------------------


def _apply_preds(batch: EnvBatch, preds, params) -> List[int]:
    """Narrow the batch's live indices one predicate at a time (mirrors
    ``_scan_preds_ok``: later predicates never run on rejected rows)."""
    idx = batch.indices()
    for fn in preds:
        if not idx:
            break
        values = fn(batch, idx, params)
        idx = [i for i, v in zip(idx, values) if v is True]
    return idx


# ---------------------------------------------------------------------------
# Stream adapters (the fallback boundaries)
# ---------------------------------------------------------------------------


def _env_batches(plan: pl.PlanOp, ctx: ExecutionContext,
                 env: Env) -> Iterator[EnvBatch]:
    """Binding batches of a child plan: native when the child is
    batch-marked, otherwise adapted from the tuple interpreter (counted
    as a fallback)."""
    if plan.exec_backend == "batch":
        handler = _BATCH_ENV_OPS[type(plan)]
        stream = handler(plan, ctx, env)
        if ctx.profile is not None:
            stream = ctx.profile.iter_batches(plan, stream)
        for batch in stream:
            ctx.stats.batches += 1
            yield batch
        return
    ctx.stats.fallbacks += 1
    quantifiers = sorted(plan.props.quantifiers, key=lambda q: q.uid)
    stream = env_iter(plan, ctx, env)
    batch_size = ctx.batch_size
    while True:
        chunk = list(itertools.islice(stream, batch_size))
        if not chunk:
            return
        ctx.stats.batches += 1
        yield _envs_to_batch(chunk, quantifiers)


def _envs_to_batch(chunk: List[Env], quantifiers) -> EnvBatch:
    batch = EnvBatch(len(chunk))
    for quantifier in quantifiers:
        arity = len(quantifier.input.head.columns)
        batch.arity[quantifier] = arity
        rows = [env[quantifier] for env in chunk]
        if any(row is None for row in rows):
            batch.cols[("present", quantifier)] = [
                row is not None for row in rows]
            for position in range(arity):
                batch.cols[(quantifier, position)] = [
                    None if row is None else row[position] for row in rows]
        else:
            cols = list(zip(*rows)) if rows else []
            for position in range(arity):
                batch.cols[(quantifier, position)] = cols[position]
        rid_key = ("rid", quantifier)
        if any(rid_key in env for env in chunk):
            batch.cols[rid_key] = [env.get(rid_key) for env in chunk]
    return batch


def _row_batches(plan: pl.PlanOp, ctx: ExecutionContext,
                 env: Env) -> Iterator[RowBatch]:
    """Row batches of a child plan; adapts tuple children like
    :func:`_env_batches`."""
    if plan.exec_backend == "batch":
        handler = _BATCH_ROW_OPS[type(plan)]
        stream = handler(plan, ctx, env)
        if ctx.profile is not None:
            stream = ctx.profile.iter_batches(plan, stream)
        for batch in stream:
            ctx.stats.batches += 1
            yield batch
        return
    ctx.stats.fallbacks += 1
    stream = rows_iter(plan, ctx, env)
    batch_size = ctx.batch_size
    while True:
        chunk = list(itertools.islice(stream, batch_size))
        if not chunk:
            return
        ctx.stats.batches += 1
        yield RowBatch.from_rows(chunk)


def envs_from_batches(plan: pl.PlanOp, ctx: ExecutionContext, env: Env,
                      count_fallback: bool = True) -> Iterator[Env]:
    """Tuple-side adapter: a batch-marked binding subtree consumed by a
    tuple parent (``env_iter`` routes here)."""
    if count_fallback:
        ctx.stats.fallbacks += 1
    handler = _BATCH_ENV_OPS[type(plan)]
    stream = handler(plan, ctx, env)
    if ctx.profile is not None:
        stream = ctx.profile.iter_batches(plan, stream)
    for batch in stream:
        ctx.stats.batches += 1
        yield from batch.envs(env)


def rows_from_batches(plan: pl.PlanOp, ctx: ExecutionContext, env: Env,
                      count_fallback: bool = True
                      ) -> Iterator[Tuple[Any, ...]]:
    """Tuple-side adapter: a batch-marked row subtree consumed by a tuple
    parent (``rows_iter`` routes here; also the plan-root boundary)."""
    if count_fallback:
        ctx.stats.fallbacks += 1
    handler = _BATCH_ROW_OPS[type(plan)]
    stream = handler(plan, ctx, env)
    if ctx.profile is not None:
        stream = ctx.profile.iter_batches(plan, stream)
    for batch in stream:
        ctx.stats.batches += 1
        yield from batch.iter_rows()


# ---------------------------------------------------------------------------
# Batch operators — binding streams
# ---------------------------------------------------------------------------


def _b_table_scan(plan: pl.TableScan, ctx: ExecutionContext,
                  env: Env) -> Iterator[EnvBatch]:
    quantifier = plan.quantifier
    table_name = plan.table.name
    serializer = ctx.engine.serializer(table_name)
    arity = {quantifier: plan.table.arity}
    preds = plan.batch_preds
    params = ctx.params
    page_range = ctx.morsel_range if plan is ctx.morsel_scan else None
    partition = _scan_partition(plan, ctx, env)
    for make_rids, records in ctx.engine.scan_batches(
            ctx.txn, table_name, ctx.batch_size, page_range, partition):
        n = len(records)
        ctx.stats.rows_scanned += n
        source = _RecordSource(records, serializer)
        batch = EnvBatch(n, arity)
        for position in range(plan.table.arity):
            batch.lazy[(quantifier, position)] = _source_thunk(
                source, position)
        batch.lazy[("rid", quantifier)] = make_rids
        if preds:
            sel = _apply_preds(batch, preds, params)
            if not sel:
                continue
            batch.sel = sel
        yield batch


def _b_index_scan(plan: pl.IndexScan, ctx: ExecutionContext,
                  env: Env) -> Iterator[EnvBatch]:
    # Probe setup mirrors _run_index_scan; eq/range expressions evaluate
    # scalar against the (possibly correlated) outer environment.
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
    arity = {quantifier: plan.table.arity}
    preds = plan.batch_preds
    params = ctx.params
    rid_stream = iter(rid_stream)
    while True:
        pairs = list(itertools.islice(rid_stream, ctx.batch_size))
        if not pairs:
            return
        ctx.stats.rows_scanned += len(pairs)
        rows = [ctx.engine.fetch(ctx.txn, table_name, rid)
                for _key, rid in pairs]
        batch = EnvBatch(len(rows), arity)
        cols = list(zip(*rows))
        for position in range(plan.table.arity):
            batch.cols[(quantifier, position)] = cols[position]
        batch.cols[("rid", quantifier)] = [rid for _key, rid in pairs]
        if preds:
            sel = _apply_preds(batch, preds, params)
            if not sel:
                continue
            batch.sel = sel
        yield batch


def _b_derived_scan(plan: pl.DerivedScan, ctx: ExecutionContext,
                    env: Env) -> Iterator[EnvBatch]:
    quantifier = plan.quantifier
    arity = {quantifier: len(quantifier.input.head.columns)}
    preds = plan.batch_preds
    params = ctx.params
    for rbatch in _row_batches(plan.children[0], ctx, env):
        idx = rbatch.indices()
        if not idx:
            continue
        batch = EnvBatch(len(idx), arity)
        if rbatch.sel is None:
            for position, col in enumerate(rbatch.columns):
                batch.cols[(quantifier, position)] = col
        else:
            for position, col in enumerate(rbatch.columns):
                batch.cols[(quantifier, position)] = [col[i] for i in idx]
        if preds:
            sel = _apply_preds(batch, preds, params)
            if not sel:
                continue
            batch.sel = sel
        yield batch


def _b_filter(plan: pl.Filter, ctx: ExecutionContext,
              env: Env) -> Iterator[EnvBatch]:
    preds = plan.batch_preds
    params = ctx.params
    for batch in _env_batches(plan.children[0], ctx, env):
        sel = _apply_preds(batch, preds, params)
        if not sel:
            continue
        batch.sel = sel
        yield batch


def _b_sort(plan: pl.Sort, ctx: ExecutionContext,
            env: Env) -> Iterator[EnvBatch]:
    batches = list(_env_batches(plan.children[0], ctx, env))
    ctx.stats.sorts += 1
    if not batches:
        return
    whole = _concat_env(batches)
    idx = whole.indices()
    params = ctx.params
    key_columns = [(fn(whole, idx, params), ascending)
                   for fn, ascending in plan.batch_keys]
    keys = []
    for p in range(len(idx)):
        key = []
        for col, ascending in key_columns:
            value = col[p]
            null_rank = value is None
            base = value if value is not None else 0
            key.append((null_rank, base if ascending else _Reversed(base)))
        keys.append(tuple(key))
    order = sorted(range(len(idx)), key=keys.__getitem__)
    whole.sel = [idx[p] for p in order]
    yield whole


def _concat_env(batches: List[EnvBatch]) -> EnvBatch:
    """One compacted batch holding every row of ``batches`` in order."""
    compacted = [batch.compact() for batch in batches]
    if len(compacted) == 1:
        return compacted[0]
    keys = set()
    arity: Dict[Any, int] = {}
    for batch in compacted:
        keys.update(batch.keys())
        arity.update(batch.arity)
    out = EnvBatch(sum(batch.n for batch in compacted), arity)
    for key in keys:
        # A key can be missing from some batches (rid columns on padded
        # chunks, present masks on pad-free chunks): fill the identity.
        fill = True if key[0] == "present" else None
        out.lazy[key] = _concat_thunk(compacted, key, fill)
    return out


def _concat_thunk(batches: List[EnvBatch], key, fill):
    def thunk():
        col: List[Any] = []
        for batch in batches:
            if batch.has(key):
                col.extend(batch.column(key))
            else:
                col.extend([fill] * batch.n)
        return col
    return thunk


def _empty_inner(inner_pad) -> EnvBatch:
    """Zero-row inner with every value column materialized, so the join
    tail can still NULL-pad preserved outer rows against it."""
    arity = _quantifier_arity(inner_pad)
    batch = EnvBatch(0, arity)
    for quantifier, width in arity.items():
        for position in range(width):
            batch.cols[(quantifier, position)] = []
    return batch


def _b_hash_join(plan: pl.HashJoin, ctx: ExecutionContext,
                 env: Env) -> Iterator[EnvBatch]:
    kind = _kinds(ctx).get(plan.kind, ctx.functions)
    outer_plan, inner_plan = plan.children
    params = ctx.params
    preserves_outer = kind.preserves_outer
    inner_pad = _inner_quantifiers(inner_plan)

    # Build: materialize + compact the inner, hash its key columns.
    inner_batches = list(_env_batches(inner_plan, ctx, env))
    inner = (_concat_env(inner_batches) if inner_batches
             else _empty_inner(inner_pad))
    build_idx = inner.indices()
    table: Dict[Tuple, List[int]] = {}
    if build_idx:
        key_columns = [fn(inner, build_idx, params)
                       for fn in plan.batch_inner_keys]
        for p in range(len(build_idx)):
            key = tuple(col[p] for col in key_columns)
            if any(value is None for value in key):
                continue  # SQL join keys never match on NULL
            table.setdefault(key, []).append(build_idx[p])
    inner_keys = inner.keys()
    residual = plan.batch_residual
    # Semi/anti joins (no residual: see _capable) keep an outer row by
    # whether its bucket exists, narrowing the outer batch's selection.
    verdicts = kind.semijoin_verdicts() if kind.semijoin else None

    for obatch in _env_batches(outer_plan, ctx, env):
        oidx = obatch.indices()
        if not oidx:
            continue
        okey_columns = [fn(obatch, oidx, params)
                        for fn in plan.batch_outer_keys]
        if verdicts is not None:
            sel = []
            for p, oi in enumerate(oidx):
                key = tuple(col[p] for col in okey_columns)
                if verdicts[None not in key and key in table]:
                    sel.append(oi)
            if sel:
                obatch.sel = sel
                yield obatch
            continue
        pairs_outer: List[int] = []
        pairs_inner: List[int] = []
        bounds: List[Tuple[int, int]] = []
        for p, oi in enumerate(oidx):
            key = tuple(col[p] for col in okey_columns)
            start = len(pairs_outer)
            if not any(value is None for value in key):
                for j in table.get(key, ()):
                    pairs_outer.append(oi)
                    pairs_inner.append(j)
            bounds.append((start, len(pairs_outer)))

        result = _emit_pairs(obatch, oidx, inner, inner_keys, inner_pad,
                             pairs_outer, pairs_inner, bounds, residual,
                             preserves_outer, params)
        if result is not None:
            yield result


def _emit_pairs(obatch: EnvBatch, oidx: List[int], inner: EnvBatch,
                inner_keys, inner_pad, pairs_outer: List[int],
                pairs_inner: List[int], bounds: List[Tuple[int, int]],
                residual, preserves_outer: bool,
                params) -> Optional[EnvBatch]:
    """Shared join tail: residual predicates narrow the candidate pairs,
    survivors interleave with NULL padding in outer-row order."""
    arity = dict(obatch.arity)
    arity.update(inner.arity)
    if residual and pairs_outer:
        merged = EnvBatch(len(pairs_outer), arity)
        for key in obatch.keys():
            merged.lazy[key] = _gather_thunk(obatch, key, pairs_outer)
        for key in inner_keys:
            merged.lazy[key] = _gather_thunk(inner, key, pairs_inner)
        surviving = _apply_preds(merged, residual, params)
    else:
        surviving = list(range(len(pairs_outer)))

    out_outer: List[int] = []
    out_inner: List[int] = []  # -1 = NULL-padded inner row
    any_pad = False
    si = 0
    total = len(surviving)
    for p, oi in enumerate(oidx):
        _start, end = bounds[p]
        matched = False
        while si < total and surviving[si] < end:
            out_outer.append(oi)
            out_inner.append(pairs_inner[surviving[si]])
            matched = True
            si += 1
        if not matched and preserves_outer:
            out_outer.append(oi)
            out_inner.append(-1)
            any_pad = True
    if not out_outer:
        return None

    result = EnvBatch(len(out_outer), arity)
    for key in obatch.keys():
        result.lazy[key] = _gather_thunk(obatch, key, out_outer)
    for key in inner_keys:
        result.lazy[key] = _pad_gather_thunk(inner, key, out_inner)
    if any_pad:
        for quantifier in inner_pad:
            present_key = ("present", quantifier)
            if inner.has(present_key):
                base = inner.column(present_key)
                col = [j >= 0 and bool(base[j]) for j in out_inner]
            else:
                col = [j >= 0 for j in out_inner]
            result.lazy.pop(present_key, None)
            result.cols[present_key] = col
    return result


def _b_nl_join(plan: pl.NLJoin, ctx: ExecutionContext,
               env: Env) -> Iterator[EnvBatch]:
    """Batch nested-loop join over a Temp-materialized (uncorrelated)
    inner: the cross product of each outer batch with the cached inner,
    narrowed by the join predicates.  Lateral inners (re-opened with
    outer bindings per row) stay on the tuple interpreter."""
    kind = _kinds(ctx).get(plan.kind, ctx.functions)
    outer_plan, inner_plan = plan.children
    params = ctx.params
    preserves_outer = kind.preserves_outer
    inner_pad = _inner_quantifiers(inner_plan)

    inner_batches = list(_env_batches(inner_plan, ctx, env))
    inner = (_concat_env(inner_batches) if inner_batches
             else _empty_inner(inner_pad))
    iidx = inner.indices()
    n_inner = len(iidx)
    inner_keys = inner.keys()
    preds = plan.batch_preds

    for obatch in _env_batches(outer_plan, ctx, env):
        oidx = obatch.indices()
        if not oidx:
            continue
        pairs_outer: List[int] = []
        pairs_inner: List[int] = []
        bounds: List[Tuple[int, int]] = []
        for oi in oidx:
            start = len(pairs_outer)
            pairs_outer.extend([oi] * n_inner)
            pairs_inner.extend(iidx)
            bounds.append((start, len(pairs_outer)))
        result = _emit_pairs(obatch, oidx, inner, inner_keys, inner_pad,
                             pairs_outer, pairs_inner, bounds, preds,
                             preserves_outer, params)
        if result is not None:
            yield result


def _b_merge_join(plan: pl.MergeJoin, ctx: ExecutionContext,
                  env: Env) -> Iterator[EnvBatch]:
    """Batch merge join: the inner materializes once and sorts by key;
    each outer row's matching group is located by binary search (the
    same semantic merge as the interpreter, so duplicate groups come
    back in identical order)."""
    import bisect

    kind = _kinds(ctx).get(plan.kind, ctx.functions)
    outer_plan, inner_plan = plan.children
    params = ctx.params
    preserves_outer = kind.preserves_outer
    inner_pad = _inner_quantifiers(inner_plan)

    inner_batches = list(_env_batches(inner_plan, ctx, env))
    inner = (_concat_env(inner_batches) if inner_batches
             else _empty_inner(inner_pad))
    build_idx = inner.indices()
    sorted_pairs: List[Tuple[Tuple, int]] = []
    if build_idx:
        key_columns = [fn(inner, build_idx, params)
                       for fn in plan.batch_inner_keys]
        for p in range(len(build_idx)):
            key = tuple(col[p] for col in key_columns)
            if any(value is None for value in key):
                continue  # SQL join keys never match on NULL
            sorted_pairs.append((key, build_idx[p]))
        sorted_pairs.sort(key=lambda pair: pair[0])
    keys_only = [pair[0] for pair in sorted_pairs]
    inner_keys = inner.keys()
    residual = plan.batch_residual

    for obatch in _env_batches(outer_plan, ctx, env):
        oidx = obatch.indices()
        if not oidx:
            continue
        okey_columns = [fn(obatch, oidx, params)
                        for fn in plan.batch_outer_keys]
        pairs_outer: List[int] = []
        pairs_inner: List[int] = []
        bounds: List[Tuple[int, int]] = []
        for p, oi in enumerate(oidx):
            key = tuple(col[p] for col in okey_columns)
            start = len(pairs_outer)
            if not any(value is None for value in key):
                index = bisect.bisect_left(keys_only, key)
                while index < len(sorted_pairs) \
                        and sorted_pairs[index][0] == key:
                    pairs_outer.append(oi)
                    pairs_inner.append(sorted_pairs[index][1])
                    index += 1
            bounds.append((start, len(pairs_outer)))
        result = _emit_pairs(obatch, oidx, inner, inner_keys, inner_pad,
                             pairs_outer, pairs_inner, bounds, residual,
                             preserves_outer, params)
        if result is not None:
            yield result


def _b_temp(plan: pl.Temp, ctx: ExecutionContext,
            env: Env) -> Iterator[EnvBatch]:
    """TEMP passes batches through; batch parents that replay (the NL
    join) materialize the stream themselves."""
    yield from _env_batches(plan.children[0], ctx, env)


def _quantifier_arity(quantifiers) -> Dict[Any, int]:
    return {q: len(q.input.head.columns) for q in quantifiers}


# ---------------------------------------------------------------------------
# Batch operators — row streams
# ---------------------------------------------------------------------------


class _PendingSubquery:
    """Placeholder in an uncorrelated scalar subquery's result cell.

    ``_b_project`` seeds each cell with one of these at stream open; the
    first compiled column closure that actually reads the cell swaps it
    for the subquery's single row (or None when it returns no rows).
    Keeping the fill inside the *read* preserves the tuple evaluator's
    evaluate-on-demand laziness: a subquery behind a short-circuited
    operand (``FALSE AND (SELECT ...)``) is never run, so an error it
    would raise — a multi-row result, a division by zero inside it —
    stays masked exactly as on the scalar path.
    """

    __slots__ = ("binding", "ctx", "env")

    def __init__(self, binding, ctx: ExecutionContext, env: Env):
        self.binding = binding
        self.ctx = ctx
        self.env = env

    def fill(self) -> Optional[Tuple[Any, ...]]:
        rows = Evaluator(self.ctx).subquery_rows(self.binding, self.env)
        if len(rows) > 1:
            raise SubqueryError(
                "scalar subquery returned %d rows" % len(rows))
        return rows[0] if rows else None


def _b_project(plan: pl.Project, ctx: ExecutionContext,
               env: Env) -> Iterator[RowBatch]:
    params = ctx.params
    fns = plan.batch_exprs
    cells = getattr(plan, "batch_subquery_cells", None)
    if not cells:
        for batch in _env_batches(plan.children[0], ctx, env):
            idx = batch.indices()
            if not idx:
                continue
            columns = [fn(batch, idx, params) for fn in fns]
            ctx.stats.rows_emitted += len(idx)
            yield RowBatch(columns, len(idx))
        return
    # Uncorrelated scalar subqueries: bind for the evaluator, seed each
    # result cell lazily, and clear on close so a cached plan's next
    # execution re-evaluates against its own context.
    ctx.bind_subplans(plan.subplans)
    try:
        for binding, cell in cells:
            cell[0] = _PendingSubquery(binding, ctx, env)
        for batch in _env_batches(plan.children[0], ctx, env):
            idx = batch.indices()
            if not idx:
                continue
            columns = [fn(batch, idx, params) for fn in fns]
            ctx.stats.rows_emitted += len(idx)
            yield RowBatch(columns, len(idx))
    finally:
        ctx.unbind_subplans(plan.subplans)
        for _binding, cell in cells:
            cell[0] = None


def _b_distinct(plan: pl.Distinct, ctx: ExecutionContext,
                env: Env) -> Iterator[RowBatch]:
    seen = set()
    for rbatch in _row_batches(plan.children[0], ctx, env):
        kept = []
        for row in rbatch.iter_rows():
            if row not in seen:
                seen.add(row)
                kept.append(row)
        if kept:
            yield RowBatch.from_rows(kept)


def _b_limit(plan: pl.LimitOp, ctx: ExecutionContext,
             env: Env) -> Iterator[RowBatch]:
    remaining = plan.limit
    if remaining <= 0:
        return
    for rbatch in _row_batches(plan.children[0], ctx, env):
        idx = rbatch.indices()
        if len(idx) >= remaining:
            rbatch.sel = idx[:remaining]
            yield rbatch
            return
        remaining -= len(idx)
        yield rbatch


def _b_topsort(plan: pl.TopSort, ctx: ExecutionContext,
               env: Env) -> Iterator[RowBatch]:
    rows: List[Tuple[Any, ...]] = []
    for rbatch in _row_batches(plan.children[0], ctx, env):
        rows.extend(rbatch.iter_rows())
    ctx.stats.sorts += 1
    rows.sort(key=lambda row: _null_last_key(row, plan.positions))
    if rows:
        yield RowBatch.from_rows(rows)


def _b_setop(plan: pl.SetOpPlan, ctx: ExecutionContext,
             env: Env) -> Iterator[RowBatch]:
    if plan.op == "union":
        if plan.all_rows:
            for child in plan.children:
                yield from _row_batches(child, ctx, env)
            return
        seen = set()
        for child in plan.children:
            for rbatch in _row_batches(child, ctx, env):
                kept = []
                for row in rbatch.iter_rows():
                    if row not in seen:
                        seen.add(row)
                        kept.append(row)
                if kept:
                    yield RowBatch.from_rows(kept)
        return
    # INTERSECT / EXCEPT fold pairwise, left to right (see _run_setop).
    left: List[Tuple[Any, ...]] = []
    for rbatch in _row_batches(plan.children[0], ctx, env):
        left.extend(rbatch.iter_rows())
    for child in plan.children[1:]:
        right_counts: Counter = Counter()
        for rbatch in _row_batches(child, ctx, env):
            right_counts.update(rbatch.iter_rows())
        folded: List[Tuple[Any, ...]] = []
        if plan.op == "intersect":
            if plan.all_rows:
                budget = Counter(right_counts)
                for row in left:
                    if budget[row] > 0:
                        budget[row] -= 1
                        folded.append(row)
            else:
                emitted = set()
                for row in left:
                    if right_counts[row] > 0 and row not in emitted:
                        emitted.add(row)
                        folded.append(row)
        else:  # except
            if plan.all_rows:
                budget = Counter(right_counts)
                for row in left:
                    if budget[row] > 0:
                        budget[row] -= 1
                    else:
                        folded.append(row)
            else:
                emitted = set()
                for row in left:
                    if right_counts[row] == 0 and row not in emitted:
                        emitted.add(row)
                        folded.append(row)
        left = folded
    if left:
        yield RowBatch.from_rows(left)


def _b_groupby(plan: pl.GroupBy, ctx: ExecutionContext,
               env: Env) -> Iterator[RowBatch]:
    params = ctx.params
    groups: Dict[Tuple, List[Any]] = {}
    distinct_seen: Dict[Tuple[Tuple, int], set] = {}
    order: List[Tuple] = []
    functions: Optional[List[Any]] = None
    aggregates = plan.aggregates

    def agg_functions() -> List[Any]:
        out = []
        for agg in aggregates:
            function = ctx.functions.aggregate(agg.name)
            if function is None:
                raise ExecutionError("unknown aggregate %s" % agg.name)
            out.append(function)
        return out

    for batch in _env_batches(plan.children[0], ctx, env):
        idx = batch.indices()
        if not idx:
            continue
        if functions is None:
            functions = agg_functions()
        key_columns = [fn(batch, idx, params)
                       for fn in plan.batch_group_exprs]
        arg_columns = [fn(batch, idx, params) if fn is not None else None
                       for fn in plan.batch_agg_args]
        for p in range(len(idx)):
            key = tuple(col[p] for col in key_columns)
            accumulators = groups.get(key)
            if accumulators is None:
                accumulators = [f.factory() for f in functions]
                groups[key] = accumulators
                order.append(key)
            for index, agg in enumerate(aggregates):
                col = arg_columns[index]
                if col is None:
                    value: Any = 1  # COUNT(*)
                else:
                    value = col[p]
                    if value is None and not functions[index].handles_null:
                        continue
                if agg.distinct:
                    seen = distinct_seen.setdefault((key, index), set())
                    if value in seen:
                        continue
                    seen.add(value)
                accumulators[index].step(value)

    if not groups and not plan.group_exprs:
        # SQL: aggregation over an empty input yields one row.
        if functions is None:
            functions = agg_functions()
        accumulators = [f.factory() for f in functions]
        yield RowBatch.from_rows(
            [tuple(acc.final() for acc in accumulators)])
        return
    rows = [key + tuple(acc.final() for acc in groups[key])
            for key in order]
    if rows:
        yield RowBatch.from_rows(rows)


# ---------------------------------------------------------------------------
# Dispatch tables
# ---------------------------------------------------------------------------


_BATCH_ENV_OPS = {
    pl.TableScan: _b_table_scan,
    pl.IndexScan: _b_index_scan,
    pl.DerivedScan: _b_derived_scan,
    pl.Filter: _b_filter,
    pl.Sort: _b_sort,
    pl.HashJoin: _b_hash_join,
    pl.NLJoin: _b_nl_join,
    pl.MergeJoin: _b_merge_join,
    pl.Temp: _b_temp,
}

_BATCH_ROW_OPS = {
    pl.Project: _b_project,
    pl.Distinct: _b_distinct,
    pl.LimitOp: _b_limit,
    pl.TopSort: _b_topsort,
    pl.SetOpPlan: _b_setop,
    pl.GroupBy: _b_groupby,
}


# ---------------------------------------------------------------------------
# Backend selection (refinement phase)
# ---------------------------------------------------------------------------

def select_backends(plan: pl.PlanOp, generator, functions, join_kinds,
                    options) -> ExprCompiler:
    """Mark each node's ``exec_backend`` via the ExecBackend STAR.

    Walks children only (subplan bindings always run on the tuple
    interpreter — they are the evaluate-on-demand machinery; a Project
    over *uncorrelated scalar* subqueries still batches, feeding the
    tuple-evaluated result through a cell), checks per
    node whether the batch engine structurally supports it (operator
    type, batch-compilable and *self-contained* expressions, supported
    join kind), and lets the STAR decide.  In ``batch`` mode every
    capable node is marked; in ``auto`` mode only contiguous capable
    subtrees over enough rows are, which keeps adapter crossings at the
    genuinely unsupported boundaries.
    """
    compiler = ExprCompiler(functions)
    kinds = join_kinds if join_kinds is not None else default_join_kinds()
    mode = options.execution_mode

    def decide(node: pl.PlanOp) -> bool:
        children_batch = True
        for child in node.children:
            if not decide(child):
                children_batch = False
        capable = _capable(node, compiler, kinds, functions)
        eligible = capable and children_batch and _leaf_rows_ok(node)
        generator.evaluate("ExecBackend", plan=node, capable=capable,
                           mode=mode, eligible=eligible)
        return node.exec_backend == "batch"

    decide(plan)

    def mark_boundaries(node: pl.PlanOp, parent_batch: bool) -> None:
        # EXPLAIN annotation: a tuple-marked node under a batch parent is
        # where this subtree fell back to the stream interpreter (an
        # adapter sits on this edge at run time).
        if parent_batch and node.exec_backend != "batch":
            node.fallback_mark = "tuple"
        for child in node.children:
            mark_boundaries(child, node.exec_backend == "batch")

    mark_boundaries(plan, False)
    return compiler


def _capable(node: pl.PlanOp, compiler: ExprCompiler, kinds,
             functions) -> bool:
    """Can the batch engine run this node?  On success, attaches the
    batch-compiled expression closures the handlers need."""
    node_type = type(node)
    if node_type in (pl.TableScan, pl.IndexScan):
        # eq/range probe expressions stay scalar (they evaluate against
        # the outer environment once per open); only the row predicates
        # run batch and must be self-contained.
        return _prep_preds(node, compiler, {node.quantifier})
    if node_type is pl.DerivedScan:
        return _prep_preds(node, compiler, {node.quantifier})
    if node_type is pl.Filter:
        return _prep_preds(
            node, compiler, node.children[0].props.quantifiers)
    if node_type in (pl.HashJoin, pl.MergeJoin):
        try:
            kind = kinds.get(node.kind, functions)
        except Exception:
            return False
        # The batch hash/merge joins implement the binding semantics
        # (regular/left_outer-shaped kinds); the hash join also runs
        # semi/anti joins without residual.  Other combine kinds and
        # scalar kinds keep the interpreter.
        if kind.scalar:
            return False
        if kind.combine is not None:
            if not (kind.semijoin and node_type is pl.HashJoin
                    and not node.residual):
                return False
        elif not kind.binds_inner:
            return False
        outer_q = node.children[0].props.quantifiers
        inner_q = node.children[1].props.quantifiers
        outer_keys = _compile_all(node.outer_keys, compiler, outer_q)
        inner_keys = _compile_all(node.inner_keys, compiler, inner_q)
        if outer_keys is None or inner_keys is None:
            return False
        residual = _compile_all(
            [p.expr for p in node.residual], compiler, outer_q | inner_q)
        if residual is None:
            return False
        node.batch_outer_keys = outer_keys
        node.batch_inner_keys = inner_keys
        node.batch_residual = residual
        return True
    if node_type is pl.NLJoin:
        try:
            kind = kinds.get(node.kind, functions)
        except Exception:
            return False
        if not kind.binds_inner or kind.scalar or kind.combine is not None:
            return False
        # Only Temp'd (uncorrelated, materialized-once) inners: a lateral
        # inner re-opens with each outer row's bindings, which is exactly
        # the per-row dispatch batching cannot express.
        if not isinstance(node.children[1], pl.Temp):
            return False
        outer_q = node.children[0].props.quantifiers
        inner_q = node.children[1].props.quantifiers
        preds = _compile_all([p.expr for p in node.preds], compiler,
                             outer_q | inner_q)
        if preds is None:
            return False
        node.batch_preds = preds
        return True
    if node_type is pl.Temp:
        return True
    if node_type is pl.Sort:
        keys = _compile_all([expr for expr, _asc in node.keys], compiler,
                            node.children[0].props.quantifiers)
        if keys is None:
            return False
        node.batch_keys = [(fn, ascending) for fn, (_expr, ascending)
                           in zip(keys, node.keys)]
        return True
    if node_type is pl.Project:
        if node.subplans:
            # Uncorrelated scalar subqueries batch fine: the subplan is
            # still evaluated by the tuple machinery (once, on demand),
            # and its single row feeds the column closures through a
            # shared cell.  Correlation would need per-row re-evaluation
            # — that stays on the tuple interpreter.
            cells: Dict[Any, List[Any]] = {}
            for binding in node.subplans:
                if binding.correlation or binding.quantifier.qtype != "S":
                    return False
                cells[binding.quantifier] = [None]
            sub_compiler = _ScalarSubqueryCompiler(functions, cells)
            allowed = set(node.children[0].props.quantifiers) | set(cells)
            exprs = _compile_all(node.exprs, sub_compiler, allowed)
            if exprs is None:
                return False
            node.batch_exprs = exprs
            node.batch_subquery_cells = [
                (binding, cells[binding.quantifier])
                for binding in node.subplans]
            return True
        exprs = _compile_all(node.exprs, compiler,
                             node.children[0].props.quantifiers)
        if exprs is None:
            return False
        node.batch_exprs = exprs
        return True
    if node_type is pl.GroupBy:
        allowed = node.children[0].props.quantifiers
        group_exprs = _compile_all(node.group_exprs, compiler, allowed)
        if group_exprs is None:
            return False
        agg_args: List[Any] = []
        for agg in node.aggregates:
            if agg.arg is None:
                agg_args.append(None)
                continue
            fns = _compile_all([agg.arg], compiler, allowed)
            if fns is None:
                return False
            agg_args.append(fns[0])
        node.batch_group_exprs = group_exprs
        node.batch_agg_args = agg_args
        return True
    if node_type in (pl.Distinct, pl.LimitOp, pl.TopSort, pl.SetOpPlan):
        # Pure row-shufflers: no expressions to compile.
        return True
    return False


def _prep_preds(node: pl.PlanOp, compiler: ExprCompiler, allowed) -> bool:
    fns = _compile_all([p.expr for p in node.preds], compiler, allowed)
    if fns is None:
        return False
    node.batch_preds = fns
    return True


class _ScalarSubqueryCompiler(ExprCompiler):
    """Batch compiler that additionally resolves uncorrelated scalar
    subquery quantifiers: a reference reads the quantifier's result cell
    (filled lazily with the subquery's single row by
    :class:`_PendingSubquery`) and broadcasts the value down the batch.
    """

    def __init__(self, functions, cells: Dict[Any, List[Any]]):
        super().__init__(functions)
        self.cells = cells

    def compile_batch(self, expr: qe.QExpr):
        for quantifier in qe.quantifiers_in(expr):
            if not quantifier.is_setformer and quantifier not in self.cells:
                self.batch_fallback_count += 1
                return None
        try:
            fn = self._compile_batch(expr)
        except _NotCompilable:
            self.batch_fallback_count += 1
            return None
        self.batch_compiled_count += 1
        return fn

    def _can_raise(self, expr: qe.QExpr) -> bool:
        # A subquery reference can raise (multi-row result, or any error
        # inside the subplan), so it must keep the scalar short-circuit
        # treatment: only evaluate where the guarding operand demands it.
        for node in qe.walk(expr):
            if isinstance(node, qe.ColRef) and node.quantifier in self.cells:
                return True
        return ExprCompiler._can_raise(expr)

    def _cb_colref(self, expr: qe.ColRef):
        cell = self.cells.get(expr.quantifier)
        if cell is None:
            return super()._cb_colref(expr)
        position = expr.quantifier.input.head.index_of(expr.column)

        def get_subquery_column(batch, idx, params):
            if not idx:
                return []
            row = cell[0]
            if type(row) is _PendingSubquery:
                row = cell[0] = row.fill()
            value = None if row is None else row[position]
            return [value] * len(idx)

        return get_subquery_column


def _compile_all(exprs, compiler: ExprCompiler, allowed) -> Optional[List]:
    """Batch-compile every expression, requiring self-containment: all
    referenced quantifiers must be bound inside the subtree (this is what
    excludes lateral-correlated setformers from the batch engine)."""
    fns = []
    for expr in exprs:
        if not qe.quantifiers_in(expr) <= set(allowed):
            return None
        fn = compiler.compile_batch(expr)
        if fn is None:
            return None
        fns.append(fn)
    return fns
