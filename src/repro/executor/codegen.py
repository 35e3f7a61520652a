"""Pipeline-fusion code generation: the third execution backend.

Section 7 of the paper notes the algebraic QEP interface "can also serve
as the input specification to a component that compiles QEPs into
iterative programs [FREY86]".  :mod:`repro.executor.compiled` compiles
*expressions* and :mod:`repro.executor.vectorized` amortizes operator
dispatch per batch — but the batch engine still walks an operator tree
and re-resolves columns for every batch.  This module goes the rest of
the way, the way raco emits one specialized template per pipeline: it
splits the plan at pipeline breakers (hash build, group-by, sort,
exchanges, Temp), and for each pipeline emits **one specialized Python
function** — the whole scan→filter→probe→sink chain fused into a single
loop with pre-resolved column offsets and the predicates, join keys and
head expressions inlined as Python source.  The generated function is
``compile()``d once (and cached by its source text, so structurally
identical pipelines in *different* statements share one code object) and
driven by the storage layer's ``scan_batches``/``page_range`` morsels.

**Region grammar.**  A fusable *region* is a maximal ``compiled``-marked
subtree of this shape::

    region := postop* core
    postop := DISTINCT | LIMIT | ORDERBY        (run by the driver)
    core   := PROJECT(chain)                    (no subquery streams)
            | GROUPBY(chain)
            | PROJECT(ACCESS(GROUPBY(chain)))   (grouped: driver-level
                                                 HAVING + head project)
    chain  := SCAN | FILTER(chain) | HASHJOIN(chain, chain)
            | ACCESS(PROJECT(chain))            (folded by substitution)

``ACCESS(PROJECT(...))`` pairs — how the optimizer binds a derived box's
rows to a quantifier — are *folded away*: references to the access
quantifier are substituted with the project's head expressions, so the
indirection costs nothing at run time.  Every HASHJOIN inner input
becomes its own *build* pipeline (emitting a key → payload-rows hash
table); the final pipeline runs the probe chain and the sink.  Nested
joins nest naturally: a build chain may itself contain probes.

**Fallback contract.**  Selection reuses the ExecBackend STAR: a node is
offered ``compiled`` only when it is batch-capable *and* fusable, so a
``compiled`` mark can always be demoted to ``batch`` (the batch closures
are already attached).  Regions that fail validation — including regions
broken up *after* selection by the parallel glue's exchange splices —
demote wholesale to the batch engine, recorded per node in
``plan.codegen_fallbacks`` and counted at runtime in
``stats.fallbacks`` exactly like the batch→tuple boundaries.

**Semantics.**  Inlined expressions reproduce the scalar closures of
:class:`~repro.executor.compiled.ExprCompiler` operator for operator
(NULL short-circuits, lazy right operands, eager ``||``, typed division
errors, lazily-raising parameter references), so a fused pipeline is
row-for-row and error-for-error identical to the interpreters.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import DivisionByZeroError, ExecutionError
from repro.executor.compiled import ExprCompiler
from repro.executor.context import ExecutionContext
from repro.executor.evaluator import _like_regex
from repro.executor.kinds import default_join_kinds
from repro.executor import vectorized
from repro.executor.run import _null_last_key, _scan_partition
from repro.optimizer import plans as pl
from repro.qgm import expressions as qe


class _NotFused(Exception):
    """Internal: this region cannot be fused; demote it to batch."""


# ---------------------------------------------------------------------------
# Helpers referenced from generated code
# ---------------------------------------------------------------------------

#: Sentinel for "parameter slot not bound" (the generated code raises
#: lazily, per evaluation, like the scalar closure does).
_MISS = object()


def _dz():
    raise DivisionByZeroError("division by zero")


def _np(index):
    raise ExecutionError("no value bound for parameter %d" % (index + 1))


def _exec_globals() -> Dict[str, Any]:
    return {"Source": vectorized._RecordSource, "_dz": _dz, "_np": _np,
            "_MISS": _MISS, "_E": (), "_part": _scan_partition}


# ---------------------------------------------------------------------------
# Code-object cache (cross-statement sharing)
# ---------------------------------------------------------------------------

#: pipeline source text -> compiled code object.  The source *is* the
#: structural fingerprint: column positions, table names, parameter
#: indices and operator structure are baked in, while everything
#: identity-bearing (scan nodes, regexes, aggregate functions, build
#: tables) is passed through the per-pipeline runtime arguments — so two
#: statements with structurally identical pipelines share one code
#: object.
_CODE_CACHE: Dict[str, Any] = {}
_CACHE_HITS = 0
_CACHE_MISSES = 0
#: Concurrent serving sessions compile pipelines in parallel; the cache
#: probe + counter bump is a read-modify-write and needs the lock (a
#: duplicate ``compile()`` would be harmless, a lost counter is not).
_CACHE_LOCK = threading.Lock()


def reinit_locks() -> None:
    """Fresh module lock after ``fork()`` (a parent thread may have held
    the old one at fork time)."""
    global _CACHE_LOCK
    _CACHE_LOCK = threading.Lock()


def codegen_cache_stats() -> Dict[str, int]:
    """Hit/miss counters for the shared pipeline code-object cache."""
    with _CACHE_LOCK:
        return {"entries": len(_CODE_CACHE), "hits": _CACHE_HITS,
                "misses": _CACHE_MISSES}


def _materialize(source: str) -> Tuple[Any, bool]:
    """Compile (or fetch) the pipeline's code object and bind it into a
    fresh globals dict.  Returns ``(function, shared)``."""
    global _CACHE_HITS, _CACHE_MISSES
    with _CACHE_LOCK:
        code = _CODE_CACHE.get(source)
    shared = code is not None
    if code is None:
        code = compile(source, "<codegen>", "exec")
        with _CACHE_LOCK:
            _CODE_CACHE[source] = code
            _CACHE_MISSES += 1
    else:
        with _CACHE_LOCK:
            _CACHE_HITS += 1
    namespace = _exec_globals()
    exec(code, namespace)
    return namespace["_p"], shared


# ---------------------------------------------------------------------------
# Inline-ability (selection-time structural check)
# ---------------------------------------------------------------------------

_INLINE_BINOPS = frozenset(
    ["and", "or", "=", "<>", "<", "<=", ">", ">=", "||",
     "+", "-", "*", "/", "%"])


def _inline_reason(expr: qe.QExpr) -> Optional[str]:
    """None when ``expr`` can be emitted as inline Python source,
    otherwise the reason it cannot (FuncCall/Cast need registry dispatch;
    dynamic LIKE recompiles per row; exotic constants do not repr)."""
    for node in qe.walk(expr):
        if isinstance(node, qe.Const):
            if node.value is not None and not isinstance(
                    node.value, (bool, int, float, str)):
                return "non-literal constant"
        elif isinstance(node, qe.BinOp):
            if node.op not in _INLINE_BINOPS:
                return "operator %s" % node.op
        elif isinstance(node, qe.LikeOp):
            if not (isinstance(node.pattern, qe.Const)
                    and node.pattern.value is not None):
                return "dynamic LIKE pattern"
        elif isinstance(node, (qe.ColRef, qe.ParamRef, qe.Not, qe.Neg,
                               qe.IsNullTest, qe.CaseOp)):
            pass
        else:
            return "expression %s" % type(node).__name__
    return None


# ---------------------------------------------------------------------------
# Expression emission
# ---------------------------------------------------------------------------

_CMP = {"=": "==", "<>": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}


class _ExprGen:
    """Emits inline Python source for one pipeline's expressions.

    ``value(expr)`` produces an expression-source whose runtime value
    matches the scalar closure exactly; ``cond(expr)`` produces a source
    that is *truthy iff the scalar value is True* (the form predicates
    use: ``if not <cond>: continue``), allowing cheaper short-circuits
    where the difference is unobservable (no error-capable operand is
    skipped that the scalar closure would evaluate).
    """

    def __init__(self, colmap: Dict[Tuple[Any, int], str],
                 rx_index: Dict[str, int]):
        self.colmap = colmap
        #: LIKE pattern -> slot in this pipeline's ``rt.rx`` tuple.
        self.rx_index = rx_index
        self.used_params: set = set()
        self._tmp = 0

    def tmp(self) -> str:
        name = "_t%d" % self._tmp
        self._tmp += 1
        return name

    def _rx(self, pattern: str) -> int:
        slot = self.rx_index.get(pattern)
        if slot is None:
            slot = len(self.rx_index)
            self.rx_index[pattern] = slot
        return slot

    @staticmethod
    def lit(expr: qe.QExpr) -> Optional[str]:
        """The operand's literal source when it is a non-NULL constant —
        such operands need no None-guard (and a constant divisor needs
        no per-row zero test), which keeps the hot loop tight."""
        if isinstance(expr, qe.Const) and expr.value is not None \
                and isinstance(expr.value, (bool, int, float, str)):
            return repr(expr.value)
        return None

    # -- value forms ----------------------------------------------------------

    def value(self, expr: qe.QExpr) -> str:
        method = getattr(self, "_v_%s" % type(expr).__name__.lower(), None)
        if method is None:
            raise _NotFused("expression %s" % type(expr).__name__)
        return method(expr)

    def _v_const(self, expr: qe.Const) -> str:
        value = expr.value
        if value is not None and not isinstance(value,
                                                (bool, int, float, str)):
            raise _NotFused("non-literal constant")
        return repr(value)

    def _v_paramref(self, expr: qe.ParamRef) -> str:
        self.used_params.add(expr.index)
        return ("(_pp%d if _pp%d is not _MISS else _np(%d))"
                % (expr.index, expr.index, expr.index))

    def _v_colref(self, expr: qe.ColRef) -> str:
        position = expr.quantifier.input.head.index_of(expr.column)
        source = self.colmap.get((expr.quantifier, position))
        if source is None:
            raise _NotFused("column %s.%s not produced in this pipeline"
                            % (expr.quantifier.name, expr.column))
        return source

    def _v_binop(self, expr: qe.BinOp) -> str:
        op = expr.op
        if op == "and":
            a, b = self.tmp(), self.tmp()
            return ("(False if (%s := %s) is False else "
                    "(False if (%s := %s) is False else "
                    "(None if %s is None or %s is None else True)))"
                    % (a, self.value(expr.left), b, self.value(expr.right),
                       a, b))
        if op == "or":
            a, b = self.tmp(), self.tmp()
            return ("(True if (%s := %s) is True else "
                    "(True if (%s := %s) is True else "
                    "(None if %s is None or %s is None else False)))"
                    % (a, self.value(expr.left), b, self.value(expr.right),
                       a, b))
        if op in _CMP:
            return self._v_guarded(expr, _CMP[op])
        if op == "||":
            # Both sides evaluate eagerly (the 2-tuple is always truthy).
            a, b = self.tmp(), self.tmp()
            return ("(((%s := %s), (%s := %s)) and "
                    "(None if %s is None or %s is None else "
                    "str(%s) + str(%s)))"
                    % (a, self.value(expr.left), b, self.value(expr.right),
                       a, b, a, b))
        if op in ("+", "-", "*"):
            return self._v_guarded(expr, op)
        if op in ("/", "%"):
            right_lit = self.lit(expr.right)
            if right_lit is not None:
                divisor = expr.right.value
                body = "_dz()" if divisor == 0 else None
                return self._v_guarded(expr, op, body=body)
            left_lit = self.lit(expr.left)
            b = self.tmp()
            if left_lit is not None:
                return ("(None if (%s := %s) is None else "
                        "(_dz() if %s == 0 else (%s %s %s)))"
                        % (b, self.value(expr.right), b, left_lit, op, b))
            a = self.tmp()
            return ("(None if (%s := %s) is None else "
                    "(None if (%s := %s) is None else "
                    "(_dz() if %s == 0 else (%s %s %s))))"
                    % (a, self.value(expr.left), b, self.value(expr.right),
                       b, a, op, b))
        raise _NotFused("operator %s" % op)

    def _v_guarded(self, expr: qe.BinOp, op: str,
                   body: Optional[str] = None) -> str:
        """``left op right`` with a None-guard only on the non-constant
        sides; ``body`` overrides the result source (constant-zero
        divisor)."""
        left_lit = self.lit(expr.left)
        right_lit = self.lit(expr.right)
        if left_lit is not None and right_lit is not None:
            return body or "(%s %s %s)" % (left_lit, op, right_lit)
        if right_lit is not None:
            a = self.tmp()
            return ("(None if (%s := %s) is None else %s)"
                    % (a, self.value(expr.left),
                       body or "(%s %s %s)" % (a, op, right_lit)))
        if left_lit is not None:
            b = self.tmp()
            return ("(None if (%s := %s) is None else %s)"
                    % (b, self.value(expr.right),
                       body or "(%s %s %s)" % (left_lit, op, b)))
        a, b = self.tmp(), self.tmp()
        return ("(None if (%s := %s) is None else "
                "(None if (%s := %s) is None else %s))"
                % (a, self.value(expr.left), b, self.value(expr.right),
                   body or "(%s %s %s)" % (a, op, b)))

    def _v_not(self, expr: qe.Not) -> str:
        t = self.tmp()
        return ("(None if (%s := %s) is None else (not %s))"
                % (t, self.value(expr.operand), t))

    def _v_neg(self, expr: qe.Neg) -> str:
        t = self.tmp()
        return ("(None if (%s := %s) is None else (-%s))"
                % (t, self.value(expr.operand), t))

    def _v_isnulltest(self, expr: qe.IsNullTest) -> str:
        test = "is not None" if expr.negated else "is None"
        return "((%s) %s)" % (self.value(expr.operand), test)

    def _v_likeop(self, expr: qe.LikeOp) -> str:
        if not (isinstance(expr.pattern, qe.Const)
                and expr.pattern.value is not None):
            raise _NotFused("dynamic LIKE pattern")
        slot = self._rx(expr.pattern.value)
        t = self.tmp()
        test = "is None" if expr.negated else "is not None"
        return ("(None if (%s := %s) is None else (_rx%d(%s) %s))"
                % (t, self.value(expr.operand), slot, t, test))

    def _v_caseop(self, expr: qe.CaseOp) -> str:
        out = (self.value(expr.else_value)
               if expr.else_value is not None else "None")
        # Python's ternary evaluates its condition first, then exactly one
        # branch — the scalar closure's first-True-wins order.
        for condition, value in reversed(expr.whens):
            out = "(%s if %s else %s)" % (self.value(value),
                                          self.cond(condition), out)
        return out

    # -- condition forms ------------------------------------------------------

    def cond(self, expr: qe.QExpr) -> str:
        if isinstance(expr, qe.BinOp):
            op = expr.op
            if op in _CMP:
                left_lit = self.lit(expr.left)
                right_lit = self.lit(expr.right)
                if left_lit is not None and right_lit is not None:
                    return "(%s %s %s)" % (left_lit, _CMP[op], right_lit)
                if right_lit is not None:
                    a = self.tmp()
                    return ("((%s := %s) is not None and %s %s %s)"
                            % (a, self.value(expr.left), a, _CMP[op],
                               right_lit))
                if left_lit is not None:
                    b = self.tmp()
                    return ("((%s := %s) is not None and %s %s %s)"
                            % (b, self.value(expr.right), left_lit,
                               _CMP[op], b))
                a, b = self.tmp(), self.tmp()
                return ("((%s := %s) is not None and "
                        "(%s := %s) is not None and %s %s %s)"
                        % (a, self.value(expr.left),
                           b, self.value(expr.right), a, _CMP[op], b))
            if op == "and":
                if ExprCompiler._can_raise(expr.right):
                    # The scalar closure evaluates the right side even
                    # when the left is NULL (only False short-circuits);
                    # an error-capable right side must keep that order.
                    a, b = self.tmp(), self.tmp()
                    return ("((%s := %s) is not False and "
                            "(%s := %s) is not False and "
                            "%s is not None and %s is not None)"
                            % (a, self.value(expr.left),
                               b, self.value(expr.right), a, b))
                return "(%s and %s)" % (self.cond(expr.left),
                                        self.cond(expr.right))
            if op == "or":
                return "(%s or %s)" % (self.cond(expr.left),
                                       self.cond(expr.right))
        if isinstance(expr, qe.Not):
            return "((%s) is False)" % self.value(expr.operand)
        if isinstance(expr, qe.IsNullTest):
            return self._v_isnulltest(expr)
        if isinstance(expr, qe.LikeOp) and isinstance(expr.pattern, qe.Const) \
                and expr.pattern.value is not None:
            slot = self._rx(expr.pattern.value)
            t = self.tmp()
            test = "is None" if expr.negated else "is not None"
            return ("((%s := %s) is not None and _rx%d(%s) %s)"
                    % (t, self.value(expr.operand), slot, t, test))
        return "((%s) is True)" % self.value(expr)


# ---------------------------------------------------------------------------
# Region parsing and validation
# ---------------------------------------------------------------------------

_POSTOP_TYPES = (pl.Distinct, pl.LimitOp, pl.TopSort)


def _parse_region(root: pl.PlanOp):
    """Split a compiled-marked region into driver-level post-operators,
    an optional grouped wrap ``(project, access)`` over the core, and the
    pipeline core; raises :class:`_NotFused` on any shape the generator
    does not fuse."""
    postops: List[pl.PlanOp] = []
    node = root
    while isinstance(node, _POSTOP_TYPES):
        postops.append(node)
        node = node.children[0]
        if node.exec_backend != "compiled":
            raise _NotFused("%s over non-fused input" % postops[-1].op_name)
    wrap = None
    if isinstance(node, pl.Project):
        if node.subplans:
            raise _NotFused("subquery expressions")
        child = node.children[0]
        if isinstance(child, pl.DerivedScan) \
                and isinstance(child.children[0], pl.GroupBy):
            # The grouped shape: the head PROJECT (and any HAVING preds
            # on the ACCESS) evaluates per *group*, driver-side.
            if child.exec_backend != "compiled" \
                    or child.children[0].exec_backend != "compiled":
                raise _NotFused("grouped core not fused")
            wrap = (node, child)
            node = child.children[0]
    elif not isinstance(node, pl.GroupBy):
        raise _NotFused("region root %s is not a pipeline sink"
                        % node.op_name)
    _check_chain(node.children[0])
    return postops, wrap, node


def _check_chain(node: pl.PlanOp) -> None:
    if node.exec_backend != "compiled":
        raise _NotFused("pipeline input %s not fused" % node.op_name)
    if isinstance(node, pl.TableScan):
        return
    if isinstance(node, pl.Filter):
        _check_chain(node.children[0])
        return
    if isinstance(node, pl.HashJoin):
        _check_chain(node.children[1])
        _check_chain(node.children[0])
        return
    if isinstance(node, pl.DerivedScan):
        inner = node.children[0]
        if not isinstance(inner, pl.Project) or inner.subplans:
            raise _NotFused("ACCESS over %s" % inner.op_name)
        if inner.exec_backend != "compiled":
            raise _NotFused("pipeline input %s not fused" % inner.op_name)
        _check_chain(inner.children[0])
        return
    raise _NotFused("unsupported operator %s in pipeline" % node.op_name)


def _demote_region(node: pl.PlanOp) -> None:
    """Downgrade a contiguous compiled region to the batch engine.

    Always safe: the selection pass only offers ``compiled`` to nodes the
    batch engine is capable of (their batch closures are attached)."""
    if node.exec_backend != "compiled":
        return
    node.exec_backend = "batch"
    for child in node.children:
        _demote_region(child)


def _linearize(chain_top: pl.PlanOp):
    """The chain's SCAN leaf, its steps in execution (bottom-up) order —
    ``("filter", node)`` (Filter or a predicated ACCESS) or
    ``("probe", node)`` — and the substitution mapping that folds each
    spine ``ACCESS(PROJECT(...))`` pair away (access quantifier → the
    project's head expressions)."""
    steps: List[Tuple] = []
    mapping: Dict[Any, list] = {}
    node = chain_top
    while True:
        if isinstance(node, pl.TableScan):
            return node, list(reversed(steps)), mapping
        if isinstance(node, pl.Filter):
            steps.append(("filter", node))
            node = node.children[0]
        elif isinstance(node, pl.HashJoin):
            steps.append(("probe", node))
            node = node.children[0]
        elif isinstance(node, pl.DerivedScan):
            inner = node.children[0]
            if not isinstance(inner, pl.Project) or inner.subplans:
                raise _NotFused("ACCESS over %s" % inner.op_name)
            mapping[node.quantifier] = inner.exprs
            if node.preds:
                steps.append(("filter", node))
            node = inner.children[0]
        else:
            raise _NotFused("unsupported operator %s in pipeline"
                            % node.op_name)


def _subst(expr: qe.QExpr, mapping: Dict[Any, list]) -> qe.QExpr:
    """Recursively replace references to folded access quantifiers with
    the defining projection expressions."""
    if not mapping:
        return expr

    def visit(ref: qe.ColRef) -> Optional[qe.QExpr]:
        exprs = mapping.get(ref.quantifier)
        if exprs is None:
            return None
        position = ref.quantifier.input.head.index_of(ref.column)
        return _subst(exprs[position], mapping)

    return qe.substitute_colrefs(expr, visit)


# ---------------------------------------------------------------------------
# Backend selection (refinement phase)
# ---------------------------------------------------------------------------

#: Auto mode escalates to codegen only for scans at least this large;
#: between run.AUTO_MIN_ROWS and this the batch engine already wins and
#: codegen's per-statement generation cost is not worth paying.
AUTO_COMPILED_MIN_ROWS = 4096.0


def _compiled_rows_ok(node: pl.PlanOp) -> bool:
    if not node.children:
        rows = getattr(node, "input_rows", None)
        if rows is None:
            rows = node.props.card
        return rows >= AUTO_COMPILED_MIN_ROWS
    return True


def _fuse_reason(node: pl.PlanOp, kinds, functions) -> Optional[str]:
    """None when this (batch-capable) node can take part in a fused
    pipeline, otherwise why it cannot."""
    node_type = type(node)
    if node_type in (pl.TableScan, pl.Filter, pl.DerivedScan):
        for predicate in node.preds:
            reason = _inline_reason(predicate.expr)
            if reason:
                return reason
        return None
    if node_type is pl.HashJoin:
        kind = kinds.get(node.kind, functions)
        if kind.preserves_outer:
            return "outer-join padding"
        for expr in list(node.outer_keys) + list(node.inner_keys):
            reason = _inline_reason(expr)
            if reason:
                return reason
        for predicate in node.residual:
            reason = _inline_reason(predicate.expr)
            if reason:
                return reason
        return None
    if node_type is pl.Project:
        if node.subplans:
            return "subquery expressions"
        for expr in node.exprs:
            reason = _inline_reason(expr)
            if reason:
                return reason
        return None
    if node_type is pl.GroupBy:
        for expr in node.group_exprs:
            reason = _inline_reason(expr)
            if reason:
                return reason
        for agg in node.aggregates:
            if functions.aggregate(agg.name) is None:
                # The interpreters raise at runtime; demoting to batch
                # preserves that error exactly.
                return "unknown aggregate %s" % agg.name
            if agg.arg is not None:
                reason = _inline_reason(agg.arg)
                if reason:
                    return reason
        return None
    if node_type in _POSTOP_TYPES:
        return None
    return "unsupported operator %s" % node.op_name


def select_backends(plan: pl.PlanOp, generator, functions, join_kinds,
                    options) -> ExprCompiler:
    """Three-way ExecBackend selection for ``execution_mode`` "compiled"
    and "auto": offer the STAR ``compiled`` for fusable nodes on top of
    the batch/tuple decision :func:`vectorized.select_backends` makes.

    Every node marked ``compiled`` is also batch-capable (the batch
    closures are attached here), which is what makes region demotion —
    at validation below, or after the parallel glue reshapes the plan —
    always safe.
    """
    compiler = ExprCompiler(functions)
    kinds = join_kinds if join_kinds is not None else default_join_kinds()
    mode = options.execution_mode
    fallbacks: List[Tuple[str, str]] = []

    def decide(node: pl.PlanOp) -> None:
        for child in node.children:
            decide(child)
        batchish = all(child.exec_backend != "tuple"
                       for child in node.children)
        capable = vectorized._capable(node, compiler, kinds, functions)
        eligible = capable and batchish and vectorized._leaf_rows_ok(node)
        if capable:
            reason = _fuse_reason(node, kinds, functions)
        else:
            reason = "not batch-capable"
        if reason is None and any(child.exec_backend != "compiled"
                                  for child in node.children):
            reason = None if not node.children else "input not fused"
        if reason is not None and mode == "compiled" \
                and reason != "input not fused":
            fallbacks.append((node.op_name, reason))
        wants = reason is None and (
            mode == "compiled"
            or (mode == "auto" and eligible and _compiled_rows_ok(node)))
        generator.evaluate("ExecBackend", plan=node, capable=capable,
                           mode=mode, eligible=eligible, compiled=wants)

    decide(plan)
    plan.codegen_fallbacks = fallbacks
    _finalize_regions(plan, fallbacks)
    _mark_boundaries(plan)
    return compiler


def _finalize_regions(plan: pl.PlanOp, fallbacks) -> None:
    """Validate every maximal compiled region against the region grammar;
    demote the invalid ones (to batch, which is always capable), and
    merge compiled fragments under a batch parent back into its region
    so no batch operator ever consumes a fused child through adapters."""

    def visit(node: pl.PlanOp, parent_backend: str) -> None:
        if node.exec_backend == "compiled" and parent_backend != "compiled":
            if parent_backend == "batch":
                _demote_region(node)
            else:
                try:
                    _parse_region(node)
                except _NotFused as exc:
                    fallbacks.append((node.op_name, str(exc)))
                    _demote_region(node)
        for child in node.children:
            visit(child, node.exec_backend)
        for binding in getattr(node, "subplans", []):
            visit(binding.plan, "tuple")

    visit(plan, "tuple")


def _mark_boundaries(plan: pl.PlanOp) -> None:
    def visit(node: pl.PlanOp, parent_backend: str) -> None:
        if parent_backend in ("batch", "compiled") \
                and node.exec_backend == "tuple":
            node.fallback_mark = "tuple"
        elif parent_backend == "compiled" and node.exec_backend == "batch":
            node.fallback_mark = "batch"
        for child in node.children:
            visit(child, node.exec_backend)

    visit(plan, "tuple")


# ---------------------------------------------------------------------------
# Program generation
# ---------------------------------------------------------------------------


class _Runtime:
    """Identity-bearing values one generated pipeline needs at run time
    (everything structural is baked into its source)."""

    __slots__ = ("scan", "rx", "aggs")

    def __init__(self, scan, rx, aggs):
        self.scan = scan
        self.rx = rx
        self.aggs = aggs


class _Pipeline:
    __slots__ = ("fn", "rt", "consumes", "shared", "source", "table")

    def __init__(self, fn, rt, consumes, shared, source, table):
        self.fn = fn
        self.rt = rt
        #: Program-level indices of the build tables this pipeline's
        #: probes consume, in probe order.
        self.consumes = consumes
        #: True when the code object came from the cross-statement cache.
        self.shared = shared
        self.source = source
        self.table = table


class Program:
    """One fused region: build pipelines, the final pipeline, the
    driver-level post-operators, and — for grouped regions — the
    per-group HAVING predicates and head projection (scalar closures;
    they run once per group, not per row)."""

    __slots__ = ("pipelines", "final_kind", "core", "postops",
                 "n_pipelines", "agg_functions", "source",
                 "wrap_quantifier", "wrap_preds", "wrap_exprs")

    def __init__(self, pipelines, final_kind, core, postops, agg_functions,
                 wrap_quantifier=None, wrap_preds=(), wrap_exprs=None):
        self.pipelines = pipelines
        self.final_kind = final_kind
        self.core = core
        self.postops = postops
        self.n_pipelines = len(pipelines)
        self.agg_functions = agg_functions
        self.source = "\n\n".join(p.source for p in pipelines)
        self.wrap_quantifier = wrap_quantifier
        self.wrap_preds = wrap_preds
        self.wrap_exprs = wrap_exprs


def generate_programs(plan: pl.PlanOp, functions, options,
                      trace=None) -> int:
    """Generate and attach a :class:`Program` to every valid compiled
    region root; demote regions invalidated since selection (exchange
    splices reshape the tree).  Returns the total pipeline count."""
    if plan is None:
        return 0
    fallbacks = getattr(plan, "codegen_fallbacks", None)
    if fallbacks is None:
        fallbacks = plan.codegen_fallbacks = []
    total = 0

    def visit(node: pl.PlanOp, parent_backend: str) -> None:
        nonlocal total
        if node.exec_backend == "compiled" and parent_backend != "compiled":
            try:
                program = _generate(node, functions)
            except _NotFused as exc:
                fallbacks.append((node.op_name, str(exc)))
                _demote_region(node)
            else:
                node.codegen_program = program
                total += program.n_pipelines
                if trace is not None:
                    for index, pipe in enumerate(program.pipelines):
                        trace.event(
                            "codegen.pipeline", region=node.describe(),
                            pipeline=index, table=pipe.table,
                            role=("sink" if pipe is program.pipelines[-1]
                                  else "build"),
                            shared=pipe.shared,
                            source_lines=pipe.source.count("\n") + 1)
        for child in node.children:
            visit(child, node.exec_backend)
        for binding in getattr(node, "subplans", []):
            visit(binding.plan, "tuple")

    visit(plan, "tuple")
    return total


def _generate(root: pl.PlanOp, functions) -> Program:
    postops, wrap, core = _parse_region(root)
    if isinstance(core, pl.GroupBy):
        final_kind = "groupby"
        aggs = []
        for agg in core.aggregates:
            function = functions.aggregate(agg.name)
            if function is None:
                raise _NotFused("unknown aggregate %s" % agg.name)
            aggs.append(function)
        agg_functions = tuple(aggs)
    else:
        final_kind = "project"
        agg_functions = ()

    wrap_quantifier = None
    wrap_preds: list = []
    wrap_exprs = None
    if wrap is not None:
        # HAVING predicates and head expressions over the group rows:
        # scalar closures (ExprCompiler semantics), run once per group.
        project, access = wrap
        compiler = ExprCompiler(functions)
        wrap_quantifier = access.quantifier
        for predicate in access.preds:
            fn = compiler.compile(predicate.expr)
            if fn is None:
                raise _NotFused("uncompilable HAVING predicate")
            wrap_preds.append(fn)
        wrap_exprs = []
        for expr in project.exprs:
            fn = compiler.compile(expr)
            if fn is None:
                raise _NotFused("uncompilable group head expression")
            wrap_exprs.append(fn)

    pipelines: List[_Pipeline] = []
    _emit_pipeline(core.children[0], final_kind, core, None, None,
                   pipelines, agg_functions)
    return Program(pipelines, final_kind, core, postops, agg_functions,
                   wrap_quantifier, tuple(wrap_preds), wrap_exprs)


def _emit_pipeline(chain_top, sink_kind, sink_node, payload, keys,
                   pipelines, agg_functions) -> int:
    """Emit one pipeline (recursively emitting its builds first); appends
    a :class:`_Pipeline` and returns its program-level index."""
    scan, steps, mapping = _linearize(chain_top)

    # Fold the spine's ACCESS(PROJECT(...)) indirections away up front:
    # every expression the pipeline evaluates is substituted down to the
    # scan's and the probes' quantifiers.
    scan_preds = [_subst(p.expr, mapping) for p in scan.preds]
    step_exprs = []
    for step_kind, node in steps:
        if step_kind == "filter":
            step_exprs.append([_subst(p.expr, mapping)
                               for p in node.preds])
        else:
            step_exprs.append((
                [_subst(e, mapping) for e in node.outer_keys],
                [_subst(p.expr, mapping) for p in node.residual]))
    if sink_kind == "project":
        sink_exprs = [_subst(e, mapping) for e in sink_node.exprs]
        agg_args: list = []
    elif sink_kind == "groupby":
        sink_exprs = [_subst(e, mapping) for e in sink_node.group_exprs]
        agg_args = [None if agg.arg is None else _subst(agg.arg, mapping)
                    for agg in sink_node.aggregates]
    else:  # build: the inner keys plus the consumer's payload refs —
        # refs to a folded quantifier become the defining expressions.
        sink_exprs = [_subst(e, mapping) for e in keys]
        agg_args = []
        payload_exprs = [
            _subst(mapping[q][position], mapping) if q in mapping else None
            for (q, position) in payload]

    # Every (quantifier, position) the pipeline touches, in
    # first-encounter order over a fixed structural traversal — the
    # order is part of the structural fingerprint, so it must not depend
    # on object identities.
    refs: Dict[Tuple[Any, int], None] = {}

    def note(expr):
        for node in qe.walk(expr):
            if isinstance(node, qe.ColRef):
                position = node.quantifier.input.head.index_of(node.column)
                refs.setdefault((node.quantifier, position))

    for expr in scan_preds:
        note(expr)
    for (step_kind, _node), exprs in zip(steps, step_exprs):
        if step_kind == "filter":
            for expr in exprs:
                note(expr)
        else:
            for expr in exprs[0]:
                note(expr)
            for expr in exprs[1]:
                note(expr)
    for expr in sink_exprs:
        note(expr)
    for expr in agg_args:
        if expr is not None:
            note(expr)
    if sink_kind == "build":
        for ref, expr in zip(payload, payload_exprs):
            if expr is None:
                refs.setdefault(ref)
            else:
                note(expr)

    # Resolve every reference to a source: the scan's decoded columns, or
    # a slot of some probe's payload rows.
    colmap: Dict[Tuple[Any, int], str] = {}
    scan_positions = sorted(
        {pos for (q, pos) in refs if q is scan.quantifier})
    for position in scan_positions:
        colmap[(scan.quantifier, position)] = "_x%d" % position

    probes = [node for step_kind, node in steps if step_kind == "probe"]
    probe_payloads: List[List[Tuple[Any, int]]] = []
    for k, probe in enumerate(probes):
        inner_q = probe.children[1].props.quantifiers
        pay = [ref for ref in refs if ref[0] in inner_q]
        for slot, ref in enumerate(pay):
            colmap[ref] = "_r%d[%d]" % (k, slot)
        probe_payloads.append(pay)
    for ref in refs:
        if ref not in colmap:
            raise _NotFused("column %s.%s not produced in this pipeline"
                            % (ref[0].name, ref[1]))

    # Builds first (post-order): their tables must exist before the probe
    # pipeline runs; ``consumes`` records their program-level indices.
    consumes = [
        _emit_pipeline(probe.children[1], "build", probe,
                       probe_payloads[k], probe.inner_keys,
                       pipelines, agg_functions)
        for k, probe in enumerate(probes)]

    rx_index: Dict[str, int] = {}
    gen = _ExprGen(colmap, rx_index)
    body: List[Tuple[int, str]] = []
    indent = 0
    for expr in scan_preds:
        body.append((indent, "if not %s: continue" % gen.cond(expr)))
    probe_no = 0
    for (step_kind, _node), exprs in zip(steps, step_exprs):
        if step_kind == "filter":
            for expr in exprs:
                body.append((indent, "if not %s: continue"
                             % gen.cond(expr)))
            continue
        k = probe_no
        probe_no += 1
        comps = []
        for m, expr in enumerate(exprs[0]):
            name = "_k%d_%d" % (k, m)
            body.append((indent, "%s = %s" % (name, gen.value(expr))))
            comps.append(name)
        if comps:
            body.append((indent, "if %s: continue"
                         % " or ".join("%s is None" % c for c in comps)))
        body.append((indent, "for _r%d in _ht%d((%s%s), _E):"
                     % (k, k, ", ".join(comps), "," if comps else "")))
        indent += 1
        for expr in exprs[1]:
            body.append((indent, "if not %s: continue" % gen.cond(expr)))

    prologue: List[str] = []
    morsel_prologue: List[str] = []
    morsel_epilogue: List[str] = []
    epilogue: List[str] = []
    if sink_kind == "project":
        morsel_prologue = ["_out = []", "_oapp = _out.append"]
        values = [gen.value(expr) for expr in sink_exprs]
        body.append((indent, "_oapp((%s%s))"
                     % (", ".join(values), "," if values else "")))
        morsel_epilogue = ["stats.rows_emitted += len(_out)", "yield _out"]
    elif sink_kind == "build":
        prologue = ["_tab = {}", "_tget = _tab.get"]
        comps = []
        for m, expr in enumerate(sink_exprs):
            name = "_bk%d" % m
            body.append((indent, "%s = %s" % (name, gen.value(expr))))
            comps.append(name)
        if comps:
            body.append((indent, "if %s: continue"
                         % " or ".join("%s is None" % c for c in comps)))
        body.append((indent, "_kt = (%s%s)"
                     % (", ".join(comps), "," if comps else "")))
        body.append((indent, "_lst = _tget(_kt)"))
        body.append((indent, "if _lst is None:"))
        body.append((indent + 1, "_lst = []"))
        body.append((indent + 1, "_tab[_kt] = _lst"))
        pay_values = [colmap[ref] if expr is None else gen.value(expr)
                      for ref, expr in zip(payload, payload_exprs)]
        body.append((indent, "_lst.append((%s%s))"
                     % (", ".join(pay_values), "," if pay_values else "")))
        epilogue = ["return _tab"]
    else:  # groupby
        prologue = ["_groups = {}", "_order = []",
                    "_ordapp = _order.append", "_gget = _groups.get",
                    "_afs = rt.aggs"]
        if any(agg.distinct for agg in sink_node.aggregates):
            prologue.append("_dseen = {}")
        key_values = [gen.value(expr) for expr in sink_exprs]
        body.append((indent, "_kt = (%s%s)"
                     % (", ".join(key_values), "," if key_values else "")))
        body.append((indent, "_accs = _gget(_kt)"))
        body.append((indent, "if _accs is None:"))
        body.append((indent + 1, "_accs = [_f.factory() for _f in _afs]"))
        body.append((indent + 1, "_groups[_kt] = _accs"))
        body.append((indent + 1, "_ordapp(_kt)"))
        for i, agg in enumerate(sink_node.aggregates):
            _emit_agg_step(body, indent, gen, i, agg, agg_args[i],
                           agg_functions[i])
        epilogue = ["return _groups, _order"]

    source = _assemble(scan, scan_positions, consumes, gen, prologue,
                       morsel_prologue, body, morsel_epilogue, epilogue)
    fn, shared = _materialize(source)
    rx = tuple(_like_regex(pattern)
               for pattern, _slot in sorted(rx_index.items(),
                                            key=lambda item: item[1]))
    rt = _Runtime(scan, rx, agg_functions if sink_kind == "groupby" else ())
    index = len(pipelines)
    pipelines.append(_Pipeline(fn, rt, consumes, shared, source,
                               scan.table.name))
    return index


def _emit_agg_step(body, indent, gen, i, agg, arg, function) -> None:
    """One aggregate's per-row accumulation, mirroring the batch
    group-by: COUNT(*) steps 1, NULL args skip unless the function
    handles them, DISTINCT dedups per (group, aggregate).  The
    handles_null shape is baked into the source — a registry whose
    function differs produces different source, hence a different cache
    entry, so sharing stays sound."""
    if arg is None:
        value = "1"
    else:
        value = "_v%d" % i
        body.append((indent, "%s = %s" % (value, gen.value(arg))))
        if not function.handles_null:
            body.append((indent, "if %s is not None:" % value))
            indent += 1
    if agg.distinct:
        seen = "_sd%d" % i
        body.append((indent, "%s = _dseen.get((_kt, %d))" % (seen, i)))
        body.append((indent, "if %s is None:" % seen))
        body.append((indent + 1, "%s = set()" % seen))
        body.append((indent + 1, "_dseen[(_kt, %d)] = %s" % (i, seen)))
        body.append((indent, "if %s not in %s:" % (value, seen)))
        body.append((indent + 1, "%s.add(%s)" % (seen, value)))
        body.append((indent + 1, "_accs[%d].step(%s)" % (i, value)))
    else:
        body.append((indent, "_accs[%d].step(%s)" % (i, value)))


def _assemble(scan, scan_positions, consumes, gen, prologue,
              morsel_prologue, body, morsel_epilogue, epilogue) -> str:
    lines: List[str] = []
    out = lines.append
    out("def _p(ctx, params, rt, tables):")
    out("    stats = ctx.stats")
    out("    _engine = ctx.engine")
    out("    _ser = _engine.serializer(%r)" % scan.table.name)
    if scan_positions:
        out("    _dec = _ser.combined_decoder((%s,))"
            % ", ".join(str(p) for p in scan_positions))
    for k in range(len(consumes)):
        out("    _ht%d = tables[%d].get" % (k, k))
    for index in sorted(gen.used_params):
        out("    _pp%d = params[%d] if len(params) > %d else _MISS"
            % (index, index, index))
    for pattern, slot in sorted(gen.rx_index.items(),
                                key=lambda item: item[1]):
        out("    _rx%d = rt.rx[%d].match" % (slot, slot))
    for line in prologue:
        out("    " + line)
    out("    _scan = rt.scan")
    out("    _pr = ctx.morsel_range if _scan is ctx.morsel_scan else None")
    out("    _pt = _part(_scan, ctx, {})")
    out("    for _mk, _recs in _engine.scan_batches("
        "ctx.txn, %r, ctx.batch_size, _pr, _pt):" % scan.table.name)
    out("        _n = len(_recs)")
    out("        stats.rows_scanned += _n")
    if scan_positions:
        # One pass over the records when the layout allows (a single
        # pre-resolved struct unpack per record), else per-column decode.
        out("        if _dec is not None:")
        out("            _rows = _dec(_recs)")
        out("        else:")
        out("            _src = Source(_recs, _ser)")
        out("            _rows = zip(%s)"
            % ", ".join("_src.column(%d)" % p for p in scan_positions))
    for line in morsel_prologue:
        out("        " + line)
    if scan_positions:
        names = ", ".join("_x%d" % p for p in scan_positions)
        out("        for %s%s in _rows:"
            % (names, "," if len(scan_positions) == 1 else ""))
    else:
        out("        for _i in range(_n):")
    for depth, line in body:
        out("    " * (3 + depth) + line)
    for line in morsel_epilogue:
        out("        " + line)
    for line in epilogue:
        out("    " + line)
    out("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Drivers (run-time entry points)
# ---------------------------------------------------------------------------


def rows_from_compiled(plan: pl.PlanOp, ctx: ExecutionContext, env,
                       count_fallback: bool = True
                       ) -> Iterator[Tuple[Any, ...]]:
    """Row stream of a compiled region root (``rows_iter`` and the
    plan-root boundary route here).  A compiled mark without a program
    (stale cache entries, exotic callers) silently runs the batch engine
    — the closures are always attached."""
    program = getattr(plan, "codegen_program", None)
    if program is None:
        return vectorized.rows_from_batches(plan, ctx, env, count_fallback)
    if count_fallback:
        ctx.stats.fallbacks += 1
    if ctx.profile is not None:
        return ctx.profile.iter_stream(plan, _run_program, ctx, env)
    return _run_program(plan, ctx, env)


def envs_from_compiled(plan: pl.PlanOp, ctx: ExecutionContext, env,
                       count_fallback: bool = True):
    """Safety net: valid fused regions are always row producers, so a
    binding-stream request means the region was reshaped underneath us —
    serve it from the batch closures."""
    return vectorized.envs_from_batches(plan, ctx, env, count_fallback)


def _run_program(plan: pl.PlanOp, ctx: ExecutionContext,
                 env) -> Iterator[Tuple[Any, ...]]:
    program = plan.codegen_program
    ctx.stats.codegen_pipelines += program.n_pipelines
    rows = _sink_rows(program, ctx)
    for node in reversed(program.postops):
        rows = _postop_rows(node, rows, ctx)
    return rows


def _sink_rows(program: Program,
               ctx: ExecutionContext) -> Iterator[Tuple[Any, ...]]:
    # A generator so the builds run lazily on first pull — the same
    # open-time laziness as the interpreters (LIMIT 0 never builds).
    params = ctx.params
    results: List[Any] = []
    for pipe in program.pipelines[:-1]:
        tables = tuple(results[i] for i in pipe.consumes)
        results.append(pipe.fn(ctx, params, pipe.rt, tables))
    final = program.pipelines[-1]
    tables = tuple(results[i] for i in final.consumes)
    if program.final_kind == "groupby":
        groups, order = final.fn(ctx, params, final.rt, tables)
        if not groups and not program.core.group_exprs:
            # SQL: aggregation over an empty input yields one row.
            rows = iter([tuple(f.factory().final()
                               for f in program.agg_functions)])
        else:
            rows = (key + tuple(acc.final() for acc in groups[key])
                    for key in order)
        if program.wrap_exprs is None:
            yield from rows
            return
        # Grouped wrap: HAVING + head projection, once per group.
        quantifier = program.wrap_quantifier
        preds = program.wrap_preds
        exprs = program.wrap_exprs
        for row in rows:
            env = {quantifier: row}
            if any(fn(env, params) is not True for fn in preds):
                continue
            ctx.stats.rows_emitted += 1
            yield tuple(fn(env, params) for fn in exprs)
        return
    for out in final.fn(ctx, params, final.rt, tables):
        if out:
            yield from out


def _postop_rows(node: pl.PlanOp, rows: Iterator[Tuple[Any, ...]],
                 ctx: ExecutionContext) -> Iterator[Tuple[Any, ...]]:
    if isinstance(node, pl.Distinct):
        return _distinct_rows(rows)
    if isinstance(node, pl.LimitOp):
        if node.limit <= 0:
            return iter(())
        return itertools.islice(rows, node.limit)
    return _topsort_rows(node, rows, ctx)


def _distinct_rows(rows) -> Iterator[Tuple[Any, ...]]:
    seen = set()
    for row in rows:
        if row not in seen:
            seen.add(row)
            yield row


def _topsort_rows(node: pl.TopSort, rows,
                  ctx: ExecutionContext) -> Iterator[Tuple[Any, ...]]:
    data = list(rows)
    ctx.stats.sorts += 1
    data.sort(key=lambda row: _null_last_key(row, node.positions))
    yield from data
