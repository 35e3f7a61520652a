"""STARs: strategy alternative rules, and the rule-driven plan generator.

"Executable plans are defined using a grammar-like set of parameterized
production rules called strategy alternative rules (STARs) ... A STAR
consists of a name (the nonterminals of our grammar), zero or more
parameters, and one or more alternative definitions in terms of LOLEPOPs or
other STAR names.  IF conditions can be attached to any alternative ...
Required properties are achieved by additional *glue* STARs that find the
cheapest plan satisfying the requirements."

The :class:`PlanGenerator` is the paper's three-part design: (1) a
general-purpose STAR evaluator, (2) a search strategy choosing evaluation
order with rank-based pruning, (3) an array of STARs — each part replaceable
without touching the others.  ``default_star_array`` builds the base
system's rule array; counting its rules reproduces the paper's "all of the
R* strategies ... in under 20 rules" claim (benchmark E6).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ExtensionError, OptimizerError
from repro.optimizer.cost import CostModel
from repro.optimizer.plans import (
    DerivedScan,
    Exchange,
    Filter,
    Gather,
    GroupBy,
    HashJoin,
    IndexScan,
    LimitOp,
    MergeGather,
    MergeJoin,
    NLJoin,
    PartitionGather,
    PlanOp,
    Project,
    Repartition,
    Ship,
    Sort,
    SubplanBinding,
    SubqueryJoin,
    TableScan,
    Temp,
    TopSort,
)
from repro.optimizer.properties import order_key
from repro.qgm import expressions as qe
from repro.qgm.model import BaseTableBox, Predicate, Quantifier

Args = Dict[str, Any]
Condition = Callable[["PlanGenerator", Args], bool]
Producer = Callable[["PlanGenerator", Args], List[PlanOp]]


class Alternative:
    """One alternative definition of a STAR: IF condition THEN production.

    ``rank`` orders alternatives; the generator prunes alternatives whose
    rank exceeds the configured cutoff ("alternatives exceeding a given
    rank can be pruned by the plan generator").
    """

    def __init__(self, name: str, produce: Producer,
                 condition: Optional[Condition] = None, rank: float = 1.0):
        self.name = name
        self.produce = produce
        self.condition = condition
        self.rank = rank


class STAR:
    """A named nonterminal with its alternative definitions."""

    def __init__(self, name: str, alternatives: Sequence[Alternative]):
        self.name = name
        self.alternatives = list(alternatives)


class GeneratorStats:
    """Counters reported by the optimizer benchmarks."""

    def __init__(self):
        self.star_evaluations = 0
        self.alternatives_tried = 0
        self.alternatives_pruned = 0
        self.plans_generated = 0

    def reset(self) -> None:
        self.__init__()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return ("<GenStats evals=%d tried=%d pruned=%d plans=%d>"
                % (self.star_evaluations, self.alternatives_tried,
                   self.alternatives_pruned, self.plans_generated))


class PlanGenerator:
    """The STAR evaluator.

    ``context`` supplies the environment rules need:
    ``cm`` (CostModel), ``access_methods(table_name)``, and ``settings``
    (rank_cutoff, sort_by_rank).  The STAR array can be modified (add /
    replace / remove rules) without touching the evaluator — the paper's
    orthogonality requirement.
    """

    def __init__(self, stars: Dict[str, STAR], context):
        # Copy the array one level deep: rule edits made through this
        # generator (add/remove alternatives) must not leak into the
        # database-wide array another compilation will use.
        self.stars = {name: STAR(star.name, list(star.alternatives))
                      for name, star in stars.items()}
        self.context = context
        self.stats = GeneratorStats()
        #: Optional :class:`repro.obs.Trace`; when set, every expansion
        #: that produces plans emits a ``star`` event.
        self.trace = None

    # -- rule array maintenance (DBC API) -----------------------------------------

    def add_star(self, star: STAR, replace: bool = False) -> None:
        if star.name in self.stars and not replace:
            raise ExtensionError("STAR %s already defined" % star.name)
        self.stars[star.name] = star

    def add_alternative(self, star_name: str,
                        alternative: Alternative) -> None:
        try:
            self.stars[star_name].alternatives.append(alternative)
        except KeyError:
            raise ExtensionError("no STAR named %s" % star_name) from None

    def remove_alternative(self, star_name: str, alt_name: str) -> None:
        star = self.stars.get(star_name)
        if star is None:
            raise ExtensionError("no STAR named %s" % star_name)
        star.alternatives = [a for a in star.alternatives
                             if a.name != alt_name]

    def rule_count(self) -> int:
        """Total number of alternatives across the array (E6 benchmark)."""
        return sum(len(star.alternatives) for star in self.stars.values())

    # -- evaluation --------------------------------------------------------------------

    def evaluate(self, star_name: str, **args: Any) -> List[PlanOp]:
        """Expand a STAR: try each applicable alternative, collect plans."""
        star = self.stars.get(star_name)
        if star is None:
            raise OptimizerError("no STAR named %s" % star_name)
        self.stats.star_evaluations += 1
        settings = self.context.settings
        alternatives = star.alternatives
        if settings.sort_by_rank:
            alternatives = sorted(alternatives, key=lambda a: a.rank)
        plans: List[PlanOp] = []
        for alternative in alternatives:
            if alternative.rank > settings.rank_cutoff:
                self.stats.alternatives_pruned += 1
                continue
            if alternative.condition is not None \
                    and not alternative.condition(self, args):
                continue
            self.stats.alternatives_tried += 1
            produced = alternative.produce(self, args)
            self.stats.plans_generated += len(produced)
            plans.extend(produced)
        if self.trace is not None and plans:
            self.trace.event(
                "star", star=star_name, alternatives=len(star.alternatives),
                produced=len(plans),
                plans=[plan.describe() for plan in plans[:3]])
        return plans

    def cheapest(self, star_name: str, **args: Any) -> Optional[PlanOp]:
        plans = self.evaluate(star_name, **args)
        if not plans:
            return None
        return min(plans, key=lambda p: p.props.cost)

    @property
    def cm(self) -> CostModel:
        return self.context.cm


# ---------------------------------------------------------------------------
# Helper predicates for index matching
# ---------------------------------------------------------------------------


def _constant_side(expr: qe.QExpr, quantifier: Quantifier):
    """For ``q.col OP other`` return (col, OP, other-expr) when the other
    side is independent of ``quantifier`` (constant, parameter, or an outer
    correlation)."""
    if not isinstance(expr, qe.BinOp):
        return None
    comparisons = {"=", "<", "<=", ">", ">="}
    if expr.op not in comparisons:
        return None
    mirror = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}
    for left, right, op in ((expr.left, expr.right, expr.op),
                            (expr.right, expr.left, mirror[expr.op])):
        if (isinstance(left, qe.ColRef) and left.quantifier is quantifier
                and quantifier not in qe.quantifiers_in(right)):
            return left.column, op, right
    return None


def match_index(index, quantifier: Quantifier,
                preds: Sequence[Predicate]):
    """Match predicates against an index: equality prefix + optional range.

    Returns (eq_exprs, range_bounds, matched, residual) or None when the
    index is useless for these predicates.
    """
    by_column: Dict[str, List[Tuple[str, qe.QExpr, Predicate]]] = {}
    for predicate in preds:
        hit = _constant_side(predicate.expr, quantifier)
        if hit is not None:
            column, op, other = hit
            by_column.setdefault(column, []).append((op, other, predicate))

    eq_exprs: List[qe.QExpr] = []
    matched: List[Predicate] = []
    range_bounds = None
    for column in index.key_columns:
        hits = by_column.get(column, [])
        eq_hit = next((h for h in hits if h[0] == "="), None)
        if eq_hit is not None:
            eq_exprs.append(eq_hit[1])
            matched.append(eq_hit[2])
            continue
        if index.supports_range:
            low = high = None
            low_inc = high_inc = True
            for op, other, predicate in hits:
                if op in (">", ">=") and low is None:
                    low, low_inc = other, (op == ">=")
                    matched.append(predicate)
                elif op in ("<", "<=") and high is None:
                    high, high_inc = other, (op == "<=")
                    matched.append(predicate)
            if low is not None or high is not None:
                range_bounds = (low, low_inc, high, high_inc)
        break  # stop at the first non-equality key column
    if not eq_exprs and range_bounds is None:
        return None
    if not index.supports_range and len(eq_exprs) != len(index.key_columns):
        return None  # hash indexes need the full key
    matched_set = set(id(p) for p in matched)
    residual = [p for p in preds if id(p) not in matched_set]
    return eq_exprs, range_bounds, matched, residual


# ---------------------------------------------------------------------------
# The default STAR array
# ---------------------------------------------------------------------------


def default_star_array() -> Dict[str, STAR]:
    """The base system's rule array.

    Nonterminals:

    - ``AccessRoot(quantifier, preds, child_plan?)`` — all ways to produce a
      stream for one iterator (table scan, every matching index, derived),
    - ``JoinRoot(outer, inner, preds)`` — all ways to join two plan sets,
    - ``SubqueryRoot(outer, binding, kind, preds, decorrelated?)`` —
      subquery join kinds, per row (SUBQJOIN) or set-wise (hash join),
    - ``RequireOrder(plan, keys)`` / ``RequireSite(plan, site)`` — glue.
    """

    # ---- access alternatives ------------------------------------------------

    def table_scan(gen: PlanGenerator, args: Args) -> List[PlanOp]:
        quantifier = args["quantifier"]
        return [TableScan(gen.cm, quantifier.input.table, quantifier,
                          args["preds"])]

    def is_base_table(gen: PlanGenerator, args: Args) -> bool:
        return isinstance(args["quantifier"].input, BaseTableBox)

    def index_scans(gen: PlanGenerator, args: Args) -> List[PlanOp]:
        quantifier = args["quantifier"]
        table = quantifier.input.table
        preds = args["preds"]
        plans: List[PlanOp] = []
        for access in gen.context.access_methods(table.name):
            hit = match_index(access, quantifier, preds)
            if hit is None:
                # An ordered index with no matching predicate is still an
                # interesting-order access path when it covers few rows.
                if access.provides_order and args.get("want_order"):
                    plans.append(IndexScan(
                        gen.cm, table, quantifier, access.index,
                        [], None, [], list(preds),
                        ordered=True,
                    ))
                continue
            eq_exprs, range_bounds, matched, residual = hit
            plans.append(IndexScan(
                gen.cm, table, quantifier, access.index, eq_exprs,
                range_bounds, matched, residual,
                ordered=access.provides_order,
            ))
        return plans

    def derived_scan(gen: PlanGenerator, args: Args) -> List[PlanOp]:
        quantifier = args["quantifier"]
        child = args["child_plan"]
        return [DerivedScan(gen.cm, child, quantifier.input, quantifier,
                            args["preds"])]

    def is_derived(gen: PlanGenerator, args: Args) -> bool:
        return args.get("child_plan") is not None

    access_root = STAR("AccessRoot", [
        Alternative("TableScan", table_scan, condition=is_base_table,
                    rank=1.0),
        Alternative("IndexScan", index_scans, condition=is_base_table,
                    rank=1.5),
        Alternative("DerivedScan", derived_scan, condition=is_derived,
                    rank=1.0),
    ])

    # ---- join alternatives ------------------------------------------------------

    def _join_keys(preds: Sequence[Predicate], outer: PlanOp,
                   inner: PlanOp):
        """Split predicates into equi-join keys and residual predicates."""
        outer_keys: List[qe.QExpr] = []
        inner_keys: List[qe.QExpr] = []
        residual: List[Predicate] = []
        key_preds: List[Predicate] = []
        for predicate in preds:
            pair = qe.is_column_equality(predicate.expr)
            if pair is not None:
                left, right = pair
                if (left.quantifier in outer.props.quantifiers
                        and right.quantifier in inner.props.quantifiers):
                    outer_keys.append(left)
                    inner_keys.append(right)
                    key_preds.append(predicate)
                    continue
                if (right.quantifier in outer.props.quantifiers
                        and left.quantifier in inner.props.quantifiers):
                    outer_keys.append(right)
                    inner_keys.append(left)
                    key_preds.append(predicate)
                    continue
            residual.append(predicate)
        return outer_keys, inner_keys, key_preds, residual

    def nl_join(gen: PlanGenerator, args: Args) -> List[PlanOp]:
        outer, inner = args["outer"], args["inner"]
        kind = args.get("kind", "regular")
        plans = [NLJoin(gen.cm, outer, inner, kind, args["preds"])]
        # Variant: materialize the inner so replays are cheap.  A lateral
        # inner references outer bindings, so it must be re-evaluated per
        # outer row — never cached in a Temp.
        if not args.get("lateral"):
            plans.append(NLJoin(gen.cm, outer, Temp(gen.cm, inner), kind,
                                args["preds"]))
        return plans

    def merge_join(gen: PlanGenerator, args: Args) -> List[PlanOp]:
        outer, inner = args["outer"], args["inner"]
        kind = args.get("kind", "regular")
        outer_keys, inner_keys, key_preds, residual = _join_keys(
            args["preds"], outer, inner)
        if not outer_keys:
            return []
        sorted_outer = gen.cheapest(
            "RequireOrder", plan=outer,
            keys=[(k, True) for k in outer_keys])
        sorted_inner = gen.cheapest(
            "RequireOrder", plan=inner,
            keys=[(k, True) for k in inner_keys])
        if sorted_outer is None or sorted_inner is None:
            return []
        return [MergeJoin(gen.cm, sorted_outer, sorted_inner, kind,
                          outer_keys, inner_keys, key_preds, residual)]

    def hash_join(gen: PlanGenerator, args: Args) -> List[PlanOp]:
        outer, inner = args["outer"], args["inner"]
        kind = args.get("kind", "regular")
        outer_keys, inner_keys, key_preds, residual = _join_keys(
            args["preds"], outer, inner)
        if not outer_keys:
            return []
        return [HashJoin(gen.cm, outer, inner, kind, outer_keys, inner_keys,
                         key_preds, residual)]

    def same_site(gen: PlanGenerator, args: Args) -> bool:
        return True  # sites are reconciled by the glue below

    def co_locate(gen: PlanGenerator, args: Args) -> Args:
        return args

    _METHOD_STARS = {
        "nl": ("NLJoinAlt",),
        "merge": ("MergeJoinAlt",),
        "hash": ("HashJoinAlt",),
    }

    def join_root_produce(gen: PlanGenerator, args: Args) -> List[PlanOp]:
        # Reconcile sites first (glue), then try every join method — or
        # only the forced one when the settings pin a method.  Nested
        # loops remains the fallback when the forced method produces no
        # plan (merge/hash joins need equi-join keys).
        outer, inner = args["outer"], args["inner"]
        if outer.props.site != inner.props.site:
            shipped = gen.cheapest("RequireSite", plan=inner,
                                   site=outer.props.site)
            if shipped is not None:
                inner = shipped
        forced = getattr(gen.context.settings, "forced_join_method", None)
        if args.get("lateral"):
            # The inner side references iterators bound by the outer side
            # (a correlated setformer, e.g. after subquery-to-join): it
            # must be re-evaluated per outer row, which only the nested
            # loops method does.  Merge and hash materialize the inner
            # once, before the outer bindings exist — correctness beats
            # any forced method here.
            methods = ("NLJoinAlt",)
        else:
            methods = _METHOD_STARS.get(
                forced, ("NLJoinAlt", "MergeJoinAlt", "HashJoinAlt"))
        produced: List[PlanOp] = []
        for method in methods:
            produced.extend(gen.evaluate(
                method, outer=outer, inner=inner, preds=args["preds"],
                kind=args.get("kind", "regular"),
                lateral=args.get("lateral", False)))
        if not produced and forced is not None and "NLJoinAlt" not in methods:
            produced = gen.evaluate(
                "NLJoinAlt", outer=outer, inner=inner, preds=args["preds"],
                kind=args.get("kind", "regular"),
                lateral=args.get("lateral", False))
        return produced

    join_root = STAR("JoinRoot", [
        Alternative("Methods", join_root_produce, rank=1.0),
    ])
    nl_star = STAR("NLJoinAlt", [Alternative("NL", nl_join, rank=1.0)])
    merge_star = STAR("MergeJoinAlt",
                      [Alternative("Merge", merge_join, rank=2.0)])
    hash_star = STAR("HashJoinAlt",
                     [Alternative("Hash", hash_join, rank=1.5)])

    # ---- subquery join kinds -------------------------------------------------------

    def subquery_join(gen: PlanGenerator, args: Args) -> List[PlanOp]:
        # Two strategies for one join kind.  Per row: SUBQJOIN evaluates
        # the correlated subplan on demand.  Set-wise: when the planner
        # could decorrelate the subquery (``decorrelated`` = inner plan,
        # outer keys, inner keys), a hash join of that kind runs it once.
        # The cheaper wins; a forced method pins the choice as in
        # JoinRoot.
        binding: SubplanBinding = args["binding"]
        outer, kind = args["outer"], args["kind"]
        forced = getattr(gen.context.settings, "forced_join_method", None)
        decorrelated = args.get("decorrelated")
        if forced not in (None, "hash"):
            decorrelated = None
        plans: List[PlanOp] = []
        if decorrelated is None or forced is None:
            plans.append(SubqueryJoin(gen.cm, outer, binding, kind,
                                      args["preds"]))
        if decorrelated is not None:
            inner, outer_keys, inner_keys = decorrelated
            plans.append(HashJoin(gen.cm, outer, inner, kind, outer_keys,
                                  inner_keys, args["preds"]))
        return plans

    subquery_root = STAR("SubqueryRoot", [
        Alternative("SubqueryJoin", subquery_join, rank=1.0),
    ])

    # ---- glue -------------------------------------------------------------------------

    def order_satisfied(gen: PlanGenerator, args: Args) -> bool:
        keys = tuple((order_key(expr), asc) for expr, asc in args["keys"])
        return args["plan"].props.satisfies_order(keys)

    def keep_plan(gen: PlanGenerator, args: Args) -> List[PlanOp]:
        return [args["plan"]]

    def add_sort(gen: PlanGenerator, args: Args) -> List[PlanOp]:
        return [Sort(gen.cm, args["plan"], args["keys"])]

    require_order = STAR("RequireOrder", [
        Alternative("AlreadyOrdered", keep_plan, condition=order_satisfied,
                    rank=0.5),
        Alternative("AddSort", add_sort, rank=1.0),
    ])

    def site_satisfied(gen: PlanGenerator, args: Args) -> bool:
        return args["plan"].props.site == args["site"]

    def add_ship(gen: PlanGenerator, args: Args) -> List[PlanOp]:
        return [Ship(gen.cm, args["plan"], args["site"])]

    require_site = STAR("RequireSite", [
        Alternative("AlreadyThere", keep_plan, condition=site_satisfied,
                    rank=0.5),
        Alternative("AddShip", add_ship, rank=1.0),
    ])

    def partitioning_satisfied(gen: PlanGenerator, args: Args) -> bool:
        required = ("hash", (order_key(args["key"]),), args["n"])
        return args["plan"].props.partitioning == required

    def partitioning_unsatisfied(gen: PlanGenerator, args: Args) -> bool:
        return not partitioning_satisfied(gen, args)

    def add_repartition(gen: PlanGenerator, args: Args) -> List[PlanOp]:
        return [Repartition(gen.cm, args["plan"], args["n"], args["scan"],
                            [args["key"]])]

    # Glue mirroring RequireSite: a stream already hash-partitioned on
    # the required key (a SCAN of a sharded table) is kept as-is — the
    # co-located case, no data moves — otherwise a REPARTITION shuffle
    # establishes the property.  The alternatives are mutually exclusive
    # rather than cost-compared: a satisfied plan's cost is its serial
    # cost (each partition worker scans 1/n of it), and shuffling an
    # already-correctly-partitioned stream can never win — it reads the
    # same data and adds wire traffic.
    require_partitioning = STAR("RequirePartitioning", [
        Alternative("AlreadyPartitioned", keep_plan,
                    condition=partitioning_satisfied, rank=0.5),
        Alternative("AddRepartition", add_repartition,
                    condition=partitioning_unsatisfied, rank=1.0),
    ])

    # ---- execution backend (refinement-phase glue) --------------------------
    #
    # Evaluated per plan node during refinement (not plan search): decides
    # which executor backend runs the node.  ``capable`` means the
    # vectorized engine structurally supports the node (operators +
    # batch-compilable, self-contained expressions); ``eligible`` carries
    # the auto-mode heuristic (contiguous batch subtree over enough rows).
    # A DBC can re-rank or replace these alternatives to steer backend
    # choice, exactly like any other STAR.

    def compiled_eligible(gen: PlanGenerator, args: Args) -> bool:
        # ``compiled`` is set only by the codegen selection pass
        # (execution_mode "compiled"/"auto"); the vectorized selection
        # pass does not pass it, so ``get`` keeps it falsy there.
        return bool(args.get("compiled"))

    def batch_eligible(gen: PlanGenerator, args: Args) -> bool:
        if compiled_eligible(gen, args):
            return False
        return bool(args["capable"]) and (
            args["mode"] in ("batch", "compiled")
            or (args["mode"] == "auto" and args["eligible"]))

    def tuple_only(gen: PlanGenerator, args: Args) -> bool:
        return (not compiled_eligible(gen, args)
                and not batch_eligible(gen, args))

    def mark_compiled(gen: PlanGenerator, args: Args) -> List[PlanOp]:
        plan = args["plan"]
        plan.exec_backend = "compiled"
        return [plan]

    def mark_batch(gen: PlanGenerator, args: Args) -> List[PlanOp]:
        plan = args["plan"]
        plan.exec_backend = "batch"
        return [plan]

    def mark_tuple(gen: PlanGenerator, args: Args) -> List[PlanOp]:
        plan = args["plan"]
        plan.exec_backend = "tuple"
        return [plan]

    exec_backend = STAR("ExecBackend", [
        Alternative("Compiled", mark_compiled, condition=compiled_eligible,
                    rank=0.4),
        Alternative("Batch", mark_batch, condition=batch_eligible,
                    rank=0.5),
        Alternative("Tuple", mark_tuple, condition=tuple_only,
                    rank=1.0),
    ])

    # ---- parallelism (refinement-phase glue) --------------------------------
    #
    # Evaluated per candidate subtree by :func:`parallelize_plan`:
    # ``capable`` means the subtree is structurally parallelizable (a
    # row-producing pyramid over a Filter*/SCAN chain on a local heap
    # table, self-contained expressions); ``eligible`` carries the
    # cost-model gate (enough rows read to amortize worker startup).
    # ``build`` constructs the Exchange when the alternative fires, so a
    # DBC can replace the glue without knowing how to build the operator.

    def parallel_eligible(gen: PlanGenerator, args: Args) -> bool:
        return bool(args["capable"]) and (
            args["mode"] == "on"
            or (args["mode"] == "auto" and args["eligible"]))

    def serial_only(gen: PlanGenerator, args: Args) -> bool:
        return not parallel_eligible(gen, args)

    def splice_exchange(gen: PlanGenerator, args: Args) -> List[PlanOp]:
        return [args["build"](gen)]

    def keep_serial(gen: PlanGenerator, args: Args) -> List[PlanOp]:
        return [args["plan"]]

    parallelism = STAR("Parallelism", [
        Alternative("Exchange", splice_exchange, condition=parallel_eligible,
                    rank=0.5),
        Alternative("Serial", keep_serial, condition=serial_only,
                    rank=1.0),
    ])

    return {
        star.name: star
        for star in (access_root, join_root, nl_star, merge_star, hash_star,
                     subquery_root, require_order, require_site,
                     require_partitioning, exec_backend, parallelism)
    }


# ---------------------------------------------------------------------------
# Parallel glue driver (refinement phase)
# ---------------------------------------------------------------------------


def _chain_scan(node: PlanOp) -> Optional[TableScan]:
    """The SCAN leaf of a Filter*/SCAN chain rooted at ``node``, or None.

    Only this shape parallelizes today: the chain carves into page-range
    morsels with no cross-morsel state.  Any join, sort, subquery stream
    or derived input breaks the chain.
    """
    while isinstance(node, Filter):
        node = node.children[0]
    if not isinstance(node, TableScan):
        return None
    if node.table.storage_manager != "heap" or node.table.site != "local":
        return None
    return node


def _chain_preds(node: PlanOp) -> List[Predicate]:
    preds: List[Predicate] = []
    while isinstance(node, Filter):
        preds.extend(node.preds)
        node = node.children[0]
    preds.extend(node.preds)
    return preds


def _self_contained(exprs, allowed) -> bool:
    """Do all expressions reference only quantifiers bound inside the
    parallel subtree (and parameters/constants)?  Correlated references
    need the caller's bindings, which forked workers do not have."""
    for expr in exprs:
        if expr is not None and not (qe.quantifiers_in(expr) <= allowed):
            return False
    return True


def _aggregates_mergeable(groupby: GroupBy, catalog, resolve) -> bool:
    """Can per-morsel partial results of these aggregates be merged
    without changing the answer byte-for-byte?

    COUNT/MIN/MAX always merge; SUM merges only over provably-integer
    base columns (float addition is order sensitive); AVG and DBC
    aggregates never do.  DISTINCT aggregates need global dedup.
    ``resolve`` traces a ColRef over a derived quantifier down to the
    expression that produces it.
    """
    for agg in groupby.aggregates:
        if agg.distinct:
            return False
        if agg.name == "count" or agg.name in ("min", "max"):
            continue
        if agg.name == "sum":
            arg = resolve(agg.arg)
            if (isinstance(arg, qe.ColRef)
                    and isinstance(arg.quantifier.input, BaseTableBox)):
                table = arg.quantifier.input.table
                column = next((c for c in table.columns
                               if c.name == arg.column), None)
                if column is not None and column.dtype.name == "INTEGER":
                    continue
            return False
        return False
    return True


def _project_candidate(node: PlanOp) -> Optional[TableScan]:
    """``node`` is a parallelizable PROJECT pyramid: PROJECT over a
    Filter*/SCAN chain, no subquery streams, self-contained."""
    if not isinstance(node, Project) or node.subplans:
        return None
    scan = _chain_scan(node.children[0])
    if scan is None:
        return None
    exprs = list(node.exprs) + [p.expr for p in _chain_preds(node.children[0])]
    if not _self_contained(exprs, {scan.quantifier}):
        return None
    return scan


def _groupby_candidate(node: PlanOp, catalog) -> Optional[TableScan]:
    """``node`` is a GROUPBY whose input carves into morsels: either a
    bare Filter*/SCAN chain, or — the shape box lowering actually emits —
    an ACCESS/PROJECT pyramid over that chain."""
    if not isinstance(node, GroupBy):
        return None
    child = node.children[0]
    allowed = set()
    inner_exprs: List[qe.QExpr] = []
    resolve = lambda expr: expr
    if isinstance(child, DerivedScan):
        project = child.children[0]
        if not isinstance(project, Project) or project.subplans:
            return None
        names, derived = project.names, project.exprs
        quantifier = child.quantifier

        def resolve(expr):
            # Trace q.col through the derived table to its defining
            # expression, so SUM's integer-base-column proof still works.
            if (isinstance(expr, qe.ColRef) and expr.quantifier is quantifier
                    and expr.column in names):
                return derived[names.index(expr.column)]
            return expr

        allowed.add(quantifier)
        inner_exprs = list(derived) + [p.expr for p in child.preds]
        child = project.children[0]
    scan = _chain_scan(child)
    if scan is None:
        return None
    if not _aggregates_mergeable(node, catalog, resolve):
        return None
    exprs = (list(node.group_exprs)
             + [a.arg for a in node.aggregates]
             + inner_exprs
             + [p.expr for p in _chain_preds(child)])
    allowed.add(scan.quantifier)
    if not _self_contained(exprs, allowed):
        return None
    return scan


def _shard_partitions(scan: TableScan, key: qe.ColRef) -> int:
    """Partition count when ``scan``'s table is hash-sharded on exactly
    the routing key column, else 0."""
    table = scan.table
    if (table.partition_by and table.partitions
            and key.column == table.partition_by):
        return table.partitions
    return 0


def _partition_join_candidate(node: PlanOp):
    """``node`` is a partition-wise-joinable pyramid: PROJECT over a
    HASHJOIN of two Filter*/SCAN chains on distinct local heap tables.

    Routing uses the first equi-join key pair, which must be plain
    column references on each side's own scan quantifier (rows with
    equal first keys co-locate, and equal rows have equal first keys, so
    joining each partition independently is exhaustive).  Returns
    ``(join, outer_scan, inner_scan, outer_key, inner_key)`` or None.
    """
    if not isinstance(node, Project) or node.subplans:
        return None
    join = node.children[0]
    if not isinstance(join, HashJoin) \
            or join.kind not in ("regular", "left_outer"):
        return None
    if not join.outer_keys:
        return None
    outer_scan = _chain_scan(join.children[0])
    inner_scan = _chain_scan(join.children[1])
    if outer_scan is None or inner_scan is None or outer_scan is inner_scan:
        return None
    okey, ikey = join.outer_keys[0], join.inner_keys[0]
    if not (isinstance(okey, qe.ColRef)
            and okey.quantifier is outer_scan.quantifier):
        return None
    if not (isinstance(ikey, qe.ColRef)
            and ikey.quantifier is inner_scan.quantifier):
        return None
    allowed = {outer_scan.quantifier, inner_scan.quantifier}
    exprs = (list(node.exprs)
             + list(join.outer_keys) + list(join.inner_keys)
             + [p.expr for p in join.preds]
             + [p.expr for p in join.residual]
             + [p.expr for p in _chain_preds(join.children[0])]
             + [p.expr for p in _chain_preds(join.children[1])])
    if not _self_contained(exprs, allowed):
        return None
    return join, outer_scan, inner_scan, okey, ikey


def _partition_groupby_candidate(node: PlanOp):
    """``node`` is a GROUPBY whose first grouping key is a plain column
    of the scanned table — partition-wise aggregation keeps every group
    whole inside one partition, so it needs no merge step and handles
    the aggregates :func:`_aggregates_mergeable` rejects (AVG, float
    SUM, DISTINCT).  Returns ``(scan, key, resolved_group_exprs,
    splice)`` where ``splice(new_chain)`` re-parents the chain, or None.
    """
    if not isinstance(node, GroupBy) or not node.group_exprs:
        return None
    child = node.children[0]
    allowed = set()
    inner_exprs: List[qe.QExpr] = []
    resolve = lambda expr: expr  # noqa: E731 - mirrors _groupby_candidate
    owner, slot = node, 0
    if isinstance(child, DerivedScan):
        project = child.children[0]
        if not isinstance(project, Project) or project.subplans:
            return None
        names, derived = project.names, project.exprs
        quantifier = child.quantifier

        def resolve(expr):
            if (isinstance(expr, qe.ColRef) and expr.quantifier is quantifier
                    and expr.column in names):
                return derived[names.index(expr.column)]
            return expr

        allowed.add(quantifier)
        inner_exprs = list(derived) + [p.expr for p in child.preds]
        owner, slot = project, 0
        child = project.children[0]
    scan = _chain_scan(child)
    if scan is None:
        return None
    resolved = [resolve(expr) for expr in node.group_exprs]
    key = resolved[0]
    if not (isinstance(key, qe.ColRef) and key.quantifier is scan.quantifier):
        return None
    exprs = (resolved
             + [a.arg for a in node.aggregates]
             + inner_exprs
             + [p.expr for p in _chain_preds(child)])
    allowed.add(scan.quantifier)
    if not _self_contained(exprs, allowed):
        return None
    chain = owner.children[slot]

    def splice(new_chain: PlanOp) -> None:
        children = list(owner.children)
        children[slot] = new_chain
        owner.children = tuple(children)

    return scan, key, resolved, chain, splice


def parallelize_plan(plan: PlanOp, generator: PlanGenerator,
                     options) -> PlanOp:
    """Parallel glue phase: splice Exchange LOLEPOPs where eligible.

    Walks the refined plan top-down; for each candidate subtree it asks
    the ``Parallelism`` STAR whether to splice (``on`` always does,
    ``auto`` only when the cost model says the rows read amortize worker
    startup).  Candidates:

    - ``PROJECT`` over Filter*/SCAN        → GATHER above the PROJECT,
    - ``GROUPBY`` (mergeable aggregates)   → GATHER merging partial
      per-morsel aggregates,
    - ``ORDERBY`` [under LIMIT] over such a PROJECT → MERGEGATHER below
      the ORDERBY, sorting (and top-K truncating) inside the workers,
    - ``PROJECT`` over ``HASHJOIN`` of two chains → PARTITIONGATHER with
      a REPARTITION shuffle per side (skipped for sides already sharded
      on the join key — the co-located case),
    - ``GROUPBY`` (non-mergeable aggregates, grouped on a column) →
      PARTITIONGATHER over a REPARTITION on the grouping key.

    Ineligible subtrees are simply left at dop=1 — degradation is per
    subtree, never per query.  Returns the (possibly new) plan root.
    """
    if plan is None or options.parallelism == "off" or options.dop <= 1:
        return plan
    from repro.executor.parallel import fork_available

    if not fork_available():
        # Recorded by executor.parallel; the whole feature degrades to
        # serial on platforms without fork (the COW snapshot needs it).
        return plan

    cm = generator.cm
    dop = options.dop

    def mark_dop(subtree: PlanOp) -> None:
        for node in subtree.walk():
            node.props = node.props.evolve(dop=dop)

    def eligible(scan: TableScan) -> bool:
        pages = cm.catalog.statistics(scan.table.name).page_count
        return pages >= 2 and cm.should_parallelize(scan.input_rows, dop)

    def ask(node: PlanOp, scan: TableScan, build) -> PlanOp:
        plans = generator.evaluate(
            "Parallelism", plan=node, capable=True,
            mode=options.parallelism, eligible=eligible(scan),
            build=build)
        chosen = plans[0] if plans else node
        if isinstance(chosen, Exchange):
            mark_dop(chosen.children[0])
            backend = chosen.children[0].exec_backend
            if backend in ("batch", "compiled"):
                # EXPLAIN annotation: the exchange consumes rows, so a
                # backend→tuple adapter sits directly below it.
                chosen.fallback_mark = "%s-below" % backend
        if generator.trace is not None:
            generator.trace.event(
                "glue.parallel", node=node.describe(),
                scan=scan.table.name, eligible=eligible(scan),
                spliced=(chosen.describe() if isinstance(chosen, Exchange)
                         else None), dop=dop)
        return chosen

    def rewrite(node: PlanOp, limit_above: Optional[int] = None) -> PlanOp:
        # DML and fixpoint operators re-drive their inputs under locks or
        # across iterations; leave them (and everything below) serial.
        from repro.optimizer import plans as pl

        if isinstance(node, (pl.InsertPlan, pl.UpdatePlan, pl.DeletePlan,
                             pl.Recurse, Exchange)):
            return node

        # ORDERBY [under LIMIT] over a PROJECT pyramid: push the sort
        # (and the top-K cut) into the workers via MERGEGATHER.
        if isinstance(node, TopSort):
            child = node.children[0]
            scan = _project_candidate(child)
            if scan is not None:
                built = ask(child, scan, lambda gen: MergeGather(
                    gen.cm, child, dop, scan, node.positions,
                    limit_hint=limit_above))
                if built is not child:
                    node.children = (built,)
                return node

        if options.repartition:
            join_hit = _partition_join_candidate(node)
            if join_hit is not None:
                join, outer_scan, inner_scan, okey, ikey = join_hit
                n = (_shard_partitions(outer_scan, okey)
                     or _shard_partitions(inner_scan, ikey)
                     or dop)
                if n > 1:
                    def build_join(gen, node=node, join=join, n=n,
                                   outer_scan=outer_scan,
                                   inner_scan=inner_scan,
                                   okey=okey, ikey=ikey):
                        outer = gen.cheapest(
                            "RequirePartitioning", plan=join.children[0],
                            key=okey, n=n, scan=outer_scan)
                        inner = gen.cheapest(
                            "RequirePartitioning", plan=join.children[1],
                            key=ikey, n=n, scan=inner_scan)
                        sources = [p for p in (outer, inner)
                                   if isinstance(p, Repartition)]
                        colocated = [
                            s for p, s in ((outer, outer_scan),
                                           (inner, inner_scan))
                            if not isinstance(p, Repartition)]
                        join.children = (outer, inner)
                        return PartitionGather(
                            gen.cm, node, n, outer_scan, sources=sources,
                            colocated_scans=colocated)
                    return ask(node, outer_scan, build_join)
            group_hit = _partition_groupby_candidate(node)
            if group_hit is not None \
                    and _groupby_candidate(node, cm.catalog) is None:
                # Mergeable aggregates take the cheaper partial-aggregate
                # GATHER below; partition-wise handles the rest.
                scan, key, resolved, chain, splice = group_hit
                n = _shard_partitions(scan, key) or dop
                if n > 1:
                    def build_group(gen, node=node, scan=scan, key=key,
                                    resolved=resolved, chain=chain,
                                    splice=splice, n=n):
                        part = gen.cheapest(
                            "RequirePartitioning", plan=chain,
                            key=key, n=n, scan=scan)
                        sources = []
                        colocated = []
                        if isinstance(part, Repartition):
                            sources.append(part)
                            splice(part)
                        else:
                            colocated.append(scan)
                        gather = PartitionGather(
                            gen.cm, node, n, scan, sources=sources,
                            colocated_scans=colocated)
                        gather.tag_exprs = resolved
                        return gather
                    return ask(node, scan, build_group)

        scan = _project_candidate(node)
        if scan is not None:
            return ask(node, scan,
                       lambda gen: Gather(gen.cm, node, dop, scan))
        scan = _groupby_candidate(node, cm.catalog)
        if scan is not None:
            return ask(node, scan,
                       lambda gen: Gather(gen.cm, node, dop, scan,
                                          merge_groups=node))

        new_children = []
        changed = False
        for child in node.children:
            limit = node.limit if isinstance(node, LimitOp) else None
            rewritten = rewrite(child, limit)
            changed = changed or rewritten is not child
            new_children.append(rewritten)
        if changed:
            node.children = tuple(new_children)
        return node

    return rewrite(plan)
