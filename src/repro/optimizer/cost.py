"""Cost model: selectivity estimation and per-LOLEPOP cost formulas.

Costs are in abstract units: one page I/O costs ``IO_WEIGHT``, one row of
CPU work costs ``CPU_WEIGHT``.  Estimation follows System R's rules of
thumb, driven by the catalog statistics (the paper: property evaluation
starts "with statistics on stored tables"):

- ``col = const``    → 1 / n_distinct(col)
- ``col = col``      → 1 / max(n_distinct(left), n_distinct(right))
- range predicates   → interpolation over [min, max] when known, else 1/3
- ``LIKE``           → 1/10
- anything else      → 1/3
"""

from __future__ import annotations

import math
from typing import Optional

from repro.catalog.catalog import Catalog
from repro.qgm import expressions as qe
from repro.qgm.model import BaseTableBox, Predicate

IO_WEIGHT = 1.0
CPU_WEIGHT = 0.01

DEFAULT_SELECTIVITY = 1.0 / 3.0
LIKE_SELECTIVITY = 0.1
EQUALITY_FALLBACK = 0.1

#: Fixed cost of starting one parallel worker (fork + per-worker compile),
#: in the same abstract units as IO/CPU.  Forking is cheap on Linux but not
#: free; a dop=4 plan must save at least ~4 * this to win.
PARALLEL_STARTUP_COST = 50.0
#: Per-row cost of moving a row through an Exchange (pickle + pipe).
EXCHANGE_ROW_COST = CPU_WEIGHT * 0.5
#: Per-byte cost of moving data through a Repartition or Ship exchange
#: (encode + queue + decode).  Calibrated so that shuffling ~1MB costs
#: about as much as scanning 100 pages; the repartition benchmark checks
#: the *byte estimate* against measured wire bytes (within 2x), the weight
#: only ranks alternatives.
EXCHANGE_BYTE_COST = IO_WEIGHT / 8192.0

#: Wire-format overhead per row: 4-byte value count plus two tagged int64
#: sequence values (1 + 8 each) used to restore serial order.
WIRE_ROW_OVERHEAD = 4 + 2 * 9
#: Per-value overhead: one tag byte.
WIRE_VALUE_TAG = 1


class CostModel:
    """Selectivity and cost estimation against a catalog."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog

    # -- statistics helpers ---------------------------------------------------

    def _column_stats(self, ref: qe.ColRef):
        """Statistics for a column reference when it bottoms out at a base
        table; None for derived columns."""
        box = ref.quantifier.input
        if isinstance(box, BaseTableBox):
            stats = self.catalog.statistics(box.table.name)
            return stats, stats.columns.get(ref.column)
        return None, None

    def _n_distinct(self, ref: qe.ColRef) -> int:
        stats, _column = self._column_stats(ref)
        if stats is None:
            return 10
        return stats.n_distinct(ref.column)

    def known_distinct(self, refs) -> Optional[float]:
        """Distinct value combinations of ``refs`` when the statistics
        know every column's distinct count (the product bounds the
        combinations); None when any column lacks statistics."""
        combinations = 1.0
        for ref in refs:
            _stats, column = self._column_stats(ref)
            if column is None or column.n_distinct <= 0:
                return None
            combinations *= column.n_distinct
        return combinations

    def table_cardinality(self, table_name: str) -> float:
        return float(max(1, self.catalog.statistics(table_name).row_count))

    def table_pages(self, table_name: str) -> float:
        return float(max(1, self.catalog.statistics(table_name).page_count))

    # -- selectivity ---------------------------------------------------------------

    def selectivity(self, predicate: Predicate) -> float:
        return self.expr_selectivity(predicate.expr)

    def expr_selectivity(self, expr: qe.QExpr) -> float:
        if isinstance(expr, qe.BinOp):
            if expr.op == "and":
                return (self.expr_selectivity(expr.left)
                        * self.expr_selectivity(expr.right))
            if expr.op == "or":
                left = self.expr_selectivity(expr.left)
                right = self.expr_selectivity(expr.right)
                return min(1.0, left + right - left * right)
            if expr.op == "=":
                return self._equality_selectivity(expr)
            if expr.op == "<>":
                return 1.0 - self._equality_selectivity(expr)
            if expr.op in ("<", "<=", ">", ">="):
                return self._range_selectivity(expr)
        if isinstance(expr, qe.Not):
            return max(0.0, 1.0 - self.expr_selectivity(expr.operand))
        if isinstance(expr, qe.LikeOp):
            return LIKE_SELECTIVITY
        if isinstance(expr, qe.IsNullTest):
            return 0.1 if not expr.negated else 0.9
        if isinstance(expr, qe.Const) and expr.value is True:
            return 1.0
        if isinstance(expr, qe.ExistsTest):
            return 0.5
        return DEFAULT_SELECTIVITY

    def _equality_selectivity(self, expr: qe.BinOp) -> float:
        left, right = expr.left, expr.right
        if isinstance(left, qe.ColRef) and isinstance(right, qe.ColRef):
            return 1.0 / max(self._n_distinct(left), self._n_distinct(right), 1)
        if isinstance(left, qe.ColRef):
            return 1.0 / max(self._n_distinct(left), 1)
        if isinstance(right, qe.ColRef):
            return 1.0 / max(self._n_distinct(right), 1)
        return EQUALITY_FALLBACK

    def _range_selectivity(self, expr: qe.BinOp) -> float:
        column: Optional[qe.ColRef] = None
        constant = None
        if isinstance(expr.left, qe.ColRef) and isinstance(expr.right, qe.Const):
            column, constant, op = expr.left, expr.right.value, expr.op
        elif isinstance(expr.right, qe.ColRef) and isinstance(expr.left, qe.Const):
            # mirror: c OP col  ==  col OP' c
            mirror = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
            column, constant, op = expr.right, expr.left.value, mirror[expr.op]
        else:
            return DEFAULT_SELECTIVITY
        _stats, col_stats = self._column_stats(column)
        if (col_stats is None or col_stats.min_value is None
                or col_stats.max_value is None or constant is None):
            return DEFAULT_SELECTIVITY
        try:
            low = float(col_stats.min_value)
            high = float(col_stats.max_value)
            value = float(constant)
        except (TypeError, ValueError):
            return DEFAULT_SELECTIVITY
        if high <= low:
            return DEFAULT_SELECTIVITY
        fraction = (value - low) / (high - low)
        fraction = min(1.0, max(0.0, fraction))
        if op in (">", ">="):
            fraction = 1.0 - fraction
        return min(1.0, max(0.001, fraction))

    # -- operator cost formulas --------------------------------------------------------

    def scan_cost(self, pages: float, rows: float) -> float:
        return pages * IO_WEIGHT + rows * CPU_WEIGHT

    def index_scan_cost(self, matching_rows: float, table_rows: float,
                        table_pages: float, clustered: bool = False) -> float:
        """B+-tree descent + leaf walk + data-page fetches."""
        depth = max(1.0, math.log(max(table_rows, 2.0), 32))
        if clustered:
            data_io = max(1.0, table_pages * matching_rows / max(table_rows, 1.0))
        else:
            data_io = matching_rows  # one fetch per row, unclustered
        return (depth + data_io) * IO_WEIGHT + matching_rows * CPU_WEIGHT

    def sort_cost(self, rows: float) -> float:
        rows = max(rows, 1.0)
        return rows * math.log(rows + 1.0, 2) * CPU_WEIGHT

    def hash_cost(self, build_rows: float, probe_rows: float) -> float:
        return (build_rows + probe_rows) * CPU_WEIGHT * 1.2

    def ship_cost(self, rows: float, to_site: str) -> float:
        return rows * self.catalog.ship_cost(to_site) + 0.5 * IO_WEIGHT

    def per_row_cpu(self, rows: float, factor: float = 1.0) -> float:
        return rows * CPU_WEIGHT * factor

    # -- parallelism ----------------------------------------------------------

    def parallel_startup(self, dop: int) -> float:
        """Fixed price of spinning up ``dop`` workers."""
        return PARALLEL_STARTUP_COST * max(0, dop)

    def exchange_cost(self, rows: float) -> float:
        """Cost of gathering ``rows`` rows through an Exchange."""
        return max(rows, 0.0) * EXCHANGE_ROW_COST

    def estimate_wire_bytes(self, rows: float, types) -> float:
        """Estimated bytes a Repartition/Ship moves for ``rows`` rows.

        ``types`` are the column DataTypes of the shipped stream.  Uses
        the exchange wire format: a per-row header, one tag byte per
        value, then the value payload (8 bytes for fixed numerics, the
        tag alone for booleans/NULLs, length prefix + ~12 bytes assumed
        for varchars).  The repartition benchmark validates this against
        measured wire bytes.
        """
        per_row = float(WIRE_ROW_OVERHEAD)
        for dtype in types:
            per_row += WIRE_VALUE_TAG
            size = getattr(dtype, "size", None)
            name = type(dtype).__name__
            if name == "BooleanType":
                continue  # tag byte carries the value
            if size:
                per_row += 8.0  # int64 / double payload
            else:
                per_row += 4.0 + 12.0  # length prefix + assumed avg chars
        return max(rows, 0.0) * per_row

    def repartition_cost(self, rows: float, wire_bytes: float,
                         dop: int) -> float:
        """Cost of hash-shuffling ``rows`` rows (``wire_bytes`` on the
        wire) across ``dop`` workers: per-row hash/route CPU plus
        per-byte encode/queue/decode, divided across the workers that do
        it in parallel."""
        dop = max(1, dop)
        work = (max(rows, 0.0) * EXCHANGE_ROW_COST
                + max(wire_bytes, 0.0) * EXCHANGE_BYTE_COST)
        return work / float(dop)

    def should_parallelize(self, input_rows: float, dop: int) -> bool:
        """Do ``input_rows`` rows of scan work amortize ``dop`` workers?

        The subtree's serial work is roughly ``input_rows * CPU_WEIGHT``
        (plus I/O, but forked workers share the page cache); parallel
        execution saves the (dop-1)/dop share of it and pays startup plus
        the exchange.  Used by ``parallelism="auto"``; ``"on"`` bypasses
        this gate so tests can force small-table parallelism.
        """
        if dop <= 1:
            return False
        serial_work = max(input_rows, 0.0) * (CPU_WEIGHT + IO_WEIGHT * 0.02)
        saved = serial_work * (dop - 1) / float(dop)
        return saved > self.parallel_startup(dop) + self.exchange_cost(
            input_rows / float(dop))
