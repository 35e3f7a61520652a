"""E15 (extension) — plan refinement: interpreted vs compiled expressions.

Section 7: the algebraic interface "can also serve as the input
specification to a component that compiles QEPs into iterative programs
[FREY86]".  Our refinement phase compiles subquery-free predicates and
head expressions into Python closures; this benchmark measures the
ablation on an expression-heavy scan.
"""

import pytest

from benchmarks.conftest import print_table

SQL = ("SELECT partno, price * 1.08, upper(supplier) FROM quotations "
       "WHERE price BETWEEN 20 AND 120 AND order_qty % 3 = 0 "
       "AND supplier LIKE 'supplier1%'")


@pytest.fixture(scope="module", autouse=True)
def _tuple_mode(parts_db):
    # The ablation is the tuple interpreter's: the batch and fused
    # backends the default mode picks for this scan compile their
    # expressions whatever ``compile_expressions`` says.
    parts_db.settings.execution_mode = "tuple"


def test_e15_compiled(parts_db, benchmark):
    parts_db.settings.compile_expressions = True
    compiled = parts_db.compile(SQL)
    assert compiled.refiner.compiled_count >= 5
    result = benchmark(parts_db.run_compiled, compiled)
    assert result.rows


def test_e15_interpreted(parts_db, benchmark):
    parts_db.settings.compile_expressions = False
    try:
        compiled = parts_db.compile(SQL)
        assert compiled.refiner is None
        result = benchmark(parts_db.run_compiled, compiled)
        assert result.rows
    finally:
        parts_db.settings.compile_expressions = True


def test_e15_summary(parts_db, benchmark):
    parts_db.settings.compile_expressions = True
    fast = parts_db.compile(SQL)
    fast_result = benchmark(parts_db.run_compiled, fast)
    parts_db.settings.compile_expressions = False
    slow = parts_db.compile(SQL)
    slow_result = parts_db.run_compiled(slow)
    parts_db.settings.compile_expressions = True
    assert sorted(fast_result.rows) == sorted(slow_result.rows)
    print_table(
        "E15: plan refinement (expression compilation) ablation",
        ["variant", "exprs compiled", "exec (s)"],
        [("compiled", fast.refiner.compiled_count,
          "%.6f" % fast.timings.execute),
         ("interpreted", 0, "%.6f" % slow.timings.execute)])
