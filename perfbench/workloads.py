"""Seeded inputs for the three benchmark workloads.

Everything here is a pure function of the seed: the same seed gives the
same rows and the same statement stream, byte for byte, in any process
(string seeds go through ``random.Random``'s SHA-512 seeding, which does
not depend on ``PYTHONHASHSEED``).  The engine only ever receives the
rows and statements produced here.

- ``oltp``: a TPC-B-style bank (branches, tellers, accounts, history)
  that fits the default 256-frame buffer pool, and one endless
  statement stream the clients share: 80% reads (primary-key point
  lookup, or a two-table primary-key join), 20% writes (balance UPDATE
  by primary key, or a history INSERT), the writes in a burst at the end
  of every 200-statement cycle.  Accounts are drawn uniformly, as TPC-B
  draws them.
  Literals are inline, so distinct statement texts far exceed the
  512-entry plan cache.
- ``olap``: a wide fact table (``sales``, about 2.3x the default pool in
  pages) and a dimension table (``stores``, fits the pool), plus five
  fixed analytic queries whose answers are computed here in plain
  Python from the generated rows.
- ``adhoc``: sixteen tiny ``repro.testkit`` schemas in one database and
  an endless round-robin stream of distinct generated SELECTs over them.
"""

from __future__ import annotations

import itertools
import random
import re
from typing import Dict, Iterator, List, Tuple

# -- oltp ---------------------------------------------------------------------

OLTP_BRANCHES = 10
OLTP_TELLERS_PER_BRANCH = 10
OLTP_ACCOUNTS = 5000
#: The shared statement stream comes in cycles of ``OLTP_CYCLE``
#: statements whose last ``OLTP_CYCLE_WRITES`` are writes (20%).  The
#: snapshot refresher re-forks its pool on a 0.25 s wall-clock tick that
#: follows a write: writes scattered through the stream re-fork on every
#: tick, so the forks per statement, and with them throughput, follow
#: the host's speed.  A short burst per cycle re-forks about once per
#: cycle on any host: 40 writes take well under one tick, and 200
#: statements take longer than a tick plus a fork.
OLTP_CYCLE = 200
OLTP_CYCLE_WRITES = 40
#: Initial balance of every account; the final-balance check sums deltas
#: on top of ``OLTP_ACCOUNTS * OLTP_INITIAL_BALANCE``.
OLTP_INITIAL_BALANCE = 1000

OLTP_DDL = [
    "CREATE TABLE branches (bid INTEGER PRIMARY KEY, bname VARCHAR(16), "
    "balance INTEGER)",
    "CREATE TABLE tellers (tid INTEGER PRIMARY KEY, bid INTEGER, "
    "balance INTEGER)",
    "CREATE TABLE accounts (aid INTEGER PRIMARY KEY, bid INTEGER, "
    "name VARCHAR(24), balance INTEGER)",
    "CREATE TABLE history (hid INTEGER, aid INTEGER, tid INTEGER, "
    "bid INTEGER, delta INTEGER)",
]


def oltp_data(seed: int) -> Dict[str, List[Tuple]]:
    """Rows of every oltp table (history starts empty)."""
    rng = random.Random("oltp-data-%d" % seed)
    branches = [(b, "branch-%02d-%04d" % (b, rng.randrange(10000)), 0)
                for b in range(OLTP_BRANCHES)]
    tellers = [(t, t // OLTP_TELLERS_PER_BRANCH, 0)
               for t in range(OLTP_BRANCHES * OLTP_TELLERS_PER_BRANCH)]
    accounts = [(a, rng.randrange(OLTP_BRANCHES),
                 "acct-%05d-%08x" % (a, rng.getrandbits(32)),
                 OLTP_INITIAL_BALANCE)
                for a in range(OLTP_ACCOUNTS)]
    return {"branches": branches, "tellers": tellers,
            "accounts": accounts, "history": []}


class OltpOp:
    """One oltp statement plus what its answer must be.

    ``kind`` is ``point``/``join`` (reads) or ``update``/``insert``
    (writes).  Reads carry ``expect``, the row of never-updated columns
    the answer must match; writes carry the balance ``delta`` they add.
    """

    __slots__ = ("kind", "sql", "expect", "delta")

    def __init__(self, kind: str, sql: str, expect=None, delta: int = 0):
        self.kind = kind
        self.sql = sql
        self.expect = expect
        self.delta = delta

    @property
    def is_write(self) -> bool:
        return self.kind in ("update", "insert")


def oltp_stream(seed: int,
                data: Dict[str, List[Tuple]]) -> Iterator[OltpOp]:
    """The endless statement stream all clients draw from, in turn."""
    rng = random.Random("oltp-stream-%d" % seed)
    accounts = data["accounts"]
    branch_names = {row[0]: row[1] for row in data["branches"]}
    tellers = OLTP_BRANCHES * OLTP_TELLERS_PER_BRANCH
    history_id = 0
    for position in itertools.cycle(range(OLTP_CYCLE)):
        is_write = position >= OLTP_CYCLE - OLTP_CYCLE_WRITES
        # Reads draw from [0, 0.8), writes from [0.8, 1).
        draw = 0.8 + 0.2 * rng.random() if is_write else 0.8 * rng.random()
        aid = rng.randrange(OLTP_ACCOUNTS)
        _aid, bid, name, _balance = accounts[aid]
        if draw < 0.40:
            yield OltpOp(
                "point",
                "SELECT aid, bid, name, balance FROM accounts "
                "WHERE aid = %d" % aid,
                expect=(str(aid), str(bid), name))
        elif draw < 0.80:
            yield OltpOp(
                "join",
                "SELECT a.aid, a.name, b.bid, b.bname FROM accounts a, "
                "branches b WHERE a.aid = %d AND b.bid = a.bid" % aid,
                expect=(str(aid), name, str(bid), branch_names[bid]))
        elif draw < 0.90:
            delta = rng.randint(-999, 999)
            yield OltpOp(
                "update",
                "UPDATE accounts SET balance = balance + %d "
                "WHERE aid = %d" % (delta, aid), delta=delta)
        else:
            history_id += 1
            yield OltpOp(
                "insert",
                "INSERT INTO history VALUES (%d, %d, %d, %d, %d)"
                % (history_id, aid, rng.randrange(tellers), bid,
                   rng.randint(-999, 999)))


# -- olap ---------------------------------------------------------------------

OLAP_FACT_ROWS = 8_000
OLAP_STORES = 200
#: Width of the fact table's ``note`` column: wide rows put the fact
#: table at about 580 pages (2.3x the default 256-frame pool) while
#: keeping one scan short enough for well over 100 queries per run.
OLAP_NOTE_WIDTH = 250

OLAP_DDL = [
    "CREATE TABLE sales (sale_id INTEGER PRIMARY KEY, store_id INTEGER, "
    "product_id INTEGER, qty INTEGER, amount INTEGER, note VARCHAR(250))",
    "CREATE TABLE stores (store_id INTEGER PRIMARY KEY, "
    "region VARCHAR(12), name VARCHAR(20))",
    "CREATE INDEX ix_sales_store ON sales (store_id)",
]


def olap_data(seed: int) -> Dict[str, List[Tuple]]:
    rng = random.Random("olap-data-%d" % seed)
    stores = [(s, "region-%d" % rng.randrange(7), "store-%03d" % s)
              for s in range(OLAP_STORES)]
    letters = "abcdefghijklmnop"
    sales = []
    for sale_id in range(OLAP_FACT_ROWS):
        note = "".join(rng.choice(letters) for _ in range(OLAP_NOTE_WIDTH))
        sales.append((sale_id, int(OLAP_STORES * rng.random() ** 2),
                      rng.randrange(1000), rng.randrange(100),
                      rng.randrange(1, 100_000), note))
    return {"stores": stores, "sales": sales}


class OlapQuery:
    """One analytic query and its answer; ``ordered`` answers must match
    row for row, the others as bags."""

    __slots__ = ("name", "sql", "expect", "ordered")

    def __init__(self, name: str, sql: str, expect: List[Tuple],
                 ordered: bool = False):
        self.name = name
        self.sql = sql
        self.expect = expect
        self.ordered = ordered


def olap_queries(data: Dict[str, List[Tuple]]) -> List[OlapQuery]:
    """The five fixed queries and their answers over ``data``.  The
    literals are constants, so every seed asks for the same selectivity
    and only the rows differ."""
    sales = data["sales"]
    stores = {row[0]: row for row in data["stores"]}
    qty_cut, product_skip, top_qty, exists_qty = 40, 7, 90, 97

    filtered = [r for r in sales if r[3] < qty_cut and r[2] != product_skip]
    filtered_agg = [(len(filtered), sum(r[3] for r in filtered),
                     min(r[4] for r in filtered),
                     max(r[4] for r in filtered))]

    by_store: Dict[int, List[int]] = {}
    for r in sales:
        acc = by_store.setdefault(r[1], [0, 0])
        acc[0] += 1
        acc[1] += r[4]
    group_by = [(store, n, total) for store, (n, total) in by_store.items()]

    by_region: Dict[str, List[int]] = {}
    for r in sales:
        acc = by_region.setdefault(stores[r[1]][1], [0, 0])
        acc[0] += 1
        acc[1] += r[3]
    join_group = [(region, n, qty) for region, (n, qty) in by_region.items()]

    top = sorted((r for r in sales if r[3] > top_qty),
                 key=lambda r: (-r[4], r[0]))[:20]
    top_rows = [(r[0], r[4]) for r in top]

    hot = {r[1] for r in sales if r[3] > exists_qty}
    exists_rows = [(s, stores[s][2]) for s in sorted(stores) if s in hot]

    return [
        OlapQuery("filtered_aggregate",
                  "SELECT count(*), sum(qty), min(amount), max(amount) "
                  "FROM sales WHERE qty < %d AND product_id <> %d"
                  % (qty_cut, product_skip), filtered_agg),
        OlapQuery("group_by",
                  "SELECT store_id, count(*), sum(amount) FROM sales "
                  "GROUP BY store_id", group_by),
        OlapQuery("join_group_by",
                  "SELECT s.region, count(*), sum(f.qty) FROM sales f, "
                  "stores s WHERE f.store_id = s.store_id "
                  "GROUP BY s.region", join_group),
        OlapQuery("order_limit",
                  "SELECT sale_id, amount FROM sales WHERE qty > %d "
                  "ORDER BY amount DESC, sale_id LIMIT 20" % top_qty,
                  top_rows, ordered=True),
        OlapQuery("correlated_exists",
                  "SELECT s.store_id, s.name FROM stores s WHERE EXISTS "
                  "(SELECT 1 FROM sales f WHERE f.store_id = s.store_id "
                  "AND f.qty > %d)" % exists_qty, exists_rows),
    ]


# -- adhoc --------------------------------------------------------------------

#: Generated schemas per seed.  They share one database (names are
#: prefixed per schema), so many schemas average out how costly any one
#: of them is, and one 512-entry plan cache fills in a short warm-up.
ADHOC_SCHEMAS = 16


def _namespaced(schema, prefix: str):
    """``schema`` with every table, view and index name prefixed."""
    from repro.testkit.datagen import IndexSpec, SchemaSpec, TableSpec, \
        ViewSpec

    rename = {relation.name: prefix + relation.name
              for relation in schema.relations()}
    pattern = re.compile(r"\b(%s)\b" % "|".join(map(re.escape, rename)))
    tables = [TableSpec(rename[table.name], table.columns, table.rows,
                        [IndexSpec(prefix + index.name, rename[index.table],
                                   index.columns, index.kind)
                         for index in table.indexes])
              for table in schema.tables]
    views = [ViewSpec(rename[view.name], rename[view.base_table],
                      pattern.sub(lambda m: rename[m.group(1)], view.sql),
                      view.columns)
             for view in schema.views]
    return SchemaSpec(tables, views)


def adhoc_schemas(seed: int) -> list:
    """``(schema, generator)`` pairs; each generator continues the rng
    its schema was drawn from, as ``repro.testkit.run_seed`` does."""
    from repro.testkit.datagen import generate_schema
    from repro.testkit.querygen import QueryGenerator

    pairs = []
    for index in range(ADHOC_SCHEMAS):
        rng = random.Random("adhoc-%d-%d" % (seed, index))
        schema = _namespaced(generate_schema(rng), "s%d_" % index)
        pairs.append((schema, QueryGenerator(rng, schema)))
    return pairs


def adhoc_catalog(pairs):
    """All of the pairs' schemas as one catalog."""
    from repro.testkit.datagen import SchemaSpec

    return SchemaSpec([t for schema, _ in pairs for t in schema.tables],
                      [v for schema, _ in pairs for v in schema.views])


def adhoc_stream(pairs) -> Iterator[Tuple[int, str]]:
    """Endless ``(schema index, sql)`` stream, round-robin over the
    schemas; a text already issued against a schema is skipped, so every
    statement is new to its database's plan cache."""
    seen = [set() for _ in pairs]
    while True:
        for index, (_schema, generator) in enumerate(pairs):
            # A tiny schema can run dry of new texts; it then sits out
            # the round rather than stalling the stream.
            for _attempt in range(200):
                sql = generator.generate().render()
                if sql not in seen[index]:
                    seen[index].add(sql)
                    yield index, sql
                    break
