"""The oltp workload's server process.

Loads the seeded bank into a default ``Database()``, serves it with a
default ``ServeSettings()`` over a ``TCPServer`` on an ephemeral port,
and speaks a two-line protocol with the benchmark on stdin/stdout:

- prints ``ready <port>`` once the snapshot pool is forked and the
  socket listens;
- on a ``stop`` line (or stdin EOF) stops the ``TCPServer``, closes the
  ``Server`` (which stops every snapshot worker) and prints
  ``report <json>`` with its peak RSS and, when traced, its per-layer
  recording and engine counters.

Run by ``perfbench/run.py``; ``python3 perfbench/oltp_server.py --seed 1``
with ``PYTHONPATH=src`` starts one by hand.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402


def _wait_for_stop() -> None:
    """Block until a ``stop`` line or EOF on stdin.

    Reads the raw descriptor, never ``sys.stdin``: a snapshot worker
    forked while this thread sat inside ``sys.stdin``'s buffered read
    would inherit its lock held, and multiprocessing's child bootstrap
    (which closes ``sys.stdin``) would then deadlock."""
    pending = b""
    while True:
        chunk = os.read(0, 4096)
        if not chunk:
            return
        pending += chunk
        if b"stop" in pending.split(b"\n"):
            return


def _metric(snapshot: dict, name: str) -> int:
    return int(snapshot.get(name, 0))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spans-dir", default=None,
                        help="trace the layers; workers write spans here")
    args = parser.parse_args()

    from repro import Database
    from repro.serve import ServeSettings, Server, TCPServer

    db = Database()
    for statement in workloads.OLTP_DDL:
        db.execute(statement)
    txn = db.begin()
    for table, rows in workloads.oltp_data(args.seed).items():
        for row in rows:
            db.engine.insert(txn, table, row)
    db.commit(txn)
    db.analyze()

    rec = None
    if args.spans_dir is not None:
        import layers

        rec = layers.Recorder()
        layers.install_engine(rec)
        layers.install_server(rec, args.spans_dir)
        before = layers.db_counters(db)

    metrics_before = db.metrics_snapshot()
    settings = ServeSettings()
    server = Server(db, settings)
    tcp = TCPServer(server, port=0)
    tcp.start()
    print("ready %d" % tcp.port, flush=True)
    try:
        _wait_for_stop()
    finally:
        tcp.stop()
        server.close()
        db.close()

    after = db.metrics_snapshot()
    report = {"peak_rss_mb": resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "snapshot_forks": (_metric(after, "serve_snapshot_forks_total")
                           - _metric(metrics_before,
                                     "serve_snapshot_forks_total"))}
    if rec is not None:
        export = rec.export()
        counters = export["counters"]
        counters.update(layers.delta(layers.db_counters(db), before))
        for counter, metric in (
                ("serve.snapshot_reads", "serve_snapshot_reads_total"),
                ("serve.live_reads", "serve_live_reads_total"),
                ("serve.shed", "serve_shed_total"),
                ("storage.write_statements", "serve_writes_total")):
            counters[counter] = (_metric(after, metric)
                                 - _metric(metrics_before, metric))
        report["recording"] = export
        report["workers_forked"] = (report["snapshot_forks"]
                                    * settings.snapshot_workers)
    print("report " + json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
