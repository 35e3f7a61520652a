"""The same seed gives byte-identical inputs, in any process.

    PYTHONPATH=src python3 -m pytest perfbench/test_determinism.py -q

Each workload's data and the head of its statement stream are hashed
here and in a fresh interpreter with a different ``PYTHONHASHSEED``;
the digests must match.  ``python3 perfbench/test_determinism.py SEED``
prints the digests.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [SRC, HERE]

import workloads  # noqa: E402

#: Statements taken from each endless stream.
STREAM_HEAD = 400


def _hash(*parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(repr(part).encode("utf-8"))
    return digest.hexdigest()


def digests(seed: int) -> dict:
    oltp = workloads.oltp_data(seed)
    stream = workloads.oltp_stream(seed, oltp)
    oltp_head = [(op.kind, op.sql, op.expect, op.delta)
                 for op in (next(stream) for _ in range(STREAM_HEAD))]
    olap = workloads.olap_data(seed)
    queries = [(q.name, q.sql, q.expect, q.ordered)
               for q in workloads.olap_queries(olap)]
    pairs = workloads.adhoc_schemas(seed)
    schemas = workloads.adhoc_catalog(pairs).statements()
    stream = workloads.adhoc_stream(pairs)
    adhoc = [next(stream) for _ in range(STREAM_HEAD)]
    return {
        "oltp": _hash(sorted(oltp.items()), oltp_head),
        "olap": _hash(sorted(olap.items()), queries),
        "adhoc": _hash(schemas, adhoc),
    }


def test_same_seed_same_inputs_in_another_process():
    env = dict(os.environ, PYTHONHASHSEED="12345",
               PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH",
                                                            ""))
    printed = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "7"], env=env,
        capture_output=True, text=True, check=True, timeout=300).stdout
    assert json.loads(printed) == digests(7)


def test_other_seed_other_inputs():
    first, second = digests(1), digests(2)
    for workload in first:
        assert first[workload] != second[workload], workload


if __name__ == "__main__":
    print(json.dumps(digests(int(sys.argv[1]))))
