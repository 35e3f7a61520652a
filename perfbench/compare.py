#!/usr/bin/env python3
"""Compare saved runs of perfbench/run.py between two versions.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the saved standard output of runs (one file per
run).  Per workload and end-to-end metric it prints each side's median
and quartiles, and judges the new median against the bound in
BENCHMARK.json: ``worse`` beyond the bound, ``unresolved`` when the base
runs spread wider than the bound, ``ok`` otherwise.  Runs taken on
different core counts (or Python versions, or engine defaults) are
flagged and not compared: the exit code is then 2, and 1 when any metric
is worse.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(directory: str) -> dict:
    """``{workload: {"env": set, "metrics": {name: [values]}}}``.

    A file may hold several runs (``run.py`` without ``--workload`` runs
    each workload in turn): each ``env`` line is paired with the first
    result line after it, and a run without a result is skipped."""
    runs: dict = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name)) as handle:
            lines = handle.read().splitlines()
        env = None
        for line in lines:
            if line.startswith("env "):
                env = json.loads(line[4:])
            elif env is not None and line.startswith('{"correct"'):
                _add(runs, env, json.loads(line))
                env = None
    return runs


def _add(runs: dict, env: dict, result: dict) -> None:
    side = runs.setdefault(env["workload"], {"env": set(), "metrics": {}})
    # Everything but the seed must match for runs to be comparable.
    side["env"].add(json.dumps({key: value for key, value in env.items()
                                if key != "seed"}, sort_keys=True))
    for metric, entry in result["metrics"].items():
        side["metrics"].setdefault(metric, []).append(entry["value"])


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    base, new = load(argv[0]), load(argv[1])
    status = 0
    for workload in sorted(set(base) & set(new)):
        envs = base[workload]["env"] | new[workload]["env"]
        if len(envs) > 1:
            print("FLAG %s: runs differ in cores, Python or defaults; not "
                  "compared:\n  %s" % (workload, "\n  ".join(sorted(envs))))
            status = 2
            continue
        for metric, rule in spec.items():
            old = base[workload]["metrics"].get(metric, [])
            now = new[workload]["metrics"].get(metric, [])
            if len(old) < 2 or len(now) < 2:
                continue
            q_old, q_new = (statistics.quantiles(old, n=4),
                            statistics.quantiles(now, n=4))
            m_old, m_new = statistics.median(old), statistics.median(now)
            change = (m_new - m_old) / m_old
            worse = change > rule["bound"] if rule["better"] == "lower" \
                else -change > rule["bound"]
            spread = (q_old[2] - q_old[0]) / m_old
            verdict = "worse" if worse else (
                "unresolved" if spread > rule["bound"] else "ok")
            if worse and status == 0:
                status = 1
            print("%-6s %-18s base %.4g [%.4g, %.4g]  new %.4g [%.4g, %.4g]"
                  "  %+.1f%%  %s" % (workload, metric, m_old, q_old[0],
                                     q_old[2], m_new, q_new[0], q_new[2],
                                     100 * change, verdict))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
