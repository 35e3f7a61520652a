#!/usr/bin/env python3
"""The repository benchmark: three workloads on the engine's defaults.

    python3 perfbench/run.py --workload oltp|olap|adhoc --seed N \\
        --seconds S --trace 0|1

Without ``--workload`` it runs the three workloads in turn.
Every workload runs ``Database()`` / ``ServeSettings()`` exactly as a
user gets them, so flipping a default shows up here as a measured
change.  Inputs come from ``perfbench/workloads.py`` and depend only on
the seed.  Every answer is checked; a statement that errors, is shed or
returns a wrong answer counts as failed and as missing any latency
limit.

Timings are reported at a reference host speed (:class:`HostSpeed`):
the run times a fixed pure-Python loop throughout and scales each
stretch of wall time by how fast the loop ran then, so a run on a slow
stretch of a shared host reads like one on a fast stretch.  The report
prints the wall-clock figure beside each.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload untraced and then traced (``perfbench/layers.py``) and prints
the per-layer metrics, the time no layer accounts for, and the tracing
overhead.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are the human-readable report (environment, every metric with its
unit and sample count, and each failing statement).

``perfbench/workloads.json`` records why each workload exists, which
layers it stresses and bypasses, and which per-layer metric should move
which end-to-end metric.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import math
import os
import platform
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("oltp", "olap", "adhoc")
#: Set-ups per untraced run; ``setup_s`` is their median.  oltp and olap
#: spread them over the run: each server (oltp) or database (olap) takes
#: an equal share of the measured window.
SETUP_REPEATS = {"oltp": 4, "olap": 9, "adhoc": 9}
#: oltp: closed-loop clients (one load process, at most nproc = 2).
OLTP_CLIENTS = 2
#: oltp: seconds of load before measuring (not recorded, still checked).
OLTP_WARMUP_S = 1.0
#: The tail percentile of each workload: one whose rank leaves at least
#: ten samples beyond it at this benchmark's run length.  oltp takes
#: p99.5 because about 1.5% of its statements wait out a snapshot
#: re-fork: p99 sits on the edge between waiting and not waiting and
#: jumps between them from run to run.
TAIL_PERCENTILE = {"oltp": 0.995, "olap": 0.90, "adhoc": 0.99}
#: Printed failures per run (the count is always complete).
FAILURES_SHOWN = 20


class Outcome:
    """What one measured phase of a workload produced."""

    def __init__(self):
        #: Client-observed milliseconds per measured operation; a failed
        #: operation records ``math.inf`` (it misses any latency limit).
        self.latencies = []
        #: ``(start, end)`` perf_counter() of each entry of ``latencies``.
        self.intervals = []
        #: Operation kind per entry of ``latencies`` (oltp read/write).
        self.kinds = []
        self.failures = []
        #: ``(start, end)`` stretches the throughput is taken over: each
        #: server's closed-loop window (oltp), or the caller's time inside
        #: the engine (olap, adhoc).
        self.windows = []
        #: ``(start, end)`` of each set-up.
        self.setups = []
        self.speed = HostSpeed()
        self.peak_rss_mb = 0.0
        #: Operations outside ``latencies`` (warm-up, final checks).
        self.extra_attempted = 0
        #: Per-layer recording (traced phase only).
        self.recording = None
        self.records_lost = 0
        self.notes = []

    def fail(self, where: str, sql: str, reason: str) -> None:
        self.failures.append("%s: %s -- %s" % (where, sql, reason))

    def record(self, start: float, end: float, ok: bool) -> None:
        self.intervals.append((start, end))
        self.latencies.append((end - start) * 1e3 if ok else math.inf)

    @property
    def ops(self) -> int:
        return len(self.latencies)

    @property
    def busy_s(self) -> float:
        return sum(end - start for start, end in self.windows)

    @property
    def setup_s(self):
        return [end - start for start, end in self.setups]

    @property
    def throughput(self) -> float:
        return self.ops / self.busy_s if self.busy_s > 0 else 0.0

    def at_reference_speed(self) -> "Outcome":
        """A copy whose timings are in reference seconds (HostSpeed),
        without the statements and time in stretches the host stole,
        unless those hold half the statements or more: then nothing is
        left out, since what remains would be too thin to measure."""
        scaled = self._scaled(skip_stolen=True)
        if scaled.ops * 2 <= self.ops:
            scaled = self._scaled(skip_stolen=False)
        return scaled

    def _scaled(self, skip_stolen: bool) -> "Outcome":
        scaled = Outcome()
        speed = self.speed
        for (start, end), latency in zip(self.intervals, self.latencies):
            if skip_stolen and speed.stolen(start, end):
                continue
            scaled.latencies.append(speed.scale(start, end) * 1e3
                                    if math.isfinite(latency) else math.inf)
        scaled.windows = [(0.0, speed.scale(start, end, skip_stolen))
                          for start, end in self.windows]
        # A set-up is scaled by the run's median probe: while the oltp
        # server starts, the probing thread sits beside an idle load
        # process and reads faster than the server runs.
        run_factor = REFERENCE_PROBE_MS / statistics.median(speed.ms)
        scaled.setups = [(0.0, (end - start) * run_factor)
                         for start, end in self.setups]
        scaled.peak_rss_mb = self.peak_rss_mb
        return scaled


# -- percentiles --------------------------------------------------------------


def percentile(values, fraction: float):
    """Nearest-rank percentile: ``(value, samples, samples beyond)``."""
    ordered = sorted(values)
    if not ordered:
        return math.inf, 0, 0
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1], len(ordered), len(ordered) - rank


def _finite(value: float, cap: float) -> float:
    return value if math.isfinite(value) else cap


# -- host speed ---------------------------------------------------------------


#: Milliseconds :func:`_probe_loop` takes at the reference speed: a round
#: figure within the per-run medians, 1.4 to 2.1 ms, that olap runs read
#: on a 2-vCPU Intel Xeon VM.
REFERENCE_PROBE_MS = 2.0
#: Seconds between probes while a :class:`HostSpeed` samples in the
#: background (oltp); olap probes between its queries.
PROBE_EVERY_S = 0.05
#: Half-width, in seconds, of the window of probes whose median gives
#: the host's speed at one instant.
PROBE_WINDOW_S = 0.5
#: The fewest probes such a median is taken over.
PROBE_MIN_SAMPLES = 5
#: Share of the machine's CPU time the host may take around a statement
#: before the statement is left out (:meth:`HostSpeed.stolen`).
STEAL_LIMIT = 0.05
CPUS = os.cpu_count() or 1
CLOCK_TICKS = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def _probe_loop() -> int:
    """A fixed piece of pure-Python work of the kind the engine does:
    dict lookups and stores, tuple building and calls."""
    table = {}
    total = 0
    for i in range(8000):
        key = i % 61
        table[key] = table.get(key, 0) + 1
        total += len((key, i))
    return total


class HostSpeed:
    """How fast the host runs Python, sampled through a run.

    The benchmark runs on shared hosts whose virtual CPUs run the same
    code at speeds up to 2x apart, within seconds and between regimes
    lasting minutes, and the guest cannot see it: a thread's CPU time
    grows as its wall time does.  Raw wall times then measure the host
    as much as the engine.  So a run times :func:`_probe_loop` through
    its whole length (thread CPU time, so waiting for a core is not
    counted) and every timing metric is reported at the reference
    speed: a stretch of wall time around instant ``t`` counts
    ``REFERENCE_PROBE_MS / m(t)`` times its length, where ``m(t)`` is
    the median probe time within ``PROBE_WINDOW_S`` of ``t`` (set-ups
    take the whole run's median probe instead).  The raw wall-clock
    figures are printed beside them.

    The host also takes CPU time from the virtual machine outright
    ("steal" in ``/proc/stat``), in bursts of tens of seconds.  The
    probe does not see that time, and oltp, whose statements pass
    through three processes, loses about 2.4 times the stolen share of
    its throughput.  So each probe also reads the steal counter, and
    statements within ``PROBE_WINDOW_S`` of a stretch where the host
    took more than ``STEAL_LIMIT`` of the machine's CPU time are left
    out of the timings, together with that stretch's time."""

    def __init__(self):
        self.ends = []  # perf_counter() at the end of each probe
        self.ms = []
        self.steal_at = []  # perf_counter() of each steal reading
        self.steal_s = []  # CPU seconds the host had stolen by then

    def probe(self) -> None:
        started = time.thread_time()
        _probe_loop()
        self.ms.append((time.thread_time() - started) * 1e3)
        self.ends.append(time.perf_counter())
        stolen = _stolen_cpu_s()
        if stolen is not None:
            self.steal_at.append(self.ends[-1])
            self.steal_s.append(stolen)

    def factor(self, instant: float) -> float:
        """Reference seconds per wall second around ``instant``."""
        low = bisect.bisect_left(self.ends, instant - PROBE_WINDOW_S)
        high = bisect.bisect_right(self.ends, instant + PROBE_WINDOW_S)
        while high - low < PROBE_MIN_SAMPLES and (
                low > 0 or high < len(self.ends)):
            low, high = max(0, low - 1), min(len(self.ends), high + 1)
        return REFERENCE_PROBE_MS / statistics.median(self.ms[low:high])

    def stolen(self, start: float, end: float) -> bool:
        """Whether the host took more than ``STEAL_LIMIT`` of the
        machine's CPU time within ``PROBE_WINDOW_S`` of ``start``..``end``
        (between the nearest steal readings outside that stretch)."""
        low = bisect.bisect_right(self.steal_at, start - PROBE_WINDOW_S) - 1
        high = bisect.bisect_left(self.steal_at, end + PROBE_WINDOW_S)
        low, high = max(0, low), min(len(self.steal_at) - 1, high)
        if high <= low:
            return False
        share = (self.steal_s[high] - self.steal_s[low]) / (
            (self.steal_at[high] - self.steal_at[low]) * CPUS)
        return share > STEAL_LIMIT

    def scale(self, start: float, end: float,
              skip_stolen: bool = False) -> float:
        """The wall interval ``start``..``end`` in reference seconds,
        leaving out stolen stretches when ``skip_stolen``."""
        steps = max(1, math.ceil((end - start) / 0.1))
        width = (end - start) / steps
        total = 0.0
        for k in range(steps):
            low = start + k * width
            if not (skip_stolen and self.stolen(low, low + width)):
                total += width * self.factor(low + width / 2)
        return total

    def sample(self, stop: threading.Event) -> None:
        """Probe every ``PROBE_EVERY_S`` until ``stop`` is set."""
        while not stop.wait(PROBE_EVERY_S):
            self.probe()


def _stolen_cpu_s():
    """CPU seconds the hypervisor has taken from this machine (the
    ``steal`` column of ``/proc/stat``), or None where there is none."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / CLOCK_TICKS
    except (OSError, IndexError, ValueError):
        return None


# -- processes ----------------------------------------------------------------


def become_subreaper() -> None:
    """Adopt orphaned descendants (Linux), so snapshot workers that
    outlive their server still show up in :func:`descendants`."""
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def descendants():
    """``[(pid, state)]`` of every live descendant of this process."""
    children = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry) as handle:
                stat = handle.read()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        children.setdefault(int(fields[1]), []).append((int(entry),
                                                        fields[0]))
    found, stack = [], [os.getpid()]
    while stack:
        for pid, state in children.get(stack.pop(), []):
            found.append((pid, state))
            stack.append(pid)
    return found


def reap_survivors(outcome: Outcome, grace_s: float = 5.0) -> None:
    """Every process this workload started must be gone.  Descendants
    get ``grace_s`` to exit on their own (a snapshot worker orphaned by
    its server exits once its pipe reports EOF); zombies are reaped, and
    anything still running is killed and reported as a failure."""
    if not os.path.isdir("/proc"):
        return
    deadline = time.monotonic() + grace_s
    while True:
        alive = []
        for pid, state in descendants():
            if state == "Z":
                try:
                    os.waitpid(pid, 0)
                except ChildProcessError:
                    pass
            else:
                alive.append(pid)
        if not alive or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    for pid in alive:
        outcome.fail("process", "pid %d" % pid,
                     "still alive after the workload; killed")
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


# -- olap ---------------------------------------------------------------------


def _load(db, data) -> None:
    txn = db.begin()
    for table, rows in data.items():
        for row in rows:
            db.engine.insert(txn, table, row)
    db.commit(txn)


def _check_olap(query, rows):
    if query.ordered:
        return None if list(rows) == query.expect else "rows or order differ"
    if sorted(rows) != sorted(query.expect):
        return "result bags differ"
    return None


def olap_phase(seed: int, seconds: float, repeats: int, rec=None):
    """Set up ``repeats`` databases one after another; each takes an
    equal share of the measured window, so the set-ups are spread over
    the run like the queries are, and ``setup_s`` sees the same stretch
    of host speed as the other metrics.  A traced run uses one."""
    import workloads
    from repro import Database

    assert rec is None or repeats == 1
    data = workloads.olap_data(seed)
    queries = workloads.olap_queries(data)
    out = Outcome()

    def set_up():
        gc.collect()  # the previous database's garbage is not billed here
        out.speed.probe()
        started = time.perf_counter()
        db = Database()
        for statement in workloads.OLAP_DDL:
            db.execute(statement)
        _load(db, data)
        db.analyze()
        out.setups.append((started, time.perf_counter()))
        out.speed.probe()
        return db

    def run(db, query):
        """``(Result or exception, start, end)``; probes the host's
        speed after each query, outside its timing."""
        started = time.perf_counter()
        try:
            outcome = db.execute(query.sql)
        except Exception as exc:  # every failure is reported below
            outcome = exc
        ended = time.perf_counter()
        out.speed.probe()
        return outcome, started, ended

    def agrees(query, outcome, where) -> bool:
        if isinstance(outcome, Exception):
            reason = "%s: %s" % (type(outcome).__name__, outcome)
        else:
            reason = _check_olap(query, outcome.rows)
        if reason is not None:
            out.fail("seed=%d %s %s" % (seed, where, query.name), query.sql,
                     reason)
        return reason is None

    index = 0
    for _ in range(repeats):
        db = set_up()
        for query in queries:  # the first pass fills the plan cache
            agrees(query, run(db, query)[0], "warm-up")
            out.extra_attempted += 1
        if rec is not None:
            import layers

            before = layers.db_counters(db)
            rec.reset()
        deadline = time.perf_counter() + seconds / repeats
        while time.perf_counter() < deadline:
            query = queries[index % len(queries)]
            frame = rec.begin("op") if rec is not None else None
            outcome, started, ended = run(db, query)
            if frame is not None:
                rec.end(frame)
            ok = agrees(query, outcome, "pass %d" % (index // len(queries)))
            out.windows.append((started, ended))
            out.record(started, ended, ok)
            index += 1
        if rec is not None:
            out.recording = rec.export()
            out.recording["counters"].update(
                layers.delta(layers.db_counters(db), before))
        db.close()
    return out


# -- adhoc --------------------------------------------------------------------


def _adhoc_verdict(oracle, sql, outcome):
    """None when ``outcome`` (a Result or the raised exception) matches
    the reference oracle the way ``DifferentialRunner.check_sql`` judges
    it; "unchecked" when the oracle cannot evaluate the statement."""
    from repro.errors import DivisionByZeroError, ReproError
    from repro.testkit.differential import DifferentialRunner
    from repro.testkit.oracle import OracleError

    try:
        expected = oracle.execute(sql)
    except OracleError as exc:
        if exc.unsupported:
            return "unchecked"
        expected = exc
    except ReproError as exc:
        expected = exc
    if isinstance(expected, ReproError):
        wanted = (DivisionByZeroError
                  if isinstance(expected, DivisionByZeroError)
                  else ReproError)
        if isinstance(outcome, wanted):
            return None
        if isinstance(outcome, BaseException):
            return "oracle raised %s but the engine raised %s: %s" % (
                type(expected).__name__, type(outcome).__name__, outcome)
        return "oracle raised %s but the engine returned rows" % (
            type(expected).__name__)
    if isinstance(outcome, BaseException):
        return "engine raised %s: %s (oracle returned %d rows)" % (
            type(outcome).__name__, outcome, len(expected.rows))
    return DifferentialRunner._compare(expected, outcome.rows)


def adhoc_phase(seed: int, seconds: float, repeats: int, rec=None):
    import workloads
    from repro.testkit.datagen import build_database
    from repro.testkit.oracle import ReferenceOracle

    pairs = workloads.adhoc_schemas(seed)
    catalog = workloads.adhoc_catalog(pairs)
    out = Outcome()
    db = None
    for _ in range(repeats):
        if db is not None:
            db.close()
        out.speed.probe()
        started = time.perf_counter()
        db = build_database(catalog)
        out.setups.append((started, time.perf_counter()))
        out.speed.probe()
    stream = workloads.adhoc_stream(pairs)

    oracle = ReferenceOracle(db)
    unchecked = 0

    def run(index, sql):
        started = time.perf_counter()
        try:
            outcome = db.execute(sql)
        except Exception as exc:  # judged against the oracle below
            outcome = exc
        ended = time.perf_counter()
        out.speed.probe()
        return outcome, started, ended

    def agrees(index, sql, outcome, where) -> bool:
        """Judge one outcome against the oracle (outside the timing)."""
        nonlocal unchecked
        verdict = _adhoc_verdict(oracle, sql, outcome)
        if verdict == "unchecked":
            unchecked += 1
        elif verdict is not None:
            out.fail("seed=%d schema=%d %s" % (seed, index, where), sql,
                     verdict)
            return False
        return True

    # Warm-up fills the plan cache to capacity, so its memory is paid
    # before timing and peak RSS does not grow with throughput.
    warmup = db.plan_cache.capacity + 8
    for _ in range(warmup):
        index, sql = next(stream)
        agrees(index, sql, run(index, sql)[0], "warm-up")
    out.extra_attempted = warmup
    before = None
    if rec is not None:
        import layers

        before = layers.db_counters(db)
        rec.reset()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        index, sql = next(stream)
        frame = rec.begin("op") if rec is not None else None
        outcome, started, ended = run(index, sql)
        if frame is not None:
            rec.end(frame)
        ok = agrees(index, sql, outcome, "statement %d" % out.ops)
        out.windows.append((started, ended))
        out.record(started, ended, ok)
    if rec is not None:
        out.recording = rec.export()
        out.recording["counters"].update(
            layers.delta(layers.db_counters(db), before))
    out.notes.append("adhoc: %d statement(s) the oracle cannot evaluate "
                     "were run but not checked" % unchecked)
    db.close()
    return out


# -- oltp ---------------------------------------------------------------------


class OltpServer:
    """The server process, driven over its stdin/stdout protocol."""

    #: Seconds to wait for the server to start or to stop.
    TIMEOUT_S = 120

    def __init__(self, seed: int, spans_dir=None):
        command = [sys.executable, os.path.join(HERE, "oltp_server.py"),
                   "--seed", str(seed)]
        if spans_dir is not None:
            command += ["--spans-dir", spans_dir]
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, env=env, cwd=ROOT)
        ready, _w, _x = select.select([self.proc.stdout], [], [],
                                      self.TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("ready "):
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError("oltp server did not start: %r" % line)
        self.port = int(line.split()[1])

    def stop(self) -> dict:
        """Stop the server; returns its report."""
        try:
            output, _err = self.proc.communicate("stop\n",
                                                 timeout=self.TIMEOUT_S)
        except subprocess.TimeoutExpired:
            # A snapshot worker that outlives the server keeps this pipe
            # open too; the survivors are killed by reap_survivors.
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError("oltp server did not stop within %d s"
                               % self.TIMEOUT_S)
        for line in output.splitlines():
            if line.startswith("report "):
                return json.loads(line[len("report "):])
        raise RuntimeError("oltp server exited without a report (code %s)"
                           % self.proc.returncode)


def _oltp_check(op, result):
    if op.is_write:
        return None if result.rowcount == 1 else \
            "rowcount %d, expected 1" % result.rowcount
    if len(result.rows) != 1:
        return "%d rows, expected 1" % len(result.rows)
    got = result.rows[0][:len(op.expect)]
    return None if got == op.expect else "got %r, expected %r" % (
        got, op.expect)


def oltp_phase(seed: int, seconds: float, repeats: int, rec=None,
               spans_dir=None):
    """Start the server ``repeats`` times; each server takes an equal
    share of the measured window, so ``setup_s`` is a median over
    several server starts."""
    import workloads

    data = workloads.oltp_data(seed)
    out = Outcome()
    if rec is not None:
        import layers

        layers.install_client(rec)
    # The load process's own threads only wait on sockets, so a thread
    # of it can time the host throughout, server starts included.
    stop_sampling = threading.Event()
    sampler = threading.Thread(target=out.speed.sample,
                               args=(stop_sampling,))
    sampler.start()
    forks = 0
    try:
        for _ in range(repeats):
            started = time.perf_counter()
            server = OltpServer(seed, spans_dir)
            out.setups.append((started, time.perf_counter()))
            try:
                _oltp_load(seed, data, server.port, seconds / repeats, out)
            finally:
                report = server.stop()
            out.peak_rss_mb = max(out.peak_rss_mb, report["peak_rss_mb"])
            forks += report["snapshot_forks"]
    finally:
        stop_sampling.set()
        sampler.join()
    out.notes.append("oltp: %d snapshot pool fork(s), %.2f per 100 "
                     "statements" % (forks, 100.0 * forks / max(1, out.ops)))
    if rec is not None:
        # Workers write their spans as they exit; let stragglers finish.
        reap_survivors(out)
        worker_files = [name for name in os.listdir(spans_dir)
                        if name.startswith("worker-")]
        exports = [rec.export(), report["recording"]]
        for name in worker_files:
            with open(os.path.join(spans_dir, name)) as handle:
                exports.append(json.load(handle))
        out.recording = layers.merge(exports)
        out.records_lost = report["workers_forked"] - len(worker_files)
    return out


def _oltp_load(seed, data, port, seconds, out) -> None:
    """Warm up, then drive the closed loop for ``seconds``, then check
    that a fresh read sees every acknowledged write."""
    import workloads
    from repro.serve.client import WireClient

    lock = threading.Lock()
    stream = workloads.oltp_stream(seed, data)  # guarded by ``lock``
    acknowledged = {"delta": 0, "history": 0}
    measuring = threading.Event()
    stopping = threading.Event()

    def client(number):
        try:
            conn = WireClient("127.0.0.1", port)
        except OSError as exc:
            with lock:
                out.fail("seed=%d client=%d" % (seed, number), "connect",
                         repr(exc))
            return
        with conn:
            while not stopping.is_set():
                with lock:
                    op = next(stream)
                recorded = measuring.is_set()
                started = time.perf_counter()
                try:
                    result = conn.execute(op.sql)
                    reason = _oltp_check(op, result)
                except Exception as exc:  # errors and sheds both fail
                    reason = "%s: %s" % (type(exc).__name__, exc)
                ended = time.perf_counter()
                with lock:
                    if reason is None and op.kind == "update":
                        acknowledged["delta"] += op.delta
                    elif reason is None and op.kind == "insert":
                        acknowledged["history"] += 1
                    if reason is not None:
                        out.fail("seed=%d client=%d" % (seed, number),
                                 op.sql, reason)
                    if recorded:
                        out.record(started, ended, reason is None)
                        out.kinds.append("write" if op.is_write
                                         else "read")
                    else:
                        out.extra_attempted += 1

    threads = [threading.Thread(target=client, args=(number,))
               for number in range(OLTP_CLIENTS)]
    try:
        for thread in threads:
            thread.start()
        time.sleep(OLTP_WARMUP_S)
        measuring.set()
        window_start = time.perf_counter()
        time.sleep(seconds)
        stopping.set()
        for thread in threads:
            thread.join()
        out.windows.append((window_start, time.perf_counter()))
        _oltp_final_check(seed, port, acknowledged, out)
    finally:
        stopping.set()
        for thread in threads:
            thread.join()


def _oltp_final_check(seed, port, acknowledged, out) -> None:
    """A fresh, pinned read must see every acknowledged write."""
    import workloads
    from repro.serve.client import WireClient

    expected_sum = (workloads.OLTP_ACCOUNTS * workloads.OLTP_INITIAL_BALANCE
                    + acknowledged["delta"])
    statements = ["SNAPSHOT BEGIN",
                  "SELECT sum(balance), count(*) FROM accounts",
                  "SELECT count(*) FROM history", "SNAPSHOT END"]
    out.extra_attempted += len(statements)
    where = "seed=%d final check" % seed
    try:
        with WireClient("127.0.0.1", port) as conn:
            results = [conn.execute(sql) for sql in statements]
    except Exception as exc:
        out.fail(where, "; ".join(statements), "%s: %s" % (
            type(exc).__name__, exc))
        return
    balances = results[1].rows
    if balances != [(str(expected_sum), str(workloads.OLTP_ACCOUNTS))]:
        out.fail(where, statements[1], "got %r, expected sum %d over %d "
                 "accounts" % (balances, expected_sum,
                               workloads.OLTP_ACCOUNTS))
    history = results[2].rows
    if history != [(str(acknowledged["history"]),)]:
        out.fail(where, statements[2], "got %r, expected %d acknowledged "
                 "inserts" % (history, acknowledged["history"]))


PHASES = {"oltp": oltp_phase, "olap": olap_phase, "adhoc": adhoc_phase}


# -- environment --------------------------------------------------------------


def environment(workload: str, seed: int) -> dict:
    from benchmarks.conftest import cores
    from repro import Database
    from repro.serve import ServeSettings

    db = Database()
    settings, serve = db.settings, ServeSettings()
    env = {
        "workload": workload,
        "seed": seed,
        "cores": cores(),
        "python": platform.python_version(),
        "execution_mode": settings.execution_mode,
        "parallelism": settings.parallelism,
        "constant_parameterization": settings.constant_parameterization,
        "plan_cache_capacity": settings.plan_cache_capacity,
        "buffer_pool_frames": db.engine.pool.capacity,
        "snapshot_workers": serve.snapshot_workers,
        "max_inflight": serve.max_inflight,
        "snapshot_refresh_s": serve.snapshot_refresh_s,
    }
    db.close()
    return env


# -- reporting ----------------------------------------------------------------


def end_to_end(workload: str, out: Outcome) -> dict:
    """The end-to-end metrics as ``name -> (value, unit, detail)``;
    ``out.at_reference_speed()`` gives those the benchmark reports."""
    cap = out.busy_s * 1e3
    p50, samples, beyond50 = percentile(out.latencies, 0.50)
    fraction = TAIL_PERCENTILE[workload]
    tail, _samples, beyond = percentile(out.latencies, fraction)
    return {
        "setup_s": (statistics.median(out.setup_s), "s",
                    "median of %d set-ups" % len(out.setup_s)),
        "throughput_ops_s": (out.throughput, "1/s",
                             "%d statements" % out.ops),
        "latency_p50_ms": (_finite(p50, cap), "ms",
                           "p50 of %d, %d beyond" % (samples, beyond50)),
        "latency_tail_ms": (_finite(tail, cap), "ms",
                            "p%g of %d, %d beyond"
                            % (fraction * 100, samples, beyond)),
        "peak_rss_mb": (out.peak_rss_mb, "MB",
                        "server process" if workload == "oltp"
                        else "benchmark process"),
    }


def print_split(out: Outcome) -> None:
    """oltp's read/write latency split (report only)."""
    for kind, points in (("read", (0.50, 0.99)), ("write", (0.50, 0.95))):
        values = [lat for lat, k in zip(out.latencies, out.kinds)
                  if k == kind]
        for point in points:
            value, samples, beyond = percentile(values, point)
            print("  %s_p%d_ms %.3f ms (of %d, %d beyond%s)" % (
                kind, point * 100, _finite(value, out.busy_s * 1e3),
                samples, beyond,
                "; fewer than 10 beyond" if beyond < 10 else ""))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: each in turn)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: no engine source at %s; run from a checkout of "
              "the repository" % SRC, file=sys.stderr)
        return 2
    if args.workload is None:
        codes = [subprocess.call([sys.executable, os.path.abspath(__file__),
                                  "--workload", workload,
                                  "--seed", str(args.seed),
                                  "--seconds", str(args.seconds),
                                  "--trace", str(args.trace)])
                 for workload in WORKLOADS]
        return max(codes)
    sys.path[:0] = [SRC, ROOT, HERE]
    become_subreaper()

    env = environment(args.workload, args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    phase = PHASES[args.workload]
    spans_dir = None
    rec = None
    if args.trace:
        import layers

        rec = layers.Recorder()
    try:
        out = phase(args.seed, args.seconds,
                    1 if args.trace else SETUP_REPEATS[args.workload])
        if args.workload != "oltp":
            out.peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        reap_survivors(out)
        traced = None
        if args.trace:
            if args.workload == "oltp":
                spans_dir = os.path.join(ROOT, ".perfbench_tmp",
                                         str(os.getpid()))
                os.makedirs(spans_dir)
                traced = phase(args.seed, args.seconds, 1, rec=rec,
                               spans_dir=spans_dir)
            else:
                layers.install_engine(rec)
                traced = phase(args.seed, args.seconds, 1, rec=rec)
            reap_survivors(traced)
    finally:
        if spans_dir is not None:
            shutil.rmtree(spans_dir, ignore_errors=True)
            try:
                os.rmdir(os.path.dirname(spans_dir))
            except OSError:  # another run's spans are still there
                pass

    runs = [out] + ([traced] if traced is not None else [])
    failures = [line for run in runs for line in run.failures]
    attempted = sum(run.ops + run.extra_attempted for run in runs)
    scaled = out.at_reference_speed()
    metrics = end_to_end(args.workload, scaled)
    wall = end_to_end(args.workload, out)
    print("%s seed=%d: %d statement(s), %d failed (failed_ratio %.6f)"
          % (args.workload, args.seed, attempted, len(failures),
             len(failures) / attempted if attempted else 0.0))
    print("  host speed: %d probes, median %.3f ms (reference %.3f ms); "
          "%d of %d statements left out where the host stole over %d%% "
          "of the CPU time" % (
              len(out.speed.ms), statistics.median(out.speed.ms),
              REFERENCE_PROBE_MS, out.ops - scaled.ops, out.ops,
              STEAL_LIMIT * 100))
    for name, (value, unit, detail) in metrics.items():
        print("  %s %.4f %s (%s; wall clock %.4f)" % (
            name, value, unit, detail, wall[name][0]))
    if args.workload == "oltp":
        print_split(out)
    for run in runs:
        for note in run.notes:
            print("  note: " + note)
    for line in failures[:FAILURES_SHOWN]:
        print("  FAILED " + line)
    if len(failures) > FAILURES_SHOWN:
        print("  ... %d more failure(s)" % (len(failures) - FAILURES_SHOWN))

    if traced is not None:
        import layers

        overhead = traced.at_reference_speed().throughput \
            / scaled.throughput if scaled.throughput else 0.0
        values = layers.layer_metrics(traced.recording, overhead,
                                      traced.records_lost)
        print("per-layer (traced run, %d statements):" % traced.ops)
        for name, unit in layers.PER_LAYER.items():
            print("  %s %.6g %s" % (name, values[name], unit))
        result_metrics = {name: {"value": values[name], "unit": unit}
                          for name, unit in layers.PER_LAYER.items()}
    else:
        result_metrics = {name: {"value": value, "unit": unit}
                          for name, (value, unit, _d) in metrics.items()}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
