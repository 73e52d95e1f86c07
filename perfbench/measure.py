"""Latency summaries, the speed probe, stats() deltas and layer metrics.

Every op is timed twice: by the wall clock, and by the CPU time it costs
(the calling thread's, plus the server process's on the server
workload). The end-to-end metrics come from the CPU times: on a shared
virtual machine the host takes the CPUs away for milliseconds at a time,
which the wall clock counts and the CPU clocks do not (steal time is
kept out of a task's CPU time). For this single-threaded, in-memory
program the two agree on an idle machine; the wall-clock figures are
printed beside them.

The CPU itself also runs the same code up to 25% slower or faster for
seconds at a time (other tenants share its caches and cores). So every
run measures its window in short segments and, between them, times a
fixed pure-Python probe (:func:`probe`). Each segment's times are scaled
by ``REFERENCE_PROBE_S / probe`` (the mean of the probes on either
side): the end-to-end times are *reference-speed* CPU times, what the
program would cost on a machine where the probe takes exactly
:data:`REFERENCE_PROBE_S`. Every timing metric is the median over slices
of the window (see :data:`SLICE_OPS`).
"""

from __future__ import annotations

import contextlib
import os
import statistics
from time import thread_time

from .trace import summarize

#: per-layer metric -> unit. Metrics whose layer a workload bypasses are
#: None there and print as n/a.
LAYER_UNITS = {
    "sql.parse_ms_per_op": "ms",
    "relational.dml_ms_per_op": "ms",
    "relational.select_self_ms_per_op": "ms",
    "relational.subqueries_per_op": "count",
    "relational.rows_scanned_per_row_changed": "ratio",
    "relational.interpreter_fallback_share": "fraction",
    "relational.plan_cache_hit_rate": "fraction",
    "relational.compile_cache_hit_rate": "fraction",
    "relational.zone_prune_rate": "fraction",
    "core.commit_ms_per_txn": "ms",
    "core.condition_ms_per_txn": "ms",
    "core.selection_ms_per_txn": "ms",
    "core.action_ms_per_txn": "ms",
    "core.fold_ms_per_txn": "ms",
    "core.transition_table_resolves_per_op": "count",
    "core.considerations_per_txn": "count",
    "core.fires_per_consideration": "ratio",
    "incremental.hit_rate": "fraction",
    "incremental.maintain_ms_per_txn": "ms",
    "obs.events_per_txn": "count",
    "obs.emit_ms_per_txn": "ms",
    "analysis.define_rule_ms": "ms",
    "trace.overhead_share": "fraction",
    "durability.log_commit_ms": "ms",
    "durability.fsyncs_per_commit": "count",
    "durability.wal_bytes_per_row": "bytes",
    "durability.recovery_s": "s",
    "concurrency.execute_ms_per_op": "ms",
    "concurrency.switches_per_txn": "count",
    "concurrency.conflict_rate": "fraction",
    "concurrency.retries": "count",
    "server.wire_ms_per_op": "ms",
}

#: the per-layer metrics every workload measures (BENCHMARK.json's
#: per_layer list); the rest exist on the server workload only
COMMON_LAYERS = tuple(
    name for name in LAYER_UNITS
    if not name.startswith(("durability.", "concurrency.", "server."))
)

END_TO_END_UNITS = {
    "ops_per_s": "ops/s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "write_p50_ms": "ms",
    "read_p50_ms": "ms",
    "error_rate": "fraction",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


REFERENCE_PROBE_S = 0.6e-3
#: clock time between two probes. Short, because the shared host's speed
#: changes within a fraction of a second: probes 0.05 s apart track the
#: speed the ops ran at better than probes 0.25 s apart, and smoothing
#: the probe over seconds tracks it worse
SEGMENT_S = 0.05
_PROBE_ROWS = 20_000
_PROBE_TABLE = {i: (i, str(i), float(i)) for i in range(_PROBE_ROWS)}


def _best_of_three(loop):
    best = float("inf")
    for _ in range(3):
        start = thread_time()
        loop()
        best = min(best, thread_time() - start)
    return best


def _arithmetic():
    total = 0
    for i in range(6_000):
        total += i * i


def _rows():
    rows = []
    for key in range(0, _PROBE_ROWS, 10):
        row = _PROBE_TABLE[key]
        rows.append((row[1], row[2] * 2.0))
    rows.sort()


class _Record:
    __slots__ = ("name", "number", "pair")

    def __init__(self, name, number, pair):
        self.name = name
        self.number = number
        self.pair = pair


def _objects():
    made = []
    for i in range(600):
        fields = {"name": f"e{i}", "number": i, "salary": i * 1.5}
        record = _Record(fields["name"], fields.get("number"),
                         (fields["salary"], i))
        made.append(record.number + len(record.name))
    made.sort()


def probe():
    """CPU seconds the fixed probe takes now: the geometric mean of three
    loops, each best of three (about 5 ms of CPU for the whole probe): a
    tight arithmetic loop; dict lookups, tuple building and a sort over a
    table larger than the first-level caches; and building dicts,
    strings and small objects. Over ten runs of one seed on a shared
    2-core machine whose speed swung by 16-43% between runs, the three
    together left 1-4% of spread between runs on each workload, the first
    two alone 4-6%."""
    return (
        _best_of_three(_arithmetic) * _best_of_three(_rows)
        * _best_of_three(_objects)
    ) ** (1.0 / 3.0)


@contextlib.contextmanager
def one_cpu():
    """Run the block, and every process it starts, on one CPU.

    The server workload's benchmark process and server then hand the CPU
    from client to server and back, and neither runs while the other
    reads its CPU clock, so each request's CPU time is read exactly.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def scale(before, after):
    """Reference-speed factor for a segment between two probes."""
    return REFERENCE_PROBE_S / ((before + after) / 2)


#: ops per slice of the window. Each timing metric is taken per slice
#: and reported as the median over slices, so a few seconds in which the
#: shared machine is slow, and the probe corrects only in part, move a
#: few slices rather than the reported value. With 10 ops beyond it, a
#: 500-op slice puts the tail at about p97.8
SLICE_OPS = 500


def tail(latencies):
    """``(value, percentile, samples)``: the latency at the highest
    percentile that has at least ten samples beyond it."""
    ordered = sorted(latencies)
    index = max(len(ordered) - 11, 0)
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered)


def slices(segments):
    """Consecutive segments grouped into slices of at least
    :data:`SLICE_OPS` ops (a short remainder joins the last slice; a
    window of fewer ops is one slice)."""
    grouped, current = [], []
    for segment in segments:
        current.append(segment)
        if sum(len(records) for records, _f in current) >= SLICE_OPS:
            grouped.append(current)
            current = []
    if current:
        if grouped:
            grouped[-1].extend(current)
        else:
            grouped.append(current)
    return grouped


def slice_metrics(segments, raw=False):
    """The timing metrics of one slice: from the ops' CPU times scaled to
    reference speed, or with ``raw`` from their wall-clock times. In a
    closed loop ops_per_s is the ops over the time they took."""
    all_ms, writes, reads = [], [], []
    for records, factor in segments:
        for kind, cpu_s, wall_s in records:
            ms = 1e3 * (wall_s if raw else cpu_s * factor)
            all_ms.append(ms)
            (reads if kind == "read" else writes).append(ms)
    tail_ms, tail_pct, samples = tail(all_ms)
    return {
        "ops_per_s": 1e3 * len(all_ms) / sum(all_ms),
        "p50_ms": statistics.median(all_ms),
        "tail_ms": tail_ms,
        "tail_percentile": tail_pct,
        "samples": samples,
        "write_p50_ms": statistics.median(writes) if writes else None,
        "read_p50_ms": statistics.median(reads) if reads else None,
    }


def latency_metrics(segments, raw=False):
    """End-to-end timing metrics of a window's ``(records, scale)``
    segments: each the median over :func:`slices` of its per-slice value.
    The tail's percentile and sample count are the first slice's."""
    per_slice = [slice_metrics(group, raw) for group in slices(segments)]
    result = {
        name: statistics.median(
            m[name] for m in per_slice if m[name] is not None
        )
        for name in ("ops_per_s", "p50_ms", "tail_ms", "write_p50_ms",
                     "read_p50_ms")
    }
    result.update(tail_percentile=per_slice[0]["tail_percentile"],
                  samples=per_slice[0]["samples"], slices=len(per_slice))
    return result


class Window:
    """The records of one measured window.

    With ``peak_rss`` (a function reading the database process's peak
    RSS) the window reads it once, at the end of the segment in which
    its ``rss_ops``-th op completes, or at its end if it never gets that
    far: tables that grow with every op (salary_log journals each raise)
    would otherwise make the peak follow how fast the machine ran.
    """

    def __init__(self, peak_rss=None, rss_ops=0):
        self.segments = []      # ([(kind, cpu_s, wall_s)], scale)
        self.ops = 0
        self.clock_s = 0.0      # wall-clock length of the segments
        self.wall_op_s = 0.0    # wall-clock time of the ops
        self.failed = 0
        self.rows_written = 0
        self._peak_rss = peak_rss
        self._rss_ops = rss_ops
        self.peak_rss_mb = None

    def add(self, segment, segment_s, factor):
        """One segment's ``(kind, cpu_s, wall_s)`` op records, its
        wall-clock length and its reference-speed factor."""
        self.segments.append((segment, factor))
        self.ops += len(segment)
        self.clock_s += segment_s
        self.wall_op_s += sum(wall_s for _k, _c, wall_s in segment)
        if self._peak_rss is not None and self.peak_rss_mb is None and (
            self.ops >= self._rss_ops
        ):
            self.peak_rss_mb = self._peak_rss()

    def finish(self):
        """Read the peak RSS now if the window has not read it yet."""
        if self._peak_rss is not None and self.peak_rss_mb is None:
            self.peak_rss_mb = self._peak_rss()

    def metrics(self):
        """Reference-speed metrics, plus the wall-clock ones under
        ``raw``."""
        result = latency_metrics(self.segments)
        result["raw"] = latency_metrics(self.segments, raw=True)
        result["raw"]["mean_op_ms"] = 1e3 * self.wall_op_s / self.ops
        return result


def peak_rss_mb(pid="self"):
    """Peak resident set size (VmHWM) of a process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


def stats_delta(before, after):
    """Counter deltas between two ``stats()`` snapshots.

    Sections map to ``{counter: delta}`` for numeric counters; per-rule
    counters are summed over rules under ``"rules"``.
    """
    delta = {}
    for section in ("engine", "planner", "compiler", "vectorized",
                    "optimizer", "incremental", "durability", "server"):
        now, then = after.get(section) or {}, before.get(section) or {}
        delta[section] = {
            key: value - then.get(key, 0)
            for key, value in now.items()
            if isinstance(value, (int, float)) and not isinstance(value, bool)
        }
    rules = {}
    for name, counters in after.get("rules", {}).items():
        old = before.get("rules", {}).get(name, {})
        for key, value in counters.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                rules[key] = rules.get(key, 0) + value - old.get(key, 0)
    delta["rules"] = rules
    return delta


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def deterministic_counters(delta, subquery_runs):
    """The counters a fixed op sequence repeats exactly for one seed."""
    engine = delta["engine"]
    vectorized = delta["vectorized"]
    durability = delta["durability"]
    return {
        "considerations": engine.get("considerations", 0),
        "rule_transitions": engine.get("rule_transitions", 0),
        "rows_scanned": vectorized.get("rows_scanned", 0),
        "fallback_rows": vectorized.get("fallback_rows", 0),
        "subquery_runs": subquery_runs,
        "events": engine.get("events", 0),
        "wal_records": durability.get("wal_records", 0),
        "wal_bytes": durability.get("wal_bytes", 0),
    }


def layer_metrics(spans, delta, ops, rows_written, define_rule_ms):
    """The per-layer metrics shared by every workload.

    ``spans`` are the traced window's spans, ``delta`` the window's
    :func:`stats_delta`, ``ops`` the ops completed in the window and
    ``rows_written`` the rows their own statements wrote.
    """
    summary = summarize(spans)

    def self_ms(name):
        return summary.get(name, {}).get("self_s", 0.0) * 1e3

    def total_ms(name):
        return summary.get(name, {}).get("total_s", 0.0) * 1e3

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    engine, rules = delta["engine"], delta["rules"]
    planner, compiler = delta["planner"], delta["compiler"]
    vectorized, optimizer = delta["vectorized"], delta["optimizer"]
    incremental = delta["incremental"]
    txns = engine.get("commits", 0)
    rows_changed = rows_written + sum(
        rules.get(key, 0)
        for key in ("rows_inserted", "rows_deleted", "rows_updated")
    )
    answered = incremental.get("hits", 0) + incremental.get("graph_skips", 0)
    return {
        "sql.parse_ms_per_op": self_ms("sql.parse") / ops,
        "relational.dml_ms_per_op": self_ms("relational.dml") / ops,
        "relational.select_self_ms_per_op": self_ms("relational.select") / ops,
        "relational.subqueries_per_op": calls("relational.select") / ops,
        "relational.rows_scanned_per_row_changed": _ratio(
            vectorized.get("rows_scanned", 0), rows_changed
        ),
        "relational.interpreter_fallback_share": _ratio(
            vectorized.get("fallback_rows", 0),
            vectorized.get("rows_scanned", 0),
        ),
        "relational.plan_cache_hit_rate": _ratio(
            planner.get("plan_cache_hits", 0),
            planner.get("plan_cache_hits", 0)
            + planner.get("plan_cache_misses", 0),
        ),
        "relational.compile_cache_hit_rate": _ratio(
            compiler.get("cache_hits", 0),
            compiler.get("cache_hits", 0) + compiler.get("cache_misses", 0),
        ),
        "relational.zone_prune_rate": _ratio(
            optimizer.get("zones_pruned", 0),
            optimizer.get("zones_considered", 0),
        ),
        "core.commit_ms_per_txn": _ratio(total_ms("core.commit"), txns),
        "core.condition_ms_per_txn": _ratio(
            rules.get("condition_time", 0.0) * 1e3, txns
        ),
        "core.selection_ms_per_txn": _ratio(
            engine.get("selection_time", 0.0) * 1e3, txns
        ),
        "core.action_ms_per_txn": _ratio(
            rules.get("action_time", 0.0) * 1e3, txns
        ),
        "core.fold_ms_per_txn": _ratio(total_ms("core.fold"), txns),
        "core.transition_table_resolves_per_op": calls("core.resolve") / ops,
        "core.considerations_per_txn": _ratio(
            engine.get("considerations", 0), txns
        ),
        "core.fires_per_consideration": _ratio(
            engine.get("rule_transitions", 0), engine.get("considerations", 0)
        ),
        "incremental.hit_rate": _ratio(
            answered,
            answered + incremental.get("refreshes", 0)
            + incremental.get("fallbacks", 0),
        ),
        "incremental.maintain_ms_per_txn": _ratio(
            total_ms("incremental.maintain"), txns
        ),
        "obs.events_per_txn": _ratio(engine.get("events", 0), txns),
        "obs.emit_ms_per_txn": _ratio(total_ms("obs.emit"), txns),
        "analysis.define_rule_ms": define_rule_ms,
    }


def server_layer_metrics(spans, delta, ops, rows_written, round_trip_ms,
                         client_retries, recovery_s):
    """The per-layer metrics only the server workload has."""
    summary = summarize(spans)
    durability, server = delta["durability"], delta["server"]
    commits_logged = durability.get("commits_logged", 0)
    coordinator_ms = summary.get("concurrency.execute", {}).get(
        "total_s", 0.0) * 1e3
    log_ms = summary.get("durability.log_commit", {}).get("total_s", 0.0) * 1e3
    rows_changed = rows_written + sum(
        delta["rules"].get(key, 0)
        for key in ("rows_inserted", "rows_deleted", "rows_updated")
    )
    return {
        "durability.log_commit_ms": _ratio(log_ms, commits_logged),
        "durability.fsyncs_per_commit": _ratio(
            durability.get("wal_syncs", 0), commits_logged
        ),
        "durability.wal_bytes_per_row": _ratio(
            durability.get("wal_bytes", 0), rows_changed
        ),
        "durability.recovery_s": recovery_s,
        "concurrency.execute_ms_per_op": coordinator_ms / ops,
        "concurrency.switches_per_txn": _ratio(
            server.get("switches", 0), server.get("commits", 0)
        ),
        "concurrency.conflict_rate": _ratio(
            server.get("conflicts", 0),
            server.get("commits", 0) + server.get("conflicts", 0),
        ),
        "concurrency.retries": server.get("retries", 0) + client_retries,
        "server.wire_ms_per_op": (round_trip_ms - coordinator_ms) / ops,
    }
