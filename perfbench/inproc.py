"""The in-process workloads (``oltp``, ``cascade``): one caller, closed loop.

One run:

1. generates the setup statements and the warm-up ops from the seed;
2. sets the database up :data:`SETUP_REPEATS` times, each time followed
   by the same warm-up ops with span counting on, and checks that every
   repeat produced the same deterministic counters;
3. on the last database, times ops back to back for the window
   (untraced), and, when tracing, for a second window with spans on.
   Ops are generated in chunks of :data:`CHUNK` with the window's clock
   stopped;
4. checks every op's result as it completes and the final state against
   the model.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter, thread_time

from repro import ActiveDatabase
from repro.errors import ReproError

from . import measure
from .trace import Tracer
from .workloads import (
    ALL_DEPT,
    ALL_EMP,
    ALL_LOG,
    Feed,
    cascade_stream,
    expected_after,
    oltp_stream,
    setup_statements,
    state_errors,
)

SETUP_REPEATS = 3
CHUNK = 500
WARMUP_OPS = {"oltp": 480, "cascade": 18}
#: the window op after which peak_rss_mb is read: fewer than the slowest
#: run completes (about 25k oltp and 350 cascade ops in 25 s on a 2-core
#: machine)
RSS_OPS = {"oltp": 15_000, "cascade": 200}
STREAMS = {"oltp": oltp_stream, "cascade": cascade_stream}

#: the optimisation layers of ActiveDatabase.database; the reference
#: configuration turns all of them off (interpreter only)
LAYER_FLAGS = (
    "enable_compiled_eval",
    "enable_vectorized_eval",
    "enable_typed_kernels",
    "enable_incremental_eval",
    "enable_cost_planner",
)


def check(op, result):
    """Whether one op's result matches its expected outcome."""
    if op.kind == "read":
        if isinstance(op.expect, dict):  # the payroll report
            rows = {dept: (count, total) for dept, count, total in result.rows}
            return rows.keys() == op.expect.keys() and all(
                rows[d][0] == count
                and abs(rows[d][1] - total) <= 1e-9 * max(abs(total), 1.0)
                for d, (count, total) in op.expect.items()
            )
        return result.rows == op.expect
    if not result.committed:
        return False
    for rule, firings in op.expect.items():
        if len(result.firings_of(rule)) != firings:
            return False
    if op.deleted is not None:
        deleted = sum(len(t.effect.deleted) for t in result.transitions)
        if deleted != op.deleted:
            return False
    return True


def run_op(db, op):
    """Run one op; returns ``(ok, cpu_s, wall_s)``."""
    wall = perf_counter()
    cpu = thread_time()
    try:
        result = db.query(op.sql) if op.kind == "read" else db.execute(op.sql)
    except ReproError:
        result = None
    cpu = thread_time() - cpu
    wall = perf_counter() - wall
    return result is not None and check(op, result), cpu, wall


def setup(workload, seed, reference=False):
    """A loaded database; returns ``(db, setup_s, define_rule_ms)`` with
    the set-up time in wall-clock seconds."""
    statements, rule_statements, _chart, _model = setup_statements(
        workload, seed
    )
    start = perf_counter()
    db = ActiveDatabase()
    if reference:
        for flag in LAYER_FLAGS:
            setattr(db.database, flag, False)
    for sql in statements:
        db.execute(sql)
    define_times = []
    for sql in rule_statements:
        begin = perf_counter()
        db.execute(sql)
        if not sql.startswith("create rule priority"):
            define_times.append(perf_counter() - begin)
    return db, perf_counter() - start, statistics.mean(define_times) * 1e3


def closed_loop(db, feed, model, seconds, tracer=None, window=None):
    """Run ops from ``feed`` until ``seconds`` of op time pass.

    The clock stops while the next chunk of ops is generated, while
    executed ops are applied to ``model`` and while the speed probe runs
    between segments. Returns a :class:`~perfbench.measure.Window`.
    """
    window = window or measure.Window()
    before = measure.probe()
    while window.clock_s < seconds:
        ops = feed.take(CHUNK)
        done = 0
        while done < len(ops) and window.clock_s < seconds:
            segment = []
            start = perf_counter()
            end = start + min(measure.SEGMENT_S, seconds - window.clock_s)
            while done < len(ops) and perf_counter() < end:
                op = ops[done]
                if tracer is not None:
                    tracer.op += 1
                ok, cpu_s, wall_s = run_op(db, op)
                segment.append((op.kind, cpu_s, wall_s))
                window.failed += not ok
                window.rows_written += op.rows
                done += 1
            segment_s = perf_counter() - start
            after = measure.probe()
            window.add(segment, segment_s, measure.scale(before, after))
            before = after
        expected_after(model, ops[:done])
        feed.put_back(ops[done:])
    window.finish()
    return window


def run(workload, seed, seconds, trace=False, reference=False):
    """One run of an in-process workload; returns a result dict."""
    feed = Feed(STREAMS[workload](seed))
    warm_ops = feed.take(WARMUP_OPS[workload])
    model = setup_statements(workload, seed)[3]
    expected_after(model, warm_ops)
    tracer = Tracer()
    tracer.install()
    setups, raw_setups, counter_sets, errors = [], [], [], []
    failed = attempted = 0
    for _ in range(SETUP_REPEATS):
        db = None  # drop the previous repeat before loading the next
        before_s = measure.probe()
        db, setup_s, define_rule_ms = setup(workload, seed, reference)
        raw_setups.append(setup_s)
        setups.append(setup_s * measure.scale(before_s, measure.probe()))
        before = db.stats()
        tracer.spans.clear()
        tracer.active = True
        for op in warm_ops:
            ok, _cpu_s, _wall_s = run_op(db, op)
            attempted += 1
            failed += not ok
        tracer.active = False
        delta = measure.stats_delta(before, db.stats())
        subqueries = sum(1 for s in tracer.spans if s[0] == "relational.select")
        counter_sets.append(measure.deterministic_counters(delta, subqueries))
    if any(counters != counter_sets[0] for counters in counter_sets):
        errors.append(f"deterministic counters differ between set-ups: "
                      f"{counter_sets}")
    if not trace:
        tracer.uninstall()
    tracer.spans.clear()
    gc.collect()  # earlier set-ups' cycles are not the window's work

    window = closed_loop(db, feed, model, seconds, window=measure.Window(
        measure.peak_rss_mb, RSS_OPS[workload]))
    attempted += window.ops
    failed += window.failed
    result = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": window.peak_rss_mb,
        "counters": counter_sets[-1],
        "warmup_ops": len(warm_ops),
        "deterministic": True,
        **window.metrics(),
    }
    result["raw"]["setup_s"] = statistics.median(raw_setups)
    if trace:
        stats_before = db.stats()
        tracer.active = True
        traced = closed_loop(db, feed, model, seconds, tracer)
        tracer.active = False
        delta = measure.stats_delta(stats_before, db.stats())
        attempted += traced.ops
        failed += traced.failed
        traced_metrics = traced.metrics()
        layers = measure.layer_metrics(
            tracer.spans, delta, traced.ops, traced.rows_written,
            define_rule_ms,
        )
        layers["trace.overhead_share"] = (
            traced_metrics["p50_ms"] / result["p50_ms"] - 1.0
        )
        result["layers"] = layers
        result["traced"] = traced_metrics
        result["traced_ops"] = traced.ops
        result["spans"] = tracer.spans
        tracer.uninstall()
    errors.extend(state_errors(
        [db.rows(sql) for sql in (ALL_EMP, ALL_DEPT, ALL_LOG)], model,
        "final state",
    ))
    failed += len(errors)
    result.update(
        attempted=attempted, failed=failed, errors=errors,
        error_rate=failed / attempted,
    )
    return result
