"""PERF-7: columnar batches + vectorized kernels vs the interpreter.

The batch-kernel layer turns predicate/projection evaluation from one
interpreter walk per row into one kernel call per column batch, so its
win grows with scanned volume. Two shapes are measured, each as a
compiled-on (``vectorized``) vs compiled-off (``interpreted``) series —
the off series is the interpreter, the layer's differential oracle:

* **predicate-heavy scan** — a four-conjunct filter chain plus ORDER BY
  over one table; the acceptance criterion (≥2x at full scale) is
  asserted on this shape;
* **wide-table rule cascade** — set-oriented rules whose conditions and
  actions rescan a wide table every consideration round, measuring the
  batch path through the engine's rule loop (transition tables, DML
  WHERE, condition evaluation).

The recorded ``stats`` entries carry the ``vectorized`` section
(batches scanned, selection-vector hit ratio, fallback counts) that CI
validates in ``BENCH_vectorized.json``.
"""

import time

import pytest

from repro import ActiveDatabase
from repro.relational.compiled import (
    BatchContext,
    batch_program_for,
    compile_batch_predicate,
)
from repro.relational.expressions import Evaluator
from repro.relational.select import BaseTableResolver
from repro.sql.parser import parse_select

from .conftest import FAST_MODE, print_series, record_stats

SIZES = (2000, 5000) if FAST_MODE else (5000, 20000)
#: asserted speedup of the predicate-heavy scan at the largest full-mode
#: size — the tentpole acceptance criterion (skipped in fast mode:
#: sub-ms timings are scheduler noise)
REQUIRED_SPEEDUP = 2.0

SCAN_SQL = (
    "select a, b from t where b > 1 and a % 3 = 0 and c < {bound} "
    "and s like 's%' order by a"
)


def build_scan_db(size):
    db = ActiveDatabase(record_seen=False)
    db.execute(
        "create table t (a integer, b integer, c float, s varchar)"
    )
    values = ", ".join(
        f"({i}, {i % 7}, {i * 0.5}, 's{i % 11}')" for i in range(size)
    )
    db.execute(f"insert into t values {values}")
    return db


def scan_sql(size):
    # keep ~45% selectivity on the float conjunct at every size
    return SCAN_SQL.format(bound=size * 0.45)


def timed_rows(db, sql, vectorized, repetitions=3):
    db.database.enable_compiled_eval = vectorized
    best = None
    for _ in range(repetitions):
        start = time.perf_counter()
        result = db.rows(sql)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, len(result)


@pytest.mark.parametrize("size", SIZES)
def test_scan_vectorized(benchmark, size):
    db = build_scan_db(size)
    sql = scan_sql(size)
    benchmark.pedantic(lambda: db.rows(sql), rounds=3, iterations=1)


@pytest.mark.parametrize("size", SIZES)
def test_scan_interpreted(benchmark, size):
    db = build_scan_db(size)
    db.database.enable_compiled_eval = False
    sql = scan_sql(size)
    benchmark.pedantic(lambda: db.rows(sql), rounds=3, iterations=1)


def test_shape_predicate_heavy_scan(benchmark):
    benchmark.pedantic(_shape_predicate_heavy_scan, rounds=1, iterations=1)


def _shape_predicate_heavy_scan():
    rows = []
    times = {}
    speedups = {}
    for size in SIZES:
        db = build_scan_db(size)
        sql = scan_sql(size)
        db.rows(sql)  # warm plan/program caches out of the measurement
        vec_time, vec_count = timed_rows(db, sql, vectorized=True)
        int_time, int_count = timed_rows(db, sql, vectorized=False)
        assert vec_count == int_count
        db.database.enable_compiled_eval = True
        db.reset_stats()
        db.rows(sql)
        section = db.stats()["vectorized"]
        record_stats(f"scan_{size}", db)
        speedup = int_time / vec_time
        times[size] = {"vectorized": vec_time, "interpreted": int_time}
        speedups[size] = speedup
        rows.append(
            (
                size,
                vec_count,
                f"{vec_time * 1e3:.1f}ms",
                f"{int_time * 1e3:.1f}ms",
                f"{speedup:.2f}x",
                f"{section['selection_hit_rate']:.2f}",
            )
        )
    print_series(
        "PERF-7: predicate-heavy scan, vectorized vs interpreter",
        ("rows", "selected", "vectorized", "interpreted", "speedup",
         "hit rate"),
        rows,
        values={"seconds": times, "speedup": speedups},
    )
    if not FAST_MODE:
        assert speedups[SIZES[-1]] >= REQUIRED_SPEEDUP, (
            f"vectorized scan speedup {speedups[SIZES[-1]]:.2f}x below "
            f"the required {REQUIRED_SPEEDUP}x"
        )


# ---------------------------------------------------------------------------
# typed vs generic batch kernels (docs §16)

#: asserted typed-over-generic speedup at the largest full-mode size —
#: monomorphic kernels only shave per-value dispatch, so the bar is
#: lower than the vectorized-over-interpreter criterion
REQUIRED_TYPED_SPEEDUP = 1.05


def timed_filter(program, ctx, sel, repetitions=5):
    """Best-of-``repetitions`` time of one batch predicate over ``sel``;
    returns ``(seconds, selected_count)``."""
    best = None
    for _ in range(repetitions):
        start = time.perf_counter()
        values, err = program.fn(ctx, sel)
        elapsed = time.perf_counter() - start
        assert err is None
        best = elapsed if best is None else min(best, elapsed)
    return best, sum(1 for value in values if value is True)


def test_shape_typed_kernels(benchmark):
    benchmark.pedantic(_shape_typed_kernels, rounds=1, iterations=1)


def _shape_typed_kernels():
    """The predicate-heavy scan's WHERE as one batch predicate over the
    whole table, in both series: the production program (catalog-kind
    monomorphic comparisons and arithmetic) vs the same predicate
    compiled with no kinds and no database — the generic per-value-
    dispatch kernels."""
    rows = []
    times = {}
    speedups = {}
    for size in SIZES:
        db = build_scan_db(size)
        sql = scan_sql(size)
        db.reset_stats()
        db.rows(sql)  # production run: count specialized kernels
        section = db.stats()["vectorized"]
        assert section["typed_kernels"] > 0
        record_stats(f"typed_{size}", db)
        database = db.database
        select = parse_select(sql)
        resolver = BaseTableResolver(database)
        columns, batch = resolver.resolve_batch(select.tables[0])
        layout = (("t", columns),)
        typed = batch_program_for(
            database, select.where, layout, predicate=True, table="t"
        )
        generic = compile_batch_predicate(select.where, layout)
        assert typed.kernels_typed > 0 and generic.kernels_typed == 0
        assert not typed.needs_scope and not generic.needs_scope
        ctx = BatchContext(batch.cols, None, Evaluator(database, resolver))
        typed_time, typed_count = timed_filter(typed, ctx, batch.sel)
        generic_time, generic_count = timed_filter(generic, ctx, batch.sel)
        assert typed_count == generic_count
        speedup = generic_time / typed_time
        times[size] = {"typed": typed_time, "generic": generic_time}
        speedups[size] = speedup
        rows.append(
            (
                size,
                typed_count,
                section["typed_kernels"],
                section["generic_kernels"],
                f"{typed_time * 1e3:.1f}ms",
                f"{generic_time * 1e3:.1f}ms",
                f"{speedup:.2f}x",
            )
        )
    print_series(
        "typed vs generic batch kernels, predicate-heavy WHERE",
        ("rows", "selected", "typed kernels", "generic kernels",
         "typed", "generic", "speedup"),
        rows,
        values={"seconds": times, "speedup": speedups},
    )
    if not FAST_MODE:
        assert speedups[SIZES[-1]] >= REQUIRED_TYPED_SPEEDUP, (
            f"typed kernel speedup {speedups[SIZES[-1]]:.2f}x below "
            f"the required {REQUIRED_TYPED_SPEEDUP}x"
        )


# ---------------------------------------------------------------------------
# wide-table rule cascade

WIDE_COLUMNS = 12
CASCADE_SIZES = (200, 500) if FAST_MODE else (500, 2000)


def build_cascade_db(size):
    """A wide table whose rules rescan it on every consideration: one
    rule caps a counter column set-oriented, another logs the capped
    handles — both conditions are predicate scans over all columns."""
    db = ActiveDatabase(record_seen=False)
    columns = ", ".join(f"c{i} integer" for i in range(WIDE_COLUMNS))
    db.execute(f"create table wide (k integer, n integer, {columns})")
    db.execute("create table capped (k integer)")
    values = ", ".join(
        "({}, {}, {})".format(
            i, i % 50, ", ".join(str((i * j) % 97) for j in range(WIDE_COLUMNS))
        )
        for i in range(size)
    )
    db.execute(f"insert into wide values {values}")
    db.execute(
        "create rule cap when updated wide.n "
        "if exists (select * from wide "
        "where n > 40 and c0 >= 0 and c1 >= 0 and c2 >= 0) "
        "then update wide set n = 40 where n > 40"
    )
    db.execute(
        "create rule log_cap when updated wide.n "
        "if exists (select * from new updated wide.n where n = 40) "
        "then insert into capped "
        "(select k from new updated wide.n where n = 40)"
    )
    return db


def run_cascade(db):
    return db.execute("update wide set n = n + 5 where n >= 35")


def test_shape_wide_cascade(benchmark):
    benchmark.pedantic(_shape_wide_cascade, rounds=1, iterations=1)


def _shape_wide_cascade():
    rows = []
    times = {}
    for size in CASCADE_SIZES:
        per_mode = {}
        for vectorized in (True, False):
            db = build_cascade_db(size)
            db.database.enable_compiled_eval = vectorized
            start = time.perf_counter()
            result = run_cascade(db)
            elapsed = time.perf_counter() - start
            per_mode[vectorized] = (elapsed, result.rule_firings)
            if vectorized:
                record_stats(f"cascade_{size}", db)
        (vec_time, vec_fired) = per_mode[True]
        (int_time, int_fired) = per_mode[False]
        assert vec_fired == int_fired  # same rule behaviour both modes
        times[size] = {"vectorized": vec_time, "interpreted": int_time}
        rows.append(
            (
                size,
                vec_fired,
                f"{vec_time * 1e3:.1f}ms",
                f"{int_time * 1e3:.1f}ms",
                f"{int_time / vec_time:.2f}x",
            )
        )
    print_series(
        "PERF-7: wide-table rule cascade, vectorized vs interpreter",
        ("rows", "fired", "vectorized", "interpreted", "speedup"),
        rows,
        values={"seconds": times},
    )
