"""PERF-9: statistics-driven cost-based optimization.

Two claims are measured, each against the PR 2 syntactic planner as the
oracle (``enable_cost_planner = False`` — same results, different cost):

* **greedy join ordering** — a three-table join written in worst-case
  syntactic order (``from a, c, b where a.x = b.x and b.y = c.y``)
  forces the syntactic planner through an ``a x c`` Cartesian product;
  the cost planner joins the connected pair first and visits orders of
  magnitude fewer combinations. Asserted >= 2x wall time in full mode;
* **zone-map pruning** — a range predicate near the top of a clustered
  (insertion-ordered) column lets the vectorized filter skip whole
  256-slot zones; >= 50% of zones skipped is asserted via the optimizer
  counters, and >= 2x wall time in full mode.

The recorded ``stats`` entry carries the full ``optimizer`` section
(plans costed, joins/conjuncts reordered, zone prune counters) that CI
validates in ``BENCH_optimizer.json``.
"""

import time

import pytest

from repro import ActiveDatabase

from .conftest import FAST_MODE, print_series, record_stats

JOIN_SIZES = (40, 80) if FAST_MODE else (200, 600)
ZONE_ROWS = 4_000 if FAST_MODE else 48_000

JOIN_SQL = (
    "select a.x, b.y from a, c, b where a.x = b.x and b.y = c.y"
)


def build_join_db(cost_planner, size):
    db = ActiveDatabase(record_seen=False)
    db.database.enable_cost_planner = cost_planner
    db.execute("create table a (x integer, pad integer)")
    db.execute("create table c (y integer, pad integer)")
    db.execute("create table b (x integer, y integer)")
    database = db.database
    for i in range(size):
        database.insert_row("a", (i, 0))
        database.insert_row("b", (i, i % (size // 2)))
    for i in range(size // 2):
        database.insert_row("c", (i, 0))
    return db


def build_zone_db(cost_planner, rows):
    db = ActiveDatabase(record_seen=False)
    database = db.database
    database.enable_cost_planner = cost_planner
    database.enable_compiled_eval = True
    db.execute("create table big (k integer, v integer)")
    for i in range(rows):
        database.insert_row("big", (i, i % 7))
    return db


def timed_rows(db, sql):
    db.rows(sql)  # warm the plan cache: measure execution, not planning
    start = time.perf_counter()
    result = db.rows(sql)
    return time.perf_counter() - start, result


@pytest.mark.parametrize("size", JOIN_SIZES)
def test_three_table_join_costed(benchmark, size):
    db = build_join_db(True, size)
    benchmark.pedantic(lambda: db.rows(JOIN_SQL), rounds=3, iterations=1)


@pytest.mark.parametrize("size", JOIN_SIZES)
def test_three_table_join_syntactic(benchmark, size):
    db = build_join_db(False, size)
    benchmark.pedantic(lambda: db.rows(JOIN_SQL), rounds=3, iterations=1)


def test_shape_join_order_beats_worst_case(benchmark):
    benchmark.pedantic(_shape_join_order, rounds=1, iterations=1)


def _shape_join_order():
    rows = []
    times = {}
    visited = {}
    for size in JOIN_SIZES:
        costed_db = build_join_db(True, size)
        syntactic_db = build_join_db(False, size)
        time_on, result_on = timed_rows(costed_db, JOIN_SQL)
        time_off, result_off = timed_rows(syntactic_db, JOIN_SQL)
        assert result_on == result_off  # identical rows, identical order
        on_stats = costed_db.database.planner_stats.rows_visited
        off_stats = syntactic_db.database.planner_stats.rows_visited
        assert costed_db.stats()["optimizer"]["joins_reordered"] >= 1
        times[size] = {"costed": time_on, "syntactic": time_off}
        visited[size] = {"costed": on_stats, "syntactic": off_stats}
        rows.append(
            (
                size,
                on_stats,
                off_stats,
                f"{time_on*1e3:.1f}ms",
                f"{time_off*1e3:.1f}ms",
                f"{time_off / max(time_on, 1e-9):.1f}x",
            )
        )
    print_series(
        "PERF-9: worst-case 3-table join, greedy order vs syntactic",
        ("rows/table", "visited (costed)", "visited (syntactic)",
         "costed", "syntactic", "speedup"),
        rows,
        values={"seconds": times, "rows_visited": visited},
    )
    if not FAST_MODE:
        largest = JOIN_SIZES[-1]
        assert times[largest]["syntactic"] >= 2 * times[largest]["costed"]


def test_shape_zone_maps_skip_batches(benchmark):
    benchmark.pedantic(_shape_zone_pruning, rounds=1, iterations=1)


def _shape_zone_pruning():
    # clustered ascending key: a top-2% range predicate leaves ~98% of
    # the 256-slot zones entirely outside the requested range
    threshold = int(ZONE_ROWS * 0.98)
    sql = f"select k, v from big where k > {threshold}"
    costed_db = build_zone_db(True, ZONE_ROWS)
    syntactic_db = build_zone_db(False, ZONE_ROWS)
    time_on, result_on = timed_rows(costed_db, sql)
    time_off, result_off = timed_rows(syntactic_db, sql)
    assert result_on == result_off
    assert len(result_on) == ZONE_ROWS - threshold - 1

    optimizer = costed_db.stats()["optimizer"]
    assert optimizer["zones_considered"] > 0
    assert optimizer["zone_prune_rate"] >= 0.5
    assert optimizer["rows_zone_pruned"] > 0
    record_stats("optimizer", costed_db)

    print_series(
        "PERF-9: zone-map pruning on a clustered range scan",
        ("rows", "zones", "pruned", "prune rate", "costed", "syntactic",
         "speedup"),
        [
            (
                ZONE_ROWS,
                optimizer["zones_considered"],
                optimizer["zones_pruned"],
                f"{optimizer['zone_prune_rate']:.2f}",
                f"{time_on*1e3:.1f}ms",
                f"{time_off*1e3:.1f}ms",
                f"{time_off / max(time_on, 1e-9):.1f}x",
            )
        ],
        values={
            "seconds": {"costed": time_on, "syntactic": time_off},
            "zones": {
                "considered": optimizer["zones_considered"],
                "pruned": optimizer["zones_pruned"],
                "rows_zone_pruned": optimizer["rows_zone_pruned"],
            },
        },
    )
    if not FAST_MODE:
        assert time_off >= 2 * time_on
