"""PERF-9: statistics-driven cost-based optimization.

Three claims are measured, each against the naive iterate-and-filter
path as the oracle (``enable_planner = False`` — same results, different
cost):

* **greedy join ordering** — a three-table join written in worst-case
  order (``from a, c, b where a.x = b.x and b.y = c.y``); the naive path
  enumerates the whole ``a x c x b`` product (``size**3 / 2``
  combinations per run), while the cost planner joins the connected pair
  first and visits orders of magnitude fewer combinations. The naive arm
  runs only at the sizes where that cubic enumeration takes seconds, not
  minutes (:data:`NAIVE_JOIN_SIZES`); >= 2x wall time is asserted in
  full mode at the largest of them;
* **joins whose WHERE can raise** — ``a.x = b.x and b.y / (a.pad + 1)
  >= 0``: the division may raise, so the planner may only prune with the
  total equality in front of it (a hash join keeping NULL keys) and runs
  the whole WHERE over what is left. Written the other way round (the
  division first), nothing may prune and the plan is the naive
  product; both orders are recorded, each next to the naive path on
  the same text, and >= 2x wall time for the prefix form is asserted
  in full mode;
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

JOIN_SIZES = (40, 80) if FAST_MODE else (120, 200, 600)
#: sizes the naive arm runs at: it enumerates the full product
#: (size**3 / 2 combinations per run) in constant memory, but its time
#: grows cubically (about 5 s a run at 120 rows/table, 24 s at 200)
NAIVE_JOIN_SIZES = tuple(size for size in JOIN_SIZES if size <= 120)
GUARDED_SIZES = (100, 200) if FAST_MODE else (200, 400)
ZONE_ROWS = 4_000 if FAST_MODE else 48_000

JOIN_SQL = (
    "select a.x, b.y from a, c, b where a.x = b.x and b.y = c.y"
)
#: the same join with a conjunct that may raise (division), after and
#: before the total equality
GUARDED_SQL = {
    "prefix": "select a.x, b.y from a, b "
              "where a.x = b.x and b.y / (a.pad + 1) >= 0",
    "raising_first": "select a.x, b.y from a, b "
                     "where b.y / (a.pad + 1) >= 0 and a.x = b.x",
}


def build_join_db(planner, size):
    db = ActiveDatabase(record_seen=False)
    db.database.enable_planner = planner
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


def build_zone_db(planner, rows):
    db = ActiveDatabase(record_seen=False)
    database = db.database
    database.enable_planner = planner
    database.enable_compiled_eval = True
    db.execute("create table big (k integer, v integer)")
    for i in range(rows):
        database.insert_row("big", (i, i % 7))
    return db


def timed_rows(db, sql):
    """``(seconds, rows, rows_visited)`` of one warm run (the plan cache
    is warmed first: measure execution, not planning)."""
    db.rows(sql)
    stats = db.database.planner_stats
    visited = stats.rows_visited
    start = time.perf_counter()
    result = db.rows(sql)
    elapsed = time.perf_counter() - start
    return elapsed, result, stats.rows_visited - visited


@pytest.mark.parametrize("size", JOIN_SIZES)
def test_three_table_join_costed(benchmark, size):
    db = build_join_db(True, size)
    benchmark.pedantic(lambda: db.rows(JOIN_SQL), rounds=3, iterations=1)


@pytest.mark.parametrize("size", NAIVE_JOIN_SIZES)
def test_three_table_join_naive(benchmark, size):
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
        time_on, result_on, on_stats = timed_rows(costed_db, JOIN_SQL)
        assert costed_db.stats()["optimizer"]["joins_reordered"] >= 1
        times[size] = {"costed": time_on}
        visited[size] = {"costed": on_stats}
        if size in NAIVE_JOIN_SIZES:
            naive_db = build_join_db(False, size)
            time_off, result_off, off_stats = timed_rows(naive_db, JOIN_SQL)
            assert result_on == result_off  # identical rows and order
            assert on_stats < off_stats
            times[size]["naive"] = time_off
            visited[size]["naive"] = off_stats
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
        else:
            rows.append(
                (size, on_stats, "-", f"{time_on*1e3:.1f}ms", "-", "-")
            )
    print_series(
        "PERF-9: worst-case 3-table join, greedy order vs naive",
        ("rows/table", "visited (costed)", "visited (naive)",
         "costed", "naive", "speedup"),
        rows,
        values={"seconds": times, "rows_visited": visited},
    )
    if not FAST_MODE:
        largest = NAIVE_JOIN_SIZES[-1]
        assert times[largest]["naive"] >= 2 * times[largest]["costed"]


def build_guarded_db(planner, size):
    db = ActiveDatabase(record_seen=False)
    db.database.enable_planner = planner
    db.execute("create table a (x integer, pad integer)")
    db.execute("create table b (x integer, y integer)")
    database = db.database
    for i in range(size):
        database.insert_row("a", (i, i % 3))
        database.insert_row("b", (size - 1 - i, i))
    return db


def test_shape_raising_join_keeps_its_prefix_join(benchmark):
    benchmark.pedantic(_shape_raising_join, rounds=1, iterations=1)


def _shape_raising_join():
    rows = []
    times = {}
    visited = {}
    for size in GUARDED_SIZES:
        dbs = {"planned": build_guarded_db(True, size),
               "naive": build_guarded_db(False, size)}
        times[size] = {}
        visited[size] = {}
        results = []
        for form, sql in GUARDED_SQL.items():
            for path, db in dbs.items():
                elapsed, result, count = timed_rows(db, sql)
                times[size][f"{form}_{path}"] = elapsed
                visited[size][f"{form}_{path}"] = count
                results.append(result)
        assert all(result == results[0] for result in results)
        assert len(results[0]) == size
        assert visited[size]["prefix_planned"] < visited[size]["prefix_naive"]
        rows.append(
            (size,)
            + tuple(visited[size][arm] for arm in (
                "prefix_planned", "prefix_naive", "raising_first_planned"))
            + tuple(f"{times[size][arm]*1e3:.1f}ms" for arm in (
                "prefix_planned", "prefix_naive", "raising_first_planned",
                "raising_first_naive"))
        )
    print_series(
        "PERF-9: join whose WHERE can raise, total prefix vs naive",
        ("rows/table", "visited (prefix)", "visited (naive)",
         "visited (raising first)", "prefix", "prefix naive",
         "raising first", "raising first naive"),
        rows,
        values={"seconds": times, "rows_visited": visited},
    )
    if not FAST_MODE:
        largest = times[GUARDED_SIZES[-1]]
        assert largest["prefix_naive"] >= 2 * largest["prefix_planned"]


def test_shape_zone_maps_skip_batches(benchmark):
    benchmark.pedantic(_shape_zone_pruning, rounds=1, iterations=1)


def _shape_zone_pruning():
    # clustered ascending key: a top-2% range predicate leaves ~98% of
    # the 256-slot zones entirely outside the requested range
    threshold = int(ZONE_ROWS * 0.98)
    sql = f"select k, v from big where k > {threshold}"
    costed_db = build_zone_db(True, ZONE_ROWS)
    naive_db = build_zone_db(False, ZONE_ROWS)
    time_on, result_on, _ = timed_rows(costed_db, sql)
    time_off, result_off, _ = timed_rows(naive_db, sql)
    assert result_on == result_off
    assert len(result_on) == ZONE_ROWS - threshold - 1

    optimizer = costed_db.stats()["optimizer"]
    assert optimizer["zones_considered"] > 0
    assert optimizer["zone_prune_rate"] >= 0.5
    assert optimizer["rows_zone_pruned"] > 0
    record_stats("optimizer", costed_db)

    print_series(
        "PERF-9: zone-map pruning on a clustered range scan",
        ("rows", "zones", "pruned", "prune rate", "costed", "naive",
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
            "seconds": {"costed": time_on, "naive": time_off},
            "zones": {
                "considered": optimizer["zones_considered"],
                "pruned": optimizer["zones_pruned"],
                "rows_zone_pruned": optimizer["rows_zone_pruned"],
            },
        },
    )
    if not FAST_MODE:
        assert time_off >= 2 * time_on
