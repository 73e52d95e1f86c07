"""ABL-1 (ablation): the uncorrelated-subquery cache.

§1: "set-oriented processing in relational database systems permits
efficient execution of non-procedural queries through extensive
optimization. Such optimization is not inhibited by the presence of our
set-oriented production rules; furthermore, it is directly applicable to
the rules themselves."

This ablation demonstrates that claim concretely with one classic
optimization: memoizing uncorrelated subqueries within a statement.
Rule conditions and actions (e.g. Example 3.1's
``where dept_no in (select dept_no from deleted dept)``) evaluate an
uncorrelated subquery per scanned row; caching turns O(rows x subquery)
into O(rows + subquery). Subqueries over transition tables are cached
under the database version plus the reading rule's trans-info stamp.
Correlated subqueries (Example 3.3's) are detected statically and never
cached.

The toggle is ``database.enable_subquery_cache``. Besides the timings,
the shape test counts select evaluations, so it fails on the count if
the two arms ever run the same code again.
"""

import time

import pytest

from repro import ActiveDatabase
from repro.relational import select as select_module

from .conftest import print_series

SIZES = (50, 200, 800)

RULE = (
    "create rule cascade when deleted from dept "
    "then delete from emp "
    "where dept_no in (select dept_no from deleted dept)"
)


def build(employees, cache_enabled):
    db = ActiveDatabase(record_seen=False)
    db.database.enable_subquery_cache = cache_enabled
    db.execute(
        "create table emp (name varchar, emp_no integer, salary float, "
        "dept_no integer)"
    )
    db.execute("create table dept (dept_no integer, mgr_no integer)")
    db.execute(
        "insert into dept values "
        + ", ".join(f"({d}, {d})" for d in range(1, 11))
    )
    db.execute(
        "insert into emp values "
        + ", ".join(
            f"('e{i}', {i}, 40000.0, {1 + i % 10})"
            for i in range(employees)
        )
    )
    db.execute(RULE)
    return db


def run_cascade(db):
    return db.execute("delete from dept where dept_no <= 5")


def count_subquery_runs(db):
    """Select evaluations made by the rule action's statement (the
    triggering delete has no subquery, so each one is the action's
    ``select dept_no from deleted dept``)."""
    calls = [0]
    original = select_module._SelectExecutor.run

    def counting_run(self, node, outer):
        calls[0] += 1
        return original(self, node, outer)

    select_module._SelectExecutor.run = counting_run
    try:
        run_cascade(db)
    finally:
        select_module._SelectExecutor.run = original
    return calls[0]


@pytest.mark.parametrize("employees", SIZES)
def test_with_cache(benchmark, employees):
    def run():
        db = build(employees, cache_enabled=True)
        run_cascade(db)

    benchmark.pedantic(run, rounds=3, iterations=1)


@pytest.mark.parametrize("employees", SIZES)
def test_without_cache(benchmark, employees):
    def run():
        db = build(employees, cache_enabled=False)
        run_cascade(db)

    benchmark.pedantic(run, rounds=3, iterations=1)


def test_shape_cache_pays_off(benchmark):
    benchmark.pedantic(_shape_cache_pays_off, rounds=1, iterations=1)


def _shape_cache_pays_off():
    rows = []
    ratios = {}
    runs = {}
    for employees in SIZES:
        runs[employees] = {
            "cache_on": count_subquery_runs(build(employees, True)),
            "cache_off": count_subquery_runs(build(employees, False)),
        }

        def timed(enabled, employees=employees):
            db = build(employees, cache_enabled=enabled)
            start = time.perf_counter()
            run_cascade(db)
            return time.perf_counter() - start

        with_cache = min(timed(True) for _ in range(3))
        without = min(timed(False) for _ in range(3))
        ratios[employees] = without / with_cache
        rows.append(
            (
                employees,
                f"{with_cache*1e3:.1f}ms",
                f"{without*1e3:.1f}ms",
                f"{ratios[employees]:.1f}x",
                runs[employees]["cache_on"],
                runs[employees]["cache_off"],
            )
        )
    print_series(
        "ABL-1: uncorrelated-subquery cache on Example 3.1",
        ("employees", "cache on", "cache off", "off/on",
         "subquery runs on", "subquery runs off"),
        rows,
        values={"off_over_on_ratio": ratios, "subquery_runs": runs},
    )
    for employees, counts in runs.items():
        # one run per statement with the cache, one per scanned row
        # without it
        assert counts["cache_on"] == 1, (employees, counts)
        assert counts["cache_off"] == employees, (employees, counts)
    assert ratios[SIZES[-1]] > 2.0, (
        "memoization should clearly pay off on large scans"
    )
    assert ratios[SIZES[-1]] >= ratios[SIZES[0]] * 0.8, (
        "advantage should hold or grow with table size"
    )


def test_correlated_subqueries_never_cached(benchmark):
    """Correctness guard (also covered in tests/unit/test_subquery_cache):
    Example 3.3's correlated condition evaluates per-row identically with
    the cache enabled and disabled."""
    def check():
        results = []
        for enabled in (True, False):
            db = build(30, cache_enabled=enabled)
            db.execute(
                "create rule overpaid when updated emp.salary "
                "if exists (select * from emp e1 where salary > "
                "2 * (select avg(salary) from emp e2 "
                "where e2.dept_no = e1.dept_no)) "
                "then delete from emp where salary > 100000"
            )
            db.execute("update emp set salary = 500000.0 where emp_no = 3")
            results.append(sorted(db.rows("select emp_no from emp")))
        assert results[0] == results[1]

    benchmark.pedantic(check, rounds=1, iterations=1)
