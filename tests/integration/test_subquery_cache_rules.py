"""Rule-level differential tests for the uncorrelated-subquery cache.

Subqueries over transition tables (``deleted dept``, ``new updated
emp.salary`` ...) are cached once per statement, keyed on the database
version and the reading rule's trans-info stamp. With
``enable_subquery_cache = False`` every subquery re-runs per outer row —
the reference path. Both must leave the same tables, fire the same rules
the same number of times, and journal the same salary log.

The count ceiling pins the cost of Example 4.1's cascade as a number of
select evaluations, so a regression to per-row subquery evaluation fails
on a count rather than on wall time.
"""

import pytest

from repro import ActiveDatabase
from repro.relational import select as select_module
from repro.workloads import build_orgchart, create_schema, load_orgchart
from repro.workloads.orgchart import define_rules

from .test_paper_examples import RULE_31, RULE_32, RULE_41


def org_database(enabled, depth=4, rules=()):
    db = ActiveDatabase()
    db.database.enable_subquery_cache = enabled
    create_schema(db)
    chart = build_orgchart(depth=depth, branching=2, seed=3)
    load_orgchart(db, chart)
    for rule in rules:
        db.execute(rule)
    return db, chart


def outcome(db):
    """Final tables and per-rule firing counts."""
    tables = {
        name: sorted(db.rows(f"select * from {name}"))
        for name in ("emp", "dept", "salary_log")
        if db.database.catalog.has_table(name)
    }
    fires = {name: entry["fires"] for name, entry in db.stats()["rules"].items()}
    return tables, fires


def example_31(enabled):
    db, _ = org_database(enabled, rules=[RULE_31])
    db.execute("delete from dept where dept_no <= 3")
    db.execute("delete from dept where mgr_no in (select emp_no from emp "
               "where salary < 55000)")
    return db


def example_32(enabled):
    db, _ = org_database(enabled, rules=[RULE_32])
    db.execute("update emp set salary = salary + 500 where dept_no = 1")
    db.execute("update emp set salary = salary * 1.1 where dept_no <= 4")
    # a lowering raise leaves the condition false
    db.execute("update emp set salary = salary - 100 where dept_no = 5")
    return db


def example_41(enabled):
    db, chart = org_database(enabled, depth=5, rules=[RULE_41])
    db.execute(f"delete from emp where emp_no = {chart.levels[1][0]}")
    # two subtrees in one block: one transition, one composite deleted set
    db.execute(
        f"delete from emp where emp_no = {chart.levels[2][2]}; "
        f"delete from emp where emp_no = {chart.levels[2][3]}"
    )
    return db


def org_rules(enabled):
    db, chart = org_database(enabled)
    define_rules(db)
    next_emp = chart.size + 1
    for round_no in range(3):
        # a hire, a clamped hire, a raise, a negative salary
        db.execute(
            f"insert into emp values ('hire{next_emp}', {next_emp}, "
            f"41000.0, {1 + round_no})"
        )
        db.execute(
            f"insert into emp values ('clamp{next_emp + 1}', "
            f"{next_emp + 1}, -5.0, {2 + round_no})"
        )
        next_emp += 2
        db.execute(
            f"update emp set salary = salary + 250 "
            f"where dept_no = {1 + round_no}"
        )
        db.execute(
            "update emp set salary = -1.0 "
            f"where emp_no = {chart.levels[-1][round_no]}"
        )
    db.begin()
    db.execute("delete from dept where dept_no = 2")
    db.execute("delete from dept where dept_no = 5")
    db.execute("update emp set salary = salary * 1.05 where dept_no = 0")
    db.commit()
    return db


@pytest.mark.parametrize(
    "scenario", [example_31, example_32, example_41, org_rules],
    ids=lambda scenario: scenario.__name__,
)
def test_cache_on_and_off_agree(scenario):
    cached = outcome(scenario(True))
    reference = outcome(scenario(False))
    assert cached == reference
    # every rule of the scenario fired, so the comparison is not vacuous
    assert all(reference[1].values())


def test_example_41_select_count_ceiling(monkeypatch):
    """The 127-employee Example 4.1 cascade runs 18 select evaluations
    with the cache (36717 when every transition subquery re-runs per
    outer row)."""
    db = ActiveDatabase()
    create_schema(db)
    chart = build_orgchart(depth=6, branching=2, seed=1)
    load_orgchart(db, chart)
    db.execute(RULE_41)

    calls = {"n": 0}
    original = select_module._SelectExecutor.run

    def counting_run(self, node, outer):
        calls["n"] += 1
        return original(self, node, outer)

    monkeypatch.setattr(select_module._SelectExecutor, "run", counting_run)
    result = db.execute(f"delete from emp where emp_no = {chart.levels[0][0]}")
    assert chart.size == 127
    assert result.rule_firings == 7
    assert db.query("select count(*) from emp").scalar() == 0
    assert calls["n"] <= 64
