"""Seeded inputs and Python models of the three workloads.

Every workload is an endless, deterministic stream of :class:`Op` records
made from the seed: the statement text the program receives, and what a
correct program must answer. A stream simulates the workload on its own
plain-Python :class:`Model` of the database while it yields statements:
each op carries its expected outcome and the change it makes to a model,
so applying the ops a run executed to the loaded model gives the state
the database must end in (:func:`expected_after`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.workloads.orgchart import (
    ORG_PRIORITIES,
    ORG_RULES,
    build_orgchart,
)

#: org chart shape per workload: (depth, branching). depth 10 gives
#: 2047 employees; depth 5 gives the 63-employee org on which the
#: Example 4.1 cascade already spends most of its time in subqueries
#: over transition tables.
SHAPES = {"oltp": (10, 2), "cascade": (5, 2), "server": (10, 2)}

EMP_DDL = (
    "create table emp (name varchar, emp_no integer, salary float, "
    "dept_no integer)"
)
DEPT_DDL = "create table dept (dept_no integer, mgr_no integer)"
INDEX_DDL = "create index emp_no_idx on emp (emp_no)"

# the paper's Examples 3.1, 3.2 and 4.1
RULE_31 = (
    "create rule cascade_delete when deleted from dept "
    "then delete from emp where dept_no in (select dept_no from deleted dept)"
)
RULE_32 = (
    "create rule salary_watch when updated emp.salary "
    "if (select sum(salary) from new updated emp.salary) > "
    "(select sum(salary) from old updated emp.salary) "
    "then update emp set salary = 0.95 * salary where dept_no = 2; "
    "update emp set salary = 0.85 * salary where dept_no = 3"
)
RULE_41 = (
    "create rule manager_cascade when deleted from emp "
    "then delete from emp where dept_no in (select dept_no from dept "
    "where mgr_no in (select emp_no from deleted emp)); "
    "delete from dept where mgr_no in (select emp_no from deleted emp)"
)
LOG_SALARIES = ORG_RULES[3]
CASCADE_RULES = [RULE_41, RULE_31, RULE_32, LOG_SALARIES]
CASCADE_PRIORITIES = [
    ("manager_cascade", "cascade_delete"),
    ("salary_watch", "log_salaries"),
]

PAYROLL = (
    "select d.dept_no, count(*), sum(e.salary) from emp e, dept d "
    "where e.dept_no = d.dept_no group by d.dept_no"
)
ALL_EMP = "select name, emp_no, salary, dept_no from emp"
ALL_DEPT = "select dept_no, mgr_no from dept"
ALL_LOG = "select name, salary from salary_log"

LOAD_BATCH = 500


@dataclass(slots=True)
class Op:
    """One closed-loop operation.

    ``kind`` is ``"read"`` (a select), ``"write"`` (one autocommit
    statement) or ``"txn"`` (``sql`` is a list of statements run between
    begin and commit). ``expect`` is the read's rows, or the write's
    ``{rule: firings}``; ``deleted`` is the number of rows a write and
    its rule cascade delete. ``rows`` is the number of rows the
    statements themselves write. ``apply`` makes the op's change to a
    :class:`Model`.
    """

    kind: str
    sql: object
    expect: object = None
    rows: int = 0
    deleted: int = None
    label: str = ""
    apply: object = None


@dataclass
class Model:
    """Expected database contents."""

    emp: dict = field(default_factory=dict)   # emp_no -> [name, salary, dept]
    dept: dict = field(default_factory=dict)  # dept_no -> mgr_no
    log: list = field(default_factory=list)   # salary_log (name, salary)

    def emp_rows(self):
        return sorted(
            (name, emp_no, salary, dept)
            for emp_no, (name, salary, dept) in self.emp.items()
        )

    def payroll(self):
        """``{dept_no: (count, salary sum)}`` of the payroll report."""
        report = {}
        for _name, salary, dept in self.emp.values():
            if dept in self.dept:
                count, total = report.get(dept, (0, 0.0))
                report[dept] = (count + 1, total + salary)
        return report


def _literal(value):
    return repr(value) if isinstance(value, float) else str(value)


def emp_values(rows):
    return ", ".join(
        f"('{name}', {emp_no}, {_literal(salary)}, {dept})"
        for name, emp_no, salary, dept in rows
    )


def setup_statements(workload, seed):
    """Schema, data load, index and rule texts, plus the loaded model."""
    depth, branching = SHAPES[workload]
    chart = build_orgchart(depth=depth, branching=branching, seed=seed)
    model = Model()
    for name, emp_no, salary, dept in chart.employees:
        model.emp[emp_no] = [name, salary, dept]
    model.dept.update(chart.departments)
    statements = [EMP_DDL, DEPT_DDL]
    for start in range(0, len(chart.departments), LOAD_BATCH):
        batch = chart.departments[start:start + LOAD_BATCH]
        statements.append("insert into dept values " + ", ".join(
            f"({dept}, {mgr})" for dept, mgr in batch
        ))
    for start in range(0, len(chart.employees), LOAD_BATCH):
        statements.append(
            "insert into emp values "
            + emp_values(chart.employees[start:start + LOAD_BATCH])
        )
    statements.append(INDEX_DDL)
    statements.append("create table salary_log (name varchar, salary float)")
    if workload == "cascade":
        rules, priorities = CASCADE_RULES, CASCADE_PRIORITIES
    else:
        rules, priorities = ORG_RULES, ORG_PRIORITIES
    rule_statements = list(rules) + [
        f"create rule priority {higher} before {lower}"
        for higher, lower in priorities
    ]
    return statements, rule_statements, chart, model


def state_errors(rows, model, where, exact_log=True):
    """How the ``(emp, dept, salary_log)`` rows read back from a database
    differ from ``model``. ``exact_log=False`` compares only the names in
    the journal, whose salaries depend on the order concurrent sessions
    commit in."""
    emp, dept, log = ([tuple(row) for row in table] for table in rows)
    errors = []
    if sorted(emp) != model.emp_rows():
        errors.append(f"{where}: emp rows differ from the model")
    if sorted(dept) != sorted(model.dept.items()):
        errors.append(f"{where}: dept rows differ from the model")
    if exact_log:
        same_log = sorted(log) == sorted(model.log)
    else:
        same_log = sorted(n for n, _s in log) == sorted(n for n, _s in model.log)
    if not same_log:
        errors.append(f"{where}: salary_log rows differ from the model")
    return errors


def expected_after(model, ops):
    """Apply ``ops`` to ``model`` (in place) and return it."""
    for op in ops:
        if op.apply is not None:
            op.apply(model)
    return model


def _point_read(model, key):
    name, salary, dept = model.emp[key]
    return Op(
        "read", f"select name, salary, dept_no from emp where emp_no = {key}",
        expect=[(name, salary, dept)], label="point_read",
    )


def _raise(key, amount):
    def apply(model):
        row = model.emp[key]
        row[1] = row[1] + amount
        model.log.append((row[0], row[1]))

    return apply


def _raise_op(key, amount):
    return Op(
        "write",
        f"update emp set salary = salary + {amount} where emp_no = {key}",
        expect={"log_salaries": 1}, rows=1, label="raise",
        apply=_raise(key, amount),
    )


def _hire(name, emp_no, salary, dept):
    # clamp_salary's update composes with the insert into one net insert
    # (Definition 2.1), so log_salaries never sees the clamped row
    def apply(model):
        model.emp[emp_no] = [name, max(salary, 0.0), dept]

    return Op(
        "write",
        "insert into emp values " + emp_values([(name, emp_no, salary, dept)]),
        expect={"clamp_salary": int(salary < 0), "log_salaries": 0},
        rows=1, label="hire" if salary >= 0 else "hire_negative", apply=apply,
    )


def _stream(model, make):
    """Yield ``make()``'s ops forever, applying each to ``model`` first so
    the next op's expectations see its effect."""
    while True:
        for op in make():
            if op.apply is not None:
                op.apply(model)
            yield op


# ---------------------------------------------------------------------------
# oltp: one-row rule transactions and point reads, keys skewed to a hot set

#: every class of op has its own cost (read, hire, fire < raise <
#: clamped hire); the shares put the all-op median and the write median
#: inside the raises, not on the border between two classes, and the
#: tail percentile (about p97.8) inside the clamped hires (4% of ops):
#: with one clamped hire a block (2%) it sat on their lower edge, where
#: the raises that a garbage collection lands in (about 0.7% of ops)
#: decided which op it was
OLTP_BLOCK = (
    ["read"] * 9 + ["hire"] * 2 + ["hire_negative"] * 2 + ["fire"] * 4
    + ["raise"] * 31
)
HOT_KEYS = 64
HOT_SHARE = 0.8


def oltp_stream(seed):
    """The oltp op stream.

    Each block of 48 ops holds 9 point reads, 4 hires (two with a
    negative salary, which ``clamp_salary`` sets to 0 after scanning
    emp), 31 salary raises (``log_salaries`` journals each;
    ``discharge_demo`` is considered and stays false) and 4 fires,
    shuffled. Fires delete the hires of the block before, so emp keeps
    its size however many ops a run completes, and check the hired rows
    on the way (in the first block, with nothing to fire, they are
    reads). Raises and reads pick from a hot set of 64 employees 80% of
    the time, so their statement texts repeat.
    """
    _statements, _rules, _chart, model = setup_statements("oltp", seed)
    rng = random.Random(f"oltp-ops-{seed}")
    keys = sorted(model.emp)
    hot = rng.sample(keys, HOT_KEYS)
    departments = sorted(model.dept)
    next_emp = [max(keys) + 1]
    hired = []        # hires of earlier blocks, oldest first
    this_block = []

    def pick():
        return rng.choice(hot) if rng.random() < HOT_SHARE else rng.choice(keys)

    def op(kind):
        if kind == "fire" and hired:
            return _fire(model, hired.pop(0), keys)
        if kind in ("read", "fire"):
            return _point_read(model, pick())
        if kind == "raise":
            return _raise_op(pick(), 10)
        emp_no = next_emp[0]
        next_emp[0] += 1
        keys.append(emp_no)
        this_block.append(emp_no)
        salary = (
            float(rng.randint(30000, 90000)) if kind == "hire"
            else -float(rng.randint(1, 5000))
        )
        return _hire(f"h{emp_no}", emp_no, salary, rng.choice(departments))

    def block():
        kinds = list(OLTP_BLOCK)
        rng.shuffle(kinds)
        for kind in kinds:
            yield op(kind)
        hired.extend(this_block)
        this_block.clear()

    return _stream(model, block)


def _fire(model, emp_no, keys):
    """Delete one earlier hire. The WHERE clause also names the salary
    and department the model expects, so a hire the rules got wrong (a
    clamp that did not set 0) deletes nothing and fails the op."""
    keys.remove(emp_no)
    _name, salary, dept = model.emp[emp_no]

    def apply(m):
        del m.emp[emp_no]

    return Op(
        "write",
        f"delete from emp where emp_no = {emp_no} "
        f"and salary = {_literal(salary)} and dept_no = {dept}",
        expect={}, rows=1, deleted=1, label="fire", apply=apply,
    )


# ---------------------------------------------------------------------------
# cascade: set-oriented deletes, reloads, department raises, payroll reads


def cascade_stream(seed):
    """The cascade op stream.

    A round is 18 ops in a fixed order; the seed picks the keys. All
    subtrees at one level of the complete tree have the same shape and
    every department has two members, so every round does the same work:

    * delete a level-1 manager: Example 4.1 removes the 31-row subtree,
      one firing per level plus a last one that deletes nothing;
    * delete the department a level-1 manager runs: Example 3.1 removes
      its two members and Example 4.1 their subtrees (30 rows);
    * delete a level-3 manager (a 7-row subtree);
    * after each delete, the reload of every deleted emp and dept row,
      then the payroll report (join + group-by) on the restored org;
    * eight one-department raises: ``salary_watch`` (Example 3.2) cuts
      departments 2 and 3 and ``log_salaries`` journals every change;
    * the payroll report once more.

    The reports all read the full org, so they cost the same; raises are
    most of the writes and sit in the middle of the latency
    distribution, so the medians land inside one kind of op.
    """
    _statements, _rules, chart, model = setup_statements("cascade", seed)
    rng = random.Random(f"cascade-ops-{seed}")
    runs = {mgr: dept for dept, mgr in chart.departments}
    heights = {}
    for level in reversed(chart.levels):
        for emp_no in level:
            heights[emp_no] = 1 + max(
                (heights[c] for c in chart.subordinates_of(emp_no)),
                default=-1,
            )
    all_depts = sorted(model.dept)

    def delete(sql, roots, label, expect, dept=None):
        """The delete of ``roots`` (and of ``dept``) with everything
        Example 4.1 cascades from them, the reload that undoes it, and
        the payroll report."""
        gone = []
        for root in roots:
            gone.append(root)
            gone.extend(chart.descendants_of(root))
        gone_depts = sorted(runs[e] for e in gone if e in runs)
        if dept is not None:
            gone_depts.append(dept)
        emp_rows = sorted(
            (model.emp[e][0], e, model.emp[e][1], model.emp[e][2])
            for e in gone
        )
        dept_rows = [(d, model.dept[d]) for d in gone_depts]

        def remove(m):
            for emp_no in gone:
                del m.emp[emp_no]
            for d in gone_depts:
                del m.dept[d]

        def restore(m):
            for name, emp_no, salary, d in emp_rows:
                m.emp[emp_no] = [name, salary, d]
            m.dept.update(dept_rows)

        yield Op(
            "write", sql, expect=expect, deleted=len(gone) + len(gone_depts),
            label=label, apply=remove,
        )
        reload = "insert into emp values " + emp_values(emp_rows)
        reload += "; insert into dept values " + ", ".join(
            f"({d}, {m})" for d, m in dept_rows
        )
        yield Op(
            "write", reload, expect={"manager_cascade": 0},
            rows=len(emp_rows) + len(dept_rows), label="reload",
            apply=restore,
        )
        yield payroll()

    def subtree(level, label):
        root = rng.choice(chart.levels[level])
        return delete(
            f"delete from emp where emp_no = {root}", [root], label,
            {"manager_cascade": heights[root] + 1},
        )

    def dept_delete():
        manager = rng.choice(chart.levels[1])
        members = chart.subordinates_of(manager)
        return delete(
            f"delete from dept where dept_no = {runs[manager]}", members,
            "dept_delete",
            {"cascade_delete": 2,
             "manager_cascade": max(heights[m] for m in members) + 1},
            dept=runs[manager],
        )

    def payroll():
        return Op("read", PAYROLL, expect=model.payroll(), label="payroll")

    def raise_department():
        dept = rng.choice(all_depts)
        members = [e for e, row in model.emp.items() if row[2] == dept]

        def apply(m):
            changed = set(members)
            for emp_no in members:
                m.emp[emp_no][1] = m.emp[emp_no][1] + 100
            for cut, factor in ((2, 0.95), (3, 0.85)):
                for emp_no, row in m.emp.items():
                    if row[2] == cut:
                        row[1] = factor * row[1]
                        changed.add(emp_no)
            for emp_no in sorted(changed):
                m.log.append((m.emp[emp_no][0], m.emp[emp_no][1]))

        return Op(
            "write",
            f"update emp set salary = salary + 100 where dept_no = {dept}",
            expect={"salary_watch": 1, "log_salaries": 1},
            rows=len(members), label="raise", apply=apply,
        )

    def raises(count):
        for _ in range(count):
            yield raise_department()

    def round_():
        yield from subtree(1, "cascade_31")
        yield from raises(2)
        yield from dept_delete()
        yield from raises(3)
        yield from subtree(3, "cascade_7")
        yield from raises(3)
        yield payroll()

    return _stream(model, round_)


# ---------------------------------------------------------------------------
# server: two sessions, uniform keys, autocommit writes, reads, 2-row txns

SERVER_CLIENTS = 2
#: the op blocks of the two sessions: session 0 writes, session 1 reads.
#: Only one session writes, so no transaction can lose validation: with
#: table-level read sets, two writing sessions conflict on emp almost
#: every time one of them holds a transaction open
SERVER_BLOCKS = (
    ["raise"] * 4 + ["hire", "hire_negative"] + ["fire"] * 2 + ["txn"] * 2,
    ["read"],
)


def server_stream(seed, client):
    """One server client's op stream.

    Session 0 runs blocks of 10 shuffled ops: 4 autocommit raises, 2
    hires (one clamped), 2 fires that delete the hires of the block
    before (so emp keeps its size however many ops a run completes) and
    2 explicit transactions that raise two employees. Session 1 runs
    point reads of the loaded employees beside it, so its reads meet the
    writer's open transactions and the coordinator switches between the
    sessions. Keys are uniform over the loaded employees.
    """
    _statements, _rules, _chart, model = setup_statements("server", seed)
    rng = random.Random(f"server-ops-{seed}-{client}")
    keys = sorted(model.emp)
    loaded = list(keys)
    departments = sorted(model.dept)
    next_emp = [100000 * (client + 1)]
    hired = []        # hires of earlier blocks, oldest first
    this_block = []

    def op(kind):
        if kind == "fire" and hired:
            return _fire(model, hired.pop(0), keys)
        if kind in ("read", "fire"):
            read = _point_read(model, rng.choice(loaded))
            # the reader does not see the writer's raises
            read.expect = [(read.expect[0][0], read.expect[0][2])]
            return read
        if kind == "raise":
            return _raise_op(rng.choice(keys), rng.randint(1, 9))
        if kind == "txn":
            # two distinct rows: one row raised twice would compose into
            # one net update and one journal row
            raises = [_raise_op(key, rng.randint(1, 9))
                      for key in rng.sample(keys, 2)]
            return Op(
                "txn", [r.sql for r in raises], expect={"log_salaries": 1},
                rows=2, label="txn",
                apply=lambda m: [r.apply(m) for r in raises],
            )
        salary = (
            float(rng.randint(30000, 90000)) if kind == "hire"
            else -float(rng.randint(1, 5000))
        )
        emp_no = next_emp[0]
        next_emp[0] += 1
        keys.append(emp_no)
        this_block.append(emp_no)
        return _hire(f"c{client}h{emp_no}", emp_no, salary,
                     rng.choice(departments))

    def block():
        kinds = list(SERVER_BLOCKS[client])
        rng.shuffle(kinds)
        for kind in kinds:
            yield op(kind)
        hired.extend(this_block)
        this_block.clear()

    return _stream(model, block)


class Feed:
    """Takes ops from a stream in chunks; ops taken but not run go back."""

    def __init__(self, stream):
        self._stream = stream
        self._back = []

    def take(self, count):
        ops = self._back[:count]
        del self._back[:count]
        while len(ops) < count:
            ops.append(next(self._stream))
        return ops

    def put_back(self, ops):
        self._back[:0] = ops
