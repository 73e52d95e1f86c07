"""Differential property test: compiled evaluation ≡ interpretation, where
the compiled path hands work back to the interpreter.

The compiled-evaluation invariance guarantee (docs/semantics.md §10) also
covers the seams between the batch kernels and the interpreter. A batch
program over a single-binding layout compiles the references it can
resolve to column slots and runs everything else — references into an
enclosing query's scope, unknown names — through the interpreter row by
row. The kernel-level tests here bind the batch rows under an *outer*
scope whose columns overlap the inner binding's (``b`` is in both, so
unqualified ``b`` must resolve innermost-first), generate random
expression ASTs mixing inner slots with outer references, and require
identical values and the identical first error from both paths, in
both expression and predicate position.

The statement-level tests run shapes whose compiled evaluation mixes
kernels with interpreter fallbacks — correlated and scalar subqueries,
grouped joins, rules over ``deleted`` and ``updated`` transition tables
with aggregate conditions — with ``enable_compiled_eval`` on and off.
``test_vectorized_equivalence.py`` covers the purely in-layout shapes.
"""

from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.relational.batch import Batch
from repro.relational.compiled import (
    BatchContext,
    compile_batch_expression,
    compile_batch_predicate,
)
from repro.relational.database import Database
from repro.relational.expressions import Evaluator, Scope
from repro.relational.select import BaseTableResolver, evaluate_select
from repro.sql import ast
from repro.sql.parser import parse_select

# Inner binding compiled to slots; the outer binding is only reachable
# through the enclosing scope (a correlated subquery's view of it).
LAYOUT = (("x", ("a", "b", "s")),)
COLUMNS = ("a", "b", "s")
OUTER_COLUMNS = ("b", "d")

literals = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-5, max_value=5),
    st.sampled_from([0.5, 2.0, -1.5]),
    st.sampled_from(["", "ab", "abc", "a%", "x_", "%b%"]),
).map(ast.Literal)

column_refs = st.sampled_from(
    [
        ast.ColumnRef("a", "x"),
        ast.ColumnRef("b", "x"),
        ast.ColumnRef("s", "x"),
        ast.ColumnRef("b", "y"),  # outer, qualified
        ast.ColumnRef("d", "y"),
        ast.ColumnRef("a"),
        ast.ColumnRef("b"),  # in both scopes: the inner one wins
        ast.ColumnRef("d"),  # outer, unqualified
        ast.ColumnRef("nosuch"),  # unresolvable anywhere
        ast.ColumnRef("nosuch", "x"),  # inner qualifier, column missing
        ast.ColumnRef("nosuch", "y"),  # outer qualifier, column missing
        ast.ColumnRef("a", "z"),  # unknown qualifier
    ]
)

pattern_exprs = st.one_of(
    st.sampled_from(["a%", "_b", "%", "abc", "a_c"]).map(ast.Literal),
    st.sampled_from([ast.ColumnRef("s", "x"), ast.Literal(None)]),
)


def _compound(children):
    binary_ops = st.sampled_from(
        ["+", "-", "*", "/", "%", "||", "=", "<>", "<", "<=", ">", ">=",
         "and", "or"]
    )
    return st.one_of(
        st.builds(ast.BinaryOp, binary_ops, children, children),
        st.builds(ast.UnaryOp, st.sampled_from(["not", "-", "+"]), children),
        st.builds(ast.IsNull, children, st.booleans()),
        st.builds(ast.Between, children, children, children, st.booleans()),
        st.builds(ast.Like, children, pattern_exprs, st.booleans()),
        st.builds(
            lambda operand, items, negated: ast.InList(
                operand, tuple(items), negated
            ),
            children,
            st.lists(children, min_size=1, max_size=3),
            st.booleans(),
        ),
        st.builds(
            lambda name, arg: ast.FunctionCall(name, (arg,)),
            st.sampled_from(["abs", "lower", "upper", "length"]),
            children,
        ),
        st.builds(
            lambda cond, then, default: ast.CaseExpression(
                ((cond, then),), default
            ),
            children,
            children,
            children,
        ),
    )


expressions = st.recursive(
    st.one_of(literals, column_refs), _compound, max_leaves=12
)

cell = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-4, max_value=4),
    st.sampled_from([1.5, -0.5]),
    st.sampled_from(["", "ab", "abc", "zzz"]),
)
row_sets = st.lists(st.tuples(cell, cell, cell), max_size=8)
outer_rows = st.tuples(cell, cell)


def fresh_evaluator():
    database = Database()
    return Evaluator(database, BaseTableResolver(database))


def inner_scope(outer, row):
    scope = Scope(parent=outer)
    scope.bind("x", COLUMNS, row)
    return scope


def outer_scope(outer_row):
    scope = Scope()
    scope.bind("y", OUTER_COLUMNS, outer_row)
    return scope


def row_outcomes(expression, rows, outer, evaluator, predicate):
    """Per-row interpretation truncated at the first error — the shape a
    batch program must reproduce: (values-prefix, error-or-None)."""
    values = []
    for row in rows:
        scope = inner_scope(outer, row)
        try:
            if predicate:
                values.append(
                    evaluator.evaluate_predicate(expression, scope)
                )
            else:
                values.append(evaluator.evaluate(expression, scope))
        except ReproError as error:
            return values, error
    return values, None


def batch_outcomes(expression, rows, outer, evaluator, predicate):
    batch = Batch.from_rows(list(rows), len(COLUMNS))
    row_of = batch.row
    ctx = BatchContext(
        batch.cols,
        lambda slot: inner_scope(outer, row_of(slot)),
        evaluator,
    )
    if predicate:
        program = compile_batch_predicate(expression, LAYOUT)
    else:
        program = compile_batch_expression(expression, LAYOUT)
    return program.fn(ctx, batch.sel)


def describe(error):
    if error is None:
        return None
    return (type(error).__name__, str(error))


class TestCompiledEquivalence:
    @given(expressions, row_sets, outer_rows)
    @settings(max_examples=300, deadline=None)
    def test_expression_value_parity(self, expression, rows, outer_row):
        evaluator = fresh_evaluator()
        outer = outer_scope(outer_row)
        expected, row_err = row_outcomes(
            expression, rows, outer, evaluator, predicate=False
        )
        values, err = batch_outcomes(
            expression, rows, outer, evaluator, predicate=False
        )
        assert values == expected, expression
        assert describe(err) == describe(row_err), expression

    @given(expressions, row_sets, outer_rows)
    @settings(max_examples=300, deadline=None)
    def test_predicate_parity(self, expression, rows, outer_row):
        evaluator = fresh_evaluator()
        outer = outer_scope(outer_row)
        expected, row_err = row_outcomes(
            expression, rows, outer, evaluator, predicate=True
        )
        values, err = batch_outcomes(
            expression, rows, outer, evaluator, predicate=True
        )
        assert values == expected, expression
        assert describe(err) == describe(row_err), expression
        for value in values:
            assert value in (True, False, None)


# ---------------------------------------------------------------------------
# end-to-end: whole statements with the layer toggled


int_values = st.one_of(st.none(), st.integers(min_value=-3, max_value=3))
str_values = st.one_of(st.none(), st.sampled_from(["ab", "abc", "zz"]))
t1_rows = st.lists(
    st.tuples(int_values, int_values, str_values), max_size=7
)
t2_rows = st.lists(st.tuples(int_values, int_values), max_size=7)


@st.composite
def select_queries(draw):
    """Selects whose compiled evaluation crosses into the interpreter:
    correlated filters, scalar subqueries in the select list, IN over a
    subquery, and grouped joins."""
    conjuncts = draw(
        st.lists(
            st.sampled_from(
                [
                    "x.a = 1",
                    "x.b > 0",
                    "exists (select * from t2 y where y.d = x.a"
                    " and y.b > x.b)",
                    "not exists (select * from t2 where t2.b = x.b)",
                    "x.a in (select d from t2 where t2.b <> x.b)",
                    "x.b > (select min(d) from t2)",
                    "x.a = (select max(b) from t2 where t2.d = x.a)",
                ]
            ),
            max_size=3,
        )
    )
    where = " where " + " and ".join(conjuncts) if conjuncts else ""
    shape = draw(st.sampled_from(["plain", "scalar", "grouped"]))
    if shape == "grouped":
        having = draw(st.sampled_from(["", " having count(*) > 1"]))
        join_where = (
            " where x.a = y.b" + where.replace(" where ", " and ", 1)
            if where else " where x.a = y.b"
        )
        return (
            "select x.b, count(*), sum(y.d) from t1 x, t2 y"
            f"{join_where} group by x.b{having}"
        )
    items = (
        "x.a, (select count(*) from t2 where t2.b = x.a)"
        if shape == "scalar" else "x.a, x.b + 1, upper(x.s)"
    )
    order = draw(st.sampled_from(["", " order by x.a, x.b desc"]))
    return f"select {items} from t1 x{where}{order}"


def build_database(rows1, rows2):
    db = Database()
    db.create_table(
        "t1", [("a", "integer"), ("b", "integer"), ("s", "varchar")]
    )
    db.create_table("t2", [("b", "integer"), ("d", "integer")])
    for row in rows1:
        db.insert_row("t1", row)
    for row in rows2:
        db.insert_row("t2", row)
    return db


def run_both_modes(db, sql):
    select = parse_select(sql)

    def run():
        try:
            result = evaluate_select(db, select, collect_handles=True)
            return ("value", result.columns, result.rows, result.touched)
        except ReproError as error:
            return ("error", type(error).__name__, str(error))

    # set both ways explicitly, so the comparison stays non-vacuous when
    # the CI oracle rerun exports REPRO_COMPILED_EVAL=0
    db.enable_compiled_eval = True
    compiled = run()
    db.enable_compiled_eval = False
    interpreted = run()
    assert compiled == interpreted, sql


def sql_values(row):
    return ", ".join(
        "null" if v is None
        else f"'{v}'" if isinstance(v, str)
        else str(v)
        for v in row
    )


class TestStatementEquivalence:
    @given(t1_rows, t2_rows, select_queries())
    @settings(max_examples=80, deadline=None)
    def test_select_compiled_equals_interpreted(self, rows1, rows2, sql):
        db = build_database(rows1, rows2)
        run_both_modes(db, sql)

    @given(t1_rows, st.integers(min_value=-2, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_rule_transaction_compiled_equals_interpreted(
        self, rows1, threshold
    ):
        """A rule workload over ``deleted`` and ``updated`` transition
        tables, with aggregate and correlated conditions, must reach the
        same final state and firing count with the layer on and off."""
        from repro import ActiveDatabase

        outcomes = []
        for compiled in (True, False):
            db = ActiveDatabase(record_seen=False)
            db.database.enable_compiled_eval = compiled
            db.execute(
                "create table t1 (a integer, b integer, s varchar)"
            )
            db.execute("create table log (a integer, tag varchar)")
            db.execute(
                "create rule on_del when deleted from t1 "
                "if (select count(*) from deleted t1 "
                f"where a > {threshold}) > 0 "
                "then insert into log (select a, 'del' from deleted t1 "
                f"where a > {threshold})"
            )
            db.execute(
                "create rule on_upd when updated t1.b "
                "if exists (select * from new updated t1.b n "
                "where n.b > (select min(b) from t1)) "
                "then insert into log (select a, s from new updated t1.b "
                "where s like 'a%' or s is null)"
            )
            db.execute(
                "create rule trim when inserted into log "
                "if exists (select * from log l where l.a > "
                "(select max(a) from t1)) "
                "then delete from log where a > (select max(a) from t1)"
            )
            fired = 0
            for row in rows1:
                result = db.execute(
                    f"insert into t1 values ({sql_values(row)})"
                )
                fired += result.rule_firings
            for statement in (
                f"update t1 set b = b + 1 where a <= {threshold}",
                f"delete from t1 where b > {threshold}",
            ):
                fired += db.execute(statement).rule_firings
            outcomes.append((fired, db.database.snapshot()))
        assert outcomes[0] == outcomes[1]
