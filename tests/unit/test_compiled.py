"""Unit tests for the compiled-expression layer (repro.relational.compiled).

The differential/property suites assert compiled ≡ interpreted wholesale;
these tests pin the layer's mechanics on batch programs: slot
resolution, error parity and laziness, fallback classification, cache
behaviour against the schema version, the environment gate, and the
memoized LIKE pattern compiler.
"""

import pytest

from repro.errors import ExecutionError
from repro.relational.batch import Batch
from repro.relational.compiled import (
    BatchContext,
    CompiledCache,
    CompilerStats,
    batch_program_for,
    compile_batch_expression,
    compile_batch_predicate,
)
from repro.relational.database import Database
from repro.relational.expressions import Evaluator, Scope, _like_to_regex
from repro.relational.select import BaseTableResolver, evaluate_select
from repro.sql.parser import parse_expression, parse_select

COLUMNS = ("name", "salary", "dept_no")
LAYOUT = (("emp", COLUMNS),)
CAROL = ("carol", 900, 2)


def evaluator_for(database=None):
    database = database or Database()
    return Evaluator(database, BaseTableResolver(database))


def run(program, rows, evaluator=None, outer=None, layout=LAYOUT):
    """Run a batch program over ``rows``; returns ``(values, err)``.
    Fallback kernels get a per-row Scope chained to ``outer``."""
    (binding, columns), = layout
    batch = Batch.from_rows(list(rows), len(columns))

    def scope_for(slot):
        scope = Scope(parent=outer)
        scope.bind(binding, columns, batch.row(slot))
        return scope

    ctx = BatchContext(batch.cols, scope_for, evaluator)
    return program.fn(ctx, batch.sel)


def emp_database():
    """An ``emp`` table of three rows, compiled evaluation forced on."""
    database = Database()
    database.enable_compiled_eval = True
    database.create_table(
        "emp", [("name", "varchar"), ("salary", "integer"),
                ("dept_no", "integer")],
    )
    for row in (("ann", 50, 1), ("bob", 300, 1), CAROL):
        database.insert_row("emp", row)
    return database


def interpreted_error(node, row, predicate=False):
    scope = Scope()
    scope.bind("emp", COLUMNS, row)
    evaluate = evaluator_for().evaluate_predicate if predicate else (
        evaluator_for().evaluate
    )
    with pytest.raises(ExecutionError) as info:
        evaluate(node, scope)
    return str(info.value)


def both_modes(database, sql):
    """``("value", rows)`` or ``("error", message)`` with compiled
    evaluation on, then off — the pair must agree."""
    select = parse_select(sql)
    outcomes = []
    for compiled in (True, False):
        database.enable_compiled_eval = compiled
        try:
            outcomes.append(("value", evaluate_select(database, select).rows))
        except ExecutionError as error:
            outcomes.append(("error", str(error)))
    return outcomes


class TestSlotResolution:
    def test_qualified_ref_reads_tuple_slot(self):
        program = compile_batch_expression(
            parse_expression("emp.salary"), LAYOUT
        )
        assert run(program, [CAROL, ("dave", 300, 1)]) == ([900, 300], None)
        assert not program.needs_scope
        assert program.nodes_fallback == 0

    def test_unqualified_ref_reads_tuple_slot(self):
        program = compile_batch_expression(parse_expression("dept_no"), LAYOUT)
        assert run(program, [CAROL]) == ([2], None)

    def test_multi_binding_layout(self):
        """Join products are not batched: the batch compiler refuses a
        two-binding layout, and the product's expressions run through
        the interpreter with compiled evaluation on or off."""
        layout = (("e", ("a", "b")), ("d", ("c",)))
        with pytest.raises(ValueError):
            compile_batch_expression(parse_expression("e.b + d.c"), layout)
        database = Database()
        database.create_table("e", [("a", "integer"), ("b", "integer")])
        database.create_table("d", [("c", "integer")])
        database.insert_row("e", (1, 2))
        database.insert_row("d", (30,))
        compiled, interpreted = both_modes(
            database, "select e.b + d.c from e, d where e.a + d.c > 0"
        )
        assert compiled == interpreted == ("value", [(32,)])

    def test_ambiguous_unqualified_ref_matches_interpreter_error(self):
        database = Database()
        database.create_table("e1", [("salary", "integer")])
        database.create_table("e2", [("salary", "integer")])
        database.insert_row("e1", (1,))
        database.insert_row("e2", (2,))
        compiled, interpreted = both_modes(
            database, "select * from e1, e2 where salary > 0"
        )
        assert compiled == interpreted
        assert compiled[0] == "error" and "ambiguous" in compiled[1]

    def test_missing_column_matches_interpreter_error(self):
        node = parse_expression("emp.nosuch")
        program = compile_batch_expression(node, LAYOUT)
        values, err = run(program, [CAROL])
        assert values == []
        assert isinstance(err, ExecutionError)
        assert str(err) == interpreted_error(node, CAROL)

    def test_bad_ref_error_is_lazy_under_short_circuit(self):
        """``false and emp.nosuch = 1`` must evaluate to False, exactly as
        the interpreter's short-circuit leaves the bad ref unevaluated."""
        program = compile_batch_predicate(
            parse_expression("false and emp.nosuch = 1"), LAYOUT
        )
        assert run(program, [CAROL, CAROL]) == ([False, False], None)
        program = compile_batch_predicate(
            parse_expression("true or 1 / 0 = 1"), LAYOUT
        )
        assert run(program, [CAROL, CAROL]) == ([True, True], None)
        # an empty selection never evaluates the bad ref at all
        program = compile_batch_expression(
            parse_expression("emp.nosuch"), LAYOUT
        )
        assert run(program, []) == ([], None)


class TestFallbacks:
    def test_subquery_falls_back_to_interpreter(self):
        database = Database()
        database.create_table("t", [("x", "integer")])
        database.insert_row("t", (1,))
        node = parse_expression("exists (select * from t)")
        program = compile_batch_predicate(node, LAYOUT)
        assert program.needs_scope
        assert program.nodes_fallback == 1
        values, err = run(program, [CAROL], evaluator_for(database))
        assert (values, err) == ([True], None)

    def test_outer_scope_ref_falls_back(self):
        program = compile_batch_expression(
            parse_expression("outer_col"), LAYOUT
        )
        assert program.needs_scope
        outer = Scope()
        outer.bind("o", ("outer_col",), (7,))
        values, err = run(program, [CAROL, CAROL], evaluator_for(), outer)
        assert (values, err) == ([7, 7], None)

    def test_aggregate_call_falls_back(self):
        program = compile_batch_expression(parse_expression("count(*)"), LAYOUT)
        assert program.nodes_fallback == 1
        assert program.needs_scope

    def test_pure_program_skips_scope(self):
        program = compile_batch_predicate(
            parse_expression("salary > 500 and name like 'c%'"), LAYOUT
        )
        assert not program.needs_scope
        # no scope builder, no evaluator — column slots suffice
        batch = Batch.from_rows([CAROL, ("dave", 300, 1)], len(COLUMNS))
        values, err = program.fn(BatchContext(batch.cols), batch.sel)
        assert (values, err) == ([True, False], None)


class TestPredicateCoercion:
    def test_non_boolean_predicate_matches_interpreter_error(self):
        node = parse_expression("salary + 1")
        program = compile_batch_predicate(node, LAYOUT)
        values, err = run(program, [CAROL])
        assert values == []
        assert isinstance(err, ExecutionError)
        assert str(err) == interpreted_error(node, CAROL, predicate=True)

    def test_null_predicate_stays_unknown(self):
        program = compile_batch_predicate(parse_expression("null"), LAYOUT)
        assert run(program, [CAROL]) == ([None], None)


class TestCompiledCache:
    def test_hit_on_same_node_and_layout(self):
        database = Database()
        node = parse_expression("salary > 500")
        first = batch_program_for(database, node, LAYOUT, predicate=True)
        second = batch_program_for(database, node, LAYOUT, predicate=True)
        assert first is second
        stats = database.compiler_stats
        assert stats.compiles == 1
        assert stats.cache_hits == 1
        assert stats.cache_misses == 1

    def test_distinct_layouts_compile_separately(self):
        database = Database()
        node = parse_expression("salary > 500")
        first = batch_program_for(database, node, LAYOUT)
        other_layout = (("e2", ("salary",)),)
        second = batch_program_for(database, node, other_layout)
        assert first is not second
        assert database.compiler_stats.compiles == 2
        # predicate-ness is part of the key as well
        third = batch_program_for(database, node, LAYOUT, predicate=True)
        assert third is not first
        assert database.compiler_stats.compiles == 3

    def test_schema_change_invalidates(self):
        database = Database()
        node = parse_expression("salary > 500")
        first = batch_program_for(database, node, LAYOUT)
        database.create_table("t", [("x", "integer")])  # bumps schema_version
        second = batch_program_for(database, node, LAYOUT)
        assert first is not second
        assert database.compiler_stats.invalidations == 1

    def test_data_change_does_not_invalidate(self):
        database = Database()
        database.create_table("t", [("x", "integer")])
        node = parse_expression("salary > 500")
        first = batch_program_for(database, node, LAYOUT)
        database.insert_row("t", (1,))  # bumps version, not schema_version
        assert batch_program_for(database, node, LAYOUT) is first

    @pytest.mark.parametrize("sql", [
        "select name, salary from emp where salary > 100",
        "select name from emp where salary > 100 order by salary desc",
        "select * from emp where salary > 100",
        "select e.* from emp e where e.salary > 100 order by e.name",
    ])
    def test_reparsed_text_reuses_cached_programs(self, sql):
        """Re-parsed text hits the plan cache (keyed structurally); its
        projection, order keys and ``*`` expansion must then come from
        the cached plan's AST too, so later runs compile nothing."""
        database = emp_database()

        def run():
            return evaluate_select(database, parse_select(sql)).rows

        first = run()
        misses = database.compiler_stats.cache_misses
        size = len(database.compiled_cache)
        for _ in range(3):
            assert run() == first
        assert database.compiler_stats.cache_misses == misses
        assert len(database.compiled_cache) == size

    def test_unknown_star_qualifier_raises_after_where(self):
        """The memoized ``*`` expansion keeps the naive path's error
        precedence: the WHERE's error surfaces first, and an unknown
        ``q.*`` raises on every run, not only the first."""
        messages = {}
        for planner in (True, False):
            database = emp_database()
            database.enable_planner = planner
            outcome = []
            for sql in ("select q.* from emp where salary / 0 > 1",
                        "select q.* from emp where salary > 1",
                        "select q.* from emp where salary > 1"):
                with pytest.raises(ExecutionError) as info:
                    evaluate_select(database, parse_select(sql))
                outcome.append(str(info.value))
            messages[planner] = outcome
        assert messages[True] == messages[False]
        assert "division by zero" in messages[True][0]
        assert "unknown table or alias 'q'" in messages[True][1]

    def test_overflow_clears_wholesale(self):
        cache = CompiledCache(max_entries=2)
        database = Database()
        stats = CompilerStats()
        nodes = [parse_expression(f"salary > {i}") for i in range(3)]
        for node in nodes:
            cache.program_for(node, LAYOUT, database, stats=stats)
        assert len(cache) == 1  # third insert cleared the full cache
        assert stats.compiles == 3

    def test_snapshot_rates(self):
        stats = CompilerStats()
        stats.cache_hits = 3
        stats.cache_misses = 1
        stats.nodes_compiled = 8
        stats.nodes_fallback = 2
        snapshot = stats.snapshot()
        assert snapshot["cache_hit_rate"] == 0.75
        assert snapshot["fallback_rate"] == 0.2

    def test_delta_since_counts_one_evaluation(self):
        database = Database()
        node = parse_expression("salary > 500")
        before = database.compiler_stats.counters()
        batch_program_for(database, node, LAYOUT)
        delta = database.compiler_stats.delta_since(before)
        assert delta == {"cache_hits": 0, "cache_misses": 1, "compiles": 1}


class TestEnvironmentGate:
    def test_default_is_enabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_COMPILED_EVAL", raising=False)
        assert Database().enable_compiled_eval is True

    @pytest.mark.parametrize("value", ["0", "off", "false", "OFF"])
    def test_disabled_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_COMPILED_EVAL", value)
        assert Database().enable_compiled_eval is False

    def test_disabled_database_never_compiles(self, monkeypatch):
        monkeypatch.setenv("REPRO_COMPILED_EVAL", "0")
        from repro import ActiveDatabase

        db = ActiveDatabase(record_seen=False)
        db.execute("create table t (x integer)")
        db.execute("insert into t values (1), (2), (3)")
        db.execute("select x from t where x > 1")
        stats = db.database.compiler_stats
        assert stats.compiles == 0
        assert len(db.database.compiled_cache) == 0


class TestLikeMemoization:
    def test_one_regex_compile_per_distinct_pattern(self, monkeypatch):
        """Regression for the memoized LIKE pattern compiler: scanning many
        rows under one pattern must translate the pattern exactly once,
        on the interpreter path as well as the compiled one."""
        monkeypatch.setenv("REPRO_COMPILED_EVAL", "0")
        from repro import ActiveDatabase

        _like_to_regex.cache_clear()
        db = ActiveDatabase(record_seen=False)
        db.execute("create table t (s varchar)")
        rows = ", ".join(f"('name{i}')" for i in range(50))
        db.execute(f"insert into t values {rows}")
        db.execute("select s from t where s like 'name1%'")
        info = _like_to_regex.cache_info()
        assert info.misses == 1  # one translation for the distinct pattern
        assert info.hits >= 49  # every further row reused it
        db.execute("select s from t where s like 'name2%'")
        assert _like_to_regex.cache_info().misses == 2

    def test_constant_pattern_precompiled_at_compile_time(self):
        _like_to_regex.cache_clear()
        program = compile_batch_predicate(
            parse_expression("name like 'c%'"), LAYOUT
        )
        baseline = _like_to_regex.cache_info()
        values, err = run(program, [(f"c{i}", 0, 0) for i in range(25)])
        assert values == [True] * 25 and err is None
        after = _like_to_regex.cache_info()
        # the kernel never touched the pattern translator
        assert (after.hits, after.misses) == (
            baseline.hits,
            baseline.misses,
        )

    def test_dynamic_pattern_memoized_per_row(self):
        _like_to_regex.cache_clear()
        layout = (("t", ("s", "p")),)
        program = compile_batch_predicate(parse_expression("s like p"), layout)
        rows = [("ab", "a%"), ("ab", "b%"), ("ac", "a%")]
        assert run(program, rows, layout=layout) == ([True, False, True], None)
        info = _like_to_regex.cache_info()
        assert info.misses == 2
        assert info.hits == 1


class TestEngineIntegration:
    # the mode is forced on explicitly so these hold even when the
    # suite runs under REPRO_COMPILED_EVAL=0 (the CI oracle run)

    def test_rule_condition_reenters_cached_program(self):
        """Each consideration re-runs the condition's subquery; its
        filter re-enters the batch program cached by the first one."""
        from repro import ActiveDatabase

        db = ActiveDatabase(record_seen=False)
        db.database.enable_compiled_eval = True
        # pin the full condition path: with incremental evaluation on,
        # this condition is answered from a maintained counter and never
        # re-runs its subquery per consideration
        db.database.enable_incremental_eval = False
        db.execute("create table t (x integer)")
        db.execute(
            "create rule watch when inserted into t "
            "if exists (select * from t where x > 100) "
            "then delete from t where x > 100"
        )
        db.reset_stats()
        db.execute("insert into t values (1)")
        db.execute("insert into t values (2)")
        stats = db.stats()
        compiler = stats["compiler"]
        assert compiler["cache_hits"] > 0
        rule = stats["rules"]["watch"]
        assert rule["compile_cache_hits"] > 0
        assert rule["considerations"] == 2

    def test_stats_expose_compiler_section(self):
        from repro import ActiveDatabase

        db = ActiveDatabase(record_seen=False)
        db.database.enable_compiled_eval = True
        db.execute("create table t (x integer)")
        db.execute("insert into t values (1)")
        db.execute("select x from t where x = 1")
        compiler = db.stats()["compiler"]
        assert compiler["compiles"] > 0
        assert 0.0 <= compiler["cache_hit_rate"] <= 1.0
        assert 0.0 <= compiler["fallback_rate"] <= 1.0
        for key in ("cache_hits", "cache_misses", "invalidations",
                    "nodes_compiled", "nodes_fallback"):
            assert key in compiler

    def test_reset_stats_clears_compiler_counters(self):
        from repro import ActiveDatabase

        db = ActiveDatabase(record_seen=False)
        db.database.enable_compiled_eval = True
        db.execute("create table t (x integer)")
        db.execute("insert into t values (1)")
        db.execute("select x from t where x = 1")
        assert db.stats()["compiler"]["compiles"] > 0
        db.reset_stats()
        assert db.stats()["compiler"]["compiles"] == 0
