"""``build_plan()``: one select arm's AST → a cost-based logical plan.

A WHERE that the totality analysis of :mod:`~repro.relational.plan.cost`
cannot clear (it may raise on some row) is never split, so which error
surfaces never depends on the plan: its total prefix may only prune a
join, and the whole WHERE decides the rest
(:func:`_build_guarded_source`). For a total WHERE (or none), planning
decisions are, in order:

1. classify the WHERE's top-level conjuncts (pushdown / equi-join /
   residual — see :mod:`~repro.relational.plan.pushdown`);
2. give every FROM item a leaf: an :class:`~repro.relational.plan.nodes
   .IndexLookup` when pushed ``col = literal`` conjuncts hit existing
   hash indexes (base tables only; keys chosen by estimated bucket
   size), else a full :class:`~repro.relational.plan.nodes.Scan`;
   pushed conjuncts become a per-leaf
   :class:`~repro.relational.plan.nodes.Filter` (they *always* re-run,
   even when an index served candidates, so index contents can never
   change results), carrying zone-map prune specs over base tables;
3. join the leaves greedily by estimated output size: a
   :class:`~repro.relational.plan.nodes.HashJoin` when an unused
   equi-conjunct connects the tables joined so far to the next one, else
   a :class:`~repro.relational.plan.nodes.Product`; a
   :class:`~repro.relational.plan.nodes.RestoreOrder` node restores the
   FROM enumeration order whenever the join order changed, so results
   stay order-identical to the naive evaluator's;
4. wrap the residual conjuncts (if any) in a top-level Filter, then add
   the result chain (Project/Aggregate, Distinct, Sort, Limit) mirroring
   the select's clauses.

Pushed conjuncts and the residual are sorted cheapest-and-most-selective
first; every source node carries ``est_rows`` for EXPLAIN.

All tie-breaking is strict-improvement-only over FROM-position
iteration order, so on absent statistics (empty tables) the builder
joins in FROM order. Plans depend on table statistics, which is why the
plan cache keys on ``database.stats_epoch`` (see
:mod:`~repro.relational.plan.cache`). The naive path
(``database.enable_planner = False``) is the differential oracle.
"""

from __future__ import annotations

from functools import reduce
from typing import Any

from ...errors import ExecutionError
from ...sql import ast
from . import cost
from .nodes import (
    Aggregate,
    Distinct,
    Filter,
    HashJoin,
    IndexLookup,
    Limit,
    Plan,
    Product,
    Project,
    RestoreOrder,
    Scan,
    SingleRow,
    Sort,
)
from .pushdown import (
    _indexable_pair,
    classify_where,
    conjuncts,
    indexed_equalities,
)


def build_plan(database: Any, select: ast.Select) -> Plan:
    """Build a :class:`Plan` for one select arm (``select.union`` is the
    caller's concern — each arm is planned and cached separately)."""
    binding_columns: dict[str, tuple[str, ...]] = {}
    for table_ref in select.tables:
        name = table_ref.binding_name
        if name in binding_columns:
            raise ExecutionError(
                f"duplicate table name or alias {name!r} in FROM clause; "
                "use aliases to distinguish"
            )
        binding_columns[name] = tuple(
            database.schema(table_ref.table).column_names
        )

    parts = [] if select.where is None else list(conjuncts(select.where))
    prefix = _total_prefix(database, select, parts)
    if len(prefix) == len(parts):
        classified = classify_where(select.where, binding_columns)
        source = _build_cost_source(
            database, select, binding_columns, classified
        )
    else:
        source = _build_guarded_source(
            database, select, binding_columns, prefix
        )
    root = _build_result_chain(select, source)
    return Plan(select, source, root, binding_columns)


def _total_prefix(database: Any, select: Any, parts: list[Any]) -> list[Any]:
    """The leading top-level WHERE conjuncts that provably cannot raise."""
    layers = cost.kind_layers(database, select.tables)
    prefix: list[Any] = []
    for conjunct in parts:
        if cost.expression_kind(conjunct, layers, database) not in ("b", "?"):
            break
        prefix.append(conjunct)
    return prefix


def _build_guarded_source(database: Any, select: Any, binding_columns: Any,
                          prefix: list[Any]) -> Any:
    """A WHERE that may raise, whose leading conjuncts ``prefix`` cannot
    (docs/semantics.md §8). The naive ``and`` stops at the first False
    conjunct, so the prefix may prune a join where it is False — pushed
    conjuncts keep Unknown rows, hash joins keep NULL keys — and the
    whole WHERE decides the rest, in FROM order. A single base table
    narrows through its indexed equalities, as the naive path does."""
    database.optimizer_stats.plans_costed += 1
    single = len(select.tables) == 1
    classified = classify_where(
        None if single or not prefix
        else reduce(lambda left, right: ast.BinaryOp("and", left, right), prefix),
        binding_columns,
    )
    leaves: list[Any] = []
    leaf_ests: list[Any] = []
    for table_ref in select.tables:
        binding = table_ref.binding_name
        columns = binding_columns[binding]
        est = cost.source_rows(database, table_ref)
        leaf: Any = Scan(table_ref, binding, columns, est_rows=est)
        if single and isinstance(table_ref, ast.BaseTableRef):
            candidates = indexed_equalities(
                conjuncts(select.where), database.table(table_ref.table),
                {binding, table_ref.table},
            )
            if candidates:
                est = float(min(
                    index.count(value) for index, _, value in candidates
                ))
                keys = tuple((index.name, column, value)
                             for index, column, value in candidates)
                leaf = IndexLookup(table_ref, binding, columns, keys,
                                   est_rows=est)
        pushed = classified.pushed.get(binding)
        if pushed:
            est *= cost.filter_selectivity(database, table_ref, pushed)
            not_false = tuple(
                ast.BinaryOp("or", conjunct, ast.IsNull(conjunct))
                for conjunct in pushed
            )
            leaf = Filter(leaf, not_false, est_rows=est)
        leaves.append(leaf)
        leaf_ests.append(est)
    source, _, est = _join_leaves(
        database, select, binding_columns, classified.joins, leaves,
        leaf_ests, keep_nulls=True,
    )
    return Filter(source, (select.where,), residual=True,
                  est_rows=est * cost.DEFAULT_SELECTIVITY)


# ---------------------------------------------------------------------------
# leaf and join helpers


def _connecting_keys(joins: Any, used_joins: list[bool], joined: set[str],
                     new_binding: str) -> tuple[list[Any], list[Any]]:
    """Equi-join keys connecting the already-joined bindings to
    ``new_binding``; marks the conjuncts it consumes as used."""
    left_keys: list[Any] = []
    right_keys: list[Any] = []
    for position, (left_expr, left_bindings, right_expr,
                   right_bindings) in enumerate(joins):
        if used_joins[position]:
            continue
        if left_bindings <= joined and right_bindings == {new_binding}:
            left_keys.append(left_expr)
            right_keys.append(right_expr)
        elif right_bindings <= joined and left_bindings == {new_binding}:
            left_keys.append(right_expr)
            right_keys.append(left_expr)
        else:
            continue
        used_joins[position] = True
    return left_keys, right_keys


# ---------------------------------------------------------------------------
# the cost-based source pipeline


def _build_cost_source(database: Any, select: Any,
                       binding_columns: Any, classified: Any) -> Any:
    optimizer = database.optimizer_stats
    optimizer.plans_costed += 1
    layers = cost.kind_layers(database, select.tables)
    leaves: list[Any] = []       # Filter-wrapped (or bare) leaves, FROM order
    leaf_ests: list[Any] = []    # estimated output rows per leaf
    for table_ref in select.tables:
        binding = table_ref.binding_name
        pushed = tuple(classified.pushed.get(binding, ()))
        leaf, est = _cost_leaf(
            database, table_ref, binding, binding_columns[binding],
            pushed, layers, optimizer,
        )
        leaves.append(leaf)
        leaf_ests.append(est)

    source, used_joins, _ = _join_leaves(
        database, select, binding_columns, classified.joins, leaves,
        leaf_ests,
    )
    # the residual, plus never-connected equi-join conjuncts demoted back
    # to plain equalities, cheapest-and-most-selective first
    residual = list(classified.residual) + [
        ast.BinaryOp("=", left_expr, right_expr)
        for used, (left_expr, _, right_expr, _) in zip(
            used_joins, classified.joins
        )
        if not used
    ]
    if not residual:
        return source
    ranked = cost.order_conjuncts(database, residual, layers, None)
    if ranked is not None and ranked != residual:
        optimizer.conjuncts_reordered += 1
        residual = ranked
    return Filter(source, tuple(residual), residual=True)


def _join_leaves(database: Any, select: Any, binding_columns: Any,
                 joins: Any, leaves: list[Any], leaf_ests: list[Any],
                 keep_nulls: bool = False) -> tuple[Any, list[bool], Any]:
    """Join the FROM-order ``leaves`` greedily by estimated output size
    (hash joins over ``joins`` where one connects, else products),
    restoring FROM enumeration order when the join order changed.
    Returns ``(source, used_joins, est_rows)``."""
    optimizer = database.optimizer_stats
    refs_by_binding = {ref.binding_name: ref for ref in select.tables}
    # nothing below the residual can raise (the conjuncts planned here
    # are total — see build_plan), so any join order yields the same rows;
    # a guarded product keeps FROM order (reordering would only add a sort)
    order = list(range(len(leaves)))
    if len(leaves) > 1 and (joins or not keep_nulls):
        order = _greedy_join_order(
            database, select, joins, refs_by_binding, binding_columns,
            leaf_ests,
        )
        if order != list(range(len(leaves))):
            optimizer.joins_reordered += 1

    used_joins = [False] * len(joins)
    joined: set[str] = set()
    source: Any = None if leaves else SingleRow()
    current_est: Any = 1.0
    for position in order:
        binding = select.tables[position].binding_name
        leaf = leaves[position]
        if source is None:
            source = leaf
            current_est = leaf_ests[position]
        else:
            current_est = _join_estimate(
                database, joins, refs_by_binding, binding_columns, joined,
                current_est, binding, leaf_ests[position],
            )[0]
            left_keys, right_keys = _connecting_keys(
                joins, used_joins, joined, binding
            )
            if left_keys:
                source = HashJoin(source, leaf, tuple(left_keys),
                                  tuple(right_keys), est_rows=current_est,
                                  keep_nulls=keep_nulls)
            else:
                source = Product(source, leaf, est_rows=current_est)
        joined.add(binding)

    if order != list(range(len(leaves))):
        positions = tuple(order.index(k) for k in range(len(leaves)))
        source = RestoreOrder(source, positions, est_rows=current_est)
    return source, used_joins, current_est


def _cost_leaf(database: Any, table_ref: Any, binding: str,
               columns: tuple[str, ...], pushed: Any, layers: Any,
               optimizer: Any) -> tuple[Any, Any]:
    """One FROM item's leaf under the cost model: selective index keys,
    ordered pushed conjuncts, zone-map prune specs, and an estimate.
    Returns ``(node, est_rows)``."""
    pushed = tuple(pushed)
    base_rows = cost.source_rows(database, table_ref)
    scanned = base_rows
    leaf: Any = None
    key_conjunct_ids: set[int] = set()
    if isinstance(table_ref, ast.BaseTableRef):
        candidates = indexed_equalities(
            pushed, database.table(table_ref.table),
            {binding, table_ref.table},
        )
        keys, scanned = cost.select_index_keys(candidates, base_rows)
        if keys:
            leaf = IndexLookup(table_ref, binding, columns, keys,
                               est_rows=scanned)
            kept = {(name, column) for name, column, _ in keys}
            for conjunct in pushed:
                pair = _indexable_pair(
                    conjunct, {binding, table_ref.table},
                    database.table(table_ref.table).schema,
                )
                if pair is not None and any(
                    column == pair[0] for _, column in kept
                ):
                    key_conjunct_ids.add(id(conjunct))
    if leaf is None:
        leaf = Scan(table_ref, binding, columns, est_rows=base_rows)

    if pushed:
        # the index bucket already accounts for its key conjuncts; only
        # the remaining ones narrow the estimate further
        est = scanned * cost.filter_selectivity(
            database, table_ref,
            [c for c in pushed if id(c) not in key_conjunct_ids],
        )
        ordered = cost.order_conjuncts(database, list(pushed), layers,
                                       table_ref)
        if ordered is not None and ordered != list(pushed):
            optimizer.conjuncts_reordered += 1
            pushed = tuple(ordered)
        specs = cost.prune_specs(database, table_ref, binding, pushed,
                                 layers)
        leaf = Filter(leaf, pushed, prune_specs=specs, est_rows=est)
    else:
        est = scanned
    return leaf, est


def _join_estimate(database: Any, joins: Any, refs_by_binding: Any,
                   binding_columns: Any, joined: Any, left_est: Any,
                   new_binding: str, right_est: Any) -> tuple[Any, bool]:
    """Estimated output of joining the tree built so far (bindings
    ``joined``, cardinality ``left_est``) with ``new_binding``. Returns
    ``(rows, connected)``; without a connecting equi-conjunct the
    estimate is the Cartesian product."""
    est = left_est * right_est
    connected = False
    for left_expr, left_bindings, right_expr, right_bindings in joins:
        if (left_bindings <= joined and right_bindings == {new_binding}) or (
            right_bindings <= joined and left_bindings == {new_binding}
        ):
            ndv_left = cost.key_ndv(
                database, left_expr, refs_by_binding, binding_columns
            )
            ndv_right = cost.key_ndv(
                database, right_expr, refs_by_binding, binding_columns
            )
            est /= max(ndv_left, ndv_right, 1)
            connected = True
    return est, connected


def _greedy_join_order(database: Any, select: Any, joins: Any,
                       refs_by_binding: Any, binding_columns: Any,
                       leaf_ests: list[Any]) -> list[Any]:
    """Greedy join ordering by estimated output size.

    First the best ordered pair over all pairs, then repeatedly the
    remaining leaf whose join to the tree-so-far is estimated smallest.
    Candidates are iterated in FROM-position order and only a *strictly*
    better estimate displaces the incumbent, so full ties (e.g. empty
    tables, no statistics yet) reproduce the FROM order exactly.
    """
    n = len(leaf_ests)
    bindings = [ref.binding_name for ref in select.tables]

    best_pair: Any = None
    best_est: Any = None
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            est, _ = _join_estimate(
                database, joins, refs_by_binding, binding_columns,
                {bindings[i]}, leaf_ests[i], bindings[j], leaf_ests[j],
            )
            if best_est is None or est < best_est:
                best_est = est
                best_pair = (i, j)
    order = list(best_pair)
    joined = {bindings[i] for i in order}
    current_est = best_est

    remaining = [k for k in range(n) if k not in order]
    while remaining:
        best_k: Any = None
        best_est = None
        for k in remaining:
            est, _ = _join_estimate(
                database, joins, refs_by_binding, binding_columns,
                joined, current_est, bindings[k], leaf_ests[k],
            )
            if best_est is None or est < best_est:
                best_est = est
                best_k = k
        order.append(best_k)
        joined.add(bindings[best_k])
        current_est = best_est
        remaining.remove(best_k)
    return order


# ---------------------------------------------------------------------------
# the result chain


def _build_result_chain(select: Any, source: Any) -> Any:
    from ..expressions import contains_aggregate

    items = _output_names(select)
    grouped = bool(select.group_by) or any(
        isinstance(item, ast.SelectItem) and contains_aggregate(item.expression)
        for item in select.items
    ) or (select.having is not None and contains_aggregate(select.having))
    root: Any
    if grouped:
        root = Aggregate(source, items, select.group_by, select.having)
    else:
        root = Project(source, items)
    if select.distinct:
        root = Distinct(root)
    if select.order_by:
        root = Sort(root, select.order_by)
    if select.limit is not None:
        root = Limit(root, select.limit)
    return root


def _output_names(select: Any) -> tuple[str, ...]:
    """Output column labels for explain (``*`` kept symbolic)."""
    names: list[str] = []
    for position, item in enumerate(select.items):
        if isinstance(item, ast.Star):
            names.append(f"{item.qualifier}.*" if item.qualifier else "*")
        elif item.alias:
            names.append(item.alias)
        elif isinstance(item.expression, ast.ColumnRef):
            names.append(item.expression.column)
        else:
            names.append(f"col{position + 1}")
    return tuple(names)
