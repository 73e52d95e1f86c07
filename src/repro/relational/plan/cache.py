"""The per-database plan cache and the planner's observability counters.

Rule processing (paper §4, Figure 1) re-evaluates every triggered rule's
condition at the end of each transition, so the same condition/action
selects run over and over within — and across — transactions. Plans
depend only on the catalog (schemas, indexes), never on table contents,
so one compiled plan serves every one of those evaluations: the cache is
keyed by the select AST node itself (frozen dataclasses hash and compare
structurally, literals with their type, so re-parsed ad-hoc text
deduplicates too) and invalidated
wholesale whenever ``database.schema_version`` moves — i.e. on any
schema or index DDL.

With the cost planner (PR 9) plans additionally depend on table
*statistics*, so the cache also tracks ``database.stats_epoch``: when
any table's stats are rebuilt past its drift threshold (or index DDL
changes the NDV sources), cached plans are re-costed on their next
lookup. Those invalidations are counted as ``optimizer.replans``.
"""

from __future__ import annotations

from typing import Any, Optional

#: counters whose deltas the engine attaches to rule events
DELTA_FIELDS = (
    "plan_cache_hits",
    "plan_cache_misses",
    "rows_scanned",
    "rows_visited",
    "rows_returned",
)


class PlannerStats:
    """Monotone counters for plan-cache and data-flow behaviour.

    Maintained by the plan cache and both execution paths (the planner
    *and* the naive evaluator count ``rows_scanned``/``rows_visited``,
    so planner-on/off comparisons read the same gauges). The engine
    snapshots deltas around condition/action evaluation and emits them
    on the observability bus.
    """

    __slots__ = (
        "plans_built",
        "plan_cache_hits",
        "plan_cache_misses",
        "plan_cache_invalidations",
        "rows_scanned",
        "rows_visited",
        "rows_returned",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.plans_built = 0
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0
        self.plan_cache_invalidations = 0
        self.rows_scanned = 0
        self.rows_visited = 0
        self.rows_returned = 0

    def snapshot(self) -> dict[str, Any]:
        lookups = self.plan_cache_hits + self.plan_cache_misses
        return {
            "plans_built": self.plans_built,
            "plan_cache_hits": self.plan_cache_hits,
            "plan_cache_misses": self.plan_cache_misses,
            "plan_cache_invalidations": self.plan_cache_invalidations,
            "plan_cache_hit_rate": (
                self.plan_cache_hits / lookups if lookups else 0.0
            ),
            "rows_scanned": self.rows_scanned,
            "rows_visited": self.rows_visited,
            "rows_returned": self.rows_returned,
        }

    def counters(self) -> tuple[int, ...]:
        """The :data:`DELTA_FIELDS` values as a tuple (cheap to snapshot
        around a single condition/action evaluation)."""
        return tuple(getattr(self, name) for name in DELTA_FIELDS)

    def delta_since(self, before: tuple[int, ...]) -> dict[str, int]:
        """``{field: increment}`` relative to a :meth:`counters` tuple."""
        return {
            name: getattr(self, name) - then
            for name, then in zip(DELTA_FIELDS, before)
        }


class PlanCache:
    """Compiled plans keyed by select AST, guarded by the schema version.

    ``max_entries`` bounds ad-hoc query growth; on overflow the cache is
    cleared wholesale (plans are cheap to rebuild — the win is the
    steady-state rule workload, whose handful of condition/action selects
    always fits).
    """

    def __init__(self, max_entries: int = 512) -> None:
        self.max_entries = max_entries
        self._plans: dict[Any, Any] = {}
        self._stale: dict[Any, Any] = {}  # plans costed on older stats
        self._schema_version: Optional[int] = None
        self._stats_epoch: Optional[int] = None

    def __len__(self) -> int:
        return len(self._plans)

    def plan_for(self, select: Any, database: Any, stats: Any = None) -> Any:
        """The cached plan for ``select``, building (and caching) on miss."""
        from .builder import build_plan

        if self._schema_version != database.schema_version:
            if self._plans:
                if stats is not None:
                    stats.plan_cache_invalidations += 1
                self._plans.clear()
            self._stale = {}
            self._schema_version = database.schema_version
            self._stats_epoch = getattr(database, "stats_epoch", None)
        elif self._stats_epoch != getattr(database, "stats_epoch", None):
            # statistics drifted past a table's rebuild threshold (or an
            # index came/went): cached plans were costed against stale
            # estimates — re-plan (a "replan", distinct from the schema
            # invalidation above, which would re-plan regardless of cost).
            # A re-plan keeps the stale plan's select nodes and expanded
            # select list (schema-only), so compiled programs stay cached
            if self._plans:
                if stats is not None:
                    stats.plan_cache_invalidations += 1
                optimizer = getattr(database, "optimizer_stats", None)
                if optimizer is not None:
                    optimizer.replans += 1
                self._stale, self._plans = self._plans, {}
            self._stats_epoch = getattr(database, "stats_epoch", None)
        plan = self._plans.get(select)
        if plan is not None:
            if stats is not None:
                stats.plan_cache_hits += 1
            return plan
        if stats is not None:
            stats.plan_cache_misses += 1
            stats.plans_built += 1
        stale = self._stale.pop(select, None)
        plan = build_plan(database, select if stale is None else stale.select)
        if stale is not None:
            plan.items = stale.items
        if len(self._plans) >= self.max_entries:
            self._plans.clear()
        self._plans[select] = plan
        return plan

    def clear(self) -> None:
        self._plans.clear()
        self._stale = {}
