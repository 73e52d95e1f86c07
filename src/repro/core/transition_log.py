"""Per-rule transition information (the Figure 1 algorithm's ``trans-info``).

With each rule the engine associates composite transition information
starting from the state in which the rule's action was last executed (or
the transaction start). The paper's Figure 1 keeps, per rule, a triple
``[ins, del, upd]``:

* ``ins`` — handles of inserted tuples (current values come from the DB);
* ``del`` — *values* of deleted tuples (their pre-image as of the rule's
  baseline state);
* ``upd`` — (handle, column, old-value) triples for updated tuples, where
  the old value is the tuple's pre-image as of the baseline (Figure 1's
  ``get-old-value``: all entries for one handle share the same pre-image).

:class:`TransInfo` implements ``init-trans-info``/``modify-trans-info``
incrementally, folding one executed operation at a time; this is exactly
equivalent to composing whole-block effects (a property test asserts the
agreement with :meth:`TransitionEffect.compose`).

With the §5.1 extension, a ``sel`` component tracks (handle, column)
pairs of retrieved data.
"""

from __future__ import annotations

from ..relational.dml import (
    DeleteEffect,
    InsertEffect,
    SelectEffect,
    UpdateEffect,
)
from .effects import TransitionEffect


class TransInfo:
    """Composite transition information for one rule (Figure 1).

    Attributes:
        ins: ``{handle}`` — net-inserted tuple handles.
        deleted: ``{handle: old_row}`` — net-deleted tuples with their
            baseline pre-image values.
        upd: ``{handle: (old_row, {columns})}`` — net-updated tuples with
            the baseline pre-image row and the set of updated columns
            (equivalent to Figure 1's (h, c, v) triples, which share one
            ``v`` per handle; indexed per handle for O(1) access).
        sel: ``{(handle, column)}`` — §5.1 retrieved pairs.
        stamp: fold counter, bumped by every :meth:`apply`. Together
            with ``database.version`` it keys the cached results of
            transition-table subqueries (a resolver reads one instance):
            ``deleted`` and ``old updated`` read pre-images that change
            only when an operation is folded.
        tables: ``{handle: table_name}`` — table association for every
            handle this info has seen (needed after deletion, when the
            database no longer knows the handle's table... it does via the
            allocator, but carrying it here keeps TransInfo self-contained
            and snapshot-friendly).
    """

    __slots__ = ("ins", "deleted", "upd", "sel", "tables", "stamp")

    def __init__(self):
        self.stamp = 0
        self.ins = set()
        self.deleted = {}
        # upd is indexed per handle: {handle: (pre_image_row, {columns})};
        # Figure 1's (h, c, v) triples all share one v per handle, so this
        # is the same information with O(1) per-handle access.
        self.upd = {}
        self.sel = set()
        self.tables = {}

    # ------------------------------------------------------------------

    @classmethod
    def empty(cls):
        return cls()

    @classmethod
    def from_op_effects(cls, op_effects):
        """``init-trans-info``: fold a block's operations from scratch."""
        info = cls()
        for op_effect in op_effects:
            info.apply(op_effect)
        return info

    def copy(self):
        """An independent copy (each rule owns its own trans-info)."""
        other = TransInfo()
        other.ins = set(self.ins)
        other.deleted = dict(self.deleted)
        other.upd = {
            handle: (row, set(columns))
            for handle, (row, columns) in self.upd.items()
        }
        other.sel = set(self.sel)
        other.tables = dict(self.tables)
        return other

    def is_empty(self):
        return not (self.ins or self.deleted or self.upd or self.sel)

    def size(self):
        """Total tracked entries (the observability layer's measure of a
        rule's composite-information footprint)."""
        return (
            len(self.ins) + len(self.deleted) + len(self.upd) + len(self.sel)
        )

    # ------------------------------------------------------------------
    # Figure 1: modify-trans-info, one executed operation at a time

    def apply(self, op_effect):
        """Fold one operation's affected set into this composite info."""
        self.stamp += 1
        if isinstance(op_effect, InsertEffect):
            self._apply_insert(op_effect)
        elif isinstance(op_effect, DeleteEffect):
            self._apply_delete(op_effect)
        elif isinstance(op_effect, UpdateEffect):
            self._apply_update(op_effect)
        elif isinstance(op_effect, SelectEffect):
            self._apply_select(op_effect)
        else:
            raise TypeError(
                f"unknown operation effect {type(op_effect).__name__}"
            )

    def apply_all(self, op_effects):
        for op_effect in op_effects:
            self.apply(op_effect)

    def _apply_insert(self, op_effect):
        # Figure 1: ins := ins ∪ I(E)
        for handle in op_effect.handles:
            self.ins.add(handle)
            self.tables[handle] = op_effect.table

    def _apply_delete(self, op_effect):
        # Figure 1: for each h in D(E): if h in ins, forget it entirely;
        # otherwise record its baseline pre-image in del and drop its upd
        # entries.
        for handle, old_row in op_effect.entries:
            self.tables.setdefault(handle, op_effect.table)
            if handle in self.ins:
                self.ins.discard(handle)
                continue
            self.deleted[handle] = self._old_value(handle, old_row)
            self.upd.pop(handle, None)
            if self.sel:
                # §5.1 composition choice: S loses pairs of deleted handles.
                self.sel = {pair for pair in self.sel if pair[0] != handle}

    def _apply_update(self, op_effect):
        # Figure 1: for each (h, c) in U(E): if h not inserted and (h, c)
        # not already recorded, record the baseline pre-image.
        for handle, old_row in op_effect.entries:
            self.tables.setdefault(handle, op_effect.table)
            if handle in self.ins:
                continue
            entry = self.upd.get(handle)
            if entry is None:
                self.upd[handle] = (old_row, set(op_effect.columns))
            else:
                entry[1].update(op_effect.columns)

    def _apply_select(self, op_effect):
        for table, handle, columns in op_effect.entries:
            self.tables.setdefault(handle, table)
            for column in columns:
                self.sel.add((handle, column))

    def _old_value(self, handle, current_old_row):
        """Figure 1's ``get-old-value``: the handle's baseline pre-image.

        If the handle already has upd entries, their shared pre-image *is*
        the baseline value; otherwise the value just before the current
        operation is the baseline value.
        """
        entry = self.upd.get(handle)
        if entry is not None:
            return entry[0]
        return current_old_row

    # ------------------------------------------------------------------
    # views

    def to_effect(self):
        """The pure ``[I, D, U(, S)]`` effect triple this info represents."""
        updated = frozenset(
            (handle, column)
            for handle, (_, columns) in self.upd.items()
            for column in columns
        )
        return TransitionEffect(
            inserted=frozenset(self.ins),
            deleted=frozenset(self.deleted),
            updated=updated,
            selected=frozenset(self.sel),
        )

    def table_of(self, handle):
        """The table a tracked handle belongs(/belonged) to."""
        return self.tables[handle]

    def inserted_handles(self, table):
        """Net-inserted handles belonging to ``table`` (insertion order)."""
        return [
            handle for handle in self.ins if self.tables[handle] == table
        ]

    def deleted_rows(self, table):
        """Baseline pre-images of net-deleted tuples of ``table``."""
        return [
            (handle, row)
            for handle, row in self.deleted.items()
            if self.tables[handle] == table
        ]

    def updated_handles(self, table, column=None):
        """Net-updated handles of ``table`` (optionally for one column),
        each with its baseline pre-image row, ordered by first update."""
        result = []
        for handle, (old_row, columns) in self.upd.items():
            if self.tables[handle] != table:
                continue
            if column is not None and column not in columns:
                continue
            result.append((handle, old_row))
        return result

    def selected_handles(self, table, column=None):
        """§5.1: net-selected handles of ``table`` (optionally one column)."""
        seen = dict()
        for handle, selected_column in sorted(self.sel):
            if self.tables[handle] != table:
                continue
            if column is not None and selected_column != column:
                continue
            seen[handle] = None
        return list(seen)

    def __repr__(self):
        return (
            f"TransInfo(ins={len(self.ins)}, del={len(self.deleted)}, "
            f"upd={len(self.upd)}, sel={len(self.sel)})"
        )
