"""Span tracing from outside the program: wrap public layer functions.

A :class:`Tracer` replaces each traced function or method with a wrapper
that records one span per call — ``(name, start, end, parent, op)`` —
into an in-memory list. Module-level functions are replaced on every
``repro`` module that holds a reference to them, so ``from x import f``
callers are traced too. Nothing inside the program changes;
:meth:`Tracer.uninstall` restores the original objects.

Spans are kept in the order they ended. Self time of a span is its
duration minus the time its direct child spans cover. Summing the self time of every span with one name therefore
counts nested calls of that same function (a subquery's
``evaluate_select`` inside its parent's) once, and excludes every other
traced layer's time.
"""

from __future__ import annotations

import sys
from time import perf_counter

#: (span name, module, attribute path) per traced callable. The span name
#: is the layer metric's stem; several targets may share a name.
TARGETS = (
    ("sql.parse", "repro.sql.parser", "parse_statement"),
    ("sql.parse", "repro.sql.parser", "parse_select"),
    ("relational.dml", "repro.relational.dml", "DmlExecutor.execute_operation"),
    ("relational.select", "repro.relational.select", "evaluate_select"),
    ("core.commit", "repro.core.engine", "RuleEngine.commit"),
    ("core.fold", "repro.core.transition_log", "TransInfo.apply_all"),
    ("core.resolve", "repro.core.transition_tables",
     "TransitionTableResolver.resolve"),
    ("core.resolve", "repro.core.transition_tables",
     "TransitionTableResolver.resolve_batch"),
    ("incremental.maintain", "repro.core.incremental.manager",
     "IncrementalManager.apply_transition"),
    ("obs.emit", "repro.obs.bus", "EventBus.emit"),
    ("durability.log_commit", "repro.durability.manager",
     "DurabilityManager.log_commit"),
    ("concurrency.execute", "repro.concurrency.control",
     "TransactionCoordinator.execute"),
    ("concurrency.execute", "repro.concurrency.control",
     "TransactionCoordinator.query"),
    ("concurrency.execute", "repro.concurrency.control",
     "TransactionCoordinator.begin"),
    ("concurrency.execute", "repro.concurrency.control",
     "TransactionCoordinator.commit"),
    ("concurrency.execute", "repro.concurrency.control",
     "TransactionCoordinator.rollback"),
)

# span record slots; PARENT holds the parent span's ID (None at the root)
NAME, START, END, PARENT, OP, CHILD, ID = range(7)


class Tracer:
    """Records spans while :attr:`active`; see the module docstring."""

    def __init__(self):
        self.spans = []
        self.active = False
        #: the caller's operation id, stamped on each span; None stamps
        #: each root span's own id on it and its descendants
        self.op = 0
        self._stack = []
        self._methods = []      # (class, attribute, original)
        self._functions = []    # (original, wrapper)
        self._next_id = 0

    # -- wrappers -------------------------------------------------------

    def _wrap(self, name, func):
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            if not self.active:
                return func(*args, **kwargs)
            parent = stack[-1] if stack else None
            self._next_id += 1
            record = [name, perf_counter(), 0.0,
                      None if parent is None else parent[ID],
                      parent[OP] if parent is not None
                      else self._next_id if self.op is None else self.op, 0.0,
                      self._next_id]
            stack.append(record)
            try:
                return func(*args, **kwargs)
            finally:
                record[END] = perf_counter()
                stack.pop()
                if parent is not None:
                    parent[CHILD] += record[END] - record[START]
                spans.append(record)

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        return traced

    def install(self):
        """Wrap every target (the ``repro`` modules must be importable)."""
        import importlib

        for name, module_name, path in TARGETS:
            module = importlib.import_module(module_name)
            if "." in path:
                class_name, attr = path.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[attr]
                setattr(owner, attr, self._wrap(name, original))
                self._methods.append((owner, attr, original))
            else:
                original = getattr(module, path)
                wrapped = self._wrap(name, original)
                _rebind(original, wrapped)
                self._functions.append((original, wrapped))

    def uninstall(self):
        """Restore every wrapped callable, including the references that
        modules imported after :meth:`install` took from the wrappers."""
        for owner, attr, original in self._methods:
            setattr(owner, attr, original)
        for original, wrapped in self._functions:
            _rebind(wrapped, original)
        self._methods.clear()
        self._functions.clear()


def _rebind(old, new):
    """Point every ``repro`` module attribute bound to ``old`` at ``new``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (
            module_name == "repro" or module_name.startswith("repro.")
        ):
            continue
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)


def write_spans(path, spans):
    """Write spans as tab-separated lines in slot order (name, start, end,
    parent id, op, child time, id)."""
    with open(path, "w", encoding="utf-8") as out:
        for span in spans:
            out.write("\t".join(map(str, span)) + "\n")


def read_spans(path):
    spans = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            name, start, end, parent, op, child, ident = (
                line.rstrip("\n").split("\t")
            )
            spans.append([
                name, float(start), float(end),
                None if parent == "None" else int(parent),
                int(op), float(child), int(ident),
            ])
    return spans


def summarize(spans):
    """``{name: {"calls", "total_s", "self_s"}}`` over a span list.

    ``total_s`` counts a span nested in a span of the same name once (as
    part of the outer one); ``self_s`` excludes every other name's spans.
    """
    names = {span[ID]: span[NAME] for span in spans}
    summary = {}
    for span in spans:
        entry = summary.setdefault(
            span[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        duration = span[END] - span[START]
        entry["calls"] += 1
        entry["self_s"] += duration - span[CHILD]
        if names.get(span[PARENT]) != span[NAME]:
            entry["total_s"] += duration
    return summary
