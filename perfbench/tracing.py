"""In-memory span tracing through thin call proxies.

The traced run never edits the program: it replaces the public entry points
of each layer *on the instances (or modules) the run created* with a
:class:`SpanProxy` — a callable that times the call and forwards it, in the
manner of a counting callback proxy.  The untraced run installs nothing.

A span is ``[id, name, start_ns, end_ns, parent, qid, thread, attrs]``.
``parent`` is the enclosing span of the same thread.  ``qid`` names the
query the work belongs to: inherited from the parent, or resolved from the
query graph's name (the workload registers ``name -> qid`` before it sends
each query).  A span with a qid but no same-thread parent — the driver
thread's engine stages, the server's codec calls — hangs under that query's
caller span, so every query forms one tree rooted where its caller waited.

Self time: each instant of a tree's root interval is charged to exactly one
span, the deepest one active then (the latest-started among equals).  Self
times are therefore non-negative and a tree's self times sum to its root's
duration, even when a query's work hops threads.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict

ID, NAME, START, END, PARENT, QID, THREAD, ATTRS = range(8)

#: span name prefix -> layer (repro module) whose calls it times
LAYERS = {
    "service": "service",
    "wire": "service.protocol",
    "engine": "core.engine",
    "features": "features",
    "methods": "methods",
    "containment": "core.containment",
    "isomorphism": "isomorphism",
    "maintenance": "core.maintenance",
    "persist": "persist",
}


class Tracer:
    """Collects spans in memory; :meth:`dump` writes them out at the end."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.names: dict[str, int] = {}
        self.counters: defaultdict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()

    def register(self, name: str, qid: int) -> None:
        """Bind a query graph's name to the query id its spans carry."""
        self.names[name] = qid

    def qid_of_name(self, name) -> int | None:
        return self.names.get(name)

    def stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def dump(self, path, self_ns: dict | None = None) -> None:
        """Write one JSON object per span (plus its self time when known)."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                record = {
                    "id": span[ID],
                    "name": span[NAME],
                    "start_ns": span[START],
                    "end_ns": span[END],
                    "parent": span[PARENT],
                    "qid": span[QID],
                    "thread": span[THREAD],
                }
                if self_ns is not None:
                    record["self_ns"] = self_ns.get(span[ID])
                if span[ATTRS]:
                    record["attrs"] = span[ATTRS]
                out.write(json.dumps(record, default=str) + "\n")


class SpanProxy:
    """Callable proxy recording one span per call of ``target``.

    ``qid_of(args, kwargs, result)`` names the query of a call made outside
    any span of its thread (``result`` is ``None`` before the call, so a
    resolver may try the arguments first and the return value second).
    ``deltas`` maps attribute names to zero-argument readers sampled before
    and after the call; ``attrs_of(result)`` adds attributes of the result.
    """

    def __init__(self, tracer: Tracer, name: str, target, *, qid_of=None,
                 deltas=None, attrs_of=None) -> None:
        self.tracer = tracer
        self.name = name
        self.target = target
        self.qid_of = qid_of
        self.deltas = deltas
        self.attrs_of = attrs_of

    def __call__(self, *args, **kwargs):
        tracer = self.tracer
        stack = tracer.stack()
        parent = stack[-1] if stack else None
        qid = parent[QID] if parent is not None else None
        if qid is None and self.qid_of is not None:
            qid = self.qid_of(args, kwargs, None)
        span = [next(tracer._ids), self.name, 0, 0,
                parent[ID] if parent is not None else None,
                qid, threading.get_ident(), None]
        before = {key: read() for key, read in self.deltas.items()} if self.deltas else None
        stack.append(span)
        span[START] = time.perf_counter_ns()
        try:
            result = self.target(*args, **kwargs)
        finally:
            span[END] = time.perf_counter_ns()
            stack.pop()
            tracer.spans.append(span)
        if span[QID] is None and self.qid_of is not None:
            span[QID] = self.qid_of(args, kwargs, result)
        attrs = {}
        if before is not None:
            attrs.update({key: read() - before[key] for key, read in self.deltas.items()})
        if self.attrs_of is not None:
            attrs.update(self.attrs_of(result))
        span[ATTRS] = attrs or None
        return result


def install(obj, attribute: str, proxy) -> tuple:
    """Shadow ``obj.attribute`` with ``proxy``; returns an undo token."""
    had_own = attribute in getattr(obj, "__dict__", {})
    previous = obj.__dict__.get(attribute) if had_own else None
    setattr(obj, attribute, proxy)
    return obj, attribute, had_own, previous


def uninstall(tokens: list) -> None:
    """Undo :func:`install` calls, newest first."""
    for obj, attribute, had_own, previous in reversed(tokens):
        if had_own:
            setattr(obj, attribute, previous)
        else:
            delattr(obj, attribute)
    tokens.clear()


class CountingProxy:
    """Callable proxy adding ``measure(result)`` to a tracer counter."""

    def __init__(self, tracer: Tracer, counter: str, target, measure) -> None:
        self.tracer = tracer
        self.counter = counter
        self.target = target
        self.measure = measure

    def __call__(self, *args, **kwargs):
        result = self.target(*args, **kwargs)
        self.tracer.counters[self.counter] += self.measure(result)
        return result


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def link(spans: list[list], roots: dict[int, int]) -> dict[int, int | None]:
    """Effective parent of every span: same-thread parent, else the root
    caller span of its query (``roots`` maps qid -> caller span id)."""
    parents = {}
    for span in spans:
        parent = span[PARENT]
        if parent is None and span[QID] is not None:
            root = roots.get(span[QID])
            if root is not None and root != span[ID]:
                parent = root
        parents[span[ID]] = parent
    return parents


def self_times(spans: list[list], parents: dict[int, int | None]) -> dict[int, int]:
    """Self time (ns) of every span: the deepest-active-span sweep per tree."""
    by_id = {span[ID]: span for span in spans}
    depth: dict[int, int] = {}

    def depth_of(span_id: int) -> int:
        path = []
        current = span_id
        while current not in depth:
            parent = parents.get(current)
            if parent is None or parent not in by_id:
                depth[current] = 0
                break
            path.append(current)
            current = parent
        level = depth[current]
        for member in reversed(path):
            level += 1
            depth[member] = level
        return depth[span_id]

    trees: defaultdict[int, list] = defaultdict(list)
    for span in spans:
        root = span[ID]
        while parents.get(root) is not None and parents[root] in by_id:
            root = parents[root]
        trees[root].append(span)

    result: dict[int, int] = {}
    for root_id, members in trees.items():
        lo, hi = by_id[root_id][START], by_id[root_id][END]
        events = []
        for span in members:
            start, end = max(span[START], lo), min(span[END], hi)
            result[span[ID]] = 0
            if end > start:
                key = (depth_of(span[ID]), span[START], span[ID])
                events.append((start, 1, key))
                events.append((end, 0, key))
        events.sort()
        active: set = set()
        previous = None
        for instant, kind, key in events:
            if active and previous is not None and instant > previous:
                winner = max(active)
                result[winner[2]] += instant - previous
            if kind == 1:
                active.add(key)
            else:
                active.discard(key)
            previous = instant
    return result
