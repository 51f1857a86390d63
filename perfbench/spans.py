"""In-memory span tracer that times calls into a library from outside it.

A Tracer rebinds each target function at every import site inside the
``bitconv`` package (and each target method on its class), records one span per
call, and puts every original binding back when its ``with`` block exits.
Spans stay in memory as lists and are written out once, after the run.

A span is ``[name, start_ns, end_ns, parent, op, work]``: ``parent`` is the
index of the enclosing span (-1 at top level), ``op`` the id of the
workload operation it belongs to, and ``work`` a count computed from the
call's arguments (MACs, bits), never measured.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable

NAME, START, END, PARENT, OP, WORK = range(6)
PACKAGE = "bitconv"


@dataclass(frozen=True)
class Target:
    """One function or method to time.

    ``attr`` is ``"func"`` or ``"Class.method"`` inside ``module``. With
    ``returns_operator`` the call itself is not timed; instead the callable
    it returns as its first result is wrapped, so each call of that
    operator becomes a span named ``span``.
    """

    module: str
    attr: str
    span: str
    work: Callable | None = None
    returns_operator: bool = False


class Tracer:
    """Context manager that installs the targets and records spans."""

    def __init__(self, targets):
        self.targets = tuple(targets)
        self.spans: list[list] = []
        self.op = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def begin_op(self) -> int:
        """Start a new workload operation; later spans carry its id."""
        self.op += 1
        return self.op

    def wrap(self, fn, name: str, work=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            w = work(*args, **kwargs) if work is not None else 0
            span = [name, 0, 0, stack[-1] if stack else -1, self.op, w]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _operator_factory(self, fn, name: str, work=None):
        def factory(*args, **kwargs):
            op, *rest = fn(*args, **kwargs)
            return (self.wrap(op, name, work), *rest)

        factory.__wrapped__ = fn
        return factory

    def _rebind(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def __enter__(self):
        try:
            for t in self.targets:
                module = importlib.import_module(t.module)
                make = self._operator_factory if t.returns_operator else self.wrap
                if "." in t.attr:
                    cls_name, meth = t.attr.split(".")
                    cls = getattr(module, cls_name)
                    self._rebind(cls, meth, make(cls.__dict__[meth], t.span, t.work))
                    continue
                original = getattr(module, t.attr)
                new = make(original, t.span, t.work)
                for site in self._import_sites():
                    for attr, value in list(vars(site).items()):
                        if value is original:
                            self._rebind(site, attr, new)
        except BaseException:
            self._undo()
            raise
        return self

    def __exit__(self, *exc):
        self._undo()
        return False

    @staticmethod
    def _import_sites():
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def _undo(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def self_times_ns(spans) -> list[int]:
    """Each span's duration minus the time its direct children cover.

    Spans of one thread nest, so the direct children of a span are
    disjoint and their durations add up to the time they cover.
    """
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def summarize(spans) -> dict[str, dict[str, int]]:
    """Per span name: calls, total (inclusive) ns, self ns and summed work."""
    selfs = self_times_ns(spans)
    out: dict[str, dict[str, int]] = {}
    for s, self_ns in zip(spans, selfs):
        agg = out.setdefault(s[NAME], {"calls": 0, "total_ns": 0, "self_ns": 0, "work": 0})
        agg["calls"] += 1
        agg["total_ns"] += s[END] - s[START]
        agg["self_ns"] += self_ns
        agg["work"] += s[WORK]
    return out


def top_level_ns(spans) -> int:
    """Time covered by spans that have no parent."""
    return sum(s[END] - s[START] for s in spans if s[PARENT] < 0)


def nearest_ancestor(spans, index: int, name: str) -> int:
    """Index of the closest enclosing span called ``name``, or -1."""
    p = spans[index][PARENT]
    while p >= 0 and spans[p][NAME] != name:
        p = spans[p][PARENT]
    return p


def write_spans(path, spans) -> None:
    """Write spans as tab-separated lines: name start end parent op work."""
    with open(path, "w") as fh:
        fh.write("name\tstart_ns\tend_ns\tparent\top\twork\n")
        for s in spans:
            fh.write("\t".join(map(str, s)) + "\n")
