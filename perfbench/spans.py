"""Outside-in span tracing of the ccmax layers.

The tracer replaces the module-level names each layer is entered through
(in every ccmax module that imported them) with a wrapper that records one
span per call: entry, parent span, start and end. Spans stay in memory as
flat arrays and are summarised after the traced run, so the wrappers do
little more than read the clock twice.

A span's self time is its duration minus the durations of its direct
children. Children of one span never overlap (calls are synchronous), so
the self times of all spans under a root add up to the root's duration.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
from array import array
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


class TraceError(RuntimeError):
    """A wrapped name is missing, or a required one recorded no calls."""


@dataclass(frozen=True)
class Entry:
    """One traced name: `attr` of the ccmax module `module` (the layer it
    belongs to; attr may be `Class.method`) and the metric group it feeds,
    which is the layer or a part of it such as `graphs.canon`."""

    module: str
    attr: str
    group: str


def _entries() -> list[Entry]:
    out = []

    def add(module, group, *attrs):
        out.extend(Entry(module, a, group) for a in attrs)

    add("graphs", "graphs.canon", "canonical_graph", "_canon_masks")
    add("graphs", "graphs.refine", "_refine_classes")
    add("graphs", "graphs.g6", "to_graph6", "parse_graph6")
    add("enumeration", "enumeration", "enumerate_graphs")
    add("clustering", "clustering", "graph_cc", "edge_add_delta")
    add(
        "structure",
        "structure",
        "blocks",
        "classify_block_in",
        "graph_type",
        "s_set",
        "is_in_b0",
        "is_in_b",
        "is_in_b_literal",
        "claim_checks",
    )
    add(
        "harness",
        "harness",
        "verify_theorem1",
        "verify_theorem23",
        "verify_theorem4",
        "verify_caveman_rewire",
    )
    add("harness", "harness.render", "TheoremReport.to_json", "TheoremReport.summary_lines")
    add(
        "generators",
        "generators",
        "g_kl",
        "caveman",
        "caveman_rewired",
        "complete_bipartite",
    )
    return out


ENTRIES = _entries()
ROOT_NAME = "bench"


class Tracer:
    """Records spans for the entries in ENTRIES while installed.

    Span 0..k are numbered in call order, so a parent always has a smaller
    id than its children. Entry index len(ENTRIES) is the root span that
    the benchmark opens around one traced iteration.
    """

    def __init__(self, entries: list[Entry] = ENTRIES, clock: Callable[[], float] = perf_counter):
        self.entries = list(entries)
        self.clock = clock
        self.parent = array("q")
        self.entry = array("H")
        self.start = array("d")
        self.end = array("d")
        self.classes = 0  # graphs returned by enumerate_graphs
        self.block_graphs: set = set()  # distinct graphs passed to blocks()
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _open(self, entry: int) -> int:
        sid = len(self.entry)
        self.parent.append(self._stack[-1])
        self.entry.append(entry)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start[sid] = self.clock()
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self):
        """The root span of one traced iteration."""
        sid = self._open(len(self.entries))
        try:
            yield
        finally:
            self._close(sid)

    def _wrap(self, fn, index: int):
        entry = self.entries[index]
        open_, close = self._open, self._close
        if entry.attr == "enumerate_graphs":

            def on_result(args, result):
                self.classes += len(result)

        elif entry.attr == "blocks":

            def on_result(args, result):
                self.block_graphs.add(args[0])

        else:
            on_result = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = open_(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(sid)
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    # -- installing ------------------------------------------------------------

    def install(self, package: str = "ccmax") -> None:
        """Wrap every entry, in every loaded module of the package that binds
        it. Raises TraceError if an entry's name does not exist."""
        modules = [m for k, m in sorted(sys.modules.items()) if k == package or k.startswith(package + ".")]
        try:
            for index, entry in enumerate(self.entries):
                module = importlib.import_module(f"{package}.{entry.module}")
                owner_name, _, attr = entry.attr.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = getattr(owner, attr, None)
                if original is None:
                    raise TraceError(f"traced name {package}.{entry.module}.{entry.attr} is missing")
                wrapper = self._wrap(original, index)
                if owner_name:
                    self._patch(owner, attr, original, wrapper)
                    continue
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, name, original, wrapper)
        except BaseException:
            self.restore()
            raise

    def _patch(self, owner, name, original, wrapper) -> None:
        setattr(owner, name, wrapper)
        self._patches.append((owner, name, original))

    def restore(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- output ----------------------------------------------------------------

    def span_name(self, entry: int) -> str:
        if entry == len(self.entries):
            return ROOT_NAME
        e = self.entries[entry]
        return f"{e.module}.{e.attr}"

    def write(self, path) -> None:
        """Write all spans as tab-separated lines: id, parent, name, start
        and end in seconds from the first span's start."""
        t0 = self.start[0] if self.start else 0.0
        names = [self.span_name(i) for i in range(len(self.entries) + 1)]
        with open(path, "w", encoding="utf-8") as f:
            f.write("id\tparent\tname\tstart_s\tend_s\n")
            for sid in range(len(self.entry)):
                f.write(
                    f"{sid}\t{self.parent[sid]}\t{names[self.entry[sid]]}\t"
                    f"{self.start[sid] - t0:.9f}\t{self.end[sid] - t0:.9f}\n"
                )


@dataclass
class Summary:
    """Calls per entry, and calls, time and self time per group.

    group_s counts only outermost spans of a group (no ancestor in the same
    group), so nested calls such as is_in_b -> is_in_b0 -> blocks are not
    counted twice. group_self_s sums self time by group, with the root's
    self time (the benchmark's own code) under ROOT_NAME; its values add up
    to root_s, the duration of the root spans.
    """

    calls: dict[str, int]
    group_calls: dict[str, int]
    group_s: dict[str, float]
    group_self_s: dict[str, float]
    root_s: float


def summarise(
    entries: list[Entry],
    parent: "array | list[int]",
    entry: "array | list[int]",
    start: "array | list[float]",
    end: "array | list[float]",
) -> Summary:
    """Aggregate spans recorded as parallel arrays (see Tracer)."""
    n = len(entry)
    root = len(entries)
    groups = sorted({e.group for e in entries})
    group_of = [groups.index(e.group) for e in entries] + [len(groups)]
    dur = [end[i] - start[i] for i in range(n)]
    child = [0.0] * n
    anc = [0] * n  # bitmask of groups on the ancestor chain
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += dur[i]
            anc[i] = anc[p] | (1 << group_of[entry[p]])
    names = [f"{e.module}.{e.attr}" for e in entries] + [ROOT_NAME]
    calls = dict.fromkeys(names, 0)
    group_calls = dict.fromkeys(groups, 0)
    group_s = dict.fromkeys(groups, 0.0)
    group_self_s = dict.fromkeys(groups + [ROOT_NAME], 0.0)
    root_s = 0.0
    for i in range(n):
        k = entry[i]
        calls[names[k]] += 1
        if k == root:
            group_self_s[ROOT_NAME] += dur[i] - child[i]
            if parent[i] < 0:
                root_s += dur[i]
            continue
        g = groups[group_of[k]]
        group_calls[g] += 1
        group_self_s[g] += dur[i] - child[i]
        if not anc[i] >> group_of[k] & 1:
            group_s[g] += dur[i]
    return Summary(calls, group_calls, group_s, group_self_s, root_s)
