"""Spans around the calls into each metaform layer, recorded from outside.

The tracer rebinds every attribute of every ``metaform.*`` module that
is one of the traced function objects.  ``cli``, ``persistence``,
``meta`` and ``planner`` import these names with ``from .x import f``,
so patching only the defining module would miss their calls.  Methods
are patched on their class.  Spans are kept in memory and written out
when the run ends.
"""
from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from collections import Counter

# (metric prefix, module, attribute or Class.method)
TARGETS = (
    ("cli.main", "cli", "main"),
    ("graph.parse_formation", "graph", "parse_formation"),
    ("graph.formation_init", "graph", "Formation.__post_init__"),
    ("rigidity.check_rigidity", "rigidity", "check_rigidity"),
    ("rigidity.laman_check_2d", "rigidity", "laman_check_2d"),
    ("rigidity.rigid_3d_check", "rigidity", "rigid_3d_check"),
    ("rigidity.three_connectivity", "rigidity", "three_connectivity"),
    ("rigidity.sparsity_violation", "rigidity", "sparsity_violation"),
    ("rigidity.generic_rank_oracle", "rigidity", "generic_rank_oracle"),
    ("rigidity.rigidity_rank_once", "rigidity", "rigidity_rank_once"),
    ("rigidity.rank_mod_p", "rigidity", "rank_mod_p"),
    ("rigidity.rigidity_matrix_rows", "rigidity", "rigidity_matrix_rows"),
    ("rigidity.minimally_rigid_spanning", "rigidity", "minimally_rigid_spanning"),
    ("rigidity.IncrementalRank.try_add", "rigidity", "IncrementalRank.try_add"),
    ("persistence.is_persistent", "persistence", "is_persistent"),
    ("persistence.terminal_subgraphs", "persistence", "terminal_subgraphs"),
    ("persistence.merged_persistence", "persistence", "merged_persistence"),
    ("meta.classify", "meta", "classify"),
    ("meta.meta_rigid", "meta", "meta_rigid"),
    ("meta.meta_count_violation", "meta", "meta_count_violation"),
    ("meta.edge_optimal_persistent", "meta", "edge_optimal_persistent"),
    ("planner.feasibility", "planner", "feasibility"),
    ("planner.plan_collection", "planner", "plan_collection"),
    ("planner.plan_pair", "planner", "plan_pair"),
    ("planner.verify_plan", "planner", "verify_plan"),
    ("planner.missing_dof", "planner", "missing_dof"),
)


def _required_rank(dim: int, n: int) -> int:
    """Rank of a rigid graph's rigidity matrix: dim*n minus rigid-body DOFs."""
    if dim == 2:
        return 2 * n - (2 if n == 1 else 3)
    return 3 * n - {1: 3, 2: 5}.get(n, 6)


# Counts noted from a call's arguments and result: name -> (counter, fn).
NOTES = {
    # Cells eliminated, computed from the matrix shape, not counted.
    "rigidity.rank_mod_p": ("cells", lambda a, r: a[0].shape[0] * a[0].shape[1]),
    "rigidity.rigidity_rank_once": (
        "full_rank_trials",
        lambda a, r: int(r == _required_rank(a[1], len(a[0].vertices))),
    ),
    "persistence.terminal_subgraphs": ("terminals", lambda a, r: len(r)),
}


class Tracer:
    """Span recorder: one span per traced call, with its parent span."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.notes: Counter = Counter()
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, metric: str, fn):
        idx = len(self.names)
        self.names.append(metric)
        note = NOTES.get(metric)
        clock = time.perf_counter
        name, parent, start, end, open_ = self.name, self.parent, self.start, self.end, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            name.append(idx)
            parent.append(open_[-1] if open_ else -1)
            end.append(0.0)
            open_.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                open_.pop()
            if note is not None:
                self.notes[note[0]] += note[1](args, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every reference to each target inside ``metaform.*``."""
        modules = [m for n, m in sys.modules.items() if n == "metaform" or n.startswith("metaform.")]
        for metric, modname, attr in TARGETS:
            owner = sys.modules[f"metaform.{modname}"]
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
                self._rebind(owner, attr, self.wrap(metric, vars(owner)[attr]))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(metric, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapper)

    def _rebind(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def spans(self):
        """(name, parent index, start, end) per span, in call order."""
        return [
            (self.names[n], p, s, e)
            for n, p, s, e in zip(self.name, self.parent, self.start, self.end)
        ]

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            for i, (n, p, s, e) in enumerate(self.spans()):
                fh.write(json.dumps({"id": i, "name": n, "parent": p, "start": s, "end": e}) + "\n")


def summarize(spans) -> tuple[Counter, Counter]:
    """Calls and self time per span name.

    Self time is a span's duration minus the time its child spans cover.
    Children of one span never overlap (one thread), so that is the sum
    of their durations.
    """
    child = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: Counter = Counter()
    self_s: Counter = Counter()
    for i, (name, _, start, end) in enumerate(spans):
        calls[name] += 1
        self_s[name] += end - start - child[i]
    return calls, self_s


def count_under(spans, name: str, ancestor: str) -> int:
    """Spans called ``name`` with a span called ``ancestor`` above them."""
    total = 0
    for _, parent, _, _ in (s for s in spans if s[0] == name):
        while parent >= 0 and spans[parent][0] != ancestor:
            parent = spans[parent][1]
        total += parent >= 0
    return total
