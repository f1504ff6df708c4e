"""Layer spans recorded from outside the program.

:func:`traced` patches the public entry point of each ``repro`` layer where
the calling code looks it up (a class attribute for methods, the importing
module's global for functions), records one span per call into an in-memory
:class:`Recorder`, and restores every original on exit.  The records have the
shape :func:`repro.obs.report.load_trace` reads (``id``, ``parent``,
``name``, ``start``, ``dur``, plus ``attrs``), so self-time and percentiles
come from :func:`repro.obs.report.summarize`.

Spans nest per thread.  Work done inside pool worker processes is invisible
here: forked workers inherit the wrappers but their records stay in the
worker.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional

AttrsOf = Callable[[tuple, dict, Any], Dict[str, Any]]


class Recorder:
    """Spans kept in memory; one parent/child stack per thread.

    A span opened with ``hand_off=True`` lends its id to work another thread
    does on its behalf: the next span opened with ``adopt=True`` on a thread
    with no open span becomes its child (the service's commit thread applying
    a batch the writer is waiting on).
    """

    def __init__(self):
        self.records: List[Dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._epoch = time.perf_counter()
        self._handoff = 0

    @contextmanager
    def span(self, name: str, hand_off: bool = False, adopt: bool = False,
             **attrs: Any) -> Iterator[Dict[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else (self._handoff if adopt else 0)
        record = {"id": next(self._ids), "parent": parent,
                  "name": name, "start": 0.0, "dur": 0.0, "attrs": attrs}
        stack.append(record["id"])
        if hand_off:
            self._handoff = record["id"]
        started = time.perf_counter()
        try:
            yield record["attrs"]
        finally:
            ended = time.perf_counter()
            if hand_off:
                self._handoff = 0
            stack.pop()
            record["start"] = started - self._epoch
            record["dur"] = ended - started
            self.records.append(record)

    def write_jsonl(self, path: Path) -> Path:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for record in sorted(self.records, key=lambda r: r["id"]):
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        return path


class Target(NamedTuple):
    """One entry point: ``module[.owner].attribute`` recorded as ``span``."""

    module: str
    owner: Optional[str]
    attribute: str
    span: str
    attrs_of: Optional[AttrsOf] = None
    #: ``"hand_off"`` or ``"adopt"``: see :class:`Recorder`.
    link: Optional[str] = None


def _count_result(key: str) -> AttrsOf:
    return lambda args, kwargs, result: {key: len(result)}


def _cover_attrs(args, kwargs, cover) -> Dict[str, Any]:
    return {"neighborhoods": len(cover), "pairs": cover.total_pairs()}


def _map_attrs(args, kwargs, result) -> Dict[str, Any]:
    return {"tasks": len(result)}


def _grid_attrs(args, kwargs, result) -> Dict[str, Any]:
    return {"rounds": result.round_count,
            "busy_s": result.total_compute_seconds()}


def _batch_attrs(args, kwargs, result) -> Dict[str, Any]:
    return {"ops": result.ops, "reran_fraction": result.reran_fraction}


#: Every layer entry point the traced run wraps, grouped by package.
TARGETS = (
    Target("repro.core.framework", None, "build_total_cover", "blocking.cover",
           _cover_attrs),
    Target("repro.datamodel.store", "EntityStore", "restrict",
           "datamodel.restrict"),
    Target("repro.datamodel.compact", "CompactStore", "restrict",
           "datamodel.restrict"),
    Target("repro.datamodel.compact", "StoreView", "restrict",
           "datamodel.restrict"),
    Target("repro.streaming.overlay", "StoreOverlay", "restrict",
           "datamodel.restrict"),
    Target("repro.mln.model", "MarkovLogicNetwork", "build_database",
           "mln.database"),
    Target("repro.mln.grounding", "Grounder", "ground", "mln.ground",
           _count_result("groundings")),
    Target("repro.mln.inference", "GreedyCollectiveInference", "infer",
           "mln.infer"),
    Target("repro.matchers.mln_matcher", "MLNMatcher", "match",
           "matchers.match"),
    Target("repro.matchers.mln_matcher", "MLNMatcher", "score_delta",
           "matchers.score_delta"),
    Target("repro.core.mmp", None, "compute_maximal_messages", "core.messages",
           _count_result("messages")),
    Target("repro.parallel.executor", "SerialExecutor", "map_tasks",
           "parallel.map_tasks", _map_attrs),
    Target("repro.parallel.executor", "_PoolExecutor", "map_tasks",
           "parallel.map_tasks", _map_attrs),
    Target("repro.parallel.grid", "GridExecutor", "run", "parallel.grid_run",
           _grid_attrs),
    Target("repro.streaming.maintainer", "IncrementalCoverMaintainer", "update",
           "streaming.cover_update"),
    Target("repro.streaming.runner", "StreamSession", "apply",
           "streaming.apply", _batch_attrs, link="adopt"),
    Target("repro.serving.service", "MatchService", "read", "serving.read"),
    Target("repro.serving.service", "MatchService", "apply_deltas",
           "serving.apply_deltas", link="hand_off"),
)


def _namespace(target: Target):
    module = importlib.import_module(target.module)
    return module if target.owner is None else getattr(module, target.owner)


def _own(namespace, attribute: str):
    """The attribute as defined on ``namespace`` itself (not inherited)."""
    return vars(namespace)[attribute]


def _wrap(recorder: Recorder, function: Callable, target: Target) -> Callable:
    @functools.wraps(function)
    def recorded(*args, **kwargs):
        link = {target.link: True} if target.link else {}
        with recorder.span(target.span, **link) as attrs:
            result = function(*args, **kwargs)
            if target.attrs_of is not None:
                attrs.update(target.attrs_of(args, kwargs, result))
            return result
    return recorded


def install(recorder: Recorder, targets=TARGETS) -> List[tuple]:
    """Patch every target; returns the ``(namespace, attribute, original)``
    list :func:`restore` takes."""
    installed = []
    try:
        for target in targets:
            namespace = _namespace(target)
            original = _own(namespace, target.attribute)
            setattr(namespace, target.attribute,
                    _wrap(recorder, original, target))
            installed.append((namespace, target.attribute, original))
    except BaseException:
        restore(installed)
        raise
    return installed


def restore(installed: List[tuple]) -> None:
    for namespace, attribute, original in reversed(installed):
        setattr(namespace, attribute, original)


def unrestored(installed: List[tuple]) -> List[str]:
    """Names of patched attributes that no longer hold their original."""
    return [f"{getattr(namespace, '__name__', namespace)}.{attribute}"
            for namespace, attribute, original in installed
            if _own(namespace, attribute) is not original]


@contextmanager
def traced(recorder: Recorder, targets=TARGETS) -> Iterator[List[tuple]]:
    """Record spans at every target for the duration of the block."""
    installed = install(recorder, targets)
    try:
        yield installed
    finally:
        restore(installed)
