"""The workloads: inputs from a seed, timed runs, correctness, layers.

A batch workload resolves a fixed list of generated instances (cover build
plus scheme per instance), round and round until the run's time is up; the
stream workload replays a list of generated delta streams the same way, each
replay through its own in-process :class:`~repro.serving.MatchService`, with
an open-loop reader beside the writer.  End-to-end figures come from untraced
runs only; a traced run adds one pass over the first quarter of the list
under :func:`perfbench.layers.traced` and derives the per-layer figures from
its spans.
"""

from __future__ import annotations

import gc
import random
import resource
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Dict, List

from repro import MLNMatcher
from repro.blocking import CanopyBlocker
from repro.core import EMFramework
from repro.datamodel import MatchSet
from repro.datasets import dblp_like, hepth_like
from repro.evaluation import precision_recall_f1
from repro.exceptions import ServiceError
from repro.obs import registry as obs_registry
from repro.obs.report import format_report, load_trace, summarize
from repro.serving import MatchService, ServiceConfig
from repro.streaming import StreamSession, synthesize_stream
from repro.streaming.deltas import AddEntity, RemoveEntity

from . import layers
from .measure import (bounded_percentile, combined_digest, cycle,
                      layer_coverage, match_digest, pooled_rate, tail)

PRESETS = {"dblp": dblp_like, "hepth": hepth_like}

#: Kernel work counters of the ``repro.obs`` registry, reported as counts.
KERNEL_COUNTERS = ("pairs_scored", "batches", "prefilter_checked",
                   "prefilter_pruned")

#: Root span of one instance's pipeline (batch) or one stream replay.
PIPELINE_SPAN = "pipeline"

#: Input builds timed per batch run; ``setup_s`` takes their median.
SETUP_REPS = 5

#: The traced pass runs the first ``1 / TRACED_SHARE`` of the instances.
TRACED_SHARE = 4

#: How the grid parity check runs: ``repro match --executor processes
#: --workers 2`` on the compact store.
GRID_EXECUTOR = "processes"
GRID_WORKERS = 2
GRID_BACKEND = "compact"


@dataclass(frozen=True)
class Workload:
    """One workload's inputs; ``BENCHMARK.json`` records why each exists."""

    name: str
    preset: str
    scale: float
    #: Generated instances (or streams) per run, each from its own seed.
    instances: int
    scheme: str = "smp"
    backend: str = "dict"
    #: Leading instances re-run, untimed, on the process-pool grid; their
    #: match sets must equal the sequential ones.
    grid_check: int = 0
    #: Stream workloads only.
    batches: int = 0
    holdout: float = 0.0
    read_rate: float = 0.0

    @property
    def streaming(self) -> bool:
        return self.batches > 0

    @property
    def traced_instances(self) -> int:
        return max(1, self.instances // TRACED_SHARE)

    def inputs(self, seed: int) -> Dict[str, object]:
        described = {"preset": self.preset, "scale": self.scale,
                     "instances": self.instances, "seed": seed,
                     "scheme": self.scheme, "backend": self.backend}
        if self.grid_check:
            described.update(grid_check=self.grid_check,
                             grid_executor=GRID_EXECUTOR,
                             grid_workers=GRID_WORKERS,
                             grid_backend=GRID_BACKEND)
        if self.streaming:
            described.update(batches=self.batches, holdout=self.holdout,
                             read_rate=self.read_rate)
        return described


# Many small instances per run rather than one large one: the work of a single
# instance varies widely with its generator seed, so only a long list of them
# keeps a run's work, and its figures, steady from seed to seed.
WORKLOADS = {workload.name: workload for workload in (
    Workload("batch-smp", preset="dblp", scale=0.125, instances=112,
             grid_check=4),
    Workload("hepth-mmp", preset="hepth", scale=0.125, instances=44,
             scheme="mmp", backend="compact"),
    Workload("stream-serve", preset="dblp", scale=0.125, instances=28,
             batches=10, holdout=0.2, read_rate=20.0),
)}


def instance_seed(seed: int, index: int) -> int:
    return seed * 100 + index


def generate(workload: Workload, seed: int, index: int):
    return PRESETS[workload.preset](scale=workload.scale,
                                    seed=instance_seed(seed, index))


def pair_tuples(pairs):
    return ((pair.first, pair.second) for pair in pairs)


def closed_f1_counts(matches, truth) -> tuple:
    closed = MatchSet(matches).transitive_closure()
    scores = precision_recall_f1(closed.pairs, truth)
    return (scores.true_positives, scores.false_positives,
            scores.false_negatives)


def pooled_f1(counts: List[tuple]) -> float:
    tp = sum(c[0] for c in counts)
    fp = sum(c[1] for c in counts)
    fn = sum(c[2] for c in counts)
    return 2.0 * tp / max(1, 2 * tp + fp + fn)


def peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    """Lifetime peak RSS of this process (or of its largest waited child)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


class PeakRss:
    """Peak resident set size of this process over a ``with`` block.

    Resets the kernel's high-water mark on entry (``clear_refs`` 5) and reads
    ``VmHWM`` on exit, so no sampling thread competes with the measured
    work.  Falls back to the process-lifetime peak where that is missing.
    """

    CLEAR_REFS = Path("/proc/self/clear_refs")
    STATUS = Path("/proc/self/status")

    def __init__(self):
        self.peak_mb = 0.0
        self._reset = False

    def __enter__(self) -> "PeakRss":
        try:
            self.CLEAR_REFS.write_text("5")
            self._reset = True
        except OSError:
            self._reset = False
        return self

    def __exit__(self, *exc_info) -> None:
        if not self._reset:
            self.peak_mb = peak_rss_mb()
            return
        for line in self.STATUS.read_text().splitlines():
            if line.startswith("VmHWM:"):
                self.peak_mb = int(line.split()[1]) / 1024.0


def kernel_totals() -> Dict[str, float]:
    registry = obs_registry.registry()
    totals = {}
    for name in KERNEL_COUNTERS:
        metric = registry.get(f"kernel_{name}_total")
        totals[name] = float(metric.value()) if metric is not None else 0.0
    return totals


@dataclass
class Outcome:
    """What one run measured; ``metrics`` maps name -> (value, unit)."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    metrics: Dict[str, tuple] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def fail(self, problem: str, count: int = 1) -> None:
        self.failed += count
        self.problems.append(problem)


def _check_repeats(runs: List[list], outcome: Outcome) -> None:
    """Every repeat of an instance must reproduce its first digest."""
    for index, reps in enumerate(runs):
        for number, rep in enumerate(reps[1:], start=2):
            if rep["digest"] != reps[0]["digest"]:
                outcome.fail(f"instance {index}: run {number} digest "
                             f"{rep['digest']} != first {reps[0]['digest']}")


# --------------------------------------------------------------------- batch
def _span(recorder, name: str):
    """``recorder.span(name)``, or a no-op yielding a scratch dict."""
    return nullcontext({}) if recorder is None else recorder.span(name)


def _resolve(workload: Workload, dataset, recorder=None, grid=False):
    """Cover build plus scheme on one instance; returns (result, framework).

    ``grid`` runs the scheme on the process-pool grid instead.
    """
    framework = EMFramework(MLNMatcher(), dataset.store,
                            blocker=CanopyBlocker(),
                            relation_names=["coauthor"],
                            store_backend=GRID_BACKEND if grid
                            else workload.backend)
    with _span(recorder, "core.scheme") as attrs:
        if grid:
            result = framework.run_grid(workload.scheme,
                                        executor=GRID_EXECUTOR,
                                        workers=GRID_WORKERS)
        else:
            result = framework.run(workload.scheme)
        attrs["neighborhood_runs"] = result.neighborhood_runs
        extra = getattr(result, "extra", {})
        attrs["activations"] = int(extra.get("total_activations",
                                             result.neighborhood_runs))
    return result, framework


def _resolve_instance(workload: Workload, seed: int, index: int,
                      recorder=None) -> dict:
    """Build one instance and resolve it; only cover build plus scheme is
    timed.  The instance is dropped afterwards, so the heap holds one
    instance at a time, as in a ``repro match`` process."""
    with _span(recorder, "datasets.generate"):
        dataset = generate(workload, seed, index)
    gc.collect()
    with PeakRss() as rss:
        started = time.perf_counter()
        with _span(recorder, PIPELINE_SPAN):
            result, framework = _resolve(workload, dataset, recorder)
        seconds = time.perf_counter() - started
    stats = framework.matcher.cache_stats()["mln_network"]
    return {"seconds": seconds, "refs": len(dataset.store.entity_ids()),
            "peak_mb": rss.peak_mb,
            "digest": match_digest(pair_tuples(result.matches)),
            "counts": closed_f1_counts(result.matches,
                                       dataset.true_matches()),
            "hits": stats["hits"],
            "lookups": stats["hits"] + stats["misses"]}


def run_batch(workload: Workload, seed: int, seconds: float, trace: bool,
              import_s: float, out_dir: Path) -> Outcome:
    """``import_s`` is the median interpreter-plus-import start-up time."""
    outcome = Outcome()
    builds = []
    for _ in range(SETUP_REPS):
        started = time.perf_counter()
        for index in range(workload.instances):
            generate(workload, seed, index)
        builds.append(time.perf_counter() - started)

    began = time.perf_counter()
    runs = cycle(workload.instances, seconds,
                 lambda index: _resolve_instance(workload, seed, index))
    wall = time.perf_counter() - began
    firsts = [reps[0] for reps in runs]
    outcome.attempted = sum(len(reps) for reps in runs)
    checked = runs
    if all(len(reps) == 1 for reps in runs):
        # Nothing ran twice: repeat the first instance, untimed.
        outcome.attempted += 1
        checked = [runs[0] + [_resolve_instance(workload, seed, 0)]]
    _check_repeats(checked, outcome)
    for index in range(workload.grid_check):
        outcome.attempted += 1
        result, _ = _resolve(workload, generate(workload, seed, index),
                             grid=True)
        got = match_digest(pair_tuples(result.matches))
        if got != firsts[index]["digest"]:
            outcome.fail(f"instance {index}: grid digest {got} != "
                         f"sequential {firsts[index]['digest']}")
    times = [[rep["seconds"] for rep in reps] for reps in runs]
    refs = [first["refs"] for first in firsts]
    outcome.metrics.update(
        setup_s=(import_s + median(builds), "s"),
        refs_per_s=(pooled_rate(refs, times), "1/s"),
        peak_rss_mb=(median([first["peak_mb"] for first in firsts]), "MB"),
        f1=(pooled_f1([first["counts"] for first in firsts]), "ratio"),
    )
    outcome.notes.append(
        f"{outcome.attempted} resolutions of {len(runs)} instances "
        f"({sum(refs)} references) in {wall:.1f}s; summed per-instance "
        f"median wall {sum(median(t) for t in times):.2f}s; digest "
        f"{combined_digest(first['digest'] for first in firsts)}")
    if workload.grid_check:
        outcome.notes.append(
            f"grid parity on {workload.grid_check} instances "
            f"({GRID_EXECUTOR}, {GRID_WORKERS} workers, {GRID_BACKEND}); "
            f"largest worker peak RSS "
            f"{peak_rss_mb(resource.RUSAGE_CHILDREN):.1f} MB")
    if trace:
        _trace_batch(workload, seed, firsts, times, outcome, out_dir)
    return outcome


def _trace_batch(workload, seed, firsts, times, outcome, out_dir) -> None:
    indices = range(workload.traced_instances)
    recorder = layers.Recorder()
    kernels_before = kernel_totals()
    with layers.traced(recorder) as installed:
        traced = [_resolve_instance(workload, seed, index, recorder)
                  for index in indices]
    kernels_after = kernel_totals()
    _check_restored(installed, outcome)
    for index, item in zip(indices, traced):
        if item["digest"] != firsts[index]["digest"]:
            outcome.fail(f"instance {index}: traced digest {item['digest']} "
                         f"!= untraced {firsts[index]['digest']}")
    lookups = sum(item["lookups"] for item in traced)
    context = {
        "untraced_wall": sum(median(times[index]) for index in indices),
        "traced_wall": sum(item["seconds"] for item in traced),
        "cache_hit_ratio": sum(item["hits"] for item in traced) / lookups
        if lookups else 0.0,
        "kernels": {name: kernels_after[name] - kernels_before[name]
                    for name in KERNEL_COUNTERS},
    }
    _layer_outcome(workload, seed, recorder, context, outcome, out_dir)


# -------------------------------------------------------------------- stream
@dataclass
class StreamInput:
    dataset: object
    scenario: object
    service: MatchService
    stable_ids: List[str]
    setup_s: float


def _service(scenario) -> MatchService:
    session = StreamSession(MLNMatcher(), scenario.base.store,
                            blocker=CanopyBlocker(),
                            relation_names=["coauthor"])
    return MatchService(session=session, config=ServiceConfig()).start()


def _stream_input(workload: Workload, seed: int, index: int,
                  recorder=None) -> StreamInput:
    started = time.perf_counter()
    with _span(recorder, "datasets.generate"):
        dataset = generate(workload, seed, index)
    scenario = synthesize_stream(dataset, batches=workload.batches,
                                 holdout_fraction=workload.holdout,
                                 seed=instance_seed(seed, index))
    service = _service(scenario)
    setup = time.perf_counter() - started
    removed = {op.entity_id for batch in scenario.log for op in batch
               if isinstance(op, RemoveEntity)}
    stable = sorted(set(scenario.base.store.entity_ids()) - removed)
    return StreamInput(dataset, scenario, service, stable, setup)


def _replay(workload: Workload, item: StreamInput, seed: int,
            outcome: Outcome) -> dict:
    """Commit every batch (closed loop) while reading at a fixed rate."""
    service = item.service
    rng = random.Random(seed)
    done = threading.Event()
    reads: List[float] = []
    lateness: List[float] = []
    refused = []

    def reader():
        interval = 1.0 / workload.read_rate
        due = time.perf_counter()
        while not done.is_set():
            now = time.perf_counter()
            if now < due:
                done.wait(due - now)
                continue
            sent = time.perf_counter()
            try:
                service.resolve(rng.choice(item.stable_ids))
            except ServiceError as error:
                refused.append(repr(error))
            reads.append(time.perf_counter() - due)
            lateness.append(sent - due)
            due += interval

    applies: List[float] = []
    ops = refs = 0
    gc.collect()
    thread = threading.Thread(target=reader, name="perfbench-reader")
    with PeakRss() as rss:
        started = time.perf_counter()
        thread.start()
        try:
            for batch in item.scenario.log:
                committed = time.perf_counter()
                try:
                    service.apply_deltas(batch, timeout=120.0)
                except Exception as error:  # a failed commit is a failed op
                    outcome.fail(f"commit failed: {error!r}")
                applies.append(time.perf_counter() - committed)
                ops += len(batch)
                refs += sum(1 for op in batch if isinstance(op, AddEntity))
            wall = time.perf_counter() - started
        finally:
            done.set()
            thread.join()
    for problem in refused:
        outcome.fail(f"read refused: {problem}")
    matches = service.current_epoch().matches
    return {"wall": wall, "applies": applies, "reads": reads,
            "lateness": lateness, "ops": ops, "refs": refs,
            "refused": len(refused), "matches": matches,
            "peak_mb": rss.peak_mb,
            "digest": match_digest(pair_tuples(matches))}


def _stream_once(workload: Workload, seed: int, index: int,
                 outcome: Outcome, verify: bool, recorder=None) -> dict:
    """Set up stream ``index``'s service, replay the stream, drain it.

    ``verify`` also checks the final standing set against a cold SMP run on
    the final instance and counts F1, both outside the timed replay.
    """
    item = _stream_input(workload, seed, index, recorder)
    try:
        with _span(recorder, PIPELINE_SPAN):
            replay = _replay(workload, item, instance_seed(seed, index),
                             outcome)
    finally:
        item.service.drain(checkpoint=False)
    replay["setup_s"] = item.setup_s
    if verify:
        cold = item.service.session.cold_matches()
        if cold != replay["matches"]:
            outcome.fail(f"stream {index}: final standing set "
                         f"{replay['digest']} != cold SMP run "
                         f"{match_digest(pair_tuples(cold))}")
        replay["counts"] = closed_f1_counts(replay["matches"],
                                            item.dataset.true_matches())
    return replay


def run_stream(workload: Workload, seed: int, seconds: float, trace: bool,
               import_s: float, out_dir: Path) -> Outcome:
    outcome = Outcome()
    verified = set()

    def run_one(index: int) -> dict:
        replay = _stream_once(workload, seed, index, outcome,
                              verify=index not in verified)
        verified.add(index)
        return replay

    runs = cycle(workload.instances, seconds, run_one)
    _check_repeats(runs, outcome)
    firsts = [reps[0] for reps in runs]
    replays = [replay for reps in runs for replay in reps]
    outcome.attempted += sum(len(r["applies"]) + len(r["reads"])
                             for r in replays)
    walls = [[replay["wall"] for replay in reps] for reps in runs]
    applies = [s for r in replays for s in r["applies"]]
    reads = [s * 1000.0 for r in replays for s in r["reads"]]
    outcome.metrics.update(
        setup_s=(import_s + median(r["setup_s"] for r in firsts), "s"),
        refs_per_s=(pooled_rate([r["refs"] for r in firsts], walls), "1/s"),
        peak_rss_mb=(median([r["peak_mb"] for r in firsts]), "MB"),
        f1=(pooled_f1([r["counts"] for r in firsts]), "ratio"),
    )
    apply_tail = tail(applies)
    read_tail = bounded_percentile(reads, 99.0)
    stream_figures = {
        "ingest_ops_per_s": (pooled_rate([r["ops"] for r in firsts], walls),
                             "1/s"),
        "apply_p50_s": (median(applies), "s"),
        "apply_tail_s": (apply_tail.value if apply_tail else max(applies), "s"),
        "read_p50_ms": (median(reads), "ms"),
        "read_p99_ms": (read_tail.value if read_tail else max(reads), "ms"),
    }
    outcome.notes.append(
        f"{len(replays)} replays of {len(runs)} streams, {len(applies)} "
        f"commits, {len(reads)} reads at {workload.read_rate:g}/s; "
        + ", ".join(f"{name} {value:.4g} {unit}"
                    for name, (value, unit) in stream_figures.items()))
    if apply_tail:
        outcome.notes.append(f"apply tail = p{apply_tail.percentile:.1f} of "
                             f"{apply_tail.samples} commits")
    if read_tail:
        outcome.notes.append(f"read tail = p{read_tail.percentile:.1f} of "
                             f"{read_tail.samples} reads")
    outcome.notes.append("summed per-stream median replay wall "
                         f"{sum(median(w) for w in walls):.2f}s; final "
                         "digest " + combined_digest(r["digest"]
                                                     for r in firsts))
    if trace:
        _trace_stream(workload, seed, firsts, walls, stream_figures, outcome,
                      out_dir)
    return outcome


def _trace_stream(workload, seed, firsts, walls, stream_figures, outcome,
                  out_dir) -> None:
    indices = range(workload.traced_instances)
    recorder = layers.Recorder()
    kernels_before = kernel_totals()
    with layers.traced(recorder) as installed:
        traced = [_stream_once(workload, seed, index, outcome, verify=False,
                               recorder=recorder) for index in indices]
    kernels_after = kernel_totals()
    _check_restored(installed, outcome)
    for index, replay in zip(indices, traced):
        if replay["digest"] != firsts[index]["digest"]:
            outcome.fail(f"stream {index}: traced digest {replay['digest']} "
                         f"!= untraced {firsts[index]['digest']}")
    lateness = [late for replay in traced for late in replay["lateness"]]
    context = {
        "untraced_wall": sum(median(walls[index]) for index in indices),
        "traced_wall": sum(replay["wall"] for replay in traced),
        "cache_hit_ratio": 0.0,
        "kernels": {name: kernels_after[name] - kernels_before[name]
                    for name in KERNEL_COUNTERS},
        "reader_late_ms": 1000.0 * sum(lateness) / max(1, len(lateness)),
        "reads_refused": sum(replay["refused"] for replay in traced),
        "stream": stream_figures,
    }
    _layer_outcome(workload, seed, recorder, context, outcome, out_dir)


# -------------------------------------------------------------------- layers
def _check_restored(installed, outcome: Outcome) -> None:
    left = layers.unrestored(installed)
    if left:
        outcome.fail("wrappers not restored: " + ", ".join(left), len(left))


def _spans_named(records, name):
    return [r for r in records if r["name"] == name]


def _outer_total(records, name) -> float:
    """Summed duration of ``name`` spans not nested in another ``name``."""
    by_id = {r["id"]: r for r in records}
    total = 0.0
    for record in _spans_named(records, name):
        parent = by_id.get(record["parent"])
        while parent is not None and parent["name"] != name:
            parent = by_id.get(parent["parent"])
        if parent is None:
            total += record["dur"]
    return total


def _inside_total(records, name, ancestor) -> float:
    """Summed duration of ``name`` spans that run under an ``ancestor``."""
    by_id = {r["id"]: r for r in records}
    total = 0.0
    for record in _spans_named(records, name):
        parent = by_id.get(record["parent"])
        while parent is not None and parent["name"] != ancestor:
            parent = by_id.get(parent["parent"])
        if parent is not None:
            total += record["dur"]
    return total


def _attr_sum(records, name, key) -> float:
    return float(sum(r["attrs"].get(key, 0) for r in _spans_named(records, name)))


def layer_metrics(records, summary, context) -> Dict[str, tuple]:
    """Every per-layer figure of one traced run, as ``name -> (value, unit)``."""
    def count(name):
        return float(len(_spans_named(records, name)))

    def total(name):
        return _outer_total(records, name)

    map_s = total("parallel.map_tasks")
    grid_s = total("parallel.grid_run")
    busy = _attr_sum(records, "parallel.grid_run", "busy_s")
    coverage, unattributed = layer_coverage(summary, PIPELINE_SPAN)
    stream = context.get("stream", {})
    batches = _spans_named(records, "streaming.apply")
    metrics = {
        "datasets.generate_s": (total("datasets.generate"), "s"),
        "blocking.cover_s": (total("blocking.cover"), "s"),
        "blocking.neighborhoods": (_attr_sum(records, "blocking.cover",
                                             "neighborhoods"), "count"),
        "blocking.cover_pairs": (_attr_sum(records, "blocking.cover", "pairs"),
                                 "count"),
        "datamodel.restrict_s": (total("datamodel.restrict"), "s"),
        "datamodel.restrict_calls": (count("datamodel.restrict"), "count"),
        "mln.database_s": (total("mln.database"), "s"),
        "mln.ground_s": (total("mln.ground"), "s"),
        "mln.ground_calls": (count("mln.ground"), "count"),
        "mln.groundings": (_attr_sum(records, "mln.ground", "groundings"),
                           "count"),
        "mln.infer_s": (total("mln.infer"), "s"),
        "mln.infer_calls": (count("mln.infer"), "count"),
        "matchers.match_calls": (count("matchers.match"), "count"),
        "matchers.network_cache_hit_ratio": (context["cache_hit_ratio"],
                                             "ratio"),
        "matchers.score_delta_s": (total("matchers.score_delta"), "s"),
        "matchers.score_delta_calls": (count("matchers.score_delta"), "count"),
        "core.scheme_s": (total("core.scheme"), "s"),
        "core.neighborhood_runs": (_attr_sum(records, "core.scheme",
                                             "neighborhood_runs"), "count"),
        "core.activations": (_attr_sum(records, "core.scheme", "activations"),
                             "count"),
        "core.messages_s": (total("core.messages"), "s"),
        "core.messages": (_attr_sum(records, "core.messages", "messages"),
                          "count"),
        "parallel.rounds": (_attr_sum(records, "parallel.grid_run", "rounds"),
                            "count"),
        "parallel.tasks": (_attr_sum(records, "parallel.map_tasks", "tasks"),
                           "count"),
        "parallel.map_s": (map_s, "s"),
        "parallel.parent_s": (max(0.0, grid_s - map_s), "s"),
        "parallel.worker_busy_s": (busy, "s"),
        "parallel.worker_utilization": (
            busy / map_s if map_s > 0 else 0.0, "ratio"),
        "streaming.apply_s": (total("streaming.apply"), "s"),
        "streaming.cover_update_s": (total("streaming.cover_update"), "s"),
        "streaming.rematch_s": (_inside_total(records, "parallel.grid_run",
                                              "streaming.apply"), "s"),
        "streaming.reran_fraction": (
            sum(r["attrs"]["reran_fraction"] for r in batches)
            / len(batches) if batches else 0.0, "ratio"),
        "streaming.ingest_ops_per_s": stream.get("ingest_ops_per_s",
                                                 (0.0, "1/s")),
        "streaming.apply_p50_s": stream.get("apply_p50_s", (0.0, "s")),
        "streaming.apply_tail_s": stream.get("apply_tail_s", (0.0, "s")),
        "serving.read_s": (total("serving.read"), "s"),
        "serving.read_calls": (count("serving.read"), "count"),
        "serving.commit_wait_s": (
            max(0.0, total("serving.apply_deltas")
                - _inside_total(records, "streaming.apply",
                                "serving.apply_deltas")), "s"),
        "serving.reader_late_ms": (context.get("reader_late_ms", 0.0), "ms"),
        "serving.reads_refused": (float(context.get("reads_refused", 0)),
                                  "count"),
        "serving.read_p50_ms": stream.get("read_p50_ms", (0.0, "ms")),
        "serving.read_p99_ms": stream.get("read_p99_ms", (0.0, "ms")),
        "obs.trace_overhead": (
            context["traced_wall"] / context["untraced_wall"] - 1.0, "ratio"),
        "obs.unattributed_s": (unattributed, "s"),
        "obs.coverage": (coverage, "ratio"),
    }
    for name in KERNEL_COUNTERS:
        metrics[f"kernels.{name}"] = (context["kernels"][name], "count")
    return metrics


def _layer_outcome(workload, seed, recorder, context, outcome, out_dir) -> None:
    path = recorder.write_jsonl(
        out_dir / f"trace-{workload.name}-seed{seed}.jsonl")
    spans = load_trace(path)
    summary = summarize(spans)
    if summary["errors"]:
        outcome.fail("malformed trace: " + "; ".join(summary["errors"][:3]))
    outcome.metrics = layer_metrics(spans, summary, context)
    coverage = outcome.metrics["obs.coverage"][0]
    unattributed = outcome.metrics["obs.unattributed_s"][0]
    pipeline = summary["phases"].get(PIPELINE_SPAN, {}).get("total_s", 0.0)
    outcome.notes.append(
        f"coverage: {100.0 * coverage:.1f}% of {pipeline:.2f}s pipeline wall "
        f"inside named layer spans; unattributed {unattributed:.3f}s")
    outcome.notes.append(f"trace written to {path}")
    outcome.notes.append(format_report(summary, top=12))

