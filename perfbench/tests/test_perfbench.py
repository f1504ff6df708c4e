"""Tests for the benchmark's helpers (no timed runs).

Run with ``PYTHONPATH=src python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from perfbench import layers, measure  # noqa: E402
from repro.obs.report import summarize, tree_errors  # noqa: E402


# ------------------------------------------------------------- run loop, rate
class FakeClock:
    """A clock that advances one second per reading."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_cycle_runs_every_instance_at_least_once():
    order = []
    runs = measure.cycle(3, 0.0, lambda index: order.append(index) or index,
                         clock=FakeClock())
    assert order == [0, 1, 2]
    assert runs == [[0], [1], [2]]


def test_cycle_wraps_round_until_time_is_up():
    order = []
    runs = measure.cycle(3, 3.0, lambda index: order.append(index) or index,
                         clock=FakeClock())
    assert order == [0, 1, 2, 0, 1]
    assert runs == [[0, 0], [1, 1], [2]]


def test_pooled_rate_counts_each_instance_once():
    # Instance 0 ran three times (median 2 s), instance 1 once (4 s).
    assert measure.pooled_rate([10, 20], [[1.0, 2.0, 9.0], [4.0]]) == \
        pytest.approx(30 / 6.0)


# ------------------------------------------------------------ tail percentile
def test_tail_leaves_ten_samples_beyond():
    values = list(range(60))
    tail = measure.tail(values)
    assert tail.samples == 60
    assert tail.percentile == pytest.approx(100.0 * 50 / 60)
    assert tail.value == 49
    assert sum(1 for v in values if v > tail.value) == 10


def test_tail_needs_more_than_ten_samples():
    assert measure.tail(list(range(10))) is None
    tail = measure.tail(list(range(11)))
    assert tail.value == 0 and tail.percentile == pytest.approx(100.0 / 11)


def test_tail_ignores_input_order():
    values = [5.0, 1.0, 9.0, 3.0] * 5
    assert measure.tail(values) == measure.tail(sorted(values))


def test_bounded_percentile_keeps_p99_with_enough_samples():
    values = [float(v) for v in range(2000)]
    tail = measure.bounded_percentile(values, 99.0)
    assert tail.percentile == 99.0
    assert tail.value == measure.nearest_rank(values, 99.0) == 1979.0


def test_bounded_percentile_falls_back_to_tail():
    values = [float(v) for v in range(500)]
    tail = measure.bounded_percentile(values, 99.0)
    assert tail == measure.tail(values)
    assert tail.percentile == pytest.approx(98.0)


# --------------------------------------------------------------------- digest
def test_digest_is_order_independent():
    pairs = [("a", "b"), ("c", "d"), ("a", "c")]
    assert measure.match_digest(pairs) == measure.match_digest(pairs[::-1])


def test_digest_tells_sets_apart():
    assert measure.match_digest([("a", "b")]) != measure.match_digest(
        [("a", "c")])
    assert measure.match_digest([]) != measure.match_digest([("a", "b")])
    assert measure.combined_digest(["x", "y"]) != measure.combined_digest(
        ["y", "x"])


# ------------------------------------------------------------------- wrappers
class Toy:
    def work(self, count):
        return list(range(count))

    def fail(self):
        raise RuntimeError("boom")


def toy_function(value):
    return value * 2


TOY_TARGETS = (
    layers.Target(__name__, "Toy", "work", "toy.work",
                  layers._count_result("items")),
    layers.Target(__name__, "Toy", "fail", "toy.fail"),
    layers.Target(__name__, None, "toy_function", "toy.function"),
)


def test_wrappers_record_spans_and_restore():
    original_work = Toy.__dict__["work"]
    original_function = toy_function
    recorder = layers.Recorder()
    with layers.traced(recorder, TOY_TARGETS) as installed:
        assert Toy.__dict__["work"] is not original_work
        assert Toy().work(3) == [0, 1, 2]
        assert sys.modules[__name__].toy_function(4) == 8
        assert len(layers.unrestored(installed)) == len(TOY_TARGETS)
    assert Toy.__dict__["work"] is original_work
    assert sys.modules[__name__].toy_function is original_function
    assert layers.unrestored(installed) == []
    names = [record["name"] for record in recorder.records]
    assert names == ["toy.work", "toy.function"]
    assert recorder.records[0]["attrs"] == {"items": 3}


def test_wrappers_restored_after_exception():
    original = Toy.__dict__["fail"]
    recorder = layers.Recorder()
    with pytest.raises(RuntimeError):
        with layers.traced(recorder, TOY_TARGETS):
            Toy().fail()
    assert Toy.__dict__["fail"] is original
    assert [r["name"] for r in recorder.records] == ["toy.fail"]


def test_every_program_target_installs_and_restores():
    originals = [layers._own(layers._namespace(t), t.attribute)
                 for t in layers.TARGETS]
    with layers.traced(layers.Recorder()) as installed:
        assert len(installed) == len(layers.TARGETS)
    assert layers.unrestored(installed) == []
    for target, original in zip(layers.TARGETS, originals):
        assert layers._own(layers._namespace(target),
                           target.attribute) is original


def test_recorder_nests_per_thread_and_adopts_handoff():
    recorder = layers.Recorder()
    adopted = threading.Event()

    def commit_thread():
        with recorder.span("apply", adopt=True):
            pass
        adopted.set()

    with recorder.span("root"):
        with recorder.span("wait", hand_off=True):
            worker = threading.Thread(target=commit_thread)
            worker.start()
            worker.join(timeout=10)
    assert adopted.is_set()
    by_name = {r["name"]: r for r in recorder.records}
    assert by_name["root"]["parent"] == 0
    assert by_name["wait"]["parent"] == by_name["root"]["id"]
    assert by_name["apply"]["parent"] == by_name["wait"]["id"]
    assert tree_errors(recorder.records) == []


# ---------------------------------------------------- self-time, unattributed
def _span(span_id, parent, name, start, dur):
    return {"id": span_id, "parent": parent, "name": name, "start": start,
            "dur": dur}


HAND_BUILT = [
    _span(1, 0, "pipeline", 0.0, 10.0),
    _span(2, 1, "blocking.cover", 0.0, 3.0),
    _span(3, 1, "core.scheme", 3.0, 6.0),
    _span(4, 3, "mln.ground", 3.5, 4.0),
    _span(5, 0, "pipeline", 10.0, 5.0),
    _span(6, 5, "core.scheme", 10.0, 4.5),
]


def test_self_time_and_unattributed_arithmetic():
    summary = summarize(HAND_BUILT)
    phases = summary["phases"]
    assert phases["core.scheme"]["self_s"] == pytest.approx(2.0 + 4.5)
    assert phases["mln.ground"]["self_s"] == pytest.approx(4.0)
    assert phases["pipeline"]["self_s"] == pytest.approx(1.0 + 0.5)
    coverage, unattributed = measure.layer_coverage(summary, "pipeline")
    assert unattributed == pytest.approx(1.5)
    assert coverage == pytest.approx(1.0 - 1.5 / 15.0)


def test_coverage_without_root_spans_is_zero():
    assert measure.layer_coverage(summarize(HAND_BUILT[1:4]),
                                  "pipeline") == (0.0, 0.0)


def test_nested_same_name_spans_count_once():
    from perfbench.workloads import _inside_total, _outer_total
    records = [_span(1, 0, "datamodel.restrict", 0.0, 2.0),
               _span(2, 1, "datamodel.restrict", 0.5, 1.0),
               _span(3, 0, "datamodel.restrict", 3.0, 1.0)]
    assert _outer_total(records, "datamodel.restrict") == pytest.approx(3.0)
    assert _inside_total(HAND_BUILT, "mln.ground", "pipeline") == \
        pytest.approx(4.0)
    assert _inside_total(HAND_BUILT, "mln.ground", "blocking.cover") == 0.0
