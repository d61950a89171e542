"""Tests of the benchmark's pure helpers.  Run: python3 -m pytest bench"""

import json
import time
from pathlib import Path

import pytest

import run
import tracer
from stats import census_diff, median, median_per_item, percentile, self_times, tail_summary

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def test_median():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
    with pytest.raises(ValueError):
        median([])


def test_percentile_is_nearest_rank_with_count_beyond():
    samples = list(range(1, 101))
    assert percentile(samples, 50.0) == (50, 50)
    assert percentile(samples, 99.0) == (99, 1)
    assert percentile(samples, 100.0) == (100, 0)
    # The violations-replay census: 7,332 replays leave 73 beyond p99.
    assert percentile(range(7332), 99.0)[1] == 73


def test_tail_summary_takes_highest_percentile_with_ten_beyond():
    assert tail_summary(range(1000))["tail_q"] == 99.0
    assert tail_summary(range(1000))["tail_beyond"] == 10
    assert tail_summary(range(10_000))["tail_q"] == 99.9
    assert tail_summary(range(999))["tail_q"] == 95.0
    small = tail_summary(range(50))
    assert small["tail_q"] is None and small["count"] == 50
    assert small["p50"] == 24


def test_median_per_item_over_runs_and_repeats():
    runs = [[[3.0, 2.0], [5.0]], [[2.5], [4.0, 6.0]]]
    assert median_per_item(runs) == [2.5, 5.0]
    assert median_per_item([]) == []


def test_self_times_subtract_child_spans_and_covered_calls():
    spans = [
        {"id": 0, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "start": 1.0, "end": 4.0, "covered": 2.0},
        {"id": 2, "parent": 0, "start": 5.0, "end": 9.0},
        {"id": 3, "parent": 2, "start": 6.0, "end": 7.0},
    ]
    assert self_times(spans) == {0: 3.0, 1: 1.0, 2: 3.0, 3: 1.0}


def test_census_diff():
    pinned = {"census": {"a/x": 3}, "sha256": "abc"}
    assert census_diff(pinned, {"census": {"a/x": 3}, "sha256": "abc"}) == []
    lines = census_diff(pinned, {"census": {"a/x": 2, "b/x": 1}})
    assert lines == [
        "census.a/x: expected 3, got 2",
        "census.b/x: unexpected 1",
        "sha256: missing, expected 'abc'",
    ]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_tracer_self_time_through_call_stack(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(time, "perf_counter", clock)
    t = tracer.Tracer()
    inner = t.wrap("inner", lambda: clock.advance(2.0))

    def outer_body():
        clock.advance(1.0)
        inner()
        clock.advance(3.0)

    outer = t.wrap("outer", outer_body)

    def produce():
        for item in "ab":
            clock.advance(0.5)
            yield item

    items = t.wrap_iter("items", produce, on_item=lambda: t.count("items"))
    with t.span("root"):
        clock.advance(5.0)
        outer()
        assert list(items()) == ["a", "b"]
    assert t.calls == {"inner": [1, 2.0], "outer": [1, 4.0], "items": [1, 1.0]}
    assert t.counts == {"items": 2}
    (root,) = t.spans
    assert root["covered"] == 7.0
    assert self_times(t.spans) == {0: 5.0}


def _pass(mode, sha, census, replay_failed=0):
    digest = {"checks_run": {"c": 1}, "skipped_undefined": {"c": 0},
              "census": census, "sha256": sha}
    return {"mode": mode, "errors": [],
            "audits": [{"name": "finset-size3-selftest", "failed": False, **digest}],
            "replay": {"attempted": 2, "failed": replay_failed, "latencies_s": [[0.1, 0.2]]}}


def test_judge_checks_pins_and_byte_identity():
    pins = {"finset-size3-selftest": {"checks_run": {"c": 1}, "skipped_undefined": {"c": 0},
                                      "census": {"a/x": 1}, "sha256": "s0"}}
    ok = _pass("plain", "s0", {"a/x": 1})
    assert run.judge("violations-replay", 0, [ok, ok], pins) == (6, 0, [])
    # Seed 0 pins the report bytes; other seeds pin the census only ...
    attempted, failed, _ = run.judge("violations-replay", 0, [_pass("plain", "s1", {"a/x": 1})], pins)
    assert (attempted, failed) == (3, 1)
    assert run.judge("violations-replay", 7, [_pass("plain", "s7", {"a/x": 1})], pins)[1] == 0
    assert run.judge("violations-replay", 7, [_pass("plain", "s7", {"a/x": 2})], pins)[1] == 1
    # ... and require the passes of one run to agree byte for byte.
    passes = [_pass("plain", "s7", {"a/x": 1}), _pass("plain", "s8", {"a/x": 1})]
    assert run.judge("violations-replay", 7, passes, pins)[1] == 1
    assert run.judge("violations-replay", 7, [_pass("plain", "s7", {"a/x": 1}, 1)], pins)[1] == 1


def test_benchmark_json_matches_the_runner():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == sorted(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
