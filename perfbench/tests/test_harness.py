"""Tests of the benchmark harness itself (no program under test needed).

    python3 -m pytest perfbench/tests -q
"""

import contextlib
import json
import re
import subprocess
import sys
import time

import pytest

import harness
import loadgen
import spec
from harness import Outcome, Timing
from tracing import Tracer, covered, self_times


# -- percentiles and the sample-count rule ----------------------------------


def test_percentile_interpolates_like_numpy():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert harness.percentile(values, 50) == 3.0
    assert harness.percentile(values, 0) == 1.0
    assert harness.percentile(values, 100) == 5.0
    assert harness.percentile(values, 90) == pytest.approx(4.6)
    assert harness.percentile([7.0], 99) == 7.0


def test_percentile_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        harness.percentile([], 50)


@pytest.mark.parametrize(
    "n, q",
    [(19, None), (20, 50.0), (99, 50.0), (100, 90.0), (199, 90.0), (200, 95.0),
     (999, 95.0), (1000, 99.0), (9999, 99.0), (10_000, 99.9), (100_000, 99.99)],
)
def test_tail_is_highest_percentile_with_ten_beyond(n, q):
    assert harness.tail_quantile(n) == q
    if q is not None:
        assert round(n * (100 - q) / 100, 6) >= harness.MIN_BEYOND


def test_timing_reports_median_tail_and_count():
    t = Timing.of(range(1, 1001))
    assert t.n == 1000
    assert t.median == pytest.approx(500.5)
    assert t.tail_q == 99.0
    assert t.tail == pytest.approx(harness.percentile(list(range(1, 1001)), 99.0))
    assert "n=1000" in t.describe("ms") and "p99 " in t.describe("ms")
    small = Timing.of([1.0, 2.0, 3.0])
    assert small.tail_q is None and small.tail is None


# -- spans and self time ------------------------------------------------------


def test_covered_is_union_of_clipped_children():
    assert covered(0.0, 10.0, []) == 0.0
    assert covered(0.0, 10.0, [(1.0, 3.0), (5.0, 6.0)]) == pytest.approx(3.0)
    # Overlapping children count once; parts outside the parent do not.
    assert covered(0.0, 10.0, [(2.0, 5.0), (4.0, 7.0)]) == pytest.approx(5.0)
    assert covered(0.0, 10.0, [(-2.0, 1.0), (9.0, 12.0)]) == pytest.approx(2.0)
    assert covered(0.0, 10.0, [(11.0, 12.0)]) == 0.0
    assert covered(0.0, 10.0, [(1.0, 9.0), (2.0, 3.0)]) == pytest.approx(8.0)


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("root", 0.0, 10.0, -1, 1),
        ("child", 1.0, 4.0, 0, 1),
        ("grandchild", 2.0, 3.0, 1, 1),
        ("child", 5.0, 9.0, 0, 1),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    # Self times of a fully nested tree add up to the root's duration.
    assert sum(self_times(spans)) == pytest.approx(10.0)


class _Toy:
    def outer(self, n):
        time.sleep(0.002)
        return [self.inner() for _ in range(n)]

    def inner(self):
        time.sleep(0.001)
        return b"xyz"


def test_tracer_wraps_restores_and_links_parents():
    original = _Toy.__dict__["outer"]
    tracer = Tracer()
    tracer.target(_Toy, "outer", "toy.outer")
    tracer.target(_Toy, "inner", "toy.inner", observe=len)
    toy = _Toy()
    with tracer.active():
        assert toy.outer(3) == [b"xyz"] * 3
    assert _Toy.__dict__["outer"] is original
    toy.outer(1)  # untraced after the block
    names = [span[0] for span in tracer.spans]
    assert names == ["toy.outer"] + ["toy.inner"] * 3
    assert all(span[3] == 0 for span in tracer.spans[1:])
    summary = tracer.summary()
    assert summary["toy.inner"]["count"] == 3
    assert summary["toy.inner"]["observed"] == 9
    outer = summary["toy.outer"]
    assert outer["self_s"] == pytest.approx(outer["total_s"] - summary["toy.inner"]["total_s"])
    assert outer["self_s"] >= 0.002
    assert tracer.self_s("toy.outer", "toy.inner") == pytest.approx(outer["total_s"])


def test_tracer_dump_writes_every_span(tmp_path):
    tracer = Tracer()
    tracer.target(_Toy, "inner", "toy.inner")
    with tracer.active():
        _Toy().inner()
    path = tmp_path / "spans.json"
    tracer.dump(path, {"workload": "toy"})
    data = json.loads(path.read_text())
    assert data["names"] == ["toy.inner"]
    assert len(data["spans"]) == 1 and data["meta"] == {"workload": "toy"}


# -- open-loop due-time accounting -----------------------------------------


def test_schedule_staggers_sessions_across_one_period():
    sched = loadgen.Schedule(n_sessions=4, duration_s=0.1, rate_hz=500, chunk=5)
    assert sched.period_s == pytest.approx(0.01)
    assert sched.n_chunks == 10
    assert sched.samples_per_session == 50
    assert [sched.offset(s) for s in range(4)] == pytest.approx([0, 0.0025, 0.005, 0.0075])
    assert sched.due(2, 3) == pytest.approx(0.035)
    sends = sched.sends()
    assert len(sends) == 40
    assert [due for due, _, _ in sends] == sorted(due for due, _, _ in sends)
    assert sched.offered_wps(stride=1) == 2000


def test_window_due_is_due_time_of_completing_chunk():
    sched = loadgen.Schedule(n_sessions=1, duration_s=1.0, rate_hz=500, chunk=5)
    # W=5, stride 1: window 0 needs samples 0..4 (chunk 0); window 1
    # needs sample 5, which arrives with chunk 1.
    assert sched.completing_chunk(0, window=5, stride=1) == 0
    assert sched.completing_chunk(1, window=5, stride=1) == 1
    assert sched.completing_chunk(5, window=5, stride=1) == 1
    assert sched.completing_chunk(6, window=5, stride=1) == 2
    assert sched.window_due(0, 6, window=5, stride=1) == pytest.approx(0.02)
    assert sched.windows_per_session(window=5, stride=1) == 500 - 4
    assert sched.windows_per_session(window=5, stride=5) == 100


def test_measured_latencies_drop_warmup_by_due_time():
    sched = loadgen.Schedule(n_sessions=2, duration_s=0.1, rate_hz=500, chunk=5)
    run = loadgen.PacedRun()
    run.decisions = {
        0: [(0, 1, 1, 0.5), (10, 1, 1, 0.25), (20, 1, 1, None)],
        1: [(40, 2, 2, 0.125)],
    }
    # Session 0's window 10 completes with chunk 2, due at 0.02 s;
    # session 1's window 40 with chunk 8, due at 0.005 + 0.08 s.
    got = loadgen.measured_latencies(run, sched, warmup_s=0.02, window=5, stride=1)
    assert got == [(pytest.approx(0.02), 0.25), (pytest.approx(0.085), 0.125)]


# -- failed-operation bookkeeping -----------------------------------------


def test_outcome_counts_failures_against_attempts():
    outcome = Outcome()
    assert outcome.failed_ratio == 0.0 and not outcome.correct  # nothing attempted
    outcome.attempt(100)
    outcome.fail("session refused", 10)
    outcome.fail("ignored", 0)
    assert outcome.correct  # refusals are failures, not wrong outputs
    outcome.check("mismatch", 5)
    outcome.check("mismatch", 0)
    assert outcome.failed == 15 and outcome.mismatched == 5
    assert outcome.failed_ratio == pytest.approx(0.15)
    assert outcome.reasons == {"session refused": 10, "mismatch": 5}
    assert not outcome.correct
    total = Outcome()
    total.merge(outcome, prefix="mid: ")
    total.merge(outcome, prefix="mid: ")
    assert total.attempted == 200 and total.failed == 30 and total.mismatched == 10
    assert total.reasons == {"mid: session refused": 20, "mid: mismatch": 10}


def test_repeat_setup_keeps_every_time_and_part():
    builds = iter(range(3))

    def build():
        n = next(builds)
        return n, {"part_s": float(n)}

    setup = harness.repeat_setup(build, repeats=3)
    assert setup.product == 2
    assert len(setup.seconds) == 3 and len(setup.host.samples) == 4
    assert setup.parts == {"part_s": [0.0, 1.0, 2.0]}
    assert setup.median("part_s") == 1.0


def test_timed_calls_alternate_traced_calls_and_check_outside():
    class _Tracer:
        depth = 0

        @contextlib.contextmanager
        def active(self):
            self.depth += 1
            yield
            self.depth -= 1

    tracer = _Tracer()
    seen = []
    timed = harness.timed_calls(
        prepare=lambda n: n,
        call=lambda n: (n, tracer.depth),
        check=lambda prepared, result: seen.append((prepared, result)),
        seconds=0.0,
        tracer=tracer,
    )
    # Zero seconds still yields one untraced and one traced call.
    assert seen == [(0, (0, 0)), (1, (1, 1))]
    assert timed.calls == 2 and len(timed.seconds[False]) == len(timed.seconds[True]) == 1
    timed.seconds = {False: [1.0, 3.0], True: [3.0]}
    assert timed.overhead_ratio() == pytest.approx(0.5)


def test_mean_of_medians_averages_per_stretch_medians():
    assert harness.stretch_medians([[1.0, 2.0, 9.0], [4.0], []]) == [2.0, 4.0]
    assert harness.mean_of_medians([[1.0, 2.0, 9.0], [4.0], []]) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        harness.mean_of_medians([[]])


def test_count_mismatches_counts_positions_and_length_gap():
    assert harness.count_mismatches([1, 2, 3], [1, 2, 3]) == 0
    assert harness.count_mismatches([1, 0, 3], [1, 2, 3]) == 1
    assert harness.count_mismatches([1, 2], [1, 2, 3, 4]) == 2
    assert harness.count_mismatches([], [1]) == 1


# -- the spec and the command line -----------------------------------------

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_obeys_the_file_limits():
    data = spec.SPEC
    assert set(data) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert data["command"] == ["python3", "perfbench/run.py"] and data["paths"] == ["perfbench"]
    names = [w["name"] for w in data["workloads"]]
    names += [m["name"] for m in data["end_to_end"] + data["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert 2 <= len(data["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in data["workloads"])
    assert 1 <= len(data["end_to_end"]) <= 16 and 1 <= len(data["per_layer"]) <= 128
    for metric in data["end_to_end"] + data["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")
    assert all(0 < m["bound"] <= 0.25 for m in data["end_to_end"])
    setup = [m for m in data["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in data["end_to_end"])}]
    assert 1 <= data["run_seconds"] <= 60
    assert len(json.dumps(data)) <= 64 * 1024


def test_refuses_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in spec.BENCHMARK_JSON.parent.joinpath("perfbench").glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(spec.BENCHMARK_JSON.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "iss-table3", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
