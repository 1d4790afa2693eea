"""Workload ``stream-unseen``: the in-process service on unseen subjects.

A ``StreamingService`` with the library's default caches serves a model
fit on subject 0 to 50 sessions replaying subject 1's trials,
round-robin in fixed 25-sample chunks at the paper geometry (W=5,
stride 5): a closed loop on one thread.  The seed picks which session
replays which trial and the round-robin order.  Every measured pass
starts a fresh service, so its caches start empty.
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

from repro.stream import StreamingService

import harness
import inputs
import layers
from harness import Outcome, Timing

N_SESSIONS = 50
#: Samples per ingest call: 50 ms at 500 Hz, the real-time chunk of the
#: repository's streaming clients (``python -m repro.stream --chunk``
#: default, ``examples/streaming_service.py``).  With the default
#: ``max_wait`` of 0 every call dispatches at once, so the chunk fixes
#: the batch at 5 windows and sets the encode cost per window: on a
#: 2-core host, 25/45/50-sample chunks gave about 9.3k/12.5k/13.6k
#: windows/s.
CHUNK = 25


def open_service(model, config) -> StreamingService:
    service = StreamingService(model, config)
    for s in range(N_SESSIONS):
        service.open_session(s)
    return service


def one_pass(service, streams, ring) -> tuple:
    """Stream every session once, visiting sessions in ``ring`` order;
    return (per-window latencies, raw labels per session)."""
    labels: Dict[int, List] = {s: [] for s in range(N_SESSIONS)}
    latencies: List[float] = []
    clock = time.perf_counter
    longest = max(len(stream) for stream in streams)
    for pos in range(0, longest, CHUNK):
        for s in ring:
            stream = streams[s]
            if pos >= len(stream):
                continue
            t0 = clock()
            out = service.ingest(s, stream[pos : pos + CHUNK])
            latency = clock() - t0
            latencies.extend([latency] * len(out))
            for d in out:
                labels[d.session_id].append(d.raw_label)
    t0 = clock()
    out = service.drain()
    latencies.extend([clock() - t0] * len(out))
    for d in out:
        labels[d.session_id].append(d.raw_label)
    return latencies, labels


def _set_up():
    start = time.perf_counter()
    subjects = inputs.generate_subjects()
    generated = time.perf_counter()
    model = inputs.fit_batch(subjects.train)
    fit = time.perf_counter() - generated
    return (subjects, model), {"emg_generate_s": generated - start, "hdc_fit_s": fit}


def run(seed: int, seconds: float, trace: bool, out_dir) -> dict:
    setup = harness.repeat_setup(_set_up)
    subjects, model = setup.product
    rng = np.random.default_rng(seed)
    trials = subjects.unseen.trials
    replayed = [trials[i % len(trials)] for i in rng.permutation(N_SESSIONS)]
    streams = [trial.envelope for trial in replayed]
    ring = [int(s) for s in rng.permutation(N_SESSIONS)]
    config = inputs.unseen_stream_config()
    # Reference decisions for the output check, made before any timing.
    expected = [model.predict(inputs.trial_windows(trial)) for trial in replayed]
    outcome = Outcome()
    spatial = model.encoder.spatial
    counts = dict.fromkeys(
        ("hits", "misses", "evictions", "row_hits", "row_misses", "windows", "batches"), 0
    )
    latencies, queue_ticks, queue_ms = [], [], []

    def check_labels(labels, reason: str) -> None:
        for s in range(N_SESSIONS):
            outcome.attempt(len(expected[s]))
            outcome.check(reason, harness.count_mismatches(labels[s], expected[s]))

    def prepare(_n: int):
        return open_service(model, config), (spatial.row_cache_hits, spatial.row_cache_misses)

    def call(prepared):
        return one_pass(prepared[0], streams, ring)

    def check(prepared, result) -> None:
        service, (row_hits, row_misses) = prepared
        lat, labels = result
        latencies.append(np.asarray(lat))
        check_labels(labels, "decision differs from BatchHDClassifier.predict")
        counts["hits"] += service.cache_hits
        counts["misses"] += service.cache_misses
        counts["evictions"] += service.cache_evictions
        counts["row_hits"] += spatial.row_cache_hits - row_hits
        counts["row_misses"] += spatial.row_cache_misses - row_misses
        counts["windows"] += service.total_windows
        counts["batches"] += service.total_batches
        queue_ticks.append(service.queue_age_ticks_hist.percentile(99.0))
        queue_ms.append(1e3 * service.queue_age_s_hist.percentile(99.0))

    tracer = layers.stream_tracer() if trace else None
    # Two reference loops per pass: a pass takes a few hundred ms.
    timed = harness.timed_calls(prepare, call, check, seconds, tracer, host_samples=2)
    windows_per_pass = sum(len(e) for e in expected)
    # A traced run traces the odd passes; latency comes from the others.
    latency_ms = [1e3 * lat for lat in latencies[:: 2 if trace else 1]]
    hit_ratio = counts["hits"] / max(counts["hits"] + counts["misses"], 1)
    result = {
        "outcome": outcome,
        **harness.host_e2e(
            setup.nominal(), setup.median(), timed, windows_per_pass,
            harness.mean_of_medians(latency_ms),
        ),
        "detail": {
            "setup": Timing.of(setup.seconds).describe("s"),
            "latency (all windows)": Timing.of(np.concatenate(latency_ms).tolist()).describe("ms"),
            "pass time": Timing.of([1e3 * t for t in timed.seconds[False]]).describe("ms"),
            "passes": timed.calls,
            "windows_per_pass": windows_per_pass,
            "decision_cache_hit_ratio": hit_ratio,
        },
    }
    if not trace:
        return result

    # Cache-replay ceiling: a second pass over the same streams on a
    # warm service.  A labelled row, never the headline.
    service = open_service(model, config)
    one_pass(service, streams, ring)
    for s in range(N_SESSIONS):
        service.close_session(s)
        service.open_session(s)
    start = time.perf_counter()
    ceiling_lat, labels = one_pass(service, streams, ring)
    ceiling_s = time.perf_counter() - start
    check_labels(labels, "replayed decision differs from BatchHDClassifier.predict")
    per_window = 1e6 / (windows_per_pass * len(timed.seconds[True]))
    layer = {
        "hdc.encode.us_per_window": tracer.self_s("hdc.encode") * per_window,
        "hdc.quantize.us_per_window": tracer.self_s("hdc.quantize") * per_window,
        "hdc.am_search.us_per_window": tracer.self_s("hdc.am_search") * per_window,
        "stream.windower.us_per_window": tracer.self_s("stream.windower") * per_window,
        "stream.record.us_per_window": tracer.self_s("stream.record") * per_window,
        "stream.scheduler.self_us_per_window": tracer.self_s(*layers.SCHEDULER_SPANS) * per_window,
        "stream.decision_cache.hit_ratio": hit_ratio,
        "stream.decision_cache.evictions": counts["evictions"],
        "hdc.row_cache.hit_ratio": counts["row_hits"] / max(counts["row_hits"] + counts["row_misses"], 1),
        "stream.batch.mean_windows": counts["windows"] / max(counts["batches"], 1),
        "stream.queue_age.p99_ticks": harness.percentile(queue_ticks, 50.0),
        "stream.queue_age.p99_ms": harness.percentile(queue_ms, 50.0),
        "stream.replay_ceiling_windows_per_s": len(ceiling_lat) / ceiling_s,
        "setup.emg_generate_s": setup.median("emg_generate_s"),
        "setup.hdc_fit_s": setup.median("hdc_fit_s"),
        "host.speed_index": timed.host.index,
        "trace.overhead_ratio": timed.overhead_ratio(),
    }
    tracer.dump(out_dir / f"trace-stream-unseen-seed{seed}.json", {"workload": "stream-unseen", "seed": seed})
    result["layer"] = layer
    return result
