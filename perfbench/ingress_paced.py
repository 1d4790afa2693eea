"""Workload ``ingress-paced``: open-loop real-time sessions over TCP.

The ingress server runs in its own process (``server.py``), one fresh
process per load level.  This process is the load generator: one
asyncio loop, at most ``nproc`` connections, every session multiplexed
over them.  Each session is a real-time 500 Hz sensor sending 5-sample
chunks (10 ms) of a plateau-model stream (the ``repro.stream.workload``
signal model) at W=5 / stride 1, so every sample completes a window.
"""

from __future__ import annotations

import asyncio
import json
import random
import select
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np
from repro.emg import generate_subject
from repro.stream import (
    StreamingService,
    WorkloadConfig,
    decision_records,
    generate_workload,
    replay,
    trace_from_streams,
)

import harness
import inputs
import layers
import loadgen
from harness import Outcome, Timing
from tracing import Tracer

HERE = Path(__file__).resolve().parent

#: Load levels, in concurrent real-time 500 Hz sessions.  Each session
#: at stride 1 asks for 500 windows/s.  On a 2-core host the p99 limit
#: is met up to about 6 sessions; at 48 the server delivered 16k-24k
#: windows/s, the windows of 32 to 48 sessions, as the shared host's
#: speed changed: low and mid sit below capacity, high at or above it.
RATES = {"low": 2, "mid": 4, "high": 48}
#: Share of ``--seconds`` each level streams for.
SHARES = {"low": 0.15, "mid": 0.4, "high": 0.45}
#: p99 decision latency limit: the paper's 10 ms detection deadline.
LATENCY_LIMIT_MS = 10.0
#: Decisions whose completing chunk was due in this first stretch of a
#: phase (at most a quarter of it) warm the server's caches and are left
#: out of the statistics.
WARMUP_S = 0.5
#: Latency medians are taken per stretch of due times this long.
STRETCH_S = 0.25
CHUNK = 5
SAMPLE_RATE_HZ = 500


class ServerProcess:
    """One ``server.py`` process; always reaped, even on error."""

    def __init__(self, trace: Optional[Path] = None, timeout_s: float = 120.0):
        cmd = [sys.executable, str(HERE / "server.py")]
        if trace is not None:
            cmd += ["--trace", str(trace)]
        self.timeout_s = timeout_s
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd,
            cwd=harness.ROOT,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            hello = json.loads(self._readline())
        except BaseException:
            self.kill()
            raise
        self.start_s = time.perf_counter() - start
        self.port = int(hello["port"])
        self.setup = hello["setup"]

    def _readline(self) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], self.timeout_s)
        if not ready:
            raise TimeoutError("ingress server did not answer")
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"ingress server exited with {self.proc.wait()}")
        return line

    def stop(self) -> dict:
        """Ask the server to stop; return its final report."""
        try:
            self.proc.stdin.write("stop\n")
            self.proc.stdin.flush()
            report = json.loads(self._readline())
            self.proc.wait(timeout=self.timeout_s)
            return report
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            if pipe is not None:
                pipe.close()

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc) -> None:
        self.kill()


def plateau_streams(seed: int, n_sessions: int, n_samples: int):
    """Per-session streams of the workload generator's signal model.

    The generator's default signal range, [0, 1] in model units, sits in
    the bottom quantisation levels of the EMG model's [0, 21] range: a
    low-activity stream whose window patterns repeat, which is what
    makes this workload the caches' counterpart to ``stream-unseen``.
    The streams of a load level are fixed; the seed rotates each one to
    a different starting sample.  Four sessions are too few for a fresh
    draw per seed to average out: how often patterns repeat, and with it
    the mid-rate median latency, then moved with the seed by a third.
    """
    scripts = generate_workload(
        WorkloadConfig(n_sessions=n_sessions, n_channels=4, samples_per_session=n_samples),
        seed=n_sessions,
    )
    rng = np.random.default_rng(seed)
    return [np.roll(script.stream, -int(rng.integers(n_samples)), axis=0) for script in scripts]


def check_parity(model, streams: Dict[int, object], run: loadgen.PacedRun, outcome: Outcome) -> None:
    """Admitted sessions' decisions must equal an in-process replay."""
    if not streams:
        return
    reference = replay(
        StreamingService(model, inputs.paced_stream_config()),
        trace_from_streams({s: streams[s] for s in sorted(streams)}, seed=0),
    )
    for s in streams:
        want = decision_records(reference[s])
        got = [(index, raw, label) for index, raw, label, _ in run.decisions.get(s, [])]
        outcome.check("decision mismatch vs in-process replay", harness.count_mismatches(got, want))


def run_phase(
    seed: int, level: str, phase_s: float, model, trace_dir: Optional[Path] = None
) -> dict:
    """Stream one load level against a fresh server process."""
    sessions = RATES[level]
    window = inputs.STRIDE1_WINDOW
    schedule = loadgen.Schedule(
        n_sessions=sessions, duration_s=phase_s, rate_hz=SAMPLE_RATE_HZ, chunk=CHUNK
    )
    streams = plateau_streams(seed, sessions, schedule.samples_per_session)
    trace = trace_dir / f"trace-ingress-paced-server-seed{seed}.json" if trace_dir else None
    with ServerProcess(trace) as server:
        run = asyncio.run(
            loadgen.drive(
                "127.0.0.1", server.port, schedule, streams, harness.usable_cores()
            )
        )
        report = server.stop()
    outcome = Outcome()
    per_session = schedule.windows_per_session(window.window_samples, window.stride)
    outcome.attempt(per_session * sessions)
    outcome.fail("session refused", per_session * len(run.refused))
    outcome.fail("session aborted", per_session * len(run.aborted))
    completed = {
        s: streams[s]
        for s in range(sessions)
        if s not in run.refused and s not in run.aborted
    }
    check_parity(model, completed, run, outcome)
    warmup_s = min(WARMUP_S, phase_s / 4)
    measured = loadgen.measured_latencies(
        run, schedule, warmup_s, window.window_samples, window.stride
    )
    latency_ms = [1e3 * latency for _, latency in measured]
    stretches: Dict[int, List[float]] = {}
    for due, latency in measured:
        stretches.setdefault(int(due / STRETCH_S), []).append(1e3 * latency)
    arrivals = [run.start + due + latency for due, latency in measured]
    span = max(arrivals) - (run.start + warmup_s) if arrivals else 0.0
    timing = Timing.of(latency_ms) if latency_ms else None
    p99 = harness.percentile(latency_ms, 99.0) if latency_ms else float("inf")
    return {
        "level": level,
        "sessions": sessions,
        "offered_wps": schedule.offered_wps(window.stride),
        "delivered_wps": len(arrivals) / span if span > 0 else 0.0,
        "latency": timing,
        "p50_ms": timing.median if timing else float("inf"),
        # Wake-up bound, not compute bound: a burst of host noise lifts a
        # few stretches, which the median of stretch medians ignores.
        "stretch_p50_ms": harness.percentile(harness.stretch_medians(stretches.values()), 50.0)
        if stretches
        else float("inf"),
        "p99_ms": p99,
        "lateness_ms": [1e3 * x for x in run.lateness],
        "ok": outcome.failed == 0 and p99 <= LATENCY_LIMIT_MS,
        "outcome": outcome,
        "server_start_s": server.start_s,
        "server_setup": server.setup,
        "server": report,
        "errors": run.errors,
    }


def run(seed: int, seconds: float, trace: bool, out_dir) -> dict:
    # The parity reference: the same model every server process fits.
    model = inputs.fit_batch(generate_subject(inputs.DATASET, 0))
    plan = [(level, False) for level in RATES]
    if trace:
        plan.append(("mid", True))
    random.Random(seed).shuffle(plan)  # randomised run order
    untraced: Dict[str, dict] = {}
    traced: Optional[dict] = None
    client = None
    host = harness.HostSpeed()
    for level, traced_phase in plan:
        host.sample(10)  # between phases: the generator must keep its pace
        phase_s = SHARES[level] * seconds
        if traced_phase:
            client = layers.wire_tracer(Tracer())
            with client.active():
                traced = run_phase(seed, level, phase_s, model, out_dir)
            client.dump(
                out_dir / f"trace-ingress-paced-client-seed{seed}.json",
                {"workload": "ingress-paced", "process": "load generator", "seed": seed},
            )
        else:
            untraced[level] = run_phase(seed, level, phase_s, model)
    host.sample(10)
    phases = list(untraced.values()) + ([traced] if traced else [])
    outcome = Outcome()
    for phase in phases:
        outcome.merge(phase["outcome"], prefix=f"{phase['level']}: ")
    starts = [phase["server_start_s"] for phase in phases]
    mid, high = untraced["mid"], untraced["high"]
    raw = {
        "setup_s": harness.percentile(starts, 50.0),
        "windows_per_s": high["delivered_wps"],
    }
    result = {
        "outcome": outcome,
        "e2e": {
            # Scaled by the reference loop timed between phases: over
            # sets of ten runs the measured medians drifted by up to 30 %
            # with the host, the scaled ones by under 5 %.
            "setup_s": host.seconds(raw["setup_s"]),
            "windows_per_s": host.rate(raw["windows_per_s"]),
            # Not scaled: it waits on wake-ups, not on computation.
            "latency_p50_ms": mid["stretch_p50_ms"],
            # The server process at the mid rate: the generator's own
            # memory grows with the decisions it keeps, and an overloaded
            # server's with its backlog.
            "peak_rss_mb": mid["server"]["peak_rss_mb"],
        },
        "raw": raw,
        "host": {"run": host.index},
        "detail": {
            "order": [f"{level}{' (traced)' if t else ''}" for level, t in plan],
            "connection errors": sum(len(p["errors"]) for p in phases),
            **{
                f"{level}": (
                    f"{p['sessions']} sessions, offered {p['offered_wps']:.0f} w/s, "
                    f"delivered {p['delivered_wps']:.0f} w/s, "
                    f"latency {p['latency'].describe('ms') if p['latency'] else '-'}, "
                    f"p99 {p['p99_ms']:.3f} ms, ok={p['ok']}"
                )
                for level, p in untraced.items()
            },
        },
    }
    if not trace:
        return result
    server = traced["server"]
    spans = server["trace"]
    windows = server["service"]["windows"]

    def self_us(*names: str, spans=spans) -> float:
        return 1e6 * sum(spans.get(name, {}).get("self_s", 0.0) for name in names)

    client_spans = client.summary()
    encode_frames = spans.get("wire.encode", {}).get("count", 0) + client_spans.get(
        "wire.encode", {}
    ).get("count", 0)
    decode_frames = spans.get("wire.decode", {}).get("observed", 0) + client_spans.get(
        "wire.decode", {}
    ).get("observed", 0)
    service = mid["server"]["service"]
    layer = {
        "hdc.encode.us_per_window": self_us("hdc.encode") / windows,
        "hdc.quantize.us_per_window": self_us("hdc.quantize") / windows,
        "hdc.am_search.us_per_window": self_us("hdc.am_search") / windows,
        "stream.windower.us_per_window": self_us("stream.windower") / windows,
        "stream.record.us_per_window": self_us("stream.record") / windows,
        "stream.scheduler.self_us_per_window": self_us(*layers.SCHEDULER_SPANS) / windows,
        "stream.decision_cache.hit_ratio": service["cache_hits"]
        / max(service["cache_hits"] + service["cache_misses"], 1),
        "stream.decision_cache.evictions": service["cache_evictions"],
        "hdc.row_cache.hit_ratio": service["row_cache_hits"]
        / max(service["row_cache_hits"] + service["row_cache_misses"], 1),
        "stream.batch.mean_windows": service["windows"] / max(service["batches"], 1),
        "stream.queue_age.p99_ticks": service["queue_age_p99_ticks"],
        "stream.queue_age.p99_ms": 1e3 * service["queue_age_p99_s"],
        "wire.encode.us_per_frame": (
            self_us("wire.encode") + self_us("wire.encode", spans=client_spans)
        )
        / max(encode_frames, 1),
        "wire.decode.us_per_frame": (
            self_us("wire.decode") + self_us("wire.decode", spans=client_spans)
        )
        / max(decode_frames, 1),
        "wire.bytes_per_decision": spans.get("wire.encode", {}).get("observed", 0)
        / max(server["ingress"]["decisions_sent"], 1),
        "ingress.sessions_rejected": sum(p["server"]["ingress"]["sessions_rejected"] for p in phases),
        "ingress.protocol_errors": sum(p["server"]["ingress"]["protocol_errors"] for p in phases),
        "ingress.slow_disconnects": sum(p["server"]["ingress"]["slow_disconnects"] for p in phases),
        "ingress.max_ok_rate_wps": max(
            [p["offered_wps"] for p in untraced.values() if p["ok"]], default=0.0
        ),
        "loadgen.lateness_p99_ms": harness.percentile(mid["lateness_ms"], 99.0),
        "setup.server_start_s": harness.percentile(starts, 50.0),
        "setup.emg_generate_s": harness.percentile(
            [p["server_setup"]["emg_generate_s"] for p in phases], 50.0
        ),
        "setup.hdc_fit_s": harness.percentile(
            [p["server_setup"]["hdc_fit_s"] for p in phases], 50.0
        ),
        "host.speed_index": host.index,
        "trace.overhead_ratio": traced["p50_ms"] / mid["p50_ms"] - 1.0,
    }
    for level, phase in untraced.items():
        layer[f"ingress.rate_{level}.latency_p50_ms"] = phase["p50_ms"]
        layer[f"ingress.rate_{level}.latency_p99_ms"] = phase["p99_ms"]
    result["layer"] = layer
    return result
