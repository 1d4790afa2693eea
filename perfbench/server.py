"""The benchmark's ingress server launcher, run as its own process.

    python3 perfbench/server.py [--trace PATH]

Fits the subject-0 model, serves it through an
``IngressServer`` on an ephemeral localhost port, and prints one JSON
line ``{"port": ..., "setup": {...}}`` once it accepts connections.
It serves until a line arrives on stdin (or stdin closes), then stops
the server and prints a JSON report: ingress counters, service cache
counters, queue-age percentiles, peak RSS and, with ``--trace``, the
span summary (spans themselves go to PATH).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from pathlib import Path

import harness


def _report(server, service, model, tracer) -> dict:
    stats = server.stats
    spatial = model.encoder.spatial
    ticks = service.queue_age_ticks_hist
    wall = service.queue_age_s_hist
    return {
        "ingress": {
            "sessions_rejected": stats.sessions_rejected,
            "protocol_errors": stats.protocol_errors,
            "slow_disconnects": stats.slow_client_disconnects,
            "decisions_sent": stats.decisions_sent,
        },
        "service": {
            "windows": service.total_windows,
            "batches": service.total_batches,
            "cache_hits": service.cache_hits,
            "cache_misses": service.cache_misses,
            "cache_evictions": service.cache_evictions,
            "row_cache_hits": spatial.row_cache_hits,
            "row_cache_misses": spatial.row_cache_misses,
            "queue_age_p99_ticks": ticks.percentile(99.0),
            "queue_age_p99_s": wall.percentile(99.0),
        },
        "peak_rss_mb": harness.peak_rss_mb(),
        "trace": tracer.summary() if tracer is not None else None,
    }


async def _serve(server, service, model, setup, tracer) -> dict:
    host, port = await server.start("127.0.0.1", 0)
    print(json.dumps({"port": port, "host": host, "setup": setup}), flush=True)
    loop = asyncio.get_running_loop()
    await loop.run_in_executor(None, sys.stdin.readline)
    await server.stop()
    return _report(server, service, model, tracer)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=Path, default=None, help="write spans here")
    args = parser.parse_args(argv)
    harness.use_repo_sources()
    import inputs
    from repro.emg import generate_subject
    from repro.stream import IngressConfig, IngressServer, StreamingService

    start = time.perf_counter()
    subject = generate_subject(inputs.DATASET, 0)
    generated = time.perf_counter()
    model = inputs.fit_batch(subject)
    fitted = time.perf_counter()
    config = inputs.paced_stream_config()
    service = StreamingService(model, config)
    # A deep outbound queue: overload must show as latency, not as
    # slow-consumer evictions of a generator that is busy sending.
    server = IngressServer(service, config, IngressConfig(write_queue_frames=1 << 16))
    setup = {"emg_generate_s": generated - start, "hdc_fit_s": fitted - generated}
    tracer = None
    if args.trace is not None:
        import layers

        tracer = layers.stream_tracer(ingress=True)
        with tracer.active():
            report = asyncio.run(_serve(server, service, model, setup, tracer))
        tracer.dump(args.trace, {"process": "ingress-server"})
    else:
        report = asyncio.run(_serve(server, service, model, setup, None))
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
