"""Open-loop load generation over the ingress wire protocol.

Every session is a real-time sensor: it sends ``chunk`` samples every
``chunk / rate_hz`` seconds whether or not earlier decisions came back.
Sessions are staggered evenly across one period.  One asyncio loop
drives every session, multiplexed over a few connections.

Latency is timed from when a window's completing chunk was *due*, not
from when the generator got round to sending it, so a stall anywhere
(generator, socket, server) is charged to every window it delays.  How
late the generator itself ran is recorded separately.
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.stream import IngressClient


@dataclass(frozen=True)
class Schedule:
    """Due times of every chunk of every session, relative to start."""

    n_sessions: int
    duration_s: float
    rate_hz: int = 500
    chunk: int = 5

    @property
    def period_s(self) -> float:
        return self.chunk / self.rate_hz

    @property
    def n_chunks(self) -> int:
        """Chunks per session (whole periods inside the duration)."""
        return int(math.floor(self.duration_s / self.period_s + 1e-9))

    @property
    def samples_per_session(self) -> int:
        return self.n_chunks * self.chunk

    def offset(self, session: int) -> float:
        return session * self.period_s / self.n_sessions

    def due(self, session: int, k: int) -> float:
        """Due time of chunk ``k`` of ``session``."""
        return self.offset(session) + k * self.period_s

    def sends(self) -> List[Tuple[float, int, int]]:
        """Every (due, session, chunk index), in due order."""
        return sorted(
            (self.due(s, k), s, k)
            for s in range(self.n_sessions)
            for k in range(self.n_chunks)
        )

    def completing_chunk(self, index: int, window: int, stride: int) -> int:
        """Chunk whose arrival completes window ``index``."""
        last_sample = index * stride + window - 1
        return last_sample // self.chunk

    def window_due(self, session: int, index: int, window: int, stride: int) -> float:
        return self.due(session, self.completing_chunk(index, window, stride))

    def windows_per_session(self, window: int, stride: int) -> int:
        n = self.samples_per_session
        return 0 if n < window else (n - window) // stride + 1

    def offered_wps(self, stride: int) -> float:
        """Offered windows per second across all sessions."""
        return self.n_sessions * self.rate_hz / stride


@dataclass
class PacedRun:
    """What the generator observed during one paced phase."""

    start: float = 0.0
    refused: List[int] = field(default_factory=list)
    #: session -> (decision index, raw label, label, latency s)
    decisions: Dict[int, List[Tuple[int, int, int, float]]] = field(default_factory=dict)
    #: generator lateness per send, seconds
    lateness: List[float] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    aborted: List[int] = field(default_factory=list)


def session_id(session: int) -> str:
    return f"p{session:03d}"


async def drive(
    host: str,
    port: int,
    schedule: Schedule,
    streams: List[np.ndarray],
    n_connections: int,
    lead_s: float = 0.05,
) -> PacedRun:
    """Run one open-loop phase against a live ingress server."""
    run = PacedRun()
    clients = [IngressClient() for _ in range(max(1, min(n_connections, schedule.n_sessions)))]
    try:
        await _paced(run, clients, host, port, schedule, streams, lead_s)
    finally:
        for client in clients:
            await client.aclose()  # no-op after a clean BYE
    return run


async def _paced(run, clients, host, port, schedule, streams, lead_s) -> None:
    for client in clients:
        await client.connect(host, port)
    owner = {s: clients[s % len(clients)] for s in range(schedule.n_sessions)}
    admitted = []
    for s in range(schedule.n_sessions):
        ok, _ = await owner[s].open(session_id(s))
        (admitted if ok else run.refused).append(s)
    live = set(admitted)
    chunk = schedule.chunk
    clock = time.perf_counter
    run.start = start = clock() + lead_s
    for due, s, k in schedule.sends():
        if s not in live:
            continue
        target = start + due
        delay = target - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        else:
            await asyncio.sleep(0)  # let the readers run when behind
        run.lateness.append(clock() - target)
        try:
            await owner[s].send(session_id(s), streams[s][k * chunk : (k + 1) * chunk], stamp=target)
        except (ConnectionError, OSError) as exc:
            live.discard(s)
            run.aborted.append(s)
            run.errors.append(f"{session_id(s)}: {exc}")
    for s in sorted(live):
        try:
            await owner[s].close(session_id(s))
        except (ConnectionError, OSError, asyncio.TimeoutError) as exc:
            run.aborted.append(s)
            run.errors.append(f"{session_id(s)}: close {exc}")
    for s in admitted:
        got = owner[s].decisions.get(session_id(s), [])
        run.decisions[s] = [(d.index, d.raw_label, d.label, d.latency_s) for d in got]
    for client in clients:
        run.errors.extend(f"server error {e.code}: {e.message}" for e in client.errors)
        try:
            await client.bye()
        except (ConnectionError, OSError, asyncio.TimeoutError):
            pass  # closed in drive()


def measured_latencies(
    run: PacedRun, schedule: Schedule, warmup_s: float, window: int, stride: int
) -> List[Tuple[float, float]]:
    """(due time, latency) in seconds of every decided window whose
    chunk was due at or after the warm-up cut, in due order."""
    out = []
    for s, decisions in run.decisions.items():
        for index, _, _, latency in decisions:
            if latency is None:
                continue
            due = schedule.window_due(s, index, window, stride)
            if due >= warmup_s:
                out.append((due, latency))
    return sorted(out)
