"""Which public functions of the program the traced runs wrap.

Span names are ``<layer>.<operation>``; the layers are the program's
modules (``hdc``, ``stream``, ``wire``, ``kernels``).  Call
:func:`harness.use_repo_sources` before importing this module.
"""

from __future__ import annotations

from typing import Optional

from repro.hdc import engine
from repro.hdc.encoder import SpatialEncoder, WindowEncoder
from repro.kernels import HDChainSimulator
from repro.stream import FrameDecoder, Session, StreamingService
from repro.stream import ingress as ingress_module

from tracing import Tracer

#: Span names whose self time is the scheduler's own work.
SCHEDULER_SPANS = ("stream.ingest", "stream.pump", "stream.drain")


def stream_tracer(ingress: bool = False) -> Tracer:
    """Spans of the streaming host path, plus the wire codec if asked."""
    tracer = Tracer()
    tracer.target(StreamingService, "ingest", "stream.ingest")
    tracer.target(StreamingService, "pump", "stream.pump")
    tracer.target(StreamingService, "drain", "stream.drain")
    tracer.target(Session, "push", "stream.windower")
    tracer.target(Session, "record", "stream.record")
    tracer.target(SpatialEncoder, "quantize_batch", "hdc.quantize")
    tracer.target(WindowEncoder, "encode_levels_batch", "hdc.encode")
    tracer.target(engine, "am_search", "hdc.am_search")
    if ingress:
        wire_tracer(tracer)
    return tracer


def wire_tracer(tracer: Tracer) -> Tracer:
    """The frame codec as the ingress server and client call it."""
    tracer.target(ingress_module, "encode_frame", "wire.encode", observe=len)
    tracer.target(FrameDecoder, "feed", "wire.decode", observe=len)
    return tracer


def chain_tracer(capture: Optional[list] = None) -> Tracer:
    """The batched ISS chain driver; ``capture`` collects its results."""

    def observe(results) -> int:
        if capture is not None:
            capture.extend(results)
        return len(results)

    tracer = Tracer()
    tracer.target(
        HDChainSimulator, "run_window_levels_batch", "kernels.chain_batch", observe=observe
    )
    return tracer
