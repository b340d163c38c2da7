"""Asyncio serving front-end: coalescing, admission control, TCP frames.

The request-level ingress for the SecNDP store (DESIGN.md Sec. 15).
Single SLS queries arriving on the event loop coalesce into amortized
``sls_scatter`` batches (the union-of-rows path) without ever waiting for
company: a batch is whatever is queued when the previous batch is done,
so a lone query leaves at once and coalescing comes from load, not a
timer.  Every batch runs on the event loop; serving starts no thread.
An SLO-burn admission gate sheds load to keep p99 inside budget.

::

    store = SecureEmbeddingStore(key)
    store.add_table("emb", table)
    async with SlsServer(store, port=0) as server:
        client = await AsyncSlsClient.connect("127.0.0.1", server.port)
        vec = await client.sls("emb", [1, 5, 9])

Layout: :mod:`.protocol` (length-prefixed binary/JSON frames, typed
request/response dataclasses), :mod:`.scheduler` (the batching
scheduler and its scatter semantics), :mod:`.admission` (SLO-aware
admission control), :mod:`.server` (the one TCP transport: the accept
loop both hops' servers share and the two-transport client).  Serving
is measured end to end by ``benchmarks/e2e``.
"""

from .admission import DEFAULT_SERVE_SLO, AdmissionConfig, AdmissionController
from .protocol import (
    CODEC_BINARY,
    CODEC_JSON,
    DEFAULT_HEARTBEAT_TIMEOUT_S,
    ENV_HEARTBEAT_TIMEOUT,
    MAX_FRAME_BYTES,
    NODE_OPS,
    RESPONSE_STATUSES,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_OVERLOADED,
    STATUS_SHUTTING_DOWN,
    FrameError,
    NodeRequest,
    NodeResponse,
    SlsRequest,
    SlsResponse,
    decode_payload,
    encode_frame,
    resolve_heartbeat_timeout,
)
from .scheduler import DEFAULT_MAX_BATCH, BatchScheduler
from .server import AsyncSlsClient, SlsServer

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "DEFAULT_SERVE_SLO",
    "DEFAULT_MAX_BATCH",
    "BatchScheduler",
    "AsyncSlsClient",
    "SlsServer",
    "SlsRequest",
    "SlsResponse",
    "NodeRequest",
    "NodeResponse",
    "NODE_OPS",
    "FrameError",
    "resolve_heartbeat_timeout",
    "ENV_HEARTBEAT_TIMEOUT",
    "DEFAULT_HEARTBEAT_TIMEOUT_S",
    "encode_frame",
    "decode_payload",
    "CODEC_JSON",
    "CODEC_BINARY",
    "MAX_FRAME_BYTES",
    "STATUS_OK",
    "STATUS_ERROR",
    "STATUS_OVERLOADED",
    "STATUS_SHUTTING_DOWN",
    "RESPONSE_STATUSES",
]
