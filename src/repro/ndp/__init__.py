"""NDP architecture models: packets, AES / SecNDP engine and ArithEnc timing,
and the simulator (with no engine attached, the unprotected NDP baseline)."""

from .aes_engine import AES_BLOCK_NS, AES_THROUGHPUT_GBPS, AesEngineModel
from .arith_enc import ArithEncResult, simulate_arith_enc
from .packets import (
    NdpPacket,
    NdpWorkload,
    PacketGenerator,
    SimQuery,
    TableGeometry,
)
from .secndp_engine import PacketTiming, SecNdpEngineModel
from .simulator import NdpConfig, NdpRunResult, NdpSimulator
from .verification import LINE_BYTES, TAG_BYTES, TagPlacement, TagScheme

__all__ = [
    "AES_BLOCK_NS",
    "AES_THROUGHPUT_GBPS",
    "AesEngineModel",
    "ArithEncResult",
    "simulate_arith_enc",
    "NdpPacket",
    "NdpWorkload",
    "PacketGenerator",
    "SimQuery",
    "TableGeometry",
    "PacketTiming",
    "SecNdpEngineModel",
    "NdpConfig",
    "NdpRunResult",
    "NdpSimulator",
    "LINE_BYTES",
    "TAG_BYTES",
    "TagPlacement",
    "TagScheme",
]
