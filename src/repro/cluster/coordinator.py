"""Trusted coordinator: shard, dispatch, blame, fail over, re-shard.

The sharded executor: an SLS batch runs either in one process (the
store, both halves of the split side by side) or here, with the device
half on nodes across TCP.  Those nodes are the *untrusted memory party*
of the SecNDP threat model.  The coordinator owns the authoritative
:class:`~repro.workloads.secure_sls.SecureEmbeddingStore` (summing its
own ciphertext here is the trusted recompute path) and is the only party
that ever holds key material:

1. **Shard**: encrypted tables (ciphertext + encrypted tags, both
   attacker-visible by assumption) are replicated to every node;
   row-range ownership is logical (``np.linspace`` bounds over the row
   space), so re-sharding is a bounds update with no data movement.
   The key never leaves this process.  After a trusted-side
   re-encryption the replicas are re-shipped before the next batch (the
   version triple shipped is compared with the store's): the
   coordinator's own re-keying is never evidence against a node.
2. **Dispatch**: each query batch is masked per owner range, the
   coordinator generates the pad halves (``E_res`` / ``E_T_res``)
   key-side, one fused pass per owner's sub-batch
   (:meth:`~repro.core.protocol.SecNDPProcessor.pad_share_batch`), over
   the one table version the whole batch reads, and then every owner's
   sub-batch goes out at once as a binary ``partial_sum`` frame under a
   deadline — all shards are in flight together, each on its own
   recovery ladder.  A node answers with ciphertext-domain sums only
   (``C_res`` / ``C_T_res``) and the coordinator adds each node's sums
   onto its pad half and checks them in one pass
   (:meth:`~repro.core.protocol.SecNDPProcessor.combine_and_verify`).
3. **Blame**: each reconstructed share is verified against its *own*
   restricted checksum, in that pass and before any cross-shard
   combining — since the pad half is computed honestly here,
   a mismatch is cryptographic evidence against exactly that node
   (publicly-identifiable abort), up to the scheme's forgery bound.
   Error frames and structurally malformed sums blame the node the same
   way; timeouts and dead connections blame it on liveness.
4. **Recover**: bounded same-node retries with deterministic
   backoff+jitter, then re-issue to a healthy replica, then trusted
   local recompute.  Every share that enters the final combine passed
   its per-shard check, and ring/field addition is exact, so answers
   stay bit-identical to the sequential single-host oracle.
5. **Quarantine**: blame strikes are weighted by evidence strength
   (:data:`~repro.cluster.health.BLAME_WEIGHTS`: forged share 3,
   dropped connection 2, deadline miss 1 — the same table the offline
   journal ranking uses); a node whose weighted count crosses the
   threshold is removed from the shard map and its rows re-owned by
   survivors.  Every step lands in the audit journal (``node_blame`` /
   ``node_quarantine`` / ``node_reshard`` / ``node_timeout`` /
   ``node_dead``), making the journal the cross-host shard-health
   record.  A node is charged only while it is live: a request that
   was in flight when its node was quarantined fails over uncharged,
   the quarantine already standing for the fault.

The final combine still runs the whole-query check
(:meth:`finalize_row_sum_batch` with ``verify=True``): per-shard
identities are exact over residues, but a whole-query ring overflow
(Thm. A.2) splits across shards and only the combined identity sees it.
"""

from __future__ import annotations

import asyncio
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..core.device import EncryptedMatrix, PartialSumShare, QueryBatch, UntrustedNdpDevice
from ..errors import (
    ConfigurationError,
    PeerTimeoutError,
    RecoveryExhaustedError,
    SecNDPError,
    ServerClosedError,
    ShardVerificationError,
)
from ..faults.recovery import RecoveryPolicy
from ..serve.protocol import Directive, resolve_heartbeat_timeout
from .health import BLAME_WEIGHTS
from .node import NodeClient
from . import codec

__all__ = ["ClusterCoordinator", "ShardMap", "DEFAULT_BLAME_THRESHOLD"]

#: Weighted blame strikes before a node is quarantined.  1 = zero
#: tolerance: every failure kind carries weight >= 1
#: (:data:`~repro.cluster.health.BLAME_WEIGHTS`), so a single forged
#: share (cryptographic evidence) or missed deadline removes the node;
#: raise it when transient slowness is expected — then a forged share
#: (weight 3) still quarantines three times faster than deadline misses
#: (weight 1).
DEFAULT_BLAME_THRESHOLD = 1

#: How a failed dispatch is charged: exception -> (``cluster.dispatch.*``
#: counter suffix, audit-event / blame kind).  A share that fails its
#: check is cryptographic evidence; an error frame or a malformed
#: payload (``ConfigurationError``) is not a forgery but is unambiguous
#: misbehaviour on a well-formed request, so it is blamed the same way;
#: the rest are liveness failures.
_DISPATCH_FAILURES = {
    ShardVerificationError: ("blamed", obs.NODE_BLAME),
    ConfigurationError: ("blamed", obs.NODE_BLAME),
    PeerTimeoutError: ("timeout", obs.NODE_TIMEOUT),
    ServerClosedError: ("dead", obs.NODE_DEAD),
}


def _charge(exc: BaseException) -> Tuple[str, str]:
    """How ``exc`` is charged: its :data:`_DISPATCH_FAILURES` entry."""
    return next(v for t, v in _DISPATCH_FAILURES.items() if isinstance(exc, t))


def _versions(enc) -> Tuple[int, int, int]:
    return (enc.version, enc.checksum_version, enc.tag_version)


@dataclass
class ShardMap:
    """Logical row-range ownership: ``bounds[name][i]`` = node i's ``[lo, hi)``."""

    nodes: List[str]
    bounds: Dict[str, List[Tuple[int, int]]] = field(default_factory=dict)

    @classmethod
    def build(cls, nodes: Sequence[str], table_rows: Dict[str, int]) -> "ShardMap":
        nodes = list(nodes)
        bounds: Dict[str, List[Tuple[int, int]]] = {}
        for name, n_rows in table_rows.items():
            edges = np.linspace(0, n_rows, len(nodes) + 1).astype(np.int64)
            bounds[name] = [
                (int(edges[i]), int(edges[i + 1])) for i in range(len(nodes))
            ]
        return cls(nodes=nodes, bounds=bounds)

    def owner_mask(
        self, name: str, node: str, rows: Sequence[int], weights: Sequence[int]
    ) -> Tuple[List[int], List[int]]:
        lo, hi = self.bounds[name][self.nodes.index(node)]
        sub_r, sub_w = [], []
        for r, w in zip(rows, weights):
            if lo <= r < hi:
                sub_r.append(r)
                sub_w.append(w)
        return sub_r, sub_w

    def ranges_for(self, node: str) -> Dict[str, Tuple[int, int]]:
        i = self.nodes.index(node)
        return {name: self.bounds[name][i] for name in sorted(self.bounds)}


class ClusterCoordinator:
    """Serve verified SLS queries across N NDP node processes.

    Parameters
    ----------
    store:
        The authoritative store; its tables define the shard map, its
        processor holds the key and performs pad regeneration, per-shard
        verification and final combining, and its own ciphertext, summed
        locally, is the trusted recompute path of last resort.
    nodes:
        ``(name, host, port)`` triples or connected :class:`NodeClient`\\ s.
    policy:
        The one :class:`~repro.faults.recovery.RecoveryPolicy` both
        ladders climb under (here: ``max_retries``, ``backoff_s``).
    task_timeout_s:
        Per-dispatch deadline; ``None`` resolves the heartbeat default
        (``SECNDP_HEARTBEAT_TIMEOUT``).
    blame_threshold:
        Weighted strikes before quarantine
        (:data:`DEFAULT_BLAME_THRESHOLD`; weights from
        :data:`~repro.cluster.health.BLAME_WEIGHTS`).
    fault_injector:
        Optional :class:`~repro.faults.plan.FaultInjector` whose
        :meth:`node_directive` draws ship with each dispatch (chaos
        only; all randomness stays in one seeded coordinator-side
        stream).

    The order of the fault draws is a contract, so a seeded chaos run
    replays: a batch's first attempts draw synchronously, in shard
    order, before anything is awaited; every retry and failover draws
    when its ladder has charged the failure before it, so those draws
    follow the order in which the concurrent ladders observe their
    failures.
    """

    def __init__(
        self,
        store,
        nodes: Sequence,
        policy: Optional[RecoveryPolicy] = None,
        task_timeout_s: Optional[float] = None,
        blame_threshold: int = DEFAULT_BLAME_THRESHOLD,
        fault_injector=None,
    ):
        if not nodes:
            raise ConfigurationError("a cluster needs at least one node")
        if not store.verify:
            raise ConfigurationError(
                "cluster serving requires verify=True (per-shard blame "
                "is built on tag shares)"
            )
        self.store = store
        self.clients: Dict[str, NodeClient] = {}
        for node in nodes:
            client = (
                node if isinstance(node, NodeClient) else NodeClient(*node)
            )
            if client.name in self.clients:
                raise ConfigurationError(f"duplicate node name {client.name!r}")
            self.clients[client.name] = client
        self.policy = policy or RecoveryPolicy()
        self.task_timeout_s = resolve_heartbeat_timeout(task_timeout_s)
        self.blame_threshold = int(blame_threshold)
        self.fault_injector = fault_injector
        self.live: List[str] = list(self.clients)
        self.quarantined: List[str] = []
        # Weighted strikes (BLAME_WEIGHTS), not raw event counts.
        self.blame_counts: Dict[str, float] = {name: 0.0 for name in self.clients}
        self.shard_map: Optional[ShardMap] = None
        # Per table, the version triple of the replica the nodes hold.
        self._shipped: Dict[str, Tuple[int, int, int]] = {}
        self._dispatch_seq = 0

    # -- lifecycle -------------------------------------------------------------

    async def setup(self) -> "ClusterCoordinator":
        """Connect every node and ship params and encrypted table replicas.

        Only public scheme params and already-encrypted tables travel —
        never key material; a node that stored them learns nothing
        beyond what the SecNDP threat model already concedes to the
        untrusted memory (ciphertext, tags, and access patterns).
        """
        self.shard_map = self._build_shard_map()
        tables = self._replicas()
        for name in self.live:
            await self.clients[name].connect()
            await self._assign(name, tables)
        obs.emit_event(
            obs.CLUSTER_START, nodes=list(self.live), tables=self.store.tables()
        )
        return self

    async def close(self) -> None:
        for name, client in self.clients.items():
            try:
                if name in self.live:
                    await client.request("shutdown", timeout=self.task_timeout_s)
            except SecNDPError:
                pass
            await client.close()
        obs.emit_event(
            obs.CLUSTER_DRAIN,
            nodes=list(self.live),
            quarantined=list(self.quarantined),
        )

    async def __aenter__(self) -> "ClusterCoordinator":
        return await self.setup()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    # -- serving ---------------------------------------------------------------

    async def sls_many(
        self,
        name: str,
        batch_rows: Sequence[Sequence[int]],
        batch_weights: Optional[Sequence[Sequence[int]]] = None,
    ) -> np.ndarray:
        """Batched verified SLS across the cluster (bit-identical to
        :meth:`SecureEmbeddingStore.sls_many` on one host).

        The store's validator runs first, so a query a single host would
        refuse is refused here with the same error and nothing is sent:
        a row no shard owns can never fall out of the owner masks unseen.
        """
        batch = self.store.validate_batch(name, batch_rows, batch_weights)
        enc = self.store.device.stored(name)
        if self.shard_map is not None and self._shipped.get(name) != _versions(enc):
            # Re-encrypted trusted-side: refresh the stale replicas.
            await self._assign_live(self._replicas())
        if self.shard_map is None or not self.live or not batch.rows.size:
            # Every node is quarantined (or no query has a term): the
            # coordinator's own honest device serves the whole batch
            # (still verified, still bit-identical — it IS the oracle path).
            return self.store.sls_many(name, batch)
        # Snapshot ownership: a mid-batch quarantine rebuilds
        # ``self.shard_map`` for *future* batches, while this batch's
        # masks stay on the bounds its earlier dispatches used (the
        # failed node's sub-batch is re-served with the same mask, so
        # rows are never dropped or double-counted).  ``enc`` is the
        # batch's version snapshot the same way: a trusted-side
        # re-encryption mid-batch reaches the next batch, not this one.
        smap = self.shard_map
        nodes, parts = [], []
        for node, (lo, hi) in zip(list(smap.nodes), smap.bounds[name]):
            mask = (batch.rows >= lo) & (batch.rows < hi)
            if mask.any():
                nodes.append(node)
                parts.append(batch.select(mask))
        # The trusted half, once per shard and before any dispatch: every
        # rung that serves a shard (retry, replica, local) reuses its pad.
        processor = self.store.processor
        pads = [processor.pad_share_batch(enc, name, part) for part in parts]
        # Every shard in flight at once, each on its own ladder; the first
        # attempts' fault draws are made here, in shard order, before any
        # ladder starts.
        directives = [self._draw(node) for node in nodes]
        ladders = []
        for node, part, pad, directive in zip(nodes, parts, pads, directives):
            self._dispatch_seq += 1
            ladders.append(asyncio.ensure_future(self._dispatch_with_recovery(
                enc, name, node, part, pad, self._dispatch_seq, directive
            )))
        try:
            shares = await asyncio.gather(*ladders)
        except BaseException:
            # One ladder raised: the others are cancelled and awaited, so
            # none outlives the batch and no exception goes unretrieved.
            for ladder in ladders:
                ladder.cancel()
            await asyncio.gather(*ladders, return_exceptions=True)
            raise
        # Every share already passed its per-shard check during the
        # ladder; the combined check still runs for the cross-shard
        # overflow case.
        values = self.store.processor.finalize_row_sums(enc, name, shares, verify=True)
        return self.store.dequantize(name, values, batch.weight_sums())

    async def sls(self, name, rows, weights=None) -> np.ndarray:
        out = await self.sls_many(
            name, [rows], None if weights is None else [weights]
        )
        return out[0]

    # -- the node-level recovery ladder ----------------------------------------

    def _draw(self, node: Optional[str]) -> Optional[Directive]:
        """The fault draw for ``node``'s next dispatch (chaos runs only)."""
        if self.fault_injector is None or node is None:
            return None
        return Directive.of(self.fault_injector.node_directive(f"node:{node}"))

    async def _dispatch_with_recovery(
        self, enc: EncryptedMatrix, name: str, node: str, batch: QueryBatch,
        pad: PartialSumShare, dispatch: int, directive: Optional[Directive],
    ) -> PartialSumShare:
        """Serve one node's sub-batch, whose pad half over ``enc`` is ``pad``;
        ``directive`` is the fault draw of its first attempt, at ``node``.

        Returns the verified share.  Rungs: bounded same-node retry ->
        healthy replica -> trusted local recompute.  Raises
        :class:`RecoveryExhaustedError` only if even the local path fails
        (it cannot, short of a corrupted local device — which the store's
        own ladder handles).
        """
        # Stable per-node salt (not hash(): PYTHONHASHSEED would make the
        # jitter differ across runs; all chaos randomness stays seeded).
        salt = zlib.crc32(node.encode("utf-8")) & 0x7FFFFFFF
        words = codec.query_words(batch)
        tried: List[str] = []
        target: Optional[str] = node
        attempt = 0
        while True:
            if target is None:
                return self._local_share(enc, name, node, batch, pad)
            try:
                share = await self._dispatch_once(enc, name, target, words, pad, directive)
                if target != node:
                    obs.inc("cluster.failovers")
                return share
            except tuple(_DISPATCH_FAILURES) as exc:
                if target in self.live:  # else its quarantine stands for it
                    suffix, kind = _charge(exc)
                    obs.inc(f"cluster.dispatch.{suffix}")
                    details = {}
                    if kind == obs.NODE_BLAME:
                        if isinstance(exc, ShardVerificationError):
                            details["queries"] = list(exc.queries)
                        else:
                            details["reason"] = str(exc)
                    obs.emit_event(
                        kind, table=name, worker=target, dispatch=dispatch, **details
                    )
                    await self._blame(target, kind, f"dispatch:{dispatch}")
            tried.append(target)
            # Rung 1: bounded retry against the same node (unless it was
            # just quarantined) with deterministic backoff+jitter.
            retry = target in self.live and attempt < self.policy.max_retries
            if not retry:
                # Rung 2: a healthy replica (full replication makes every
                # live node a replica for any row range).
                attempt = 0
                target = next((n for n in self.live if n not in tried), None)
            directive = self._draw(target)
            if retry:
                await asyncio.sleep(self.policy.backoff_s(attempt, salt))
                attempt += 1
                obs.inc("cluster.dispatch.retry")

    async def _dispatch_once(
        self, enc: EncryptedMatrix, name: str, node: str, words: Dict[str, object],
        pad: PartialSumShare, directive: Optional[Directive],
    ) -> PartialSumShare:
        response = await self.clients[node].request(
            "partial_sum", table=name, payload=words,
            timeout=self.task_timeout_s, directive=directive,
        )
        # The crypto core: the node only returned ciphertext-domain sums
        # (malformed ones, or ones shaped unlike the pad half, raise
        # ConfigurationError: blame); the pad half was generated key-side
        # over the snapshot the node's replica holds, so the key never
        # crossed the wire and a share failing its own restricted
        # checksum is evidence against exactly this node.
        values, tag_sums = codec.decode_device_sums(
            response.payload.get("sums", {}), self.store.processor.params
        )
        processor = self.store.processor
        share, failed = processor.combine_and_verify(enc, name, pad, values, tag_sums)
        if failed:
            raise processor.shard_error(name, node, failed)
        return share

    def _local_share(
        self, enc: EncryptedMatrix, name: str, node: str, batch: QueryBatch,
        pad: PartialSumShare,
    ) -> PartialSumShare:
        """Rung 3: trusted recompute of the device half over the snapshot."""
        obs.inc("cluster.failovers")
        obs.emit_event(
            obs.RECOVERY_FALLBACK,
            table=name,
            worker=node,
            scope="cluster",
            queries=len(batch),
        )
        device = UntrustedNdpDevice(self.store.processor.params)
        device.store(name, enc)
        processor = self.store.processor
        share, failed = processor.combine_and_verify(
            enc, name, pad, *device.partial_sum_batch(name, batch)
        )
        if failed:
            exc = processor.shard_error(name, "local", failed)
            raise RecoveryExhaustedError(
                f"trusted local recompute failed verification for {name!r}: "
                f"{exc} (local device corrupted?)"
            ) from exc
        return share

    # -- blame / quarantine / re-shard -----------------------------------------

    async def _blame(self, node: str, kind: str, context: str) -> None:
        """Add ``kind``'s weighted strikes (shared with the journal view).

        Live quarantine and the offline :func:`~repro.cluster.health.
        blame_ranking` use the same :data:`~repro.cluster.health.
        BLAME_WEIGHTS` table, so replaying the journal reproduces the
        ordering the coordinator acted on.
        """
        weight = BLAME_WEIGHTS.get(kind, 1.0)
        self.blame_counts[node] = self.blame_counts.get(node, 0.0) + weight
        if node in self.live and self.blame_counts[node] >= self.blame_threshold:
            await self._quarantine(node, context)

    async def _quarantine(self, node: str, context: str) -> None:
        self.live.remove(node)
        self.quarantined.append(node)
        obs.emit_event(
            obs.NODE_QUARANTINE,
            worker=node,
            strikes=self.blame_counts[node],
            context=context,
            remaining=list(self.live),
        )
        await self._reshard()

    async def _reshard(self) -> None:
        """Re-own quarantined rows: new bounds over the survivors only.

        Full replication means no ciphertext moves — each survivor just
        receives its new logical ranges (tables omitted = keep replica).
        """
        if not self.live:
            # Last node gone: the coordinator's local device serves
            # everything (rung 3) until nodes come back.
            self.shard_map = None
            obs.emit_event(obs.NODE_RESHARD, nodes=[], drained=True)
            return
        self.shard_map = self._build_shard_map()
        await self._assign_live()
        obs.emit_event(
            obs.NODE_RESHARD,
            nodes=list(self.live),
            quarantined=list(self.quarantined),
        )

    def _build_shard_map(self) -> ShardMap:
        return ShardMap.build(
            self.live,
            {
                name: self.store.device.stored(name).n_rows
                for name in self.store.tables()
            },
        )

    def _replicas(self) -> Dict[str, dict]:
        """Every table encoded for shipping; remembers the versions sent."""
        stored = {name: self.store.device.stored(name) for name in self.store.tables()}
        self._shipped = {name: _versions(enc) for name, enc in stored.items()}
        return {name: codec.encode_table(enc) for name, enc in stored.items()}

    async def _assign(self, node: str, tables: Optional[Dict[str, dict]] = None) -> None:
        """One ``shard_assign`` frame: ``node``'s ranges, plus replicas if given."""
        payload = {
            "params": codec.encode_params(self.store.processor.params),
            "ranges": {
                t: list(r) for t, r in self.shard_map.ranges_for(node).items()
            },
        }
        if tables is not None:
            payload["tables"] = tables
        await self.clients[node].request(
            "shard_assign", payload=payload, timeout=self.task_timeout_s
        )

    async def _assign_live(self, tables: Optional[Dict[str, dict]] = None) -> None:
        """:meth:`_assign` every live node; one that cannot take it is blamed.

        With ``tables`` this is a replica refresh after a trusted-side
        re-encryption, without it a re-shard; the journal names which.
        """
        context = "refresh" if tables is not None else "reshard"
        for name in list(self.live):
            if name not in self.live:  # quarantined by an earlier iteration
                continue
            try:
                await self._assign(name, tables)
            except tuple(_DISPATCH_FAILURES) as exc:
                if name not in self.live:  # quarantined meanwhile: charged already
                    continue
                # Recursion through _quarantine -> _reshard terminates
                # because live shrinks each time.
                _suffix, kind = _charge(exc)
                obs.emit_event(kind, worker=name, context=context)
                await self._blame(name, kind, context)

    # -- reporting -------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        return {
            "live": list(self.live),
            "quarantined": list(self.quarantined),
            "blame_counts": dict(self.blame_counts),
        }
