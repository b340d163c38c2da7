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
2. **Dispatch**: each query batch is split by owner once
   (:meth:`ShardMap.split`) and encoded once; each owner's sub-batch, a
   byte slice of the words, is written at once, in shard order, as a
   binary ``partial_sum`` frame under a deadline, so every shard is in
   flight before the trusted half runs.  Then the coordinator generates
   the pad halves (``E_res`` / ``E_T_res``) key-side, one fused pass
   over the split batch
   (:meth:`~repro.core.protocol.SecNDPProcessor.pad_share_batch`) on the
   one table version the whole batch reads, each shard's half a row
   slice of it, and waits once for every share.  A node answers with
   ciphertext-domain sums only (``C_res`` / ``C_T_res``); as each answer
   arrives the coordinator adds it onto its pad half and checks it in
   one pass (:meth:`~repro.core.protocol.SecNDPProcessor.combine_and_verify`).
   A clean batch starts no task: only a shard whose first attempt
   fails climbs a recovery ladder, in a task of its own, from then on.
3. **Blame**: each reconstructed share is verified against its *own*
   restricted checksum, in that pass and before any cross-shard
   combining.  A mismatch is cryptographic evidence against exactly
   that node (publicly-identifiable abort), up to the scheme's forgery
   bound, once the coordinator has summed the node's sub-batch itself
   and found the node's sums differ: equal sums put the fault on the
   trusted side's pad half, which is swept again and never charged.
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
import functools
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

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
    TrustedSideError,
)
from ..faults import hooks as fault_hooks
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


class _Shard(NamedTuple):
    """A shard of a batch in flight, and its first attempt's answer."""

    index: int
    node: str
    words: Dict[str, object]
    dispatch: int
    answer: asyncio.Future


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

    def split(self, name: str, batch: QueryBatch) -> QueryBatch:
        """``batch`` regrouped by owner in one stable sort: segment ``s *
        n_q + q`` holds query ``q``'s terms node ``s`` owns, in order, so
        node ``s``'s sub-batch is one contiguous run (``n_q = len(batch)``)."""
        n_q, starts = len(batch), [lo for lo, _ in self.bounds[name]]
        key = (np.searchsorted(starts, batch.rows, side="right") - 1) * n_q
        key += np.repeat(np.arange(n_q), np.diff(batch.offsets))
        order = np.argsort(key, kind="stable")
        offsets = np.concatenate(([0], np.cumsum(np.bincount(key, minlength=len(starts) * n_q))))
        return QueryBatch(batch.rows[order], batch.weights[order], offsets)

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
    follow the order in which the shards' failures are observed.
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
        a row no shard owns can never fall out of the owner split unseen.
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
        # split stays on the bounds its earlier dispatches used (the
        # failed node's sub-batch is re-served as it was split, so rows
        # are never dropped or double-counted).  ``enc`` is the batch's
        # version snapshot the same way: a trusted-side re-encryption
        # mid-batch reaches the next batch, not this one.
        smap = self.shard_map
        n_q, split = len(batch), smap.split(name, batch)
        words = codec.query_words(split)
        edges = split.offsets[::n_q].tolist()  # shard s's terms: [edges[s], edges[s + 1])
        # Every shard with terms is in flight before the trusted half runs:
        # the first attempts are drawn and written here, in shard order,
        # so the nodes sum while the pad sweep runs.
        shards: List[_Shard] = []
        try:
            for s, node in enumerate(smap.nodes):
                if edges[s] == edges[s + 1]:
                    continue
                self._dispatch_seq += 1
                sub = codec.slice_words(words, (s * n_q, (s + 1) * n_q), edges[s:s + 2])
                answer = self._send(node, name, sub, self._draw(node))
                shards.append(_Shard(s, node, sub, self._dispatch_seq, answer))
            # The trusted half, once per batch: every shard, on every rung
            # (retry, replica, local), takes its row slice of it.
            pad = self.store.processor.pad_share_batch(enc, name, split)
        except BaseException:
            for shard in shards:
                shard.answer.cancel()
            raise
        shares = await self._collect(enc, name, pad, n_q, shards)
        # Every share passed its per-shard check as it arrived; the
        # combined check still runs for the cross-shard overflow case.
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

    def _send(
        self, node: str, name: str, words: Dict[str, object], directive: Optional[Directive]
    ) -> asyncio.Future:
        """One ``partial_sum`` attempt at ``node``, written now; its answer's future."""
        return self.clients[node].send(
            "partial_sum", table=name, payload=words,
            timeout=self.task_timeout_s, directive=directive,
        )

    async def _collect(
        self, enc: EncryptedMatrix, name: str, pad: PartialSumShare, n_q: int,
        shards: List["_Shard"],
    ) -> List[PartialSumShare]:
        """The one wait of a batch: a future that settles when every shard
        has its verified share, from the pad sweep ``pad`` (shard ``s``'s
        half is its rows ``[s * n_q, (s + 1) * n_q)``); the shares, in
        shard order.

        Each first answer is checked as it arrives (:meth:`_share`, in a
        done-callback).  A shard whose first attempt fails starts its
        ladder then, in a task of its own; a clean batch starts none.  If
        a ladder raises, what is still in flight is cancelled and awaited
        before this raises, so no task outlives the batch.
        """
        done = asyncio.get_running_loop().create_future()
        shares: List[Optional[PartialSumShare]] = [None] * len(shards)
        ladders: List[asyncio.Task] = []

        def landed(i: int, half: Optional[PartialSumShare], answer: asyncio.Future) -> None:
            # A first answer over its pad half, or (``half`` None) a ladder's
            # outcome.  A failed batch is owed nothing: the wait below
            # retrieves what is still in flight.
            if done.done():
                return
            shard = shards[i]
            try:
                share = answer.result() if half is None else self._share(
                    enc, name, shard.node, shard.words, half, answer
                )
            except BaseException as exc:
                if half is None or not isinstance(exc, tuple(_DISPATCH_FAILURES)):
                    done.set_exception(exc)
                    return
                ladder = asyncio.ensure_future(self._dispatch_with_recovery(
                    enc, name, shard.node, shard.words, half, shard.dispatch, exc
                ))
                ladder.add_done_callback(functools.partial(landed, i, None))
                ladders.append(ladder)
                return
            shares[i] = share
            if None not in shares:
                done.set_result(None)

        for i, shard in enumerate(shards):
            rows = slice(shard.index * n_q, (shard.index + 1) * n_q)
            half = PartialSumShare(pad.values[rows], pad.tag_shares[rows])
            shard.answer.add_done_callback(functools.partial(landed, i, half))
        try:
            await done
        except BaseException:
            in_flight = (*ladders, *(shard.answer for shard in shards))
            for pending in in_flight:
                pending.cancel()
            await asyncio.gather(*in_flight, return_exceptions=True)
            raise
        return shares

    def _share(
        self, enc: EncryptedMatrix, name: str, node: str, words: Dict[str, object],
        pad: PartialSumShare, answer: asyncio.Future,
    ) -> PartialSumShare:
        """The verified share in ``node``'s settled ``answer`` to the
        sub-batch ``words``, over its pad half ``pad``; a failed attempt
        raises one of :data:`_DISPATCH_FAILURES`, to be charged."""
        response = self.clients[node].answer(answer, "partial_sum", self.task_timeout_s)
        # The crypto core: the node only returned ciphertext-domain sums
        # (malformed ones, or ones shaped unlike the pad half, raise
        # ConfigurationError: blame); the pad half was generated key-side
        # over the snapshot the node's replica holds, so the key never
        # crossed the wire and a share failing its own restricted
        # checksum is evidence against exactly this node.
        processor = self.store.processor
        values, tag_sums = codec.decode_device_sums(
            response.payload.get("sums", {}), processor.params
        )
        share, failed = processor.combine_and_verify(enc, name, pad, values, tag_sums)
        if failed:
            return self._recheck(enc, name, node, words, values, tag_sums, failed)
        return share

    def _recheck(
        self, enc: EncryptedMatrix, name: str, node: str, words: Dict[str, object],
        values: np.ndarray, tag_sums: np.ndarray, failed: List[int],
    ) -> PartialSumShare:
        """Whom a failed check of ``node``'s sums to ``words`` blames.

        Sums that differ from the coordinator's own over ``enc`` (summed
        with the injector disarmed) raise the shard error, to be charged.
        Equal sums put the fault on the trusted side: the pad half is
        swept again and the share re-checked, and nobody is charged; a
        second failure raises :class:`TrustedSideError`.
        """
        processor = self.store.processor
        batch = codec.decode_queries(words, processor.ring)
        with fault_hooks.disarmed():
            own_values, own_tags = self._own_sums(enc, name, batch)
        if not (np.array_equal(values, own_values) and np.array_equal(tag_sums, own_tags)):
            raise processor.shard_error(name, node, failed)
        pad = processor.pad_share_batch(enc, name, batch)
        share, failed = processor.combine_and_verify(enc, name, pad, values, tag_sums)
        if failed:
            raise TrustedSideError(
                f"the trusted side's pad half for {name!r} failed its re-check "
                f"(queries {failed}); node {node!r}'s sums equal the coordinator's own"
            )
        return share

    def _own_sums(
        self, enc: EncryptedMatrix, name: str, batch: QueryBatch
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The device half of ``batch``, summed here over the snapshot ``enc``."""
        device = UntrustedNdpDevice(self.store.processor.params)
        device.store(name, enc)
        return device.partial_sum_batch(name, batch)

    async def _dispatch_with_recovery(
        self, enc: EncryptedMatrix, name: str, node: str, words: Dict[str, object],
        pad: PartialSumShare, dispatch: int, failure: BaseException,
    ) -> PartialSumShare:
        """Serve one node's sub-batch ``words``, whose pad half over ``enc`` is
        ``pad``, after its first attempt failed with ``failure``.

        Returns the verified share.  The failure is charged, then the rungs
        are climbed: bounded same-node retry -> healthy replica -> trusted
        local recompute.  Raises :class:`RecoveryExhaustedError` only if
        even the local path fails (it cannot, short of a corrupted local
        device — which the store's own ladder handles).
        """
        # Stable per-node salt (not hash(): PYTHONHASHSEED would make the
        # jitter differ across runs; all chaos randomness stays seeded).
        salt = zlib.crc32(node.encode("utf-8")) & 0x7FFFFFFF
        tried: List[str] = []
        target: Optional[str] = node
        attempt = 0
        while True:
            if target in self.live:  # else its quarantine stands for it
                suffix, kind = _charge(failure)
                obs.inc(f"cluster.dispatch.{suffix}")
                details = {}
                if kind == obs.NODE_BLAME:
                    if isinstance(failure, ShardVerificationError):
                        details["queries"] = list(failure.queries)
                    else:
                        details["reason"] = str(failure)
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
            if target is None:
                return self._local_share(enc, name, node, words, pad)
            answer = self._send(target, name, words, directive)
            try:
                await asyncio.wait((answer,))
            finally:
                answer.cancel()  # the ladder was cancelled: nothing is owed to it
            try:
                share = self._share(enc, name, target, words, pad, answer)
            except tuple(_DISPATCH_FAILURES) as exc:
                failure = exc
                continue
            if target != node:
                obs.inc("cluster.failovers")
            return share

    def _local_share(
        self, enc: EncryptedMatrix, name: str, node: str, words: Dict[str, object],
        pad: PartialSumShare,
    ) -> PartialSumShare:
        """Rung 3: trusted recompute of the device half over the snapshot."""
        processor = self.store.processor
        batch = codec.decode_queries(words, processor.ring)
        obs.inc("cluster.failovers")
        obs.emit_event(
            obs.RECOVERY_FALLBACK,
            table=name,
            worker=node,
            scope="cluster",
            queries=len(batch),
        )
        share, failed = processor.combine_and_verify(
            enc, name, pad, *self._own_sums(enc, name, batch)
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
