"""The cluster plan index: who holds which plan, and what a fetch costs.

Consistent hashing gives each operand structure a *home* node whose plan
cache absorbs its reuse.  But requests do not always run at home — load
spills, failover after a crash — and a node serving a foreign structure
cold would pay the full analysis + symbolic pipeline that the plan cache
exists to avoid.  The :class:`PlanIndex` is the cluster-level directory
that fixes this: it records, per plan key, which nodes hold a populated
plan, so a spilled request can *fetch a replica* from a peer over the
interconnect instead of recomputing.

The fetch is not free: the transfer of the plan's arrays is charged at
the NVLink-class link constants from :mod:`repro.extensions.multigpu`
(the same constants the multi-GPU extension uses for its B broadcast).
It is, however, far cheaper than recomputation for every plan bigger
than a few kilobytes — and the adopted replica makes every subsequent
request for that structure on the spill node a local hit.

Plans are structure-derived **and device-derived** (binning and kernel
configurations depend on the device), so replicas only move between
nodes with an identical compatibility key (device + params); an
incompatible peer plan is recomputed, never transferred.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, List, Optional, Tuple

from ..serve.plan_cache import CachedPlan, PlanIntegrityError, plan_transfer_s

__all__ = ["PlanIndex", "plan_transfer_s"]

PlanKey = Tuple[str, ...]


class PlanIndex:
    """Directory of populated plans across the fleet.

    The index stores *locations only*, never plan objects — the plans
    stay in each node's own byte-budgeted cache, and a location is
    dropped when the holder evicts (lazily: a failed fetch unregisters)
    or crashes (:meth:`drop_node`).
    """

    def __init__(self) -> None:
        self._where: Dict[PlanKey, List[str]] = {}
        #: Replicas pulled through :meth:`fetch`: on-demand fetches of
        #: spilled work and warm-join hydration pulls alike.
        self.fetches = 0
        self.fetched_bytes = 0
        self.misses = 0
        #: Replicas refused at adopt time (checksum or compat mismatch).
        self.integrity_rejects = 0
        #: Replicas pushed ahead of demand (hot-key replication).
        self.proactive = 0
        self.proactive_bytes = 0
        #: Test-only: applied to every replica just before adoption, so
        #: planted-bug tests can hand the adopt path a stale or tampered
        #: frame and assert the checksum/compat verification refuses it.
        self._replica_hook: Optional[Callable[[CachedPlan], CachedPlan]] = None

    # ------------------------------------------------------------------
    def note(self, key: PlanKey, node: str) -> None:
        """Record that ``node`` holds a populated plan for ``key``."""
        holders = self._where.setdefault(key, [])
        if node not in holders:
            holders.append(node)
            holders.sort()  # deterministic fetch order

    def drop_node(self, node: str) -> None:
        """Forget every location on ``node`` (crash / decommission)."""
        for key in list(self._where):
            self._unregister(key, node)

    def _unregister(self, key: PlanKey, node: str) -> None:
        """Forget that ``node`` holds ``key``; a key no node holds goes."""
        holders = [n for n in self._where.get(key, ()) if n != node]
        if holders:
            self._where[key] = holders
        else:
            self._where.pop(key, None)

    def holders(self, key: PlanKey) -> List[str]:
        return list(self._where.get(key, ()))

    # ------------------------------------------------------------------
    def fetch(
        self,
        key: PlanKey,
        requester: "object",
        peers: Dict[str, "object"],
        mode: Optional[str] = None,
    ) -> Tuple[Optional[CachedPlan], float]:
        """Try to pull a replica of ``key`` for ``requester``.

        ``peers`` maps node name → :class:`~repro.cluster.node.ClusterNode`
        (alive nodes only).  With ``mode`` (the peer rung of a request's
        plan-source ladder), a holder whose plan cannot serve a ``mode``
        request (:meth:`~repro.serve.plan_cache.CachedPlan.serves`) is
        skipped before anything is copied, as the store rung skips such a
        frame; hydration passes none and takes any plan.  Returns
        ``(plan, transfer_s)``; ``(None, 0.0)`` when no compatible live
        holder has a usable plan.  The replica is a
        shallow copy with its own hit counter, adopted into the
        requester's cache (so it is budget-accounted and evictable there
        like any local plan).
        """
        for holder_name in self.holders(key):
            if holder_name == getattr(requester, "name", None):
                continue
            holder = peers.get(holder_name)
            if holder is None or not holder.alive:
                continue
            copied = self._copy(key, holder, requester, mode)
            if copied is None:
                continue
            adopted, nbytes = copied
            self.fetches += 1
            self.fetched_bytes += nbytes
            return adopted, plan_transfer_s(nbytes)
        self.misses += 1
        return None, 0.0

    # ------------------------------------------------------------------
    def roll_up_hits(self, nodes: Dict[str, "object"]) -> Dict[PlanKey, int]:
        """Fleet-wide plan heat: per-key hit counters summed over every
        node's :class:`~repro.serve.plan_cache.PlanCache`.

        The caches track lifetime hits per plan key
        (:meth:`~repro.serve.plan_cache.PlanCache.key_hits`, masked
        3-part keys included); rolling them up here is what turns a local
        LRU statistic into the cluster's replication signal.  Node order
        is sorted, so the rollup is deterministic.
        """
        totals: Dict[PlanKey, int] = {}
        for name in sorted(nodes):
            for key, hits in nodes[name].service.plans.key_hits().items():
                totals[key] = totals.get(key, 0) + hits
        return totals

    def hot_keys(
        self, nodes: Dict[str, "object"], *, k: int, min_hits: int = 1
    ) -> List[PlanKey]:
        """The top-``k`` hottest *indexed* plan keys, hottest first.

        Only keys with at least one recorded holder qualify — a key
        nobody holds any more cannot be replicated or hydrated from.
        Ties break on the key itself for determinism.
        """
        totals = self.roll_up_hits(nodes)
        ranked = sorted(
            (
                (hits, key)
                for key, hits in totals.items()
                if hits >= min_hits and self._where.get(key)
            ),
            key=lambda kv: (-kv[0], kv[1]),
        )
        return [key for _, key in ranked[:k]]

    def replicate(
        self, key: PlanKey, source: "object", target: "object"
    ) -> Tuple[bool, float]:
        """Push a replica of ``key`` from ``source`` onto ``target``.

        The proactive (pre-overload) counterpart of :meth:`fetch`: same
        compat gate, same checksum-verified adopt, same modelled
        interconnect charge — only the direction differs.  Returns
        ``(pushed, transfer_s)``; ``(False, 0.0)`` when the pair is
        incompatible, the source no longer holds the plan, or the
        replica fails verification.
        """
        copied = self._copy(key, source, target)
        if copied is None:
            return False, 0.0
        nbytes = copied[1]
        self.proactive += 1
        self.proactive_bytes += nbytes
        return True, plan_transfer_s(nbytes)

    def _copy(
        self,
        key: PlanKey,
        source: "object",
        target: "object",
        mode: Optional[str] = None,
    ) -> Optional[Tuple[CachedPlan, int]]:
        """Adopt ``source``'s plan for ``key`` into ``target``'s cache.

        The replica path :meth:`fetch` and :meth:`replicate` share: the
        compat gate; a source that evicted the plan is unregistered; the
        replica is a shallow copy with its own hit counter; a replica
        that no longer verifies (checksum drift, wrong compat stamp) is
        refused and counted in :attr:`integrity_rejects`, since it is
        worse than a cold recompute.  On success ``target`` becomes a
        holder.  A plan that cannot serve a ``mode`` request is left
        where it is.  Returns ``(adopted plan, its nbytes)`` or ``None``.
        """
        if source.plan_compat != target.plan_compat:
            return None
        plan = source.service.plans.peek(key)
        if plan is None:
            # The source evicted since we recorded it; unregister.
            self._unregister(key, source.name)
            return None
        if mode is not None and not plan.serves(mode):
            return None
        replica = replace(plan, hits=0)
        if self._replica_hook is not None:
            replica = self._replica_hook(replica)
        try:
            adopted = target.service.plans.adopt(
                replica, expected_compat=target.plan_compat
            )
        except PlanIntegrityError:
            self.integrity_rejects += 1
            return None
        self.note(key, target.name)
        return adopted, adopted.nbytes()

    def snapshot(self) -> Dict[str, object]:
        return {
            "plans_indexed": len(self._where),
            "replicated_plans": sum(
                1 for holders in self._where.values() if len(holders) > 1
            ),
            "fetches": self.fetches,
            "fetched_bytes": self.fetched_bytes,
            "misses": self.misses,
            "integrity_rejects": self.integrity_rejects,
            "proactive": self.proactive,
            "proactive_bytes": self.proactive_bytes,
        }
