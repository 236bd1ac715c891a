"""Consistent hashing: fingerprint-affine request placement.

The cluster routes each request by the structural fingerprints of its
operands so that repeated multiplications of the same structures land on
the same node and keep hitting that node's plan cache.  A consistent
hash ring gives this affinity *and* minimal disruption on membership
change: when a node joins or leaves, only the keys in the arc segments
it owns move — every other key keeps its home (the stability property
``tests/test_cluster.py`` checks with hypothesis).

Hashing is ``blake2b``-based and therefore stable across processes and
Python versions — never ``hash()``, whose randomisation would break the
byte-identical-report determinism guarantee of ``cluster-bench``.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, Iterable, List, Tuple

__all__ = ["HashRing", "stable_hash"]

#: Virtual nodes per ring member.
VNODES = 64


def stable_hash(key: str) -> int:
    """A process-stable 64-bit hash of ``key``."""
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class HashRing:
    """A consistent-hash ring with virtual nodes.

    Each member is placed at :data:`VNODES` pseudo-random points on a 64-bit
    ring; a key routes to the member owning the first point at or after
    the key's hash (wrapping).  More virtual nodes smooth the key-space
    share per member at the cost of a larger sorted table; 64 keeps the
    per-node share within a few percent of uniform for small fleets.
    """

    def __init__(self, members: Iterable[str] = ()) -> None:
        self._points: List[Tuple[int, str]] = []
        self._members: Dict[str, List[int]] = {}
        for name in members:
            self.add(name)

    # ------------------------------------------------------------------
    def add(self, name: str) -> None:
        """Join ``name``; only keys in its arcs move to it."""
        if name in self._members:
            raise ValueError(f"member {name!r} already on the ring")
        hashes = [stable_hash(f"{name}#{i}") for i in range(VNODES)]
        self._members[name] = hashes
        for h in hashes:
            bisect.insort(self._points, (h, name))

    def remove(self, name: str) -> None:
        """Leave ``name``; only keys it owned move, to their arc successors."""
        hashes = self._members.pop(name, None)
        if hashes is None:
            raise KeyError(f"member {name!r} not on the ring")
        self._points = [(h, n) for h, n in self._points if n != name]

    def __contains__(self, name: str) -> bool:
        return name in self._members

    # ------------------------------------------------------------------
    def route(self, key: str) -> str:
        """The member owning ``key``."""
        if not self._points:
            raise KeyError("ring is empty")
        h = stable_hash(key)
        idx = bisect.bisect_left(self._points, (h, ""))
        if idx == len(self._points):
            idx = 0
        return self._points[idx][1]

    def preference(self, key: str, n: int) -> List[str]:
        """The first ``n`` *distinct* members walking the ring from ``key``.

        ``preference(key, 1)[0] == route(key)``; subsequent entries are
        the natural failover / replication targets of the key, visited in
        ring order.
        """
        if not self._points:
            raise KeyError("ring is empty")
        n = min(n, len(self._members))
        h = stable_hash(key)
        idx = bisect.bisect_left(self._points, (h, ""))
        out: List[str] = []
        for step in range(len(self._points)):
            name = self._points[(idx + step) % len(self._points)][1]
            if name not in out:
                out.append(name)
                if len(out) == n:
                    break
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HashRing({len(self._members)} members)"
