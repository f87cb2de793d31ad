"""Rendezvous (highest-random-weight) hashing over the worker set.

Every (node, key) pair gets a pseudo-random weight (sha256 of
``"{node}#{key}"``); a key belongs to the node with the highest weight.
Two properties matter for the cluster:

* **balance** — the weights are independent per node, so each worker
  owns a roughly equal share of the canonical task keys;
* **stability** — a node's weights do not depend on who else is in the
  set, so adding a worker moves keys only *to* it and removing one moves
  only *its* keys (~1/n of the keyspace), and a respawned worker, which
  keeps its id, owns the same keys as before.  The per-worker in-memory
  caches stay warm across membership changes, where modulo hashing would
  reshuffle nearly every key.

``nodes_for`` ranks the nodes by weight — the router's retry/hedging
preference list: the owner first, then the order in which the others
would take the key over.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

__all__ = ["HashRing"]


def ring_hash(token: str) -> int:
    """A stable 64-bit weight (process-independent)."""
    digest = hashlib.sha256(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class HashRing:
    """Rendezvous hashing over an explicit node set."""

    def __init__(self, nodes: Iterable[str] = ()) -> None:
        self._nodes: set[str] = set(nodes)

    def add(self, node: str) -> None:
        """Put ``node`` in the set (idempotent)."""
        self._nodes.add(node)

    def remove(self, node: str) -> None:
        """Take ``node`` out of the set (idempotent)."""
        self._nodes.discard(node)

    @property
    def nodes(self) -> frozenset[str]:
        return frozenset(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    def node_for(self, key: str) -> str:
        """The node owning ``key`` (the highest weight)."""
        return self.nodes_for(key, 1)[0]

    def nodes_for(self, key: str, count: int | None = None) -> list[str]:
        """Up to ``count`` *distinct* nodes in preference order.

        The first entry is ``node_for(key)``; the rest are the fallback
        owners a router should retry on worker death, in the order they
        would own ``key`` as the nodes before them leave.  ``count=None``
        returns every node.
        """
        if not self._nodes:
            raise LookupError("hash ring is empty")
        ranked = sorted(
            self._nodes,
            key=lambda node: (ring_hash(f"{node}#{key}"), node),
            reverse=True,
        )
        return ranked if count is None else ranked[:count]

    def ownership(self, keys: Iterable[str]) -> dict[str, int]:
        """How many of ``keys`` each node owns (balance diagnostics)."""
        counts = {node: 0 for node in self._nodes}
        for key in keys:
            counts[self.node_for(key)] += 1
        return counts
