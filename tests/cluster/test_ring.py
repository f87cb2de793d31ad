"""The consistent-hash ring: routing laws, balance, minimal movement."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.ring import HashRing, ring_hash


def keys(count: int) -> list[str]:
    return [f"task-{i}" for i in range(count)]


node_names = st.lists(
    st.text(alphabet="abcdefgh", min_size=1, max_size=4),
    min_size=1, max_size=8, unique=True,
)


class TestRingBasics:
    def test_empty_ring_raises(self):
        ring = HashRing()
        with pytest.raises(LookupError):
            ring.node_for("anything")
        with pytest.raises(LookupError):
            ring.nodes_for("anything")

    def test_single_node_owns_everything(self):
        ring = HashRing(["only"])
        assert all(ring.node_for(k) == "only" for k in keys(100))

    def test_routing_is_deterministic(self):
        ring_a = HashRing(["w0", "w1", "w2"])
        ring_b = HashRing(["w2", "w0", "w1"])  # insertion order irrelevant
        for key in keys(200):
            assert ring_a.node_for(key) == ring_b.node_for(key)

    def test_hash_is_process_independent(self):
        # sha256, not salted builtin hash: the routing table would differ
        # between router restarts otherwise, churning every cache.
        assert ring_hash("w0#0") == int.from_bytes(
            __import__("hashlib").sha256(b"w0#0").digest()[:8], "big",
        )

    def test_add_remove_idempotent(self):
        ring = HashRing(["a", "b"])
        ring.add("a")
        ring.remove("missing")
        assert ring.nodes == frozenset({"a", "b"})
        ring.remove("a")
        ring.remove("a")
        assert ring.nodes == frozenset({"b"})
        assert len(ring) == 1

    def test_nodes_for_preference_list(self):
        ring = HashRing(["w0", "w1", "w2"])
        for key in keys(50):
            preference = ring.nodes_for(key)
            assert preference[0] == ring.node_for(key)
            assert sorted(preference) == ["w0", "w1", "w2"]  # all, distinct
            assert ring.nodes_for(key, count=2) == preference[:2]

    def test_removal_promotes_next_preference(self):
        ring = HashRing(["w0", "w1", "w2"])
        for key in keys(50):
            first, second = ring.nodes_for(key, count=2)
            ring.remove(first)
            assert ring.node_for(key) == second
            ring.add(first)

    def test_ownership_diagnostics(self):
        ring = HashRing(["w0", "w1"])
        counts = ring.ownership(keys(100))
        assert sum(counts.values()) == 100
        assert set(counts) == {"w0", "w1"}


class TestRingProperties:
    @given(nodes=node_names)
    @settings(max_examples=30, deadline=None)
    def test_balance_within_bounds(self, nodes):
        """No node owns a pathological share of the keyspace: every node
        stays within 4x of the fair share (the gate that matters
        operationally — no worker melts while the rest idle)."""
        ring = HashRing(nodes)
        sample = keys(1000)
        counts = ring.ownership(sample)
        fair = len(sample) / len(nodes)
        assert max(counts.values()) <= max(4 * fair, 25)

    @given(nodes=node_names, extra=st.text(alphabet="xyz", min_size=1, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_minimal_movement_on_join(self, nodes, extra):
        """Adding one node only moves keys *to* that node — consistent
        hashing's defining property.  Keys never shuffle between the
        survivors, so their worker caches stay warm."""
        if extra in nodes:
            nodes = [n for n in nodes if n != extra]
            if not nodes:
                return
        ring = HashRing(nodes)
        sample = keys(400)
        before = {key: ring.node_for(key) for key in sample}
        ring.add(extra)
        after = {key: ring.node_for(key) for key in sample}
        for key in sample:
            if after[key] != before[key]:
                assert after[key] == extra
        moved = sum(1 for key in sample if after[key] != before[key])
        # Expected share is ~1/(n+1); allow generous slack for hash noise.
        assert moved <= len(sample) * 3 / (len(nodes) + 1) + 30

    @given(nodes=node_names)
    @settings(max_examples=30, deadline=None)
    def test_minimal_movement_on_leave(self, nodes):
        """Removing a node only moves *its* keys; add-then-remove is a
        perfect round-trip back to the original routing table."""
        ring = HashRing(nodes)
        sample = keys(400)
        before = {key: ring.node_for(key) for key in sample}
        victim = sorted(nodes)[0]
        ring.remove(victim)
        if len(ring):
            after = {key: ring.node_for(key) for key in sample}
            for key in sample:
                if before[key] != victim:
                    assert after[key] == before[key]
        ring.add(victim)
        assert {key: ring.node_for(key) for key in sample} == before
