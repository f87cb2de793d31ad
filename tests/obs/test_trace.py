"""Unit tests for span trees: nesting, propagation, ring buffers."""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.obs import (
    bind_current_context,
    child_span,
    clear_traces,
    current_span,
    current_trace_id,
    leaf_span,
    recent_traces,
    render_span,
    set_slowlog_threshold_ms,
    set_trace_sampling,
    set_tracing,
    slow_traces,
    span,
    span_to_dict,
    slowlog_threshold_ms,
    trace_sampling,
    tracing_enabled,
)


class TestNesting:
    def test_children_attach_to_the_enclosing_span(self):
        with span("outer", kind="demo") as outer:
            with span("mid") as mid:
                with span("inner"):
                    pass
        assert [c.name for c in outer.children] == ["mid"]
        assert [c.name for c in mid.children] == ["inner"]

    def test_trace_id_shared_down_the_tree(self):
        with span("outer") as outer:
            with span("inner") as inner:
                pass
        assert outer.trace_id is not None
        assert inner.trace_id == outer.trace_id

    def test_distinct_roots_get_distinct_ids(self):
        with span("a") as a:
            pass
        with span("b") as b:
            pass
        assert a.trace_id != b.trace_id

    def test_current_span_and_trace_id(self):
        assert current_span() is None
        assert current_trace_id() is None
        with span("outer") as outer:
            assert current_span() is outer
            assert current_trace_id() == outer.trace_id
        assert current_span() is None

    def test_exceptions_mark_the_span(self):
        with pytest.raises(ValueError):
            with span("boom") as sp:
                raise ValueError("no")
        assert sp.attrs["error"] == "ValueError"

    def test_duration_is_positive_and_available_mid_span(self):
        with span("timed") as sp:
            time.sleep(0.002)
            mid = sp.duration_ms
            assert mid > 0
        assert sp.duration_ms >= mid

    def test_annotate(self):
        with span("s") as sp:
            sp.annotate(backend="dp", cached=False)
        assert sp.attrs["backend"] == "dp"


class TestLeafAndChildSpans:
    def test_leaf_span_is_not_published(self):
        with leaf_span("leaf") as leaf:
            assert current_span() is None
            with span("stray") as stray:
                pass
        # The stray span could not discover the leaf: it became a root.
        assert stray.parent is None
        assert leaf.children == []

    def test_leaf_span_still_nests_under_ambient_parent(self):
        with span("outer") as outer:
            with leaf_span("leaf") as leaf:
                pass
        assert leaf.parent is outer
        assert outer.children == [leaf]
        assert leaf.trace_id == outer.trace_id

    def test_child_span_attaches_to_explicit_parent(self):
        leaf = leaf_span("task")
        with leaf:
            with child_span(leaf, "engine-step") as step:
                pass
        assert step.parent is leaf
        assert leaf.children == [step]
        assert step.trace_id == leaf.trace_id

    def test_child_span_without_parent_uses_ambient_discovery(self):
        with span("outer") as outer:
            with child_span(None, "step") as step:
                pass
        assert step.parent is outer


class TestContextPropagation:
    def test_asyncio_tasks_inherit_the_creating_span(self):
        async def child_work():
            with span("in-task") as sp:
                await asyncio.sleep(0)
            return sp

        async def main():
            with span("request") as request:
                inner = await asyncio.create_task(child_work())
            return request, inner

        request, inner = asyncio.run(main())
        assert inner.parent is request
        assert inner in request.children

    def test_bind_current_context_carries_spans_across_pools(self):
        def pool_work():
            with span("pool-side") as sp:
                pass
            return sp

        with ThreadPoolExecutor(max_workers=1) as pool:
            with span("caller") as caller:
                bound = pool.submit(bind_current_context(pool_work)).result()
                unbound = pool.submit(pool_work).result()
        assert bound.parent is caller
        assert unbound.parent is None

    def test_scheduler_style_ctx_run_keeps_trace_id(self):
        import contextvars

        with span("request") as request:
            ctx = contextvars.copy_context()
        # The worker runs later, outside the span's lifetime, in a copy of
        # the submit-time context — exactly the scheduler's arrangement.
        assert ctx.run(current_trace_id) == request.trace_id


class TestRingBuffers:
    def test_roots_land_in_recent_children_do_not(self):
        with span("root"):
            with span("child"):
                pass
        names = [sp.name for sp in recent_traces()]
        assert names == ["root"]

    def test_slow_traces_capture_over_threshold(self):
        previous = set_slowlog_threshold_ms(0.0)
        try:
            with span("slowpoke"):
                pass
        finally:
            set_slowlog_threshold_ms(previous)
        assert [sp.name for sp in slow_traces()] == ["slowpoke"]
        assert [sp.name for sp in recent_traces()] == ["slowpoke"]
        assert slowlog_threshold_ms() == previous

    def test_fast_roots_stay_out_of_slow_ring(self):
        with span("quick"):
            pass
        assert slow_traces() == []

    def test_sampling_stride_thins_the_recent_ring(self):
        set_trace_sampling(4)
        assert trace_sampling() == 4
        clear_traces()
        for _ in range(8):
            with span("sampled"):
                pass
        # The tick counter is global, so any 8 consecutive roots hit the
        # 1-in-4 stride exactly twice regardless of phase.
        assert len(recent_traces()) == 2

    def test_sampling_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            set_trace_sampling(0)

    def test_limit_and_clear(self):
        for _ in range(3):
            with span("r"):
                pass
        assert len(recent_traces(limit=2)) == 2
        clear_traces()
        assert recent_traces() == []


class TestRingEdgeCases:
    def test_slow_roots_survive_sampling_pressure(self):
        # A stride so large that effectively no fast root is retained;
        # slow roots must still land in BOTH rings unconditionally.
        set_trace_sampling(997)
        set_slowlog_threshold_ms(1.0)
        clear_traces()
        for _ in range(5):
            with span("fast"):
                pass
        with span("slow"):
            time.sleep(0.003)
        assert [sp.name for sp in slow_traces()] == ["slow"]
        recent = [sp.name for sp in recent_traces()]
        assert "slow" in recent
        # at most one fast root can have hit the global stride boundary
        assert recent.count("fast") <= 1

    def test_recent_ring_overflow_keeps_newest_in_order(self):
        from repro.obs.trace import RECENT_LIMIT

        for i in range(RECENT_LIMIT + 40):
            with span("r", i=i):
                pass
        kept = recent_traces()
        assert len(kept) == RECENT_LIMIT
        assert [sp.attrs["i"] for sp in kept] \
            == list(range(40, RECENT_LIMIT + 40))

    def test_slow_ring_overflow_keeps_newest_in_order(self):
        from repro.obs.trace import SLOW_LIMIT

        set_slowlog_threshold_ms(0.0)
        for i in range(SLOW_LIMIT + 8):
            with span("s", i=i):
                pass
        kept = slow_traces()
        assert len(kept) == SLOW_LIMIT
        assert [sp.attrs["i"] for sp in kept] \
            == list(range(8, SLOW_LIMIT + 8))


class TestAdoptTrace:
    def test_live_root_adopts_caller_id_for_whole_tree(self):
        with span("server.request") as root:
            root.adopt_trace("abc-123")
            with span("inner") as inner:
                pass
        assert root.trace_id == "abc-123"
        assert inner.trace_id == "abc-123"

    def test_nested_span_keeps_its_parents_trace(self):
        with span("outer") as outer:
            with span("inner") as inner:
                inner.adopt_trace("zzz-9")
        assert inner.trace_id == outer.trace_id
        assert outer.trace_id != "zzz-9"

    def test_dead_span_ignores_adoption(self):
        set_tracing(False)
        with span("x") as sp:
            sp.adopt_trace("abc")
        assert sp.trace_id is None

    def test_empty_id_falls_back_to_a_fresh_one(self):
        with span("a") as sp:
            sp.adopt_trace(None)
            sp.adopt_trace("")
        assert sp.trace_id  # freshly allocated, not the empty string
        assert sp.trace_id != ""


class TestDisabledTracing:
    def test_disabled_spans_time_but_build_nothing(self):
        set_tracing(False)
        assert tracing_enabled() is False
        with span("outer") as outer:
            assert current_span() is None
            with span("inner") as inner:
                pass
        assert outer.duration_ms >= 0
        assert outer.children == []
        assert inner.parent is None
        assert outer.trace_id is None
        assert recent_traces() == []

    def test_set_tracing_returns_previous(self):
        assert set_tracing(False) is True
        assert set_tracing(True) is False


class TestRendering:
    def test_span_to_dict_shape(self):
        with span("root", route="/count") as root:
            with span("child", obj=object()):
                pass
        data = span_to_dict(root)
        assert data["name"] == "root"
        assert data["trace_id"] == root.trace_id
        assert data["attrs"] == {"route": "/count"}
        (child,) = data["children"]
        assert child["name"] == "child"
        assert child["attrs"]["obj"].startswith("<object")  # repr fallback
        assert "trace_id" in child  # inherited, still serialised
        # Already-serialised trees pass through untouched.
        assert span_to_dict(data) is data

    def test_render_span_tree(self):
        with span("root", route="/count") as root:
            with span("child"):
                pass
        text = render_span(root)
        lines = text.splitlines()
        assert lines[0].startswith("root")
        assert "route=/count" in lines[0]
        assert f"[trace {root.trace_id}]" in lines[0]
        assert lines[1].startswith("  child")
        assert "[trace" not in lines[1]  # id shown on the root line only
