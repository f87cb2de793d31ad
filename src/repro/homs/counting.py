"""Unified homomorphism-counting entry point.

``count_homomorphisms`` dispatches between the brute-force backtracking
counter, the treewidth DP, and — for ``method='auto'`` — the
:class:`~repro.engine.engine.HomEngine`, which compiles each pattern once
(matrix closed form, DP instruction tape, or brute force, chosen by a
treewidth-aware cost model) and caches both plans and finished counts.

The explicit methods bypass the engine's caches.  ``'brute'`` is the
independent oracle every other path is tested against; ``'dp'`` runs the
same compiled instruction tape as the engine's
:class:`~repro.engine.plans.DPPlan`, compiled per call instead of cached.
"""

from __future__ import annotations

from typing import Literal, Mapping

from repro.errors import EngineError
from repro.graphs.graph import Graph, Vertex
from repro.homs.brute_force import count_homomorphisms_brute
from repro.homs.treewidth_dp import count_homomorphisms_dp

Method = Literal["auto", "brute", "dp"]


def count_homomorphisms(
    pattern: Graph,
    target: Graph,
    method: Method = "auto",
    allowed: Mapping[Vertex, frozenset] | None = None,
) -> int:
    """``|Hom(pattern, target)|``, optionally restricted by ``allowed``.

    Parameters
    ----------
    method:
        ``'brute'`` forces backtracking, ``'dp'`` forces the treewidth DP,
        ``'auto'`` (default) delegates to the shared
        :class:`~repro.engine.engine.HomEngine`: the backend is chosen by a
        greedy-treewidth cost model (dense small patterns go to brute
        force, sparse large ones to the DP, paths/cycles to closed-form
        linear algebra) and repeated calls reuse compiled plans and cached
        counts.
    allowed:
        Optional per-pattern-vertex candidate sets (colour restrictions).
    """
    if method == "brute":
        return count_homomorphisms_brute(pattern, target, allowed=allowed)
    if method == "dp":
        return count_homomorphisms_dp(pattern, target, allowed=allowed)
    if method != "auto":
        raise EngineError(f"unknown method {method!r}")
    if allowed is not None:
        # Colour restrictions are label-bound engine internals; they stay
        # below the task layer.  Imported lazily: repro.engine pulls in the
        # treewidth stack, and the homs package must stay importable from
        # its own submodules.
        from repro.engine.engine import default_engine

        return default_engine().count(pattern, target, allowed=allowed)
    # The unrestricted auto path is a thin shim over the task API, so this
    # entry point, `Session.run(HomCountTask(...))`, the service, and the
    # dynamic layer all share one execution route.
    from repro.api.session import default_session

    return default_session().run_hom_count(pattern, target)


def hom_vector(
    patterns: list[Graph],
    target: Graph,
    method: Method = "auto",
) -> tuple[int, ...]:
    """The homomorphism-count profile of ``target`` over ``patterns``.

    Profiles over graph classes are how homomorphism indistinguishability
    (Section 5.1) is decided in practice.  ``method='auto'`` evaluates the
    profile through the engine, so the pattern family is compiled once per
    process however many targets are profiled.
    """
    if method == "auto":
        from repro.engine.engine import default_engine

        return default_engine().hom_vector(patterns, target)
    return tuple(count_homomorphisms(p, target, method=method) for p in patterns)
