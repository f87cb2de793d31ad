"""Command-line interface.

Examples
--------
::

    repro analyze "q(x1, x2) :- E(x1, y), E(x2, y)" --json
    repro wl-dim  "q(x1, x2, x3) :- E(x1, y), E(x2, y), E(x3, y)"
    repro witness "q(x1, x2) :- E(x1, y), E(x2, y)" --max-multiplicity 2
    repro count   "q(x1, x2) :- E(x1, y), E(x2, y)" --batch 10 --interpolate
    repro engine-stats --targets 16 --n 10 --persistent /tmp/repro-cache
    repro dominating --n 8 --p 0.4 --k 2 --seed 7
    repro serve --port 8765 --data-dir /tmp/repro-cache
    repro client --port 8765 count-answers "q(x1, x2) :- E(x1, y), E(x2, y)" --target hosts
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.core.dominating import (
    count_dominating_sets_brute,
    count_dominating_sets_via_stars,
    dominating_set_wl_dimension,
)
from repro.core.wl_dimension import analyse_query, wl_dimension
from repro.core.witnesses import verify_lower_bound
from repro.errors import ReproError
from repro.graphs.generators import random_graph
from repro.queries.parser import format_query, parse_query


def _task_payload(task) -> dict:
    """``task``'s result in the response shape of its HTTP verb route."""
    from repro.api.session import default_session
    from repro.service.wire import result_to_payload

    return result_to_payload(default_session().run(task))


def _cmd_analyze(args: argparse.Namespace) -> int:
    if args.json:
        from repro.api.tasks import AnalyzeTask

        print(json.dumps(_task_payload(AnalyzeTask(args.query)), indent=2))
        return 0
    query = parse_query(args.query)
    print(format_query(query, style="logic"))
    for key, value in analyse_query(query).items():
        print(f"  {key:28s} {value}")
    return 0


def _cmd_wl_dim(args: argparse.Namespace) -> int:
    if args.json:
        from repro.api.tasks import WlDimensionTask

        print(json.dumps(_task_payload(WlDimensionTask(args.query)), indent=2))
        return 0
    query = parse_query(args.query)
    print(wl_dimension(query))
    return 0


def _cmd_witness(args: argparse.Namespace) -> int:
    query = parse_query(args.query)
    report = verify_lower_bound(
        query,
        max_multiplicity=args.max_multiplicity,
        check_wl=not args.skip_wl,
    )
    witness = report.witness
    print(f"query               {format_query(witness.query, style='logic')}")
    print(f"ew = sew            {witness.width}")
    print(f"ell (odd)           {witness.ell}")
    print(f"|V(F)|              {witness.f_graph.num_vertices()}")
    print(f"|V(chi(F, 0))|      {witness.untwisted.num_vertices()}")
    print(f"cpAns (untw, tw)    {report.cp_answers}")
    print(f"Ans_id (untw, tw)   {report.id_answers}")
    print(f"extendable          {report.extendable}")
    print(f"Lemma 50 holds      {report.lemma50_holds}")
    print(f"Lemma 55 holds      {report.lemma55_holds}")
    print(f"(k-1)-WL-equivalent {report.wl_equivalent_below}")
    print(f"k-WL distinguishes  {report.distinguished_at_width}")
    print(f"clone separation    {report.clone_separation}")
    print(f"ALL CHECKS PASS     {report.all_checks_pass}")
    return 0 if report.all_checks_pass else 1


def _cmd_dominating(args: argparse.Namespace) -> int:
    graph = random_graph(args.n, args.p, seed=args.seed)
    brute = count_dominating_sets_brute(graph, args.k)
    via_stars = count_dominating_sets_via_stars(graph, args.k)
    print(f"G(n={args.n}, p={args.p}, seed={args.seed}); k={args.k}")
    print(f"  brute-force count      {brute}")
    print(f"  star-identity count    {via_stars}")
    print(f"  WL-dimension (Cor. 6)  {dominating_set_wl_dimension(args.k)}")
    return 0 if brute == via_stars else 1


def _cmd_count(args: argparse.Namespace) -> int:
    from repro.api.session import default_session
    from repro.engine import default_engine
    from repro.graphs.io import from_graph6
    from repro.queries.answers import (
        count_answers,
        count_answers_by_interpolation,
    )

    query = parse_query(args.query)
    if args.graph6:
        hosts = [from_graph6(args.graph6)]
    elif args.batch > 1:
        hosts = [
            random_graph(args.n, args.p, seed=args.seed + i)
            for i in range(args.batch)
        ]
    else:
        hosts = [random_graph(args.n, args.p, seed=args.seed)]

    if args.json:
        from repro.api.tasks import AnswerCountTask

        # One host emits exactly the payload shape `POST /count-answers`
        # returns; a batch wraps those payloads with the engine report.
        results = [
            _task_payload(AnswerCountTask(args.query, host)) for host in hosts
        ]
        if len(results) == 1:
            print(json.dumps(results[0], indent=2))
        else:
            print(json.dumps(
                {
                    "kind": "count-answers-batch",
                    "query": args.query,
                    "results": results,
                    "engine": default_engine().stats_summary(),
                },
                indent=2,
            ))
        return 0

    # Batch mode always exercises the engine-backed routes (Lemma-22
    # interpolation, and the answer plan that `auto` runs for non-Boolean
    # queries) so the cache statistics describe real work; each is
    # cross-checked against direct enumeration.
    engine_route = (args.interpolate or len(hosts) > 1) and not query.is_boolean()

    print(f"query  {format_query(query, style='logic')}")
    status = 0
    for host in hosts:
        direct = count_answers(query, host)
        line = f"host {host!r}  |Ans| {direct}"
        if engine_route:
            routes = (
                ("Lemma-22 interpolation", count_answers_by_interpolation(query, host)),
                ("answer plan", default_session().run_answer_count(query, host)),
            )
            for name, value in routes:
                agreement = "ok" if value == direct else "MISMATCH"
                line += f"  via {name} {value} [{agreement}]"
                if value != direct:
                    status = 1
        print(line)
    if engine_route and len(hosts) > 1:
        stats = default_engine().stats_summary()
        print(
            f"engine: {stats['plans_compiled']} plans compiled, "
            f"{stats['count_hits']}/{stats['count_requests']} count-cache hits",
        )
    return status


def _run_dynamic_workload(engine, args) -> dict:
    """The ``engine-stats`` dynamic segment: maintain the workload's
    low-treewidth patterns over a mutating copy of one target and report
    the shared version/delta statistics payload."""
    import random as random_module

    from repro.dynamic import DynamicGraph, MaintainedCount
    from repro.service.wire import dynamic_stats_payload
    from repro.wl.hom_indistinguishability import bounded_treewidth_patterns

    rng = random_module.Random(args.seed)
    dynamic = DynamicGraph(random_graph(args.n, args.p, seed=args.seed))
    patterns = bounded_treewidth_patterns(args.tw, args.max_pattern_vertices)
    handles = [
        MaintainedCount(pattern, dynamic, engine=engine)
        for pattern in patterns
    ]
    vertices = list(dynamic.graph.vertices())
    for _ in range(args.dynamic_batches):
        graph = dynamic.graph
        add_edges, remove_edges = [], []
        seen = set()
        for _ in range(3):
            u, v = rng.sample(vertices, 2)
            key = frozenset((u, v))
            if key in seen:
                continue
            seen.add(key)
            (remove_edges if graph.has_edge(u, v) else add_edges).append((u, v))
        dynamic.apply(add_edges=add_edges, remove_edges=remove_edges)
    dynamic.rollback()
    payload = dynamic_stats_payload(dynamic.stats)
    payload["version"] = dynamic.version
    payload["maintained_counts"] = len(handles)
    return payload


def _cmd_engine_stats(args: argparse.Namespace) -> int:
    from repro.engine import HomEngine
    from repro.obs import registry as metrics_registry, span
    from repro.wl.hom_indistinguishability import bounded_treewidth_patterns

    patterns = bounded_treewidth_patterns(args.tw, args.max_pattern_vertices)
    targets = [
        random_graph(args.n, args.p, seed=args.seed + i)
        for i in range(args.targets)
    ]
    store = None
    if args.persistent:
        from repro.service.store import PersistentStore

        store = PersistentStore(args.persistent)
    engine = HomEngine(processes=args.processes, store=store)

    cold_span = span("cli.engine-stats.cold-batch")
    with cold_span:
        engine.count_batch(patterns, targets, pool=args.pool)
    warm_span = span("cli.engine-stats.warm-batch")
    with warm_span:
        engine.count_batch(patterns, targets, pool=args.pool)
    cold_ms, warm_ms = cold_span.duration_ms, warm_span.duration_ms

    kinds: dict[str, int] = {}
    for pattern in patterns:
        kind = engine.plan_for(pattern).kind
        kinds[kind] = kinds.get(kind, 0) + 1

    dynamic_payload = None
    if args.dynamic_batches > 0:
        dynamic_payload = _run_dynamic_workload(engine, args)

    backends_payload = None
    if args.backends:
        from repro import kernel

        backends_payload = kernel.kernel_report()

    if args.json:
        print(json.dumps(
            {
                "kind": "engine-stats",
                "patterns": len(patterns),
                "targets": len(targets),
                "plan_kinds": kinds,
                "cold_ms": round(cold_ms, 3),
                "warm_ms": round(warm_ms, 3),
                "engine": engine.stats_summary(),
                "dynamic": dynamic_payload,
                "backends": backends_payload,
                # Additive: the process metrics snapshot alongside the
                # CacheStats block; pre-existing fields are unchanged.
                "metrics": metrics_registry().snapshot(),
            },
            indent=2,
        ))
        return 0

    print(
        f"workload        {len(patterns)} patterns "
        f"(tw<={args.tw}, <={args.max_pattern_vertices} vertices) x "
        f"{len(targets)} targets G({args.n}, {args.p})",
    )
    print(f"plan kinds      {kinds}")
    print(f"cold batch      {cold_ms:.1f} ms")
    print(f"warm batch      {warm_ms:.1f} ms (served from count cache)")
    for key, value in sorted(engine.stats_summary().items()):
        print(f"  {key:24s} {value}")
    if store is not None:
        print("persistent tier")
        for key, value in sorted(store.summary().items()):
            print(f"  {key:24s} {value}")
    if dynamic_payload is not None:
        print(
            f"dynamic workload ({args.dynamic_batches} batches + rollback, "
            f"{dynamic_payload['maintained_counts']} maintained counts)",
        )
        for key, value in sorted(dynamic_payload.items()):
            if key != "kind":
                print(f"  {key:24s} {value}")
    if backends_payload is not None:
        numpy_line = (
            f"numpy {backends_payload['numpy_version']}"
            if backends_payload["numpy_available"]
            else "numpy unavailable (pure-Python tier only)"
        )
        if backends_payload["forced"]:
            numpy_line += f", forced={backends_payload['forced']}"
        print(f"kernel backends  {numpy_line}")
        print(f"  thresholds      {backends_payload['thresholds']}")
        selected = backends_payload["selected"] or {}
        for key in sorted(selected):
            print(f"  selected        {key:18s} {selected[key]}")
        fallbacks = backends_payload["fallbacks"] or {}
        for key in sorted(fallbacks):
            print(f"  fallback        {key:18s} {fallbacks[key]}")
        if not fallbacks:
            print("  fallback        (none)")
    return 0


def _make_generator_graph(args: argparse.Namespace):
    from repro.graphs import complete_graph, cycle_graph, grid_graph, path_graph

    if args.generator == "random":
        return random_graph(args.n, args.p, seed=args.seed)
    if args.generator == "cycle":
        return cycle_graph(args.n)
    if args.generator == "path":
        return path_graph(args.n)
    if args.generator == "complete":
        return complete_graph(args.n)
    if args.generator == "grid":
        side = max(2, int(round(args.n ** 0.5)))
        return grid_graph(side, side)
    raise AssertionError(f"unknown generator {args.generator!r}")


def _cmd_encode_stats(args: argparse.Namespace) -> int:
    from repro.graphs.indexed import IndexedGraph, graph_memory_footprint
    from repro.obs import span

    graph = _make_generator_graph(args)
    if args.rich_labels:
        graph = graph.relabelled(
            {
                v: (("w", v), frozenset({hash(v) % 5, "tag"}))
                for v in graph.vertices()
            },
        )

    encode_span = span("cli.encode-stats.encode")
    with encode_span:
        indexed = IndexedGraph.from_graph(graph)
    invariants_span = span("cli.encode-stats.invariants")
    with invariants_span:
        indexed.bitsets()
        indexed.degree_sequence()
        indexed.connected_components()

    graph_bytes = graph_memory_footprint(graph)
    indexed_bytes = indexed.memory_footprint()
    payload = {
        "kind": "encode-stats",
        "generator": args.generator,
        "vertices": graph.num_vertices(),
        "edges": graph.num_edges(),
        "rich_labels": bool(args.rich_labels),
        "encode_ms": round(encode_span.duration_ms, 3),
        "invariants_ms": round(invariants_span.duration_ms, 3),
        "graph_bytes": graph_bytes,
        "indexed_bytes": indexed_bytes,
        "bytes_ratio": round(indexed_bytes / graph_bytes, 3) if graph_bytes else None,
        "structural_digest": indexed.structural_digest(),
    }
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    print(
        f"{args.generator} graph: n={payload['vertices']} m={payload['edges']}"
        f"{' (rich labels)' if args.rich_labels else ''}",
    )
    print(f"  encode (CSR + codec)     {payload['encode_ms']:.3f} ms")
    print(f"  invariants (bitsets &c)  {payload['invariants_ms']:.3f} ms")
    print(f"  Graph adjacency bytes    {graph_bytes}")
    print(f"  IndexedGraph bytes       {indexed_bytes}")
    print(f"  indexed / dict-of-sets   {payload['bytes_ratio']}")
    print(f"  structural digest        {payload['structural_digest'][:16]}…")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    """``repro stats``: the observability snapshot — the local process
    metrics registry, or (with ``--port``) a running service's."""
    from repro.obs import registry as metrics_registry

    if args.port is not None:
        from repro.service.client import ServiceClient

        client = ServiceClient(host=args.host, port=args.port)
        if args.metrics:
            text = client.metrics_text()
            if text:
                print(text, end="" if text.endswith("\n") else "\n")
            return 0
        print(json.dumps(
            {"kind": "metrics", "metrics": client.metrics()}, indent=2,
        ))
        return 0
    if args.metrics:
        text = metrics_registry().render_prometheus()
        if text:
            print(text, end="" if text.endswith("\n") else "\n")
        return 0
    print(json.dumps(
        {"kind": "metrics", "metrics": metrics_registry().snapshot()}, indent=2,
    ))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """``repro trace``: run one task with tracing on and print its span
    tree (the ``Result.explain()`` rendering, or the wire payload)."""
    from repro.api import (
        AnswerCountTask,
        HomCountTask,
        Session,
        WlDimensionTask,
    )
    from repro.graphs.io import from_graph6
    from repro.obs import set_tracing

    if args.pattern_graph6:
        pattern = from_graph6(args.pattern_graph6)
        target = (
            from_graph6(args.graph6) if args.graph6
            else random_graph(args.n, args.p, seed=args.seed)
        )
        task = HomCountTask(pattern, target)
    elif args.query is not None:
        if args.wl_dim:
            task = WlDimensionTask(args.query)
        else:
            target = (
                from_graph6(args.graph6) if args.graph6
                else random_graph(args.n, args.p, seed=args.seed)
            )
            task = AnswerCountTask(args.query, target)
    else:
        raise ReproError("pass a query, or --pattern-graph6 for a hom count")

    previous = set_tracing(True)
    try:
        session = Session()
        for _ in range(max(1, args.repeat)):
            result = session.run(task)
    finally:
        set_tracing(previous)
    if args.json:
        from repro.service.wire import result_to_wire

        print(json.dumps(result_to_wire(result), indent=2))
        return 0
    print(result.explain())
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """``repro profile``: sample this process while an inner repro
    command runs, or inspect/control a running service's profiler."""
    from repro.obs import profile_snapshot, start_profiling, stop_profiling

    if args.port is not None:
        from repro.service.client import ServiceClient

        client = ServiceClient(host=args.host, port=args.port)
        if args.start:
            payload = client.profile_start(
                interval_ms=args.interval_ms, keep_idle=args.keep_idle,
            )
            print(json.dumps(payload, indent=2))
            return 0
        if args.stop:
            snapshot = client.profile_stop()
        elif args.collapsed:
            text = client.profile_collapsed()
            print(text, end="" if text.endswith("\n") or not text else "\n")
            return 0
        else:
            snapshot = client.profile()
        _print_profile(snapshot, args)
        return 0
    if not args.cmd:
        raise ReproError(
            "pass a repro command to profile (e.g. `repro profile -- trace "
            "'q(x) :- E(x, y)'`), or --port to talk to a running service",
        )
    inner = list(args.cmd)
    if inner and inner[0] == "--":
        inner = inner[1:]
    if not inner:
        raise ReproError("nothing to profile after '--'")
    if inner[0] in ("profile",):
        raise ReproError("refusing to profile `repro profile` recursively")
    start_profiling(interval_ms=args.interval_ms, keep_idle=args.keep_idle)
    try:
        exit_code = main(inner)
    finally:
        snapshot = stop_profiling()
    _print_profile(snapshot, args)
    return exit_code


def _print_profile(snapshot: dict, args: argparse.Namespace) -> None:
    if args.json:
        print(json.dumps({"kind": "profile", "profile": snapshot}, indent=2))
        return
    if args.collapsed:
        from repro.obs import render_collapsed

        text = render_collapsed()
        if text:
            print(text, end="")
        return
    print(
        f"profile: {snapshot['samples']} samples over "
        f"{snapshot['elapsed_s']}s (interval {snapshot['interval_ms']} ms, "
        f"{snapshot['idle_skipped']} idle skipped)",
    )
    spans = snapshot.get("spans", {})
    if spans:
        print("samples by span:")
        width = max(len(name) for name in spans)
        for name, count in sorted(
            spans.items(), key=lambda item: (-item[1], item[0]),
        ):
            print(f"  {name:<{width}}  {count}")
    top = snapshot.get("stacks", [])[: args.top]
    if top:
        print(f"heaviest stacks (top {len(top)}):")
        for stack in top:
            label = stack["span"] if stack["span"] is not None else "-"
            print(f"  {stack['samples']:>6}  [{label}]")
            for frame in stack["frames"][-args.depth:]:
                print(f"          {frame}")


def _cmd_slowlog(args: argparse.Namespace) -> int:
    """``repro slowlog``: the slow-query log — local process, or a
    running service's with ``--port``."""
    if args.port is not None:
        from repro.service.client import ServiceClient

        client = ServiceClient(host=args.host, port=args.port)
        payload = client.slow_queries(
            limit=args.limit, threshold_ms=args.threshold_ms,
        )
    else:
        from repro.obs import (
            set_slowlog_threshold_ms,
            slow_queries,
            slowlog_threshold_ms,
        )

        if args.threshold_ms is not None:
            set_slowlog_threshold_ms(args.threshold_ms)
        payload = {
            "kind": "slow-queries",
            "threshold_ms": slowlog_threshold_ms(),
            "slow_queries": slow_queries(args.limit),
        }
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    entries = payload["slow_queries"]
    print(
        f"slow-query log: {len(entries)} entries "
        f"(threshold {payload['threshold_ms']} ms)",
    )
    for entry in entries:
        trace_id = entry.get("trace_id") or "-"
        print(
            f"  #{entry['seq']}  {entry['elapsed_ms']:.3f} ms  "
            f"{entry['kind']}  [{entry['executor']}]  trace {trace_id}",
        )
        cost = entry.get("cost")
        if cost:
            print(
                f"      compile {cost['compile_ms']:.3f}  "
                f"execute {cost['execute_ms']:.3f}  "
                f"encode {cost['encode_ms']:.3f}  "
                f"lookup {cost['lookup_ms']:.3f} ms",
            )
        if args.explain:
            for line in entry.get("explain", "").splitlines():
                print(f"      {line}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.server import run_server

    return run_server(
        host=args.host,
        port=args.port,
        data_dir=args.data_dir,
        workers=args.workers,
        max_queue=args.queue,
    )


def _cmd_cluster(args: argparse.Namespace) -> int:
    """``repro cluster``: the multi-process topology — a consistent-hash
    router fronting N supervised worker processes, same wire protocol as
    ``repro serve`` (every existing client and subcommand points at the
    router's port unchanged)."""
    from repro.cluster import run_cluster

    return run_cluster(
        host=args.host,
        port=args.port,
        workers=args.workers,
        data_dir=args.data_dir,
        scheduler_workers=args.scheduler_workers,
        max_queue=args.queue,
    )


def _client_target(args: argparse.Namespace):
    from repro.service.client import ServiceError

    if args.target:
        return args.target
    if args.graph6:
        return {"graph6": args.graph6}
    raise ServiceError("pass --target NAME or --graph6 GRAPH6 for the target")


def _cmd_client(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient

    client = ServiceClient(host=args.host, port=args.port)
    action = args.action
    if action == "stats":
        payload = client.stats()
    elif action == "health":
        payload = client.health()
    elif action == "wl-dim":
        payload = client.wl_dim(args.query)
    elif action == "analyze":
        payload = client.analyze(args.query)
    elif action == "register":
        from repro.graphs.io import from_graph6

        if args.graph6:
            graph = from_graph6(args.graph6)
        else:
            graph = random_graph(args.n, args.p, seed=args.seed)
        payload = client.register_graph(args.name, graph)
    elif action == "count":
        from repro.graphs.io import from_graph6

        pattern = from_graph6(args.pattern_graph6)
        payload = client.count(pattern, _client_target(args))
    elif action == "count-answers":
        payload = client.count_answers(args.query, _client_target(args))
    else:  # pragma: no cover - argparse restricts the choices
        raise AssertionError(f"unknown client action {action!r}")
    print(json.dumps(payload, indent=2))
    return 0


def _coerce_vertex(token: str):
    """CLI vertex names: integers when they parse (graph6 datasets use
    0..n-1), strings otherwise."""
    try:
        return int(token)
    except ValueError:
        return token


def _split_pair(option: str, value: str) -> list:
    parts = [part.strip() for part in value.split(",")]
    if len(parts) != 2 or not all(parts):
        raise ReproError(f"--{option} expects 'u,v', got {value!r}")
    return [_coerce_vertex(part) for part in parts]


def _split_triple(option: str, value: str) -> list:
    parts = [part.strip() for part in value.split(",")]
    if len(parts) != 3 or not all(parts):
        raise ReproError(f"--{option} expects 'source,label,target', got {value!r}")
    return [_coerce_vertex(parts[0]), parts[1], _coerce_vertex(parts[2])]


def _cmd_update(args: argparse.Namespace) -> int:
    """``repro update``: advance a registered dataset on a running
    service; ``--json`` emits the exact ``POST /target-update`` payload."""
    from repro.service.client import ServiceClient, ServiceError

    client = ServiceClient(host=args.host, port=args.port)
    add_edges = [_split_pair("add-edge", v) for v in args.add_edge]
    remove_edges = [_split_pair("remove-edge", v) for v in args.remove_edge]
    add_triples = [_split_triple("add-triple", v) for v in args.add_triple]
    remove_triples = [
        _split_triple("remove-triple", v) for v in args.remove_triple
    ]
    add_vertices = [_coerce_vertex(v) for v in args.add_vertex]
    remove_vertices = [_coerce_vertex(v) for v in args.remove_vertex]
    if not any((add_edges, remove_edges, add_vertices, remove_vertices,
                add_triples, remove_triples)):
        raise ServiceError(
            "pass at least one --add-edge/--remove-edge/--add-vertex/"
            "--remove-vertex (graphs) or --add-triple/--remove-triple (KGs)",
        )
    payload = client.target_update(
        args.target,
        add_edges=add_edges,
        remove_edges=remove_edges,
        add_vertices=add_vertices,
        remove_vertices=remove_vertices,
        add_triples=add_triples,
        remove_triples=remove_triples,
    )
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    applied = payload["applied"]
    print(f"dataset {payload['target']} -> version {payload['version']} "
          f"({'patched' if payload['patched'] else 'recompiled'})")
    print("  applied      " + ", ".join(f"{k}={v}" for k, v in applied.items()))
    dynamic = payload["dynamic"]
    print(f"  patch ratio  {dynamic['patch_ratio']} "
          f"({dynamic['index_patches']} patches / "
          f"{dynamic['index_recompiles']} recompiles)")
    print(f"  delta ratio  {dynamic['delta_ratio']} "
          f"({dynamic['deltas_applied']} deltas / "
          f"{dynamic['delta_fallbacks']} fallback recomputes)")
    for subscription in payload["subscriptions"]:
        print(f"  {subscription['id']:16s} {subscription['maintains']:14s} "
              f"value {subscription['value']}")
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    """``repro watch``: poll the service's maintained subscriptions and
    print values as versions advance."""
    import time

    from repro.service.client import ServiceClient

    client = ServiceClient(host=args.host, port=args.port)
    previous: dict[str, tuple] = {}
    ticks = 0
    while True:
        payloads = client.subscriptions()
        if args.target:
            payloads = [p for p in payloads if p["target"] == args.target]
        if args.json:
            print(json.dumps(
                {"kind": "watch", "tick": ticks, "subscriptions": payloads},
            ))
        else:
            for payload in payloads:
                key = payload["id"]
                state = (payload["version"], payload["value"])
                if previous.get(key) != state:
                    marker = "*" if key in previous else "+"
                    print(f"{marker} {payload['target']}/{key} "
                          f"[{payload['maintains']}] version {state[0]} "
                          f"value {state[1]}")
                    previous[key] = state
        ticks += 1
        if args.count and ticks >= args.count:
            return 0
        time.sleep(args.interval)


def _cmd_health(args: argparse.Namespace) -> int:
    """``repro health``: liveness/readiness of a running service.

    ``--wait TIMEOUT`` polls ``/readyz`` until the service is ready —
    the scripted replacement for sleep/retry startup loops.  Exit code 0
    when healthy/ready, 1 when not (so shell gates compose:
    ``repro health --wait 30 --port 8765 && run-load-test``).
    """
    from repro.service.client import ServiceClient, ServiceError

    client = ServiceClient(host=args.host, port=args.port)
    if args.wait is not None:
        try:
            payload = client.wait_ready(timeout=args.wait)
        except ServiceError as error:
            if args.json:
                print(json.dumps(
                    {"kind": "readyz", "ready": False, "error": str(error)},
                ))
            else:
                print(f"not ready: {error}", file=sys.stderr)
            return 1
        if args.json:
            print(json.dumps(payload, indent=2))
        else:
            print(f"ready ({payload.get('datasets', 0)} dataset(s) registered)")
        return 0
    status, payload = client.readyz() if args.ready else client.healthz()
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"{payload.get('status', '?')} (HTTP {status})")
        for name, probe in sorted(payload.get("probes", {}).items()):
            line = f"  {probe.get('status', '?'):<9} {name}"
            if probe.get("reason"):
                line += f" — {probe['reason']}"
            print(line)
    return 0 if status == 200 else 1


_TOP_COLOURS = {
    "ok": "\x1b[32m", "degraded": "\x1b[33m", "failing": "\x1b[31m",
}
_TOP_RESET = "\x1b[0m"


def _top_snapshot(client) -> dict:
    """One combined dashboard tick over the monitoring routes."""
    status, health = client.healthz()
    return {
        "kind": "top",
        "healthz_status": status,
        "health": health,
        "stats": client.stats(),
        "slo": client.slo(),
        "alerts": client.alerts(),
    }


def _render_top(
    snap: dict,
    previous: dict | None,
    interval: float,
    host: str,
    port: int,
    plain: bool,
) -> str:
    """The ``repro top`` frame: header, scheduler, requests (+rates),
    SLOs, alerts, probes — every lookup defensive so a partial payload
    renders instead of crashing the dashboard."""

    def paint(status: str, text: str | None = None) -> str:
        text = status if text is None else text
        colour = _TOP_COLOURS.get(status)
        if plain or colour is None:
            return text
        return f"{colour}{text}{_TOP_RESET}"

    health = snap.get("health", {})
    stats = snap.get("stats", {})
    slo = snap.get("slo", {})
    alerts = snap.get("alerts", {})
    probes = health.get("probes", {})
    firing = alerts.get("firing", [])
    status = health.get("status", "?")
    lines = [
        f"repro top — {host}:{port} — health {paint(status)} — "
        + paint(
            "failing" if firing else "ok",
            f"{len(firing)} alert(s) firing",
        ),
        "",
    ]

    sched = stats.get("scheduler", {})
    workers = probes.get("scheduler-workers", {}).get("data", {})
    queue = probes.get("scheduler-queue", {}).get("data", {})
    lines.append(
        "scheduler   "
        f"workers {workers.get('alive', '?')}/{workers.get('configured', '?')}"
        f"  executed {sched.get('executed', 0)}"
        f"  failed {sched.get('failed', 0)}"
        f"  coalesce {sched.get('coalesce_rate', 0.0):.0%}"
        f"  queue {queue.get('saturation', 0.0):.0%} of "
        f"{queue.get('max_queue', '?')}",
    )

    engine = stats.get("engine", {})
    if engine:
        interesting = [
            (key, engine[key])
            for key in sorted(engine)
            if isinstance(engine[key], (int, float)) and engine[key]
        ][:6]
        if interesting:
            lines.append(
                "engine      "
                + "  ".join(f"{key} {value}" for key, value in interesting),
            )

    cluster = stats.get("cluster", {})
    if cluster:
        router = cluster.get("router", {})
        lines.append("")
        lines.append(
            "cluster     "
            f"workers {router.get('admitted', '?')}"
            f"  log {router.get('log_entries', 0)}"
            f"  datasets {len(router.get('datasets', {}))}",
        )
        lines.append(
            "worker     port    reachable   requests  executed  coalesced",
        )
        for worker in cluster.get("workers", []):
            reachable = bool(worker.get("reachable"))
            # Pad before painting: ANSI codes would defeat the format
            # width, shifting every later column.
            verdict = paint(
                "ok" if reachable else "failing",
                f"{'yes' if reachable else 'DOWN':<11}",
            )
            lines.append(
                f"{worker.get('id', '?'):<10} {worker.get('port') or '?':<7}"
                f" {verdict}"
                f" {worker.get('requests', 0):>8}"
                f"  {worker.get('executed', 0):>8}"
                f"  {worker.get('coalesced', 0):>9}",
            )

    requests = stats.get("requests", {})
    if requests:
        prev_requests = (previous or {}).get("stats", {}).get("requests", {})
        lines.append("")
        lines.append("route                 total      rate")
        for route in sorted(requests):
            total = requests[route]
            if previous is not None and interval > 0:
                rate = (total - prev_requests.get(route, 0)) / interval
                rate_text = f"{rate:8.1f}/s"
            else:
                rate_text = "        --"
            lines.append(f"{route:<20} {total:>6} {rate_text}")

    objectives = slo.get("objectives", [])
    if objectives:
        lines.append("")
        lines.append("slo objective                     attained    burn   ok")
        for obj in objectives:
            attained = obj.get("attained_ms")
            if attained is None and obj.get("kind") == "error-rate":
                attained = f"{obj.get('error_rate', 0.0):.2%}"
            elif attained is None:
                attained = "--"
            elif attained == float("inf"):
                attained = ">buckets"
            else:
                attained = f"{attained:g}ms"
            verdict = paint("ok" if obj.get("ok") else "failing",
                            "yes" if obj.get("ok") else "NO")
            lines.append(
                f"{obj.get('objective', '?'):<32} {attained:>9}"
                f"  {obj.get('burn_rate', 0.0):6.2f}   {verdict}",
            )

    if firing:
        lines.append("")
        lines.append("alerts firing:")
        by_name = {a.get("name"): a for a in alerts.get("alerts", [])}
        for name in firing:
            alert = by_name.get(name, {})
            lines.append(
                "  " + paint("failing", name)
                + f" [{alert.get('severity', '?')}] {alert.get('reason', '')}",
            )

    lines.append("")
    lines.append("probes: " + "  ".join(
        f"{name}={paint(probe.get('status', '?'))}"
        for name, probe in sorted(probes.items())
    ))
    return "\n".join(lines)


def _cmd_top(args: argparse.Namespace) -> int:
    """``repro top``: a refresh-loop terminal dashboard over a running
    service's ``/stats`` + ``/healthz`` + ``/slo`` + ``/alerts``."""
    import time

    from repro.service.client import ServiceClient

    client = ServiceClient(host=args.host, port=args.port)
    if args.json:
        print(json.dumps(_top_snapshot(client), indent=2))
        return 0
    previous: dict | None = None
    ticks = 0
    try:
        while True:
            snap = _top_snapshot(client)
            frame = _render_top(
                snap, previous, args.interval, args.host, args.port,
                plain=args.plain,
            )
            if not args.plain:
                sys.stdout.write("\x1b[2J\x1b[H")  # clear screen, home
            print(frame)
            sys.stdout.flush()
            previous = snap
            ticks += 1
            if args.count and ticks >= args.count:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _cmd_union(args: argparse.Namespace) -> int:
    from repro.core.quantum import union_to_quantum
    from repro.queries.parser import parse_union_query

    queries = parse_union_query(args.query)
    quantum = union_to_quantum(queries)
    print(f"disjuncts        {len(queries)}")
    print(f"quantum terms    {len(quantum.terms)}")
    print(f"hsew = WL-dim    {quantum.wl_dimension()}")
    host = random_graph(args.n, args.p, seed=args.seed)
    print(f"answers on G({args.n}, {args.p}, seed {args.seed}): "
          f"{quantum.count_answers(host)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "The Weisfeiler-Leman dimension of conjunctive queries "
            "(PODS 2024) — analysis tools"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    json_help = "emit the machine-readable payload the service API returns"

    analyze = sub.add_parser("analyze", help="structural report for a query")
    analyze.add_argument("query", help="datalog or logic style query text")
    analyze.add_argument("--json", action="store_true", help=json_help)
    analyze.set_defaults(func=_cmd_analyze)

    wl_dim = sub.add_parser("wl-dim", help="print the WL-dimension")
    wl_dim.add_argument("query")
    wl_dim.add_argument("--json", action="store_true", help=json_help)
    wl_dim.set_defaults(func=_cmd_wl_dim)

    witness = sub.add_parser(
        "witness", help="build + verify the lower-bound witness",
    )
    witness.add_argument("query")
    witness.add_argument("--max-multiplicity", type=int, default=2)
    witness.add_argument("--skip-wl", action="store_true")
    witness.set_defaults(func=_cmd_witness)

    count = sub.add_parser("count", help="count answers on host graphs")
    count.add_argument("query")
    count.add_argument("--graph6", help="host as a graph6 string")
    count.add_argument("--n", type=int, default=8)
    count.add_argument("--p", type=float, default=0.4)
    count.add_argument("--seed", type=int, default=0)
    count.add_argument(
        "--batch",
        type=int,
        default=1,
        metavar="N",
        help="count on N random hosts (seeds seed..seed+N-1); each count is "
        "cross-checked through the engine-backed Lemma-22 route and cache "
        "statistics are reported",
    )
    count.add_argument(
        "--interpolate",
        action="store_true",
        help="also recover the count from |Hom(F_ell)| (Lemma 22) and "
        "from the answer plan, each checked against direct enumeration",
    )
    count.add_argument("--json", action="store_true", help=json_help)
    count.set_defaults(func=_cmd_count)

    engine_stats = sub.add_parser(
        "engine-stats",
        help="run a patterns-x-targets workload and report engine caching",
    )
    engine_stats.add_argument("--tw", type=int, default=2)
    engine_stats.add_argument("--max-pattern-vertices", type=int, default=5)
    engine_stats.add_argument("--targets", type=int, default=8)
    engine_stats.add_argument("--n", type=int, default=10)
    engine_stats.add_argument("--p", type=float, default=0.4)
    engine_stats.add_argument("--seed", type=int, default=0)
    engine_stats.add_argument(
        "--processes", type=int, default=None,
        help="evaluate the batch on a worker pool of this size",
    )
    engine_stats.add_argument(
        "--pool", choices=("process", "thread"), default=None,
        help="worker-pool flavour (default: automatic — threads when the "
        "numpy kernel tier carries the counting)",
    )
    engine_stats.add_argument(
        "--backends", action="store_true",
        help="report kernel backend availability, per-layer selection "
        "counts, and overflow fallbacks",
    )
    engine_stats.add_argument(
        "--persistent", metavar="DIR", default=None,
        help="back the engine with an on-disk cache tier at DIR and "
        "report it (run twice to see a warm restart)",
    )
    engine_stats.add_argument(
        "--dynamic-batches", type=int, default=4, metavar="N",
        help="also run N update batches (+ one rollback) with maintained "
        "counts and report version/delta statistics (0 disables)",
    )
    engine_stats.add_argument("--json", action="store_true", help=json_help)
    engine_stats.set_defaults(func=_cmd_engine_stats)

    encode_stats = sub.add_parser(
        "encode-stats",
        help="report IndexedGraph encode time + memory vs the dict-of-sets Graph",
    )
    encode_stats.add_argument(
        "--generator",
        choices=("random", "cycle", "path", "grid", "complete"),
        default="random",
    )
    encode_stats.add_argument("--n", type=int, default=200)
    encode_stats.add_argument("--p", type=float, default=0.1)
    encode_stats.add_argument("--seed", type=int, default=0)
    encode_stats.add_argument(
        "--rich-labels",
        action="store_true",
        help="relabel vertices with CFI-style structured labels first",
    )
    encode_stats.add_argument("--json", action="store_true", help=json_help)
    encode_stats.set_defaults(func=_cmd_encode_stats)

    stats = sub.add_parser(
        "stats",
        help="print the observability metrics snapshot (local process, or "
        "a running service with --port)",
    )
    stats.add_argument(
        "--metrics", action="store_true",
        help="emit the Prometheus text exposition instead of JSON",
    )
    stats.add_argument("--host", default="127.0.0.1")
    stats.add_argument(
        "--port", type=int, default=None,
        help="scrape a running service's GET /metrics instead of this process",
    )
    stats.set_defaults(func=_cmd_stats)

    trace = sub.add_parser(
        "trace",
        help="run one task with tracing enabled and print its span tree",
    )
    trace.add_argument(
        "query", nargs="?", default=None,
        help="query text (answer count; --wl-dim analyses it instead)",
    )
    trace.add_argument(
        "--pattern-graph6", default=None,
        help="trace a hom count of this graph6 pattern instead of a query",
    )
    trace.add_argument("--graph6", help="target as a graph6 string")
    trace.add_argument("--n", type=int, default=10)
    trace.add_argument("--p", type=float, default=0.4)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument(
        "--wl-dim", action="store_true",
        help="trace the WL-dimension analysis of the query",
    )
    trace.add_argument(
        "--repeat", type=int, default=1, metavar="N",
        help="run the task N times and print the last trace (N=2 shows "
        "the warm-cache path)",
    )
    trace.add_argument("--json", action="store_true", help=json_help)
    trace.set_defaults(func=_cmd_trace)

    profile = sub.add_parser(
        "profile",
        help="sample-profile an inner repro command (span-attributed, "
        "flame-graph output), or a running service with --port",
    )
    profile.add_argument(
        "--interval-ms", type=float, default=5.0,
        help="sampling interval in milliseconds",
    )
    profile.add_argument(
        "--keep-idle", action="store_true",
        help="keep samples of threads parked in blocking calls",
    )
    profile.add_argument(
        "--collapsed", action="store_true",
        help="emit collapsed-stack text (flamegraph.pl / speedscope input)",
    )
    profile.add_argument(
        "--top", type=int, default=5,
        help="heaviest stacks to show in the summary",
    )
    profile.add_argument(
        "--depth", type=int, default=6,
        help="innermost frames to show per stack in the summary",
    )
    profile.add_argument("--host", default="127.0.0.1")
    profile.add_argument(
        "--port", type=int, default=None,
        help="talk to a running service's profiler instead of sampling "
        "this process",
    )
    profile.add_argument(
        "--start", action="store_true",
        help="with --port: start the service's profiler",
    )
    profile.add_argument(
        "--stop", action="store_true",
        help="with --port: stop the service's profiler and print the profile",
    )
    profile.add_argument("--json", action="store_true", help=json_help)
    profile.add_argument(
        "cmd", nargs=argparse.REMAINDER,
        help="repro command to run under the profiler (prefix with --)",
    )
    profile.set_defaults(func=_cmd_profile)

    slowlog = sub.add_parser(
        "slowlog",
        help="print the slow-query log (local process, or a running "
        "service with --port)",
    )
    slowlog.add_argument("--limit", type=int, default=20)
    slowlog.add_argument(
        "--threshold-ms", type=float, default=None,
        help="retune the capture threshold before reading",
    )
    slowlog.add_argument(
        "--explain", action="store_true",
        help="print each entry's full explain output",
    )
    slowlog.add_argument("--host", default="127.0.0.1")
    slowlog.add_argument("--port", type=int, default=None)
    slowlog.add_argument("--json", action="store_true", help=json_help)
    slowlog.set_defaults(func=_cmd_slowlog)

    health = sub.add_parser(
        "health",
        help="check a running service's health/readiness (exit 0 healthy, "
        "1 not); --wait polls /readyz until ready",
    )
    health.add_argument("--host", default="127.0.0.1")
    health.add_argument("--port", type=int, default=8765)
    health.add_argument(
        "--wait", type=float, default=None, metavar="TIMEOUT",
        help="poll /readyz for up to TIMEOUT seconds (startup gate)",
    )
    health.add_argument(
        "--ready", action="store_true",
        help="query /readyz instead of /healthz",
    )
    health.add_argument("--json", action="store_true", help=json_help)
    health.set_defaults(func=_cmd_health)

    top = sub.add_parser(
        "top",
        help="live terminal dashboard over a running service "
        "(/stats + /healthz + /slo + /alerts)",
    )
    top.add_argument("--host", default="127.0.0.1")
    top.add_argument("--port", type=int, default=8765)
    top.add_argument(
        "--interval", type=float, default=2.0,
        help="seconds between refreshes",
    )
    top.add_argument(
        "--count", type=int, default=0, metavar="N",
        help="render N frames then exit (0 = run until interrupted)",
    )
    top.add_argument(
        "--plain", action="store_true",
        help="no ANSI colours or screen clearing (dumb terminals, logs)",
    )
    top.add_argument(
        "--json", action="store_true",
        help="print one combined JSON snapshot and exit",
    )
    top.set_defaults(func=_cmd_top)

    serve = sub.add_parser(
        "serve", help="run the counting service (HTTP/JSON, stdlib only)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765)
    serve.add_argument(
        "--data-dir", default=None,
        help="directory for the persistent plan/count cache tier",
    )
    serve.add_argument("--workers", type=int, default=4)
    serve.add_argument(
        "--queue", type=int, default=256,
        help="bounded request queue size (backpressure beyond it)",
    )
    serve.set_defaults(func=_cmd_serve)

    cluster = sub.add_parser(
        "cluster",
        help="run the multi-process topology: a consistent-hash router over N "
        "supervised worker processes (same wire protocol as serve)",
    )
    cluster.add_argument("--host", default="127.0.0.1")
    cluster.add_argument("--port", type=int, default=8765)
    cluster.add_argument(
        "--workers", type=int, default=2,
        help="worker processes behind the router",
    )
    cluster.add_argument(
        "--data-dir", default=None,
        help="shared persistent cache directory (all workers warm it)",
    )
    cluster.add_argument(
        "--scheduler-workers", type=int, default=4,
        help="scheduler worker tasks inside each worker process",
    )
    cluster.add_argument(
        "--queue", type=int, default=256,
        help="bounded request queue size inside each worker",
    )
    cluster.set_defaults(func=_cmd_cluster)

    client = sub.add_parser(
        "client", help="query a running counting service",
    )
    client.add_argument("--host", default="127.0.0.1")
    client.add_argument("--port", type=int, default=8765)
    client_sub = client.add_subparsers(dest="action", required=True)
    client_sub.add_parser("stats")
    client_sub.add_parser("health")
    for name in ("wl-dim", "analyze"):
        action = client_sub.add_parser(name)
        action.add_argument("query")
    register = client_sub.add_parser("register")
    register.add_argument("--name", required=True)
    register.add_argument("--graph6", help="dataset as a graph6 string")
    register.add_argument("--n", type=int, default=12)
    register.add_argument("--p", type=float, default=0.3)
    register.add_argument("--seed", type=int, default=0)
    client_count = client_sub.add_parser("count")
    client_count.add_argument("--pattern-graph6", required=True)
    client_count.add_argument("--target", help="registered dataset name")
    client_count.add_argument("--graph6", help="inline target as graph6")
    client_answers = client_sub.add_parser("count-answers")
    client_answers.add_argument("query")
    client_answers.add_argument("--target", help="registered dataset name")
    client_answers.add_argument("--graph6", help="inline target as graph6")
    client.set_defaults(func=_cmd_client)

    update = sub.add_parser(
        "update",
        help="apply an update batch to a registered dataset on a running "
        "service (advances its version, refreshes maintained counts)",
    )
    update.add_argument("--host", default="127.0.0.1")
    update.add_argument("--port", type=int, default=8765)
    update.add_argument("--target", required=True, help="registered dataset name")
    update.add_argument(
        "--add-edge", action="append", default=[], metavar="U,V",
    )
    update.add_argument(
        "--remove-edge", action="append", default=[], metavar="U,V",
    )
    update.add_argument(
        "--add-vertex", action="append", default=[], metavar="V",
    )
    update.add_argument(
        "--remove-vertex", action="append", default=[], metavar="V",
    )
    update.add_argument(
        "--add-triple", action="append", default=[], metavar="S,L,T",
        help="KG datasets: add the triple (source, label, target)",
    )
    update.add_argument(
        "--remove-triple", action="append", default=[], metavar="S,L,T",
    )
    update.add_argument("--json", action="store_true", help=json_help)
    update.set_defaults(func=_cmd_update)

    watch = sub.add_parser(
        "watch",
        help="poll a running service's maintained subscriptions and print "
        "values as target versions advance",
    )
    watch.add_argument("--host", default="127.0.0.1")
    watch.add_argument("--port", type=int, default=8765)
    watch.add_argument("--target", default=None, help="filter to one dataset")
    watch.add_argument("--interval", type=float, default=2.0)
    watch.add_argument(
        "--count", type=int, default=0, metavar="N",
        help="stop after N polls (0 = run until interrupted)",
    )
    watch.add_argument("--json", action="store_true", help=json_help)
    watch.set_defaults(func=_cmd_watch)

    union = sub.add_parser(
        "union", help="analyse a union of CQs (disjuncts separated by ';')",
    )
    union.add_argument("query")
    union.add_argument("--n", type=int, default=7)
    union.add_argument("--p", type=float, default=0.4)
    union.add_argument("--seed", type=int, default=0)
    union.set_defaults(func=_cmd_union)

    dominating = sub.add_parser(
        "dominating", help="dominating-set counting demo (Corollary 6)",
    )
    dominating.add_argument("--n", type=int, default=8)
    dominating.add_argument("--p", type=float, default=0.4)
    dominating.add_argument("--k", type=int, default=2)
    dominating.add_argument("--seed", type=int, default=0)
    dominating.set_defaults(func=_cmd_dominating)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
