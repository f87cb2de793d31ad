"""The :class:`Session` facade: one entry point, any executor.

A session owns a :class:`~repro.service.registry.DatasetRegistry` and an
executor, and runs any :mod:`~repro.api.tasks` spec:

>>> session = Session()                                   # doctest: +SKIP
>>> session.register("hosts", graph)
>>> session.run(HomCountTask(cycle_graph(4), "hosts")).value

``session.using(executor)`` rebinds the same registry to another
executor, which is how the cross-executor equivalence suite runs one
spec everywhere:

>>> local = Session()                                     # doctest: +SKIP
>>> dynamic = local.using(DynamicExecutor(registry=local.registry))
>>> remote = local.using(ServiceExecutor(port=server.port))

Sessions also expose ``run_*`` fast paths returning bare ints; the
legacy ``count_homomorphisms`` / ``count_answers`` / ``count_kg_answers``
entry points are thin shims over these, so every public counting route in
the library funnels through one object model.
"""

from __future__ import annotations

from repro.api.executors import Executor, LocalExecutor
from repro.api.result import Result
from repro.api.tasks import Task, TaskBatch
from repro.errors import TaskError


class Session:
    """Resolve once, run anywhere: the library's uniform task runner."""

    def __init__(self, executor: Executor | None = None, engine=None, registry=None) -> None:
        if executor is not None and engine is not None:
            raise TaskError("pass an executor or an engine, not both")
        if executor is not None and registry is not None:
            # An executor brings its own registry; a silently ignored
            # one would strand every dataset registered in it.
            raise TaskError(
                "pass an executor or a registry, not both "
                "(construct the executor with registry=...)",
            )
        if executor is None:
            executor = LocalExecutor(engine=engine, registry=registry)
        self.executor = executor
        self.registry = getattr(executor, "registry", None)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def using(self, executor: Executor) -> "Session":
        """The same session state bound to a different executor.

        Registry-backed executors (local, dynamic) are rebound to *this*
        session's registry, so datasets registered here stay visible; a
        :class:`~repro.api.executors.ServiceExecutor` keeps its own
        server-side state.  The executor must be freshly constructed and
        not shared with another session: rebinding takes ownership of its
        (empty) registry slot, and an executor that already holds
        datasets is rejected rather than silently stranding them.
        """
        if self.registry is not None and hasattr(executor, "registry"):
            if len(executor.registry):
                raise TaskError(
                    "using() needs a freshly constructed executor; build "
                    "it with registry=session.registry instead",
                )
            executor.registry = self.registry
        return Session(executor=executor)

    # ------------------------------------------------------------------
    # dataset management
    # ------------------------------------------------------------------
    def register(self, name: str, target):
        """Register a named dataset with the executor's backing store.

        Graphs and knowledge graphs both register; on a
        :class:`~repro.api.executors.ServiceExecutor` this becomes a
        ``register-dataset`` request, otherwise it lands in the shared
        in-process registry (as a dynamic stream, so the dynamic executor
        can maintain counts over it).
        """
        client = getattr(self.executor, "client", None)
        if client is not None:
            if hasattr(target, "triples"):
                return client.register_kg(name, target)
            return client.register_graph(name, target)
        if self.registry is None:
            raise TaskError("executor has no registry to register datasets in")
        if hasattr(target, "triples"):
            return self.registry.register_kg(name, target).summary()
        return self.registry.register_graph(name, target).summary()

    def update(self, name: str, **updates):
        """Advance a registered dataset by one update batch.

        Keywords are the wire update fields: ``add_edges`` /
        ``remove_edges`` / ``add_vertices`` / ``remove_vertices`` for
        graph datasets, ``add_vertices`` / ``add_triples`` /
        ``remove_triples`` for KGs; a non-empty field the dataset's kind
        does not take raises ``WireError``.  Returns the new version
        number.
        """
        client = getattr(self.executor, "client", None)
        if client is not None:
            return client.target_update(name, **updates)["version"]
        if self.registry is None:
            raise TaskError("executor has no registry to update datasets in")
        from repro.service.wire import update_from_spec

        kind = self.registry.get(name).kind
        update = update_from_spec(kind, updates)
        if kind == "kg":
            _, record = self.registry.update_kg(name, **update)
        else:
            _, record = self.registry.update_graph(name, update)
        return record.version

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, task: Task) -> Result:
        """Execute one spec on this session's executor."""
        if isinstance(task, TaskBatch):
            raise TaskError("run a TaskBatch through run_batch()")
        return self.executor.run(task)

    def run_batch(self, batch) -> list[Result]:
        """Execute a batch (or any iterable of specs), one result each."""
        if not isinstance(batch, TaskBatch):
            batch = TaskBatch(batch)
        return self.executor.run_batch(batch)

    def explain(self, task: Task) -> str:
        """Run a spec and render its :meth:`~repro.api.result.Result.explain`."""
        return self.run(task).explain()

    # ------------------------------------------------------------------
    # fast paths (bare values, no Result) — the legacy shims ride these
    # ------------------------------------------------------------------
    def run_hom_count(self, pattern, target) -> int:
        executor = self.executor
        if isinstance(executor, LocalExecutor):
            return executor.hom_count(pattern, target)
        from repro.api.tasks import HomCountTask

        return self.run(HomCountTask(pattern, target)).value

    def run_answer_count(self, query, target, method: str = "auto") -> int:
        executor = self.executor
        if isinstance(executor, LocalExecutor):
            return executor.answer_count(query, target, method=method)
        from repro.api.tasks import AnswerCountTask

        return self.run(AnswerCountTask(query, target, method=method)).value

    def run_kg_answer_count(self, query, target) -> int:
        executor = self.executor
        if isinstance(executor, LocalExecutor):
            return executor.kg_answer_count(query, target)
        from repro.api.tasks import KgAnswerCountTask

        return self.run(KgAnswerCountTask(query, target)).value

    def close(self) -> None:
        self.executor.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


_default_session: Session | None = None


def default_session() -> Session:
    """The process-wide session behind the legacy ``count_*`` shims.

    Backed by a :class:`LocalExecutor` with no pinned engine, so it
    follows :func:`repro.engine.set_default_engine` swaps exactly like
    the pre-API call paths did.
    """
    global _default_session
    if _default_session is None:
        _default_session = Session()
    return _default_session
