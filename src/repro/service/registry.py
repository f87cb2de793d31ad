"""The dataset registry: register hosts once, serve them forever.

A *dataset* is a named host graph (or knowledge graph) a client registers
once; every subsequent request refers to it by name.  Registration does
the per-target work the per-request path should never repeat:

* the engine's **target cache key** (an O(n + m) fingerprint) is computed
  once and passed to :meth:`HomEngine.count` as ``target_id``;
* the dataset is **pre-encoded** to an
  :class:`~repro.graphs.indexed.IndexedGraph` — bitsets included — so the
  engine's index-space plans never pay the encode on the request path;
* knowledge graphs are **gadget-encoded** up front
  (:func:`repro.kg.engine_bridge.encode_kg`), so KG answer requests pay
  zero per-request encoding cost.

The registry is lock-guarded: registrations and lookups may arrive from
any server worker.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.dynamic.graph import DynamicGraph, GraphVersion, UpdateBatch
from repro.dynamic.kg import DynamicKnowledgeGraph, KgVersion
from repro.errors import ReproError
from repro.graphs.graph import Graph


class RegistryError(ReproError):
    """Unknown dataset name, wrong dataset kind, or a bad payload.

    Re-registering a name *replaces* the dataset (registration is
    idempotent for identical content — the common
    register-after-restart pattern); request coalescing keys on the
    dataset's content token, never on the name alone, so a replacement
    can never serve counts computed against the old graph.
    """

    code = "unknown-dataset"


class DatasetKindError(RegistryError):
    """The named dataset exists but is the wrong kind for the request."""

    code = "wrong-dataset-kind"


class DatasetNameError(RegistryError):
    """Dataset names must be non-empty strings."""

    code = "bad-dataset-name"


@dataclass(frozen=True)
class ServingState:
    """The request-path view of one dataset *version* — immutable, so a
    request reads it with a single attribute load and can never pair one
    version's graph with another version's cache key, however the update
    thread interleaves.  Fields describe exactly one version: ``graph``
    and ``target_id`` (graph datasets), or ``kg`` + ``kg_encoding`` (KG
    datasets), plus the coalescing ``content_token``.
    """

    version: int = 0
    graph: Graph | None = None
    target_id: tuple | None = None
    kg: object | None = None
    kg_encoding: object | None = None
    content_token: object = None


@dataclass
class Dataset:
    """One registered host with its precomputed request-path artefacts.

    Every dataset is *dynamic*: graph datasets wrap a
    :class:`~repro.dynamic.graph.DynamicGraph`, KG datasets a
    :class:`~repro.dynamic.kg.DynamicKnowledgeGraph`.  The current
    version's request-path view lives in one :class:`ServingState` that
    updates swap with a single (atomic) reference write; request
    handlers read ``dataset.serving`` once and work off that snapshot.
    The convenience properties below read the *current* snapshot — fine
    for reporting, but multi-field request paths must hold one
    ``serving`` reference.
    """

    name: str
    kind: str  # "graph" | "kg"
    dynamic: DynamicGraph | None = None
    dynamic_kg: DynamicKnowledgeGraph | None = None
    serving: ServingState = field(default_factory=ServingState)
    # Maintained handles subscribed through the service, by id.
    subscriptions: dict = field(default_factory=dict)

    @property
    def graph(self) -> Graph | None:
        return self.serving.graph

    @property
    def target_id(self) -> tuple | None:
        return self.serving.target_id

    @property
    def kg(self):
        return self.serving.kg

    @property
    def kg_encoding(self):
        return self.serving.kg_encoding

    @property
    def content_token(self):
        return self.serving.content_token

    @property
    def version(self) -> int:
        return self.serving.version

    @property
    def stats(self):
        if self.kind == "kg":
            return self.dynamic_kg.stats
        return self.dynamic.stats

    def summary(self) -> dict:
        serving = self.serving
        if self.kind == "kg":
            return {
                "name": self.name,
                "kind": "kg",
                "vertices": serving.kg.num_vertices(),
                "triples": serving.kg.num_triples(),
                "version": serving.version,
                "subscriptions": len(self.subscriptions),
            }
        return {
            "name": self.name,
            "kind": "graph",
            "vertices": serving.graph.num_vertices(),
            "edges": serving.graph.num_edges(),
            "version": serving.version,
            "subscriptions": len(self.subscriptions),
        }


class DatasetRegistry:
    """Thread-safe name → :class:`Dataset` map."""

    def __init__(self) -> None:
        self._datasets: dict[str, Dataset] = {}
        self._lock = threading.Lock()

    def register_graph(self, name: str, graph: Graph) -> Dataset:
        if not name or not isinstance(name, str):
            raise DatasetNameError(
                f"dataset name must be a non-empty string, got {name!r}",
            )
        dataset = Dataset(name=name, kind="graph", dynamic=DynamicGraph(graph))
        self._refresh_graph_fields(dataset, dataset.dynamic.snapshot())
        with self._lock:
            self._datasets[name] = dataset
        return dataset

    def _refresh_graph_fields(
        self, dataset: Dataset, record: GraphVersion,
    ) -> None:
        """Swap the serving state to ``record``'s snapshot (one atomic
        reference write — request handlers reading ``dataset.serving``
        see either the old version or the new one, never a mix).

        The served graph carries its (patched or recompiled) index
        already — ``DynamicGraph`` warms it per version — so no request
        ever re-encodes the dataset.  The version's ``target_id`` is also
        its content token.
        """
        dataset.serving = ServingState(
            version=record.version,
            graph=record.graph,
            target_id=record.target_id,
            content_token=record.target_id,
        )

    def update_graph(
        self, name: str, batch: UpdateBatch,
    ) -> tuple[Dataset, GraphVersion]:
        """Advance a graph dataset's version by one update batch."""
        dataset = self.get(name, kind="graph")
        with dataset.dynamic.lock:
            record = dataset.dynamic.apply(batch)
            self._refresh_graph_fields(dataset, record)
        return dataset, record

    def register_kg(self, name: str, kg) -> Dataset:
        if not name or not isinstance(name, str):
            raise DatasetNameError(
                f"dataset name must be a non-empty string, got {name!r}",
            )
        dataset = Dataset(name=name, kind="kg", dynamic_kg=DynamicKnowledgeGraph(kg))
        self._refresh_kg_fields(dataset, dataset.dynamic_kg.snapshot())
        with self._lock:
            self._datasets[name] = dataset
        return dataset

    def _refresh_kg_fields(self, dataset: Dataset, version: KgVersion) -> None:
        from repro.service.store import stable_key_digest
        from repro.service.wire import kg_to_spec

        dataset.serving = ServingState(
            version=version.version,
            kg=version.kg,
            kg_encoding=version.encoding,
            target_id=version.target_id,
            # Label-complete identity: the gadget graph digest alone would
            # not see vertex-label differences between separately
            # registered KGs (labels live in the allowed pools).
            content_token=stable_key_digest(kg_to_spec(version.kg)),
        )

    def update_kg(
        self,
        name: str,
        add_vertices=(),
        add_triples=(),
        remove_triples=(),
    ) -> tuple[Dataset, KgVersion]:
        """Advance a KG dataset's version by one update batch."""
        dataset = self.get(name, kind="kg")
        with dataset.dynamic_kg.lock:
            version = dataset.dynamic_kg.apply(
                add_vertices=add_vertices,
                add_triples=add_triples,
                remove_triples=remove_triples,
            )
            self._refresh_kg_fields(dataset, version)
        return dataset, version

    def get(self, name: str, kind: str | None = None) -> Dataset:
        with self._lock:
            dataset = self._datasets.get(name)
        if dataset is None:
            raise RegistryError(f"unknown dataset {name!r}")
        if kind is not None and dataset.kind != kind:
            raise DatasetKindError(
                f"dataset {name!r} is a {dataset.kind} dataset, not {kind}",
            )
        return dataset

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._datasets)

    def __len__(self) -> int:
        with self._lock:
            return len(self._datasets)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._datasets

    def summary(self) -> list[dict]:
        with self._lock:
            datasets = list(self._datasets.values())
        return [dataset.summary() for dataset in sorted(datasets, key=lambda d: d.name)]
