"""Expected values, computed in the benchmark process by independent paths.

* cycles, paths and the 2×3 grid: closed forms over the adjacency matrix
  in plain numpy (``trace(A^k)``, ``1ᵀA^k1``, a rung transfer matrix) —
  no ``repro`` code involved, and cheap enough to check every version of
  a dataset under a stream of updates;
* every other pattern: a private :class:`~repro.engine.HomEngine` pinned
  to the pure-Python kernel tier, where the server runs the numpy tier;
* answer counts: the brute-force enumeration done at generation time
  (:func:`repro.queries.answers.extension_counts`), against the server's
  Lemma-22 interpolation;
* WL-dimension and analysis reports: the library functions run locally,
  which checks transport and serving rather than the theory.

None of this runs inside ``setup_s`` or the timed window.
"""

from __future__ import annotations

import json
import re

import numpy as np

from repro import kernel
from repro.engine import HomEngine

_INT64_HEADROOM = 2 ** 62


def adjacency(graph) -> np.ndarray:
    """Adjacency matrix of a graph on vertices ``0..n-1``."""
    return adjacency_from_edges(graph.num_vertices(), graph.edges())


def adjacency_from_edges(n: int, edges) -> np.ndarray:
    matrix = np.zeros((n, n), dtype=np.int64)
    for u, v in edges:
        matrix[u, v] = matrix[v, u] = 1
    return matrix


def closed_form(pid: str, matrix: np.ndarray) -> int | None:
    """``|Hom(pattern, G)|`` for the named cycle/path/grid patterns, or
    ``None`` when ``pid`` has no closed form or int64 could overflow."""
    n = matrix.shape[0]
    degree = int(matrix.sum(axis=1).max()) if n else 0
    match = re.fullmatch(r"([CP])(\d+)", pid)
    if match:
        k = int(match.group(2))
        edges = k if match.group(1) == "C" else k - 1
        if n * max(degree, 1) ** edges >= _INT64_HEADROOM:
            return None
        power = np.linalg.matrix_power(matrix, edges)
        return int(np.trace(power) if match.group(1) == "C" else power.sum())
    if pid == "grid":  # 2×3 ladder: three rungs, consecutive rungs adjacent
        if n * max(degree, 1) ** 5 >= _INT64_HEADROOM:
            return None
        rungs = matrix.copy()
        for _ in range(2):
            rungs = (matrix @ rungs @ matrix) * matrix
        return int(rungs.sum())
    return None


class Oracle:
    """Expected answers for one run's inputs, memoised per key."""

    def __init__(self, inputs) -> None:
        self.inputs = inputs
        self._engine = HomEngine()
        self._memo: dict = {}
        self._matrices: dict = {}

    def hom(self, pid: str, target_ref) -> int:
        """Expected count of pattern ``pid`` on a dataset or inline target."""
        key = ("hom", pid, target_ref)
        if key not in self._memo:
            graph = (
                self.inputs.inline[target_ref[1]]
                if isinstance(target_ref, tuple)
                else self.inputs.datasets[target_ref]
            )
            matrix = self._matrices.get(target_ref)
            if matrix is None:
                matrix = self._matrices[target_ref] = adjacency(graph)
            value = closed_form(pid, matrix)
            if value is None:
                with kernel.force_backend("python"):
                    value = self._engine.count(self.inputs.patterns[pid], graph)
            self._memo[key] = value
        return self._memo[key]

    def answers(self, qid: str, name: str) -> int:
        return self.inputs.answers[(qid, name)]

    def wl_dim(self, qid: str) -> int:
        from repro.core.wl_dimension import wl_dimension
        from repro.queries.parser import parse_query

        key = ("wl-dim", qid)
        if key not in self._memo:
            self._memo[key] = wl_dimension(parse_query(self.inputs.queries[qid]))
        return self._memo[key]

    def analysis(self, qid: str) -> dict:
        from repro.core.wl_dimension import analyse_query
        from repro.queries.parser import parse_query

        key = ("analyze", qid)
        if key not in self._memo:
            self._memo[key] = analyse_query(parse_query(self.inputs.queries[qid]))
        return self._memo[key]


def check_records(inputs, records) -> list[str]:
    """Check every recorded answer; one line per failed op (transport
    errors, refusals and wrong answers alike)."""
    oracle = Oracle(inputs)
    failures: dict[int, str] = {}
    per_version: dict[str, list] = {}
    for index, record in enumerate(records):
        if record.error is not None:
            failures[index] = f"{record.op!r}: {record.error}"
            continue
        kind, value = record.op[0], record.value
        if kind in ("count", "task"):
            expected = oracle.hom(record.op[1], record.op[2])
        elif kind == "answers":
            expected = oracle.answers(record.op[1], record.op[2])
        elif kind == "wl-dim":
            expected = oracle.wl_dim(record.op[1])
        elif kind == "analyze":
            expected = json.loads(json.dumps(oracle.analysis(record.op[1])))
        elif kind == "read":
            count, version = value
            per_version.setdefault(record.op[2], []).append(
                (version, record.op[1], count, index),
            )
            continue
        elif kind == "write":
            version, subscriptions = value
            name = inputs.writes[record.op[1]][0]
            for sub_id, (count, sub_version) in subscriptions.items():
                if sub_version != version:
                    failures[index] = f"{record.op!r}: stale subscription {sub_id}"
                per_version.setdefault(name, []).append(
                    (sub_version, sub_id.rsplit(":", 1)[1], count, index),
                )
            continue
        else:
            raise ValueError(f"unknown op kind {kind!r}")
        if value != expected:
            failures[index] = f"{record.op!r}: got {value!r}, expected {expected!r}"
    for name, checks in per_version.items():
        batches = [(adds, removes) for owner, adds, removes in inputs.writes if owner == name]
        versions = VersionOracle(inputs.datasets[name], batches)
        for version, pid, count, index in sorted(checks):
            expected = versions.count(pid, version)
            if count != expected:
                failures[index] = (
                    f"{records[index].op!r} at version {version}: "
                    f"got {count!r}, expected {expected!r}"
                )
    return [failures[index] for index in sorted(failures)]


class VersionOracle:
    """Closed-form counts of one dataset at every version of an update
    stream, replayed from the generated batches (version 0 = registered)."""

    def __init__(self, graph, batches) -> None:
        self.n = graph.num_vertices()
        self._edges = {tuple(sorted(edge)) for edge in graph.edges()}
        self._batches = list(batches)
        self._version = 0
        self._memo: dict = {}

    def count(self, pid: str, version: int) -> int:
        key = (pid, version)
        if key not in self._memo:
            if version < self._version:
                raise ValueError("versions must be checked in order")
            while self._version < version:
                adds, removes = self._batches[self._version]
                self._edges.difference_update(tuple(sorted(e)) for e in removes)
                self._edges.update(tuple(sorted(e)) for e in adds)
                self._version += 1
            value = closed_form(pid, adjacency_from_edges(self.n, self._edges))
            if value is None:
                raise ValueError(f"no closed form for {pid!r}")
            self._memo[key] = value
        return self._memo[key]
