"""repro.cluster — multi-process serving behind one router.

The sixth layer of the stack: a **router** (:mod:`~repro.cluster.router`)
fans the existing service wire protocol out over N supervised **worker**
subprocesses (:mod:`~repro.cluster.worker`,
:mod:`~repro.cluster.supervisor`), each running the full single-process
stack.  Datasets replicate everywhere (:mod:`~repro.cluster.state`);
rendezvous hashing of the task digest (:mod:`~repro.cluster.ring`) only
decides *cache affinity* — which is what lets the router resubmit any
request to any surviving worker when one dies, so a SIGKILL costs
latency, never a client-visible error.

The cluster runs on the service's transport: the router is served by
:class:`~repro.service.server.ServiceServer`, calls its workers with the
server's framing helpers, and :class:`Cluster` / :func:`run_cluster`
share their loop harness and blocking runner with ``repro serve``.  An
unmodified :class:`~repro.service.client.ServiceClient` talks to the
router exactly as it talks to ``repro serve``.
"""

from repro.cluster.ring import HashRing
from repro.cluster.router import ClusterRouter
from repro.cluster.state import ClusterState, LogEntry
from repro.cluster.supervisor import Cluster, Supervisor, run_cluster

__all__ = [
    "Cluster",
    "ClusterRouter",
    "ClusterState",
    "HashRing",
    "LogEntry",
    "Supervisor",
    "run_cluster",
]
