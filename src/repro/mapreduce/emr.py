"""Elastic-MapReduce-like service: S3-like storage + on-demand clusters.

Mirrors the paper's Section 5.1 workflow: upload inputs to S3, request a
job flow on a chosen number of EC2 instances, run the steps, collect the
results from S3, terminate the flow. Provisioning here is instant (the
elasticity *effect* — makespan scaling with node count — is what the
simulated cluster reproduces; EMR's spin-up latency is orthogonal to the
paper's Table 3, which reports processing time).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mapreduce.cluster import EMR_NODE_CONFIG, NodeConfig, SimulatedCluster
from repro.mapreduce.engine import MapReduceEngine
from repro.mapreduce.hdfs import SimulatedHDFS
from repro.mapreduce.job import JobFlow
from repro.mapreduce.storage import ResilientStore, RetryPolicy, S3Store

__all__ = ["S3Store", "ElasticMapReduce"]


@dataclass
class _ProvisionedFlow:
    flow_id: str
    flow: JobFlow
    n_nodes: int
    terminated: bool = False


class ElasticMapReduce:
    """The EMR front-end: provision job flows against shared S3 storage.

    Parameters
    ----------
    node_config:
        Per-node resources of provisioned clusters (Table 2 defaults).
    store:
        The raw object store backing the service (``None``: a fresh
        :class:`S3Store`). Pass a
        :class:`~repro.mapreduce.storage.ChaosStore` to run the whole
        storage plane under an injected fault schedule.
    retry:
        Backoff/deadline policy for :attr:`storage`, the hardened
        :class:`~repro.mapreduce.storage.ResilientStore` client every
        driver artifact and job-flow checkpoint goes through.
    """

    def __init__(
        self,
        *,
        node_config: NodeConfig = EMR_NODE_CONFIG,
        store=None,
        retry: RetryPolicy | None = None,
    ):
        self.s3 = store if store is not None else S3Store()
        self.storage = ResilientStore.wrap(self.s3, retry=retry)
        self.node_config = node_config
        self._flows: dict[str, _ProvisionedFlow] = {}
        self._next_id = 0

    def create_job_flow(
        self, n_nodes: int, *, split_size: int = 1024, checkpoint: bool = True, autoscaler=None
    ) -> tuple[str, JobFlow]:
        """Provision a cluster of ``n_nodes`` and return (flow_id, JobFlow).

        With ``checkpoint`` on (the default), completed job steps persist
        their outputs to S3 under ``{flow_id}/checkpoints/`` so the flow can
        be resumed after a driver crash via :meth:`resume_job_flow`. An
        ``autoscaler`` (:class:`~repro.mapreduce.autoscale.Autoscaler`)
        makes the provisioned size elastic: it resizes the cluster between
        phases and steps, with its decisions checkpointed next to the
        flow's so resume replays the same scaling schedule.
        """
        if n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
        cluster = SimulatedCluster(n_nodes, node=self.node_config)
        flow_id = f"j-{self._next_id:06d}"
        flow = JobFlow(
            engine=MapReduceEngine(cluster),
            fs=SimulatedHDFS(
                n_nodes, replication=self.node_config.replication, default_split_size=split_size
            ),
            checkpoint_store=self.storage if checkpoint else None,
            checkpoint_prefix=f"{flow_id}/checkpoints",
            autoscaler=autoscaler,
        )
        self._next_id += 1
        self._flows[flow_id] = _ProvisionedFlow(flow_id=flow_id, flow=flow, n_nodes=n_nodes)
        return flow_id, flow

    def run_job_flow(self, flow_id: str, *, max_steps: int | None = None) -> list:
        """Execute the steps of a provisioned flow.

        ``max_steps`` stops the driver loop early, leaving the flow
        incomplete — the crash/resume tests use it to simulate a driver
        crash between steps.
        """
        entry = self._flow(flow_id)
        if entry.terminated:
            raise RuntimeError(f"job flow {flow_id} is terminated")
        return entry.flow.run(max_steps=max_steps)

    def resume_job_flow(self, flow_id: str) -> list:
        """Restart an interrupted flow from its last completed checkpoint.

        Completed job steps are restored from S3 instead of re-executed;
        driver-side action steps re-run (they are deterministic). The flow
        must still be provisioned and not terminated.
        """
        entry = self._flow(flow_id)
        if entry.terminated:
            raise RuntimeError(f"job flow {flow_id} is terminated")
        return entry.flow.run(resume=True)

    def terminate(self, flow_id: str) -> None:
        """Release the flow's cluster (idempotent)."""
        self._flow(flow_id).terminated = True

    def flow_status(self, flow_id: str) -> dict:
        """Status snapshot: node count, steps, completion, makespan."""
        entry = self._flow(flow_id)
        return {
            "flow_id": entry.flow_id,
            "n_nodes": entry.n_nodes,
            "n_nodes_current": entry.flow.engine.cluster.n_nodes,
            "n_steps": len(entry.flow.steps),
            "completed_steps": len(entry.flow.results),
            "restored_steps": list(entry.flow.restored_steps),
            "terminated": entry.terminated,
            "makespan": entry.flow.makespan,
        }

    def _flow(self, flow_id: str) -> _ProvisionedFlow:
        try:
            return self._flows[flow_id]
        except KeyError:
            raise KeyError(f"unknown job flow {flow_id!r}") from None
