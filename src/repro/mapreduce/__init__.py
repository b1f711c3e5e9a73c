"""MapReduce execution substrate (the Hadoop/EMR role in the paper).

A deterministic, in-process MapReduce engine with the pieces the paper's
deployment story needs:

* :mod:`repro.mapreduce.types` — keyed records and job definitions,
* :mod:`repro.mapreduce.engine` — map / shuffle-sort / reduce, every task
  in-process,
* :mod:`repro.mapreduce.hdfs` — a simulated distributed filesystem
  (splits, replication, block placement),
* :mod:`repro.mapreduce.cluster` — a simulated cluster: nodes with map and
  reduce slots (Table 2's configuration), one LPT slot scheduler
  (``SimulatedCluster.simulate_phase``) that places every phase, clean or
  fault-injected, and a discrete cost model that yields simulated
  makespans (the elasticity quantity of Table 3),
* :mod:`repro.mapreduce.emr` — an Elastic-MapReduce-like service: an
  S3-like object store plus job flows of steps,
* :mod:`repro.mapreduce.autoscale` — the closed loop over the cluster:
  policies that read per-phase scheduling signals and resize the cluster
  between phases and steps (cold starts and decommission drains charged
  to the makespan, decisions checkpointed for bit-identical resume),
* :mod:`repro.mapreduce.storage` — the storage plane: the object store,
  the :class:`ChaosStore` fault injector, and the hardened
  :class:`ResilientStore` client (checksummed envelopes, atomic writes,
  seeded retries, quarantine),
* :mod:`repro.mapreduce.counters` — Hadoop-style counters.

Every task runs in the calling process; the simulated cluster alone
decides a job's makespan. The package spends no real cores:
``DASC.fit``'s per-bucket process pool lives in :mod:`repro.core.dasc`.
"""

from repro.mapreduce.types import MapTaskResult, JobSpec
from repro.mapreduce.counters import Counters
from repro.mapreduce.engine import MapReduceEngine, stable_hash
from repro.mapreduce.hdfs import SimulatedHDFS, FileSplit, ReplicaUnavailableError
from repro.mapreduce.storage import (
    StorageError,
    NoSuchKeyError,
    TransientStorageError,
    CorruptObjectError,
    StorageDeadlineError,
    StorageFaultPolicy,
    ChaosStore,
    RetryPolicy,
    ResilientStore,
    pack_envelope,
    unpack_envelope,
)
from repro.mapreduce.cluster import (
    NodeConfig,
    EMR_NODE_CONFIG,
    TABLE2_DEFAULTS,
    SimulatedCluster,
    TaskStats,
    PhaseTask,
    ScaleReport,
    SpeculationConfig,
)
from repro.mapreduce.autoscale import (
    Autoscaler,
    AutoscalerState,
    PhaseSignals,
    ScaleDecision,
    TargetMakespan,
)
from repro.mapreduce.job import Job, JobFlow, JobFlowStep, JobFlowError
from repro.mapreduce.emr import S3Store, ElasticMapReduce
from repro.mapreduce.faults import (
    FaultPolicy,
    NodeFailurePolicy,
    StragglerPolicy,
    FaultyEngine,
    TaskFailedError,
)

__all__ = [
    "MapTaskResult",
    "JobSpec",
    "Counters",
    "MapReduceEngine",
    "stable_hash",
    "SimulatedHDFS",
    "FileSplit",
    "ReplicaUnavailableError",
    "StorageError",
    "NoSuchKeyError",
    "TransientStorageError",
    "CorruptObjectError",
    "StorageDeadlineError",
    "StorageFaultPolicy",
    "ChaosStore",
    "RetryPolicy",
    "ResilientStore",
    "pack_envelope",
    "unpack_envelope",
    "NodeConfig",
    "EMR_NODE_CONFIG",
    "TABLE2_DEFAULTS",
    "SimulatedCluster",
    "TaskStats",
    "PhaseTask",
    "ScaleReport",
    "SpeculationConfig",
    "Autoscaler",
    "AutoscalerState",
    "PhaseSignals",
    "ScaleDecision",
    "TargetMakespan",
    "Job",
    "JobFlow",
    "JobFlowStep",
    "JobFlowError",
    "S3Store",
    "ElasticMapReduce",
    "FaultPolicy",
    "NodeFailurePolicy",
    "StragglerPolicy",
    "FaultyEngine",
    "TaskFailedError",
]
